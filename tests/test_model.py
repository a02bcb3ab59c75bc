"""Inference binds each frame once, decodes only frames with two or
more slots, and matches the per-window forward."""

import numpy as np
import pytest

from solv import binding, datagen, evalkit, objecthead
from solv.config import DataConfig, ModelConfig, RunConfig, TrainConfig
from solv.diffcore import set_precision
from solv.model import Pipeline, infer_video


def small_cfg(**model_overrides) -> RunConfig:
    model = dict(k_slots=4, d_slot=16, n_window=2, transformer_layers=1,
                 transformer_heads=2, decoder_layers=3, decoder_hidden=24,
                 tau_merge=0.05)
    model.update(model_overrides)
    return RunConfig(
        model=ModelConfig(**model),
        data=DataConfig(canvas_h=32, canvas_w=32, patch=8, d_features=12,
                        sprite_max=3, seed=5),
        train=TrainConfig(precision="f64"),
    ).validate()


def per_window_oracle(pipe: Pipeline, features: np.ndarray):
    """Inference as one full ``forward_window`` per center frame, which
    re-encodes and re-binds every frame of every window."""
    cfg = pipe.cfg
    n, window = cfg.model.n_window, cfg.model.window
    f_total, n_tok, _ = features.shape
    kept = [np.arange(n_tok)] * window
    label_frames, slot_vectors = [], []
    for t in range(f_total):
        idx = np.arange(t - n, t + n + 1)
        availability = (idx >= 0) & (idx < f_total)
        window_feats = np.zeros((window,) + features.shape[1:], dtype=features.dtype)
        window_feats[availability] = features[idx[availability]]
        out = pipe.forward_window(window_feats, availability, kept, apply_merge=True)
        label_frames.append(evalkit.rasterize(
            out.decoded.m.data, cfg.data.grid_rows, cfg.data.grid_cols,
            cfg.data.canvas_h, cfg.data.canvas_w))
        slot_vectors.append(out.merged.cprime.data.copy())
    tracked = evalkit.link_tracks(slot_vectors, label_frames)
    return tracked, [v.shape[0] for v in slot_vectors]


@pytest.mark.parametrize("frames, seed, model_overrides", [
    (1, 1, {}),
    (3, 3, {}),
    (9, 9, {}),
    (9, 9, {"use_temporal_binding": False}),
    (9, 9, {"use_merging": False}),
    (9, 9, {"tau_merge": 1.99}),
    (5, 5, {"k_slots": 1}),
    (9, 3, {"tau_merge": 0.3}),
], ids=["one_frame", "shorter_than_window", "longer_than_window",
        "no_temporal_binding", "no_merging", "all_merged", "one_slot",
        "mixed_slot_counts"])
def test_infer_video_matches_per_window_oracle(frames, seed, model_overrides,
                                               monkeypatch):
    cfg = small_cfg(**model_overrides)
    set_precision(cfg.train.precision)
    d = cfg.data
    pipe = Pipeline(cfg, seed=seed)
    oracle = datagen.FeatureOracle(d.seed, d.n_identities, d.d_features, d.sigma_noise)
    spec = datagen.random_scene(seed, (d.canvas_h, d.canvas_w), d.patch, frames,
                                (d.sprite_min, d.sprite_max))
    features = datagen.render_clip(spec, oracle).features
    expected, expected_k_t = per_window_oracle(pipe, features)

    def counting(module, name):
        real, calls = getattr(module, name), []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    binds = counting(binding, "spatial_bind")
    decodes = counting(objecthead, "decode")
    tracked, k_t = infer_video(pipe, features)

    assert len(binds) == frames
    assert len(decodes) == sum(k > 1 for k in k_t)
    assert np.array_equal(tracked.frames, expected.frames)
    assert len(tracked.track_maps) == len(expected.track_maps)
    for got, want in zip(tracked.track_maps, expected.track_maps):
        assert np.array_equal(got, want)
    assert k_t == expected_k_t
    if not cfg.model.use_merging:
        assert k_t == [cfg.model.k_slots] * frames
    if cfg.model.tau_merge == 1.99 or cfg.model.k_slots == 1:
        assert k_t == [1] * frames
    if cfg.model.tau_merge == 0.3:
        assert min(k_t) == 1 < max(k_t)


def _features(cfg: RunConfig, frames: int) -> np.ndarray:
    d = cfg.data
    return np.random.default_rng(7).normal(size=(frames, d.n_tokens, d.d_features))


@pytest.mark.parametrize("features, message", [
    (lambda cfg: _features(cfg, 0), "no frames"),
    (lambda cfg: _features(cfg, 3)[..., :-1], "width 11 does not match"),
    (lambda cfg: _features(cfg, 4) * np.array([1, 1, np.nan, 1])[:, None, None],
     "non-finite features in frame 2"),
], ids=["zero_frames", "wrong_width", "non_finite"])
def test_infer_video_rejects_bad_features(features, message):
    cfg = small_cfg()
    set_precision(cfg.train.precision)
    with pytest.raises(ValueError, match=message):
        infer_video(Pipeline(cfg, seed=0), features(cfg))
