"""Training binds a clip's frames in one call and matches a per-frame
forward; inference binds each frame once, in chunks of frames and
windows, decodes only frames with two or more slots, and matches the
per-window forward."""

import math

import numpy as np
import pytest

from helpers import record_isa_moments
from solv import binding, datagen, diffcore as dc, encoder, evalkit, model, objecthead
from solv.config import DataConfig, ModelConfig, RunConfig, TrainConfig
from solv.diffcore import Tape, Tensor
from solv.encoder import make_drop_plan
from solv.model import Pipeline, infer_video


def small_cfg(precision="f64", canvas=32, **model_overrides) -> RunConfig:
    model = dict(k_slots=4, d_slot=16, transformer_layers=1,
                 transformer_heads=2, decoder_layers=3, decoder_hidden=24,
                 tau_merge=0.05)
    model.update(model_overrides)
    return RunConfig(
        model=ModelConfig(**model),
        data=DataConfig(canvas_h=canvas, canvas_w=canvas, patch=8, d_features=12,
                        sprite_max=3, seed=5),
        train=TrainConfig(precision=precision),
    ).validate()


def per_window_oracle(pipe: Pipeline, features: np.ndarray):
    """Inference as one full ``forward_window`` per center frame, which
    re-encodes and re-binds every frame of every window."""
    cfg = pipe.cfg
    window = cfg.data.frames
    n = window // 2
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


def _video(cfg: RunConfig, frames: int, seed: int) -> np.ndarray:
    d = cfg.data
    oracle = datagen.FeatureOracle(d.seed, d.n_identities, d.d_features, d.sigma_noise)
    spec = datagen.random_scene(seed, (d.canvas_h, d.canvas_w), d.patch, frames,
                                (d.sprite_min, d.sprite_max))
    return datagen.render_clip(spec, oracle).features


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper; returns the list that receives
    each call's first argument."""
    real, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _assert_same_segmentation(got, want):
    (tracked, k_t), (expected, expected_k_t) = got, want
    assert np.array_equal(tracked.frames, expected.frames)
    assert len(tracked.track_maps) == len(expected.track_maps)
    for got_map, want_map in zip(tracked.track_maps, expected.track_maps):
        assert np.array_equal(got_map, want_map)
    assert k_t == expected_k_t


# The default config with untrained weights ends binding with a smallest
# slot scale of 0.20-0.30 and a loss of 0.11. The oracle videos and clips must stay
# within ten times of both: a smallest final-iteration scale of at least
# 0.02 and a loss of at most 1.1.
LEAST_FINAL_SCALE, MOST_LOSS = 0.02, 1.1


def _least_final_scale(moments, cfg: RunConfig) -> float:
    """Smallest slot scale after the last iteration of every binding call
    that ``record_isa_moments`` saw."""
    return min(float(scale.data.min()) for scale, _ in
               moments[cfg.model.isa_iters - 1::cfg.model.isa_iters])


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
    cfg = small_cfg(canvas=64, **model_overrides)
    pipe = Pipeline(cfg, seed=seed)
    features = _video(cfg, frames, seed)
    expected = per_window_oracle(pipe, features)

    binds = _counting(monkeypatch, binding, "spatial_bind")
    decodes = _counting(monkeypatch, objecthead, "decode")
    moments = record_isa_moments(monkeypatch)
    tracked, k_t = infer_video(pipe, features)

    # every frame is bound once, at most CHUNK frames per call
    frames_per_call = [math.prod(tokens.shape[:-2]) for tokens in binds]
    assert sum(frames_per_call) == frames
    assert max(frames_per_call) <= model.CHUNK == 8
    assert len(decodes) == sum(k > 1 for k in k_t)
    _assert_same_segmentation((tracked, k_t), expected)
    if not cfg.model.use_merging:
        assert k_t == [cfg.model.k_slots] * frames
    if cfg.model.tau_merge == 1.99 or cfg.model.k_slots == 1:
        assert k_t == [1] * frames
    else:  # the decoder places two or more pooled slots
        assert max(k_t) >= 2
    if cfg.model.tau_merge == 0.3:
        assert min(k_t) == 1 < max(k_t)
    assert _least_final_scale(moments, cfg) >= LEAST_FINAL_SCALE


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("frames", [1, 7, 8, 9, 17])
def test_infer_video_chunks_match_per_window_oracle(frames, precision, monkeypatch):
    """Frame counts around the chunk size: a partial chunk, one full
    chunk, a full chunk and one frame, and two full chunks and one. The
    center slots that reach merging are bitwise those of one forward per
    window; without merging every frame is decoded."""
    cfg = small_cfg(precision, canvas=64, use_merging=False)
    pipe = Pipeline(cfg, seed=frames)
    features = _video(cfg, frames, seed=frames)
    merges = _counting(monkeypatch, objecthead, "merge_slots")
    expected = per_window_oracle(pipe, features)
    want = [c.data.copy() for c in merges]
    merges.clear()
    windows = _counting(monkeypatch, binding, "temporal_bind")
    moments = record_isa_moments(monkeypatch)
    got = infer_video(pipe, features)
    assert _least_final_scale(moments, cfg) >= LEAST_FINAL_SCALE

    assert len(merges) == len(want) == frames
    for c, c_want in zip(merges, want):
        assert c.data.dtype == np.dtype(precision.replace("f", "float"))
        assert np.array_equal(c.data, c_want)
    _assert_same_segmentation(got, expected)
    # one temporal-binding call per chunk of windows
    assert [w.shape[0] for w in windows] == [min(8, frames - s) for s in range(0, frames, 8)]


@pytest.mark.parametrize("frames, seed, model_overrides", [
    (5, 3, {"use_merging": False}),
    (9, 3, {"tau_merge": 0.3}),
], ids=["every_frame_decoded", "mixed_slot_counts"])
def test_infer_video_labels_are_narrow(frames, seed, model_overrides, monkeypatch):
    """Track labels come in the narrowest unsigned type that holds them,
    valued as the int64 argmax labels mapped through the track maps; a
    frame left with one slot is labelled by its track map's first id."""
    cfg = small_cfg(canvas=64, **model_overrides)
    d = cfg.data
    wide = []  # int64 argmax labels of each rasterized frame
    real_rasterize = evalkit.rasterize

    def recording(m, *grid):
        up = evalkit.bilinear_resize(m.reshape(len(m), d.grid_rows, d.grid_cols),
                                     d.canvas_h, d.canvas_w)
        wide.append(np.argmax(up, axis=0))
        return real_rasterize(m, *grid)

    monkeypatch.setattr(evalkit, "rasterize", recording)
    tracked, k_t = infer_video(Pipeline(cfg, seed=seed), _video(cfg, frames, seed))
    assert tracked.frames.dtype == np.uint8
    labels, one_slot = iter(wide), np.zeros((d.canvas_h, d.canvas_w), np.int64)
    want = np.stack([maps.astype(np.int64)[next(labels) if k > 1 else one_slot]
                     for maps, k in zip(tracked.track_maps, k_t)])
    assert want.dtype == np.int64
    np.testing.assert_array_equal(tracked.frames, want)
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
    with pytest.raises(ValueError, match=message):
        infer_video(Pipeline(cfg, seed=0), features(cfg))


def test_infer_video_checks_finiteness_in_the_store_dtype():
    """A finite float64 value beyond the float32 range is infinite in an
    f32 model, so it is refused as non-finite; an f64 model takes it."""
    features = _features(small_cfg(), 3)
    features[1, 2, 3] = 1e39
    with pytest.raises(ValueError, match="non-finite features in frame 1"):
        infer_video(Pipeline(small_cfg("f32"), seed=0), features)
    tracked, k_t = infer_video(Pipeline(small_cfg("f64"), seed=0), features)
    assert tracked.frames.shape[0] == len(k_t) == 3


@pytest.mark.parametrize("precision, dtype", [("f32", np.float32), ("f64", np.float64)])
def test_config_precision_sets_every_dtype(precision, dtype, monkeypatch):
    """The config's precision, not what ran before in the process, sets
    the dtype of every value a training clip and inference build and of
    every parameter gradient."""
    cfg = small_cfg()
    cfg.train.precision = precision
    d, window = cfg.data, cfg.data.frames
    pipe = Pipeline(cfg, seed=2)
    oracle = datagen.FeatureOracle(d.seed, d.n_identities, d.d_features, d.sigma_noise)
    spec = datagen.random_scene(2, (d.canvas_h, d.canvas_w), d.patch, window,
                                (d.sprite_min, d.sprite_max))
    clip = datagen.render_clip(spec, oracle)
    kept = make_drop_plan(window, d.n_tokens, 0.5, seed=2)
    jitter = np.random.default_rng(2).normal(size=(cfg.model.k_slots, cfg.model.d_slot))

    built, real_make = [], dc._make

    def recording_make(out_data, parents, backward_fn):
        built.append(np.asarray(out_data).dtype)
        return real_make(out_data, parents, backward_fn)

    monkeypatch.setattr(dc, "_make", recording_make)
    tape = Tape()
    with tape:
        out = pipe.forward_window(clip.features, np.ones(window, bool),
                                  kept, apply_merge=True,
                                  init_jitter=jitter)
        loss = objecthead.reconstruction_loss(out.decoded.y, clip.features[clip.center])
    tape.backward(loss)
    grads = {t.grad.dtype for t in pipe.store.params.values() if t.grad is not None}
    n_train = len(built)
    infer_video(pipe, clip.features)

    assert 0 < n_train < len(built)
    assert set(built) == {np.dtype(dtype)}
    assert grads == {np.dtype(dtype)}
    assert {t.data.dtype for t in pipe.store.params.values()} == {np.dtype(dtype)}


# ---------------------------------------------------------------------------
# The training forward against one binding call per frame
# ---------------------------------------------------------------------------

# Largest |batched - per-frame| parameter gradient of one clip over the
# tensor's largest |gradient|. Only the encoder projection and spatial
# binding gradients may differ: their frames' contributions are summed in
# one call instead of frame by frame.
GRAD_TOLERANCE = {"f32": 1e-5, "f64": 1e-13}


def per_frame_forward(pipe: Pipeline, features, availability, kept,
                      apply_merge, init_jitter=None) -> model.WindowOutput:
    """``forward_window`` as one ``bind_frames`` per available frame, with
    zero slots on unavailable frames, stacked by ``dc.stack``."""
    m = pipe.cfg.model
    center = len(availability) // 2
    init_z = None
    if init_jitter is not None:
        init_z = pipe.store["bind.init.z"] + init_jitter
    empty = Tensor(np.zeros((m.k_slots, m.d_slot), pipe.store.dtype))
    slots, geometry = [], {}
    for t, available in enumerate(availability):
        z = empty
        if available:
            z, geometry[t] = pipe.bind_frames(features[t], kept[t], init_z)
        slots.append(z)
    c = slots[center]
    if m.use_temporal_binding:
        c = pipe.bind_windows(dc.stack(slots, axis=1), availability)
    merged = pipe.merge(c, geometry[center], apply_merge)
    return model.WindowOutput(decoded=pipe.decode(merged), merged=merged)


def _clip_case(precision, availability, jitter, **model_overrides):
    """A training clip on an 8 x 8 grid (32 kept tokens): on the 4 x 4 grid
    of ``small_cfg`` a slot collapses onto one kept token, its scale hits
    the 1e-4 floor and the loss reaches 2e7, a regime training never
    enters (see ``test_clip_cases_run_in_the_training_regime``)."""
    cfg = small_cfg(precision, canvas=64, **model_overrides)
    d, m = cfg.data, cfg.model
    pipe = Pipeline(cfg, seed=3)
    clip = datagen.render_clip(datagen.random_scene(
        3, (d.canvas_h, d.canvas_w), d.patch, d.frames,
        (d.sprite_min, d.sprite_max)), datagen.FeatureOracle(
            d.seed, d.n_identities, d.d_features, d.sigma_noise))
    kept = make_drop_plan(d.frames, d.n_tokens, 0.5, seed=3)
    init_jitter = None
    if jitter:
        init_jitter = 0.5 * np.random.default_rng(3).standard_normal((m.k_slots, m.d_slot))
    args = (clip.features, np.asarray(availability), kept, True, init_jitter)
    return pipe, args, clip.features[clip.center]


def _loss_and_grads(pipe, forward, args, target):
    pipe.store.zero_grads()
    tape = Tape()
    with tape:
        out = forward(*args)
        loss = objecthead.reconstruction_loss(out.decoded.y, target)
    tape.backward(loss)
    grads = {name: t.grad.copy() for name, t in pipe.store.params.items()
             if t.grad is not None}
    return out, loss, grads


CLIP_CASES = {
    "all_available": ([True] * 5, True, {}),
    "edges_unavailable": ([False, True, True, True, False], True, {}),
    "leading_unavailable": ([False, False, True, True, True], False, {}),
    "no_temporal_binding": ([True] * 5, True, {"use_temporal_binding": False}),
    "no_jitter_merged": ([True, True, True, True, False], False, {"tau_merge": 0.5}),
}


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("case", CLIP_CASES.values(), ids=CLIP_CASES.keys())
def test_forward_window_matches_per_frame_oracle(precision, case):
    """The batched forward is bitwise the per-frame one: loss, decoded
    output and merged slots. Decoder, merge and temporal-binding
    gradients are bitwise too; the rest are within GRAD_TOLERANCE."""
    availability, jitter, overrides = case
    pipe, args, target = _clip_case(precision, availability, jitter, **overrides)
    want, want_loss, want_grads = _loss_and_grads(
        pipe, lambda *a: per_frame_forward(pipe, *a), args, target)
    got, got_loss, got_grads = _loss_and_grads(pipe, pipe.forward_window, args, target)

    assert np.array_equal(got_loss.data, want_loss.data)
    assert np.array_equal(got.decoded.y.data, want.decoded.y.data)
    assert np.array_equal(got.decoded.m.data, want.decoded.m.data)
    assert np.array_equal(got.merged.cprime.data, want.merged.cprime.data)
    assert got.merged.k_t == want.merged.k_t
    assert got_grads.keys() == want_grads.keys()
    for name, want_g in want_grads.items():
        if name.startswith(("enc.", "bind.")):
            scale = np.abs(want_g).max()
            assert np.abs(got_grads[name] - want_g).max() <= GRAD_TOLERANCE[precision] * scale, name
        else:
            assert np.array_equal(got_grads[name], want_g), name


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("case", CLIP_CASES.values(), ids=CLIP_CASES.keys())
def test_clip_cases_run_in_the_training_regime(precision, case, monkeypatch):
    """The oracle clips above bind and decode as the default config does:
    no slot's scale collapses to the variance floor and the decoded
    features stay near their targets."""
    availability, jitter, overrides = case
    pipe, args, target = _clip_case(precision, availability, jitter, **overrides)
    moments = record_isa_moments(monkeypatch)
    _, loss, _ = _loss_and_grads(pipe, pipe.forward_window, args, target)
    scale, _ = moments[-1]
    assert scale.data.min() >= LEAST_FINAL_SCALE
    assert float(loss.data) <= MOST_LOSS


def test_training_clip_binds_in_one_call(monkeypatch):
    """One encode and one spatial-binding call per clip, not one per frame."""
    pipe, args, target = _clip_case("f32", [True] * 5, True)
    encodes = _counting(monkeypatch, encoder, "encode_frame")
    binds = _counting(monkeypatch, binding, "spatial_bind")
    windows = _counting(monkeypatch, binding, "temporal_bind")
    _loss_and_grads(pipe, pipe.forward_window, args, target)
    assert [f.shape[0] for f in encodes] == [5]
    assert [tokens.shape[:-2] for tokens in binds] == [(5,)]
    assert [w.shape for w in windows] == [(4, 5, 16)]


def test_every_parameter_learns():
    """Every registered parameter gets a gradient on a training clip that
    is more than rounding noise next to the clip's largest one: a
    parameter whose effect the model cancels would be stepped by Adam in
    directions set by that noise."""
    pipe, args, target = _clip_case("f64", [True] * 5, True)
    _, _, grads = _loss_and_grads(pipe, pipe.forward_window, args, target)
    largest = {name: np.abs(g).max() for name, g in grads.items()}
    top = max(largest.values())
    assert grads.keys() == set(pipe.store.names())
    assert not {name: g / top for name, g in largest.items() if g < 1e-10 * top}
