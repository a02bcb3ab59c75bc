"""Training loop, inference, and orchestration at miniature scale."""

import json
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from solv import datagen
from solv import train as train_mod
from solv.config import (
    DataConfig, ModelConfig, PathsConfig, RunConfig, TrainConfig,
)
from solv.diffcore import ConfigError, Tape, Tensor, read_checkpoint
from solv.encoder import make_drop_plan
from solv.model import Pipeline, infer_video, init_params
from solv.train import (
    check_compatible, evaluate_clips, evaluate_dirs, load_pipeline, train,
)


def tiny_cfg(tmp_path, **overrides):
    cfg = RunConfig(
        model=ModelConfig(k_slots=3, d_slot=16, n_window=1,
                          transformer_layers=1, transformer_heads=2,
                          decoder_layers=3, decoder_hidden=24),
        data=DataConfig(canvas_h=32, canvas_w=32, patch=8, d_features=12,
                        sprite_max=2, clip_count=6, frames=3, seed=11),
        train=TrainConfig(epochs=2, batch_size=2, precision="f64",
                          drop_ratio=0.25),
        paths=PathsConfig(checkpoint_dir=str(tmp_path / "ckpt"),
                          report_path=str(tmp_path / "report.json")),
    )
    for key, value in overrides.items():
        section, field = key.split(".")
        setattr(getattr(cfg, section), field, value)
    return cfg.validate()


class TestTrainingLoop:
    def test_loss_decreases_on_tiny_run(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        _, result = train(cfg)
        assert len(result.step_losses) > 0
        assert result.step_losses[-1] < result.step_losses[0]

    def test_full_run_determinism_bit_identical_checkpoints(self, tmp_path):
        cfg_a = tiny_cfg(tmp_path / "a")
        cfg_b = tiny_cfg(tmp_path / "b")
        train(cfg_a)
        train(cfg_b)
        blob_a = Path(cfg_a.paths.checkpoint_dir, "final.ckpt").read_bytes()
        blob_b = Path(cfg_b.paths.checkpoint_dir, "final.ckpt").read_bytes()
        assert blob_a == blob_b

    def test_checkpoint_sidecar_metadata(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        _, result = train(cfg)
        meta = json.loads(Path(result.checkpoint + ".meta.json").read_text())
        assert meta["config_digest"] == cfg.digest()
        assert meta["step"] > 0

    def test_digest_mismatch_refused(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        _, result = train(cfg)
        other = tiny_cfg(tmp_path, **{"model.k_slots": 2})
        with pytest.raises(ConfigError, match="digest"):
            check_compatible(result.checkpoint, other)
        with pytest.raises(ConfigError):
            load_pipeline(other, result.checkpoint)

    def test_max_steps_truncation(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        _, result = train(cfg, max_steps=3)
        assert len(result.step_losses) == 3

    def test_merge_gate_statistics_logged(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        _, result = train(cfg)
        assert len(result.k_t_histograms) == cfg.train.epochs
        # first epoch never merges: every step binds all K slots
        assert set(result.k_t_histograms[0]) == {cfg.model.k_slots}


class TestTrainingFaults:
    def _poison_backward(self, monkeypatch, poisoned_calls):
        """Make ``Tape.backward`` leave an inf gradient on one parameter
        at the given call indices; returns the list that receives the
        trained store."""
        stores = []
        real_init = train_mod.init_params
        real_backward = Tape.backward
        calls = iter(range(10 ** 6))

        def init_params(cfg):
            stores.append(real_init(cfg))
            return stores[-1]

        def backward(self, root):
            real_backward(self, root)
            if next(calls) in poisoned_calls:
                stores[0]["dec.pos"].grad.flat[0] = np.inf

        monkeypatch.setattr(train_mod, "init_params", init_params)
        monkeypatch.setattr(Tape, "backward", backward)
        return stores

    def test_non_finite_gradient_skips_step(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(tmp_path)
        # batch 2: backward calls 2 and 3 belong to step 1 of 4
        stores = self._poison_backward(monkeypatch, {2})
        store, result = train(cfg)
        assert result.skipped_steps == 1
        assert store.step == len(result.step_losses) == 3
        for name, t in store.params.items():
            assert np.isfinite(t.data).all(), name
            assert np.isfinite(store.m[name]).all(), name
        assert stores == [store]

    def test_three_non_finite_gradients_raise(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(tmp_path, **{"train.epochs": 3})
        self._poison_backward(monkeypatch, set(range(2, 10 ** 6)))
        # steps 1, 2 and 3 are skipped; no NaN reaches the parameters
        with pytest.raises(RuntimeError, match=r"non-finite steps \(last at step 3\)"):
            train(cfg)

    def test_render_failure_raises(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(tmp_path)

        def render_clip(spec, oracle):
            raise OSError("render failed")

        monkeypatch.setattr(datagen, "render_clip", render_clip)
        errors = []

        def run():
            try:
                train(cfg)
            except OSError as e:
                errors.append(e)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "train() hung on a failed render"
        assert [str(e) for e in errors] == ["render failed"]

    def test_non_finite_losses_leave_no_threads_behind(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(tmp_path, **{"train.batch_size": 8, "data.clip_count": 20})
        monkeypatch.setattr(Pipeline, "window_loss",
                            lambda self, out, center: Tensor(np.nan))
        before = threading.active_count()
        _, result = train(cfg, max_steps=2)
        assert result.skipped_steps == 2
        assert threading.active_count() == before

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(tmp_path)
        store, _ = train(cfg, max_steps=1)
        latest = os.path.join(cfg.paths.checkpoint_dir, "latest.ckpt")
        blob = Path(latest).read_bytes()
        meta = Path(latest + ".meta.json").read_text()

        def dump(obj, f):
            f.write("{")
            raise OSError("disk full")

        # the moments are written after every parameter, so this fails
        # part way through the file
        last = store.names()[-1]
        store.v[last] = np.array(["not a float"])
        store.step += 1
        with pytest.raises(ValueError):
            store.save(latest)
        monkeypatch.setattr(train_mod.json, "dump", dump)
        with pytest.raises(OSError, match="disk full"):
            train_mod._write_meta(latest, cfg, store, epoch=0)
        assert Path(latest).read_bytes() == blob
        assert Path(latest + ".meta.json").read_text() == meta
        assert read_checkpoint(latest)[1] == store.step - 1
        assert sorted(os.listdir(cfg.paths.checkpoint_dir)) == [
            "final.ckpt", "final.ckpt.meta.json",
            "latest.ckpt", "latest.ckpt.meta.json"]


class TestInference:
    def _trained(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        store, _ = train(cfg)
        return cfg, Pipeline(cfg, store)

    def test_output_frame_count_matches_input(self, tmp_path):
        cfg, pipe = self._trained(tmp_path)
        d = cfg.data
        oracle = datagen.FeatureOracle(d.seed, d.n_identities, d.d_features,
                                       d.sigma_noise)
        spec = datagen.random_scene(3, (32, 32), 8, 6, (1, 2))
        clip = datagen.render_clip(spec, oracle)
        tracked, k_t = infer_video(pipe, clip.features)
        assert tracked.frames.shape == (6, 32, 32)
        assert len(k_t) == 6

    def test_video_shorter_than_window(self, tmp_path):
        cfg, pipe = self._trained(tmp_path)
        d = cfg.data
        oracle = datagen.FeatureOracle(d.seed, d.n_identities, d.d_features,
                                       d.sigma_noise)
        spec = datagen.random_scene(4, (32, 32), 8, 1, (1, 2))
        clip = datagen.render_clip(spec, oracle)
        tracked, _ = infer_video(pipe, clip.features)
        assert tracked.frames.shape[0] == 1

    def test_inference_deterministic(self, tmp_path):
        cfg, pipe = self._trained(tmp_path)
        d = cfg.data
        oracle = datagen.FeatureOracle(d.seed, d.n_identities, d.d_features,
                                       d.sigma_noise)
        spec = datagen.random_scene(5, (32, 32), 8, 3, (1, 2))
        clip = datagen.render_clip(spec, oracle)
        a, _ = infer_video(pipe, clip.features)
        b, _ = infer_video(pipe, clip.features)
        assert np.array_equal(a.frames, b.frames)

    def test_evaluate_clips_reports_metrics(self, tmp_path):
        cfg, pipe = self._trained(tmp_path)
        d = cfg.data
        oracle = datagen.FeatureOracle(d.seed, d.n_identities, d.d_features,
                                       d.sigma_noise)
        _, val = datagen.dataset_split(d.seed, d.clip_count, (32, 32), 8, 3,
                                       (1, 2))
        rows = evaluate_clips(pipe, val[:1], oracle)
        assert set(rows[0]) >= {"fg_ari", "miou", "k_t_histogram", "mean_k_t"}

    def test_pipeline_precision_does_not_depend_on_earlier_runs(self, tmp_path):
        # an f32 pipeline built before and after an f64 train() and an f64
        # load_pipeline() in the same process
        cfg = tiny_cfg(tmp_path, **{"train.precision": "f32"})
        f64_cfg = tiny_cfg(tmp_path)
        d = cfg.data
        oracle = datagen.FeatureOracle(d.seed, d.n_identities, d.d_features,
                                       d.sigma_noise)
        spec = datagen.random_scene(6, (32, 32), 8, 4, (1, 2))
        features = datagen.render_clip(spec, oracle).features

        def fresh_f32_run():
            pipe = Pipeline(cfg, seed=3)
            tracked, k_t = infer_video(pipe, features)
            dtypes = {t.data.dtype for t in pipe.store.params.values()}
            return dtypes, tracked.frames.tobytes(), k_t

        before = fresh_f32_run()
        assert before[0] == {np.dtype(np.float32)}
        _, log = train(f64_cfg, max_steps=1)
        assert fresh_f32_run() == before
        loaded = load_pipeline(f64_cfg, log.checkpoint)
        assert {t.data.dtype for t in loaded.store.params.values()} == {np.dtype(np.float64)}
        assert fresh_f32_run() == before


class TestWindowForward:
    def test_unavailable_frames_do_not_affect_output(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        pipe = Pipeline(cfg)
        d = cfg.data
        oracle = datagen.FeatureOracle(d.seed, d.n_identities, d.d_features,
                                       d.sigma_noise)
        spec = datagen.random_scene(7, (32, 32), 8, 3, (1, 2))
        clip = datagen.render_clip(spec, oracle)
        kept = [np.arange(d.n_tokens)] * 3
        avail = np.array([False, True, True])
        feats_a = clip.features.copy()
        feats_b = clip.features.copy()
        feats_b[0] = 123.456  # garbage on the masked frame
        out_a = pipe.forward_window(feats_a, avail, kept, apply_merge=True)
        out_b = pipe.forward_window(feats_b, avail, kept, apply_merge=True)
        np.testing.assert_allclose(out_a.decoded.y.data,
                                   out_b.decoded.y.data, atol=1e-12)

    def test_center_unavailable_rejected(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        pipe = Pipeline(cfg)
        kept = [np.arange(cfg.data.n_tokens)] * 3
        feats = np.zeros((3, cfg.data.n_tokens, cfg.data.d_features))
        with pytest.raises(ValueError, match="center"):
            pipe.forward_window(feats, np.array([True, False, True]), kept,
                                apply_merge=False)

    def test_init_jitter_changes_output_but_not_params(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        pipe = Pipeline(cfg)
        d = cfg.data
        oracle = datagen.FeatureOracle(d.seed, d.n_identities, d.d_features,
                                       d.sigma_noise)
        spec = datagen.random_scene(9, (32, 32), 8, 3, (1, 2))
        clip = datagen.render_clip(spec, oracle)
        kept = [np.arange(d.n_tokens)] * 3
        avail = np.ones(3, bool)
        base = pipe.forward_window(clip.features, avail, kept, False)
        jit = np.random.default_rng(0).normal(size=(3, 16))
        jittered = pipe.forward_window(clip.features, avail, kept, False,
                                       init_jitter=jit)
        assert not np.array_equal(base.decoded.y.data,
                                  jittered.decoded.y.data)


class TestEvaluateDirs:
    def test_report_contents_and_digest(self, tmp_path):
        gt_dir = tmp_path / "gt"
        pred_dir = tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        rng = np.random.default_rng(1)
        for vid in ("a", "b"):
            masks = rng.integers(0, 3, size=(2, 8, 8)).astype(np.uint16)
            masks[0, 0, 0] = 1
            datagen.write_masks(str(gt_dir / f"{vid}.mask"), masks)
            datagen.write_masks(str(pred_dir / f"{vid}.mask"), masks)
        report = evaluate_dirs(str(pred_dir), str(gt_dir),
                               str(tmp_path / "r.json"), "digest123")
        assert report["config_digest"] == "digest123"
        assert [v["id"] for v in report["videos"]] == ["a", "b"]
        assert report["mean_fg_ari"] == 1.0
        on_disk = json.loads((tmp_path / "r.json").read_text())
        assert on_disk == report

    def test_missing_ids_listed(self, tmp_path):
        gt_dir = tmp_path / "gt"
        pred_dir = tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        masks = np.ones((1, 4, 4), dtype=np.uint16)
        datagen.write_masks(str(gt_dir / "x.mask"), masks)
        with pytest.raises(ValueError, match="x"):
            evaluate_dirs(str(pred_dir), str(gt_dir))

    @pytest.mark.parametrize("pred_frames", [1, 3])
    def test_frame_count_mismatch_names_video_and_shapes(self, tmp_path,
                                                         pred_frames):
        gt_dir = tmp_path / "gt"
        pred_dir = tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        masks = np.ones((5, 4, 4), dtype=np.uint16)
        datagen.write_masks(str(gt_dir / "clip7.mask"), masks)
        datagen.write_masks(str(pred_dir / "clip7.mask"), masks[:pred_frames])
        with pytest.raises(ValueError, match=rf"clip7.*\({pred_frames}, 4, 4\).*\(5, 4, 4\)"):
            evaluate_dirs(str(pred_dir), str(gt_dir))
