"""Training loop, inference, and orchestration at miniature scale."""

import json
import os
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from solv import ablate as ablate_mod
from solv import datagen, evalkit, objecthead
from solv import model as model_mod
from solv import train as train_mod
from solv.config import (
    DataConfig, ModelConfig, PathsConfig, RunConfig, TrainConfig,
)
from solv.diffcore import (
    ConfigError, FormatError, ParamStore, Tape, Tensor, read_checkpoint,
)
from solv.encoder import make_drop_plan
from solv.model import Pipeline, infer_video, init_params
from solv.train import (
    TrainLog, check_compatible, evaluate_dirs, load_pipeline, train,
)

from helpers import fail_writes_half_way


def tiny_cfg(tmp_path, **overrides):
    cfg = RunConfig(
        model=ModelConfig(k_slots=3, d_slot=16, transformer_layers=1,
                          transformer_heads=2, decoder_layers=3, decoder_hidden=24),
        data=DataConfig(canvas_h=32, canvas_w=32, patch=8, d_features=12,
                        sprite_max=2, clip_count=6, frames=3, seed=11),
        train=TrainConfig(epochs=2, batch_size=2, precision="f64",
                          drop_ratio=0.25),
        paths=PathsConfig(checkpoint_dir=str(tmp_path / "ckpt")),
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

    @pytest.mark.parametrize("sidecar", ['["not", "an", "object"]', '{"config_digest": '],
                             ids=["list_root", "invalid_json"])
    def test_bad_sidecar_is_a_config_error_naming_it(self, tmp_path, sidecar):
        ckpt = str(tmp_path / "w.ckpt")
        Path(ckpt + ".meta.json").write_text(sidecar)
        with pytest.raises(ConfigError, match=re.escape(ckpt + ".meta.json")):
            check_compatible(ckpt, tiny_cfg(tmp_path))

    def test_checkpoint_loads_under_another_checkpoint_dir(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "trained")
        store, result = train(cfg)
        moved = tiny_cfg(tmp_path / "elsewhere")
        assert moved.paths.checkpoint_dir != cfg.paths.checkpoint_dir
        loaded = load_pipeline(moved, result.checkpoint)
        assert loaded.store.step == store.step > 0

    def test_load_pipeline_reads_parameters_and_checks_moments(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        saved = init_params(cfg, seed=4)
        saved.m = {name: np.ones_like(t.data) for name, t in saved.params.items()}
        saved.v = {name: np.ones_like(t.data) for name, t in saved.params.items()}
        path = str(tmp_path / "w.ckpt")
        saved.save(path)
        train_mod._write_meta(path, cfg, saved, epoch=0)
        pipe = load_pipeline(cfg, path)
        for name, t in saved.params.items():
            np.testing.assert_array_equal(pipe.store[name].data, t.data.astype(np.float32))
        assert pipe.store.m == {} == pipe.store.v
        # the last record is a moment, which inference steps over
        last = list(saved.params)[-1] + ".v"
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[:-3])
        with pytest.raises(FormatError, match=f"payload of '{last}' at byte"):
            load_pipeline(cfg, path)

    @pytest.mark.parametrize("record", ["dec.l0.w", "bind.init.z", "enc.proj.w1"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_load_pipeline_refuses_a_non_finite_parameter(self, tmp_path, record, bad):
        """A non-finite parameter would segment to all-zero masks or fail
        deep inside tracking; the load names the file and the record. A
        moment record, which inference steps over, is not read."""
        cfg = tiny_cfg(tmp_path)
        saved = init_params(cfg, seed=4)
        saved.m = {name: np.full_like(t.data, bad) for name, t in saved.params.items()}
        path = str(tmp_path / "w.ckpt")
        saved.save(path)
        train_mod._write_meta(path, cfg, saved, epoch=0)
        load_pipeline(cfg, path)
        saved[record].data[0, -1] = bad
        saved.save(path)
        with pytest.raises(FormatError, match=re.escape(
                f"{path}: parameter record '{record}' is not finite")):
            load_pipeline(cfg, path)

    def test_load_pipeline_retains_parameters_only(self, tmp_path):
        # a 128-wide decoder keeps the store's per-array bookkeeping (about
        # 16 KB for its 62 parameters) within the 10% margin
        cfg = tiny_cfg(tmp_path, **{"model.decoder_hidden": 128})
        saved = init_params(cfg, seed=4)
        path = str(tmp_path / "w.ckpt")
        saved.save(path)
        train_mod._write_meta(path, cfg, saved, epoch=0)
        params = sum(t.data.nbytes for t in saved.params.values())
        tracemalloc.start()
        try:
            pipe = load_pipeline(cfg, path)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert list(pipe.store.params) == list(saved.params)
        # Adam moments would add two more copies of the parameters
        assert retained <= 1.1 * params

    def test_load_pipeline_holds_one_copy_of_the_parameters(self, tmp_path):
        # a placeholder array per parameter next to the record that replaces
        # it would peak at twice the parameters
        cfg = tiny_cfg(tmp_path, **{"model.decoder_hidden": 512, "train.precision": "f32"})
        saved = init_params(cfg, seed=4)
        path = str(tmp_path / "w.ckpt")
        saved.save(path)
        train_mod._write_meta(path, cfg, saved, epoch=0)
        params = sum(t.data.nbytes for t in saved.params.values())
        tracemalloc.start()
        try:
            load_pipeline(cfg, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * params

    def test_load_pipeline_draws_no_parameters(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(tmp_path)
        saved = init_params(cfg, seed=5)
        path = str(tmp_path / "w.ckpt")
        saved.save(path)
        train_mod._write_meta(path, cfg, saved, epoch=0)

        def no_init(*args, **kwargs):
            raise AssertionError("load_pipeline drew parameters")

        monkeypatch.setattr(model_mod, "init_params", no_init)
        monkeypatch.setattr(train_mod, "init_params", no_init)
        pipe = load_pipeline(cfg, path)
        assert list(pipe.store.params) == list(saved.params)
        for name, t in saved.params.items():
            np.testing.assert_array_equal(pipe.store[name].data,
                                          t.data.astype(np.float32))
        # a checkpoint missing a parameter still fails
        partial = ParamStore(cfg.train.precision)
        for name in list(saved.params)[1:]:
            partial.register(name, saved[name].data)
        partial.save(path)
        with pytest.raises(FormatError, match=f"missing parameter '{list(saved.params)[0]}'"):
            load_pipeline(cfg, path)
        # so does one that still holds the temporal keys' bias
        saved.register("tbind.l0.bk", np.zeros(cfg.model.d_slot))
        saved.save(path)
        with pytest.raises(FormatError, match="record 'tbind.l0.bk'"):
            load_pipeline(cfg, path)

    def test_zero_steps_are_refused_before_any_directory_is_made(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        with pytest.raises(ConfigError, match="max_steps must be >= 1, got 0"):
            train(cfg, max_steps=0)
        assert not os.path.exists(cfg.paths.checkpoint_dir)

    def test_max_steps_truncation(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        _, result = train(cfg, max_steps=3)
        assert len(result.step_losses) == 3

    # 5 training clips in batches of 2: 2 steps per epoch, 6 in 3 epochs
    @pytest.mark.parametrize("max_steps, epoch", [(2, 0), (3, 1), (None, 2)])
    def test_sidecars_record_the_epoch_of_the_last_step(self, tmp_path, max_steps, epoch):
        cfg = tiny_cfg(tmp_path, **{"train.epochs": 3})
        store, result = train(cfg, max_steps=max_steps)
        for name in ("latest.ckpt", "final.ckpt"):
            path = os.path.join(cfg.paths.checkpoint_dir, name)
            meta = json.loads(Path(path + ".meta.json").read_text())
            assert (meta["step"], meta["epoch"]) == (store.step, epoch), name

    @pytest.mark.parametrize("max_steps, epochs_reached", [(2, 1), (3, 2), (None, 3)])
    def test_latest_saved_once_per_epoch_reached(self, tmp_path, monkeypatch,
                                                 max_steps, epochs_reached):
        cfg = tiny_cfg(tmp_path, **{"train.epochs": 3})
        saved, real_save = [], ParamStore.save
        monkeypatch.setattr(ParamStore, "save", lambda self, path: saved.append(
            os.path.basename(path)) or real_save(self, path))
        train(cfg, max_steps=max_steps)
        assert saved == ["latest.ckpt"] * epochs_reached + ["final.ckpt"]

    def test_warmup_step_at_lr_zero_runs_no_backward(self, tmp_path, monkeypatch):
        """Step 0 of a warmup has lr 0: its loss is computed and logged but
        no backward runs. Checkpoints and losses are those of a run whose
        step-0 clips do run the backward and throw the gradients away."""
        # 2 steps per epoch, 4 in 2 epochs: one warmup step
        cfg = tiny_cfg(tmp_path / "skip", **{"train.warmup_fraction": 0.25})
        lrs, backward_steps, real_backward = [], [], Tape.backward

        def progress(step, total, loss, lr):
            lrs.append(lr)

        def counting_backward(self, root):
            backward_steps.append(len(lrs))
            real_backward(self, root)

        monkeypatch.setattr(Tape, "backward", counting_backward)
        _, got = train(cfg, progress=progress)
        monkeypatch.setattr(Tape, "backward", real_backward)
        assert lrs[0] == 0.0 and min(lrs[1:]) > 0
        assert backward_steps == [1, 1, 2, 2, 3, 3]
        assert len(got.step_losses) == 4

        class DiscardedBackwardTape(Tape):
            """On every clip of step 0, runs the backward of the value the
            forward records last (the batch-scaled loss)."""
            def __exit__(self, *exc):
                super().__exit__(*exc)
                if not lrs:
                    self.backward(self._nodes[-1][0])
                return False

        lrs.clear()
        monkeypatch.setattr(train_mod, "Tape", DiscardedBackwardTape)
        ref_cfg = tiny_cfg(tmp_path / "ref", **{"train.warmup_fraction": 0.25})
        _, want = train(ref_cfg, progress=progress)
        assert got.step_losses == want.step_losses
        for name in ("latest.ckpt", "final.ckpt"):
            assert Path(cfg.paths.checkpoint_dir, name).read_bytes() == \
                Path(ref_cfg.paths.checkpoint_dir, name).read_bytes(), name

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
        monkeypatch.setattr(objecthead, "reconstruction_loss",
                            lambda y, target: Tensor(np.nan))
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
        # the moments are written after every parameter, so this fails
        # part way through the file
        last = list(store.params)[-1]
        store.v[last] = np.array(["not a float"])
        store.step += 1
        with pytest.raises(ValueError):
            store.save(latest)
        partial = fail_writes_half_way(monkeypatch)
        with pytest.raises(OSError, match="No space"):
            train_mod._write_meta(latest, cfg, store, epoch=0)
        assert len(partial) == 1 and partial[0] > 0
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

    def test_score_videos_rows_and_means(self):
        rng = np.random.default_rng(4)
        gt = rng.integers(0, 3, size=(2, 6, 6))
        empty = np.zeros((2, 6, 6), int)  # no object: no fg_ari, no miou
        pred = gt[::-1].copy()
        videos = [("a", gt.copy(), gt), ("b", empty.copy(), empty), ("c", pred, gt)]
        report = evalkit.score_videos(iter(videos))
        assert list(report) == ["videos", "mean_fg_ari", "mean_miou"]
        for row, (vid, p, g) in zip(report["videos"], videos, strict=True):
            assert row == {"id": vid, **evalkit.score_video(p, g)}
            assert list(row) == ["id", "fg_ari", "miou", "k_t_histogram"]
        rows = report["videos"]
        assert all(isinstance(k, str) for row in rows for k in row["k_t_histogram"])
        assert rows[1]["fg_ari"] is None and rows[1]["miou"] is None
        assert report["mean_fg_ari"] == float(np.mean([rows[0]["fg_ari"], rows[2]["fg_ari"]]))
        assert report["mean_miou"] == float(np.mean([rows[0]["miou"], rows[2]["miou"]]))
        assert evalkit.score_videos([("b", empty, empty)]) == {
            "videos": [{"id": "b", "fg_ari": None, "miou": None,
                        "k_t_histogram": {"1": 2}}],
            "mean_fg_ari": None, "mean_miou": None}

    def test_score_videos_shape_mismatch_names_the_video(self):
        drawn = []

        def videos():
            for vid, frames in (("ok", 2), ("clip7", 1), ("never", 2)):
                drawn.append(vid)
                yield vid, np.ones((frames, 4, 4), int), np.ones((2, 4, 4), int)

        with pytest.raises(ValueError, match=r"video clip7: .*\(1, 4, 4\).*\(2, 4, 4\)"):
            evalkit.score_videos(videos())
        assert drawn == ["ok", "clip7"]  # one video drawn at a time

    def test_ablation_row_scores_like_evaluate_dirs(self, tmp_path, monkeypatch):
        # without merging, so that frames hold several tracks; untrained
        # weights, as the row's scoring is under test, not its training
        cfg = tiny_cfg(tmp_path, **{"model.use_merging": False, "data.clip_count": 40})
        monkeypatch.setattr(ablate_mod, "train", lambda cfg: (init_params(cfg), TrainLog()))
        segmented, k_t_means = [], []
        real_infer = ablate_mod.infer_video

        def recording(pipe, features):
            tracked, k_t = real_infer(pipe, features)
            segmented.append(tracked.frames)
            k_t_means.append(float(np.mean(k_t)))
            return tracked, k_t

        monkeypatch.setattr(ablate_mod, "infer_video", recording)
        row = ablate_mod._train_and_score(cfg, 4)
        d = cfg.data
        oracle = datagen.FeatureOracle(d.seed, d.n_identities, d.d_features,
                                       d.sigma_noise)
        val = ablate_mod._val_specs(d)[:4]
        for side in ("pred", "gt"):
            (tmp_path / side).mkdir()
        for i, (spec, pred) in enumerate(zip(val, segmented, strict=True)):
            gt = datagen.render_clip(spec, oracle).gt_pixel_labels
            datagen.write_masks(str(tmp_path / "pred" / f"v{i}.mask"), pred)
            datagen.write_masks(str(tmp_path / "gt" / f"v{i}.mask"), gt)
        report = evaluate_dirs(str(tmp_path / "pred"), str(tmp_path / "gt"),
                               str(tmp_path / "r.json"), "d")
        assert any(set(v["k_t_histogram"]) != {"1"} for v in report["videos"])
        assert list(row) == ["mean_fg_ari", "mean_miou", "mean_k_t"]
        assert row["mean_fg_ari"] == report["mean_fg_ari"]
        assert row["mean_miou"] == report["mean_miou"]
        assert row["mean_k_t"] == float(np.mean(k_t_means))

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
            pipe = Pipeline(cfg, init_params(cfg, seed=3))
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
        pipe = Pipeline(cfg, init_params(cfg))
        d = cfg.data
        oracle = datagen.FeatureOracle(d.seed, d.n_identities, d.d_features,
                                       d.sigma_noise)
        spec = datagen.random_scene(7, (32, 32), 8, 3, (1, 2))
        clip = datagen.render_clip(spec, oracle)
        kept = np.tile(np.arange(d.n_tokens), (3, 1))
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
        pipe = Pipeline(cfg, init_params(cfg))
        kept = np.tile(np.arange(cfg.data.n_tokens), (3, 1))
        feats = np.zeros((3, cfg.data.n_tokens, cfg.data.d_features))
        with pytest.raises(ValueError, match="center"):
            pipe.forward_window(feats, np.array([True, False, True]), kept,
                                apply_merge=False)

    def test_init_jitter_changes_output_but_not_params(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        pipe = Pipeline(cfg, init_params(cfg))
        d = cfg.data
        oracle = datagen.FeatureOracle(d.seed, d.n_identities, d.d_features,
                                       d.sigma_noise)
        spec = datagen.random_scene(9, (32, 32), 8, 3, (1, 2))
        clip = datagen.render_clip(spec, oracle)
        kept = np.tile(np.arange(d.n_tokens), (3, 1))
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

    def test_scores_each_video_through_the_traced_metric_names(self, tmp_path, monkeypatch):
        # bench/tracer.py times scoring by wrapping these two module attributes
        for side in ("gt", "pred"):
            (tmp_path / side).mkdir()
        rng = np.random.default_rng(2)
        for vid in ("a", "b", "c"):
            masks = rng.integers(0, 3, size=(2, 8, 8)).astype(np.uint16)
            datagen.write_masks(str(tmp_path / "gt" / f"{vid}.mask"), masks)
            datagen.write_masks(str(tmp_path / "pred" / f"{vid}.mask"), masks[::-1])
        calls = {"video_miou": 0, "mean_fg_ari": 0}

        def counting(name):
            real = getattr(evalkit, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(evalkit, name, counting(name))
        evaluate_dirs(str(tmp_path / "pred"), str(tmp_path / "gt"),
                      str(tmp_path / "r.json"), "d")
        assert calls == {"video_miou": 3, "mean_fg_ari": 3}

    def test_failed_report_write_keeps_previous_report(self, tmp_path, monkeypatch):
        for side in ("gt", "pred"):
            (tmp_path / side).mkdir()
            datagen.write_masks(str(tmp_path / side / "v.mask"),
                                np.ones((2, 4, 4), dtype=np.uint16))
        report_path = tmp_path / "out" / "r.json"
        evaluate_dirs(str(tmp_path / "pred"), str(tmp_path / "gt"),
                      str(report_path), "first")
        before = report_path.read_bytes()
        partial = fail_writes_half_way(monkeypatch)
        with pytest.raises(OSError, match="No space"):
            evaluate_dirs(str(tmp_path / "pred"), str(tmp_path / "gt"),
                          str(report_path), "second")
        assert len(partial) == 1 and partial[0] > 0
        assert report_path.read_bytes() == before
        assert os.listdir(report_path.parent) == ["r.json"]

    def test_report_file_is_the_indented_json_of_the_report(self, tmp_path):
        for side in ("gt", "pred"):
            (tmp_path / side).mkdir()
        rng = np.random.default_rng(3)
        for vid in ("a", "b"):
            gt = rng.integers(0, 4, size=(3, 8, 8)).astype(np.uint16)
            datagen.write_masks(str(tmp_path / "gt" / f"{vid}.mask"), gt)
            datagen.write_masks(str(tmp_path / "pred" / f"{vid}.mask"), gt // 2)
        report_path = tmp_path / "new" / "dir" / "r.json"
        report = evaluate_dirs(str(tmp_path / "pred"), str(tmp_path / "gt"),
                               str(report_path), "d")
        assert report_path.read_bytes() == json.dumps(report, indent=2).encode()

    def test_directories_with_no_mask_files_are_refused(self, tmp_path):
        gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        (gt_dir / "notes.txt").write_text("not a mask")
        with pytest.raises(ValueError, match=f"no .mask files in {pred_dir} or {gt_dir}"):
            evaluate_dirs(str(pred_dir), str(gt_dir), str(tmp_path / "r.json"), "d")

    def test_missing_ids_listed(self, tmp_path):
        gt_dir = tmp_path / "gt"
        pred_dir = tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        masks = np.ones((1, 4, 4), dtype=np.uint16)
        datagen.write_masks(str(gt_dir / "x.mask"), masks)
        with pytest.raises(ValueError, match="x"):
            evaluate_dirs(str(pred_dir), str(gt_dir), str(tmp_path / "r.json"), "d")

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
            evaluate_dirs(str(pred_dir), str(gt_dir), str(tmp_path / "r.json"), "d")
