"""Config defaults and strict parsing, the lr schedule, and CLI round trips."""

import dataclasses
import hashlib
import json
import os
import shlex
from pathlib import Path

import numpy as np
import pytest

from solv import cli, datagen
from solv.ablate import variants
from solv.cli import main as cli_main
from solv.config import (
    _RANGES, _SECTIONS, RunConfig, TrainConfig, config_from_dict, learning_rate,
    load_config,
)
from solv.diffcore import ConfigError
from solv.model import init_params, param_shapes
from solv.train import load_pipeline


class TestDefaults:
    def test_model_defaults_match_contract(self):
        cfg = RunConfig()
        assert cfg.model.d_slot == 128
        assert cfg.model.isa_iters == 3
        assert cfg.model.delta == 5.0
        assert cfg.model.transformer_layers == 3
        assert cfg.model.transformer_heads == 8
        assert cfg.model.decoder_layers == 5
        assert cfg.model.decoder_hidden == 1024
        assert cfg.model.tau_merge == 0.12
        assert cfg.model.k_slots == 8

    def test_train_defaults_match_contract(self):
        cfg = RunConfig()
        assert cfg.train.clip_norm == 1.0
        assert cfg.train.warmup_fraction == 0.05
        assert cfg.train.peak_lr == 4e-4
        assert cfg.train.drop_ratio == 0.5

    def test_data_defaults(self):
        cfg = RunConfig()
        assert (cfg.data.canvas_h, cfg.data.canvas_w) == (128, 128)
        assert cfg.data.patch == 8
        assert cfg.data.d_features == 64
        assert cfg.data.seed == 17
        assert cfg.data.n_tokens == 256
        assert cfg.data.frames == 5


class TestStrictParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"model": {}, "wat": {}})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="model"):
            config_from_dict({"model": {"k_slots": 4, "nope": 1}})
        # the window is data.frames: the old half-width key is not a field
        with pytest.raises(ConfigError, match=r"unknown config keys at model\.: \['n_window'\]"):
            config_from_dict({"model": {"n_window": 2}})

    def test_partial_override(self):
        cfg = config_from_dict({"model": {"k_slots": 4}})
        assert cfg.model.k_slots == 4
        assert cfg.model.d_slot == 128

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            config_from_dict({"train": {"drop_ratio": 1.0}})
        with pytest.raises(ConfigError):
            config_from_dict({"train": {"peak_lr": 0.0}})
        with pytest.raises(ConfigError):
            config_from_dict({"model": {"tau_merge": 2.5}})

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"data": {"seed": 5}}))
        assert load_config(str(path)).data.seed == 5

    def test_digest_stable_and_sensitive(self):
        a = RunConfig()
        b = RunConfig()
        assert a.digest() == b.digest()
        c = config_from_dict({"model": {"k_slots": 4}})
        assert c.digest() != a.digest()

    def test_digest_covers_model_data_train_but_not_paths(self):
        base = RunConfig().digest()
        assert config_from_dict({"paths": {"checkpoint_dir": "elsewhere"}}).digest() == base
        for change in ({"model": {"tau_merge": 0.2}}, {"data": {"seed": 18}},
                       {"train": {"epochs": 7}}):
            assert config_from_dict(change).digest() != base

    def test_digest_hashes_the_asdict_json_of_the_shaping_sections(self):
        """Existing checkpoint sidecars hold this hex; it is the SHA-256 of
        the sorted, compact JSON of ``asdict`` without ``paths``."""
        assert RunConfig().digest() == "2551648e976f5d83"
        for change in ({}, {"model": {"tau_merge": 0.2, "use_merging": False}},
                       {"data": {"seed": 18, "sigma_noise": 0.1}},
                       {"train": {"precision": "f64", "peak_lr": 1e-3}},
                       {"paths": {"checkpoint_dir": "elsewhere"}}):
            cfg = config_from_dict(change)
            shaping = dataclasses.asdict(cfg)
            del shaping["paths"]
            blob = json.dumps(shaping, sort_keys=True, separators=(",", ":"))
            assert cfg.digest() == hashlib.sha256(blob.encode()).hexdigest()[:16]


class TestValueTypes:
    """Each value must suit its field's type; a mismatch names the field."""

    @pytest.mark.parametrize("payload, field", [
        ({"data": {"clip_count": "x"}}, "data.clip_count"),
        ({"model": {"k_slots": 2.5}}, "model.k_slots"),
        ({"model": {"k_slots": True}}, "model.k_slots"),
        ({"train": {"epochs": True}}, "train.epochs"),
        ({"model": {"delta": False}}, "model.delta"),
        ({"model": {"delta": "5"}}, "model.delta"),
        ({"train": {"peak_lr": float("nan")}}, "train.peak_lr"),
        ({"data": {"sigma_noise": float("inf")}}, "data.sigma_noise"),
        ({"model": {"use_merging": 1}}, "model.use_merging"),
        ({"train": {"precision": 32}}, "train.precision"),
        ({"paths": {"checkpoint_dir": None}}, "paths.checkpoint_dir"),
    ])
    def test_mismatch_names_the_field(self, payload, field):
        with pytest.raises(ConfigError, match=rf"^{field} must be "):
            config_from_dict(payload)

    @pytest.mark.parametrize("payload, field", [
        ({"model": {"transformer_heads": 0}}, "model.transformer_heads"),
        ({"data": {"patch": 0}}, "data.patch"),
        ({"model": {"isa_iters": 0}}, "model.isa_iters"),
        ({"model": {"k_slots": 0}}, "model.k_slots"),
        ({"model": {"transformer_layers": 0}}, "model.transformer_layers"),
        ({"model": {"decoder_layers": 0}}, "model.decoder_layers"),
        ({"data": {"clip_count": 1}}, "data.clip_count"),
        ({"train": {"epochs": -1}}, "train.epochs"),
        ({"train": {"batch_size": 0}}, "train.batch_size"),
        ({"data": {"frames": 0}}, "data.frames"),
    ])
    def test_count_below_its_least_names_the_field(self, payload, field):
        with pytest.raises(ConfigError, match=rf"^{field} must be >= "):
            config_from_dict(payload)

    @pytest.mark.parametrize("payload, field", [
        ({"model": {"delta": 0}}, "model.delta"),
        ({"train": {"final_lr_fraction": -0.5}}, "train.final_lr_fraction"),
        ({"train": {"clip_norm": -1}}, "train.clip_norm"),
        ({"data": {"sigma_noise": -0.01}}, "data.sigma_noise"),
        ({"model": {"init_noise": -0.5}}, "model.init_noise"),
        ({"train": {"warmup_fraction": 1.0}}, "train.warmup_fraction"),
        ({"train": {"warmup_fraction": -0.1}}, "train.warmup_fraction"),
        ({"data": {"seed": -1}}, "data.seed"),
        ({"data": {"sprite_min": 3, "sprite_max": 2}}, "data.sprite_min"),
        ({"data": {"frames": 4}}, "data.frames"),
        ({"data": {"frames": 2}}, "data.frames"),
        ({"data": {"canvas_h": 8, "canvas_w": 8, "patch": 8}}, "data.canvas_h and data.canvas_w"),
        ({"data": {"canvas_w": 8}}, "data.canvas_h and data.canvas_w"),
    ])
    def test_value_outside_its_range_names_the_field(self, payload, field):
        with pytest.raises(ConfigError, match=rf"^{field} must "):
            config_from_dict(payload)

    def test_every_number_field_has_a_range(self):
        missing = [f"{name}.{f.name}" for name, cls in _SECTIONS.items()
                   for f in dataclasses.fields(cls)
                   if f.type in ("int", "float") and f.name not in _RANGES.get(cls, {})]
        assert not missing

    def test_even_frames_are_accepted_only_without_temporal_binding(self):
        with pytest.raises(ConfigError, match=r"^data\.frames must be odd with temporal"):
            config_from_dict({"data": {"frames": 4}})
        cfg = config_from_dict({"model": {"use_temporal_binding": False},
                                "data": {"frames": 4}})
        assert param_shapes(cfg)["tbind.temb"] == (4, cfg.model.d_slot)

    def test_float_field_takes_an_int(self):
        cfg = config_from_dict({"model": {"delta": 4}, "train": {"peak_lr": 1}})
        assert (cfg.model.delta, cfg.train.peak_lr) == (4, 1)

    @pytest.mark.parametrize("command", [
        ["train"],
        ["infer", "--checkpoint", "x.ckpt", "--features", "synthetic:1", "--out", "o"],
        ["evaluate", "--pred", "p", "--gt", "g", "--report", "r.json"],
        ["ablate", "--axis", "components"],
    ], ids=lambda c: c[0])
    def test_every_command_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"data": {"clip_count": "x"}}))
        assert cli_main(command + ["--config", str(path)]) == 2
        assert "data.clip_count must be an integer" in capsys.readouterr().err
        path.write_text('{"model": ')
        assert cli_main(command + ["--config", str(path)]) == 2
        assert f"error: {path}: not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", [
        ([1, 2], "{path}: root must be a JSON object"),
        ('{"model": ', "{path}: not valid JSON"),
        ({"split": "test"}, "split must be train, val or all"),
        ({"clip_count": "x"}, "data.clip_count must be an integer"),
        ({"frames": 2.0}, "data.frames must be an integer"),
        ({"patch": 0}, "data.patch must be >= 1"),
        ({"frames": 0}, "data.frames must be >= 1"),
        ({"canvas_h": 8, "canvas_w": 8, "patch": 8, "clip_count": 4},
         "data.canvas_h and data.canvas_w must be >= 2 * data.patch"),
    ], ids=["list_root", "truncated", "bad_split", "string_count", "float_frames",
            "zero_patch", "zero_frames", "canvas_below_smallest_sprite"])
    def test_gen_rejects_bad_spec(self, tmp_path, capsys, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
        out = tmp_path / "out"
        assert cli_main(["gen", "--spec", str(path), "--out", str(out)]) == 2
        assert message.format(path=path) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen", "train"])
    def test_a_directory_for_a_json_file_exits_2(self, tmp_path, capsys, command):
        argv = {"gen": ["gen", "--out", str(tmp_path / "out"), "--spec"],
                "train": ["train", "--config"]}[command]
        assert cli_main(argv + [str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err


class TestLrSchedule:
    TRAIN = TrainConfig(peak_lr=4e-4, warmup_fraction=0.05, final_lr_fraction=0.01)

    def _lr(self, step, total=200):
        return learning_rate(self.TRAIN, total, step)

    def test_starts_at_zero(self):
        assert self._lr(0) == 0.0

    def test_peak_at_warmup_end(self):
        assert self._lr(10) == pytest.approx(4e-4)

    def test_final_step_hits_floor_fraction(self):
        assert self._lr(199) == pytest.approx(4e-6)

    def test_positive_after_step_zero(self):
        assert all(self._lr(t) > 0 for t in range(1, 200))

    def test_linear_then_exponential_and_continuous(self):
        ws = [self._lr(t) for t in range(11)]
        diffs = np.diff(ws)
        np.testing.assert_allclose(diffs, diffs[0])  # linear warmup
        log_decay = np.log([self._lr(t) for t in range(10, 200)])
        np.testing.assert_allclose(np.diff(log_decay), np.diff(log_decay)[0],
                                   atol=1e-9)  # exponential decay
        assert abs(self._lr(10) - self._lr(11)) < 4e-4 * 0.05  # no jump at boundary

    def test_from_config_warmup_fraction(self):
        # 5% of 400 steps: warmup ends at step 20
        assert self._lr(19, total=400) == pytest.approx(4e-4 * 19 / 20)
        assert self._lr(20, total=400) == pytest.approx(4e-4)
        with pytest.raises(ConfigError, match="total_steps must be >= 1"):
            self._lr(0, total=0)


def _tiny_cfg_dict(tmp_path, clip_count=4):
    return {
        "model": {"k_slots": 3, "d_slot": 16, "transformer_layers": 1,
                  "transformer_heads": 2, "decoder_layers": 3, "decoder_hidden": 24},
        "data": {"canvas_h": 32, "canvas_w": 32, "patch": 8, "d_features": 12,
                 "sprite_max": 2, "clip_count": clip_count, "frames": 3,
                 "seed": 5},
        "train": {"epochs": 1, "batch_size": 2, "drop_ratio": 0.25,
                  "precision": "f64"},
        "paths": {"checkpoint_dir": str(tmp_path / "ckpt")},
    }


class TestCliRoundTrip:
    def test_gen_infer_evaluate(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_tiny_cfg_dict(tmp_path)))

        # train a tiny model
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        ckpt = str(tmp_path / "ckpt" / "final.ckpt")
        assert os.path.exists(ckpt)

        # generate ground truth + features for the validation split
        gen_spec = tmp_path / "gen.json"
        payload = _tiny_cfg_dict(tmp_path)["data"]
        payload["split"] = "val"
        gen_spec.write_text(json.dumps(payload))
        gt_dir = str(tmp_path / "gt")
        assert cli_main(["gen", "--spec", str(gen_spec), "--out", gt_dir]) == 0
        masks = [f for f in os.listdir(gt_dir) if f.endswith(".mask")]
        feats = [f for f in os.listdir(gt_dir) if f.endswith(".features")]
        assert masks and len(masks) == len(feats)

        # segment from the feature file
        pred_dir = str(tmp_path / "pred")
        assert cli_main([
            "infer", "--config", str(cfg_path), "--checkpoint", ckpt,
            "--features", os.path.join(gt_dir, feats[0]), "--out", pred_dir,
        ]) == 0
        pred_files = os.listdir(pred_dir)
        assert pred_files == [masks[0].replace(".mask", "") + ".mask"]
        pred = datagen.read_masks(os.path.join(pred_dir, pred_files[0]))
        gt = datagen.read_masks(os.path.join(gt_dir, masks[0]))
        assert pred.shape == gt.shape

        # evaluate pred against gt (only the one shared id)
        solo_gt = str(tmp_path / "gt_solo")
        os.makedirs(solo_gt)
        os.link(os.path.join(gt_dir, masks[0]), os.path.join(solo_gt, masks[0]))
        report_path = str(tmp_path / "report.json")
        assert cli_main([
            "evaluate", "--config", str(cfg_path), "--pred", pred_dir,
            "--gt", solo_gt, "--report", report_path,
        ]) == 0
        report = json.loads(Path(report_path).read_text())
        assert set(report) == {"videos", "mean_fg_ari", "mean_miou",
                               "config_digest"}
        assert len(report["videos"]) == 1

    def test_evaluate_perfect_prediction_scores_one(self, tmp_path):
        rng = np.random.default_rng(0)
        gt_dir = tmp_path / "gt"
        pred_dir = tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        masks = rng.integers(0, 3, size=(2, 8, 8)).astype(np.uint16)
        masks[0, 0, 0] = 1  # ensure some foreground
        datagen.write_masks(str(gt_dir / "v0.mask"), masks)
        datagen.write_masks(str(pred_dir / "v0.mask"), masks)
        report_path = str(tmp_path / "new" / "dir" / "r.json")
        assert cli_main(["evaluate", "--pred", str(pred_dir), "--gt",
                         str(gt_dir), "--report", report_path]) == 0
        report = json.loads(Path(report_path).read_text())
        assert report["mean_fg_ari"] == 1.0
        assert report["mean_miou"] == 1.0

    def test_evaluate_id_mismatch_lists_ids(self, tmp_path, capsys):
        gt_dir = tmp_path / "gt"
        pred_dir = tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        masks = np.ones((1, 4, 4), dtype=np.uint16)
        datagen.write_masks(str(gt_dir / "a.mask"), masks)
        datagen.write_masks(str(pred_dir / "b.mask"), masks)
        rc = cli_main(["evaluate", "--pred", str(pred_dir), "--gt",
                       str(gt_dir), "--report", str(tmp_path / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "a" in err and "b" in err

    @pytest.mark.parametrize("pred_frames", [1, 3])
    def test_evaluate_frame_count_mismatch_exits_2(self, tmp_path, capsys,
                                                   pred_frames):
        gt_dir = tmp_path / "gt"
        pred_dir = tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        masks = np.ones((5, 4, 4), dtype=np.uint16)
        datagen.write_masks(str(gt_dir / "v0.mask"), masks)
        datagen.write_masks(str(pred_dir / "v0.mask"), masks[:pred_frames])
        rc = cli_main(["evaluate", "--pred", str(pred_dir), "--gt",
                       str(gt_dir), "--report", str(tmp_path / "r.json")])
        assert rc == 2
        assert "v0" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_infer_rejects_mismatched_checkpoint(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_tiny_cfg_dict(tmp_path)))
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        ckpt = str(tmp_path / "ckpt" / "final.ckpt")

        other = _tiny_cfg_dict(tmp_path)
        other["model"]["k_slots"] = 2
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other))
        rc = cli_main(["infer", "--config", str(other_path),
                       "--checkpoint", ckpt,
                       "--features", "synthetic:3",
                       "--out", str(tmp_path / "p")])
        assert rc == 2

    def test_infer_synthetic_seed(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_tiny_cfg_dict(tmp_path)))
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        ckpt = str(tmp_path / "ckpt" / "final.ckpt")
        out = str(tmp_path / "synth_pred")
        assert cli_main(["infer", "--config", str(cfg_path),
                         "--checkpoint", ckpt,
                         "--features", "synthetic:42", "--out", out]) == 0
        files = os.listdir(out)
        assert files == ["synthetic_42.mask"]


def _untrained_checkpoint(tmp_path, precision="f64") -> tuple[str, str, RunConfig]:
    """Config file, freshly initialised weights and the config for
    ``solv infer``."""
    payload = _tiny_cfg_dict(tmp_path)
    payload["train"]["precision"] = precision
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    cfg = config_from_dict(payload)
    ckpt = str(tmp_path / "init.ckpt")
    init_params(cfg).save(ckpt)
    Path(ckpt + ".meta.json").write_text(json.dumps(
        {"config_digest": cfg.digest(), "step": 0, "epoch": 0}))
    return str(cfg_path), ckpt, cfg


class TestInferRejectsBadInput:
    @pytest.mark.parametrize("frames, width, bad_frame, message", [
        (0, 12, None, "no frames"),
        (3, 10, None, "width 10"),
        (3, 12, 1, "frame 1"),
    ], ids=["zero_frames", "wrong_width", "non_finite"])
    def test_bad_features_exit_2(self, tmp_path, capsys, frames, width,
                                 bad_frame, message):
        cfg_path, ckpt, cfg = _untrained_checkpoint(tmp_path)
        feats = np.random.default_rng(0).normal(
            size=(frames, cfg.data.n_tokens, width))
        if bad_frame is not None:
            feats[bad_frame, 2, 3] = np.inf
        feat_path = str(tmp_path / "v.features")
        datagen.write_features(feat_path, feats)
        out = tmp_path / "pred"
        rc = cli_main(["infer", "--config", cfg_path,
                       "--checkpoint", ckpt,
                       "--features", feat_path, "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_checkpoint_without_its_sidecar_exits_2(self, tmp_path, capsys):
        cfg_path, ckpt, _ = _untrained_checkpoint(tmp_path)
        os.remove(ckpt + ".meta.json")
        out = tmp_path / "pred"
        rc = cli_main(["infer", "--config", cfg_path, "--checkpoint", ckpt,
                       "--features", "synthetic:3", "--out", str(out)])
        assert rc == 2
        assert f"{ckpt}.meta.json: missing" in capsys.readouterr().err

    def test_track_ids_past_uint16_exit_2(self, tmp_path, capsys, monkeypatch):
        cfg_path, ckpt, _ = _untrained_checkpoint(tmp_path)
        real_infer = cli.infer_video

        def many_tracks(pipe, feats):
            tracked, k_t = real_infer(pipe, feats)
            # track labels come in the narrowest type that holds them
            tracked.frames = tracked.frames.astype(np.int64)
            tracked.frames[0, 0, 0] = 70000
            return tracked, k_t

        monkeypatch.setattr(cli, "infer_video", many_tracks)
        out = tmp_path / "pred"
        rc = cli_main(["infer", "--config", cfg_path,
                       "--checkpoint", ckpt,
                       "--features", "synthetic:3", "--out", str(out)])
        assert rc == 2
        assert "70000" in capsys.readouterr().err
        assert not list(out.iterdir())


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_infer_passes_features_as_read(tmp_path, monkeypatch, precision):
    cfg_path, ckpt, cfg = _untrained_checkpoint(tmp_path, precision)
    spec = datagen.random_scene(4, (cfg.data.canvas_h, cfg.data.canvas_w),
                                cfg.data.patch, 5, (1, 2))
    oracle = datagen.FeatureOracle(cfg.data.seed, cfg.data.n_identities,
                                   cfg.data.d_features, cfg.data.sigma_noise)
    feat_path = str(tmp_path / "v.features")
    datagen.write_features(feat_path, datagen.render_clip(spec, oracle).features)
    real_infer = cli.infer_video
    dtypes = []

    def recording(pipe, feats):
        dtypes.append(feats.dtype)
        return real_infer(pipe, feats)

    monkeypatch.setattr(cli, "infer_video", recording)
    assert cli_main(["infer", "--config", cfg_path, "--checkpoint", ckpt,
                     "--features", feat_path, "--out", str(tmp_path / "pred")]) == 0
    assert dtypes == [np.float32]
    # the masks equal those segmented from a float64 copy of the features
    widened = datagen.read_features(feat_path).astype(np.float64)
    tracked, _ = real_infer(load_pipeline(cfg, ckpt), widened)
    datagen.write_masks(str(tmp_path / "widened.mask"), tracked.frames)
    assert (tmp_path / "pred" / "v.mask").read_bytes() == \
        (tmp_path / "widened.mask").read_bytes()


def test_ablate_writes_its_table_as_indented_json(tmp_path, monkeypatch, capsys):
    rows = {"full": {"mean_miou": 0.5, "mean_k_t": 2.0}, "no_merge": {"mean_miou": 0.25}}
    monkeypatch.setattr(cli.ablate_mod, "ablate", lambda *args, **kwargs: rows)
    out = tmp_path / "new" / "dir" / "ablate.json"
    assert cli_main(["ablate", "--axis", "components", "--out", str(out)]) == 0
    assert out.read_bytes() == json.dumps(rows, indent=2).encode()
    assert f"table written to {out}" in capsys.readouterr().out


def test_readme_cli_block_parses():
    """Every ``solv`` line of the README's CLI block parses, and each
    ablate line's variant table builds from the default config."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].strip() for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("solv ")]
    assert len(commands) == len([line for line in lines if line])
    parser = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        if args.command == "ablate":
            values = [float(v) for v in args.values.split(",")] if args.values else []
            assert variants(args.axis, values, RunConfig())
