"""Config defaults and strict parsing, the lr schedule, and CLI round trips."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from solv import datagen
from solv.cli import main as cli_main
from solv.config import (
    LrSchedule, RunConfig, config_from_dict, load_config,
)
from solv.diffcore import ConfigError


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
        assert cfg.model.n_window == 2
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

    def test_window_arithmetic(self):
        assert RunConfig().model.window == 5


class TestStrictParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"model": {}, "wat": {}})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="model"):
            config_from_dict({"model": {"k_slots": 4, "nope": 1}})

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


class TestLrSchedule:
    def _sched(self, total=200):
        return LrSchedule(peak=4e-4, warmup_steps=10, total_steps=total,
                          final_fraction=0.01)

    def test_starts_at_zero(self):
        assert self._sched().lr(0) == 0.0

    def test_peak_at_warmup_end(self):
        assert self._sched().lr(10) == pytest.approx(4e-4)

    def test_final_step_hits_floor_fraction(self):
        s = self._sched()
        assert s.lr(199) == pytest.approx(4e-6)

    def test_positive_after_step_zero(self):
        s = self._sched()
        assert all(s.lr(t) > 0 for t in range(1, 200))

    def test_linear_then_exponential_and_continuous(self):
        s = self._sched()
        ws = [s.lr(t) for t in range(11)]
        diffs = np.diff(ws)
        np.testing.assert_allclose(diffs, diffs[0])  # linear warmup
        log_decay = np.log([s.lr(t) for t in range(10, 200)])
        np.testing.assert_allclose(np.diff(log_decay), np.diff(log_decay)[0],
                                   atol=1e-9)  # exponential decay
        assert abs(s.lr(10) - s.lr(11)) < 4e-4 * 0.05  # no jump at boundary

    def test_from_config_warmup_fraction(self):
        from solv.config import TrainConfig
        s = LrSchedule.from_config(TrainConfig(), total_steps=400)
        assert s.warmup_steps == 20
        assert s.lr(20) == pytest.approx(4e-4)


def _tiny_cfg_dict(tmp_path, clip_count=4):
    return {
        "model": {"k_slots": 3, "d_slot": 16, "n_window": 1,
                  "transformer_layers": 1, "transformer_heads": 2,
                  "decoder_layers": 3, "decoder_hidden": 24},
        "data": {"canvas_h": 32, "canvas_w": 32, "patch": 8, "d_features": 12,
                 "sprite_max": 2, "clip_count": clip_count, "frames": 3,
                 "seed": 5},
        "train": {"epochs": 1, "batch_size": 2, "drop_ratio": 0.25,
                  "precision": "f64"},
        "paths": {"checkpoint_dir": str(tmp_path / "ckpt"),
                  "report_path": str(tmp_path / "report.json")},
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
        report_path = str(tmp_path / "r.json")
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
