"""Ablation sweep plumbing at miniature scale."""

from pathlib import Path

import pytest

from solv import ablate as ablate_mod
from solv.ablate import (
    COMPONENT_VARIANTS, ablate, format_table, peak_live_values,
)
from solv.cli import main as cli_main
from solv.config import RunConfig
from solv.diffcore import ConfigError
from solv.train import load_pipeline, train
from test_train import tiny_cfg


class TestAxes:
    def test_component_axis_runs_five_variants(self, tmp_path):
        cfg = tiny_cfg(tmp_path, **{"train.epochs": 1, "data.clip_count": 4})
        rows = ablate("components", [], cfg, eval_clips=1)
        assert list(rows) == [f"model_{v}" for v in "ABCDE"]
        for row in rows.values():
            assert "mean_miou" in row and "mean_fg_ari" in row

    def test_component_grid_matches_contract(self):
        assert COMPONENT_VARIANTS["A"] == (False, False, False)
        assert COMPONENT_VARIANTS["E"] == (True, True, True)
        assert len(COMPONENT_VARIANTS) == 5

    def test_slots_axis_runs_merge_on_and_off(self, tmp_path):
        cfg = tiny_cfg(tmp_path, **{"train.epochs": 1, "data.clip_count": 4})
        rows = ablate("slots", [2, 3], cfg, eval_clips=1)
        assert list(rows) == ["k2_nomerge", "k2_merge", "k3_nomerge", "k3_merge"]

    def test_drop_axis_reports_live_values(self, tmp_path):
        cfg = tiny_cfg(tmp_path, **{"train.epochs": 1, "data.clip_count": 4})
        rows = ablate("drop_ratio", [0.0, 0.5], cfg, eval_clips=1)
        assert rows["r0"]["peak_live_values"] > rows["r0.5"]["peak_live_values"]

    def test_unknown_axis(self, tmp_path):
        with pytest.raises(ValueError, match="axis"):
            ablate("widgets", [], tiny_cfg(tmp_path), eval_clips=1)

    @pytest.mark.parametrize("axis, values, message", [
        ("components", [7], "takes no values"),
        ("slots", [], "needs at least one value"),
        ("drop_ratio", [], "needs at least one value"),
        ("slots", [2, 3, 2], "name a row twice"),
        ("drop_ratio", [0.5, 0.5], "name a row twice"),
        ("slots", [2.5, 3.9], "whole numbers"),
        ("slots", [4, 0], "model.k_slots must be >= 1"),
        ("drop_ratio", [0.25, float("nan")], "train.drop_ratio must lie in"),
    ])
    def test_values_the_sweep_would_misread_are_refused(self, tmp_path, monkeypatch,
                                                        capsys, axis, values, message):
        trained = []
        monkeypatch.setattr(ablate_mod, "_train_and_score",
                            lambda cfg, eval_clips: trained.append(cfg) or {})
        with pytest.raises(ConfigError, match=message):
            ablate(axis, values, tiny_cfg(tmp_path), eval_clips=1)
        argv = ["ablate", "--axis", axis]
        argv += ["--values", ",".join(map(str, values))] if values else []
        assert cli_main(argv) == 2
        assert message in capsys.readouterr().err
        assert not trained

    @pytest.mark.parametrize("eval_clips", [0, -5])
    def test_eval_clips_below_one_are_refused(self, tmp_path, monkeypatch, capsys,
                                              eval_clips):
        trained = []
        monkeypatch.setattr(ablate_mod, "_train_and_score",
                            lambda cfg, eval_clips: trained.append(cfg) or {})
        with pytest.raises(ConfigError, match="eval_clips must be >= 1"):
            ablate("components", [], tiny_cfg(tmp_path), eval_clips=eval_clips)
        argv = ["ablate", "--axis", "components", "--eval-clips", str(eval_clips)]
        assert cli_main(argv) == 2
        assert "eval_clips must be >= 1" in capsys.readouterr().err
        assert not trained

    def test_eval_clips_beyond_the_validation_clips_are_refused(self, tmp_path,
                                                               monkeypatch, capsys):
        trained = []
        monkeypatch.setattr(ablate_mod, "_train_and_score",
                            lambda cfg, eval_clips: trained.append(cfg) or {})
        cfg = tiny_cfg(tmp_path, **{"data.clip_count": 20})
        with pytest.raises(ConfigError, match="eval_clips 3 exceeds the 2 validation clips"):
            ablate("components", [], cfg, eval_clips=3)
        assert cli_main(["ablate", "--axis", "components", "--eval-clips", "100"]) == 2
        assert "eval_clips 100 exceeds the 57 validation clips" in capsys.readouterr().err
        assert not trained
        assert list(ablate("components", [], cfg, eval_clips=2)) == [
            f"model_{v}" for v in "ABCDE"]

    def test_rows_train_into_their_own_directories(self, tmp_path):
        cfg = tiny_cfg(tmp_path, **{"train.epochs": 1, "data.clip_count": 4})
        train(cfg)
        ckpt = Path(cfg.paths.checkpoint_dir)
        before = {p.name: p.read_bytes() for p in ckpt.iterdir()}
        assert {"final.ckpt", "final.ckpt.meta.json"} <= set(before)
        rows = ablate("drop_ratio", [0.0, 0.5], cfg, eval_clips=1)
        after = {p.name: p.read_bytes() for p in ckpt.iterdir() if p.is_file()}
        assert after == before
        for name in rows:
            assert (ckpt / name / "final.ckpt").is_file()
        load_pipeline(cfg, str(ckpt / "final.ckpt"))

    def test_peak_live_values_depend_on_shapes_only(self, tmp_path):
        # the counts a rendered clip of this config gives at these drop ratios
        counts = {0.0: 49477, 0.5: 39661}
        for ratio, count in counts.items():
            cfg = tiny_cfg(tmp_path, **{"train.drop_ratio": ratio})
            assert peak_live_values(cfg) == count

    @pytest.mark.parametrize("ratio, count", [(0.5, 11_828_897), (0.0, 13_122_337)])
    def test_peak_live_values_of_the_default_config(self, ratio, count):
        cfg = RunConfig()
        cfg.train.drop_ratio = ratio
        assert peak_live_values(cfg) == count

    def test_rerun_determinism(self, tmp_path):
        cfg_a = tiny_cfg(tmp_path / "a", **{"train.epochs": 1, "data.clip_count": 4})
        cfg_b = tiny_cfg(tmp_path / "b", **{"train.epochs": 1, "data.clip_count": 4})
        rows_a = ablate("slots", [2], cfg_a, eval_clips=1)
        rows_b = ablate("slots", [2], cfg_b, eval_clips=1)
        assert rows_a == rows_b

    def test_format_table_renders_all_rows(self, tmp_path):
        rows = {"x": {"mean_miou": 0.5, "mean_fg_ari": 0.25, "mean_k_t": 3.0}}
        text = format_table(rows)
        assert "x" in text and "0.5000" in text

    def test_format_table_prints_every_key_of_the_rows(self):
        """The columns are the rows' keys in first-seen order, so a new
        metric needs no entry elsewhere to be printed."""
        rows = {"x": {"mean_miou": 0.5, "mean_fg_ari": 0.25, "mean_k_t": 3.0},
                "y": {"mean_miou": 0.75, "mean_fg_ari": 0.5, "mean_k_t": 2.0,
                      "frames_per_s": 12.5}}
        header, x, y = (line.split() for line in format_table(rows).splitlines())
        assert header == ["variant", "mean_miou", "mean_fg_ari", "mean_k_t", "frames_per_s"]
        assert x == ["x", "0.5000", "0.2500", "3.0000", "-"]
        assert y == ["y", "0.7500", "0.5000", "2.0000", "12.5000"]
