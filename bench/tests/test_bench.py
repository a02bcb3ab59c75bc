"""The benchmark's own tests: workload smoke runs on a tiny config, span
self-time arithmetic, and the compare rule.

    python3 -m pytest bench/tests
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from solv import datagen, evalkit  # noqa: E402
from solv.config import DataConfig, ModelConfig, RunConfig, TrainConfig  # noqa: E402
from tracer import Span, self_times  # noqa: E402


def tiny_cfg() -> RunConfig:
    return RunConfig(
        model=ModelConfig(k_slots=3, d_slot=16, n_window=1, transformer_layers=1,
                          transformer_heads=2, decoder_layers=3, decoder_hidden=24),
        data=DataConfig(canvas_h=32, canvas_w=32, patch=8, d_features=12,
                        sprite_max=2, clip_count=12, frames=3),
        train=TrainConfig(epochs=1, batch_size=2, drop_ratio=0.25),
    )


# ---------------------------------------------------------------------------
# Smoke runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace, tmp_path):
    result, lines = run.measure(workload, seed=3, seconds=0.2, trace=trace,
                                cfg=tiny_cfg(), reps=1, out_dir=tmp_path)
    section = "per_layer" if trace else "end_to_end"
    names = {m["name"] for m in run.load_definition()[section]}
    assert result["correct"], lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == names
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        assert (tmp_path / f"spans-{workload}-seed3.json").is_file()
    else:
        assert all(result["metrics"][n]["value"] > 0 for n in names)
    assert (tmp_path / "results.jsonl").is_file()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_same_outputs(workload, tmp_path):
    """Same seed and --seconds: the same inputs, steps and output digests,
    however long the steps took."""
    runs = []
    for seconds in (0.0, 0.3):
        workdir = tmp_path / str(len(runs))
        workdir.mkdir()
        out = workloads.WORKLOADS[workload](5, seconds, None, str(workdir),
                                            cfg=tiny_cfg(), reps=0)
        runs.append((out.digests, out.extra.get("steps")))
    assert runs[0] == runs[1]


def test_eval_assigns_objects_to_tracks(tmp_path, monkeypatch):
    """``evaluate_dirs`` gets the predictions first: the cost matrices that
    reach ``hungarian`` have a row per ground-truth object and a column
    per predicted track."""
    shapes = []
    real = evalkit.hungarian

    def recording(cost):
        shapes.append(np.shape(cost))
        return real(cost)

    monkeypatch.setattr(evalkit, "hungarian", recording)
    cfg = tiny_cfg()
    out = workloads.run_eval(5, 0.0, None, str(tmp_path), cfg=cfg, reps=0)
    assert not out.problems
    assert shapes
    assert all(rows <= cfg.data.sprite_max < cols for rows, cols in shapes)


def test_failed_output_check_is_counted(tmp_path, monkeypatch):
    real = datagen.write_masks
    monkeypatch.setattr(datagen, "write_masks",
                        lambda path, masks: real(path, masks + 1))
    result, lines = run.measure("infer-long", seed=3, seconds=0.0, trace=False,
                                cfg=tiny_cfg(), reps=1, out_dir=tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == len(workloads.infer_lengths(0.0))
    assert any("read back" in line for line in lines)
    assert result["metrics"]["pass_rate"]["value"] == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""


def test_dense_tracks_refine_ground_truth():
    rng = np.random.default_rng(0)
    gt = np.zeros((5, 32, 32), dtype=np.uint16)
    gt[:, 4:20, 6:18] = 1
    gt[:, 18:30, 20:31] = 2
    pred = workloads.dense_tracks(gt, rng)
    for p, g in zip(pred, gt):
        for track in np.unique(p):
            assert np.unique(g[p == track]).size == 1
    assert np.unique(pred).size > np.unique(pred[0]).size  # tracks are re-born


def test_operation_times_are_scaled_to_reference_speed():
    """A chunk during which the reference kernel ran twice as slow as
    nominal counts its operations at half their measured time."""
    out = workloads.Outcome(item="frame")
    slow = 2 * workloads.REF_NOMINAL_S
    out.add_ops([(2.0, 4, False), (1.0, 1, True)], slow * 0.9, slow * 1.1)
    assert out.op_times == pytest.approx([1.0, 0.5])
    assert out.op_raw_times == [2.0, 1.0]
    assert out.items == 5 and out.op_traced == [False, True]


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------

def test_self_time_subtracts_covered_part_of_children():
    root = Span("step", 0.0, 10.0)
    a = Span("forward", 1.0, 4.0, parent=root)
    b = Span("overlapping", 3.0, 6.0, parent=root)     # overlaps a by 1
    c = Span("outlasting", 8.0, 12.0, parent=root)     # 2 s past the parent
    d = Span("inner", 2.0, 3.0, parent=a)
    other = Span("other thread", 0.0, 10.0)             # no parent: not a child
    selfs = self_times([root, a, b, c, d, other])
    assert selfs[id(root)] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[id(a)] == pytest.approx(2.0)
    assert selfs[id(b)] == pytest.approx(3.0)
    assert selfs[id(d)] == pytest.approx(1.0)
    assert selfs[id(other)] == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# Compare rule
# ---------------------------------------------------------------------------

PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.05, 9.95]


def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_spread():
    faster = [v * 1.2 for v in PARENT]
    assert compare.judge(PARENT, faster, "higher", 0.1) == "gain"
    mostly = faster[:8] + [PARENT[8] - 1, PARENT[9] - 1]  # 8 of 10 wins
    assert compare.judge(PARENT, mostly, "higher", 0.1) != "gain"
    tiny = [v + 0.01 for v in PARENT]                      # wins, gap < spread
    assert compare.judge(PARENT, tiny, "higher", 0.1) == "within bound"
    assert compare.judge(PARENT, faster, "lower", 0.1) == "regression"


def test_regression_is_judged_against_the_bound():
    slower = [v * 0.85 for v in PARENT]
    assert compare.judge(PARENT, slower, "higher", 0.1) == "regression"
    assert compare.judge(PARENT, slower, "higher", 0.2) == "within bound"


def test_spread_wider_than_bound_is_unresolved():
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    same = list(noisy)
    assert compare.judge(noisy, same, "higher", 0.1) == "unresolved"
    better = [v + 20.0 for v in noisy]
    assert compare.judge(noisy, better, "higher", 0.1) == "gain"


def test_too_few_pairs():
    assert compare.judge(PARENT[:9], PARENT[:9], "higher", 0.1) == "too few pairs"


def test_pairs_must_alternate():
    def rec(seed, t):
        return {"workload": "w", "seed": seed, "started_at": t}
    parent = {("w", s): rec(s, 10 * s + (0 if s % 2 else 5)) for s in range(4)}
    change = {("w", s): rec(s, 10 * s + (5 if s % 2 else 0)) for s in range(4)}
    pairs, alternating = compare.pairs_of(parent, change, "w")
    assert len(pairs) == 4 and alternating
    first_always = {("w", s): rec(s, 10 * s) for s in range(4)}
    later = {("w", s): rec(s, 10 * s + 5) for s in range(4)}
    assert not compare.pairs_of(first_always, later, "w")[1]
