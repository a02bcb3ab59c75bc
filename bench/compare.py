"""Compare two sets of benchmark results: a parent commit against a change.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the untraced records bench/run.py appends to
``.bench_out/results.jsonl`` in its checkout. Runs pair by workload and
seed; pairs must alternate which side ran first. For every end-to-end
metric of ``BENCHMARK.json`` and every workload the verdict is one of:

- ``gain``: at least ten pairs, the change wins at least nine tenths of
  them (ties count for neither), and the medians differ by more than the
  parent's interquartile spread;
- ``unresolved``: the parent's spread is wider than the metric's bound,
  and not every change run reads better than every parent run;
- ``regression``: the change's median is worse than the parent's by more
  than the bound;
- ``within bound``: none of the above;
- ``too few pairs`` or ``not alternating``: nothing can be judged.

Prints one row per workload. Exit status 1 when a metric regressed, 2
when the pairs cannot be judged, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def judge(parent: list, change: list, better: str, bound: float) -> str:
    """Verdict for one metric on one workload; runs are paired by index."""
    n = len(parent)
    if n < MIN_PAIRS or len(change) != n:
        return "too few pairs"
    sign = 1.0 if better == "higher" else -1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    spread = q3 - q1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if wins >= WIN_SHARE * n and sign * (mc - mp) > spread:
        return "gain"
    if spread > bound * abs(mp):
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return "within bound"
        return "unresolved"
    if sign * (mp - mc) > bound * abs(mp):
        return "regression"
    return "within bound"


def load(path: str) -> dict:
    """{(workload, seed): record} of untraced runs; a later run of the
    same workload and seed replaces an earlier one."""
    runs = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec["trace"] == 0:
                runs[(rec["workload"], rec["seed"])] = rec
    return runs


def pairs_of(parent: dict, change: dict, workload: str) -> tuple[list, bool]:
    """Pairs of one workload in the order they ran, and whether the side
    that ran first alternates from pair to pair."""
    keys = [k for k in parent if k[0] == workload and k in change]
    pairs = sorted(((parent[k], change[k]) for k in keys),
                   key=lambda pc: min(pc[0]["started_at"], pc[1]["started_at"]))
    first = [p["started_at"] < c["started_at"] for p, c in pairs]
    return pairs, all(a != b for a, b in zip(first, first[1:]))


def compare(parent: dict, change: dict, definition: dict) -> tuple[list, int]:
    metrics = definition["end_to_end"]
    workloads = [w["name"] for w in definition["workloads"]]
    rows = [["workload", "pairs", "alternating"] + [m["name"] for m in metrics]]
    status = 0
    for workload in workloads:
        pairs, alternating = pairs_of(parent, change, workload)
        row = [workload, str(len(pairs)), "yes" if alternating else "no"]
        for m in metrics:
            p = [pc[0]["result"]["metrics"][m["name"]]["value"] for pc in pairs]
            c = [pc[1]["result"]["metrics"][m["name"]]["value"] for pc in pairs]
            verdict = judge(p, c, m["better"], m["bound"]) if alternating else "not alternating"
            if p:
                mp, mc = statistics.median(p), statistics.median(c)
                verdict += f" {mp:.4g}->{mc:.4g} ({(mc - mp) / mp:+.1%})" if mp else ""
            if verdict.startswith("regression"):
                status = 1
            elif verdict.startswith(("too few", "not alternating")) and status == 0:
                status = 2
            row.append(verdict)
        rows.append(row)
    return rows, status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="results.jsonl of the parent commit")
    p.add_argument("change", help="results.jsonl of the change")
    args = p.parse_args(argv)
    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json") as f:
        definition = json.load(f)
    rows, status = compare(load(args.parent), load(args.change), definition)
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return status


if __name__ == "__main__":
    sys.exit(main())
