"""Benchmark entry point: one workload per process, or all of them.

    python3 bench/run.py --workload train --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from any directory of a source checkout; the program is imported
from the checkout's ``src``. Prints a run header, every metric by name
with its unit, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its
per-layer metrics and the tracing overhead. Each run is appended to
``.bench_out/results.jsonl`` (see compare.py); a traced run also writes
its spans to ``.bench_out/spans-<workload>-seed<seed>.json``.

Exit status: 0 when every output check passed, 1 when one failed, 2 when
the program or the benchmark definition cannot be found.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("train", "infer-long", "eval-dense")
# Per-workload names of items_per_s and op_s_p50 in the printed lines.
PREFIX = {"train": ("train", "clips_per_s", "step_s_p50"),
          "infer-long": ("infer", "frames_per_s", "video_s_p50"),
          "eval-dense": ("eval", "videos_per_s", "video_s_p50")}


def load_definition() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Header
# ---------------------------------------------------------------------------

def blas_threads() -> str:
    """Thread count of the OpenBLAS that numpy loaded, asked through ctypes."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=30)
        return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def run_header() -> dict:
    import numpy as np
    from solv.diffcore import get_precision

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "precision": get_precision(),
        "SOLV_THREADS": os.environ.get("SOLV_THREADS", "unset"),
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(out) -> dict:
    return {
        "items_per_s": out.items / out.wall_s if out.wall_s else 0.0,
        "op_s_p50": statistics.median(out.op_times) if out.op_times else 0.0,
        "setup_s": statistics.median(out.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_rate": (out.attempted - out.failed) / out.attempted if out.attempted else 0.0,
    }


def per_layer(spans, out) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of traced operations.

    Times and counts are per item (clip, frame or video) of the traced
    operations; checkpoint save and load are per call over the whole run.
    Also returns the per-name totals for the printed table.
    """
    from tracer import self_times

    selfs = self_times(spans)
    traced_ops = {i for i, t in enumerate(out.op_traced) if t}
    items = sum(n for n, t in zip(out.op_items, out.op_traced) if t)
    total: dict[str, Counter] = {}
    calls_all: dict[str, list] = {}
    for s in spans:
        calls_all.setdefault(s.name, []).append(s.duration)
        if s.op in traced_ops:
            c = total.setdefault(s.name, Counter())
            c["calls"] += 1
            c["s"] += s.duration
            c["self_s"] += selfs[id(s)]
            c.update(s.counts)
            if "n" in s.counts:
                c["max_n"] = max(c["max_n"], s.counts["n"])

    def per_item(name, key):
        return total.get(name, Counter())[key] / items if items else 0.0

    def per_call(name, key):
        c = total.get(name, Counter())
        return c[key] / c["calls"] if c["calls"] else 0.0

    def per_call_all(name):
        durations = calls_all.get(name, [])
        return sum(durations) / len(durations) if durations else 0.0

    m = {}
    for name in ("binding.spatial_bind", "binding.temporal_bind", "encoder.encode_frame"):
        for key in ("s", "calls", "tape_values"):
            m[f"{name}.{key}"] = per_item(name, key)
    m["encoder.make_drop_plan.s"] = per_item("encoder.make_drop_plan", "s")
    m["objecthead.decode.s"] = per_item("objecthead.decode", "s")
    m["objecthead.decode.tape_values"] = per_item("objecthead.decode", "tape_values")
    m["objecthead.reconstruction_loss.s"] = per_item("objecthead.reconstruction_loss", "s")
    m["objecthead.merge_slots.s"] = per_item("objecthead.merge_slots", "s")
    m["objecthead.merge_slots.calls"] = per_item("objecthead.merge_slots", "calls")
    m["objecthead.k_t_mean"] = per_call("objecthead.merge_slots", "k_t")
    for key in ("s", "calls", "self_s"):
        m[f"model.forward_window.{key}"] = per_item("model.forward_window", key)
    m["diffcore.tape_nodes_per_clip"] = per_call("diffcore.backward", "tape_nodes")
    m["diffcore.tape_values_per_clip"] = per_call("diffcore.backward", "tape_values")
    for name in ("diffcore.backward", "diffcore.adam_step", "datagen.render_clip"):
        m[f"{name}.s"] = per_item(name, "s")
        m[f"{name}.calls"] = per_item(name, "calls")
    m["train.step.self_s"] = per_call("train.step", "self_s")
    m["train.skipped_steps"] = out.extra.get("skipped_steps", 0)
    m["diffcore.checkpoint_save.s"] = per_call_all("diffcore.checkpoint_save")
    m["diffcore.checkpoint_load.s"] = per_call_all("diffcore.checkpoint_load")
    for name in ("datagen.read_features", "datagen.write_masks", "datagen.read_masks",
                 "evalkit.link_tracks", "evalkit.rasterize", "evalkit.video_miou",
                 "evalkit.mean_fg_ari"):
        m[f"{name}.s"] = per_item(name, "s")
    m["evalkit.hungarian.s"] = per_item("evalkit.hungarian", "s")
    m["evalkit.hungarian.calls"] = per_item("evalkit.hungarian", "calls")
    m["evalkit.hungarian.max_n"] = total.get("evalkit.hungarian", Counter())["max_n"]

    def rate(traced):
        t = sum(s for s, f in zip(out.op_times, out.op_traced) if f == traced)
        n = sum(s for s, f in zip(out.op_items, out.op_traced) if f == traced)
        return t / n if n else 0.0

    untraced = rate(False)
    m["tracing.overhead_s"] = rate(True) - untraced
    m["tracing.overhead_share"] = m["tracing.overhead_s"] / untraced if untraced else 0.0
    return m, total


def layer_table(total: dict, out) -> list[str]:
    items = sum(n for n, t in zip(out.op_items, out.op_traced) if t)
    op_time = sum(s for s, t in zip(out.op_times, out.op_traced) if t)
    if not items:
        return ["no traced operations"]
    unit = out.item
    lines = [f"per-layer spans over {items} traced {unit}s "
             f"({op_time:.3f} s of traced operations):",
             f"  {'span':34s} {'calls/' + unit:>12s} {'s/' + unit:>12s} "
             f"{'self s/' + unit:>14s} {'share':>7s}"]
    for name, c in sorted(total.items(), key=lambda kv: -kv[1]["s"]):
        lines.append(f"  {name:34s} {c['calls'] / items:12.3f} {c['s'] / items:12.6f} "
                     f"{c['self_s'] / items:14.6f} {c['s'] / op_time:7.1%}")
    return lines


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool,
            cfg=None, reps: int | None = None,
            out_dir: Path = OUT_DIR) -> tuple[dict, list]:
    """Run one workload in this process; returns its result and the lines
    it prints before the result."""
    import workloads
    from tracer import Tracer

    definition = load_definition()
    tracer = Tracer() if trace else None
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        # A traced run reports no set-up time, so it makes no set-up probes.
        set_ups = {"reps": 0} if trace else {} if reps is None else {"reps": reps}
        out = workloads.WORKLOADS[workload](seed, seconds, tracer, workdir,
                                            cfg=cfg, **set_ups)
    header = run_header()
    lines = ["# " + " ".join(f"{k}={v}" for k, v in header.items())]
    prefix, items_name, op_name = PREFIX[workload]
    if trace:
        values, total = per_layer(tracer.spans, out)
        units = {m["name"]: m["unit"] for m in definition["per_layer"]}
        spans_path = out_dir / f"spans-{workload}-seed{seed}.json"
        tracer.dump(spans_path)
        lines.append(f"# {len(tracer.spans)} spans written to {spans_path}")
    else:
        values = end_to_end(out)
        units = {m["name"]: m["unit"] for m in definition["end_to_end"]}
        shown = {"items_per_s": items_name, "op_s_p50": op_name}
        for name, value in values.items():
            lines.append(f"{prefix}.{shown.get(name, name):14s} {value:12.6g} {units[name]}")
        fail_rate = out.failed / out.attempted if out.attempted else 1.0
        lines.append(f"{prefix}.fail_rate      {fail_rate:12.6g} "
                     f"({out.failed} failed of {out.attempted} attempted {out.base})")
        lines.append(f"# {out.items} {out.item}s in {out.wall_s:.3f} s over "
                     f"{len(out.op_times)} operations; set-ups in fresh interpreters: "
                     + ", ".join(f"{s:.3f}" for s in out.setup_times) + " s scaled, "
                     + ", ".join(f"{s:.3f}" for s in out.setup_raw_times) + " s unscaled")
        raw_s = sum(out.op_raw_times)
        lines.append(
            f"# times above are scaled to reference speed; unscaled: "
            f"{items_name} {out.items / raw_s if raw_s else 0.0:.6g}, "
            f"{op_name} {statistics.median(out.op_raw_times) if raw_s else 0.0:.6g} s; "
            f"reference kernel {len(out.ref_times)} runs, median "
            f"{statistics.median(out.ref_times) if out.ref_times else 0.0:.6g} s "
            f"(nominal {workloads.REF_NOMINAL_S} s)")
    if values.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json "
                           f"{sorted(units)}")
    lines += [f"# digest {k} {v}" for k, v in out.digests.items()]
    lines += [f"# {k} {v}" for k, v in out.extra.items()]
    lines += [f"FAILED CHECK: {p}" for p in out.problems]
    result = {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "started_at": time.time(), "header": header,
              "digests": out.digests, "op_times": out.op_times,
              "op_raw_times": out.op_raw_times, "ref_times": out.ref_times,
              "op_items": out.op_items, "result": result}
    with open(out_dir / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    if trace:
        lines += layer_table(total, out)
    return result, lines


def run_all(args) -> int:
    """Each workload in its own process, so precision and peak memory
    stay per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode not in (0, 1) or not lines:
            print(f"{workload}: exited with status {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "solv" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'solv'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no {ROOT / 'BENCHMARK.json'}", file=sys.stderr)
        return 2
    # One BLAS thread unless the caller chose otherwise: on a small shared
    # machine the second core's availability swings two-thread matmul
    # timings by up to 2x, while one thread stays within a few percent.
    # Set before numpy is first imported; child processes inherit it.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
