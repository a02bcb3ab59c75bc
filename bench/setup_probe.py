"""Times one set-up of a workload in a fresh interpreter.

    python3 bench/setup_probe.py SPEC.json

``SPEC.json`` names the workload, its config and its prepared inputs
(see ``workloads.probe_setups``). The time runs from the start of this
script, so it covers importing numpy and the program, then what the
workload does before its first result. Prints the seconds taken, then
the seconds ``workloads.reference_s`` takes right after.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads  # noqa: E402

workloads.run_probe(sys.argv[1])
setup_s = time.perf_counter() - START
workloads.reference_s()  # warm-up
print(setup_s, workloads.reference_s())
