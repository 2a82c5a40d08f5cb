"""Benchmark of knotqc, run from the root of a source checkout.

    python3 knotbench/run.py --workload invariant --seed 1 --seconds 20 --trace 0

``--workload`` is invariant, table or anyon, or ``all`` to run the three
one after another, each in a fresh process. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".knotbench"
WORKLOAD_NAMES = ("invariant", "table", "anyon")
IMPORT_REPEATS = 5
_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def load_program() -> float:
    """Import knotqc from this checkout's sources IMPORT_REPEATS times,
    fresh each time; returns the median seconds of one import.

    numpy is imported first, off the clock: how long that takes follows
    the file cache, not knotqc.
    """
    if not (SRC / "knotqc" / "__init__.py").is_file():
        raise SystemExit(f"error: no knotqc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401

    times = []
    for _ in range(IMPORT_REPEATS):
        for name in [n for n in sys.modules if n == "knotqc" or n.startswith("knotqc.")]:
            del sys.modules[name]
        start = time.perf_counter()
        importlib.import_module("knotqc.cli")
        times.append(time.perf_counter() - start)
    location = Path(sys.modules["knotqc"].__file__).resolve().parent
    if location != SRC / "knotqc":
        raise SystemExit(f"error: imported knotqc from {location}, not {SRC / 'knotqc'}")
    return statistics.median(times)


def run_one(args, nproc: int) -> int:
    import_s = load_program()
    import numpy

    from knotbench import harness
    from knotbench.workloads import WORKLOADS

    result = harness.run(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), import_s, SPANS_DIR)
    print(f"env nproc={nproc} python={platform.python_version()} numpy={numpy.__version__} "
          f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")
    for note in result.notes:
        print(note)
    for name, (value, unit) in result.metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    failed = len(result.failures)
    print(f"metric failed_ratio = {failed / result.attempted:.6g} "
          f"({failed} of {result.attempted} requests failed)")
    for index, reason in sorted(result.failures.items())[:10]:
        print(f"failed request {index}: {reason}")
    print("fingerprint " + " ".join(f"{k}={v}" for k, v in result.fingerprint.items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print(f"== {name}")
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    nproc = cap_blas_threads()
    if args.workload == "all":
        return run_all(args)
    sys.path[0] = str(ROOT)
    return run_one(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
