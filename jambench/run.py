"""jamlab benchmark: four closed-loop workloads, one caller each.

Usage, from the root of a checkout:

    python3 jambench/run.py --workload match_map --seed 1 --seconds 20 --trace 0

``--workload all`` (the default) runs the four workloads in turn.  Every
workload runs in a process of its own (``worker.py``), which imports jamlab
from the checkout's ``src``.  Set-up time is measured from spawning a fresh
interpreter to the moment it is ready for its first timed operation, in
three set-up-only processes per run, and the median is reported.  Workers
run numpy's BLAS on one thread.

Times are reported at the reference speed: each is scaled by a fixed
kernel's nominal time over its time measured around the operation, which
takes out the host's changes of speed (``reference.py``).  The measured
times are printed too, on lines that start with ``measured``.

Prints ``<workload>/<metric> <value> <unit>`` lines and, last, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones from a traced run.  Exits 0 only when every check held.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from reference import NEAR, Clock  # noqa: E402  (after the thread settings)

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("match_map", "deviate", "worst_noise", "cli_runs")
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0  # per workload, for every process it starts together


def spawn(workload: str, seed: int, seconds: float, trace: int,
          setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """Run one worker; returns (set-up seconds, its JSON result or None)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    ready = next(float(line.split()[1]) for line in lines if line.startswith("ready "))
    return ready - t0, None if setup_only else json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    if not trace:
        clock, measured, setups = Clock("setup"), [], []
        for _ in range(SETUP_SAMPLES):
            clock.warm()
            for _ in range(NEAR):
                clock.sample()
            start = time.perf_counter()
            measured.append(spawn(workload, seed, seconds, trace, True, deadline)[0])
            end = time.perf_counter()
            clock.warm()
            for _ in range(NEAR):
                clock.sample()
            setups.append(clock.scale(start, end, measured[-1]))
    result = spawn(workload, seed, seconds, trace, False, deadline)[1]
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["measured"]["setup_s"] = statistics.median(measured)
    for line in result["errors"]:
        print(f"{workload}: check failed: {line}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (BENCH_DIR.parent / "src" / "jamlab" / "__init__.py").is_file():
        print("error: no jamlab sources (src/jamlab) beside the benchmark",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace)
               for name in names}
    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {}}
    for name, result in results.items():
        print(f"{name}: {result['attempted']} operations attempted, "
              f"{result['failed']} failed, {result['passes']} passes")
        for failure in result["failures"]:
            print(f"{name}: failed operation: {failure}")
        for metric, value in sorted(result.get("measured", {}).items()):
            print(f"{name}/measured/{metric} {value:.6g}")
        for metric, entry in sorted(result["metrics"].items()):
            print(f"{name}/{metric} {entry['value']:.6g} {entry['unit']}")
            key = metric if len(names) == 1 else f"{name}/{metric}"
            summary["metrics"][key] = entry
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
