"""One workload process: set up, then run whole passes until time is up.

Started by ``run.py``.  The process imports jamlab from the checkout's
``src``, builds the workload's inputs, runs its first operation once
untimed (the warm-up fills FFT plan caches and lazy imports) and prints
``ready <time.monotonic()>``; ``run.py`` measures set-up time from the
spawn to that line.  With ``--setup-only`` it stops there.  Otherwise it
runs passes, each the workload's full list of operations, while the next
pass is expected to end within ``--seconds``, and prints one JSON line.
Operation and pass times are reported at the reference speed
(``reference.py``); the measured ones are printed beside them.

With ``--trace 1`` passes alternate untraced and traced; the traced ones
give the per-layer metrics and the spans, and the difference of the two
mean pass times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from reference import Clock
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
RUNS_DIR = ROOT / ".jambench_runs"


def _load_jamlab():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import jamlab
    import jamlab.cli  # noqa: F401  (not imported by the package itself)
    if Path(jamlab.__file__).resolve().parent != (src / "jamlab").resolve():
        raise SystemExit(f"imported jamlab from {jamlab.__file__}, not {src}")
    return jamlab


def run_pass(workload, label, state, clock=None) -> list:
    """Run every operation once; returns ``(start, end, measured)`` for each.

    With a ``clock`` the time its sampler took is left out of ``measured``.
    """
    workload.begin_pass(label)
    times = []
    for index, op in enumerate(workload.ops):
        spent = clock.spent if clock is not None else 0.0
        t0 = time.perf_counter()
        try:
            result = workload.run(op)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if clock is not None:
            spent = clock.spent - spent
        times.append((t0, t1, t1 - t0 - spent))
        state["attempted"] += 1
        if error is None:
            error = workload.failure(op, result)
        if error is not None:
            state["failed"] += 1
            state["failures"].setdefault(index, f"{workload.describe(op)}: {error}")
            continue
        digest = workload.digest(op, result)
        first = state["digests"].setdefault(index, digest)
        if first is digest:
            state["errors"] += workload.check(op, result)
        elif first != digest:
            state["errors"].append(f"operation {index}: result differs from the first pass")
    workload.end_pass()
    return times


def measure(jl, workload, seconds: float, trace: bool) -> dict:
    """Run passes while the next one is expected to end within ``seconds``."""
    state = {"attempted": 0, "failed": 0, "failures": {}, "digests": {},
             "errors": []}
    passes, traced = [], []   # per pass, run_pass's times
    clock = Clock(workload.name)
    tracer = Tracer()
    with clock.running():
        start = time.perf_counter()
        while True:
            label = len(passes) + len(traced)
            t0 = time.perf_counter()
            if trace and len(passes) > len(traced):
                tracer.install(jl)
                try:
                    traced.append(run_pass(workload, label, state, clock))
                finally:
                    tracer.uninstall()
            else:
                passes.append(run_pass(workload, label, state, clock))
            last = time.perf_counter() - t0
            enough = len(traced) >= 1 if trace else True
            if enough and time.perf_counter() - start + last > seconds:
                break

    result = {"correct": not state["errors"], "attempted": state["attempted"],
              "failed": state["failed"], "passes": len(passes) + len(traced),
              "errors": state["errors"][:20],
              "failures": sorted(set(state["failures"].values()))}
    scaled = [[clock.scale(*t) for t in times] for times in passes]
    pass_s = [sum(ops) for ops in scaled]
    if trace:
        metrics = layer_metrics(tracer.spans, len(traced),
                                getattr(workload, "files_written", 0),
                                getattr(workload, "bytes_written", 0),
                                [sum(clock.scale(*t) for t in times)
                                 for times in traced], pass_s)
        path = RUNS_DIR / f"trace-{workload.name}-seed{workload.seed}.jsonl"
        tracer.write(path)
        result["trace_file"] = str(path.relative_to(ROOT))
    else:
        metrics = {
            "pass_s": (statistics.median(pass_s), "s"),
            "op_p50_ms": (1e3 * statistics.median(t for ops in scaled for t in ops),
                          "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        result["measured"] = {
            "pass_s": statistics.median(sum(t[2] for t in times) for times in passes),
            "op_p50_ms": 1e3 * statistics.median(t[2] for times in passes
                                                 for t in times),
            "kernel_ms": 1e3 * statistics.median(clock.durations),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    jl = _load_jamlab()
    work_dir = RUNS_DIR / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](jl, args.seed % 2**32, work_dir)
        workload.begin_pass("warmup")
        workload.run(workload.ops[0])
        workload.end_pass()
        print(f"ready {time.monotonic()!r}", flush=True)
        if not args.setup_only:
            print(json.dumps(measure(jl, workload, args.seconds, bool(args.trace))),
                  flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
