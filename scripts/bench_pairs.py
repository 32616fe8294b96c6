#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, for a before/after record.

Usage, from anywhere:

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload cli_runs \
        --seeds 81-90 --out BENCH_6.json

For each seed it runs ``python3 jambench/run.py --workload W --seed S
--trace 0`` once in each checkout, at the benchmark's own run length, one after the other, and
alternates which side runs first from one seed to the next, so a drift of
the host's speed falls on both sides alike.  Each run's JSON summary (the
last line ``run.py`` prints) is kept, with the unscaled times of its
``W/measured/M V`` lines (``pass_s``, ``op_p50_ms``, ``setup_s`` and the
reference clock's ``kernel_ms``) added as its ``measured`` metrics, each
with the unit its name ends in.  For every end-to-end metric the record
holds both sides' median and quartiles, the change's wins (pairs where it
is better, in the direction ``BENCHMARK.json`` gives) and the median's
relative change; ``measured`` holds the same summary of the measured times,
lower being better.  It also holds each checkout's commit (``git rev-parse
HEAD``, or null where the directory is not the root of a git checkout).
An existing ``--out`` file keeps its other workloads; this workload's entry
is replaced.  The file is written after every pair, with the summary over
the pairs so far, so a run that is stopped keeps its finished pairs.

After the pairs, each checkout runs once more with ``--trace 1``, at the
seed after the range, parent first.  The entry's ``traced`` holds that
command and each side's summary, whose ``metrics`` are then the per-layer
ones: the record of where the time went, in measured, unscaled times.

A pair in which either side's ``run.py`` exits non-zero (a failed check of
the workload's own, or a crash) is listed under ``failed_pairs`` with each
side's ``exit_code`` and left out of the summaries; the record goes on with
the next seed, and the script exits 1 at the end; so it does where a
traced run exits non-zero.  A ``--workload`` that
the change's ``BENCHMARK.json`` does not name is an argparse error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``"81-90"`` to the seeds 81 to 90; an empty or reversed range, or
    anything else, is an ``argparse.ArgumentTypeError``."""
    try:
        lo, hi = (int(v) for v in text.split("-"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected A-B with integers A <= B, got {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(
            f"seed range {text!r} is empty: {hi} < {lo}")
    return list(range(lo, hi + 1))


def git_head(checkout: Path) -> str | None:
    """``git rev-parse HEAD`` of a checkout, or None if the directory is not
    the root of a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=checkout, capture_output=True, text=True)
    except OSError:
        return None
    lines = proc.stdout.split()
    if (proc.returncode != 0 or len(lines) != 2
            or Path(lines[0]).resolve() != checkout.resolve()):
        return None
    return lines[1]


def measured_lines(lines: list[str], workload: str) -> dict:
    """``{name: {"value", "unit"}}`` from ``run.py``'s ``W/measured/name
    value`` lines; the unit is the name's last ``_`` suffix."""
    prefix = f"{workload}/measured/"
    out = {}
    for line in lines:
        if line.startswith(prefix):
            name, value = line[len(prefix):].split()
            out[name] = {"value": float(value), "unit": name.rsplit("_", 1)[-1]}
    return out


def run_once(checkout: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """The run's JSON summary with its ``measured`` lines and ``exit_code``;
    a run that printed no summary gives only the exit code."""
    cmd = [sys.executable, "jambench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        result["measured"] = measured_lines(lines, workload)
    except (IndexError, TypeError, ValueError):
        result = {}
    result["exit_code"] = proc.returncode
    return result


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str],
              section: str = "metrics") -> dict:
    """Both sides' spread of each metric in every run's ``section``."""
    names = sorted(set.intersection(*(set(p[side].get(section, {}))
                                      for p in pairs for side in SIDES))
                   if pairs else ())
    out = {}
    for name in names:
        got = {side: [p[side][section][name]["value"] for p in pairs]
               for side in SIDES}
        lower = better.get(name, "lower") == "lower"
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(got["parent"], got["change"]))
        parent, change = spread(got["parent"]), spread(got["change"])
        out[name] = {
            "unit": pairs[0]["parent"][section][name]["unit"],
            "better": "lower" if lower else "higher",
            "parent": parent, "change": change,
            "change_wins": wins, "pairs": len(pairs),
            "median_change": (change["median"] / parent["median"] - 1.0
                              if parent["median"] else None),
            # how far the median moved in the better direction, in parent IQRs
            "median_gain_over_parent_iqr": (
                (parent["median"] - change["median"]) * (1 if lower else -1)
                / (parent["q3"] - parent["q1"])
                if parent["q3"] > parent["q1"] else None),
        }
    return out


def write_record(out: Path, workload: str, commits: dict, pairs: list[dict],
                 better: dict[str, str], failed_pairs: list[dict],
                 traced: dict | None = None) -> dict:
    """Write ``workload``'s entry over ``pairs`` into the record ``out``,
    with ``failed_pairs`` listed apart and the ``traced`` runs, keeping its
    other workloads, and return the entry.  The file is replaced whole, so a
    run stopped while writing leaves the last record."""
    record = json.loads(out.read_text()) if out.exists() else {}
    record.setdefault("workloads", {})
    record["host"] = {"cpus": os.cpu_count(), "machine": platform.machine(),
                      "python": platform.python_version()}
    record["command"] = "python3 jambench/run.py --workload <w> --seed <s> --trace 0"
    entry = record["workloads"][workload] = {
        "seeds": [p["seed"] for p in pairs],
        "commits": commits,
        "metrics": summarize(pairs, better),
        "measured": summarize(pairs, {}, "measured"),
        "failed": {side: [p[side]["failed"] for p in pairs] for side in SIDES},
        "attempted": {side: [p[side]["attempted"] for p in pairs]
                      for side in SIDES},
        "pairs": pairs,
        "failed_pairs": failed_pairs,
        "traced": traced,
    }
    tmp = out.with_name(out.name + ".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, out)
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout before the change")
    parser.add_argument("change", type=Path, help="checkout with the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="A-B, with A <= B")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
    named = [w["name"] for w in bench.get("workloads", [])]
    if args.workload not in named:
        parser.error(f"argument --workload: {args.workload!r} is not a workload "
                     f"of {dirs['change'] / 'BENCHMARK.json'} ({', '.join(named)})")
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    commits = {side: git_head(dirs[side]) for side in SIDES}
    pairs, failed_pairs = [], []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(dirs[side], args.workload, seed)
            print(f"{args.workload} seed {seed} {side}: exit "
                  f"{pair[side]['exit_code']}; " + ", ".join(
                      f"{k} {v['value']:.4g}" for k, v in
                      sorted(pair[side].get("metrics", {}).items())), flush=True)
        ok = all(pair[side]["exit_code"] == 0 for side in SIDES)
        (pairs if ok else failed_pairs).append(pair)
        entry = write_record(args.out, args.workload, commits, pairs,
                             better, failed_pairs)
    seed = args.seeds[-1] + 1
    traced = {"command": f"python3 jambench/run.py --workload {args.workload} "
                         f"--seed {seed} --trace 1",
              "runs": {side: run_once(dirs[side], args.workload, seed, 1)
                       for side in SIDES}}
    entry = write_record(args.out, args.workload, commits, pairs, better,
                         failed_pairs, traced)
    for section in ("metrics", "measured"):
        for name, m in entry[section].items():
            label = name if section == "metrics" else f"measured/{name}"
            print(f"{args.workload}/{label}: {m['parent']['median']:.4g} -> "
                  f"{m['change']['median']:.4g} {m['unit']}, "
                  f"{m['change_wins']}/{m['pairs']} wins")
    failed_traces = [side for side in SIDES
                     if traced["runs"][side]["exit_code"] != 0]
    if failed_traces:
        print(f"{args.workload}: the traced run exited non-zero on the "
              + " and ".join(failed_traces) + " side", file=sys.stderr)
    if failed_pairs:
        print(f"{args.workload}: left out {len(failed_pairs)} pair(s) with a "
              f"non-zero exit, seeds " + ", ".join(
                  str(p["seed"]) for p in failed_pairs), file=sys.stderr)
    return 1 if failed_pairs or failed_traces else 0


if __name__ == "__main__":
    sys.exit(main())
