"""Span tracer for the benchmark's traced run.

The tracer wraps jamlab's public functions at the points where one module
calls another, by rebinding the name in every jamlab module that imported
it (``jamlab.matching.cf_power``, ``jamlab.cli.synthesize_jammer``, ...) and
on the classes whose methods cross a layer (``DistributionModel.sample``).
Nothing inside the package is edited.  Each call records one span
``[name, start, end, parent, info]`` in memory; the spans are written out
once, when the run ends.  A span's self time is its duration minus the part
of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

# (defining module, function name, span name); the function is rebound in
# every jamlab module whose global of that name is the same object
FUNCTIONS = [
    ("charfun", "cf_of", "charfun.cf_of"),
    ("charfun", "cf_power", "charfun.cf_power"),
    ("charfun", "cf_divide", "charfun.cf_divide"),
    ("charfun", "check_validity", "charfun.check_validity"),
    ("charfun", "density_from_cf", "charfun.density_from_cf"),
    ("matching", "synthesize_jammer", "matching.synthesize_jammer"),
    ("matching", "asymptotic_gaussianization",
     "matching.asymptotic_gaussianization"),
    ("matching", "gaussian_source_limit_check",
     "matching.gaussian_source_limit_check"),
    ("distributions", "tabulated", "distributions.tabulated"),
    ("estimation", "convolve_tables", "estimation.convolve_tables"),
    ("estimation", "mmse_estimator", "estimation.mmse_estimator"),
    ("estimation", "output_density", "estimation.output_density"),
    ("gamesim", "simulate", "gamesim.simulate"),
    ("gamesim", "mmse_decoder_for_encoder", "gamesim.mmse_decoder_for_encoder"),
    ("gamesim", "_per_sign_mmse_tables", "gamesim.per_sign_mmse_tables"),
    ("gamesim", "verify_rhs_inequality", "gamesim.verify_rhs_inequality"),
    ("gamesim", "verify_lhs_inequality", "gamesim.verify_lhs_inequality"),
    ("gamesim", "bernoulli_exploit_check", "gamesim.bernoulli_exploit_check"),
    ("polyexpand", "worst_noise_search", "polyexpand.worst_noise_search"),
    ("polyexpand", "build_basis", "polyexpand.build_basis"),
    ("polyexpand", "expansion_coeffs", "polyexpand.expansion_coeffs"),
    ("cli", "run", "cli.run"),
]

# (module, class, method, span name)
METHODS = [
    ("distributions", "DistributionModel", "sample", "distributions.sample"),
    ("distributions", "DistributionModel", "pdf_on", "distributions.pdf_on"),
    ("distributions", "DistributionModel", "cf_at", "distributions.cf_at"),
    ("gamesim", "CurveDecoder", "apply", "gamesim.lookup"),
    ("gamesim", "DeterministicEncoder", "apply", "gamesim.lookup"),
]

MODULES = ("charfun", "cli", "distributions", "estimation", "gamesim",
           "matching", "polyexpand")

# spans whose self time is a per-layer metric
SELF_TIMED = ("charfun.cf_of", "charfun.cf_power", "charfun.cf_divide",
              "charfun.check_validity", "charfun.density_from_cf",
              "matching.synthesize_jammer", "distributions.sample",
              "distributions.pdf_on", "distributions.cf_at", "gamesim.simulate",
              "gamesim.lookup", "gamesim.mmse_decoder_for_encoder",
              "estimation.convolve_tables", "estimation.mmse_estimator",
              "polyexpand.build_basis", "polyexpand.expansion_coeffs", "cli.run")


def _truncated(args, kwargs, out):
    return {"truncated": bool(out.truncated)}


def _matched(args, kwargs, out):
    return {"matched": bool(out.matched)}


def _simulate(args, kwargs, out):
    decoder = (args[1] if len(args) > 1 else kwargs["profile"]).decoder
    kind = {"LinearDecoder": "linear", "CurveDecoder": "curve",
            "MmseGivenProfile": "mmse"}.get(type(decoder).__name__, "other")
    return {"kind": kind, "trials": int(out.trials)}


def _sample(args, kwargs, out):
    return {"kind": args[0].kind}


def _search(args, kwargs, out):
    family = args[3] if len(args) > 3 else kwargs.get("family")
    kind = "table" if type(family).__name__ == "GridTableFamily" else "mixture"
    return {"family": kind, "iterations": int(out.iterations)}


INFO = {
    "charfun.cf_power": _truncated,
    "charfun.cf_divide": _truncated,
    "matching.synthesize_jammer": _matched,
    "gamesim.simulate": _simulate,
    "distributions.sample": _sample,
    "polyexpand.worst_noise_search": _search,
}


class Tracer:
    """Records spans of wrapped calls while installed."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._patches = []

    def wrap(self, name, fn):
        info = INFO.get(name)
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                open_.pop()
            if info is not None:
                record[4] = info(args, kwargs, out)
            return out
        return traced

    def install(self, package) -> None:
        """Rebind every traced name in the package and its modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m: getattr(package, m) for m in MODULES}
        namespaces = [package, *modules.values()]
        for home, attr, name in FUNCTIONS:
            original = getattr(modules[home], attr)
            wrapper = self.wrap(name, original)
            for module in namespaces:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, wrapper)
        for home, cls_name, attr, name in METHODS:
            cls = getattr(modules[home], cls_name)
            self._patch(cls, attr, self.wrap(name, cls.__dict__[attr]))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, info."""
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span."""
    children = defaultdict(list)
    for record in spans:
        if record[3] >= 0:
            children[record[3]].append((record[1], record[2]))
    out = []
    for i, record in enumerate(spans):
        start, end = record[1], record[2]
        covered, reach = 0.0, start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, passes: int, files_written: int,
                  bytes_written: int, traced_walls, untraced_walls) -> dict:
    """Per-layer metrics, each per traced pass of the workload.

    ``spans`` holds the spans of ``passes`` traced passes.  Self times and
    counts are totals divided by ``passes``; rates are total work over total
    inclusive time.  A layer that the workload does not reach reads 0.
    """
    selfs = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    sample_tab = 0.0
    truncated = verdicts = matched = trials = 0
    sim_trials, sim_time = defaultdict(int), defaultdict(float)
    search_s, search_iters = defaultdict(float), defaultdict(int)
    for record, own in zip(spans, selfs):
        name, start, end, _, info = record
        self_s[name] += own
        calls[name] += 1
        if info is None:  # no info recorded, or the call raised
            continue
        if name == "distributions.sample" and info["kind"] == "tabulated":
            sample_tab += own
        elif name in ("charfun.cf_power", "charfun.cf_divide"):
            truncated += info["truncated"]
        elif name == "matching.synthesize_jammer":
            verdicts += 1
            matched += info["matched"]
        elif name == "gamesim.simulate":
            trials += info["trials"]
            sim_trials[info["kind"]] += info["trials"]
            sim_time[info["kind"]] += end - start
        elif name == "polyexpand.worst_noise_search":
            search_s[info["family"]] += end - start
            search_iters[info["family"]] += info["iterations"]

    def per_pass(x):
        x /= passes
        return int(x) if x.is_integer() else x

    def rate(kind):
        return sim_trials[kind] / sim_time[kind] if sim_time[kind] else 0.0

    evals = search_iters["mixture"]
    metrics = {f"{name}.self_s": (per_pass(self_s[name]), "s") for name in SELF_TIMED}
    metrics.update({
        "charfun.calls": (per_pass(sum(n for k, n in calls.items()
                                       if k.startswith("charfun."))), "count"),
        "charfun.truncated": (per_pass(truncated), "count"),
        "matching.verdicts": (per_pass(verdicts), "count"),
        "matching.matched": (per_pass(matched), "count"),
        "distributions.sample.tabulated.self_s": (per_pass(sample_tab), "s"),
        "gamesim.trials": (per_pass(trials), "count"),
        "estimation.convolve_tables.calls": (
            per_pass(calls["estimation.convolve_tables"]), "count"),
        "polyexpand.table_search_s": (per_pass(search_s["table"]), "s"),
        "polyexpand.newton_steps": (per_pass(search_iters["table"]), "count"),
        "polyexpand.mixture_search_s": (per_pass(search_s["mixture"]), "s"),
        "polyexpand.mixture_evals": (per_pass(evals), "count"),
        "polyexpand.mixture_eval_ms": (
            1e3 * search_s["mixture"] / evals if evals else 0.0, "ms"),
    })
    for kind in ("linear", "curve", "mmse"):
        metrics[f"gamesim.simulate.{kind}.trials_per_s"] = (rate(kind), "1/s")
    metrics["cli.bytes_written"] = (bytes_written, "bytes")
    metrics["cli.files_written"] = (files_written, "count")
    metrics["trace.overhead_s"] = (statistics.fmean(traced_walls)
                                   - statistics.fmean(untraced_walls), "s")
    return metrics
