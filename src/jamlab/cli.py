"""Experiment runner: declarative specs in, manifests and CSV tables out.

A spec file is flat JSON naming a task and its game.  No silent defaults for
powers or variances: a misconfigured game should fail loudly, not run with
invented numbers.  Every stochastic task requires an explicit seed and reruns
are byte-identical.  Numeric CSV columns carry 17 significant digits so
reproducibility checks can compare files bitwise.

Exit codes: 0 success (a no-match verdict is a finding, not an error),
1 configuration or other typed library error (``JamlabError``, printed as one
``error: ...`` line), 2 deviation-assertion failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .distributions import (DistributionModel, default_grid, gaussian,
                            gaussian_mixture, laplace, rademacher_scaled,
                            tabulated, uniform)
from .errors import ConfigError, IllConditioned, JamlabError, check_tails
from .gamesim import (MIN_TRIALS, CorrelatedJammer, bernoulli_exploit_check,
                      default_lhs_jammers, saddle_profile, simulate,
                      verify_lhs_inequality, verify_rhs_inequality)
from .grids import GridSpec
from .matching import (JammingGameConfig, asymptotic_gaussianization,
                       gaussian_source_limit_check, synthesize_jammer)
from .polyexpand import GaussianMixtureFamily, _mmse_report, worst_noise_search

SWEEP_PARAMS = ("beta", "power_jam", "power_tx", "order")


def _require(mapping: dict, key: str, context: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a JSON object, not {type(mapping).__name__}")
    if key not in mapping:
        raise ConfigError(f"missing required field '{key}' in {context}")
    return mapping[key]


def _num(value, field: str, kind=float):
    """``kind(value)``, or a ConfigError naming the field.  JSON ``true`` and
    ``false`` are not numbers."""
    if not isinstance(value, bool):
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"field '{field}' is not a valid {kind.__name__}: {value!r}")


def _numbers(value, field: str) -> list:
    """A non-empty JSON list of numbers, or a ConfigError naming the field."""
    if not (isinstance(value, list) and value and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise ConfigError(f"field '{field}' must be a non-empty list of numbers")
    return value


def _whole(value, field: str, least: int | None = None) -> int:
    """``value`` as a whole number, from ``least`` where given, or a
    ConfigError naming the field: a fraction is refused, not truncated."""
    whole = _num(value, field, int)
    if (isinstance(value, float) and value != whole) or (
            least is not None and whole < least):
        bound = "" if least is None else f" from {least}"
        raise ConfigError(f"field '{field}' must be a whole number{bound}, "
                          f"got {value!r}")
    return whole


def _grid_field(spec: dict) -> dict:
    g = spec.get("grid") or {}
    if not isinstance(g, dict):
        raise ConfigError(f"field 'grid' must be a JSON object, not {type(g).__name__}")
    return g


def build_model(spec: dict, base_dir: Path) -> DistributionModel:
    family = str(_require(spec, "family", "distribution")).lower()
    closed = {"gaussian": gaussian, "laplace": laplace, "uniform": uniform}
    if family in closed:
        return closed[family](_num(_require(
            spec, "variance", f"{family} distribution"), "variance"))
    if family == "rademacher":
        if "sigma" in spec:
            return rademacher_scaled(_num(spec["sigma"], "sigma"))
        return rademacher_scaled(math.sqrt(_num(_require(
            spec, "variance", "rademacher distribution"), "variance")))
    if family == "gaussian_mixture":
        return gaussian_mixture(_require(spec, "weights", "mixture"),
                                _require(spec, "means", "mixture"),
                                _require(spec, "sigmas", "mixture"))
    if family == "tabulated":
        path = base_dir / _require(spec, "path", "tabulated distribution")
        try:
            with warnings.catch_warnings():  # a header-only file fails the shape check
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except OSError as exc:
            raise ConfigError(f"tabulated density file {path}: "
                              f"{exc.strerror or 'not found'}") from None
        if data.shape[0] < 2 or data.shape[1] < 2:
            raise ConfigError(f"{path}: expected two columns, x and density, "
                              "and at least two rows")
        x, f = data[:, 0], data[:, 1]
        n = len(x)
        dx = x[1] - x[0]
        if not np.allclose(np.diff(x), dx, rtol=1e-9):
            raise ConfigError(f"{path}: grid spacing is not uniform")
        grid = GridSpec(half_width=n * dx / 2.0, num_points=n)
        if not np.allclose(grid.x, x, atol=1e-9 * dx):
            raise ConfigError(f"{path}: samples are not on a centered grid")
        return tabulated(grid, f)
    raise ConfigError(f"unknown distribution family '{family}'")


def build_game(game: dict, base_dir: Path) -> JammingGameConfig:
    try:
        return JammingGameConfig(
            source=build_model(_require(game, "source", "game"), base_dir),
            channel_noise=build_model(_require(game, "channel_noise", "game"),
                                      base_dir),
            power_tx=_num(_require(game, "power_tx", "game"), "power_tx"),
            power_jam=_num(_require(game, "power_jam", "game"), "power_jam"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_spec(path: str | Path, seed: int | None = None) -> dict:
    """Read and check a spec file; ``seed``, where given, replaces the spec's
    seed before the check that a stochastic task has one."""
    path = Path(path)
    try:
        spec = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"spec file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"spec file {path} is not valid JSON: {exc}")
    task = _require(spec, "task", "spec")
    if not isinstance(task, str) or task not in _TASKS:
        raise ConfigError(f"unknown task '{task}'; expected one of {tuple(_TASKS)}")
    name = _require(spec, "name", "spec")
    if (not isinstance(name, str) or name in ("", ".", "..") or "\0" in name
            or Path(name).name != name):
        raise ConfigError(f"field 'name' must be a non-empty file name without a "
                          f"path separator or NUL, got {name!r}")
    _require(spec, "game", "spec")
    if seed is not None:
        spec["seed"] = seed
    if _TASKS[task].seeded and "seed" not in spec:
        raise ConfigError(f"task '{task}' is stochastic: a seed is mandatory")
    spec["__dir__"] = str(path.parent)
    return spec


def _grid_from(spec: dict, default) -> GridSpec:
    """The spec's grid where it sets a half-width; otherwise ``default(n)``,
    the task's own default grid at the requested number of points n."""
    g = _grid_field(spec)
    points = _whole(g.get("num_points", 4096), "grid.num_points")
    try:
        if "half_width" in g:
            return GridSpec(_num(g["half_width"], "grid.half_width"), points)
        return default(points)
    except ValueError as exc:  # GridSpec's message names the field at fault
        raise ConfigError(f"field 'grid': {exc}") from None


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write a table given column by column.  A column is all ``str``, written
    as is, or all numbers, written as ``%.17g`` of the float value: the same
    bytes as a per-value ``f"{float(v):.17g}"``.  One row template per file."""
    text = [len(c) > 0 and isinstance(c[0], str) for c in columns]
    cols = [c if t else np.asarray(c, dtype=float).tolist()
            for c, t in zip(columns, text)]
    row = ",".join("%s" if t else "%.17g" for t in text) + "\n"
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        f.writelines(map(row.__mod__, zip(*cols)))


def _manifest(spec: dict, cfg: JammingGameConfig, outputs: dict,
              grid: GridSpec, strict_paper: bool) -> dict:
    return {
        "name": spec["name"],
        "task": spec["task"],
        "inputs": {
            "game": spec["game"],
            "trials": spec.get("trials"),
            "seed": spec.get("seed"),
            "order": spec.get("order"),
            "betas": spec.get("betas"),
            "strict_paper": strict_paper,
        },
        "derived": _derived(cfg),
        "outputs": outputs,
        "environment": {
            "grid": {"half_width": grid.half_width, "num_points": grid.num_points},
            "seed": spec.get("seed"),
            "version": __version__,
        },
    }


def _derived(cfg: JammingGameConfig) -> dict:
    return {"beta": cfg.beta, "alpha_t": cfg.alpha_t,
            "linear_bound": cfg.linear_bound, "saddle_cost": cfg.saddle_cost}


# -- tasks --------------------------------------------------------------------
# Each returns (exit code, outputs, the grid it ran on, its CSV tables as
# {kind: (header, columns)}, its sweep row as {column: value}); ``run`` writes
# the files.


def _task_match(spec, cfg, strict_paper):
    result = synthesize_jammer(cfg, _grid_from(spec, cfg.grid_for))
    g = result.jammer_cf.grid
    outputs = {
        "verdict": result.verdict,
        "reason": result.reason,
        "jammer_variance": None if math.isnan(result.jammer_variance)
        else result.jammer_variance,
        "truncated": result.jammer_cf.truncated,
    }
    tables = {"jammer_cf": (["omega", "re", "im"],
                            [g.omega, result.jammer_cf.values.real,
                             result.jammer_cf.values.imag])}
    if result.matched:
        tables["jammer_density"] = (["x", "density"],
                                    [g.x, result.jammer_density.table])
    return 0, outputs, g, tables, {"verdict": result.verdict,
                                   "jammer_variance": result.jammer_variance,
                                   "saddle_cost": cfg.saddle_cost}


def _task_saddle(spec, cfg, strict_paper):
    trials = _whole(spec.get("trials", 1_000_000), "trials", MIN_TRIALS)
    grid = _grid_from(spec, cfg.grid_for)
    match = synthesize_jammer(cfg, grid)
    jammer = match.jammer_density if match.matched else gaussian(cfg.power_jam)
    profile = saddle_profile(cfg, jammer, strict_paper=strict_paper)
    outcome = simulate(cfg, profile, trials, _whole(spec["seed"], "seed", 0))
    outputs = {
        "jammer": "matched" if match.matched else "gaussian-fallback",
        "empirical_cost": outcome.empirical_cost,
        "std_error": outcome.std_error,
        "trials": outcome.trials,
        "theoretical_cost": outcome.theoretical_cost,
        "z_score": outcome.z_score,
    }
    return 0, outputs, grid, {}, {k: outputs[k] for k in (
        "empirical_cost", "std_error", "theoretical_cost", "z_score")}


def _task_deviate(spec, cfg, strict_paper):
    trials = _whole(spec.get("trials", 1_000_000), "trials", MIN_TRIALS)
    seed = _whole(spec["seed"], "seed", 0)
    rho = _num(spec.get("rho", 0.7), "rho")
    if not -1.0 <= rho <= 1.0:
        raise ConfigError(f"field 'rho' must lie in [-1, 1], got {rho}")
    p_values = _numbers(spec.get("p_values", [0.5, 1.0]), "p_values")
    if not all(0.0 <= p <= 1.0 for p in p_values):
        raise ConfigError(f"field 'p_values' must lie in [0, 1], got {p_values}")
    grid = _grid_from(spec, cfg.grid_for)
    match = synthesize_jammer(cfg, grid)
    if not match.matched:
        raise ConfigError(f"task 'deviate' needs a matching jammer: {match.reason}")
    rhs = verify_rhs_inequality(cfg, trials, seed, jammer_model=match.jammer_density)
    lhs = verify_lhs_inequality(cfg, trials, seed, jammers=default_lhs_jammers(cfg, rho))
    exploit = bernoulli_exploit_check(
        cfg, p_values, CorrelatedJammer(rho, gaussian(cfg.power_jam)),
        trials, seed)
    entries = [{"side": rep.side, "label": e.label,
                "cost": e.outcome.empirical_cost,
                "std_error": e.outcome.std_error,
                "bound": e.bound, "passed": e.passed}
               for rep in (rhs, lhs) for e in rep.entries]
    ex_entries = [{"p": e.p, "cost": e.outcome.empirical_cost,
                   "std_error": e.outcome.std_error,
                   "expected_cost": e.expected_cost} for e in exploit.entries]
    header = ["side", "label", "cost", "std_error", "bound", "passed"]
    table = [[str(e[k]) if k == "passed" else e[k] for e in entries] for k in header]
    ok = rhs.all_passed and lhs.all_passed
    outputs = {"entries": entries, "exploit": ex_entries, "all_passed": ok}
    return (0 if ok else 2), outputs, grid, {"deviations": (header, table)}, {
        "all_passed": float(ok)}


def _task_mmse(spec, cfg, strict_paper):
    order = _whole(spec.get("order", 6), "order")
    grid = _grid_from(spec, lambda n: default_grid(
        cfg.source, cfg.channel_noise, num_points=n))
    try:
        curve, coeffs = _mmse_report(cfg.source, cfg.channel_noise, order, grid)
    except (ValueError, IllConditioned) as exc:
        raise ConfigError(f"field 'order' = {order}: {exc}") from None
    outputs = {
        "mmse": curve.mmse,
        "linearity_residual": curve.linearity_residual,
        "mmse_poly": coeffs.mmse_poly,
        "gap": abs(coeffs.mmse_poly - curve.mmse),
        "coefficients": list(coeffs.c),
    }
    return 0, outputs, grid, {
        "estimator": (["u", "h"], [grid.x, curve.values]),
        "coefficients": (["m", "c"], [np.arange(len(coeffs.c)), coeffs.c]),
    }, {k: outputs[k] for k in ("mmse", "mmse_poly", "gap")}


def _task_worst_noise(spec, cfg, strict_paper):
    order = _whole(spec.get("order", 6), "order")
    k = _whole(spec.get("mixture_components", 3), "mixture_components")
    try:
        family = GaussianMixtureFamily(k)
    except ValueError as exc:
        raise ConfigError(f"field 'mixture_components': {exc}") from None
    _grid_from(spec, lambda n: GridSpec(1.0, n))  # a bad grid fails before searching
    res = worst_noise_search(cfg.source, cfg.power_jam, order, family,
                             seed=_whole(spec["seed"], "seed", 0))
    outputs = {
        "objective": res.objective,
        "mmse_attained": res.mmse_attained,
        "linear_bound": res.linear_bound,
        "iterations": res.iterations,
        "converged": res.converged,
        "noise_components": [list(c) for c in res.noise.components],
    }
    grid = _grid_from(spec, lambda n: default_grid(res.noise, num_points=n))
    check_tails(grid, res.noise)  # the written table must hold the noise
    return 0, outputs, grid, {"worst_noise_density": (
        ["x", "density"], [grid.x, res.noise.pdf_on(grid)])}, {
        k: outputs[k] for k in ("objective", "mmse_attained")}


def _task_asymptotic(spec, cfg, strict_paper):
    betas = _numbers(spec.get("betas"), "betas")
    direction = spec.get("direction", "low_csnr")
    if direction not in ("low_csnr", "high_csnr"):
        raise ConfigError(f"unknown direction '{direction}'")
    grid = _grid_from(spec, lambda n: default_grid(gaussian(1.0), num_points=n))
    try:  # the schedule check is the only ValueError either function raises
        if direction == "low_csnr":
            rows = [{"beta": b, "distance": d} for b, d in
                    asymptotic_gaussianization(cfg.source, betas, grid)]
        else:
            rows = [dict(beta=b, **r) for b, r in gaussian_source_limit_check(
                cfg.channel_noise, betas, grid, power_jam=cfg.power_jam)]
    except ValueError as exc:
        raise ConfigError(f"field 'betas' for {direction}: {exc}") from None
    keys = [k for k in sorted(rows[0]) if k != "beta"]
    header = ["beta"] + (["gaussian_distance"] if direction == "low_csnr"
                         else [f"distance_{k}" for k in keys])
    columns = [[r[k] for r in rows] for k in ["beta"] + keys]
    return 0, {"direction": direction, "distances": rows}, grid, {
        "asymptotic": (header, columns)}, {k: rows[0][k] for k in keys}


class _Task(NamedTuple):
    runner: Callable  # (spec, cfg, strict_paper) -> the task's run record
    seeded: bool  # the spec must hold a seed
    sweeps: tuple  # the sweep parameters the task reads


_POWERS = ("beta", "power_jam", "power_tx")
_TASKS = {
    "match": _Task(_task_match, False, _POWERS),
    "saddle": _Task(_task_saddle, True, _POWERS),
    "deviate": _Task(_task_deviate, True, _POWERS),
    "mmse": _Task(_task_mmse, False, ("order",)),
    "worst_noise": _Task(_task_worst_noise, True, ("beta", "power_jam")),
    "asymptotic": _Task(_task_asymptotic, False, ("beta",)),
}


def run(spec: dict, out_dir: Path, strict_paper: bool = False) -> tuple[int, dict]:
    """Execute a validated spec: write ``<name>_<kind>.csv`` for each of the
    task's tables, then the manifest.  Returns the exit code and the task's
    sweep row.  The output directory is made before the task runs, and the
    directories made here are removed again if the task fails while they
    are still empty."""
    cfg = build_game(spec["game"], Path(spec.get("__dir__", ".")))
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigError(f"--out {str(out_dir)!r} is not a directory that can "
                          f"be written: {getattr(exc, 'strerror', None) or exc}")
    try:
        code, outputs, grid, tables, row = _TASKS[spec["task"]].runner(
            spec, cfg, strict_paper)
    except BaseException:
        for d in made:  # deepest first; one that holds anything stays
            try:
                d.rmdir()
            except OSError:
                break
        raise
    for kind, (header, columns) in tables.items():
        _write_csv(out_dir / f"{spec['name']}_{kind}.csv", header, columns)
    manifest = _manifest(spec, cfg, outputs, grid, strict_paper)
    (out_dir / f"{spec['name']}_result.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return code, row


def sweep(spec: dict, parameter: str, values: list[float], out_dir: Path,
          strict_paper: bool = False) -> int:
    """Repeat the task once per parameter value; one CSV row each."""
    if parameter not in SWEEP_PARAMS:
        raise ConfigError(f"sweep parameter must be one of {SWEEP_PARAMS}")
    task = spec["task"]
    reads = _TASKS[task].sweeps
    if task == "asymptotic" and spec.get("direction") == "high_csnr":
        reads += ("power_jam",)  # the Gaussian-source limit runs at P_A
    if parameter not in reads:
        raise ConfigError(f"task '{task}' does not read sweep parameter "
                          f"'{parameter}'; it reads {', '.join(reads)}")
    if parameter == "order":  # the task checks the range
        if not all(float(v).is_integer() for v in values):
            raise ConfigError("sweep values of 'order' must be whole numbers")
    elif any(not np.isfinite(v) or v <= 0 for v in values):
        raise ConfigError("sweep values must be finite and positive")
    rows, worst = [], 0
    for v in values:
        sub = json.loads(json.dumps({k: w for k, w in spec.items()
                                     if not k.startswith("__")}))
        sub["__dir__"] = spec.get("__dir__", ".")
        game = sub["game"]
        if parameter == "order":
            sub["order"] = int(v)
        elif parameter == "beta":
            if sub["task"] == "asymptotic":
                # the schedule parameter itself; no power bookkeeping involved
                sub["betas"] = [v]
            else:
                cfg0 = build_game(game, Path(sub["__dir__"]))
                pa = v * cfg0.power_tx - cfg0.channel_noise.variance
                if pa <= 0:
                    raise ConfigError(
                        f"beta={v:g} implies non-positive jam power {pa:g}")
                game["power_jam"] = pa
        else:
            game[parameter] = v
        sub["name"] = f"{spec['name']}_{parameter}_{v:g}"
        code, row = run(sub, out_dir, strict_paper)
        worst = max(worst, code)
        rows.append([v, *row.values()])
    _write_csv(out_dir / f"{spec['name']}_sweep_{parameter}.csv",
               [parameter, *row], list(zip(*rows)))
    return worst


# -- entry point ------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jamlab",
        description="Jamming-game experiments: matching synthesis, saddle "
                    "simulation, deviation tests, MMSE expansions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment spec")
    p_run.add_argument("spec", help="path to the spec JSON file")
    p_sweep = sub.add_parser("sweep", help="repeat a spec over parameter values")
    p_sweep.add_argument("spec", help="path to the spec JSON file")
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated parameter values")
    for p in (p_run, p_sweep):
        p.add_argument("--out", default="results", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the spec's seed")
        p.add_argument("--grid-points", type=int, default=None)
        p.add_argument("--grid-halfwidth", type=float, default=None)
        p.add_argument("--strict-paper", action="store_true",
                       help="use the literal decoder gain without the "
                            "transmit-gain factor")

    args = parser.parse_args(argv)
    try:
        spec = load_spec(args.spec, args.seed)
        for key, flag in (("num_points", args.grid_points),
                          ("half_width", args.grid_halfwidth)):
            if flag is not None:
                spec["grid"] = {**_grid_field(spec), key: flag}
        if args.command == "run":
            return run(spec, Path(args.out), strict_paper=args.strict_paper)[0]
        values = [_num(v, "--values") for v in args.values.split(",")
                  if v.strip()]
        if not values:
            raise ConfigError("--values is empty")
        return sweep(spec, args.param, values, Path(args.out),
                     strict_paper=args.strict_paper)
    except JamlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
