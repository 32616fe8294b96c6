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

import numpy as np

from . import __version__
from .distributions import (DistributionModel, default_grid, gaussian,
                            gaussian_mixture, laplace, rademacher_scaled,
                            tabulated, uniform)
from .errors import ConfigError, IllConditioned, JamlabError
from .estimation import mmse_estimator, output_density
from .gamesim import (MIN_TRIALS, CorrelatedJammer, bernoulli_exploit_check,
                      default_lhs_jammers, saddle_profile, simulate,
                      verify_lhs_inequality, verify_rhs_inequality)
from .grids import GridSpec
from .matching import (JammingGameConfig, asymptotic_gaussianization,
                       gaussian_source_limit_check, synthesize_jammer)
from .polyexpand import (GaussianMixtureFamily, build_basis, expansion_coeffs,
                         worst_noise_search)

TASKS = ("match", "saddle", "deviate", "mmse", "worst_noise", "asymptotic")
STOCHASTIC_TASKS = ("saddle", "deviate", "worst_noise")
SWEEP_PARAMS = ("beta", "power_jam", "power_tx", "order")


def _require(mapping: dict, key: str, context: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a JSON object, not {type(mapping).__name__}")
    if key not in mapping:
        raise ConfigError(f"missing required field '{key}' in {context}")
    return mapping[key]


def _num(value, field: str, kind=float):
    """``kind(value)``, or a ConfigError naming the field."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"field '{field}' is not a valid {kind.__name__}: "
                          f"{value!r}") from None


def _numbers(value, field: str) -> list:
    """A non-empty JSON list of numbers, or a ConfigError naming the field."""
    if not (isinstance(value, list) and value
            and all(isinstance(v, (int, float)) for v in value)):
        raise ConfigError(f"field '{field}' must be a non-empty list of numbers")
    return value


def _grid_field(spec: dict) -> dict:
    g = spec.get("grid") or {}
    if not isinstance(g, dict):
        raise ConfigError(f"field 'grid' must be a JSON object, not {type(g).__name__}")
    return g


def _trials(spec: dict) -> int:
    trials = _num(spec.get("trials", 1_000_000), "trials", int)
    if trials < MIN_TRIALS:
        raise ConfigError(f"field 'trials' must be at least {MIN_TRIALS}, got {trials}")
    return trials


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


def load_spec(path: str | Path) -> dict:
    path = Path(path)
    try:
        spec = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"spec file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"spec file {path} is not valid JSON: {exc}")
    task = _require(spec, "task", "spec")
    if task not in TASKS:
        raise ConfigError(f"unknown task '{task}'; expected one of {TASKS}")
    _require(spec, "name", "spec")
    _require(spec, "game", "spec")
    if task in STOCHASTIC_TASKS and "seed" not in spec:
        raise ConfigError(f"task '{task}' is stochastic: a seed is mandatory")
    spec["__dir__"] = str(path.parent)
    return spec


def _grid_from(spec: dict, cfg: JammingGameConfig) -> GridSpec | None:
    g = _grid_field(spec)
    points = _num(g.get("num_points", 4096), "grid.num_points", int)
    try:
        if "half_width" in g:
            return GridSpec(_num(g["half_width"], "grid.half_width"), points)
        return None if points == 4096 else cfg.grid_for(num_points=points)
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
              grid: GridSpec | None) -> dict:
    return {
        "name": spec["name"],
        "task": spec["task"],
        "inputs": {
            "game": spec["game"],
            "trials": spec.get("trials"),
            "seed": spec.get("seed"),
            "order": spec.get("order"),
            "betas": spec.get("betas"),
        },
        "derived": _derived(cfg),
        "outputs": outputs,
        "environment": {
            "grid": None if grid is None else
            {"half_width": grid.half_width, "num_points": grid.num_points},
            "seed": spec.get("seed"),
            "version": __version__,
        },
    }


def _derived(cfg: JammingGameConfig) -> dict:
    return {"beta": cfg.beta, "alpha_t": cfg.alpha_t,
            "linear_bound": cfg.linear_bound, "saddle_cost": cfg.saddle_cost}


def derive_quantities(game: dict, base_dir: Path | None = None) -> dict:
    """Recompute the manifest's derived block from its recorded inputs."""
    return _derived(build_game(game, Path(base_dir or ".")))


# -- tasks --------------------------------------------------------------------


def _task_match(spec, cfg, grid, out_dir, strict_paper):
    result = synthesize_jammer(cfg, grid)
    g = result.jammer_cf.grid
    outputs = {
        "verdict": result.verdict,
        "reason": result.reason,
        "jammer_variance": None if math.isnan(result.jammer_variance)
        else result.jammer_variance,
        "truncated": result.jammer_cf.truncated,
    }
    _write_csv(out_dir / f"{spec['name']}_jammer_cf.csv",
               ["omega", "re", "im"], [g.omega, result.jammer_cf.values.real,
                                       result.jammer_cf.values.imag])
    if result.matched:
        _write_csv(out_dir / f"{spec['name']}_jammer_density.csv",
                   ["x", "density"], [g.x, result.jammer_density.table])
    return 0, outputs, g


def _task_saddle(spec, cfg, grid, out_dir, strict_paper):
    trials = _trials(spec)
    match = synthesize_jammer(cfg, grid)
    jammer = match.jammer_density if match.matched else gaussian(cfg.power_jam)
    profile = saddle_profile(cfg, jammer, strict_paper=strict_paper)
    outcome = simulate(cfg, profile, trials, _num(spec["seed"], "seed", int))
    outputs = {
        "jammer": "matched" if match.matched else "gaussian-fallback",
        "empirical_cost": outcome.empirical_cost,
        "std_error": outcome.std_error,
        "trials": outcome.trials,
        "theoretical_cost": outcome.theoretical_cost,
        "z_score": outcome.z_score,
    }
    return 0, outputs, grid


def _task_deviate(spec, cfg, grid, out_dir, strict_paper):
    trials = _trials(spec)
    seed = _num(spec["seed"], "seed", int)
    rho = _num(spec.get("rho", 0.7), "rho")
    if not -1.0 <= rho <= 1.0:
        raise ConfigError(f"field 'rho' must lie in [-1, 1], got {rho}")
    p_values = _numbers(spec.get("p_values", [0.5, 1.0]), "p_values")
    if not all(0.0 <= p <= 1.0 for p in p_values):
        raise ConfigError(f"field 'p_values' must lie in [0, 1], got {p_values}")
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
    _write_csv(out_dir / f"{spec['name']}_deviations.csv", header,
               [[str(e[k]) if k == "passed" else e[k] for e in entries] for k in header])
    ok = rhs.all_passed and lhs.all_passed
    outputs = {"entries": entries, "exploit": ex_entries,
               "all_passed": ok}
    return (0 if ok else 2), outputs, grid


def _task_mmse(spec, cfg, grid, out_dir, strict_paper):
    order = _num(spec.get("order", 6), "order", int)
    g = grid or default_grid(cfg.source, cfg.channel_noise)
    curve = mmse_estimator(cfg.source, cfg.channel_noise, g)
    fu = tabulated(g, output_density(cfg.source, cfg.channel_noise, g))
    try:
        basis = build_basis(fu, order)
    except (ValueError, IllConditioned) as exc:
        raise ConfigError(f"field 'order' = {order}: {exc}") from None
    coeffs = expansion_coeffs(cfg.source, cfg.channel_noise, basis)
    outputs = {
        "mmse": curve.mmse,
        "linearity_residual": curve.linearity_residual,
        "mmse_poly": coeffs.mmse_poly,
        "gap": abs(coeffs.mmse_poly - curve.mmse),
        "coefficients": list(coeffs.c),
    }
    _write_csv(out_dir / f"{spec['name']}_estimator.csv", ["u", "h"],
               [g.x, curve.values])
    _write_csv(out_dir / f"{spec['name']}_coefficients.csv", ["m", "c"],
               [np.arange(len(coeffs.c)), coeffs.c])
    return 0, outputs, g


def _task_worst_noise(spec, cfg, grid, out_dir, strict_paper):
    order = _num(spec.get("order", 6), "order", int)
    k = _num(spec.get("mixture_components", 3), "mixture_components", int)
    try:
        family = GaussianMixtureFamily(k)
    except ValueError as exc:
        raise ConfigError(f"field 'mixture_components': {exc}") from None
    res = worst_noise_search(cfg.source, cfg.power_jam, order, family,
                             seed=_num(spec["seed"], "seed", int))
    outputs = {
        "objective": res.objective,
        "mmse_attained": res.mmse_attained,
        "iterations": res.iterations,
        "converged": res.converged,
        "noise_components": [list(c) for c in res.noise.components],
    }
    g = grid or default_grid(res.noise)
    _write_csv(out_dir / f"{spec['name']}_worst_noise_density.csv",
               ["x", "density"], [g.x, res.noise.pdf_on(g)])
    return 0, outputs, g


def _task_asymptotic(spec, cfg, grid, out_dir, strict_paper):
    betas = _numbers(spec.get("betas"), "betas")
    direction = spec.get("direction", "low_csnr")
    if direction not in ("low_csnr", "high_csnr"):
        raise ConfigError(f"unknown direction '{direction}'")
    try:  # the schedule check is the only ValueError either function raises
        if direction == "low_csnr":
            out = asymptotic_gaussianization(cfg.source, betas, grid)
        else:
            out = gaussian_source_limit_check(cfg.channel_noise, betas, grid,
                                              power_jam=cfg.power_jam)
    except ValueError as exc:
        raise ConfigError(f"field 'betas' for {direction}: {exc}") from None
    if direction == "low_csnr":
        _write_csv(out_dir / f"{spec['name']}_asymptotic.csv",
                   ["beta", "gaussian_distance"], list(zip(*out)))
        outputs = {"direction": direction,
                   "distances": [{"beta": b, "distance": d} for b, d in out]}
    else:
        fams = sorted(out[0][1])
        _write_csv(out_dir / f"{spec['name']}_asymptotic.csv",
                   ["beta"] + [f"distance_{f}" for f in fams],
                   [[b for b, _ in out]] + [[r[f] for _, r in out] for f in fams])
        outputs = {"direction": direction,
                   "distances": [dict(beta=b, **row) for b, row in out]}
    return 0, outputs, grid


_TASK_FNS = {
    "match": _task_match,
    "saddle": _task_saddle,
    "deviate": _task_deviate,
    "mmse": _task_mmse,
    "worst_noise": _task_worst_noise,
    "asymptotic": _task_asymptotic,
}


def _overridden(spec: dict, grid_points: int | None, half_width: float | None,
                seed: int | None) -> dict:
    """The spec with the command line's seed and grid flags applied."""
    if seed is not None:
        spec = {**spec, "seed": seed}
    if grid_points is not None or half_width is not None:
        g = dict(_grid_field(spec))
        if grid_points is not None:
            g["num_points"] = grid_points
        if half_width is not None:
            g["half_width"] = half_width
        spec = {**spec, "grid": g}
    return spec


def run(spec: dict, out_dir: Path, strict_paper: bool = False,
        grid_points: int | None = None, half_width: float | None = None,
        seed: int | None = None) -> int:
    """Execute a validated spec; writes the manifest and artifacts."""
    spec = _overridden(spec, grid_points, half_width, seed)
    cfg = build_game(spec["game"], Path(spec.get("__dir__", ".")))
    grid = _grid_from(spec, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    code, outputs, used_grid = _TASK_FNS[spec["task"]](
        spec, cfg, grid, out_dir, strict_paper)
    manifest = _manifest(spec, cfg, outputs, used_grid)
    (out_dir / f"{spec['name']}_result.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return code


def sweep(spec: dict, parameter: str, values: list[float], out_dir: Path,
          strict_paper: bool = False) -> int:
    """Repeat the task once per parameter value; one CSV row each."""
    if parameter not in SWEEP_PARAMS:
        raise ConfigError(f"sweep parameter must be one of {SWEEP_PARAMS}")
    if any(not np.isfinite(v) or v <= 0 for v in values):
        raise ConfigError("sweep values must be finite and positive")
    out_dir.mkdir(parents=True, exist_ok=True)
    rows, header, worst = [], None, 0
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
        code = run(sub, out_dir, strict_paper)
        worst = max(worst, code)
        manifest = json.loads(
            (out_dir / f"{sub['name']}_result.json").read_text())
        row, cols = _sweep_row(sub["task"], manifest)
        if header is None:
            header = [parameter] + cols
        rows.append([v] + row)
    _write_csv(out_dir / f"{spec['name']}_sweep_{parameter}.csv", header,
               list(zip(*rows)))
    return worst


def _sweep_row(task: str, manifest: dict):
    out = manifest["outputs"]
    der = manifest["derived"]
    if task == "saddle":
        return ([out["empirical_cost"], out["std_error"],
                 out["theoretical_cost"], out["z_score"]],
                ["empirical_cost", "std_error", "theoretical_cost", "z_score"])
    if task == "match":
        return ([out["verdict"], out["jammer_variance"] or float("nan"),
                 der["saddle_cost"]],
                ["verdict", "jammer_variance", "saddle_cost"])
    if task == "mmse":
        return ([out["mmse"], out["mmse_poly"], out["gap"]],
                ["mmse", "mmse_poly", "gap"])
    if task == "worst_noise":
        return ([out["objective"], out["mmse_attained"]],
                ["objective", "mmse_attained"])
    if task == "asymptotic":
        d = out["distances"][0]
        keys = [k for k in sorted(d) if k != "beta"]
        return [d[k] for k in keys], keys
    if task == "deviate":
        return [float(out["all_passed"])], ["all_passed"]
    raise ConfigError(f"sweep does not support task '{task}'")


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
        spec = load_spec(args.spec)
        if args.command == "run":
            return run(spec, Path(args.out), strict_paper=args.strict_paper,
                       grid_points=args.grid_points,
                       half_width=args.grid_halfwidth, seed=args.seed)
        values = [_num(v, "--values") for v in args.values.split(",")
                  if v.strip()]
        if not values:
            raise ConfigError("--values is empty")
        spec = _overridden(spec, args.grid_points, args.grid_halfwidth,
                           args.seed)
        return sweep(spec, args.param, values, Path(args.out),
                     strict_paper=args.strict_paper)
    except JamlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
