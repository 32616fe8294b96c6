"""The four workloads: one pass of operations each, and its checks.

A workload builds its inputs from the seed, lists the operations of one
pass, runs one operation when asked (that call alone is timed), and checks
a result against the closed forms in ``checks``.  Every pass runs the same
operations on the same inputs, so a pass's results are compared with the
first pass's by ``digest`` and only the first pass is checked in full.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import shutil
from pathlib import Path

import numpy as np

import checks as ck

FAMILIES = ("gaussian", "laplace", "uniform", "rademacher")


def model(jl, family: str, variance: float):
    if family == "rademacher":
        return jl.rademacher_scaled(math.sqrt(variance))
    return getattr(jl, family)(variance)


def _hash(array) -> str:
    return hashlib.sha1(np.ascontiguousarray(array).tobytes()).hexdigest()


class Workload:
    """Interface shared by the workloads; ``ops`` lists one pass."""

    name = ""

    def __init__(self, jl, seed: int, work_dir: Path):
        self.jl = jl
        self.seed = seed
        self.work_dir = work_dir
        self.ops = []

    def begin_pass(self, label: str) -> None:
        pass

    def end_pass(self) -> None:
        pass

    def run(self, op):
        raise NotImplementedError

    def describe(self, op) -> str:
        return repr(op)

    def failure(self, op, result) -> str | None:
        """Why a returned result is no usable answer, or None when it is."""
        return None

    def check(self, op, result) -> list[str]:
        raise NotImplementedError

    def digest(self, op, result):
        raise NotImplementedError


class MatchMap(Workload):
    """``synthesize_jammer`` over 16 family pairs x 25 power pairs x 3 grids.

    Operation: one verdict, including the game and its grid.  Deterministic:
    the seed does not enter.  A no-match verdict where the paper guarantees a
    match (Gaussian source and noise, or identical pairs at unit powers)
    counts as a failed operation, as does any exception.
    """

    name = "match_map"
    POWERS = (0.1, 0.3, 1.0, 3.0, 10.0)
    GRID_POINTS = (2048, 4096, 8192)

    def __init__(self, jl, seed, work_dir):
        super().__init__(jl, seed, work_dir)
        self.ops = list(itertools.product(FAMILIES, FAMILIES, self.POWERS,
                                          self.POWERS, self.GRID_POINTS))

    def run(self, op):
        src, noise, pt, pa, n = op
        cfg = self.jl.JammingGameConfig(model(self.jl, src, 1.0),
                                        model(self.jl, noise, 1.0), pt, pa)
        return self.jl.synthesize_jammer(cfg, cfg.grid_for(n))

    @staticmethod
    def _identical_unit(op) -> bool:
        src, noise, pt, pa, _ = op
        return src == noise and pt == pa == 1.0

    def describe(self, op) -> str:
        src, noise, pt, pa, n = op
        return f"{src}/{noise} P_T={pt:g} P_A={pa:g} n={n}"

    def failure(self, op, result) -> str | None:
        must_match = (op[0] == op[1] == "gaussian") or self._identical_unit(op)
        if must_match and not result.matched:
            return f"no_match where a match exists ({result.reason})"
        return None

    def check(self, op, result) -> list[str]:
        src, noise, pt, pa, n = op
        what = self.describe(op)
        if not result.matched:
            return []
        if src == "laplace" and noise == "gaussian":
            # the quotient grows like exp(omega^2 / 2): no CF can match
            return [f"{what}: matched, but no Laplace/Gaussian match exists"]
        grid = result.jammer_cf.grid
        omega = ck.frequency_grid(grid.half_width, grid.num_points)
        x = ck.signal_grid(grid.half_width, grid.num_points)
        found = [
            ck.variance_close(result.jammer_variance, pa, what),
            ck.density_moments(result.jammer_density.table, x, what,
                               mean_tol=1e-6 * math.sqrt(pa)),
        ]
        if src == noise == "gaussian":
            found.append(ck.cf_close(result.jammer_cf.values,
                                     ck.closed_form_cf("gaussian", pa, omega),
                                     1e-6, what))
        if self._identical_unit(op):
            found.append(ck.cf_close(result.jammer_cf.values,
                                     ck.closed_form_cf(src, 1.0, omega),
                                     1e-6, what))
        return [f for f in found if f]

    def digest(self, op, result):
        return (result.verdict, repr(result.jammer_variance),
                _hash(result.jammer_cf.values))


class Deviate(Workload):
    """Deviation harnesses at 10^6 trials on two matched games.

    Games: unit Gaussian, and Laplace source with Laplace noise, all powers
    1.  Per game: 3 encoder deviations (``verify_rhs_inequality``), 3 jammer
    deviations (``verify_lhs_inequality``) and the sign exploit at p = 0.5
    and 1 with a rho = 0.7 correlated Gaussian jammer.  Operation: one entry,
    passed singly through the functions' list arguments.  The seed is the
    Monte Carlo seed of every entry.
    """

    name = "deviate"
    TRIALS = 1_000_000
    RHO = 0.7
    GAMES = (("gaussian", "gaussian"), ("laplace", "laplace"))

    def __init__(self, jl, seed, work_dir):
        super().__init__(jl, seed, work_dir)
        gs = jl.gamesim
        self.games = {}
        for src, noise in self.GAMES:
            cfg = jl.JammingGameConfig(model(jl, src, 1.0), model(jl, noise, 1.0),
                                       1.0, 1.0)
            key = f"{src}/{noise}"
            self.games[key] = (cfg, jl.synthesize_jammer(cfg).jammer_density)
            for enc in gs.companding_encoders(cfg):
                self.ops.append((key, "encoder", enc.label, enc))
            for label, jam in gs.default_lhs_jammers(cfg, self.RHO):
                self.ops.append((key, "jammer", label, jam))
            for p in (0.5, 1.0):
                self.ops.append((key, "exploit", f"p={p:g}", p))

    def run(self, op):
        key, side, _, arg = op
        cfg, jammer = self.games[key]
        jl, gs = self.jl, self.jl.gamesim
        if side == "encoder":
            return jl.verify_rhs_inequality(cfg, self.TRIALS, self.seed,
                                            encoders=[arg], jammer_model=jammer)
        if side == "jammer":
            return jl.verify_lhs_inequality(cfg, self.TRIALS, self.seed,
                                            jammers=[(op[2], arg)])
        return jl.bernoulli_exploit_check(
            cfg, [arg], gs.CorrelatedJammer(self.RHO, jl.gaussian(cfg.power_jam)),
            self.TRIALS, self.seed)

    def describe(self, op) -> str:
        return " ".join(op[:3])

    def check(self, op, result) -> list[str]:
        key, side, label, arg = op
        cfg, _ = self.games[key]
        what = self.describe(op)
        saddle = ck.saddle_cost(1.0, 1.0, cfg.power_tx, cfg.power_jam)
        found = []
        if abs(cfg.saddle_cost - saddle) > 1e-12 * saddle:
            found.append(f"{what}: saddle cost {cfg.saddle_cost!r}, expected {saddle!r}")
        entry = result.entries[0]
        out = entry.outcome
        if out.trials != self.TRIALS:
            found.append(f"{what}: {out.trials} trials")
        if side == "encoder":
            found.append(ck.at_least(out.empirical_cost, saddle, out.std_error, what))
        elif side == "jammer":
            found.append(ck.at_most(out.empirical_cost, saddle, out.std_error, what))
        else:
            expected = ck.exploit_cost(1.0, 1.0, cfg.power_tx, cfg.power_jam,
                                       self.RHO, arg)
            found.append(ck.within_se(out.empirical_cost, expected, out.std_error, what))
            if arg == 1.0 and not saddle - out.empirical_cost > ck.SE_GATE * out.std_error:
                found.append(f"{what}: the p = 1 drop does not clear {ck.SE_GATE:g} SE")
        if side != "exploit" and entry.passed != (found[-1] is None):
            found.append(f"{what}: harness verdict {entry.passed} disagrees")
        return [f for f in found if f]

    def digest(self, op, result):
        out = result.entries[0].outcome
        return (out.empirical_cost, out.std_error)


class WorstNoise(Workload):
    """``worst_noise_search`` for a unit Laplace source.

    Operations: the grid-table search at budgets 2 and 1, then the
    3-component Gaussian-mixture search at budget 1 with the workload seed
    selecting the restart points.  The mixture search caps each of its 5
    restarts at ``MIXTURE_MAXFEV`` evaluations: at the default cap the
    evaluation count, and so the work of a pass, moves with the seed
    (6,803 to 8,786 over seeds 0-7); at 300 every restart reaches the cap.
    At 300 the mixture search also takes well under the budget-1 table
    search (about 1.1 s against 1.7-2.0 s), so the median operation of a
    pass is the same search on every run.
    """

    name = "worst_noise"
    MIXTURE_MAXFEV = 300
    ORDER = 6

    def __init__(self, jl, seed, work_dir):
        super().__init__(jl, seed, work_dir)
        self.source = jl.laplace(1.0)
        self.ops = [("table", 2.0), ("table", 1.0), ("mixture", 1.0)]
        self.table_objective = {}
        self.gaussian_objective = None

    def run(self, op):
        family, budget = op
        jl = self.jl
        if family == "table":
            return jl.worst_noise_search(self.source, budget, self.ORDER,
                                         jl.GridTableFamily())
        return jl.worst_noise_search(self.source, budget, self.ORDER,
                                     jl.GaussianMixtureFamily(3), seed=self.seed,
                                     maxfev=self.MIXTURE_MAXFEV)

    def check(self, op, result) -> list[str]:
        family, budget = op
        what = f"{family} search, budget {budget:g}"
        if family == "table":
            self.table_objective[budget] = result.objective
            grid = result.noise.grid
            x = ck.signal_grid(grid.half_width, grid.num_points)
            omega = ck.frequency_grid(grid.half_width, grid.num_points)
            # matching noise: CF (1 + omega^2 / 2)^-P for a unit Laplace source
            want = (1.0 + omega**2 / 2.0) ** -budget
            found = [ck.cf_close(ck.table_cf(result.noise.table, x, omega), want,
                                 1e-2, what),
                     ck.density_moments(result.noise.table, x, what, power=budget)]
            if not result.objective < 1e-3:
                found.append(f"{what}: objective {result.objective:.3g}")
            return [f for f in found if f]
        found = []
        if self.gaussian_objective is None:
            grid = self.jl.default_grid(self.source, num_points=2048)
            x = ck.signal_grid(grid.half_width, grid.num_points)
            b = 1.0 / math.sqrt(2.0)
            fx = np.exp(-np.abs(x) / b) / (2.0 * b)
            fz = np.exp(-x * x / (2.0 * budget)) / math.sqrt(2.0 * math.pi * budget)
            self.gaussian_objective = ck.tail_energy(fx, fz, x)
        table = self.table_objective.get(budget)
        if table is None or not result.objective >= table:
            found.append(f"{what}: objective {result.objective:.3g} below the "
                         f"convex optimum {table}")
        if not result.objective < self.gaussian_objective:
            found.append(f"{what}: objective {result.objective:.3g} not below the "
                         f"Gaussian noise's {self.gaussian_objective:.3g}")
        w, mu, s = (np.array(c) for c in zip(*result.noise.components))
        var = float(w @ (mu**2 + s**2))
        if abs(var - budget) > 1e-9 or abs(float(w @ mu)) > 1e-9:
            found.append(f"{what}: mixture variance {var!r}, mean {float(w @ mu)!r}")
        return found

    def digest(self, op, result):
        noise = result.noise
        shape = noise.table if noise.table is not None else np.array(noise.components)
        return (result.objective, result.iterations, _hash(shape))


class CliRuns(Workload):
    """In-process ``jamlab run`` on generated spec files.

    Specs: ``match`` for the 16 family pairs at unit powers, ``mmse``
    (order 6) for Gaussian, Laplace and uniform sources in Gaussian noise,
    and ``asymptotic`` in both directions.  Operation: one ``jamlab.cli.main``
    call.  Deterministic: the seed does not enter.  Each pass writes to its
    own directory, which is hashed and deleted at the end of the pass.
    """

    name = "cli_runs"
    LOW_BETAS = [1.0, 2.0, 4.0, 8.0, 16.0]
    HIGH_BETAS = [1.0, 0.5, 0.25, 0.125]

    def __init__(self, jl, seed, work_dir):
        super().__init__(jl, seed, work_dir)
        self.spec_dir = work_dir / "specs"
        self.spec_dir.mkdir(parents=True, exist_ok=True)
        self.specs = {}
        for src, noise in itertools.product(FAMILIES, FAMILIES):
            self._add(f"match-{src}-{noise}", "match", src, noise)
        for src in ("gaussian", "laplace", "uniform"):
            self._add(f"mmse-{src}", "mmse", src, "gaussian", order=6)
        self._add("asymptotic-low", "asymptotic", "uniform", "gaussian",
                  betas=self.LOW_BETAS, direction="low_csnr")
        self._add("asymptotic-high", "asymptotic", "gaussian", "laplace",
                  betas=self.HIGH_BETAS, direction="high_csnr")
        self.ops = list(self.specs)
        self.out_dir = None
        self.files_written = self.bytes_written = 0

    def _add(self, name, task, src, noise, **extra):
        spec = {"name": name, "task": task,
                "game": {"source": {"family": src, "variance": 1.0},
                         "channel_noise": {"family": noise, "variance": 1.0},
                         "power_tx": 1.0, "power_jam": 1.0}, **extra}
        path = self.spec_dir / f"{name}.json"
        path.write_text(json.dumps(spec))
        self.specs[name] = (path, spec)

    def begin_pass(self, label):
        self.out_dir = self.work_dir / f"pass-{label}"
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def end_pass(self):
        files = [p for p in self.out_dir.iterdir() if p.is_file()]
        self.files_written = len(files)
        self.bytes_written = sum(p.stat().st_size for p in files)
        shutil.rmtree(self.out_dir)

    def run(self, op):
        code = self.jl.cli.main(["run", str(self.specs[op][0]),
                                 "--out", str(self.out_dir)])
        return code, sorted(self.out_dir.glob(f"{op}_*"))

    def failure(self, op, result) -> str | None:
        return f"exit code {result[0]}" if result[0] != 0 else None

    def digest(self, op, result):
        return tuple((p.name, hashlib.sha1(p.read_bytes()).hexdigest())
                     for p in result[1])

    @staticmethod
    def _csv(path: Path) -> np.ndarray:
        """The numeric rows below the header."""
        lines = path.read_text().splitlines()[1:]
        return np.array([[float(v) for v in line.split(",")] for line in lines])

    def _api_columns(self, op):
        """The arrays the API returns for what the op's CSVs hold."""
        jl = self.jl
        _, spec = self.specs[op]
        game = spec["game"]
        src = model(jl, game["source"]["family"], 1.0)
        noise = model(jl, game["channel_noise"]["family"], 1.0)
        cfg = jl.JammingGameConfig(src, noise, 1.0, 1.0)
        if spec["task"] == "match":
            res = jl.synthesize_jammer(cfg)
            g = res.jammer_cf.grid
            cols = {"jammer_cf": [g.omega, res.jammer_cf.values.real,
                                  res.jammer_cf.values.imag]}
            if res.matched:
                cols["jammer_density"] = [g.x, res.jammer_density.table]
            return cols
        if spec["task"] == "mmse":
            g = jl.default_grid(src, noise)
            curve = jl.mmse_estimator(src, noise, g)
            fu = jl.tabulated(g, jl.estimation.output_density(src, noise, g))
            coeffs = jl.expansion_coeffs(src, noise, jl.build_basis(fu, spec["order"]))
            return {"estimator": [g.x, curve.values],
                    "coefficients": [np.arange(len(coeffs.c), dtype=float), coeffs.c]}
        if spec["direction"] == "low_csnr":
            out = jl.asymptotic_gaussianization(src, spec["betas"])
            return {"asymptotic": [np.array(c) for c in zip(*out)]}
        out = jl.gaussian_source_limit_check(noise, spec["betas"], power_jam=1.0)
        fams = sorted(out[0][1])
        return {"asymptotic": [np.array([b for b, _ in out])]
                + [np.array([row[f] for _, row in out]) for f in fams]}

    def check(self, op, result) -> list[str]:
        _, files = result
        _, spec = self.specs[op]
        found = []
        manifest = json.loads((self.out_dir / f"{op}_result.json").read_text())
        out = manifest["outputs"]
        for kind, columns in self._api_columns(op).items():
            path = self.out_dir / f"{op}_{kind}.csv"
            if not path.exists():
                found.append(f"{op}: {path.name} missing")
                continue
            data = self._csv(path)
            if data.shape != (len(columns[0]), len(columns)) or not all(
                    np.array_equal(data[:, j], col) for j, col in enumerate(columns)):
                found.append(f"{op}: {path.name} does not parse back to the API's values")
        if op == "match-gaussian-gaussian":
            if out["verdict"] != "matched":
                found.append(f"{op}: verdict {out['verdict']}")
            else:
                found.append(ck.variance_close(out["jammer_variance"], 1.0, op))
        if spec["task"] == "mmse":
            if not out["gap"] < 1e-3:
                found.append(f"{op}: gap {out['gap']:.3g}")
            if op == "mmse-gaussian" and abs(out["mmse"] - 0.5) > 1e-6:
                found.append(f"{op}: mmse {out['mmse']!r}, expected 1/2")
        if spec["task"] == "asymptotic":
            rows = out["distances"]
            for key in (k for k in rows[0] if k != "beta"):
                d = [row[key] for row in rows]
                if not all(b < a for a, b in zip(d, d[1:])):
                    found.append(f"{op}: {key} does not strictly decrease: {d}")
        return [f for f in found if f]


WORKLOADS = {w.name: w for w in (MatchMap, Deviate, WorstNoise, CliRuns)}
