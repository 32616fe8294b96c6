import json
import math
from pathlib import Path

import numpy as np
import pytest

import jamlab as jl
from jamlab import gamesim
from jamlab.cli import _derived, _write_csv, build_game, load_spec, main
from jamlab.errors import ConfigError
from jamlab.gamesim import (default_lhs_jammers, saddle_profile, simulate,
                            verify_lhs_inequality)
from jamlab.matching import synthesize_jammer


_UNIT_GAME = {
    "source": {"family": "gaussian", "variance": 1.0},
    "channel_noise": {"family": "gaussian", "variance": 1.0},
    "power_tx": 1.0, "power_jam": 1.0,
}


def write_spec(tmp_path, **overrides):
    spec = {"name": "unit-gauss", "task": "match", "game": _UNIT_GAME}
    spec.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


# -- validation ---------------------------------------------------------------


def test_missing_power_is_config_error(tmp_path):
    path = write_spec(tmp_path)
    spec = json.loads(path.read_text())
    del spec["game"]["power_tx"]
    path.write_text(json.dumps(spec))
    assert main(["run", str(path), "--out", str(tmp_path / "r")]) == 1


def test_missing_variance_is_config_error(tmp_path):
    path = write_spec(tmp_path)
    spec = json.loads(path.read_text())
    del spec["game"]["source"]["variance"]
    path.write_text(json.dumps(spec))
    assert main(["run", str(path), "--out", str(tmp_path / "r")]) == 1


def test_stochastic_task_requires_seed(tmp_path):
    path = write_spec(tmp_path, task="saddle", trials=10_000)
    with pytest.raises(ConfigError):
        load_spec(path)


def test_unknown_task_rejected(tmp_path):
    path = write_spec(tmp_path, task="frobnicate")
    assert main(["run", str(path)]) == 1


def test_bad_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 1


def _with_source(**fields):
    return {**_UNIT_GAME, "source": {**_UNIT_GAME["source"], **fields}}


@pytest.mark.parametrize("overrides, command, field", [
    ({"game": _with_source(family=3)}, "run", "family"),
    (["task", "name", "game"], "run", "spec must be a JSON object"),
    ({"game": _with_source(variance=None)}, "run", "'variance'"),
    ({"task": "saddle", "trials": 10_000, "seed": "abc"}, "run", "'seed'"),
    ({"task": "mmse", "order": "x"}, "run", "'order'"),
    ({"grid": {"num_points": "many"}}, "run", "'grid.num_points'"),
    ({"task": "saddle", "trials": 0, "seed": 1}, "run", "'trials'"),
    ({"task": "asymptotic", "betas": "abc"}, "run", "'betas'"),
    ({}, "sweep", "'--values'"),
    ({"grid": [1]}, "run", "'grid'"),
    ({"task": "deviate", "trials": 10_000, "seed": 1, "p_values": "x"}, "run",
     "'p_values'"),
    ({"task": "deviate", "trials": 10_000, "seed": 1, "p_values": [2.0]}, "run",
     "'p_values'"),
    ({"task": "worst_noise", "seed": 1, "mixture_components": 0}, "run",
     "'mixture_components'"),
    ({"task": "asymptotic", "betas": [-1.0]}, "run", "'betas'"),
    ({"task": "asymptotic", "betas": [1.0, 2.0], "direction": "high_csnr"},
     "run", "'betas'"),
    ({"grid": {"num_points": 100}}, "run", "num_points must be"),
    ({"grid": {"half_width": -3}}, "run", "half_width must be"),
    ({"grid": {"half_width": 0, "num_points": 0}}, "run", "'grid'"),
    ({"task": "deviate", "trials": 10_000, "seed": 1, "rho": 2}, "run", "'rho'"),
    ({"task": "mmse", "order": 40}, "run", "'order'"),
    ({"task": "mmse", "order": 12}, "run", "'order'"),
    ({}, "run --grid-points 0", "num_points must be"),
    ({"game": _with_source(family="tabulated", path="missing.csv")}, "run",
     "missing.csv"),
    ({"task": "worst_noise", "seed": 1, "mixture_components": 5}, "run",
     "'mixture_components'"),
    ({"task": "asymptotic", "betas": [1, math.inf]}, "run", "'betas'"),
    ({"task": "mmse", "order": 2.5}, "run", "'order'"),
    ({"task": "worst_noise", "seed": 1, "mixture_components": 2.7}, "run",
     "'mixture_components'"),
    ({"task": "saddle", "trials": 10_000.9, "seed": 1}, "run", "'trials'"),
    ({"grid": {"num_points": 4096.5}}, "run", "'grid.num_points'"),
    ({"game": {**_UNIT_GAME, "power_tx": True}}, "run", "'power_tx'"),
    ({"task": "asymptotic", "betas": [True, 2.0]}, "run", "'betas'"),
], ids=["family", "list-spec", "variance", "seed", "order", "num-points",
        "trials", "betas", "sweep-values", "grid", "p-values-type",
        "p-values-range", "mixture-components", "betas-sign",
        "betas-order", "num-points-range", "half-width-sign", "grid-zeros",
        "rho-range", "order-range", "order-ill-conditioned", "grid-points-flag",
        "tabulated-missing-file", "mixture-components-cap", "betas-infinite",
        "order-fraction", "mixture-components-fraction", "trials-fraction",
        "num-points-fraction", "power-tx-bool", "betas-bool"])
def test_malformed_field_is_a_config_error(tmp_path, capsys, overrides,
                                           command, field):
    if isinstance(overrides, dict):
        path = write_spec(tmp_path, **overrides)
    else:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(overrides))
    command, *flags = command.split()
    argv = [command, str(path), "--out", str(tmp_path / "r"), *flags]
    if command == "sweep":
        argv += ["--param", "power_jam", "--values", "1,abc"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err, err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("table", ["x\n-1.0\n0.0\n", "x,f\n0.0,1.0\n", "x,f\n"],
                         ids=["one-column", "one-row", "header-only"])
def test_short_table_is_a_config_error(tmp_path, capsys, table):
    (tmp_path / "one.csv").write_text(table)
    path = write_spec(tmp_path, game=_with_source(family="tabulated",
                                                  path="one.csv"))
    assert main(["run", str(path), "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "one.csv" in err, err


_LAPLACE_GAUSSIAN = {
    "source": {"family": "laplace", "variance": 1.0},
    "channel_noise": {"family": "gaussian", "variance": 1.0},
    "power_tx": 1.0, "power_jam": 1.0,
}


@pytest.mark.parametrize("task", ["match", "mmse"])
def test_grid_too_narrow_is_an_error_line(tmp_path, capsys, task):
    path = write_spec(tmp_path, task=task, game=_LAPLACE_GAUSSIAN,
                      grid={"half_width": 3, "num_points": 1024})
    assert main(["run", str(path), "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1e-10" in err, err


@pytest.mark.parametrize("task", [
    {"task": "match"}, {"task": "mmse", "order": 4},
    {"task": "worst_noise", "seed": 1, "mixture_components": 1}],
    ids=["match", "mmse", "worst_noise"])
def test_a_grid_too_narrow_for_an_input_gives_one_line_for_every_task(
        tmp_path, capsys, task):
    """Half-width 0.5 leaves 62% of a unit Gaussian off the grid.  Each task
    exits 1 with the tail gate's line and writes nothing; ``worst_noise``
    searches on its own grid, so the gate is on the grid of its CSV."""
    path = write_spec(tmp_path, grid={"half_width": 0.5, "num_points": 256}, **task)
    out = tmp_path / "r"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: mass outside [-0.5, 0.5] exceeds 1e-10\n"
    assert not out.exists()


def test_output_density_off_the_grid_is_grid_too_narrow(tmp_path, capsys):
    """Each uniform density fits on half-width 2, their sum does not: f_U
    loses 18% of its mass.  Every MMSE path says so, and the CLI does not
    blame the order."""
    from types import SimpleNamespace
    from jamlab.errors import GridTooNarrow
    from jamlab.estimation import output_density
    from jamlab.polyexpand import build_basis, expansion_coeffs
    src, noise, g = jl.uniform(1.0), jl.uniform(1.0), jl.GridSpec(2.0, 1024)
    fu = output_density(src, noise, g)
    # a basis on the pair's own f_U, which no table model holds: it lacks
    # mass, and its cut tails give it a mean of -9.5e-4
    measure = SimpleNamespace(kind="tabulated", grid=g, table=fu)
    for call in (lambda: jl.mmse_estimator(src, noise, g),
                 lambda: jl.mmse_via_expansion(src, noise, 4, g),
                 lambda: expansion_coeffs(src, noise, build_basis(measure, 4))):
        with pytest.raises(GridTooNarrow, match="off the grid"):
            call()
    path = write_spec(tmp_path, task="mmse", order=4, grid={
        "half_width": 2.0, "num_points": 1024}, game={
            **_UNIT_GAME, "source": {"family": "uniform", "variance": 1.0},
            "channel_noise": {"family": "uniform", "variance": 1.0}})
    assert main(["run", str(path), "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: output density") and "order" not in err, err


def test_deviate_without_a_matching_jammer_is_an_error_line(tmp_path, capsys):
    path = write_spec(tmp_path, task="deviate", trials=10_000, seed=1,
                      game=_LAPLACE_GAUSSIAN)
    assert main(["run", str(path), "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: task 'deviate' needs a matching jammer: "), err


# -- CSV bytes ---------------------------------------------------------------------


def _old_write_csv(path, header, rows):
    """The row-wise writer with one f-string per value that the column-wise
    ``_write_csv`` replaced; kept as the reference for its bytes."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else f"{float(v):.17g}"
                              for v in row))
    path.write_text("\n".join(lines) + "\n")


_SPECIAL = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
            -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1e-300,
            -1e-300, 1e300, -1e300, 1.7976931348623157e308, 0.1, 1 / 3,
            2.0 ** 53 + 2, 1.0, -123456789.0, 1e16, 1e17, 123456789012345678.0]


@pytest.mark.parametrize("seed", range(4))
def test_write_csv_matches_the_row_wise_formatter(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = 4096
    bits = rng.integers(0, 2**64, size=(2, n), dtype=np.uint64).view(np.float64)
    bits[0, :len(_SPECIAL)] = _SPECIAL
    columns = [
        bits[0],                                          # float64 array
        bits[1].tolist(),                                 # Python floats
        rng.integers(-2**62, 2**62, size=n),              # int64 array
        [int(v) for v in rng.integers(-10**6, 10**6, size=n)],
        rng.random(n) < 0.5,                              # bool array
        [bool(v) for v in rng.random(n) < 0.5],           # Python bools
        rng.standard_normal(n).astype(np.float32),        # float32 array
        [f"s{v}" for v in rng.integers(0, 99, size=n)],   # str
        [str(v) for v in rng.random(n) < 0.5],            # "True" / "False"
    ]
    header = [f"c{i}" for i in range(len(columns))]
    _write_csv(tmp_path / "new.csv", header, columns)
    _old_write_csv(tmp_path / "old.csv", header, list(zip(*columns)))
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()


def test_write_csv_with_zero_rows_writes_the_header_only(tmp_path):
    _write_csv(tmp_path / "t.csv", ["a", "b", "c"], [[], np.array([]), ()])
    assert (tmp_path / "t.csv").read_bytes() == b"a,b,c\n"


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def _columns(path):
    """(header, columns) of a written CSV, each cell parsed as by ``_cell``."""
    header, *lines = path.read_text().splitlines()
    return header.split(","), list(zip(*[[_cell(v) for v in line.split(",")]
                                         for line in lines]))


def _same(got, want):
    return np.array_equal(np.asarray(got, dtype=float),
                          np.asarray(want, dtype=float), equal_nan=True)


def test_every_task_csv_has_the_row_wise_bytes(tmp_path):
    """Each number cell of every CSV the tasks write is re-parsed and written
    again by the row-wise formatter; ``%.17g`` round-trips, so the bytes
    must be the same on any platform.  The cells must also be the task's
    own data, column for column: the recomputed jammer, or the manifest."""
    out = tmp_path / "results"

    def run(name, command=("run",), **overrides):
        path = write_spec(tmp_path, name=name, **overrides)
        assert main([command[0], str(path), "--out", str(out),
                     *command[1:]]) == 0

    run("match-matched")
    run("match-none", game={**_UNIT_GAME,
                            "source": {"family": "rademacher", "sigma": 1.0},
                            "power_jam": 0.5})
    run("mmse", task="mmse", order=4)
    run("low", task="asymptotic", betas=[1, 4.0], direction="low_csnr")
    run("high", task="asymptotic", betas=[1.0, 0.25], direction="high_csnr",
        game={**_UNIT_GAME, "channel_noise": {"family": "laplace",
                                              "variance": 1.0}})
    run("dev", task="deviate", trials=10_000, seed=3)
    run("sweep", ("sweep", "--param", "power_jam", "--values", "1,10"),
        game={**_UNIT_GAME, "source": {"family": "uniform", "variance": 1.0},
              "channel_noise": {"family": "rademacher", "variance": 1.0}})
    csvs = sorted(out.glob("*.csv"))
    assert len(csvs) == 12
    text = "".join(p.read_text() for p in csvs)
    assert ",nan," in text and "no_match" in text and ",True" in text
    for path in csvs:
        header, *lines = path.read_text().splitlines()
        rows = [[_cell(v) for v in line.split(",")] for line in lines]
        _old_write_csv(tmp_path / "again.csv", header.split(","), rows)
        assert path.read_bytes() == (tmp_path / "again.csv").read_bytes(), \
            path.name

    match = synthesize_jammer(build_game(_UNIT_GAME, tmp_path))
    g = match.jammer_cf.grid
    header, cols = _columns(out / "match-matched_jammer_cf.csv")
    assert header == ["omega", "re", "im"]
    for got, want in zip(cols, (g.omega, match.jammer_cf.values.real,
                                match.jammer_cf.values.imag)):
        assert _same(got, want)
    header, cols = _columns(out / "match-matched_jammer_density.csv")
    assert header == ["x", "density"]
    assert _same(cols[0], g.x) and _same(cols[1], match.jammer_density.table)

    def manifest(name):
        return json.loads((out / f"{name}_result.json").read_text())["outputs"]

    _, cols = _columns(out / "mmse_coefficients.csv")
    coeffs = manifest("mmse")["coefficients"]
    assert _same(cols[0], range(len(coeffs))) and _same(cols[1], coeffs)
    header, cols = _columns(out / "high_asymptotic.csv")
    rows = manifest("high")["distances"]
    assert header[0] == "beta" and _same(cols[0], [r["beta"] for r in rows])
    for name, col in zip(header[1:], cols[1:]):
        assert _same(col, [r[name.removeprefix("distance_")] for r in rows])
    header, cols = _columns(out / "dev_deviations.csv")
    entries = manifest("dev")["entries"]
    assert header == ["side", "label", "cost", "std_error", "bound", "passed"]
    for name, col in zip(header, cols):
        want = [e[name] for e in entries]
        if name == "passed":
            assert list(col) == [str(v) for v in want]
        elif name in ("side", "label"):
            assert list(col) == want
        else:
            assert _same(col, want), name


# -- match task ------------------------------------------------------------------


def test_match_task_gaussian(tmp_path):
    path = write_spec(tmp_path)
    out = tmp_path / "results"
    assert main(["run", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "unit-gauss_result.json").read_text())
    assert manifest["outputs"]["verdict"] == "matched"
    assert manifest["outputs"]["jammer_variance"] == pytest.approx(1.0, rel=1e-4)
    assert (out / "unit-gauss_jammer_density.csv").exists()
    assert (out / "unit-gauss_jammer_cf.csv").exists()


def test_match_task_no_match_is_success(tmp_path):
    path = write_spec(tmp_path, game={
        "source": {"family": "rademacher", "sigma": 1.0},
        "channel_noise": {"family": "gaussian", "variance": 1.0},
        "power_tx": 1.0, "power_jam": 0.5,
    })
    out = tmp_path / "results"
    assert main(["run", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "unit-gauss_result.json").read_text())
    assert manifest["outputs"]["verdict"] == "no_match"
    assert manifest["outputs"]["reason"]


def test_manifest_round_trip(tmp_path):
    path = write_spec(tmp_path)
    out = tmp_path / "results"
    main(["run", str(path), "--out", str(out)])
    manifest = json.loads((out / "unit-gauss_result.json").read_text())
    redone = _derived(build_game(manifest["inputs"]["game"], Path(".")))
    for key, value in redone.items():
        assert manifest["derived"][key] == value, key


# -- saddle task -----------------------------------------------------------------


def test_saddle_task_runs_and_reports(tmp_path):
    path = write_spec(tmp_path, task="saddle", trials=50_000, seed=7)
    out = tmp_path / "results"
    assert main(["run", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "unit-gauss_result.json").read_text())
    got = manifest["outputs"]
    assert got["theoretical_cost"] == pytest.approx(2 / 3)
    assert abs(got["z_score"]) < 4
    assert got["jammer"] == "matched"


def test_saddle_simulates_the_jammer_of_its_own_grid(tmp_path):
    # on 8192 points this game has no matching jammer, on the default grid it
    # has one; the run must simulate the jammer its verdict reports
    game = {"source": {"family": "uniform", "variance": 1.0},
            "channel_noise": {"family": "rademacher", "sigma": 1.0},
            "power_tx": 0.3, "power_jam": 10.0}
    path = write_spec(tmp_path, task="saddle", trials=10_000, seed=1, game=game)
    out = tmp_path / "results"
    assert main(["run", str(path), "--out", str(out), "--grid-points", "8192"]) == 0
    got = json.loads((out / "unit-gauss_result.json").read_text())["outputs"]
    cfg = build_game(game, tmp_path)
    want = simulate(cfg, saddle_profile(cfg, jl.gaussian(10.0)), 10_000, 1)
    assert got["jammer"] == "gaussian-fallback"
    assert got["empirical_cost"] == want.empirical_cost


@pytest.mark.parametrize("task, game", [("saddle", _LAPLACE_GAUSSIAN),
                                        ("deviate", _UNIT_GAME)])
def test_one_jammer_synthesis_per_run(tmp_path, monkeypatch, task, game):
    import jamlab.cli as cli
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return synthesize_jammer(*args, **kwargs)

    for module in (cli, gamesim):
        monkeypatch.setattr(module, "synthesize_jammer", counted)
    path = write_spec(tmp_path, task=task, trials=10_000, seed=1, game=game)
    assert main(["run", str(path), "--out", str(tmp_path / "r")]) == 0
    assert len(calls) == 1


def test_deviate_rho_sets_the_correlated_jammer(tmp_path):
    path = write_spec(tmp_path, task="deviate", trials=10_000, seed=1, rho=0.3)
    out = tmp_path / "results"
    main(["run", str(path), "--out", str(out)])
    entries = json.loads((out / "unit-gauss_result.json").read_text())["outputs"]["entries"]
    cfg = build_game(_UNIT_GAME, tmp_path)
    want = verify_lhs_inequality(cfg, 10_000, 1,
                                 jammers=default_lhs_jammers(cfg, 0.3)).entries[-1]
    got = entries[-1]
    assert got["label"] == want.label == "correlated rho=0.3"
    assert got["cost"] == want.outcome.empirical_cost


def test_reruns_are_byte_identical(tmp_path):
    path = write_spec(tmp_path, task="saddle", trials=20_000, seed=3)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", str(path), "--out", str(out_a)])
    main(["run", str(path), "--out", str(out_b)])
    a = (out_a / "unit-gauss_result.json").read_bytes()
    b = (out_b / "unit-gauss_result.json").read_bytes()
    assert a == b


@pytest.mark.parametrize("flags", [[], ["--strict-paper"]])
def test_manifest_records_strict_paper(tmp_path, flags):
    path = write_spec(tmp_path, task="saddle", trials=10_000, seed=3,
                      game={**_UNIT_GAME, "power_tx": 2.0})
    out = tmp_path / "results"
    assert main(["run", str(path), "--out", str(out), *flags]) == 0
    manifest = json.loads((out / "unit-gauss_result.json").read_text())
    assert manifest["inputs"]["strict_paper"] is bool(flags)


@pytest.mark.parametrize("name", ["../esc", "sub/x", "", ".", "..", 3, "a\0b"])
def test_name_must_be_a_file_name(tmp_path, capsys, name):
    path = write_spec(tmp_path, name=name)
    out = tmp_path / "a" / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'name'" in err, err
    assert [p for p in tmp_path.rglob("*") if p != path] == []


_SWEEP = ["sweep", "--param", "power_jam", "--values", "1,2"]


@pytest.mark.parametrize("command, out", [
    (["run"], None), (_SWEEP, None), (["run"], "a\0b"), (_SWEEP, "a\0b")],
    ids=["command0", "command1", "command0-nul", "command1-nul"])
def test_out_naming_a_file_is_an_error_line(tmp_path, capsys, command, out):
    # None: --out names the spec file itself
    path = write_spec(tmp_path)
    spec = path.read_bytes()
    out = path if out is None else tmp_path / out
    assert main([command[0], str(path), *command[1:], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --out ") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == spec


@pytest.mark.parametrize("command", [["run"], _SWEEP], ids=["run", "sweep"])
def test_refused_spec_leaves_no_out_directory(tmp_path, capsys, command):
    path = write_spec(tmp_path, task="deviate", seed=1, trials=10)
    kept = tmp_path / "kept"
    kept.mkdir()
    for out in (tmp_path / "a" / "out", kept):
        assert main([command[0], str(path), *command[1:], "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: field 'trials'"), err
    # the directories the run made are gone; the one that was there stays
    assert sorted(tmp_path.iterdir()) == [kept, path] and not any(kept.iterdir())


def test_seed_flag_supplies_a_missing_seed(tmp_path):
    seedless = write_spec(tmp_path, task="saddle", trials=10_000)
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps({**json.loads(seedless.read_text()), "seed": 7}))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(seedless), "--out", str(out_a), "--seed", "7"]) == 0
    assert main(["run", str(seeded), "--out", str(out_b)]) == 0
    files = sorted(p.name for p in out_a.iterdir())
    assert files == sorted(p.name for p in out_b.iterdir()) and files
    for f in files:
        assert (out_a / f).read_bytes() == (out_b / f).read_bytes()


def test_seed_override_changes_draws(tmp_path):
    path = write_spec(tmp_path, task="saddle", trials=20_000, seed=3)
    out = tmp_path / "results"
    main(["run", str(path), "--out", str(out)])
    first = json.loads((out / "unit-gauss_result.json").read_text())
    main(["run", str(path), "--out", str(out), "--seed", "4"])
    second = json.loads((out / "unit-gauss_result.json").read_text())
    assert first["outputs"]["empirical_cost"] != second["outputs"]["empirical_cost"]


# -- mmse and asymptotic tasks ------------------------------------------------------


def test_mmse_task(tmp_path):
    path = write_spec(tmp_path, task="mmse", order=4)
    out = tmp_path / "results"
    assert main(["run", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "unit-gauss_result.json").read_text())
    assert manifest["outputs"]["mmse"] == pytest.approx(0.5, abs=1e-6)
    assert manifest["outputs"]["coefficients"][1] == pytest.approx(
        math.sqrt(0.5), abs=1e-6)
    assert (out / "unit-gauss_estimator.csv").exists()


def test_mmse_run_takes_one_bayes_ratio(tmp_path, monkeypatch):
    """f_U and the Bayes numerator: every number the report writes comes
    from one Bayes ratio, and no other convolution runs."""
    from jamlab import estimation
    calls = {"ratio": 0, "convolve_tables": 0}
    ratio, convolve = estimation.BayesRatio.ratio, estimation.convolve_tables

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(estimation.BayesRatio, "ratio", counted("ratio", ratio))
    monkeypatch.setattr(estimation, "convolve_tables",
                        counted("convolve_tables", convolve))
    path = write_spec(tmp_path, task="mmse", game=_LAPLACE_GAUSSIAN)
    assert main(["run", str(path), "--out", str(tmp_path / "r")]) == 0
    assert calls == {"ratio": 1, "convolve_tables": 0}


@pytest.mark.parametrize("source", ["gaussian", "laplace", "uniform"])
@pytest.mark.parametrize("order", [2, 6])
def test_mmse_report_equals_the_composition_of_its_parts(tmp_path, source, order):
    """The one-pass report against the public functions chained by hand."""
    from jamlab.estimation import output_density
    from jamlab.polyexpand import build_basis, expansion_coeffs
    src, noise = getattr(jl, source)(1.0), jl.gaussian(1.0)
    g = jl.default_grid(src, noise)
    curve = jl.mmse_estimator(src, noise, g)
    basis = build_basis(jl.tabulated(g, output_density(src, noise, g)), order)
    want = expansion_coeffs(src, noise, basis)

    got, gap = jl.mmse_via_expansion(src, noise, order)
    assert np.array_equal(got.c, want.c) and got.mmse_poly == want.mmse_poly
    assert gap == abs(want.mmse_poly - curve.mmse)

    path = write_spec(tmp_path, task="mmse", order=order, game={
        **_UNIT_GAME, "source": {"family": source, "variance": 1.0}})
    out = tmp_path / "r"
    assert main(["run", str(path), "--out", str(out)]) == 0
    _, (u, h) = _columns(out / "unit-gauss_estimator.csv")
    assert np.array_equal(u, g.x) and np.array_equal(h, curve.values)
    _, (m, c) = _columns(out / "unit-gauss_coefficients.csv")
    assert np.array_equal(m, np.arange(order + 1)) and np.array_equal(c, want.c)


def test_grid_points_alone_keep_each_task_default_width(tmp_path):
    """--grid-points without a half-width scales the task's own default grid:
    the pair's for mmse, the game's for match, saddle and deviate."""
    game = {**_LAPLACE_GAUSSIAN, "power_jam": 10.0}
    out = tmp_path / "results"

    def run(name, points, **fields):
        path = write_spec(tmp_path, name=name, **{"game": game, **fields})
        assert main(["run", str(path), "--out", str(out),
                     "--grid-points", str(points)]) == 0
        manifest = json.loads((out / f"{name}_result.json").read_text())
        return jl.GridSpec(**manifest["environment"]["grid"])

    src, noise = jl.laplace(1.0), jl.gaussian(1.0)
    g = jl.default_grid(src, noise, num_points=8192)
    assert run("mmse", 8192, task="mmse") == g
    assert g.half_width == pytest.approx(19.538, abs=1e-3)
    _, (u, h) = _columns(out / "mmse_estimator.csv")
    assert np.array_equal(u, g.x)
    assert np.array_equal(h, jl.mmse_estimator(src, noise, g).values)

    cfg = build_game(game, tmp_path)
    assert run("match", 2048) == cfg.grid_for(2048)
    _, cols = _columns(out / "match_jammer_cf.csv")
    want = synthesize_jammer(cfg, cfg.grid_for(2048)).jammer_cf.values
    assert _same(cols[1], want.real) and _same(cols[2], want.imag)
    assert run("saddle", 2048, task="saddle", trials=10_000, seed=1) == \
        cfg.grid_for(2048)
    # deviate needs a matching jammer
    assert run("deviate", 2048, task="deviate", trials=10_000, seed=1,
               game=_UNIT_GAME) == build_game(_UNIT_GAME, tmp_path).grid_for(2048)


def test_asymptotic_task_low_csnr(tmp_path):
    path = write_spec(tmp_path, task="asymptotic", betas=[1, 4, 16],
                      game={
                          "source": {"family": "laplace", "variance": 1.0},
                          "channel_noise": {"family": "gaussian", "variance": 1.0},
                          "power_tx": 1.0, "power_jam": 1.0,
                      })
    out = tmp_path / "results"
    assert main(["run", str(path), "--out", str(out)]) == 0
    rows = (out / "unit-gauss_asymptotic.csv").read_text().strip().splitlines()
    dist = [float(r.split(",")[1]) for r in rows[1:]]
    assert dist[0] > dist[1] > dist[2]


def test_asymptotic_task_high_csnr(tmp_path):
    path = write_spec(tmp_path, task="asymptotic", betas=[1, 0.25],
                      direction="high_csnr")
    out = tmp_path / "results"
    assert main(["run", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "unit-gauss_result.json").read_text())
    assert len(manifest["outputs"]["distances"]) == 2


# -- sweep -----------------------------------------------------------------------


_LAPLACE_NOISE_GAME = {**_UNIT_GAME,
                       "channel_noise": {"family": "laplace", "variance": 1.0}}


@pytest.mark.parametrize("overrides, param, values, header", [
    ({}, "power_jam", "1,2", "power_jam,verdict,jammer_variance,saddle_cost"),
    ({"task": "saddle", "trials": 10_000, "seed": 5}, "power_jam", "1,2",
     "power_jam,empirical_cost,std_error,theoretical_cost,z_score"),
    ({"task": "deviate", "trials": 10_000, "seed": 5}, "power_tx", "1,2",
     "power_tx,all_passed"),
    ({"task": "mmse"}, "order", "2,4", "order,mmse,mmse_poly,gap"),
    ({"task": "worst_noise", "seed": 3, "order": 4, "mixture_components": 2},
     "power_jam", "1,2", "power_jam,objective,mmse_attained"),
    ({"task": "asymptotic", "betas": [1.0], "direction": "low_csnr"}, "beta",
     "1,4", "beta,distance"),
    ({"task": "asymptotic", "betas": [1.0], "direction": "high_csnr",
      "game": _LAPLACE_NOISE_GAME}, "beta", "1,0.5",
     "beta,gaussian,laplace,uniform"),
], ids=["match", "saddle", "deviate", "mmse", "worst-noise", "asymptotic-low",
        "asymptotic-high"])
def test_sweep_csv_header_and_rows_per_task(tmp_path, overrides, param, values,
                                            header):
    path = write_spec(tmp_path, **overrides)
    out = tmp_path / "results"
    assert main(["sweep", str(path), "--param", param, "--values", values,
                 "--out", str(out)]) == 0
    rows = (out / f"unit-gauss_sweep_{param}.csv").read_text().splitlines()
    assert rows[0] == header
    assert [r.split(",")[0] for r in rows[1:]] == values.split(",")
    assert all(len(r.split(",")) == len(rows[0].split(",")) for r in rows)


def test_sweep_power_jam_matches_formula(tmp_path):
    path = write_spec(tmp_path, task="saddle", trials=10_000, seed=5)
    out = tmp_path / "results"
    code = main(["sweep", str(path), "--param", "power_jam",
                 "--values", "0.1,1,10", "--out", str(out)])
    assert code == 0
    rows = (out / "unit-gauss_sweep_power_jam.csv").read_text().strip().splitlines()
    assert rows[0].split(",")[0] == "power_jam"
    for line in rows[1:]:
        cells = line.split(",")
        pa, theo = float(cells[0]), float(cells[3])
        assert theo == pytest.approx((pa + 1.0) / (pa + 2.0), rel=1e-12)


def test_sweep_order_shrinks_gap(tmp_path):
    path = write_spec(tmp_path, task="mmse", game={
        "source": {"family": "uniform", "variance": 1.0},
        "channel_noise": {"family": "gaussian", "variance": 1.0},
        "power_tx": 1.0, "power_jam": 1.0,
    })
    out = tmp_path / "results"
    assert main(["sweep", str(path), "--param", "order",
                 "--values", "2,4,6", "--out", str(out)]) == 0
    rows = (out / "unit-gauss_sweep_order.csv").read_text().strip().splitlines()
    gaps = [float(r.split(",")[3]) for r in rows[1:]]
    assert gaps[0] > gaps[1] > gaps[2]


def test_sweep_rejects_bad_values(tmp_path):
    path = write_spec(tmp_path, task="saddle", trials=10_000, seed=5)
    assert main(["sweep", str(path), "--param", "power_jam",
                 "--values=-1,2", "--out", str(tmp_path / "r")]) == 1


def test_sweep_order_takes_whole_numbers_from_zero(tmp_path, capsys):
    path = write_spec(tmp_path, task="mmse")
    out = tmp_path / "results"
    assert main(["sweep", str(path), "--param", "order",
                 "--values", "0,2", "--out", str(out)]) == 0
    rows = (out / "unit-gauss_sweep_order.csv").read_text().strip().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["0", "2"]
    assert main(["sweep", str(path), "--param", "order",
                 "--values", "2.5", "--out", str(out)]) == 1
    assert "whole numbers" in capsys.readouterr().err


def test_sweep_beta_over_asymptotic_schedule(tmp_path):
    path = write_spec(tmp_path, task="asymptotic", betas=[1],
                      direction="low_csnr", game={
                          "source": {"family": "laplace", "variance": 1.0},
                          "channel_noise": {"family": "gaussian", "variance": 1.0},
                          "power_tx": 1.0, "power_jam": 1.0,
                      })
    out = tmp_path / "results"
    assert main(["sweep", str(path), "--param", "beta",
                 "--values", "1,4,16,64", "--out", str(out)]) == 0
    rows = (out / "unit-gauss_sweep_beta.csv").read_text().strip().splitlines()
    dist = [float(r.split(",")[1]) for r in rows[1:]]
    assert dist[0] > dist[1] > dist[2] > dist[3]


def test_sweep_beta_requires_feasible_jam_power(tmp_path):
    path = write_spec(tmp_path, task="saddle", trials=10_000, seed=5)
    # beta = 0.5 with var_N = 1, P_T = 1 would need negative jam power
    assert main(["sweep", str(path), "--param", "beta",
                 "--values", "0.5", "--out", str(tmp_path / "r")]) == 1


def test_sweep_csv_reruns_identical(tmp_path):
    path = write_spec(tmp_path, task="saddle", trials=10_000, seed=5)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        main(["sweep", str(path), "--param", "power_jam",
              "--values", "0.5,2", "--out", str(out)])
    assert (out_a / "unit-gauss_sweep_power_jam.csv").read_bytes() == \
        (out_b / "unit-gauss_sweep_power_jam.csv").read_bytes()


def test_sweep_applies_grid_flags_to_every_run(tmp_path):
    path = write_spec(tmp_path)
    out = tmp_path / "results"
    assert main(["sweep", str(path), "--param", "power_jam", "--values", "1,2",
                 "--grid-points", "2048", "--grid-halfwidth", "30",
                 "--out", str(out)]) == 0
    for v in ("1", "2"):
        manifest = json.loads(
            (out / f"unit-gauss_power_jam_{v}_result.json").read_text())
        assert manifest["environment"]["grid"] == {"half_width": 30.0,
                                                   "num_points": 2048}


# -- deviate and worst_noise tasks ---------------------------------------------------


def test_deviate_task_smoke(tmp_path):
    path = write_spec(tmp_path, task="deviate", trials=50_000, seed=19)
    out = tmp_path / "results"
    assert main(["run", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "unit-gauss_result.json").read_text())
    assert manifest["outputs"]["all_passed"] is True
    assert len(manifest["outputs"]["entries"]) == 6
    assert (out / "unit-gauss_deviations.csv").exists()


def test_deviate_violation_exits_two(tmp_path, monkeypatch):
    import jamlab.cli as cli
    from jamlab.gamesim import DeviationEntry, DeviationReport, SaddleOutcome

    def fake_rhs(cfg, trials, seed, **kw):
        out = SaddleOutcome(0.1, 1e-3, trials, cfg.saddle_cost)
        return DeviationReport(side="encoder", entries=(
            DeviationEntry("broken", out, bound=0.5, passed=False),))

    monkeypatch.setattr(cli, "verify_rhs_inequality", fake_rhs)
    path = write_spec(tmp_path, task="deviate", trials=10_000, seed=19)
    assert main(["run", str(path), "--out", str(tmp_path / "r")]) == 2


def test_deviate_plays_the_saddle_jammer_on_a_matched_game(tmp_path):
    # the matched uniform table's quadrature variance is 1.00367, over P_A by
    # more than the power tolerance; saddle_profile rescales it to P_A, and
    # the encoder-side deviations must play that same jammer
    game = {**_UNIT_GAME, "source": {"family": "uniform", "variance": 1.0},
            "channel_noise": {"family": "uniform", "variance": 1.0}}
    path = write_spec(tmp_path, task="deviate", trials=10_000, seed=1, game=game)
    out = tmp_path / "results"
    assert main(["run", str(path), "--out", str(out)]) == 0
    entries = json.loads((out / "unit-gauss_result.json").read_text())["outputs"]["entries"]
    assert len(entries) == 6 and all(e["passed"] for e in entries)


def test_worst_noise_task(tmp_path):
    path = write_spec(tmp_path, task="worst_noise", order=4, seed=3,
                      mixture_components=2)
    out = tmp_path / "results"
    assert main(["run", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "unit-gauss_result.json").read_text())
    assert manifest["outputs"]["objective"] < 1e-6
    outputs = manifest["outputs"]
    # a Gaussian source: its worst noise is Gaussian, at the linear bound
    assert outputs["mmse_attained"] == pytest.approx(outputs["linear_bound"], abs=1e-9)
    assert (out / "unit-gauss_worst_noise_density.csv").exists()


def test_strict_paper_flag_changes_decoder(tmp_path):
    path = write_spec(tmp_path, task="saddle", trials=100_000, seed=7, game={
        "source": {"family": "gaussian", "variance": 1.0},
        "channel_noise": {"family": "gaussian", "variance": 1.0},
        "power_tx": 2.0, "power_jam": 1.0,
    })
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", str(path), "--out", str(out_a)])
    main(["run", str(path), "--out", str(out_b), "--strict-paper"])
    cost = json.loads((out_a / "unit-gauss_result.json").read_text())
    strict = json.loads((out_b / "unit-gauss_result.json").read_text())
    # the literal gain is mismatched when P_T != var_X and costs more
    assert strict["outputs"]["empirical_cost"] > cost["outputs"]["empirical_cost"]
    assert abs(cost["outputs"]["z_score"]) < 4


# -- tabulated input --------------------------------------------------------------


def test_tabulated_source_from_csv(tmp_path):
    import jamlab as jl
    g = jl.GridSpec(12.0, 1024)
    f = jl.gaussian(1.0).pdf_on(g)
    lines = ["x,density"] + [f"{x:.17g},{v:.17g}" for x, v in zip(g.x, f)]
    (tmp_path / "density.csv").write_text("\n".join(lines))
    path = write_spec(tmp_path, game={
        "source": {"family": "tabulated", "path": "density.csv"},
        "channel_noise": {"family": "gaussian", "variance": 1.0},
        "power_tx": 1.0, "power_jam": 1.0,
    })
    out = tmp_path / "results"
    assert main(["run", str(path), "--out", str(out)]) == 0


# -- seeds, sigma and swept parameters ----------------------------------------------


@pytest.mark.parametrize("task, seed, flags", [
    ("saddle", -3, []), ("worst_noise", -3, []), ("deviate", -3, []),
    ("saddle", 1, ["--seed", "-5"]), ("saddle", 2.5, []),
], ids=["saddle", "worst-noise", "deviate", "seed-flag", "fractional"])
def test_seed_must_be_a_whole_number_from_zero(tmp_path, capsys, task, seed, flags):
    path = write_spec(tmp_path, task=task, trials=10_000, seed=seed)
    assert main(["run", str(path), "--out", str(tmp_path / "r"), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'seed'" in err, err


def test_rademacher_sigma_must_be_positive(tmp_path, capsys):
    path = write_spec(tmp_path, game={
        **_UNIT_GAME, "source": {"family": "rademacher", "sigma": -1.0}})
    assert main(["run", str(path), "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sigma" in err, err


_LAPLACE_GAME = {**_UNIT_GAME, "source": {"family": "laplace", "variance": 1.0}}


@pytest.mark.parametrize("overrides, param", [
    ({"task": "mmse", "game": _LAPLACE_GAME}, "power_jam"),
    ({"task": "match"}, "order"),
    ({"task": "saddle", "trials": 10_000, "seed": 1}, "order"),
    ({"task": "worst_noise", "seed": 1}, "power_tx"),
    ({"task": "asymptotic", "betas": [1.0], "direction": "low_csnr"}, "power_jam"),
], ids=["mmse", "match", "saddle", "worst-noise", "asymptotic-low"])
def test_sweep_over_a_parameter_the_task_ignores_is_refused(tmp_path, capsys,
                                                            overrides, param):
    path = write_spec(tmp_path, **overrides)
    out = tmp_path / "r"
    assert main(["sweep", str(path), "--param", param, "--values", "1,10",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{param}'" in err \
        and f"'{overrides['task']}'" in err, err
    assert not out.exists()


def test_sweep_power_jam_over_the_high_csnr_limit(tmp_path):
    path = write_spec(tmp_path, task="asymptotic", betas=[1.0],
                      direction="high_csnr", game={
                          **_UNIT_GAME, "channel_noise": {"family": "laplace",
                                                          "variance": 1.0}})
    out = tmp_path / "r"
    assert main(["sweep", str(path), "--param", "power_jam", "--values", "1,4",
                 "--out", str(out)]) == 0
    rows = (out / "unit-gauss_sweep_power_jam.csv").read_text().splitlines()
    assert len(rows) == 3 and rows[1].split(",")[1:] != rows[2].split(",")[1:]
