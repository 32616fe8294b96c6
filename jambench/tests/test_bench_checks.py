import math
from types import SimpleNamespace

import numpy as np

import checks as ck
import jamlab as jl
from worker import run_pass
from workloads import Deviate, MatchMap


def test_failed_operations_are_the_named_faults(tmp_path):
    workload = MatchMap(jl, 0, tmp_path)
    state = {"attempted": 0, "failed": 0, "failures": {}, "digests": {},
             "errors": []}
    run_pass(workload, "0", state)
    failed = {workload.ops[i]: why
              for i, why in state["failures"].items()}
    assert state["attempted"] == 1200
    assert state["errors"] == []
    assert set(failed) == {
        ("uniform", "uniform", 1.0, 1.0, 2048),
        ("rademacher", "rademacher", 1.0, 3.0, 2048),
        ("rademacher", "rademacher", 1.0, 10.0, 2048),
        ("rademacher", "rademacher", 1.0, 10.0, 4096),
        ("rademacher", "rademacher", 1.0, 10.0, 8192),
        ("gaussian", "gaussian", 10.0, 0.1, 2048),
        ("gaussian", "gaussian", 10.0, 0.1, 4096),
        ("gaussian", "gaussian", 10.0, 0.1, 8192),
    }
    assert state["failed"] == 8
    for op, why in failed.items():
        cause = "no_match where a match exists" if op[0] == "gaussian" else "NonZeroMean"
        assert why.startswith(f"{workload.describe(op)}: {cause}")


def _shifted_result(result, shift):
    cf = SimpleNamespace(grid=result.jammer_cf.grid,
                         values=result.jammer_cf.values + shift)
    return SimpleNamespace(matched=True, jammer_cf=cf,
                           jammer_density=result.jammer_density,
                           jammer_variance=result.jammer_variance)


def test_identical_pair_check_rejects_a_shifted_laplace_cf(tmp_path):
    workload = MatchMap(jl, 0, tmp_path)
    op = ("laplace", "laplace", 1.0, 1.0, 4096)
    result = workload.run(op)
    assert workload.check(op, result) == []
    errors = workload.check(op, _shifted_result(result, 2e-2))
    assert len(errors) == 1 and "CF off by 0.02" in errors[0]


def test_variance_check_rejects_a_jammer_variance_off_by_1e_3(tmp_path):
    workload = MatchMap(jl, 0, tmp_path)
    op = ("gaussian", "gaussian", 1.0, 3.0, 4096)
    result = workload.run(op)
    assert workload.check(op, result) == []
    wrong = SimpleNamespace(**{**vars(_shifted_result(result, 0.0)),
                               "jammer_variance": 3.0 + 1e-3})
    errors = workload.check(op, wrong)
    assert len(errors) == 1 and "variance" in errors[0]
    assert ck.variance_close(1.0 + 1e-3, 1.0, "x") is not None
    assert ck.variance_close(1.0 + 1e-5, 1.0, "x") is None


def test_monte_carlo_checks_reject_a_cost_5_se_off():
    se = 1e-3
    cost = ck.exploit_cost(1.0, 1.0, 1.0, 1.0, 0.7, 1.0)
    assert ck.within_se(cost + 3 * se, cost, se, "x") is None
    assert ck.within_se(cost + 5 * se, cost, se, "x") is not None
    assert ck.within_se(cost - 5 * se, cost, se, "x") is not None
    saddle = ck.saddle_cost(1.0, 1.0, 1.0, 1.0)
    assert ck.at_least(saddle - 5 * se, saddle, se, "x") is not None
    assert ck.at_most(saddle + 5 * se, saddle, se, "x") is not None


def test_deviate_check_rejects_an_exploit_cost_5_se_off(tmp_path):
    workload = Deviate(jl, 7, tmp_path)
    op = next(o for o in workload.ops if o[1] == "exploit" and o[3] == 0.5)
    expected = ck.exploit_cost(1.0, 1.0, 1.0, 1.0, Deviate.RHO, 0.5)
    se = 1e-3

    def report(cost):
        outcome = SimpleNamespace(empirical_cost=cost, std_error=se,
                                  trials=Deviate.TRIALS)
        return SimpleNamespace(entries=[SimpleNamespace(outcome=outcome)])

    assert workload.check(op, report(expected + 2 * se)) == []
    assert len(workload.check(op, report(expected + 5 * se))) == 1


def test_exploit_closed_form_matches_the_saddle_at_p_half():
    # at p = 1/2 the correlation cross terms cancel: the saddle cost returns
    for rho in (0.0, 0.3, 0.7):
        assert math.isclose(ck.exploit_cost(1.0, 1.0, 1.0, 1.0, rho, 0.5),
                            ck.saddle_cost(1.0, 1.0, 1.0, 1.0), rel_tol=1e-12)


def test_table_cf_matches_the_gaussian_closed_form():
    x = ck.signal_grid(12.0, 1024)
    table = np.exp(-x * x / 2) / math.sqrt(2 * math.pi)
    omega = ck.frequency_grid(12.0, 1024)[::16]
    got = ck.table_cf(table, x, omega)
    assert ck.cf_close(got, ck.closed_form_cf("gaussian", 1.0, omega), 1e-9, "x") is None
