import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import jamlab as jl
from jamlab.errors import PreconditionViolated, ZeroCrossing
from jamlab.matching import (JammingGameConfig, asymptotic_gaussianization,
                             gaussian_source_limit_check,
                             identical_distribution_check, synthesize_jammer)


def unit_gaussian_cfg(power_tx=1.0, power_jam=1.0):
    return JammingGameConfig(jl.gaussian(1.0), jl.gaussian(1.0),
                             power_tx, power_jam)


# -- config bookkeeping ----------------------------------------------------------


def test_derived_quantities():
    cfg = JammingGameConfig(jl.gaussian(2.0), jl.gaussian(0.5), 4.0, 1.5)
    assert cfg.beta == pytest.approx((1.5 + 0.5) / 4.0)
    assert cfg.alpha_t == pytest.approx(math.sqrt(2.0))
    assert cfg.saddle_cost == pytest.approx(2.0 * 2.0 / 6.0)
    assert cfg.linear_bound == cfg.saddle_cost


@given(st.floats(0.3, 3.0), st.floats(0.3, 3.0), st.floats(0.3, 3.0))
def test_beta_recomputes_exactly(pt, pa, sn2):
    cfg = JammingGameConfig(jl.gaussian(1.0), jl.gaussian(sn2), pt, pa)
    assert cfg.beta == (pa + sn2) / pt


def test_rejects_nonpositive_powers():
    with pytest.raises(ValueError):
        JammingGameConfig(jl.gaussian(1.0), jl.gaussian(1.0), 0.0, 1.0)
    with pytest.raises(ValueError):
        JammingGameConfig(jl.gaussian(1.0), jl.gaussian(1.0), 1.0, -2.0)


# -- synthesize_jammer -----------------------------------------------------------


def test_gaussian_pair_matches_gaussian_jammer():
    cfg = unit_gaussian_cfg()
    got = synthesize_jammer(cfg)
    assert got.matched
    want = jl.cf_of(jl.gaussian(1.0), got.jammer_cf.grid)
    assert jl.sup_distance(got.jammer_cf, want) < 1e-6
    assert got.jammer_variance == pytest.approx(1.0, rel=1e-4)


def test_laplace_identical_pair_reproduces_laplace():
    cfg = JammingGameConfig(jl.laplace(1.0), jl.laplace(1.0), 1.0, 1.0)
    got = synthesize_jammer(cfg)
    assert got.matched
    want = jl.cf_of(jl.laplace(1.0), got.jammer_cf.grid)
    assert jl.sup_distance(got.jammer_cf, want) < 1e-6
    assert got.jammer_variance == pytest.approx(1.0, rel=1e-4)


def test_rademacher_source_no_match():
    # exponent 1.5 of a cosine CF: zero crossings / genuine negativity
    cfg = JammingGameConfig(jl.rademacher_scaled(1.0), jl.gaussian(1.0), 1.0, 0.5)
    assert cfg.beta == pytest.approx(1.5)
    got = synthesize_jammer(cfg)
    assert not got.matched
    assert got.reason
    assert got.jammer_density is None
    assert math.isnan(got.jammer_variance)


def test_strict_mode_propagates_zero_crossing():
    cfg = JammingGameConfig(jl.rademacher_scaled(1.0), jl.gaussian(1.0), 1.0, 0.5)
    with pytest.raises(ZeroCrossing):
        synthesize_jammer(cfg, strict=True)


def test_synthesis_is_deterministic():
    cfg = JammingGameConfig(jl.laplace(1.0), jl.gaussian(1.0), 1.3, 0.7)
    a = synthesize_jammer(cfg)
    b = synthesize_jammer(cfg)
    assert np.array_equal(a.jammer_cf.values, b.jammer_cf.values)
    assert a.verdict == b.verdict


def test_matched_product_recovers_numerator():
    # wherever untruncated, jammer_cf * F_N equals the powered source CF
    cfg = JammingGameConfig(jl.laplace(1.0), jl.laplace(1.0), 1.0, 1.0)
    got = synthesize_jammer(cfg)
    grid = got.jammer_cf.grid
    fn = jl.cf_of(jl.laplace(1.0), grid)
    back = jl.cf_multiply(got.jammer_cf, fn)
    num = jl.cf_power(jl.cf_of(cfg.source.scaled(cfg.alpha_t), grid), cfg.beta)
    keep = np.abs(fn.values) >= 1e-8
    assert np.max(np.abs(back.values[keep] - num.values[keep])) < 1e-8


@settings(max_examples=15, deadline=None)
@given(st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.5, 2.0))
def test_matched_variance_meets_budget(pt, pa, sn2):
    cfg = JammingGameConfig(jl.gaussian(1.0), jl.gaussian(sn2), pt, pa)
    got = synthesize_jammer(cfg)
    assert got.matched  # Gaussian/Gaussian matches at every power level
    assert got.jammer_variance == pytest.approx(pa, rel=1e-4)


# -- identical-distribution special case --------------------------------------------


def test_identical_laplace_check():
    cfg = JammingGameConfig(jl.laplace(1.0), jl.laplace(1.0), 1.0, 1.0)
    assert identical_distribution_check(cfg) is True


def test_identical_gaussian_check():
    cfg = unit_gaussian_cfg()
    assert identical_distribution_check(cfg) is True


def test_identical_uniform_check_runs_battery():
    # uniform CFs have zeros: quotient truncation applies; either verdict is
    # acceptable, the point is that the battery decides and nothing raises
    cfg = JammingGameConfig(jl.uniform(1.0), jl.uniform(1.0), 1.0, 1.0)
    verdict = identical_distribution_check(cfg)
    assert verdict in (True, False)


def test_identical_check_guards_preconditions():
    cfg = JammingGameConfig(jl.laplace(1.0), jl.laplace(1.0), 1.0, 2.0)
    with pytest.raises(PreconditionViolated):
        identical_distribution_check(cfg)
    cfg2 = JammingGameConfig(jl.laplace(1.0), jl.gaussian(1.0), 1.0, 1.0)
    with pytest.raises(PreconditionViolated):
        identical_distribution_check(cfg2)



# -- bit pins of the CF layer ----------------------------------------------------


def _sha1(array):
    return hashlib.sha1(np.ascontiguousarray(array).tobytes()).hexdigest()


def _game(source, noise, power_tx, power_jam, num_points=2048):
    cfg = JammingGameConfig(source, noise, power_tx, power_jam)
    return synthesize_jammer(cfg, cfg.grid_for(num_points))


def _tabulated_laplace_game():
    # the source table lives on the synthesis grid, so cf_of and the density
    # both take the FFT path
    grid = JammingGameConfig(jl.laplace(1.0), jl.laplace(1.0), 1.0,
                             1.0).grid_for(2048)
    source = jl.tabulated(grid, jl.laplace(1.0).pdf_on(grid))
    return synthesize_jammer(
        JammingGameConfig(source, jl.laplace(1.0), 1.0, 2.0), grid)


# recorded before the branch tracking of cf_power stopped calling np.unwrap;
# a refactor of charfun keeps these bits
CF_LAYER_PINS = {
    # the uniform sinc changes sign: phase steps of exactly pi
    "uniform-source": (
        lambda: _game(jl.uniform(1.0), jl.laplace(1.0), 1.0, 0.5),
        "no_match", False, "d5f2183ea46e2fb451a1e142f0009f068a4df4f5", None),
    # twelve genuine 2*pi corrections, then truncation where the CF underflows
    "mixture-source": (
        lambda: _game(jl.gaussian_mixture((0.3, 0.7), (0.7, -0.3), (0.3, 0.4)),
                      jl.laplace(1.0), 1.0, 1.0),
        "no_match", True, "07f50a6b12b542d3ce844fcdf458c320160be6ac", None),
    "tabulated-source": (
        _tabulated_laplace_game,
        "matched", False, "cfd82ddc2e3758f23d91b6e2e104c6e12f3074ad",
        "279fee623897cbd630e0a102d60b46f2937c8d6f"),
    "gaussian-gaussian": (
        lambda: _game(jl.gaussian(1.0), jl.gaussian(1.0), 1.0, 3.0),
        "matched", True, "f684fa652c16f37b5d3087bfbd2b87c8177e5929",
        "764d2c7858f58d14efafe9ea10d7a6e6ca50780c"),
    "laplace-laplace": (
        lambda: _game(jl.laplace(1.0), jl.laplace(1.0), 1.0, 1.0),
        "matched", False, "84d622f21d7edea0f345d997ddad45bb4f2ed0f9",
        "5a30c583fbc9edee9858ff702e782ef894805d2c"),
}


@pytest.mark.parametrize("case", sorted(CF_LAYER_PINS))
def test_synthesis_bits_pinned(case):
    run, verdict, truncated, cf_sha, table_sha = CF_LAYER_PINS[case]
    res = run()
    assert (res.verdict, res.jammer_cf.truncated) == (verdict, truncated)
    assert _sha1(res.jammer_cf.values) == cf_sha
    table = res.jammer_density.table if res.matched else None
    assert (None if table is None else _sha1(table)) == table_sha


def test_truncated_rademacher_root_bits_pinned():
    # the root hits the floor before the grid edge, so the unpaired left
    # edge is zeroed instead of walked
    d = jl.rademacher_scaled(1.0)
    got = jl.cf_power(jl.cf_of(d, jl.default_grid(d, num_points=2048)), 0.5)
    assert got.truncated and got.values[0] == 0
    assert _sha1(got.values) == "8a6c86197e6b17a6d054b708dff48b3d3916d4c2"

# -- asymptotics -----------------------------------------------------------------


def test_laplace_gaussianization_decreasing():
    out = asymptotic_gaussianization(jl.laplace(1.0), [1, 4, 16, 64])
    dists = [d for _, d in out]
    assert all(b > a for a, b in zip(dists[1:], dists[:-1]))


def test_uniform_gaussianization_decreasing():
    out = asymptotic_gaussianization(jl.uniform(1.0), [2, 8, 32])
    dists = [d for _, d in out]
    assert dists[0] > dists[1] > dists[2]


def test_gaussian_source_is_fixed_point():
    out = asymptotic_gaussianization(jl.gaussian(1.7), [1, 3, 9])
    assert all(d < 1e-9 for _, d in out)


def test_schedule_validation():
    with pytest.raises(ValueError):
        asymptotic_gaussianization(jl.laplace(1.0), [4, 1])
    with pytest.raises(ValueError):
        gaussian_source_limit_check(jl.laplace(1.0), [0.25, 1.0])


def test_gaussian_source_limit_decreasing():
    out = gaussian_source_limit_check(jl.laplace(1.0), [1.0, 0.25, 0.0625])
    for fam in ("gaussian", "laplace", "uniform"):
        d = [row[fam] for _, row in out]
        assert d[0] > d[1] > d[2], fam


def test_gaussian_source_limit_all_gaussian_identity():
    out = gaussian_source_limit_check(jl.gaussian(1.0), [1.0, 0.5, 0.125])
    assert all(row["gaussian"] < 1e-9 for _, row in out)
