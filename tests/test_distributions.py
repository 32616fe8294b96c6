import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf, erfcinv

import jamlab as jl
from jamlab.distributions import _erfc_inverse, _InverseCdf
from jamlab.errors import MomentOverflow, NonZeroMean
from jamlab.matching import JammingGameConfig, synthesize_jammer

FAMILIES = {
    "gaussian": jl.gaussian,
    "laplace": jl.laplace,
    "uniform": jl.uniform,
}


def variances():
    return st.floats(0.25, 4.0, allow_nan=False)


# -- construction and invariants --------------------------------------------


@given(st.sampled_from(sorted(FAMILIES)), variances())
def test_variance_matches_parameters(name, v):
    d = FAMILIES[name](v)
    assert d.variance == pytest.approx(v, rel=1e-9)


def test_mixture_must_be_zero_mean():
    with pytest.raises(NonZeroMean, match="^mixture mean 0.75 violates"):
        jl.gaussian_mixture([0.5, 0.5], [1.0, 0.5], [1.0, 1.0])


def test_a_mixture_built_directly_is_zero_mean():
    # the rule runs when any mixture model is built, so one built without
    # ``gaussian_mixture`` cannot report a mean of 0 it does not have
    with pytest.raises(NonZeroMean, match="^mixture mean 0.5 violates"):
        jl.DistributionModel("gaussian_mixture", 1.0, components=((1.0, 0.5, 0.866),))


def test_mixture_variance_bookkeeping():
    d = jl.gaussian_mixture([0.25, 0.75], [3.0, -1.0], [0.5, 1.0])
    assert d.mean() == 0.0
    assert d.variance == pytest.approx(0.25 * (9 + 0.25) + 0.75 * (1 + 1))


def test_tabulated_rejects_bad_mass():
    g = jl.GridSpec(4.0, 64)
    f = np.ones(64)  # integrates to 8
    with pytest.raises(ValueError):
        jl.tabulated(g, f)


def test_tabulated_rejects_shifted_mean():
    g = jl.GridSpec(8.0, 256)
    f = jl.gaussian(1.0).pdf_at(g.x - 0.5)
    f = f / (f.sum() * g.dx)
    with pytest.raises(NonZeroMean):
        jl.tabulated(g, f)


def test_a_table_model_built_directly_is_zero_mean():
    # the zero-mean check runs when any table model is built, not only in
    # ``tabulated``, so the CF and estimation layers need not repeat it
    g = jl.GridSpec(8.0, 256)
    f = jl.gaussian(1.0).pdf_at(g.x - 0.5)
    with pytest.raises(NonZeroMean, match="^tabulated mean 0.5 violates"):
        jl.DistributionModel("tabulated", 1.25, grid=g, table=f / (f.sum() * g.dx))


def test_tabulated_records_the_smaller_of_its_minimum_and_zero():
    g = jl.GridSpec(12.0, 256)
    f = jl.gaussian(1.0).pdf_on(g)
    assert f.min() > 0.0
    assert jl.tabulated(g, f).negativity_floor == 0.0
    f[5] = f[-5] = -2e-7  # symmetric dips keep the mean at zero
    tab = jl.tabulated(g, f)
    assert tab.negativity_floor == -2e-7
    assert tab.table.min() == 0.0


def test_tabulated_cf_of_a_2d_frequency_array_is_the_flat_call():
    g = jl.GridSpec(12.0, 256)
    tab = jl.tabulated(g, jl.laplace(1.0).pdf_on(g))
    omega = np.linspace(-3.0, 3.0, 600).reshape(20, 30)
    got = tab.cf_at(omega)
    assert got.shape == (20, 30) and got.dtype == complex
    assert got.tobytes() == tab.cf_at(omega.ravel()).tobytes()
    point = tab.cf_at(0.5)
    assert point.shape == () and point == tab.cf_at([0.5])[0]


# -- cell-averaged tables ------------------------------------------------------


@given(st.sampled_from(sorted(FAMILIES)), variances())
@settings(max_examples=30)
def test_pdf_table_mass_is_exact(name, v):
    # mass is exact by construction; moments carry the O(dx^2) bias of any
    # piecewise-constant density representation
    d = FAMILIES[name](v)
    g = jl.default_grid(d, num_points=1024)
    f = d.pdf_on(g)
    assert np.all(f >= 0)
    assert f.sum() * g.dx == pytest.approx(1.0, abs=1e-10)
    assert np.sum(g.x * f) * g.dx == pytest.approx(0.0, abs=1e-11 * (1 + d.sigma))
    assert np.sum(g.x**2 * f) * g.dx == pytest.approx(v, rel=2e-3)


def test_uniform_table_exact_even_with_offgrid_edge():
    # support edge falls strictly inside a cell; overlap weighting keeps the
    # mass exact where sampled indicator values would be off at O(dx)
    d = jl.uniform(1.0)
    g = jl.GridSpec(10.0, 512)
    f = d.pdf_on(g)
    assert f.sum() * g.dx == pytest.approx(1.0, abs=1e-14)


def test_rademacher_table_is_two_atoms():
    d = jl.rademacher_scaled(1.0)
    g = jl.default_grid(d)
    f = d.pdf_on(g)
    hits = np.nonzero(f)[0]
    assert len(hits) == 2
    np.testing.assert_allclose(g.x[hits], [-1.0, 1.0], atol=1e-12)
    assert f.sum() * g.dx == pytest.approx(1.0)


def test_rademacher_atoms_outside_the_grid_put_no_mass_on_it():
    # both atoms past a +-2 grid: no mass, as tail_mass_outside reports
    d = jl.rademacher_scaled(5.0)
    g = jl.GridSpec(2.0, 256)
    assert d.pdf_on(g).sum() * g.dx == 0.0
    assert d.tail_mass_outside(g.half_width) == 1.0
    # the grid spans [-L, L): at sigma = L only the atom at -L is on it
    edge = jl.GridSpec(d.sigma, 256)
    f = d.pdf_on(edge)
    assert np.nonzero(f)[0].tolist() == [0]
    assert f.sum() * edge.dx == pytest.approx(0.5, abs=1e-15)


def test_default_grid_snaps_rademacher_atoms():
    d = jl.rademacher_scaled(0.7)
    g = jl.default_grid(d)
    k = 0.7 / g.dx
    assert k == pytest.approx(round(k), abs=1e-9)


# -- moments -----------------------------------------------------------------


def test_gaussian_moments():
    np.testing.assert_allclose(jl.moments(jl.gaussian(1.0), 4), [1, 0, 1, 0, 3])


def test_uniform_moments():
    np.testing.assert_allclose(jl.moments(jl.uniform(1.0), 4), [1, 0, 1, 0, 9 / 5])


def test_laplace_moments_quadrature_vs_closed_form():
    d = jl.laplace(1.0)
    g = jl.default_grid(d)
    tab = jl.tabulated(g, d.pdf_on(g))
    got = jl.moments(tab, 4)
    np.testing.assert_allclose(got, [1, 0, 1, 0, 6], rtol=1e-5, atol=1e-9)


def test_laplace_table_on_a_wide_grid_overflows_no_exp():
    # at x = 800, exp(x / b) for the branch np.where drops overflowed
    g = jl.GridSpec(800.0, 32768)
    with np.errstate(over="raise"):
        table = jl.laplace(1.0).pdf_on(g)
    b = 1.0 / math.sqrt(2.0)
    x = np.concatenate([g.x - g.dx / 2, [g.x[-1] + g.dx / 2]])
    with np.errstate(over="ignore"):
        cdf = np.where(x < 0, 0.5 * np.exp(x / b), 1.0 - 0.5 * np.exp(-x / b))
    assert table.tobytes() == (np.diff(cdf) / g.dx).tobytes()


def test_mixture_moments_match_quadrature():
    d = jl.gaussian_mixture([0.3, 0.7], [1.4, -0.6], [0.8, 1.1])
    g = jl.default_grid(d)
    tab = jl.tabulated(g, d.pdf_on(g))
    np.testing.assert_allclose(jl.moments(d, 8), jl.moments(tab, 8), rtol=5e-5, atol=1e-8)


def test_moment_order_cap():
    with pytest.raises(ValueError):
        jl.moments(jl.gaussian(1.0), 25)


@pytest.mark.parametrize("order", [-1, 2.5, 4.0])
def test_moment_order_must_be_a_whole_number_from_zero(order):
    with pytest.raises(ValueError, match="^moment order must be an integer in"):
        jl.moments(jl.gaussian(1.0), order)


def test_moment_order_may_be_a_numpy_integer():
    assert np.array_equal(jl.moments(jl.laplace(1.0), np.int64(4)),
                          jl.moments(jl.laplace(1.0), 4))


def test_moment_overflow_on_narrow_grid():
    d = jl.laplace(1.0)
    g = jl.GridSpec(6.0, 256)  # heavy tail chopped at the grid edge
    f = d.pdf_on(g)
    f[0] = 0.0  # drop the unpaired leftmost cell so the mean stays zero
    tab = jl.tabulated(g, f / (f.sum() * g.dx))
    with pytest.raises(MomentOverflow):
        jl.moments(tab, 12)


# -- sampling and scaling ------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: jl.gaussian(1.3),
    lambda: jl.laplace(0.8),
    lambda: jl.uniform(2.0),
    lambda: jl.rademacher_scaled(1.1),
    lambda: jl.gaussian_mixture([0.4, 0.6], [0.9, -0.6], [0.5, 1.0]),
])
def test_sampling_matches_first_two_moments(make):
    d = make()
    rng = np.random.default_rng(42)
    s = d.sample(rng, 200_000)
    assert s.mean() == pytest.approx(0.0, abs=5 * d.sigma / np.sqrt(len(s)))
    assert s.var() == pytest.approx(d.variance, rel=0.02)


def test_tabulated_sampling():
    d = jl.laplace(1.0)
    g = jl.default_grid(d)
    tab = jl.tabulated(g, d.pdf_on(g))
    rng = np.random.default_rng(7)
    s = tab.sample(rng, 400_000)
    assert s.var() == pytest.approx(1.0, rel=0.02)
    assert np.mean(np.abs(s) < 0.2) == pytest.approx(
        d.cdf_at(0.2) - d.cdf_at(-0.2), abs=0.01)


def _interp_reference(grid, table):
    """The CDF and edges that tabulated sampling inverted with np.interp."""
    cdf = np.cumsum(table) * grid.dx
    cdf = cdf / cdf[-1]
    return cdf, grid.x + grid.dx / 2


def _probes(cdf, bins):
    """0, the largest double below 1, every CDF node with both neighbours,
    the guide's bin edges near the nodes, and seeded uniforms."""
    near = np.concatenate([cdf, np.floor(cdf * bins) / bins])
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], near,
                        np.nextafter(near, 0.0), np.nextafter(near, 1.0),
                        np.random.default_rng(5).random(20_000)])
    return u[(u >= 0.0) & (u < 1.0)]


def _assert_draws_equal_interp(grid, table):
    cdf, edges = _interp_reference(grid, table)
    u = _probes(cdf, 8 * grid.num_points)
    got = _InverseCdf(grid, table)(u.copy())
    want = np.interp(u, cdf, edges)
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert bad.size == 0, (u[bad[:5]], got[bad[:5]], want[bad[:5]])


@lru_cache(maxsize=None)
def _matched_jammer(family):
    make = FAMILIES[family]
    result = synthesize_jammer(JammingGameConfig(make(1.0), make(1.0), 1.0, 1.0))
    assert result.matched, result.reason
    return result.jammer_density


@st.composite
def _run_tables(draw):
    """Tables of runs: zero stretches, ordinary cells, and subnormal cells
    whose CDF steps are too thin for a finite slope."""
    n = draw(st.sampled_from([64, 128]))
    level = st.one_of(st.just(0.0), st.floats(1e-3, 1e3),
                      st.floats(5e-324, 1e-300))
    runs = draw(st.lists(st.tuples(level, st.integers(1, 40)),
                         min_size=1, max_size=12))
    table = np.concatenate([np.full(k, v) for v, k in runs] + [np.zeros(n)])[:n]
    table[draw(st.integers(0, n - 1))] += draw(st.floats(1e-3, 1e3))
    return jl.GridSpec(half_width=draw(st.floats(0.5, 20.0)), num_points=n), table


@given(_run_tables())
@settings(max_examples=100, deadline=None)
def test_inverse_cdf_equals_interp_on_run_tables(case):
    _assert_draws_equal_interp(*case)


@pytest.mark.parametrize("cells", [[0], [31], [63], [20, 43], [0, 63]])
def test_inverse_cdf_equals_interp_on_atoms(cells):
    # one nonzero cell, or two atoms, with zero runs between
    g = jl.GridSpec(half_width=3.0, num_points=64)
    table = np.zeros(64)
    table[cells] = 1.0 / (len(cells) * g.dx)
    _assert_draws_equal_interp(g, table)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_inverse_cdf_equals_interp_on_matched_jammers(family):
    d = _matched_jammer(family)
    _assert_draws_equal_interp(d.grid, d.table)


def test_tabulated_sample_equals_interp_of_uniforms():
    d = _matched_jammer("laplace")
    cdf, edges = _interp_reference(d.grid, d.table)
    want = np.interp(np.random.default_rng(3).random(100_000), cdf, edges)
    for _ in range(2):  # the second call reuses the cached sampler
        got = d.sample(np.random.default_rng(3), 100_000)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_inverse_cdf_is_built_on_first_draw():
    d = jl.laplace(1.0)
    g = jl.default_grid(d)
    tab = jl.tabulated(g, d.pdf_on(g))
    assert "_inverse_cdf" not in vars(tab)
    tab.sample(np.random.default_rng(0), 10)
    assert "_inverse_cdf" in vars(tab)
    assert "_inverse_cdf" not in vars(tab.scaled(2.0))


@pytest.mark.parametrize("b", [0.1, 1 / math.sqrt(2.0), 3.3, 1e3])
def test_laplace_draws_are_generator_laplace_within_2_ulp(b):
    d = jl.laplace(2.0 * b * b)
    scale = d.sigma / math.sqrt(2.0)
    for seed in range(50):
        mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = d.sample(mine, 10_007)
        want = ref.laplace(0.0, scale, 10_007)
        # equal signs, so the int64 views differ by the ulp count
        assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 2
        assert mine.random() == ref.random()  # the same uniforms were used


class _Uniforms:
    """Generator stub: ``random(size)`` hands out ``values`` in order."""

    def __init__(self, values):
        self.values, self.used = np.array(values, dtype=float), 0

    def random(self, size):
        self.used += size
        return self.values[self.used - size:self.used].copy()


def test_laplace_redraws_a_zero_uniform_as_generator_laplace_does():
    # Generator.laplace skips a uniform of exactly 0, so every later draw
    # reads the next uniform
    rng = _Uniforms([0.3, 0.0, 0.7, 0.0, 0.0, 0.2, 0.5, 0.9, 0.25])
    got = jl.laplace(2.0).sample(rng, 5)
    assert rng.used == 8
    assert np.all(np.isfinite(got))
    want = [0.0 - math.log(2.0 - u - u) if u >= 0.5 else 0.0 + math.log(u + u)
            for u in (0.3, 0.7, 0.2, 0.5, 0.9)]  # Generator.laplace's formula
    assert np.abs(got.view(np.int64)
                  - np.array(want).view(np.int64)).max() <= 2
    assert not np.signbit(got[3])  # u = 1/2 gives 0 - log 1 = +0.0


@given(st.sampled_from(sorted(FAMILIES)), variances(), st.floats(0.5, 2.0))
def test_scaled_model(name, v, c):
    d = FAMILIES[name](v).scaled(c)
    assert d.variance == pytest.approx(v * c * c, rel=1e-12)


def test_scaled_tabulated_preserves_shape():
    d = jl.gaussian(1.0)
    g = jl.default_grid(jl.gaussian(4.0))
    tab = jl.tabulated(g, d.pdf_on(g)).scaled(1.5)
    assert tab.variance == pytest.approx(2.25, rel=1e-4)


# -- tails and grid defaults ----------------------------------------------------


def test_default_grid_floor_is_twelve_sigma():
    g = jl.default_grid(jl.gaussian(1.0), jl.gaussian(0.25))
    assert g.half_width == pytest.approx(12.0)


def test_default_grid_widens_for_heavy_tails():
    d = jl.laplace(2.0)
    g = jl.default_grid(d)
    assert g.half_width > 12 * d.sigma
    assert d.tail_mass_outside(g.half_width) < 1e-10


@given(st.sampled_from(sorted(FAMILIES)), variances())
@settings(max_examples=30)
def test_required_half_width_honours_tail_target(name, v):
    d = FAMILIES[name](v)
    L = d.required_half_width(1e-12)
    assert d.tail_mass_outside(L) <= 1.01e-12


# -- the standard-library normal CDF and tail quantile, scipy.special the oracle


@pytest.mark.parametrize("v", [0.25, 1.0, 3.0])
def test_normal_cdf_agrees_with_scipy_erf(v):
    d = jl.gaussian(v)
    x = np.linspace(-40.0, 40.0, 20_001) * d.sigma
    want = 0.5 * (1.0 + erf(x / np.sqrt(2.0 * v)))
    assert np.max(np.abs(d.cdf_at(x) - want)) <= 4.5e-16
    assert all(abs(d.cdf_at(t) - w) <= 4.5e-16 for t, w in zip(x[::500], want[::500]))


# targets of the sweep below where scipy.special.erfcinv is 3 ulp off the true
# root, with that root correctly rounded (40-digit mpmath): the Newton inverse
# is held to the root there, and to erfcinv within 2 ulp everywhere else
_ERFCINV_3_ULP_OFF = {
    9.8961628539218e-292: 25.811601306139902,
    6.209392957571027e-287: 25.596879916638137,
    7.948228391643307e-103: 15.224844053220533,
    0.015838918789970614: 1.705970262693198,
}


def test_tail_quantile_agrees_with_scipy_erfcinv():
    off = 0
    for t in np.geomspace(1e-300, 0.5, 2000).tolist():
        if t in _ERFCINV_3_ULP_OFF:
            off += 1
            assert _erfc_inverse(t) == _ERFCINV_3_ULP_OFF[t]
            continue
        want = float(erfcinv(t))
        assert abs(_erfc_inverse(t) - want) <= 2 * np.spacing(want)
    assert off == len(_ERFCINV_3_ULP_OFF)


def test_tail_quantile_is_within_an_ulp_of_the_true_root():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    targets = [2.7971160842323864e-297, 1.1746029462835426e-279, 1e-12,
               *_ERFCINV_3_ULP_OFF, *np.geomspace(1e-300, 0.5, 60)]
    for t in targets:
        root = float(mpmath.findroot(lambda z: mpmath.erfc(z) - mpmath.mpf(float(t)),
                                     float(erfcinv(t))))
        assert abs(_erfc_inverse(float(t)) - root) <= np.spacing(root)


@pytest.mark.parametrize("v", [0.01, 0.25, 1.0, 2.0, 9.0])
def test_gaussian_half_widths_keep_their_bits(v):
    d = jl.gaussian(v)
    want = float(d.sigma * math.sqrt(2.0) * erfcinv(1e-12))
    assert d.required_half_width(1e-12) == want
    assert jl.default_grid(d).half_width == max(12.0 * d.sigma, want)


_TAIL_FAMILIES = {
    "gaussian": jl.gaussian(1.0),
    "laplace": jl.laplace(1.0),
    "uniform": jl.uniform(1.0),
    "rademacher": jl.rademacher_scaled(1.0),
    "mixture": jl.gaussian_mixture([0.3, 0.7], [-0.7, 0.3], [0.5, 1.0]),
    "tabulated": jl.tabulated(jl.GridSpec(12.0, 256),
                              jl.gaussian(1.0).pdf_on(jl.GridSpec(12.0, 256))),
}


@pytest.mark.parametrize("name", sorted(_TAIL_FAMILIES))
def test_bad_tail_inputs_raise_value_error(name):
    d = _TAIL_FAMILIES[name]
    for t in (0.0, 1.0, 1.5, -0.5, float("nan")):
        with pytest.raises(ValueError, match="tail target"):
            d.required_half_width(t)
    for L in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="half-width"):
            d.tail_mass_outside(L)
    assert type(d.required_half_width(1e-12)) is float
    assert 0.0 <= d.tail_mass_outside(0.0) <= 1.0


@pytest.mark.parametrize("sigma", [-2.0, 0.0, float("inf"), float("nan")])
def test_rademacher_sigma_must_be_finite_and_positive(sigma):
    with pytest.raises(ValueError, match="sigma"):
        jl.rademacher_scaled(sigma)
