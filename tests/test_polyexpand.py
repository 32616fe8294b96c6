import math
import re
import warnings

import numpy as np
import pytest
from scipy import fft as sfft

import jamlab as jl
from jamlab import polyexpand
from jamlab.errors import (BasisMismatch, GridTooNarrow, IllConditioned,
                           InfeasibleFamily, UnstableIntegration)
from jamlab.estimation import (_DENSITY_FLOOR, _floored_ratio,
                               convolve_tables, linear_benchmark,
                               mmse_estimator, output_density)
from jamlab.polyexpand import (GaussianMixtureFamily, GridTableFamily,
                               _match_moments, _mixture_objective,
                               _mixture_table, _quasi_newton, _search_energy,
                               _TableEnergy, _unpack_mixture,
                               build_basis, expansion_coeffs,
                               mmse_via_expansion, noise_from_estimator,
                               worst_noise_search)


def fu_model(source, noise, grid=None):
    g = grid or jl.default_grid(source, noise)
    return jl.tabulated(g, output_density(source, noise, g)), g


# -- basis construction ------------------------------------------------------------


def test_hermite_under_standard_gaussian():
    g = jl.default_grid(jl.gaussian(1.0))
    basis = build_basis(jl.tabulated(g, jl.gaussian(1.0).pdf_on(g)), 4)
    hermite = {0: [1], 1: [0, 1], 2: [-1, 0, 1], 3: [0, -3, 0, 1],
               4: [3, 0, -6, 0, 1]}
    for m, coeffs in hermite.items():
        want = np.array(coeffs, dtype=float) / math.sqrt(math.factorial(m))
        np.testing.assert_allclose(basis.poly_coeffs[m][:m + 1], want, atol=1e-10)
    assert basis.gram_residual < 1e-10


def test_legendre_under_uniform():
    g = jl.default_grid(jl.uniform(1.0))
    basis = build_basis(jl.tabulated(g, jl.uniform(1.0).pdf_on(g)), 3)
    a = math.sqrt(3.0)
    pts = np.linspace(-a, a, 41)
    legendre = [np.polynomial.legendre.Legendre.basis(m) for m in range(4)]
    for m in range(4):
        want = math.sqrt(2 * m + 1) * legendre[m](pts / a)
        got = np.polynomial.polynomial.polyval(pts, basis.poly_coeffs[m])
        np.testing.assert_allclose(got, want, atol=2e-5)


def test_first_two_polynomials_are_canonical():
    m, g = fu_model(jl.laplace(1.0), jl.gaussian(1.0))
    basis = build_basis(m, 6)
    np.testing.assert_allclose(basis.poly_coeffs[0], [1] + [0] * 6, atol=1e-9)
    sigma_u = math.sqrt(m.variance)
    assert basis.poly_coeffs[1][1] == pytest.approx(1 / sigma_u, rel=1e-6)
    assert basis.poly_coeffs[1][0] == pytest.approx(0.0, abs=1e-8)
    # leading coefficients positive, degree m exactly
    for row in range(7):
        assert basis.poly_coeffs[row][row] > 0
        assert np.all(basis.poly_coeffs[row][row + 1:] == 0)


def test_mixed_output_gram_residual():
    m, _ = fu_model(jl.laplace(1.0), jl.gaussian(1.0))
    basis = build_basis(m, 6)
    assert basis.gram_residual < 1e-6


def test_order_cap_and_conditioning_gate():
    m, _ = fu_model(jl.laplace(1.0), jl.gaussian(1.0))
    with pytest.raises(ValueError):
        build_basis(m, 13)
    with pytest.raises(IllConditioned):
        build_basis(m, 12)


@pytest.mark.parametrize("order", [2.5, -1, 4.0])
def test_basis_order_must_be_an_integer_in_range(order):
    m, _ = fu_model(jl.laplace(1.0), jl.gaussian(1.0))
    with pytest.raises(ValueError, match="^order must be an integer in \\[0, 12\\]"):
        build_basis(m, order)
    with pytest.raises(ValueError, match="^order must be an integer"):
        mmse_via_expansion(jl.laplace(1.0), jl.gaussian(1.0), order)


def test_basis_order_may_be_a_numpy_integer():
    m, _ = fu_model(jl.laplace(1.0), jl.gaussian(1.0))
    assert np.array_equal(build_basis(m, np.int64(4)).values,
                          build_basis(m, 4).values)


def test_two_atom_measure_is_degenerate():
    d = jl.rademacher_scaled(1.0)
    g = jl.default_grid(d)
    with pytest.raises(IllConditioned):
        build_basis(jl.tabulated(g, d.pdf_on(g)), 5)


# -- expansion coefficients -----------------------------------------------------------


def test_zero_mean_kills_c0():
    for source, noise in [(jl.gaussian(1.0), jl.gaussian(1.0)),
                          (jl.laplace(1.0), jl.gaussian(0.5)),
                          (jl.uniform(1.0), jl.laplace(1.0))]:
        m, g = fu_model(source, noise)
        co = expansion_coeffs(source, noise, build_basis(m, 4))
        assert abs(co.c[0]) < 1e-8, (source.kind, noise.kind)


def test_c1_closed_form():
    for source, noise in [(jl.gaussian(1.0), jl.gaussian(1.0)),
                          (jl.laplace(1.0), jl.gaussian(2.0)),
                          (jl.uniform(1.0), jl.laplace(0.5))]:
        m, g = fu_model(source, noise)
        co = expansion_coeffs(source, noise, build_basis(m, 3))
        want = math.sqrt(source.variance / (source.variance + noise.variance))
        assert co.c[1] == pytest.approx(want, abs=1e-5), (source.kind, noise.kind)


def test_gaussian_pair_is_purely_linear():
    m, _ = fu_model(jl.gaussian(1.0), jl.gaussian(1.0))
    co = expansion_coeffs(jl.gaussian(1.0), jl.gaussian(1.0), build_basis(m, 6))
    assert float(np.sum(co.c[2:] ** 2)) < 1e-8
    assert co.mmse_poly == pytest.approx(0.5, abs=1e-6)


def test_basis_mismatch_detected():
    m, g = fu_model(jl.gaussian(1.0), jl.gaussian(1.0))
    basis = build_basis(m, 4)
    with pytest.raises(BasisMismatch):
        expansion_coeffs(jl.laplace(1.0), jl.gaussian(1.0), basis)


def test_matched_pair_has_no_higher_coefficients():
    # identically distributed pair at unit SNR: estimator exactly linear
    m, _ = fu_model(jl.laplace(1.0), jl.laplace(1.0))
    co = expansion_coeffs(jl.laplace(1.0), jl.laplace(1.0), build_basis(m, 6))
    assert np.max(np.abs(co.c[2:])) < 1e-5


# -- expansion MMSE ------------------------------------------------------------------


def test_gaussian_gap_vanishes_at_order_two():
    _, gap = mmse_via_expansion(jl.gaussian(1.0), jl.gaussian(1.0), 2)
    assert gap < 1e-6


def test_uniform_gaps_shrink_with_order():
    gaps = [mmse_via_expansion(jl.uniform(1.0), jl.gaussian(1.0), m)[1]
            for m in (2, 4, 6)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_laplace_gap_small_at_order_six():
    _, gap = mmse_via_expansion(jl.laplace(1.0), jl.gaussian(1.0), 6)
    assert gap < 1e-3


def test_parseval_bound_and_monotone_energy():
    source, noise = jl.uniform(1.0), jl.gaussian(1.0)
    m, g = fu_model(source, noise)
    curve = mmse_estimator(source, noise, g)
    fu = output_density(source, noise, g)
    eh2 = float(np.sum(curve.values**2 * fu) * g.dx)
    energies = []
    for order in (1, 2, 3, 4, 5, 6):
        co = expansion_coeffs(source, noise, build_basis(m, order))
        energy = float(co.c @ co.c)
        energies.append(energy)
        assert energy <= eh2 + 1e-12
        assert eh2 <= source.variance + 1e-9
    assert all(b >= a - 1e-15 for a, b in zip(energies, energies[1:]))


# -- worst-case noise search -----------------------------------------------------------


def test_gaussian_source_recovers_gaussian_noise():
    res = worst_noise_search(jl.gaussian(1.0), 1.0, 6,
                             GaussianMixtureFamily(2), seed=3)
    assert res.objective < 1e-8
    assert res.mmse_attained == pytest.approx(0.5, abs=1e-3)
    assert res.noise.variance == pytest.approx(1.0, rel=1e-6)
    g = jl.default_grid(jl.gaussian(1.0), num_points=2048)
    dist = np.max(np.abs(res.noise.cf_at(g.omega) - jl.gaussian(1.0).cf_at(g.omega)))
    assert dist < 1e-2


def test_laplace_source_reaches_matching_energy():
    res = worst_noise_search(jl.laplace(1.0), 1.0, 6,
                             GaussianMixtureFamily(3), seed=0)
    assert res.objective < 1e-3
    assert res.mmse_attained <= linear_benchmark(1.0, 1.0) + 1e-4
    assert res.noise.variance == pytest.approx(1.0, rel=1e-6)


def test_rademacher_source_regression_baseline():
    # no matching noise exists at this budget; the search settles at a
    # strictly positive energy with MMSE below the linear benchmark.
    # frozen from a converged reference run of this implementation.
    res = worst_noise_search(jl.rademacher_scaled(1.0), 0.5, 6,
                             GaussianMixtureFamily(3), seed=1, maxfev=4000)
    assert res.converged
    assert res.objective == pytest.approx(0.0833, abs=3e-3)
    assert res.mmse_attained == pytest.approx(0.2500, abs=3e-3)
    assert res.mmse_attained < linear_benchmark(1.0, 0.5) - 0.05
    # the exact result of this search, so that a change to its arithmetic shows
    assert res.objective == pytest.approx(0.08333333338439775, rel=1e-12)
    assert res.mmse_attained == pytest.approx(0.24999999994895594, rel=1e-12)
    assert res.iterations == 2583


def test_search_optimum_beats_random_probe():
    # 100 random mixtures at the budget, scored through the public API on one
    # grid: none reaches the MMSE of the noise the search returns.  With c_0
    # and c_1 fixed at a budget, a higher MMSE is a lower search objective.
    source, budget, family = jl.rademacher_scaled(1.0), 0.5, GaussianMixtureFamily(3)
    res = worst_noise_search(source, budget, 6, family, seed=1)
    grid = jl.default_grid(source, source.scaled(math.sqrt(budget)),
                           num_points=2048)
    best = mmse_estimator(source, res.noise, grid).mmse
    rng = np.random.default_rng(42)
    for _ in range(100):
        mixture = _unpack_mixture(rng.normal(0.0, 0.7, family.parameter_count),
                                  family.k, budget, 2.0 * grid.dx)
        if mixture is not None:
            noise = jl.gaussian_mixture(*mixture)
            assert mmse_estimator(source, noise, grid).mmse <= best + 1e-9


def test_capped_mixture_search_regression_pin():
    # the benchmark's mixture search: no restart reaches its cap
    res = worst_noise_search(jl.laplace(1.0), 1.0, 6, GaussianMixtureFamily(3),
                             seed=1, maxfev=300)
    assert res.objective == pytest.approx(4.287719781992383e-05, rel=1e-12)
    assert res.mmse_attained == pytest.approx(0.49996470773146684, rel=1e-12)
    assert res.iterations == 329


def _rosenbrock(x):
    """Rosenbrock's function and its gradient."""
    g = np.zeros_like(x)
    g[:-1] = -400.0 * x[:-1] * (x[1:] - x[:-1]**2) - 2.0 * (1.0 - x[:-1])
    g[1:] += 200.0 * (x[1:] - x[:-1]**2)
    return float(np.sum(100.0 * (x[1:] - x[:-1]**2)**2 + (1.0 - x[:-1])**2)), g


@pytest.mark.parametrize("x0", [[-1.2, 1.0], [0.05, 1.5, 0.02]])
def test_quasi_newton_reaches_the_rosenbrock_minimum(x0):
    x, fx, nfev, converged = _quasi_newton(_rosenbrock, np.array(x0), 2000)
    assert converged and nfev < 100
    assert fx < 1e-12
    assert np.max(np.abs(x - 1.0)) < 1e-5


def test_quasi_newton_stopped_at_its_cap_has_not_converged():
    calls = []

    def counted(x):
        calls.append(x)
        return _rosenbrock(x)
    x0 = np.array([-1.2, 1.0])
    x, fx, nfev, converged = _quasi_newton(counted, x0, 10)
    assert (nfev, len(calls), converged) == (10, 10, False)
    assert fx == _rosenbrock(x)[0] < _rosenbrock(x0)[0]


@pytest.mark.parametrize("maxfev, nfev, converged", [(5, 5, False), (100, 21, True)])
def test_a_line_search_that_finds_no_lower_point_ends_the_search(maxfev, nfev,
                                                                 converged):
    # the gradient's sign is wrong, so f rises along every search direction
    x0 = np.array([1.0, 0.0])
    got = _quasi_newton(lambda x: (float(x @ x), -x), x0, maxfev)
    assert got[0].tobytes() == x0.tobytes()
    assert got[1:] == (1.0, nfev, converged)


def test_quasi_newton_never_returns_a_point_where_the_objective_is_inf():
    # the unconstrained minimum (-1, 2, 0.5) lies in the inf half-space x_0 < 0
    values = []

    def fun(x):
        d = x - np.array([-1.0, 2.0, 0.5])
        values.append(math.inf if x[0] < 0.0 else float(d @ d))
        return values[-1], 2.0 * d
    x, fx, nfev, _ = _quasi_newton(fun, np.array([0.3, 0.1, 2.0]), 500)
    assert nfev == len(values) and math.isinf(max(values))
    assert x[0] >= 0.0 and fx == min(values) == fun(x)[0]


@pytest.mark.parametrize("source, budget", [
    (jl.laplace(1.0), 1.0), (jl.uniform(1.0), 1.0), (jl.rademacher_scaled(1.0), 0.5)],
    ids=["laplace", "uniform", "rademacher"])
def test_mixture_gradient_matches_central_differences(source, budget):
    grid, energy = _search_energy(source, budget, None)
    rng = np.random.default_rng(5)
    eps = 1e-6
    for _ in range(3):
        params = rng.normal(0.0, 0.7, 8)
        value, grad = _mixture_objective(params, 3, budget, energy, grid)
        assert math.isfinite(value)
        fd = np.array([(_mixture_objective(params + eps * e, 3, budget, energy, grid)[0]
                        - _mixture_objective(params - eps * e, 3, budget, energy, grid)[0])
                       / (2 * eps) for e in np.eye(8)])
        assert np.max(np.abs(grad - fd)) <= 1e-5 * np.max(np.abs(fd))


def test_a_mixture_with_mass_off_the_grid_scores_inf():
    # nearly all of the variance sits in a component of weight 1.1e-4 at
    # mean 67.4, outside the +-12.05 grid, so the table keeps 6e-4 of the
    # 0.5 power
    source, budget = jl.rademacher_scaled(1.0), 0.5
    grid, energy = _search_energy(source, budget, None)
    assert grid.num_points == 2048 and grid.half_width == pytest.approx(12.05, abs=0.01)
    floor = 2.0 * grid.dx
    w = np.array([1e-12, 1.0 - 1e-12 - 1.1e-4, 1.1e-4])
    room = budget - floor**2 - w[0] * 36.6**2
    # means 36.6, m2, m3 with mean 0 and second moment ``room``
    m3 = math.sqrt(room * w[1] / (w[2] * (w[1] + w[2])))
    means = np.array([36.6, -w[2] * m3 / w[1], m3])
    params = np.concatenate([np.log(w[:2] / w[2]), means, np.zeros(3)])
    wts, mu, sg = _unpack_mixture(params, 3, budget, floor)
    assert mu == pytest.approx([36.6, -0.0074, 67.4], rel=1e-3, abs=1e-4)
    assert sg == pytest.approx(floor, rel=1e-12)
    fz = _mixture_table(wts, mu, sg, grid)
    assert float(grid.x**2 @ fz) * grid.dx < 1e-3
    # scored on the grid alone, the table would pass for a noise that leaves
    # the source almost unharmed
    tail, mmse = energy.tail(fz)
    assert tail < 1e-3 and mmse < 2e-4
    assert _mixture_objective(params, 3, budget, energy, grid) == (math.inf, None)


def test_family_parameter_cap():
    with pytest.raises(ValueError):
        worst_noise_search(jl.gaussian(1.0), 1.0, 6, GaussianMixtureFamily(5))


@pytest.mark.parametrize("k", [0, -1])
def test_mixture_family_needs_a_component(k):
    with pytest.raises(ValueError, match="^" + re.escape(
            f"k must be an integer in [1, 4], got {k}")):
        GaussianMixtureFamily(k)


def test_mixture_family_is_capped_at_four_components():
    assert GaussianMixtureFamily(4).parameter_count == 11
    with pytest.raises(ValueError, match="^" + re.escape(
            "k must be an integer in [1, 4], got 5")):
        GaussianMixtureFamily(5)


@pytest.mark.parametrize("k", [2.5, 3.0, "3", None])
def test_mixture_family_needs_an_integer_count(k):
    with pytest.raises(ValueError, match="^" + re.escape(
            f"k must be an integer in [1, 4], got {k!r}")):
        GaussianMixtureFamily(k)


@pytest.mark.parametrize("family", [GaussianMixtureFamily(2), GridTableFamily()],
                         ids=["mixture", "table"])
@pytest.mark.parametrize("argument, value", [
    ("seed", -1), ("seed", 1.5), ("seed", None), ("maxfev", 0),
    ("maxfev", 2.5), ("maxfev", math.nan), ("maxfev", math.inf)])
def test_search_rejects_a_bad_seed_or_restart_budget_before_any_spectrum(
        family, argument, value, monkeypatch):
    def no_spectra(*args):
        raise AssertionError("spectra built before the argument check")

    monkeypatch.setattr(polyexpand, "_TableEnergy", no_spectra)
    with pytest.raises(ValueError, match=f"^{argument} must be an integer of at least"):
        worst_noise_search(jl.gaussian(1.0), 1.0, 6, family, **{argument: value})


def test_search_takes_numpy_integers():
    # the same search as with Python integers, bit for bit
    runs = [worst_noise_search(jl.laplace(1.0), 1.0, 6, GaussianMixtureFamily(kind(2)),
                               seed=kind(3), maxfev=kind(40))
            for kind in (int, np.int64, np.int32)]
    for res in runs[1:]:
        assert res.objective == runs[0].objective
        assert res.iterations == runs[0].iterations


@pytest.mark.parametrize("argument", ["maxfev"])
def test_search_rejects_empty_restart_budget(argument):
    with pytest.raises(ValueError, match=argument):
        worst_noise_search(jl.gaussian(1.0), 1.0, 6, GaussianMixtureFamily(2),
                           **{argument: 0})


@pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_search_rejects_bad_noise_budget(budget):
    for search in (
            lambda: worst_noise_search(jl.gaussian(1.0), budget, 6),
            lambda: worst_noise_search(jl.gaussian(1.0), budget, 6,
                                       GridTableFamily())):
        with pytest.raises(ValueError, match="finite and positive"):
            search()


def test_a_one_component_family_is_searched_in_one_evaluation_per_start():
    # its one member is the Gaussian at the budget, where the gradient in
    # the parameters vanishes
    res = worst_noise_search(jl.laplace(1.0), 1.0, 6, GaussianMixtureFamily(1))
    assert (res.iterations, res.converged) == (5, True)
    (w, mu, sigma), = res.noise.components
    assert (w, mu) == (1.0, 0.0) and sigma == pytest.approx(1.0, rel=1e-15)


def test_a_family_with_no_usable_member_is_infeasible():
    # every component's variance is at least the square of the sigma floor
    # of two grid steps (0.31 here), far above the budget 1e-8, so every
    # start scores inf
    with pytest.raises(InfeasibleFamily,
                       match="^no parameter vector produced a usable density$"):
        worst_noise_search(jl.laplace(1.0), 1e-8, 6, GaussianMixtureFamily(1),
                           grid=jl.GridSpec(20.0, 256), maxfev=50)


def _reference_tail(fx, fz, grid):
    """Nonlinear coefficient energy and table MMSE on the Bayes ratio built
    from two ``convolve_tables`` calls."""
    fu = convolve_tables(fx, fz, grid)
    h = _floored_ratio(convolve_tables(grid.x * fx, fz, grid), fu)
    w = fu * grid.dx
    eh2 = float(w @ h**2)
    c0 = float(w @ h)
    su2 = float(w @ grid.x**2)
    c1 = float(w @ (grid.x * h)) / math.sqrt(su2)
    tail = max(0.0, eh2 - c0 * c0 - c1 * c1)
    var_x = float(np.sum(grid.x**2 * fx) * grid.dx)
    return tail, var_x - eh2


@pytest.mark.parametrize("budget", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("source", [jl.gaussian(1.0), jl.laplace(1.0),
                                    jl.uniform(1.0), jl.rademacher_scaled(1.0)],
                         ids=["gaussian", "laplace", "uniform", "rademacher"])
def test_table_energy_tail_is_bitwise_the_bayes_ratio_tail(source, budget):
    grid = jl.default_grid(source, source.scaled(math.sqrt(budget)),
                           num_points=2048)
    fx = source.pdf_on(grid)
    energy = _TableEnergy(fx, grid)
    rng = np.random.default_rng(11)
    tables = []
    while len(tables) < 24:
        mixture = _unpack_mixture(rng.normal(0.0, 0.7, 8), 3, budget,
                                  2.0 * grid.dx)
        if mixture is None:
            continue
        fz = _mixture_table(*mixture, grid)
        # exact zero stretches, so that output points fall below the density
        # floor: a uniform noise, alone and with a one-sided mixture
        box = jl.uniform(budget * rng.uniform(0.2, 1.5)).pdf_on(grid)
        tables += [fz, box, 0.5 * (box + fz * (grid.x > 0))]
    for fz in tables:
        assert energy.tail(fz) == _reference_tail(fx, fz, grid)


# -- grid-table family -----------------------------------------------------------------


def _energy_and_direction(n=2048):
    # uniform source, so the Laplace base noise is not a stationary point;
    # base and end point share mass, mean and power, so the direction keeps
    # all three, and both ends stay positive for small steps
    source = jl.uniform(1.0)
    grid = jl.default_grid(source, jl.laplace(1.0), num_points=n)
    rows = np.vstack([np.ones_like(grid.x), grid.x, grid.x**2])
    target = np.array([1.0, 0.0, 1.0])
    base = _match_moments(jl.laplace(1.0).pdf_on(grid), rows, target, grid.dx)
    end = _match_moments(jl.gaussian(1.0).pdf_on(grid), rows, target, grid.dx)
    return _TableEnergy(source.pdf_on(grid), grid), base, end - base, rows


def test_table_energy_gradient_matches_central_differences():
    energy, f, v, rows = _energy_and_direction()
    assert np.max(np.abs(rows @ v)) < 1e-12
    _, h, _ = energy.at(f)
    eps = 1e-4
    assert np.all(f - eps * v > 0) and np.all(f + eps * v > 0)
    fd = (energy.at(f + eps * v)[0] - energy.at(f - eps * v)[0]) / (2 * eps)
    adjoint = float(energy.gradient(h) @ v)
    assert abs(adjoint) > 1e-3
    assert adjoint == pytest.approx(fd, rel=1e-7)


def test_table_energy_curvature_matches_second_differences():
    energy, f, v, _ = _energy_and_direction(n=256)
    value, h, inv_den = energy.at(f)
    eps = 1e-3
    fd = (energy.at(f + eps * v)[0] - 2 * value
          + energy.at(f - eps * v)[0]) / eps**2
    assert float(v @ energy.hvp(h, inv_den, v)) == pytest.approx(fd, rel=1e-5)
    unit = np.eye(256)
    column = [energy.hvp(h, inv_den, unit[j])[j] for j in range(0, 256, 17)]
    np.testing.assert_allclose(energy.hessian_diagonal(h, inv_den)[::17],
                               column, rtol=1e-5)


def test_hessian_diagonal_matches_the_dense_hessian_everywhere():
    # every entry of the diagonal against 2 dx M^T diag(1/den) M built from
    # the convolution matrices, M = A - diag(h) B, on the curvature test's
    # 256-point point; the entries span 11 decades, so the bound is on the
    # transform's error, a few eps times the largest entry
    energy, f, _, _ = _energy_and_direction(n=256)
    _, h, inv_den = energy.at(f)
    grid = jl.default_grid(jl.uniform(1.0), jl.laplace(1.0), num_points=256)
    fx, n, dx = jl.uniform(1.0).pdf_on(grid), 256, grid.dx
    lag = np.arange(n)[:, None] + n // 2 - np.arange(n)[None, :]
    inside = (lag >= 0) & (lag < n)
    a, b = (np.where(inside, k[np.clip(lag, 0, n - 1)], 0.0) * dx
            for k in (grid.x * fx, fx))
    m = a - h[:, None] * b
    dense = 2.0 * dx * np.einsum("i,ij,ij->j", inv_den, m, m)
    got = energy.hessian_diagonal(h, inv_den)
    assert np.max(dense) / np.min(dense) > 1e10
    assert np.max(np.abs(got - dense)) <= 64 * np.finfo(float).eps * np.max(dense)


class _PerKernelEnergy:
    """The Newton products of ``_TableEnergy`` with one ``rfft`` per vector
    and one ``irfft`` per kernel, the reference for the batched transforms:
    at length 3n/2, and 2n for the Hessian diagonal."""

    def __init__(self, fx, grid):
        n = grid.num_points
        self.dx = grid.dx
        self.size, self.squares_size = 3 * n // 2, 2 * n
        self.on_grid = slice(n // 2, n // 2 + n)
        self.adjoint_on_grid = slice(n // 2 - 1, n // 2 - 1 + n)
        kx = grid.x * fx
        self.kernels = [self.spectrum(k) for k in (kx, fx)]
        self.adjoints = [self.spectrum(k[::-1]) for k in (kx, fx)]
        self.squares = [self.spectrum(k[::-1], self.squares_size)
                        for k in (kx * kx, kx * fx, fx * fx)]

    def spectrum(self, v, size=None):
        return sfft.rfft(v, size or self.size)

    def forward(self, v):
        spec = self.spectrum(v)
        return [sfft.irfft(spec * k, self.size)[self.on_grid] * self.dx
                for k in self.kernels]

    def correlate(self, vectors, spectra, size=None):
        total = sum(self.spectrum(v, size) * k for v, k in zip(vectors, spectra))
        return sfft.irfft(total, size or self.size)[self.adjoint_on_grid] * self.dx

    def at(self, fz):
        num, den = self.forward(fz)
        ok = den > _DENSITY_FLOOR
        inv_den = np.where(ok, 1.0 / np.where(ok, den, 1.0), 0.0)
        h = num * inv_den
        return float(h @ num) * self.dx, h, inv_den

    def gradient(self, h):
        return self.dx * self.correlate((2.0 * h, -h * h), self.adjoints)

    def hvp(self, h, inv_den, v):
        a, b = self.forward(v)
        r = (a - h * b) * inv_den
        return 2.0 * self.dx * self.correlate((r, -h * r), self.adjoints)

    def hessian_diagonal(self, h, inv_den):
        return 2.0 * self.dx**2 * self.correlate(
            (inv_den, -2.0 * h * inv_den, h * h * inv_den), self.squares,
            self.squares_size)


def _laplace_search_point(budget):
    # the table search's first iterate for a Laplace source, and the
    # direction from it to the Laplace noise of the same power
    grid, energy = _search_energy(jl.laplace(1.0), budget, None)
    rows = np.vstack([np.ones_like(grid.x), grid.x, grid.x**2])
    target = np.array([1.0, 0.0, budget])
    f = _match_moments(jl.gaussian(budget).pdf_on(grid), rows, target, grid.dx)
    v = jl.laplace(budget).pdf_on(grid) - f
    return energy, jl.laplace(1.0).pdf_on(grid), grid, f, v


def _uniform_fixture_point(n):
    energy, f, v, _ = _energy_and_direction(n)
    grid = jl.default_grid(jl.uniform(1.0), jl.laplace(1.0), num_points=n)
    return energy, jl.uniform(1.0).pdf_on(grid), grid, f, v


@pytest.mark.parametrize("point", [
    lambda: _uniform_fixture_point(2048), lambda: _uniform_fixture_point(256),
    lambda: _laplace_search_point(1.0), lambda: _laplace_search_point(2.0),
], ids=["uniform-2048", "uniform-256", "laplace-1", "laplace-2"])
def test_batched_products_are_bitwise_the_per_kernel_products(point):
    energy, fx, grid, f, v = point()
    ref = _PerKernelEnergy(fx, grid)
    got, want = energy.at(f), ref.at(f)
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert np.array_equal(a, b)
    _, h, inv_den = want
    for a, b in [(energy.gradient(h), ref.gradient(h)),
                 (energy.hvp(h, inv_den, v), ref.hvp(h, inv_den, v)),
                 (energy.hessian_diagonal(h, inv_den),
                  ref.hessian_diagonal(h, inv_den))]:
        assert np.array_equal(a, b)


def test_grid_table_search_holds_mass_mean_and_power():
    res = worst_noise_search(jl.uniform(1.0), 0.3, 6, GridTableFamily())
    f, grid = res.noise.table, res.noise.grid
    assert abs(float(np.sum(f)) * grid.dx - 1.0) <= 1e-12
    assert abs(float(grid.x @ f) * grid.dx) <= 1e-12
    assert abs(float(grid.x**2 @ f) * grid.dx - 0.3) <= 1e-12
    assert res.converged
    # no matching noise at this budget: the MMSE stays below the linear bound
    assert res.objective > 1e-3
    assert res.mmse_attained < linear_benchmark(1.0, 0.3)


def test_grid_table_search_recovers_gaussian_noise():
    res = worst_noise_search(jl.gaussian(1.0), 1.0, 6, GridTableFamily())
    assert res.objective < 1e-8
    g = jl.default_grid(jl.gaussian(1.0), num_points=2048)
    dist = np.max(np.abs(res.noise.cf_at(g.omega) - jl.gaussian(1.0).cf_at(g.omega)))
    assert dist < 1e-2


def test_grid_table_search_regression_pin():
    res = worst_noise_search(jl.laplace(1.0), 1.0, 6, GridTableFamily())
    assert res.objective == pytest.approx(2.3365809287412276e-10, rel=1e-12)
    assert res.iterations == 34


def test_grid_table_search_budget_two_regression_pin():
    # the benchmark's other grid-table search
    res = worst_noise_search(jl.laplace(1.0), 2.0, 6, GridTableFamily())
    assert res.objective == pytest.approx(1.9606927192938883e-11, rel=1e-12)
    assert res.iterations == 18


@pytest.mark.parametrize("family", [GridTableFamily(), GaussianMixtureFamily(3)],
                         ids=["grid-table", "mixture"])
def test_search_gates_the_source_tails_on_a_given_grid(family):
    # a Laplace source leaves 1.4e-2 of its mass off [-3, 3]; unchecked, the
    # table search reported an MMSE above the linear bound no noise can beat
    with pytest.raises(GridTooNarrow, match=r"^mass outside \[-3, 3\] exceeds 1e-10$"):
        worst_noise_search(jl.laplace(1.0), 1.0, 6, family, grid=jl.GridSpec(3.0, 256))


def test_search_reports_the_table_linear_bound():
    # v P / (v + P) with v the source table's own variance, 1.0000303 on the
    # default search grid: the MMSE sits just below it, above the model's 1/3
    res = worst_noise_search(jl.laplace(1.0), 0.5, 6, GridTableFamily())
    grid, fx = res.noise.grid, jl.laplace(1.0).pdf_on(res.noise.grid)
    v = float(np.sum(grid.x**2 * fx) * grid.dx)
    assert res.linear_bound == v * 0.5 / (v + 0.5)
    assert 0.0 <= res.linear_bound - res.mmse_attained <= 1e-8
    assert res.mmse_attained > linear_benchmark(1.0, 0.5)


# MMSE of the table search under the whole-step fraction-to-boundary cut
# t = min(1, 0.99 min f/-d) that the per-entry floor replaced
_CUT_STEP_MMSE = {
    ("gaussian", 0.5): 0.3333333333323115, ("gaussian", 1.0): 0.4999999999992535,
    ("gaussian", 2.0): 0.6666666666661187, ("laplace", 0.5): 0.333336703721653,
    ("laplace", 1.0): 0.5000075849372219, ("laplace", 2.0): 0.6666936295404906,
    ("uniform", 0.5): 0.3232264044365618, ("uniform", 1.0): 0.5000043770305818,
    ("uniform", 2.0): 0.6666578933766374, ("rademacher_scaled", 0.5): 0.249999998394573,
}


def _assert_a_held_table_search(res, source, budget):
    # converged to a strictly positive table with the constraints held, at the
    # MMSE of the cut-step search within the barrier's 1e-8 at mu = 1e-8
    f, grid = res.noise.table, res.noise.grid
    assert res.converged
    assert f.min() > 0.0
    assert abs(float(np.sum(f)) * grid.dx - 1.0) <= 1e-12
    assert abs(float(grid.x @ f) * grid.dx) <= 1e-12
    assert abs(float(grid.x**2 @ f) * grid.dx - budget) <= 1e-12
    assert abs(res.mmse_attained - _CUT_STEP_MMSE[source, budget]) <= 1e-8


@pytest.mark.parametrize("source, budget", list(_CUT_STEP_MMSE))
def test_floored_steps_reach_the_cut_step_mmse(source, budget):
    res = worst_noise_search(getattr(jl, source)(1.0), budget, 6, GridTableFamily())
    _assert_a_held_table_search(res, source, budget)


@pytest.mark.parametrize("failure", ["singular", "non-positive"])
def test_a_failed_moment_repair_halves_the_step(monkeypatch, failure):
    # the repair of the first floored trial point fails; the search must
    # retry at half the step, evaluate no failed point, and converge
    log = []  # ("at" | "step" | "repair", array) in call order
    repair, solve = polyexpand._match_moments, polyexpand._projected_cg
    evaluate = polyexpand._TableEnergy.at

    def failing(f, rows, target, dx):
        log.append(("repair", f.copy()))
        if sum(kind == "repair" for kind, _ in log) == 2:  # 1 builds the start
            if failure == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return np.where(np.arange(f.size) == f.size // 2, 0.0, f)
        return repair(f, rows, target, dx)

    def recorded(*args):
        log.append(("step", solve(*args)))
        return log[-1][1]

    def evaluated(self, fz):
        log.append(("at", fz.copy()))
        return evaluate(self, fz)

    monkeypatch.setattr(polyexpand, "_match_moments", failing)
    monkeypatch.setattr(polyexpand, "_projected_cg", recorded)
    monkeypatch.setattr(polyexpand._TableEnergy, "at", evaluated)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # log of a non-positive table warns
        res = worst_noise_search(jl.laplace(1.0), 1.0, 6, GridTableFamily())
    fail = [n for n, (kind, _) in enumerate(log) if kind == "repair"][1]
    assert [kind for kind, _ in log[fail + 1:fail + 3]] == ["repair", "at"]
    # the iterate is the last point evaluated before its Newton step
    n_step = max(n for n in range(fail) if log[n][0] == "step")
    f = next(a for kind, a in log[n_step::-1] if kind == "at")
    step = log[n_step][1]

    def floored(t):
        return np.maximum(f + t * step, 0.01 * f)
    t = next(t for t in 0.5**np.arange(30) if np.array_equal(floored(t), log[fail][1]))
    assert np.array_equal(floored(t / 2), log[fail + 1][1])
    _assert_a_held_table_search(res, "laplace", 1.0)


@pytest.mark.parametrize("budget, mmse", [
    (2.0, 0.6666936295399573), (1.0, 0.5000075851177015)])
def test_conjugate_gradients_stop_on_the_model_test_before_the_cap(
        monkeypatch, budget, mmse):
    # Jacobi-preconditioned CG stalls in the late Newton steps of these
    # searches; the quadratic-model test must stop it before the cap.  The
    # MMSE values are those of the same searches with CG run on to the cap
    # (once at budget 2, five times at budget 1), so stopping early costs no
    # accuracy.
    products = []
    solve = polyexpand._projected_cg

    def counted(hvp, grad, precond, rows, maxiter):
        products.append(0)

        def product(v):
            products[-1] += 1
            return hvp(v)
        return solve(product, grad, precond, rows, maxiter)

    monkeypatch.setattr(polyexpand, "_projected_cg", counted)
    res = worst_noise_search(jl.laplace(1.0), budget, 6, GridTableFamily())
    assert res.converged
    assert products and max(products) < polyexpand._CG_CAP
    assert abs(res.mmse_attained - mmse) <= 1e-8


@pytest.mark.parametrize("source, budget, polynomial_mmse", [
    (jl.uniform(1.0), 1.0, 0.499886),
    (jl.uniform(1.0), 2.0, 0.666653),
    (jl.laplace(1.0), 2.0, 0.665326),
], ids=["uniform-1", "uniform-2", "laplace-2"])
def test_grid_table_search_dominates_the_polynomial_family(source, budget,
                                                           polynomial_mmse):
    # the grid tables hold every noise on the grid, so they reach at least
    # the MMSE measured for a Gram-Charlier family (Hermite-modulated
    # Gaussians of order 6, seed 5) on the same inputs
    res = worst_noise_search(source, budget, 6, GridTableFamily())
    assert res.mmse_attained >= polynomial_mmse


def test_grid_table_search_is_deterministic():
    runs = [worst_noise_search(jl.rademacher_scaled(1.0), 0.5, 6,
                               GridTableFamily(), seed=s) for s in (0, 1)]
    assert runs[0].noise.table.tobytes() == runs[1].noise.table.tobytes()
    assert runs[0].iterations == runs[1].iterations


def test_search_rejects_an_object_that_is_no_family():
    with pytest.raises(ValueError, match="unknown family 'mixture'"):
        worst_noise_search(jl.gaussian(1.0), 1.0, 6, "mixture")


# -- estimator-to-noise recovery ---------------------------------------------------------


@pytest.mark.parametrize("source", [jl.gaussian(1.0), jl.laplace(1.0)])
def test_linear_estimator_recovers_matching_noise(source):
    cf, resid = noise_from_estimator(source, [0.0, 0.5])
    want = source.cf_at(cf.grid.omega)
    keep = np.abs(want) > 1e-6
    assert np.max(np.abs(cf.values[keep] - want[keep])) < 1e-3
    assert cf.validity == "valid"
    assert np.isfinite(resid)


@pytest.mark.parametrize("source", [jl.gaussian(1.0), jl.laplace(1.0)],
                         ids=["gaussian", "laplace"])
def test_recovery_residual_is_the_division_round_off(source):
    # F_X F_Z = G holds to round-off wherever the quotient was formed
    _, resid = noise_from_estimator(source, [0.0, 0.5])
    assert resid <= 1e-15


def test_kappa_two_gain_recovers_root():
    cf, _ = noise_from_estimator(jl.laplace(1.0), [0.0, 2.0 / 3.0])
    want = (1 + cf.grid.omega**2 / 2) ** -0.5
    keep = np.abs(jl.laplace(1.0).cf_at(cf.grid.omega)) > 1e-6
    assert np.max(np.abs(cf.values[keep] - want[keep])) < 1e-4


def test_zero_estimator_is_inconsistent():
    with pytest.raises(UnstableIntegration):
        noise_from_estimator(jl.gaussian(1.0), [0.0, 0.0])


@pytest.mark.parametrize("coeffs", [[0.0, 1.0, math.nan], [math.nan, 1.0],
                                    [math.inf, 1.0], [0.0, -math.inf]],
                         ids=["trailing-nan", "nan-offset", "inf-offset", "inf-slope"])
def test_non_finite_estimator_coefficients_are_refused(coeffs):
    with pytest.raises(ValueError, match="must be finite"):
        noise_from_estimator(jl.gaussian(1.0), coeffs)


def test_degree_cap():
    with pytest.raises(ValueError):
        noise_from_estimator(jl.gaussian(1.0), [0.0, 0.5, 0.0, 0.0, 0.0, 0.1])


@pytest.mark.parametrize("coeffs", [[0.0, 0.5, 0.1], [0.0, 0.45, 0.0, 0.02],
                                    [0.0, 0.5, 0.0, 0.0, 0.1]],
                         ids=["degree-2", "degree-3", "degree-4"])
def test_degrees_two_to_four_are_refused(coeffs):
    with pytest.raises(ValueError, match="estimator degree capped at 1"):
        noise_from_estimator(jl.gaussian(1.0), coeffs)


@pytest.mark.parametrize("slope", [-0.5, -2.0])
def test_nonpositive_slope_is_inconsistent(slope):
    with pytest.raises(UnstableIntegration, match=f"slope {slope:g}"):
        noise_from_estimator(jl.gaussian(1.0), [0.1, slope])


@pytest.mark.parametrize("source", [jl.gaussian(1.0), jl.laplace(1.0)],
                         ids=["gaussian", "laplace"])
@pytest.mark.parametrize("slope", [0.25, 0.5, 2.0 / 3.0])
def test_linear_estimator_noise_is_the_closed_form_power(source, slope):
    # h(u) = b_1 u pins F_Z to F_X^(1/b_1 - 1)
    cf, _ = noise_from_estimator(source, [0.0, slope])
    fx = jl.cf_of(source, cf.grid)
    keep = np.abs(fx.values) > 1e-6
    want = jl.cf_power(fx, 1.0 / slope).values[keep] / fx.values[keep]
    assert np.max(np.abs(cf.values[keep] - want)) < 1e-12


def test_intercept_shifts_the_recovered_noise():
    # h(u) = 0.1 + 0.5 u on a Laplace source: Z has the source's law,
    # shifted by -b_0 / b_1 = -0.2
    source = jl.laplace(1.0)
    cf, _ = noise_from_estimator(source, [0.1, 0.5])
    fx = source.cf_at(cf.grid.omega)
    keep = np.abs(fx) > 1e-6
    want = fx[keep] * np.exp(-0.2j * cf.grid.omega[keep])
    assert np.max(np.abs(cf.values[keep] - want)) < 1e-12


def test_uniform_source_recovers_uniform_noise():
    # the sinc CF has zeros, where F_X'/F_X is singular
    source = jl.uniform(1.0)
    cf, _ = noise_from_estimator(source, [0.0, 0.5])
    assert cf.validity == "valid"
    assert np.max(np.abs(cf.values - source.cf_at(cf.grid.omega))) < 1e-12


def test_trailing_zero_coefficients_are_trimmed():
    cf, _ = noise_from_estimator(jl.gaussian(1.0), [0.0, 0.5, 0.0, 0.0])
    want = jl.gaussian(1.0).cf_at(cf.grid.omega)
    keep = np.abs(want) > 1e-6
    assert np.max(np.abs(cf.values[keep] - want[keep])) < 1e-3


def test_recovered_pair_reproduces_estimator():
    # close the loop: recover the noise, re-run the conditional mean, compare.
    # 8192 points keep the cusp error of the density materialization inside
    # the 1e-3 loop budget
    source = jl.laplace(1.0)
    grid = jl.default_grid(source, source.scaled(2.0), num_points=8192)
    cf, _ = noise_from_estimator(source, [0.0, 0.5], grid)
    noise = jl.density_from_cf(cf)
    curve = mmse_estimator(source, noise, cf.grid)
    fu = output_density(source, noise, cf.grid)
    w = fu * cf.grid.dx
    err = math.sqrt(float(w @ (curve.values - 0.5 * cf.grid.x) ** 2))
    assert err < 1e-3
