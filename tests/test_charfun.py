import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import jamlab as jl
from jamlab.charfun import (CharacteristicFunction, _cf_values_to_density,
                            _density_to_cf_values, _swap_halves, _unwrap,
                            _unwrapped_last)
from jamlab.errors import (ExcessImaginary, GridMismatch, GridTooNarrow,
                           NotHermitian, ZeroCrossing)

FAMILIES = {
    "gaussian": jl.gaussian,
    "laplace": jl.laplace,
    "uniform": jl.uniform,
}


def model_strategy():
    return st.builds(lambda n, v: FAMILIES[n](v),
                     st.sampled_from(sorted(FAMILIES)), st.floats(0.3, 3.0))


# -- cf_of -------------------------------------------------------------------


def test_cf_at_zero_is_one():
    g = jl.default_grid(jl.gaussian(1.0))
    cf = jl.cf_of(jl.gaussian(1.0), g)
    assert cf.at_zero() == pytest.approx(1.0, abs=1e-15)


def test_gaussian_cf_closed_form():
    assert jl.gaussian(1.0).cf_at(1.0) == pytest.approx(np.exp(-0.5))


def test_rademacher_cf_closed_form():
    assert jl.rademacher_scaled(1.0).cf_at(np.pi) == pytest.approx(-1.0)


def test_cf_of_narrow_grid_raises():
    with pytest.raises(GridTooNarrow):
        jl.cf_of(jl.laplace(2.0), jl.GridSpec(12.0, 4096))


def test_cf_of_tabulated_matches_direct_sum():
    d = jl.gaussian(1.0)
    g = jl.default_grid(d, num_points=512)
    tab = jl.tabulated(g, d.pdf_on(g))
    fast = jl.cf_of(tab, g)                  # FFT path
    direct = tab.cf_at(g.omega)              # plain sum
    np.testing.assert_allclose(fast.values, direct, atol=1e-12)


# -- density_from_cf -----------------------------------------------------------


def test_round_trip_gaussian():
    d = jl.gaussian(1.0)
    g = jl.default_grid(d)
    back = jl.density_from_cf(jl.cf_of(d, g))
    assert np.max(np.abs(back.table - d.pdf_at(g.x))) < 1e-8


def test_round_trip_gaussian_mixture():
    d = jl.gaussian_mixture([0.4, 0.6], [0.9, -0.6], [0.7, 1.2])
    g = jl.default_grid(d)
    back = jl.density_from_cf(jl.cf_of(d, g))
    assert np.max(np.abs(back.table - d.pdf_at(g.x))) < 1e-8


def test_round_trip_laplace():
    # The rectangular-window inversion of a 1/omega^2 CF carries a Dirichlet
    # truncation error of about 1/(pi*Omega) at the density cusp (1.4e-3 at
    # 4096 points); away from the cusp the reconstruction is clean.  The raw
    # negativity stays far inside the -1e-6 validity floor.
    d = jl.laplace(2.0)
    g = jl.default_grid(d)
    back = jl.density_from_cf(jl.cf_of(d, g))
    err = np.abs(back.table - d.pdf_at(g.x))
    assert err.max() < 5e-3
    assert err[np.abs(g.x) > 1.0].max() < 1e-6
    assert np.sum(err) * g.dx < 1e-4
    assert back.negativity_floor > -1e-6


def test_round_trip_table_is_machine_exact():
    d = jl.laplace(1.0)
    g = jl.default_grid(d)
    tab = jl.tabulated(g, d.pdf_on(g))
    back = jl.density_from_cf(jl.cf_of(tab, g))
    np.testing.assert_allclose(back.table, tab.table, atol=1e-13)


def test_pointwise_root_of_rademacher_cf_rejected():
    d = jl.rademacher_scaled(1.0)
    g = jl.default_grid(d)
    vals = np.sqrt(jl.cf_of(d, g).values)  # principal branch: not Hermitian
    cf = CharacteristicFunction(g, vals)
    with pytest.raises(NotHermitian):
        jl.density_from_cf(cf)
    assert jl.check_validity(cf).validity == "invalid"
    assert "hermitian" in jl.check_validity(cf).reason


def test_excess_imaginary_detected():
    g = jl.GridSpec(10.0, 256)
    vals = jl.gaussian(1.0).cf_at(g.omega) * np.exp(1j * 2e-4 * g.omega**2)
    vals[g.num_points // 2] = 1.0
    cf = CharacteristicFunction(g, vals)
    with pytest.raises((ExcessImaginary, NotHermitian)):
        jl.density_from_cf(cf)


# -- cf_power ------------------------------------------------------------------


def test_gaussian_power_is_gaussian():
    g = jl.default_grid(jl.gaussian(2.0))
    got = jl.cf_power(jl.cf_of(jl.gaussian(1.0), g), 2.0)
    want = jl.cf_of(jl.gaussian(2.0), g)
    assert jl.sup_distance(got, want) < 1e-9


def test_laplace_root_is_valid():
    d = jl.laplace(2.0)
    g = jl.default_grid(d)
    got = jl.cf_power(jl.cf_of(d, g), 0.5)
    np.testing.assert_allclose(got.values, (1 + g.omega**2) ** -0.5, atol=1e-12)
    assert jl.check_validity(got).validity == "valid"


def test_laplace_noninteger_power_valid():
    # infinitely divisible family: every positive real power stays a CF
    d = jl.laplace(1.0)
    g = jl.default_grid(d)
    got = jl.cf_power(jl.cf_of(d, g), 3.7)
    assert jl.check_validity(got).validity == "valid"


def test_rademacher_root_strict_raises():
    d = jl.rademacher_scaled(1.0)
    g = jl.default_grid(d)
    with pytest.raises(ZeroCrossing):
        jl.cf_power(jl.cf_of(d, g), 0.5, strict=True)


def test_rademacher_root_truncates_and_fails_battery():
    d = jl.rademacher_scaled(1.0)
    g = jl.default_grid(d)
    got = jl.cf_power(jl.cf_of(d, g), 0.5)
    assert got.truncated
    assert jl.check_validity(got).validity == "invalid"


# exact multiples of pi make steps of exactly pi and 2*pi, where np.unwrap's
# boundary rule decides the sign of the correction
PHASES = st.one_of(
    st.sampled_from([0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi,
                     3 * np.pi, np.nan, np.inf, -np.inf]),
    st.floats(-4 * np.pi, 4 * np.pi),
    st.floats(allow_nan=True, allow_infinity=True))


@given(st.lists(PHASES, max_size=40))
@settings(max_examples=300, deadline=None)
def test_unwrap_is_bitwise_np_unwrap(phases):
    p = np.array(phases, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        assert _unwrap(p).tobytes() == np.unwrap(p).tobytes()
        if len(p) > 1:  # cf_power's left edge has n/2 + 1 phases
            last, want = _unwrapped_last(p), np.unwrap(p)[-1]
            assert (last.tobytes() == want.tobytes()
                    or np.isnan(last) and np.isnan(want))


@pytest.mark.parametrize("n", [64, 256, 1024, 8192])
def test_half_swap_is_both_fft_shifts(n):
    a = np.arange(n) + 1j * np.arange(n)[::-1]
    assert np.array_equal(_swap_halves(a), np.fft.fftshift(a))
    assert np.array_equal(_swap_halves(a), np.fft.ifftshift(a))


@pytest.mark.parametrize("n", [2048, 4096, 8192])
def test_centred_transforms_are_bitwise_numpy_fft(n):
    # numpy's FFT stays in the tests as the oracle, for real and complex input
    g = jl.GridSpec(20.0, n)
    rng = np.random.default_rng(n)
    scale = n * g.dx
    for a in (jl.laplace(1.0).pdf_on(g), rng.normal(size=n),
              jl.cf_of(jl.laplace(1.0), g).values,
              rng.normal(size=n) + 1j * rng.normal(size=n)):
        cf = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(a))) * scale
        density = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(a))) / scale
        assert _density_to_cf_values(a, g).tobytes() == cf.tobytes()
        assert _cf_values_to_density(a, g).tobytes() == density.tobytes()


def test_cf_keeps_its_samples_when_the_caller_writes_to_the_array():
    g = jl.default_grid(jl.laplace(1.0))
    a = jl.laplace(1.0).cf_at(g.omega)
    cf = CharacteristicFunction(g, a)
    want = a.copy()
    a[:] = 0.0
    assert cf.values.tobytes() == want.tobytes()
    assert not cf.values.flags.writeable


def test_cf_results_are_read_only():
    g = jl.default_grid(jl.laplace(1.0))
    cf = jl.cf_of(jl.laplace(1.0), g)
    for out in (cf, jl.cf_power(cf, 1.5), jl.cf_multiply(cf, cf),
                jl.cf_divide(cf, cf), jl.check_validity(cf)):
        assert not out.values.flags.writeable


def test_power_one_is_bitwise_identity():
    g = jl.default_grid(jl.laplace(1.0))
    cf = jl.cf_of(jl.laplace(1.0), g)
    assert jl.cf_power(cf, 1.0) is cf


@given(model_strategy(), st.floats(0.4, 2.5), st.floats(0.4, 2.5))
@settings(max_examples=25, deadline=None)
def test_power_addition_property(d, a, b):
    g = jl.default_grid(d, num_points=1024)
    cf = jl.cf_of(d, g)
    lhs = jl.cf_power(cf, a + b)
    rhs = jl.cf_multiply(jl.cf_power(cf, a), jl.cf_power(cf, b))
    keep = np.abs(cf.values) > 1e-6
    assert np.max(np.abs(lhs.values[keep] - rhs.values[keep])) < 1e-9


# -- multiply / divide ------------------------------------------------------------


def test_multiply_identity_element():
    g = jl.default_grid(jl.gaussian(1.0))
    cf = jl.cf_of(jl.gaussian(1.0), g)
    one = CharacteristicFunction(g, np.ones(g.num_points, dtype=complex))
    assert jl.sup_distance(jl.cf_multiply(cf, one), cf) == 0.0


def test_multiply_adds_gaussian_variances():
    g = jl.default_grid(jl.gaussian(2.0))
    a = jl.cf_of(jl.gaussian(1.0), g)
    got = jl.cf_multiply(a, a)
    assert jl.sup_distance(got, jl.cf_of(jl.gaussian(2.0), g)) < 1e-9


def test_multiply_matches_brute_force_convolution():
    # both routes approximate the continuum at O(dx^2 * curvature); 8192
    # points keeps that shared discretization term under the 1e-6 target
    dx_model, dz_model = jl.laplace(1.0), jl.gaussian(1.0)
    g = jl.default_grid(dx_model, dz_model, num_points=8192)
    prod = jl.cf_multiply(jl.cf_of(dx_model, g), jl.cf_of(dz_model, g))
    got = jl.density_from_cf(prod)
    # independent oracle: direct linear convolution of the tables
    fx, fz = dx_model.pdf_on(g), dz_model.pdf_on(g)
    n = g.num_points
    want = np.convolve(fx, fz)[n // 2: n // 2 + n] * g.dx
    assert np.max(np.abs(got.table - want)) < 1e-6


def test_grid_mismatch_raises():
    a = jl.cf_of(jl.gaussian(1.0), jl.GridSpec(12.0, 256))
    b = jl.cf_of(jl.gaussian(1.0), jl.GridSpec(14.0, 256))
    with pytest.raises(GridMismatch):
        jl.cf_multiply(a, b)
    with pytest.raises(GridMismatch):
        jl.cf_divide(a, b, 1e-8)


def test_gaussian_deconvolution():
    g = jl.default_grid(jl.gaussian(2.0))
    num = jl.cf_of(jl.gaussian(2.0), g)
    den = jl.cf_of(jl.gaussian(1.0), g)
    got = jl.cf_divide(num, den, 1e-8)
    want = jl.cf_of(jl.gaussian(1.0), g)
    keep = np.abs(den.values) >= 1e-8
    assert np.max(np.abs(got.values[keep] - want.values[keep])) < 1e-9


def test_self_division_is_one():
    d = jl.laplace(1.0)
    g = jl.default_grid(d)
    cf = jl.cf_of(d, g)
    got = jl.cf_divide(cf, cf, 1e-8)
    keep = np.abs(cf.values) >= 1e-8
    np.testing.assert_allclose(got.values[keep], 1.0, atol=1e-12)


def test_gaussian_over_laplace_fails_battery():
    g = jl.default_grid(jl.gaussian(1.0), jl.laplace(1.0))
    quot = jl.cf_divide(jl.cf_of(jl.gaussian(1.0), g),
                        jl.cf_of(jl.laplace(1.0), g), 1e-8)
    verdict = jl.check_validity(quot)
    assert verdict.validity == "invalid"
    assert "negativity" in verdict.reason


@given(model_strategy(), model_strategy())
@settings(max_examples=20, deadline=None)
def test_divide_undoes_multiply(da, db):
    g = jl.default_grid(da, db, num_points=1024)
    a, b = jl.cf_of(da, g), jl.cf_of(db, g)
    got = jl.cf_divide(jl.cf_multiply(a, b), b, 1e-8)
    keep = np.abs(b.values) >= 1e-8
    assert np.max(np.abs(got.values[keep] - a.values[keep])) < 1e-8


# -- validity battery -------------------------------------------------------------


def test_valid_families_pass_battery():
    for make in (jl.gaussian, jl.laplace, jl.uniform):
        d = make(1.0)
        g = jl.default_grid(d)
        assert jl.check_validity(jl.cf_of(d, g)).validity == "valid", make


def test_rademacher_cf_passes_battery_on_snapped_grid():
    d = jl.rademacher_scaled(1.0)
    g = jl.default_grid(d)
    assert jl.check_validity(jl.cf_of(d, g)).validity == "valid"


def test_magnitude_violation_detected():
    g = jl.GridSpec(12.0, 256)
    vals = 1.3 * jl.gaussian(1.0).cf_at(g.omega)
    vals[g.num_points // 2] = 1.0
    got = jl.check_validity(CharacteristicFunction(g, vals))
    assert got.validity == "invalid"
    assert "magnitude" in got.reason


def _gaussian_cf_with(index_values):
    g = jl.GridSpec(12.0, 256)
    vals = jl.gaussian(1.0).cf_at(g.omega).astype(complex)
    for i, v in index_values.items():
        vals[i] = v
    return CharacteristicFunction(g, vals)


@pytest.mark.parametrize("cf, omega", [
    (_gaussian_cf_with({140: np.nan}), "3.14159"),
    (_gaussian_cf_with({i: np.nan for i in range(256)}), "-33.5103"),
    (_gaussian_cf_with({156: np.inf}), "7.33038"),
    (_gaussian_cf_with({100: np.inf, 156: np.inf}), "-7.33038"),
], ids=["one-nan", "all-nan", "one-inf", "hermitian-inf-pair"])
def test_nonfinite_samples_fail_battery_first(cf, omega):
    got = jl.check_validity(cf)
    assert got.validity == "invalid"
    assert got.reason.startswith("non-finite sample")
    assert got.reason.endswith(f"at omega = {omega}")
    with pytest.raises(ValueError) as err:
        jl.density_from_cf(cf)
    assert str(err.value) == got.reason


@pytest.mark.parametrize("cf, error", [
    (_gaussian_cf_with({128: 0.9}), ValueError),
    (_gaussian_cf_with({140: 0.5 + 0.1j}), NotHermitian),
], ids=["cf0", "hermitian"])
def test_density_from_cf_raises_the_battery_reason(cf, error):
    reason = jl.check_validity(cf).reason
    with pytest.raises(error) as err:
        jl.density_from_cf(cf)
    assert type(err.value) is error and str(err.value) == reason


# -- curvature variance -------------------------------------------------------------


@given(model_strategy())
@settings(max_examples=25, deadline=None)
def test_variance_from_curvature(d):
    g = jl.default_grid(d)
    assert jl.variance_from_cf(jl.cf_of(d, g)) == pytest.approx(d.variance, rel=1e-4)
