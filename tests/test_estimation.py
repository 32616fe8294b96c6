import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft as sfft
from scipy.signal import fftconvolve

import jamlab as jl
from jamlab.errors import GridTooNarrow
from jamlab.estimation import (BayesRatio, convolve_tables,
                               distortion_of, linear_benchmark,
                               matched_source_check, mmse_estimator,
                               output_density)
from jamlab.polyexpand import _TableEnergy


def dense_oracle(source, noise, n_mult=4, grid=None):
    """Independent route: direct Bayes quadrature on a finer grid, with the
    noise density evaluated pointwise (no convolution machinery)."""
    base = grid or jl.default_grid(source, noise)
    g = jl.GridSpec(base.half_width, base.num_points * n_mult)
    fx = source.pdf_on(g)
    sup = fx > 0
    xs, fxs = g.x[sup], fx[sup]
    h = np.zeros(g.num_points)
    fu = np.zeros(g.num_points)
    for i0 in range(0, g.num_points, 512):
        u = g.x[i0:i0 + 512, None]
        k = noise.pdf_at(u - xs[None, :])
        den = k @ fxs * g.dx
        num = k @ (xs * fxs) * g.dx
        fu[i0:i0 + 512] = den
        ok = den > 1e-300
        h[i0:i0 + 512] = np.where(ok, num / np.where(ok, den, 1.0), 0.0)
    mmse = source.variance - float(np.sum(h * h * fu) * g.dx)
    return g, h, fu, mmse


# -- mmse_estimator ------------------------------------------------------------


def test_gaussian_pair_is_halving_gain():
    curve = mmse_estimator(jl.gaussian(1.0), jl.gaussian(1.0))
    assert curve.mmse == pytest.approx(0.5, abs=1e-9)
    assert curve.linearity_residual < 1e-6
    mid = np.abs(curve.grid.x) < 3
    np.testing.assert_allclose(curve.values[mid], 0.5 * curve.grid.x[mid], atol=1e-7)


@given(st.floats(0.4, 2.5), st.floats(0.4, 2.5))
@settings(max_examples=10, deadline=None)
def test_gaussian_mmse_closed_form(sx2, sz2):
    curve = mmse_estimator(jl.gaussian(sx2), jl.gaussian(sz2))
    assert curve.mmse == pytest.approx(sx2 * sz2 / (sx2 + sz2), rel=1e-6)


def test_uniform_gaussian_vs_dense_oracle():
    source, noise = jl.uniform(1.0), jl.gaussian(1.0)
    curve = mmse_estimator(source, noise)
    g, h_o, fu_o, mmse_o = dense_oracle(source, noise)
    assert abs(curve.mmse - mmse_o) < 1e-5
    hi = np.interp(g.x, curve.grid.x, curve.values)
    keep = fu_o > 1e-8
    assert np.max(np.abs(hi - h_o)[keep]) < 1e-5


def test_narrow_grid_raises():
    with pytest.raises(GridTooNarrow):
        mmse_estimator(jl.laplace(1.0), jl.gaussian(1.0), jl.GridSpec(10.0, 1024))


def test_the_tail_gates_give_one_message():
    # one gate, so the CF and estimator paths refuse a grid in one wording
    g, src, noise = jl.GridSpec(0.5, 256), jl.gaussian(1.0), jl.gaussian(1.0)
    for call in (lambda: jl.cf_of(src, g), lambda: mmse_estimator(src, noise, g),
                 lambda: distortion_of(src, noise, 0.5, g)):
        with pytest.raises(GridTooNarrow,
                           match=r"^mass outside \[-0.5, 0.5\] exceeds 1e-10$"):
            call()


def test_estimator_tail_extension_is_flat():
    curve = mmse_estimator(jl.uniform(1.0), jl.uniform(1.0))
    # f_U vanishes near the grid edge; h must hold its nearest computed value
    assert curve.values[0] == curve.values[1]
    assert curve.values[-1] == curve.values[-2]


def test_linearity_residual_zero_iff_linear():
    curve = mmse_estimator(jl.gaussian(1.0), jl.gaussian(2.0))
    assert curve.linearity_residual < 1e-9
    bent = mmse_estimator(jl.uniform(1.0), jl.gaussian(1.0))
    assert bent.linearity_residual > 1e-3


def test_residual_of_handbuilt_linear_curve_is_zero():
    from jamlab.estimation import _weighted_linear_fit
    g = jl.default_grid(jl.gaussian(1.0))
    fu = jl.gaussian(2.0).pdf_on(g)
    resid = _weighted_linear_fit(0.3 * g.x + 0.1, fu, g)
    assert resid < 1e-9


# -- matched_source_check ----------------------------------------------------------


def test_gaussian_noise_kappa_two():
    got = matched_source_check(jl.gaussian(1.0), 2.0)
    assert got.matched
    assert got.source.variance == pytest.approx(2.0, rel=1e-4)
    g = got.curve.grid
    mid = np.abs(g.x) < 4
    np.testing.assert_allclose(got.curve.values[mid], (2 / 3) * g.x[mid], atol=1e-5)


def test_laplace_noise_kappa_two():
    got = matched_source_check(jl.laplace(1.0), 2.0)
    assert got.matched
    assert got.curve.linearity_residual < 1e-4
    # linear gain kappa/(kappa+1): read it off the curve where f_U lives
    g = got.curve.grid
    mid = np.abs(g.x) < 2
    gain = np.polyfit(g.x[mid], got.curve.values[mid], 1)[0]
    assert gain == pytest.approx(2 / 3, abs=1e-4)


def test_rademacher_noise_no_match():
    got = matched_source_check(jl.rademacher_scaled(1.0), 0.5)
    assert not got.matched
    assert got.reason


@pytest.mark.parametrize("grid", [None, jl.GridSpec(20.0, 256)], ids=["default", "given"])
@pytest.mark.parametrize("kappa", [float("nan"), float("inf"), 0.0, -1.0])
def test_kappa_must_be_finite_and_positive(kappa, grid):
    with pytest.raises(ValueError, match="kappa must be finite and positive"):
        matched_source_check(jl.gaussian(1.0), kappa, grid)


# -- distortion_of ------------------------------------------------------------------


def test_gaussian_half_gain_distortion():
    got = distortion_of(jl.gaussian(1.0), jl.gaussian(1.0), 0.5)
    assert got == pytest.approx(0.5, rel=1e-6)


def test_zero_estimator_gives_source_variance():
    # cell-averaged tables represent the box-mollified variable, whose second
    # moment is var + dx^2/12; tolerance covers that representation bias
    got = distortion_of(jl.laplace(1.3), jl.gaussian(1.0), 0.0)
    assert got == pytest.approx(1.3, rel=2e-5)
    exact = distortion_of(jl.gaussian(1.3), jl.gaussian(1.0), 0.0)
    assert exact == pytest.approx(1.3, rel=1e-9)


@pytest.mark.parametrize("gain", [math.nan, math.inf, -math.inf])
def test_distortion_refuses_a_non_finite_gain(gain):
    with pytest.raises(ValueError, match="gain must be finite"):
        distortion_of(jl.gaussian(1.0), jl.gaussian(1.0), gain)


def test_distortion_consistent_with_mmse_field():
    source, noise = jl.uniform(1.0), jl.gaussian(1.0)
    curve = mmse_estimator(source, noise)
    direct = distortion_of(source, noise, curve)
    assert abs(direct - curve.mmse) < 1e-6


def test_best_linear_gain_is_optimal_among_gains():
    source, noise = jl.laplace(1.0), jl.uniform(0.7)
    g0 = 1.0 / (1.0 + 0.7)
    d0 = distortion_of(source, noise, g0)
    assert d0 == pytest.approx(linear_benchmark(1.0, 0.7), rel=5e-5)
    for g in (0.8 * g0, 1.2 * g0):
        assert distortion_of(source, noise, g) > d0


@pytest.mark.parametrize("source,noise", [
    (jl.gaussian(1.0), jl.laplace(0.5)),
    (jl.uniform(1.5), jl.gaussian(1.0)),
    (jl.laplace(1.0), jl.uniform(1.0)),
])
def test_second_moment_benchmark_is_shape_free(source, noise):
    # best linear distortion depends only on the two variances
    got = distortion_of(source, noise, source.variance
                        / (source.variance + noise.variance))
    assert got == pytest.approx(
        linear_benchmark(source.variance, noise.variance), rel=5e-5)


@pytest.mark.parametrize("source,noise", [
    (jl.uniform(1.0), jl.gaussian(1.0)),
    (jl.laplace(1.0), jl.gaussian(1.0)),
    (jl.gaussian_mixture([0.5, 0.5], [0.8, -0.8], [0.6, 0.6]), jl.gaussian(1.0)),
])
def test_conditional_mean_beats_linear(source, noise):
    curve = mmse_estimator(source, noise)
    lin = distortion_of(source, noise,
                        source.variance / (source.variance + noise.variance),
                        grid=curve.grid)
    assert curve.mmse <= lin + 1e-9


def test_output_density_integrates_to_one():
    g = jl.default_grid(jl.laplace(1.0), jl.gaussian(1.0))
    fu = output_density(jl.laplace(1.0), jl.gaussian(1.0), g)
    assert fu.sum() * g.dx == pytest.approx(1.0, abs=1e-9)


# -- the grid convolution ---------------------------------------------------------


def _scipy_convolution(a, b, n, size, start):
    """The n samples from ``start`` of SciPy's transform of a times b at
    ``size``, the reference for jamlab's numpy transforms."""
    return sfft.irfft(sfft.rfft(a, size) * sfft.rfft(b, size), size)[..., start:start + n]


@pytest.mark.parametrize("n", [2048, 4096, 8192])
def test_convolve_tables_is_bitwise_fftconvolve(n):
    # bitwise the FFT convolution at jamlab's length 3n/2, f's spectrum
    # first; scipy.signal.fftconvolve, which transforms at a length of 2n or
    # more, stays in the tests as the oracle of the values
    g = jl.GridSpec(20.0, n)
    fx, fz = jl.laplace(1.0).pdf_on(g), jl.uniform(2.0).pdf_on(g)
    rng = np.random.default_rng(n)
    for f, h in ((g.x * fx, fz), (fx, fz), (rng.random(n), rng.normal(size=n))):
        got = convolve_tables(f, h, g)
        want = _scipy_convolution(f, h, n, 3 * n // 2, n // 2) * g.dx
        assert got.tobytes() == want.tobytes()
        oracle = fftconvolve(f, h)[n // 2: n // 2 + n] * g.dx
        assert np.max(np.abs(got - oracle)) <= 8 * np.finfo(float).eps * np.max(np.abs(oracle))


@pytest.mark.parametrize("n", [2**k for k in range(6, 16)])
def test_twice_the_grid_is_the_fast_convolution_length(n):
    # why _TableEnergy.hessian_diagonal, the one product kept at 2n, costs
    # no more than its linear length needs: SciPy's fast length for 2n - 1
    g = jl.GridSpec(8.0, n)
    energy = _TableEnergy(jl.laplace(1.0).pdf_on(g), g)
    assert energy._squares.shape[-1] == n + 1  # the rfft of 2n points
    assert 2 * n == sfft.next_fast_len(2 * n - 1, real=True)


@pytest.mark.parametrize("n", [2**k for k in range(6, 16)])
def test_three_halves_of_the_grid_is_wrap_free(n):
    # the linear result of two n-point tables has 2n - 1 samples; at length
    # 3n/2 its last ones wrap onto indices n/2 - 2 and below, which neither
    # the forward cut (from n/2) nor the adjoint cut (from n/2 - 1) reads.
    # Unit impulses at both operands' last entry put the whole linear result
    # at index 2n - 2, the sample that wraps furthest in.
    ratio = BayesRatio(np.zeros((2, n)), dx=0.01)
    assert ratio.size == 3 * n // 2
    impulse = np.zeros(n)
    impulse[-1] = 1.0
    spectrum = ratio.spectrum(impulse) * ratio.spectrum(impulse)
    for adjoint in (False, True):
        assert np.max(np.abs(ratio.on_grid(spectrum, adjoint))) < 1e-12
    # a shorter length wraps the same sample into the cut: 0.01 = 1 dx
    for size, start in ((3 * n // 2 - 2, n // 2), (3 * n // 2 - 1, n // 2 - 1)):
        wrapped = _scipy_convolution(impulse, impulse, n, size, start) * ratio.dx
        assert np.max(np.abs(wrapped)) == pytest.approx(ratio.dx, rel=1e-9)


def _scipy_modules_after(code):
    """The SciPy modules loaded in a fresh interpreter after ``code`` runs."""
    src = str(Path(jl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    code += ("\nimport sys; print([m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')])")
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_import_loads_no_scipy_signal():
    # nor any other SciPy module: numpy and the standard library do every
    # transform, quantile and search
    assert _scipy_modules_after("import jamlab, jamlab.cli") == "[]"


def test_mixture_search_loads_no_scipy():
    # the Gaussian-mixture search runs jamlab's own quasi-Newton method
    code = ("import jamlab as jl\n"
            "jl.worst_noise_search(jl.laplace(1), 1, 6, "
            "jl.GaussianMixtureFamily(2), maxfev=50)")
    assert _scipy_modules_after(code) == "[]"
