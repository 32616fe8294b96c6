"""Numerical minimum-mean-square-error estimation for additive noise.

The conditional mean h(u) = E[X | X + Z = u] is computed by grid quadrature:
numerator and denominator of the Bayes ratio are linear convolutions of the
tabulated densities, by the ``BayesRatio`` that the worst-noise search and the
game's decoders share.  The MMSE comes from the orthogonality identity
var(X) - E[h^2(U)], a dimension of quadrature fewer than the direct squared
error, which ``distortion_of`` keeps as a cross-check in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfun import cf_of, cf_power, check_validity, density_from_cf
from .distributions import DistributionModel, default_grid
from .errors import GridTooNarrow, check_tails
from .grids import GridSpec, read_only_copy

_DENSITY_FLOOR = 1e-12  # below this, h is extended by its nearest computed value
_LINEARITY_TOL = 1e-4   # linearity residual a matched source's estimator stays below
_QUADRATURE_ROWS = 256  # source points per block of the direct distortion integral


@dataclass(frozen=True)
class EstimatorCurve:
    """Estimator samples h(u) on the signal grid with its quality numbers.

    ``mmse`` is var(X) - E[h^2(U)]; ``linearity_residual`` is the L2(f_U)
    distance between h and its best linear fit under the output density.
    """

    grid: GridSpec
    values: np.ndarray
    mmse: float
    linearity_residual: float

    def __post_init__(self):
        object.__setattr__(self, "values", read_only_copy(self.values))


class BayesRatio:
    """The Bayes ratio h = num/den of noise tables against two kernel rows (x f_X
    and f_X, or an encoder's first-moment and mass deposits), whose spectra it
    keeps.  Convolutions are linear along the last axis at FFT length 2n, the fast
    length for 2n - 1 at a GridSpec's power of two, cut to n samples times ``dx``."""

    def __init__(self, rows: np.ndarray, dx: float = 1.0):
        self.n, self.dx, self.size = rows.shape[-1], dx, 2 * rows.shape[-1]
        self._kernels = self.spectrum(rows)

    def spectrum(self, tables):
        return np.fft.rfft(tables, self.size)

    def on_grid(self, spectra, adjoint=False):
        """An adjoint's kernel is reversed, so its samples start a lag earlier."""
        start = self.n // 2 - adjoint
        return np.fft.irfft(spectra, self.size)[..., start:start + self.n] * self.dx

    def convolve(self, table):
        """The kernel rows convolved with ``table``; kernel spectrum first."""
        return self.on_grid(self._kernels * self.spectrum(table))

    def ratio(self, table):
        """(h, den) for the noise ``table``, h extended past the density floor."""
        num, den = self.convolve(table)
        return _floored_ratio(num, den), den


def convolve_tables(f: np.ndarray, g: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Linear convolution of two density tables, restricted to the grid.  The
    spectrum of f multiplies that of g, the operand order of
    ``scipy.signal.fftconvolve``, whose bits the tests hold this to."""
    return BayesRatio(f, grid.dx).convolve(g)


def _check_output_mass(fu: np.ndarray, grid: GridSpec) -> None:
    """GridTooNarrow where f_U = f_X * f_Z has 1e-10 or more of its mass off
    the grid, as when each density fits the grid but their sum does not."""
    lost = 1.0 - float(fu.sum() * grid.dx)
    if lost >= 1e-10:
        raise GridTooNarrow(f"output density loses {lost:.3g} of its mass "
                            "off the grid, not below 1e-10")


def _floored_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num/den above the density floor, extended outward by the nearest value."""
    ok = den > _DENSITY_FLOOR
    h = np.zeros(len(den))
    np.divide(num, den, out=h, where=ok)
    idx = np.nonzero(ok)[0]
    if len(idx) == 0:
        raise GridTooNarrow("output density vanishes everywhere on the grid")
    h[:idx[0]] = h[idx[0]]
    h[idx[-1] + 1:] = h[idx[-1]]
    return h


def _weighted_linear_fit(h: np.ndarray, fu: np.ndarray, grid: GridSpec) -> float:
    """Residual of the best a + b*u fit to h in L2(f_U).

    Weights below the density floor are dropped: that is where h is a flat
    extension rather than a computed value, and the measure there is
    vanishing by construction.
    """
    w = fu * grid.dx
    w = np.where(fu >= _DENSITY_FLOOR, w, 0.0)
    s0, s1, s2 = w.sum(), float(w @ grid.x), float(w @ grid.x**2)
    t0, t1 = float(w @ h), float(w @ (grid.x * h))
    det = s0 * s2 - s1 * s1
    a = (s2 * t0 - s1 * t1) / det
    b = (s0 * t1 - s1 * t0) / det
    resid2 = float(w @ (h - a - b * grid.x) ** 2)
    return math.sqrt(max(0.0, resid2))


def _curve_of(fx, h, fu, grid: GridSpec) -> EstimatorCurve:
    # the table's own second moment, so the orthogonality identity and the
    # direct squared-error quadrature agree in the same discrete measure
    var_table = float(np.sum(grid.x**2 * fx) * grid.dx)
    return EstimatorCurve(grid=grid, values=h,
                          mmse=var_table - float(np.sum(h * h * fu) * grid.dx),
                          linearity_residual=_weighted_linear_fit(h, fu, grid))


def mmse_estimator(source: DistributionModel, noise: DistributionModel,
                   grid: GridSpec | None = None) -> EstimatorCurve:
    """Conditional-mean estimator for U = X + Z with its MMSE.

    Works on cell-averaged tables of both densities.  Outside the support of
    f_U the Bayes ratio is 0/0; those samples take the nearest computed value,
    which cannot affect the MMSE since the f_U-weight vanishes there.  Raises
    ``GridTooNarrow`` where X, Z or U has 1e-10 or more of its mass off the grid.
    """
    return _curve_of(*_gated_ratio(source, noise, grid))


def _gated_ratio(source: DistributionModel, noise: DistributionModel,
                 grid: GridSpec | None):
    """(f_X, h, f_U, grid) between the tail and output-mass gates."""
    grid = grid or default_grid(source, noise)
    check_tails(grid, source, noise)
    fx = source.pdf_on(grid)
    h, fu = BayesRatio(np.stack([grid.x * fx, fx]), grid.dx).ratio(noise.pdf_on(grid))
    _check_output_mass(fu, grid)
    return fx, h, fu, grid


def output_density(source: DistributionModel, noise: DistributionModel,
                   grid: GridSpec) -> np.ndarray:
    """Table of the output density f_U for U = X + Z."""
    return convolve_tables(source.pdf_on(grid), noise.pdf_on(grid), grid)


@dataclass(frozen=True)
class MatchedSourceResult:
    matched: bool
    reason: str
    source: DistributionModel | None
    curve: EstimatorCurve | None


def matched_source_check(noise: DistributionModel, kappa: float,
                         grid: GridSpec | None = None) -> MatchedSourceResult:
    """Try to build the source whose optimal estimator against ``noise`` is
    linear with gain kappa/(kappa+1).

    The candidate has CF equal to the noise CF raised to the SNR kappa; it
    exists iff that power passes the validity battery.  On success the
    estimator evidence (linearity residual below 1e-4) is attached.
    """
    if not (math.isfinite(kappa) and kappa > 0):
        raise ValueError("kappa must be finite and positive")
    if grid is None:
        grid = default_grid(noise, noise.scaled(math.sqrt(max(kappa, 1.0))))
    powered = check_validity(cf_power(cf_of(noise, grid), kappa))
    if not powered.is_valid:
        return MatchedSourceResult(False, powered.reason, None, None)
    source = density_from_cf(powered)
    curve = mmse_estimator(source, noise, grid)
    if curve.linearity_residual >= _LINEARITY_TOL:
        return MatchedSourceResult(
            False, f"estimator residual {curve.linearity_residual:.3g} "
                   f"not below {_LINEARITY_TOL:g}", source, curve)
    return MatchedSourceResult(True, "", source, curve)


def distortion_of(source: DistributionModel, noise: DistributionModel,
                  estimator, grid: GridSpec | None = None) -> float:
    """E[(X - h(X+Z))^2] by direct two-dimensional quadrature.

    ``estimator`` is an :class:`EstimatorCurve` or a plain linear gain, which
    must be finite (else ``ValueError``).  Grid positions are closed under
    addition, so h(x+z) is an exact table lookup on a doubled index range
    with nearest-value extension beyond the grid.
    """
    curve = isinstance(estimator, EstimatorCurve)
    if not (curve or math.isfinite(estimator)):
        raise ValueError(f"estimator gain must be finite, got {estimator!r}")
    if grid is None:
        grid = estimator.grid if curve else default_grid(source, noise)
    check_tails(grid, source, noise)
    n = grid.num_points
    if curve:
        if estimator.grid != grid:
            raise ValueError("estimator curve lives on a different grid")
        h = estimator.values
    else:
        h = float(estimator) * grid.x
    # h on index range [-n/2, 3n/2): u = x_i + x_j sits at index i + j - n/2
    h_ext = np.concatenate([np.full(n // 2, h[0]), h, np.full(n // 2, h[-1])])
    fx = source.pdf_on(grid)
    fz = noise.pdf_on(grid)
    total = 0.0
    j = np.arange(n)
    for i0 in range(0, n, _QUADRATURE_ROWS):
        i = np.arange(i0, min(i0 + _QUADRATURE_ROWS, n))
        keep = fx[i] > 0
        i = i[keep]
        if len(i) == 0:
            continue
        hv = h_ext[i[:, None] + j[None, :]]
        err2 = (grid.x[i][:, None] - hv) ** 2
        total += float((fx[i] @ (err2 * fz[None, :]).sum(axis=1)))
    return total * grid.dx * grid.dx


def linear_benchmark(sigma_x2: float, sigma_z2: float) -> float:
    """Distortion of the best linear estimator; depends on second moments only."""
    return sigma_x2 * sigma_z2 / (sigma_x2 + sigma_z2)
