"""Numerical minimum-mean-square-error estimation for additive noise.

The conditional mean h(u) = E[X | X + Z = u] is computed by grid quadrature:
numerator and denominator of the Bayes ratio are linear convolutions of the
tabulated densities.  The MMSE itself comes from the orthogonality identity
var(X) - E[h^2(U)], which needs one dimension fewer of quadrature than the
direct squared-error integral; the direct form is kept as ``distortion_of``
and doubles as an independent cross-check in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from .charfun import cf_of, cf_power, check_validity, density_from_cf
from .distributions import DistributionModel, default_grid
from .errors import GridTooNarrow
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


def convolve_tables(f: np.ndarray, g: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Linear convolution of two density tables, restricted to the grid."""
    n = grid.num_points
    return fftconvolve(f, g)[n // 2: n // 2 + n] * grid.dx


def _check_tails(grid: GridSpec, *models: DistributionModel) -> None:
    """GridTooNarrow where a model has 1e-10 or more of its mass off the grid."""
    for d in models:
        if d.tail_mass_outside(grid.half_width) >= 1e-10:
            raise GridTooNarrow("component tail mass exceeds 1e-10 on this grid")


def _bayes_ratio(fx: np.ndarray, fz: np.ndarray, grid: GridSpec):
    num = convolve_tables(grid.x * fx, fz, grid)
    den = convolve_tables(fx, fz, grid)
    return _floored_ratio(num, den), den


def _floored_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num/den above the density floor, extended outward by the nearest value."""
    ok = den > _DENSITY_FLOOR
    h = np.zeros(len(den))
    h[ok] = num[ok] / den[ok]
    idx = np.nonzero(ok)[0]
    if len(idx) == 0:
        raise GridTooNarrow("output density vanishes everywhere on the grid")
    h[:idx[0]] = h[idx[0]]
    h[idx[-1] + 1:] = h[idx[-1]]
    return h


def _weighted_linear_fit(h: np.ndarray, fu: np.ndarray, grid: GridSpec):
    """Best a + b*u fit to h in L2(f_U), returned as (a, b, residual).

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
    return a, b, math.sqrt(max(0.0, resid2))


def mmse_estimator(source: DistributionModel, noise: DistributionModel,
                   grid: GridSpec | None = None) -> EstimatorCurve:
    """Conditional-mean estimator for U = X + Z with its MMSE.

    Works on cell-averaged tables of both densities.  Outside the support of
    f_U the Bayes ratio is 0/0; those samples take the nearest computed value,
    which cannot affect the MMSE since the f_U-weight vanishes there.
    """
    if grid is None:
        grid = default_grid(source, noise)
    _check_tails(grid, source, noise)
    fx = source.pdf_on(grid)
    h, fu = _bayes_ratio(fx, noise.pdf_on(grid), grid)
    eh2 = float(np.sum(h * h * fu) * grid.dx)
    # the table's own second moment, so the orthogonality identity and the
    # direct squared-error quadrature agree in the same discrete measure
    var_table = float(np.sum(grid.x**2 * fx) * grid.dx)
    mmse = var_table - eh2
    _, _, resid = _weighted_linear_fit(h, fu, grid)
    return EstimatorCurve(grid=grid, values=h, mmse=mmse, linearity_residual=resid)


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
    if kappa <= 0:
        raise ValueError("kappa must be positive")
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

    ``estimator`` is an :class:`EstimatorCurve` or a plain linear gain.  Grid
    positions are closed under addition, so h(x+z) is an exact table lookup
    on a doubled index range with nearest-value extension beyond the grid.
    """
    if grid is None:
        grid = estimator.grid if isinstance(estimator, EstimatorCurve) \
            else default_grid(source, noise)
    _check_tails(grid, source, noise)
    n = grid.num_points
    if isinstance(estimator, EstimatorCurve):
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


def best_linear_gain(sigma_x2: float, sigma_z2: float) -> float:
    return sigma_x2 / (sigma_x2 + sigma_z2)


def linear_benchmark(sigma_x2: float, sigma_z2: float) -> float:
    """Distortion of the best linear estimator; depends on second moments only."""
    return sigma_x2 * sigma_z2 / (sigma_x2 + sigma_z2)
