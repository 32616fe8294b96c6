"""Zero-mean scalar distribution models.

A :class:`DistributionModel` is either an analytic family (Gaussian, Laplace,
Uniform, scaled Rademacher, zero-mean Gaussian mixture) or a tabulated density
on a :class:`~jamlab.grids.GridSpec`.  All models are zero mean by
construction; attempts to build a non-zero-mean model raise
:class:`~jamlab.errors.NonZeroMean`.

Tabulated densities returned by ``pdf_on`` are cell averages (CDF differences
over grid cells), so their Riemann sum equals the in-grid probability mass
exactly.  This matters for discontinuous families: sampled indicator values
would bias quadratures at O(dx) while cell averages are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import MomentOverflow, NonZeroMean, check_integer
from .grids import GridSpec

GAUSSIAN = "gaussian"
LAPLACE = "laplace"
UNIFORM = "uniform"
RADEMACHER = "rademacher"
GAUSSIAN_MIXTURE = "gaussian_mixture"
TABULATED = "tabulated"

_MOMENT_ORDER_CAP = 24  # higher-order moment Hankel matrices are singular in float64
_MEAN_RTOL = 1e-9
_GUIDE_BINS_PER_POINT = 8  # a power of two, so the guide's bin edges b/m are exact
_INVERSION_BLOCK = 8192  # draws inverted at a time: 64 KB temporaries stay in cache
_GRID_TAIL_MASS = 1e-12  # mass each model may leave outside the default grid
_GRID_SIGMAS = 12.0      # least default-grid half-width, in the widest model's sigmas
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_HALF_BITS = np.float64(0.5).view(np.int64)  # u >= 1/2 iff u's bits are >= these
_SIGN_BIT = np.int64(-1 << 63)


def _erf(y):
    """``math.erf`` elementwise; a scalar gives a float."""
    if np.ndim(y) == 0:
        return math.erf(y)
    y = np.asarray(y, dtype=float)
    return np.fromiter(map(math.erf, y.ravel().tolist()), float,
                       y.size).reshape(y.shape)


def _erfc_inverse(t: float) -> float:
    """The z with erfc(z) = t, for t in (0, 1), by Newton's method on
    log erfc(z) = log t.

    The start z = sqrt(-log t) has erfc(z) <= exp(-z^2) = t, so it lies at or
    right of the root; log erfc is concave and decreasing, so every step
    lands at or right of the root too, and z falls monotonically.  The loop
    stops at the first step that does not lower z, once rounding is all
    that is left.
    """
    z = math.sqrt(-math.log(t))
    while True:
        e = math.erfc(z)
        # f = log(erfc(z) / t), exact near the root through the difference
        # e - t; f' = -2 exp(-z^2) / (sqrt(pi) erfc(z))
        f = math.log1p((e - t) / t)
        nxt = z + f * e / (_TWO_OVER_SQRT_PI * math.exp(-z * z))
        if not nxt < z:
            return z
        z = nxt


def _laplace(rng: np.random.Generator, b: float, size: int) -> np.ndarray:
    """``rng.laplace(0.0, b, size)`` within 2 ulp, from the same uniforms.

    ``Generator.laplace`` maps u in (0, 1) to ``0 - b log(2 - u - u)`` for
    u >= 1/2 and ``0 + b log(u + u)`` below, with the C library's scalar
    log, and redraws a u of 0.  Here the log is numpy's vectorized one, and
    the branch is a blend of int64 bit views: masked ufuncs and ``np.where``
    cost what the vector log saves.  b log(.) <= 0 on both branches, so a
    draw is its magnitude with the sign bit set below 1/2 (u = 1/2 gives +0).
    """
    u = rng.random(size)
    while not u.all():  # a zero uniform: the draws after it shift up by one
        kept = u[u != 0.0]
        u = np.concatenate([kept, rng.random(size - kept.size)])
    low = u.view(np.int64) - _HALF_BITS
    low >>= 63  # all ones where u < 1/2, else 0
    arg = np.subtract(2.0, u)
    arg -= u
    u += u
    pick, bits = u.view(np.int64), arg.view(np.int64)
    pick ^= bits
    pick &= low
    bits ^= pick  # u + u where u < 1/2, else 2 - u - u
    np.log(arg, out=arg)
    arg *= b
    bits &= ~_SIGN_BIT
    low &= _SIGN_BIT
    bits |= low
    return arg


def _gauss_cdf(x, var):
    return 0.5 * (1.0 + _erf(x / np.sqrt(2.0 * var)))


def _gauss_pdf(x, var):
    return np.exp(-x * x / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def _mixture_tail_mass(components, L: float) -> float:
    """Mass outside [-L, L] of the Gaussian mixture with ``(weight, mean,
    sigma)`` triples ``components``, closed form."""
    return float(sum(w * (1.0 - _gauss_cdf(L - mu, s * s) + _gauss_cdf(-L - mu, s * s))
                     for w, mu, s in components))


@dataclass(frozen=True)
class DistributionModel:
    """A zero-mean scalar distribution with lazily derived transforms.

    ``components`` is only set for Gaussian mixtures: a tuple of
    ``(weight, mean, sigma)`` triples whose weighted mean is zero.
    ``table``/``grid`` are only set for tabulated densities;
    ``negativity_floor`` records the most negative pre-clip value seen when
    the table came from a numerical inversion.  A table whose mean exceeds
    1e-6 sigma, or a mixture whose mean exceeds 1e-9 sigma, raises
    ``NonZeroMean`` here, however the model is built.
    """

    kind: str
    variance: float
    components: tuple = None
    grid: GridSpec = None
    table: np.ndarray = None
    negativity_floor: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.variance) or self.variance <= 0:
            raise ValueError("variance must be finite and positive")
        # transform-derived tables carry ~1e-7 asymmetry from the unpaired
        # leftmost bin and ringing clips; only genuine offsets are rejected
        if self.kind == TABULATED and abs(m := self.mean()) > 1e-6 * self.sigma:
            raise NonZeroMean(f"tabulated mean {m:g} violates the zero-mean convention")
        if self.kind == GAUSSIAN_MIXTURE and abs(m := self.mean()) > _MEAN_RTOL * self.sigma:
            raise NonZeroMean(f"mixture mean {m:g} violates the zero-mean convention")

    # -- basic descriptors -------------------------------------------------

    @property
    def sigma(self) -> float:
        return math.sqrt(self.variance)

    def mean(self) -> float:
        if self.kind == TABULATED:
            return float(np.sum(self.grid.x * self.table) * self.grid.dx)
        if self.kind == GAUSSIAN_MIXTURE:
            w, mu, _ = np.array(self.components).T
            return float(np.sum(w * mu))
        return 0.0

    # -- pointwise density and CDF ----------------------------------------

    def pdf_at(self, x):
        """Density values at arbitrary points (point evaluation, not cell average)."""
        x = np.asarray(x, dtype=float)
        if self.kind == GAUSSIAN:
            return _gauss_pdf(x, self.variance)
        if self.kind == LAPLACE:
            b = self.sigma / math.sqrt(2.0)
            return np.exp(-np.abs(x) / b) / (2.0 * b)
        if self.kind == UNIFORM:
            a = math.sqrt(3.0 * self.variance)
            return np.where(np.abs(x) <= a, 1.0 / (2.0 * a), 0.0)
        if self.kind == GAUSSIAN_MIXTURE:
            out = np.zeros_like(x)
            for w, mu, s in self.components:
                out += w * _gauss_pdf(x - mu, s * s)
            return out
        if self.kind == TABULATED:
            return np.interp(x, self.grid.x, self.table, left=0.0, right=0.0)
        raise ValueError(f"{self.kind} has no pointwise density")

    def cdf_at(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == GAUSSIAN:
            return _gauss_cdf(x, self.variance)
        if self.kind == LAPLACE:
            b = self.sigma / math.sqrt(2.0)
            # one exponent -|x| / b <= 0 for both sides, so neither overflows
            tail = 0.5 * np.exp(-np.abs(x) / b)
            return np.where(x < 0, tail, 1.0 - tail)
        if self.kind == UNIFORM:
            a = math.sqrt(3.0 * self.variance)
            return np.clip((x + a) / (2.0 * a), 0.0, 1.0)
        if self.kind == RADEMACHER:
            s = self.sigma
            return np.where(x < -s, 0.0, np.where(x < s, 0.5, 1.0))
        if self.kind == GAUSSIAN_MIXTURE:
            out = np.zeros_like(x)
            for w, mu, s in self.components:
                out += w * _gauss_cdf(x - mu, s * s)
            return out
        if self.kind == TABULATED:
            c = np.concatenate([[0.0], np.cumsum(self.table) * self.grid.dx])
            edges = np.concatenate([self.grid.x - self.grid.dx / 2,
                                    [self.grid.x[-1] + self.grid.dx / 2]])
            return np.interp(x, edges, c, left=0.0, right=c[-1])
        raise ValueError(self.kind)

    def pdf_on(self, grid: GridSpec) -> np.ndarray:
        """Density table on ``grid``.

        Smooth fast-decaying families (Gaussian, mixtures) are sampled
        pointwise: midpoint sums are then exponentially accurate.  Families
        with kinks or jumps (Laplace, Uniform) use cell averages (CDF
        differences), which keep the in-grid mass exact where sampled values
        would be biased at O(dx).  Rademacher mass goes on the grid cells
        nearest +-sigma (exact on a ``default_grid``, which snaps); an atom
        outside the grid's span [-L, L) drops out, as cell averages do.
        """
        if self.kind == TABULATED and grid == self.grid:
            return self.table.copy()
        if self.kind in (GAUSSIAN, GAUSSIAN_MIXTURE):
            return self.pdf_at(grid.x)
        if self.kind == RADEMACHER:
            out = np.zeros(grid.num_points)
            for point in (-self.sigma, self.sigma):
                if -grid.half_width <= point < grid.half_width:
                    out[np.argmin(np.abs(grid.x - point))] += 0.5 / grid.dx
            return out
        edges = np.concatenate([grid.x - grid.dx / 2, [grid.x[-1] + grid.dx / 2]])
        c = self.cdf_at(edges)
        return np.diff(c) / grid.dx

    # -- characteristic function -------------------------------------------

    def cf_at(self, omega):
        """E[exp(j*omega*X)] at arbitrary frequencies, closed form where known."""
        omega = np.asarray(omega, dtype=float)
        if self.kind == GAUSSIAN:
            return np.exp(-self.variance * omega**2 / 2.0) + 0.0j
        if self.kind == LAPLACE:
            return 1.0 / (1.0 + self.variance * omega**2 / 2.0) + 0.0j
        if self.kind == UNIFORM:
            a = math.sqrt(3.0 * self.variance)
            return np.sinc(a * omega / np.pi) + 0.0j
        if self.kind == RADEMACHER:
            return np.cos(self.sigma * omega) + 0.0j
        if self.kind == GAUSSIAN_MIXTURE:
            out = np.zeros(omega.shape, dtype=complex)
            for w, mu, s in self.components:
                out += w * np.exp(1j * mu * omega - s * s * omega**2 / 2.0)
            return out
        if self.kind == TABULATED:
            # direct sum; exact transform of the table at any frequency
            flat = omega.reshape(-1)
            out = np.empty(flat.shape, dtype=complex)
            chunk = max(1, 2**22 // self.grid.num_points)
            for i in range(0, flat.size, chunk):
                block = flat[i:i + chunk, None] * self.grid.x[None, :]
                out[i:i + chunk] = (np.exp(1j * block) @ self.table) * self.grid.dx
            return out.reshape(omega.shape)
        raise ValueError(self.kind)

    # -- sampling ------------------------------------------------------------

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` draws, in a new array the caller may write over.  A
        Laplace model's are ``rng.laplace(0.0, sigma / sqrt 2, size)``'s
        within 2 ulp, from the same uniforms.  A tabulated model inverts its
        CDF at the right cell edges: its draws equal ``np.interp(rng.random(
        size), cdf, edges)`` bit for bit, with the normalized CDF ``cdf``."""
        if self.kind == GAUSSIAN:
            return rng.normal(0.0, self.sigma, size)
        if self.kind == LAPLACE:
            return _laplace(rng, self.sigma / math.sqrt(2.0), size)
        if self.kind == UNIFORM:
            a = math.sqrt(3.0 * self.variance)
            return rng.uniform(-a, a, size)
        if self.kind == RADEMACHER:
            return self.sigma * rng.choice([-1.0, 1.0], size)
        if self.kind == GAUSSIAN_MIXTURE:
            w = np.array([c[0] for c in self.components])
            idx = rng.choice(len(self.components), size=size, p=w / w.sum())
            mu = np.array([c[1] for c in self.components])[idx]
            s = np.array([c[2] for c in self.components])[idx]
            return mu + s * rng.normal(size=size)
        if self.kind == TABULATED:
            return self._inverse_cdf(rng.random(size))
        raise ValueError(self.kind)

    @cached_property
    def _inverse_cdf(self) -> "_InverseCdf":
        # built on the first draw, not in ``tabulated``: most tables are
        # never sampled, and the table is read-only, so the cache cannot go stale
        return _InverseCdf(self.grid, self.table)

    # -- algebra ---------------------------------------------------------------

    def scaled(self, c: float) -> "DistributionModel":
        """Distribution of c*X."""
        if c == 0 or not np.isfinite(c):
            raise ValueError("scale factor must be nonzero and finite")
        v = self.variance * c * c
        if self.kind in (GAUSSIAN, LAPLACE, UNIFORM, RADEMACHER):
            return replace(self, variance=v)
        if self.kind == GAUSSIAN_MIXTURE:
            comps = tuple((w, mu * c, s * abs(c)) for w, mu, s in self.components)
            return replace(self, variance=v, components=comps)
        if self.kind == TABULATED:
            vals = self.pdf_at(self.grid.x / c) / abs(c)
            total = vals.sum() * self.grid.dx
            if total <= 0:
                raise ValueError("rescaled table lost all mass on its grid")
            return tabulated(self.grid, vals / total)
        raise ValueError(self.kind)

    # -- support and tails -------------------------------------------------------

    def tail_mass_outside(self, half_width: float) -> float:
        """Probability mass outside [-half_width, half_width], closed form.
        A half-width below 0, or NaN, raises ``ValueError``."""
        L = half_width
        if not L >= 0:
            raise ValueError(f"half-width must be at least 0, got {L!r}")
        if self.kind == GAUSSIAN:
            return float(2.0 * (1.0 - _gauss_cdf(L, self.variance)))
        if self.kind == LAPLACE:
            b = self.sigma / math.sqrt(2.0)
            return float(np.exp(-L / b))
        if self.kind == UNIFORM:
            a = math.sqrt(3.0 * self.variance)
            return float(max(0.0, 1.0 - min(L, a) / a))
        if self.kind == RADEMACHER:
            return 0.0 if L >= self.sigma else 1.0
        if self.kind == GAUSSIAN_MIXTURE:
            return _mixture_tail_mass(self.components, L)
        if self.kind == TABULATED:
            outside = np.abs(self.grid.x) > L
            return float(np.sum(self.table[outside]) * self.grid.dx)
        raise ValueError(self.kind)

    def required_half_width(self, tail_target: float = 1e-12) -> float:
        """Smallest half-width keeping mass outside below ``tail_target``.
        A target outside (0, 1), or NaN, raises ``ValueError``."""
        if not 0.0 < tail_target < 1.0:
            raise ValueError(f"tail target must lie in (0, 1), got {tail_target!r}")
        if self.kind == GAUSSIAN:
            return self.sigma * math.sqrt(2.0) * _erfc_inverse(tail_target)
        if self.kind == LAPLACE:
            b = self.sigma / math.sqrt(2.0)
            return float(b * math.log(1.0 / tail_target))
        if self.kind == UNIFORM:
            return math.sqrt(3.0 * self.variance)
        if self.kind == RADEMACHER:
            return self.sigma
        if self.kind == GAUSSIAN_MIXTURE:
            w_min = min(c[0] for c in self.components)
            z = math.sqrt(2.0) * _erfc_inverse(tail_target * w_min)
            return float(max(abs(mu) + s * z for _, mu, s in self.components))
        if self.kind == TABULATED:
            return self.grid.half_width
        raise ValueError(self.kind)


class _InverseCdf:
    """``np.interp(u, cdf, edges)`` for u in [0, 1), bit for bit, where
    ``cdf`` is a table's normalized CDF at its right cell edges ``edges``.

    The binary search for k = #{cdf <= u} is replaced by a guide table
    (Chen & Asau 1974; Devroye 1986, III.2.4): with m bins over [0, 1),
    ``guide[b] = #{cdf <= b/m}``, so a draw in bin b has k between
    ``guide[b]`` and ``guide[b + 1]``.  Where those differ by at most one,
    a single comparison fixes k; the few bins that hold more CDF points
    (the flat tails) are marked -1 and their draws searched.  Then
    np.interp's own arithmetic, with j = k - 1: u below cdf[0] gives
    edges[0], u on a node gives edges[j], and otherwise
    ``slope[j] * (u - cdf[j]) + edges[j]``.  The node, slope and edge
    arrays carry one leading entry for k = 0 and one trailing slope for
    k = n, so every k reads the same formula.
    """

    def __init__(self, grid: GridSpec, table: np.ndarray):
        cdf = np.cumsum(table) * grid.dx
        cdf /= cdf[-1]
        edges = grid.x + grid.dx / 2
        n = cdf.size
        m = _GUIDE_BINS_PER_POINT * n
        # #{cdf <= b/m} = #{ceil(cdf*m) <= b}: a histogram, not a search
        guide = np.cumsum(np.bincount(np.ceil(cdf * m).astype(np.intp),
                                      minlength=m + 1))
        crowded = np.diff(guide) > 1
        guide = guide[:-1].astype(np.int32)
        guide[crowded] = -1
        gap = np.diff(cdf)
        with np.errstate(over="ignore"):  # a subnormal step has slope inf
            slope = np.divide(np.diff(edges), gap, out=np.zeros(n - 1),
                              where=gap > 0)  # no draw lands on a flat step
        self._bins = float(m)
        self._guide = guide
        self._cdf = cdf
        self._node = np.concatenate([[0.0], cdf])
        self._edge = np.concatenate([edges[:1], edges])
        self._slope = np.concatenate([[0.0], slope, [0.0]])
        self._steep = bool(np.isinf(slope).any())

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """The draws for the uniforms ``u``, written over ``u``."""
        for start in range(0, u.size, _INVERSION_BLOCK):
            self._invert(u[start:start + _INVERSION_BLOCK])
        return u

    def _invert(self, u: np.ndarray) -> None:
        # every index is in range; "clip" skips take's bounds check and lets
        # it write into ``out`` without a buffer
        k = self._guide.take(np.multiply(u, self._bins).astype(np.intp),
                             mode="clip")
        crowded = np.flatnonzero(k < 0)
        if crowded.size:  # exact counts, so the fix-up below adds 0 to them
            k[crowded] = np.searchsorted(self._cdf, u.take(crowded), "right")
        k += self._cdf.take(k, mode="clip") <= u
        d = self._node.take(k, mode="clip")
        np.subtract(u, d, out=d)
        with np.errstate(invalid="ignore"):
            d *= self._slope.take(k, mode="clip")
        if self._steep:  # inf * 0 on a node: np.interp returns its edge
            d[np.isnan(d)] = 0.0
        np.take(self._edge, k, out=u, mode="clip")
        u += d


# -- constructors ------------------------------------------------------------


def gaussian(variance: float) -> DistributionModel:
    return DistributionModel(GAUSSIAN, float(variance))


def laplace(variance: float) -> DistributionModel:
    return DistributionModel(LAPLACE, float(variance))


def uniform(variance: float) -> DistributionModel:
    return DistributionModel(UNIFORM, float(variance))


def rademacher_scaled(sigma: float) -> DistributionModel:
    """Equiprobable atoms at -sigma and sigma."""
    if not np.isfinite(sigma) or sigma <= 0:
        raise ValueError("sigma must be finite and positive")
    return DistributionModel(RADEMACHER, float(sigma) ** 2)


def gaussian_mixture(weights, means, sigmas) -> DistributionModel:
    weights = np.asarray(weights, dtype=float)
    means = np.asarray(means, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if not (len(weights) == len(means) == len(sigmas)):
        raise ValueError("weights, means, sigmas must have equal length")
    if np.any(weights <= 0) or np.any(sigmas <= 0):
        raise ValueError("weights and sigmas must be positive")
    weights = weights / weights.sum()
    variance = float(np.sum(weights * (means**2 + sigmas**2)))
    comps = tuple((float(w), float(mu), float(s))
                  for w, mu, s in zip(weights, means, sigmas))
    return DistributionModel(GAUSSIAN_MIXTURE, variance, components=comps)


def tabulated(grid: GridSpec, values: np.ndarray) -> DistributionModel:
    """Tabulated density on ``grid``; values are clipped at 0 and renormalized.

    Negative values are not rejected: the lower of the table's minimum and 0
    is recorded as the model's ``negativity_floor``.
    Raises ``ValueError`` if the table does not fit the grid, has no positive
    mass or does not integrate to 1 within 1e-6, and ``NonZeroMean`` if its mean is not zero.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.num_points,):
        raise ValueError("table shape must match the grid")
    floor = float(min(values.min(), 0.0))
    scale = float(values.max())
    if scale <= 0:
        raise ValueError("table has no positive mass")
    total = float(values.sum() * grid.dx)
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"table integrates to {total:.8f}, not 1")
    vals = np.clip(values, 0.0, None)
    vals = vals / (vals.sum() * grid.dx)
    variance = float(np.sum(grid.x**2 * vals) * grid.dx)
    vals.flags.writeable = False
    return DistributionModel(TABULATED, variance, grid=grid, table=vals,
                             negativity_floor=floor)


# -- moments -------------------------------------------------------------------


def _double_factorial(k: int) -> float:
    out = 1.0
    while k > 1:
        out *= k
        k -= 2
    return out


def moments(dist: DistributionModel, up_to: int) -> np.ndarray:
    """Central moments m_0..m_up_to (closed forms; quadrature for tables).
    An ``up_to`` that is no integer in [0, 24] raises ``ValueError``."""
    check_integer("moment order", up_to, 0, _MOMENT_ORDER_CAP)
    ks = np.arange(up_to + 1)
    if dist.kind == TABULATED:
        x, f, dx = dist.grid.x, dist.table, dist.grid.dx
        out = np.array([float(np.sum(x**k * f) * dx) for k in ks])
        # truncation estimate: mass in the outermost cells scaled by x^k
        edge = (abs(x[0]) ** ks) * (f[0] + f[1] + f[-2] + f[-1]) * dx
        ref = np.maximum(np.abs(out), dist.sigma ** ks)
        if np.any(edge / ref > 1e-8):
            k_bad = int(ks[np.argmax(edge / ref > 1e-8)])
            raise MomentOverflow(f"order-{k_bad} moment loses >1e-8 beyond the grid edge")
        return out

    out = np.zeros(up_to + 1)
    out[0] = 1.0
    for k in range(2, up_to + 1):
        if dist.kind == GAUSSIAN:
            mk = dist.variance ** (k / 2) * _double_factorial(k - 1) if k % 2 == 0 else 0.0
        elif dist.kind == LAPLACE:
            b = dist.sigma / math.sqrt(2.0)
            mk = math.factorial(k) * b**k if k % 2 == 0 else 0.0
        elif dist.kind == UNIFORM:
            a = math.sqrt(3.0 * dist.variance)
            mk = a**k / (k + 1) if k % 2 == 0 else 0.0
        elif dist.kind == RADEMACHER:
            mk = dist.sigma**k if k % 2 == 0 else 0.0
        elif dist.kind == GAUSSIAN_MIXTURE:
            mk = 0.0
            for w, mu, s in dist.components:
                for j in range(0, k + 1, 2):
                    mk += w * math.comb(k, j) * mu ** (k - j) * s**j * _double_factorial(j - 1)
        else:
            raise ValueError(dist.kind)
        out[k] = mk
    return out


# -- grid selection --------------------------------------------------------------


def default_grid(*models: DistributionModel, num_points: int = 4096) -> GridSpec:
    """Grid wide enough for every model in play.

    Half-width is the larger of 12 * max(sigma) and each model's half-width
    for tail mass 1e-12 (heavy-tailed families need more than 12 sigma to
    reach the 1e-10 construction gate).  If a Rademacher model is present the
    width is nudged so its atoms land exactly on grid points.
    """
    if not models:
        raise ValueError("at least one model required")
    L = max(_GRID_SIGMAS * max(m.sigma for m in models),
            max(m.required_half_width(_GRID_TAIL_MASS) for m in models))
    rad = [m for m in models if m.kind == RADEMACHER]
    if rad:
        s = max(m.sigma for m in rad)
        k = math.floor(num_points * s / (2.0 * L))
        if k >= 1:
            L = num_points * s / (2.0 * k)
    return GridSpec(half_width=float(L), num_points=num_points)
