"""Orthonormal-polynomial expansion of the optimal estimator.

Expanding h(u) = E[X|U=u] in polynomials orthonormal under the output density
f_U turns the MMSE into var(X) - sum(c_m^2), with c_0 = 0 and c_1 fixed by
second moments.  The worst-case noise at a given power budget therefore
minimizes the nonlinear coefficient energy sum_{m>=2} c_m^2, and when a
matching noise exists (source CF to the power 1/kappa is a genuine CF) that
minimum is zero with the matching noise attaining it.

The search minimizes the full tail energy E[h^2] - c_0^2 - c_1^2 computed by
quadrature rather than an order-truncated partial sum: truncated objectives
at reachable orders have spurious near-zero minima far from the matching
noise (symmetric families zero the even coefficients for free, leaving too
few active constraints).  The full tail equals the limit of the truncated
objective and minimizing it is exactly maximizing the true MMSE.

Over density tables the problem is convex.  The numerator and denominator of
the Bayes ratio are linear in the noise table, so E[h^2] = sum num^2/den is a
sum of quadratic-over-linear terms.  Mass, mean and power are linear
constraints, and under them c_0 and c_1 are constants up to grid truncation.
``GridTableFamily`` searches this convex problem directly, so the matching
noise is reachable whenever it exists; ``GaussianMixtureFamily`` can only
approximate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize
from scipy import fft as sfft

from .charfun import cf_divide, cf_of, cf_power, check_validity
from .distributions import (DistributionModel, default_grid, gaussian,
                            gaussian_mixture, tabulated)
from .errors import (BasisMismatch, IllConditioned, InfeasibleFamily,
                     UnstableIntegration)
from .estimation import (_DENSITY_FLOOR, _bayes_ratio, _check_tails,
                         _floored_ratio, mmse_estimator, output_density)
from .grids import GridSpec, read_only_copy

_ORDER_CAP = 12          # Hankel conditioning ceiling in double precision
_HANKEL_COND_LIMIT = 1e12
_CF_RATIO_FLOOR = 1e-6   # recovered noise CF is cut where |F_X| falls below this

_BARRIER_SCHEDULE = (1e-6, 1e-7, 1e-8)  # barrier parameters of the table search
_BARRIER_FLOOR = 1e-6    # barrier weight floor, relative to the start's peak
_START_FLOOR = 1e-12     # keeps the Gaussian start positive, same units
_NEWTON_CAP = 300        # Newton steps per barrier parameter
_CG_CAP = 300            # conjugate-gradient steps per Newton step
_MIXTURE_RESTARTS = 5    # jittered Nelder-Mead starts of the mixture search


# -- orthonormal basis --------------------------------------------------------


@dataclass(frozen=True)
class OrthoPolyBasis:
    """Polynomials orthonormal under a tabulated output density.

    ``poly_coeffs[m, k]`` is the coefficient of u**k in P_m (rows above m are
    zero); ``values[m]`` holds P_m sampled on the measure's grid, computed
    stably by Gram-Schmidt on the grid vectors (high-order monomial
    coefficients cancel catastrophically in the tails, the grid values do
    not).  ``gram_residual`` is the largest deviation of the pairwise inner
    products from the identity.
    """

    measure: DistributionModel
    order: int
    poly_coeffs: np.ndarray
    values: np.ndarray
    gram_residual: float

    def __post_init__(self):
        for name in ("poly_coeffs", "values"):
            object.__setattr__(self, name, read_only_copy(getattr(self, name)))


def build_basis(output_density: DistributionModel, order: int) -> OrthoPolyBasis:
    """Gram-Schmidt on monomials under the f_U inner product.

    Monomials are standardized (powers of u/sigma_U) before orthogonalization
    and fully reorthogonalized (two passes).  Raises ``IllConditioned`` when
    the standardized moment Hankel matrix has condition estimate above 1e12;
    in practice order 12 already trips this for smooth measures, so usable
    orders end around 8-10.
    """
    if output_density.kind != "tabulated":
        raise ValueError("basis measure must be a tabulated density")
    if not (0 <= order <= _ORDER_CAP):
        raise ValueError(f"order must lie in [0, {_ORDER_CAP}]")
    grid = output_density.grid
    fu = output_density.table
    w = fu * grid.dx
    sd = math.sqrt(float(w @ grid.x**2))
    t = grid.x / sd

    mom = np.array([float(w @ t**k) for k in range(2 * order + 1)])
    hankel = np.array([[mom[i + j] for j in range(order + 1)]
                       for i in range(order + 1)])
    cond = float(np.linalg.cond(hankel))
    if cond > _HANKEL_COND_LIMIT:
        raise IllConditioned(
            f"moment Hankel condition {cond:.3g} exceeds {_HANKEL_COND_LIMIT:g}")

    vecs = []
    coefs = []  # rows: coefficients in powers of t
    for m in range(order + 1):
        v = t**m
        c = np.zeros(order + 1)
        c[m] = 1.0
        for _ in range(2):  # full reorthogonalization
            for k in range(len(vecs)):
                proj = float(w @ (v * vecs[k]))
                v = v - proj * vecs[k]
                c = c - proj * coefs[k]
        nrm = math.sqrt(float(w @ v**2))
        if not np.isfinite(nrm) or nrm <= 0:
            raise IllConditioned(f"degenerate measure at degree {m}")
        sign = 1.0 if c[m] > 0 else -1.0
        vecs.append(sign * v / nrm)
        coefs.append(sign * c / nrm)

    values = np.array(vecs)
    gram = values @ (values * w).T
    residual = float(np.max(np.abs(gram - np.eye(order + 1))))
    # convert standardized-monomial coefficients to plain powers of u
    scale = sd ** -np.arange(order + 1)
    poly_coeffs = np.array(coefs) * scale[None, :]
    return OrthoPolyBasis(measure=output_density, order=order,
                          poly_coeffs=poly_coeffs, values=values,
                          gram_residual=residual)


# -- expansion coefficients -------------------------------------------------------


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Coefficients of h in the orthonormal basis, with the implied MMSE.

    ``mmse_poly`` is the table second moment of the source minus the
    coefficient energy up to the basis order; it upper-bounds the true MMSE
    and is non-increasing in the order.
    """

    c: np.ndarray
    mmse_poly: float

    def __post_init__(self):
        object.__setattr__(self, "c", read_only_copy(self.c))


def expansion_coeffs(source: DistributionModel, noise: DistributionModel,
                     basis: OrthoPolyBasis) -> ExpansionCoefficients:
    """c_m = integral of h * P_m weighted by f_U, for the given pair.

    The basis must have been built on this pair's output density (checked to
    1e-8 in sup norm, else ``BasisMismatch``); h and f_U come from one Bayes
    ratio on the basis grid, with ``mmse_estimator``'s tail gate.
    """
    grid = basis.measure.grid
    fx = source.pdf_on(grid)
    h, fu = _bayes_ratio(fx, noise.pdf_on(grid), grid)
    if float(np.max(np.abs(fu - basis.measure.table))) > 1e-8:
        raise BasisMismatch("basis measure differs from the pair's output density")
    _check_tails(grid, source, noise)
    w = fu * grid.dx
    c = basis.values @ (h * w)
    var_table = float(np.sum(grid.x**2 * fx) * grid.dx)
    return ExpansionCoefficients(c=c, mmse_poly=var_table - float(c @ c))


def mmse_via_expansion(source: DistributionModel, noise: DistributionModel,
                       order: int, grid: GridSpec | None = None):
    """Expansion MMSE against the quadrature MMSE; returns (coeffs, gap)."""
    if grid is None:
        grid = default_grid(source, noise)
    fu_model = tabulated(grid, output_density(source, noise, grid))
    basis = build_basis(fu_model, order)
    coeffs = expansion_coeffs(source, noise, basis)
    curve = mmse_estimator(source, noise, grid)
    return coeffs, abs(coeffs.mmse_poly - curve.mmse)


# -- worst-case noise search --------------------------------------------------------


@dataclass(frozen=True)
class GaussianMixtureFamily:
    """Zero-mean k-component Gaussian mixture; 3k-1 free parameters, at most
    11 (k <= 4) for the simplex search."""
    k: int = 3

    def __post_init__(self):
        if not 1 <= self.k <= 4:
            raise ValueError(
                f"mixture needs 1 <= k <= 4 components, got k={self.k}")

    @property
    def parameter_count(self) -> int:
        return 3 * self.k - 1


@dataclass(frozen=True)
class GridTableFamily:
    """Every density table on the search grid with zero mean and the power
    budget.

    Nonparametric, so it holds the matching noise whenever one exists.  The
    search over it is a deterministic convex solve: ``seed`` and ``maxfev``
    do not apply, and the parameter cap does not either.
    """


@dataclass(frozen=True)
class NoiseSearchResult:
    noise: DistributionModel
    objective: float
    mmse_attained: float
    iterations: int
    converged: bool


def _unpack_mixture(params: np.ndarray, k: int, budget: float, sigma_floor: float):
    logits = np.concatenate([params[:k - 1], [0.0]])
    wts = np.exp(logits - logits.max())
    wts = wts / wts.sum()
    mu = params[k - 1:2 * k - 1].copy()
    sg = np.exp(np.clip(params[2 * k - 1:3 * k - 1], -14.0, 8.0))
    mu = mu - float(wts @ mu)
    sg = np.maximum(sg, sigma_floor)
    var = float(wts @ (mu**2 + sg**2))
    s = math.sqrt(budget / var)
    mu, sg = mu * s, np.maximum(sg * s, sigma_floor)
    var = float(wts @ (mu**2 + sg**2))
    mu, sg = mu * math.sqrt(budget / var), sg * math.sqrt(budget / var)
    if np.any(sg < 0.5 * sigma_floor):
        return None
    return wts, mu, sg


def _mixture_table(wts, mu, sg, grid: GridSpec) -> np.ndarray:
    out = np.zeros(grid.num_points)
    for w_i, m_i, s_i in zip(wts, mu, sg):
        out += w_i * np.exp(-(grid.x - m_i)**2 / (2 * s_i**2)) \
            / math.sqrt(2 * math.pi * s_i**2)
    return out


class _TableEnergy:
    """E[h^2] = sum num^2/den dx as a function of the noise table f_Z.

    num = A f_Z and den = B f_Z are the Bayes-ratio convolutions with x f_X
    and f_X, restricted to the grid as in ``convolve_tables``.  Output points
    where den is below the density floor drop out, as in the Bayes ratio.
    The kernel spectra are computed once, one kernel per row: x f_X and f_X
    in ``_kernels``, reversed in ``_adjoints``, and reversed (x f_X)^2,
    x f_X^2 and f_X^2 in ``_squares``; each product is then one ``rfft``
    and one ``irfft`` call over all rows.

    ``tail`` scores any noise table, the mixture family's included, on the
    same spectra.  It multiplies kernel spectrum first, the operand order of
    ``fftconvolve``; complex multiplication in numpy is not bitwise
    commutative, and this order keeps ``tail`` bitwise equal to the Bayes
    ratio built on ``convolve_tables``.
    """

    def __init__(self, fx: np.ndarray, grid: GridSpec):
        n = grid.num_points
        self._x = grid.x
        self._dx = grid.dx
        self._var_x = float(np.sum(grid.x**2 * fx) * grid.dx)
        self._size = sfft.next_fast_len(2 * n - 1, real=True)
        self._on_grid = slice(n // 2, n // 2 + n)
        self._adjoint_on_grid = slice(n // 2 - 1, n // 2 - 1 + n)
        kx = grid.x * fx
        self._kernels = sfft.rfft(np.stack([kx, fx]), self._size)
        self._adjoints = sfft.rfft(np.stack([kx, fx])[:, ::-1], self._size)
        self._squares = sfft.rfft(
            np.stack([kx * kx, kx * fx, fx * fx])[:, ::-1], self._size)

    def _convolve(self, spectra):
        """Grid part of the inverse transform of each row of ``spectra``."""
        return sfft.irfft(spectra, self._size)[:, self._on_grid] * self._dx

    def _forward(self, v):
        """(A v, B v)."""
        return self._convolve(sfft.rfft(v, self._size) * self._kernels)

    def _correlate(self, vectors, spectra):
        """Sum over pairs of the adjoint convolutions K^T v."""
        total = sum(sfft.rfft(np.stack(vectors), self._size) * spectra)
        return sfft.irfft(total, self._size)[self._adjoint_on_grid] * self._dx

    def at(self, fz):
        """(E[h^2], h, 1/den), with h and 1/den zero below the floor."""
        num, den = self._forward(fz)
        ok = den > _DENSITY_FLOOR
        inv_den = np.where(ok, 1.0 / np.where(ok, den, 1.0), 0.0)
        h = num * inv_den
        return float(h @ num) * self._dx, h, inv_den

    def tail(self, fz):
        """(nonlinear coefficient energy of h, table MMSE); h is extended
        past the density floor as in the Bayes ratio."""
        num, den = self._convolve(self._kernels * sfft.rfft(fz, self._size))
        h = _floored_ratio(num, den)
        w = den * self._dx
        eh2 = float(w @ h**2)
        c0 = float(w @ h)
        c1 = float(w @ (self._x * h)) / math.sqrt(float(w @ self._x**2))
        return max(0.0, eh2 - c0 * c0 - c1 * c1), self._var_x - eh2

    def gradient(self, h):
        """dx (A^T 2h - B^T h^2)."""
        return self._dx * self._correlate((2.0 * h, -h * h), self._adjoints)

    def hvp(self, h, inv_den, v):
        """Hessian times v.  The Hessian is 2 dx M^T diag(1/den) M with
        M = A - diag(h) B."""
        a, b = self._forward(v)
        r = (a - h * b) * inv_den
        return 2.0 * self._dx * self._correlate((r, -h * r), self._adjoints)

    def hessian_diagonal(self, h, inv_den):
        return 2.0 * self._dx**2 * self._correlate(
            (inv_den, -2.0 * h * inv_den, h * h * inv_den), self._squares)


def _match_moments(f: np.ndarray, rows: np.ndarray, target: np.ndarray,
                   dx: float) -> np.ndarray:
    """Multiply ``f`` by a quadratic 1 + a + b x + c x^2 chosen so that its
    mass, mean and power equal ``target``.  The factor stays near 1, and f
    positive, when f already nearly meets the target."""
    for _ in range(3):
        coef = np.linalg.solve((rows * f) @ rows.T * dx, target - rows @ f * dx)
        f = f * (1.0 + coef @ rows)
    return f


def _projected_cg(hvp, grad, precond, rows, maxiter: int) -> np.ndarray:
    """Approximate argmin of grad.d + d.K.d/2 subject to rows @ d = 0.

    Conjugate gradients on the null space of ``rows`` with the diagonal
    preconditioner ``precond``; the projection is exact in the metric of the
    preconditioner.  Stops once the preconditioned residual r.z falls below
    a tenth of its starting value.
    """
    pinv = 1.0 / precond
    schur = (rows * pinv) @ rows.T

    def project(r):
        return pinv * (r - rows.T @ np.linalg.solve(schur, rows @ (pinv * r)))

    d = np.zeros_like(grad)
    r = grad.copy()
    z = project(r)
    p = -z
    rz = rz0 = float(r @ z)
    if rz0 <= 0.0:
        return d
    for _ in range(maxiter):
        kp = hvp(p)
        curv = float(p @ kp)
        if curv <= 0.0:
            break
        alpha = rz / curv
        d += alpha * p
        r += alpha * kp
        z = project(r)
        rz_next = float(r @ z)
        if rz_next < 0.1 * rz0:
            break
        p = -z + (rz_next / rz) * p
        rz = rz_next
    for _ in range(2):  # remove the round-off drift out of the null space
        d -= pinv * (rows.T @ np.linalg.solve(schur, rows @ d))
    return d


def _grid_table_search(objective: _TableEnergy, budget: float, grid: GridSpec):
    """Minimize E[h^2] over noise tables of unit mass, zero mean and power
    ``budget``; returns (table, Newton steps, converged).

    Weighted log-barrier Newton method.  The barrier is -mu sum w log f dx
    with weights w the Gaussian start table plus a small floor, so the
    Gaussian is a barrier centre at every mu and the barrier itself adds no
    ripple where the source CF is too small for the objective to see.  Each
    Newton step solves the barrier system by projected conjugate gradients
    with a diagonal (Hessian plus barrier) preconditioner and keeps 1% of
    the distance to the positivity boundary.  A centred iterate at barrier
    parameter mu is within mu * sum(w) dx (about mu) of the minimum, so the
    last mu bounds the barrier's cost at about 1e-8.
    """
    dx = grid.dx
    rows = np.vstack([np.ones_like(grid.x), grid.x, grid.x**2])
    target = np.array([1.0, 0.0, budget])
    start = gaussian(budget).pdf_on(grid)
    peak = float(start.max())
    weights = start + _BARRIER_FLOOR * peak
    f = _match_moments(start + _START_FLOOR * peak, rows, target, dx)
    at_f = objective.at(f)  # then kept from the line search at each step
    steps = 0
    converged = False
    for mu in _BARRIER_SCHEDULE:
        converged = False
        for _ in range(_NEWTON_CAP):
            energy, h, inv_den = at_f
            grad = objective.gradient(h) - mu * dx * weights / f
            bar = mu * dx * weights / f**2
            step = _projected_cg(
                lambda v: objective.hvp(h, inv_den, v) + bar * v, grad,
                np.maximum(objective.hessian_diagonal(h, inv_den), 0.0) + bar,
                rows, _CG_CAP)
            decrement = -float(grad @ step)
            if decrement < 1e-3 * mu:
                converged = True
                break
            shrink = step < 0
            t = min(1.0, 0.99 * float(np.min(f[shrink] / -step[shrink]))) \
                if shrink.any() else 1.0
            merit = energy - mu * dx * float(weights @ np.log(f))
            while t > 1e-10:
                trial = f + t * step
                got = objective.at(trial)
                trial_merit = got[0] - mu * dx * float(weights @ np.log(trial))
                if trial_merit <= merit - 1e-4 * t * decrement:
                    break
                t *= 0.5
            else:
                break  # no descent along the Newton direction
            f, at_f = trial, got
            steps += 1
    return _match_moments(f, rows, target, dx), steps, converged


def _check_family(family) -> None:
    if not isinstance(family, (GaussianMixtureFamily, GridTableFamily)):
        raise ValueError(f"unknown family {family!r}")


def _search_energy(source: DistributionModel, noise_budget: float,
                   grid: GridSpec | None):
    """(grid, ``_TableEnergy`` of the source) for a search at this budget."""
    if not (math.isfinite(noise_budget) and noise_budget > 0):
        raise ValueError("noise budget must be finite and positive")
    if grid is None:
        scale = math.sqrt(noise_budget / source.variance)
        grid = default_grid(source, source.scaled(scale), num_points=2048)
    return grid, _TableEnergy(source.pdf_on(grid), grid)


def _mixture_objective(energy: _TableEnergy, k: int, budget: float, grid: GridSpec):
    """Tail energy of the k-component mixture a parameter vector unpacks to,
    or inf where it unpacks to none."""
    def objective(params):
        got = _unpack_mixture(params, k, budget, 2.0 * grid.dx)
        return float("inf") if got is None else energy.tail(_mixture_table(*got, grid))[0]
    return objective


def worst_noise_search(source: DistributionModel, noise_budget: float,
                       order: int, family=GaussianMixtureFamily(3), *,
                       grid: GridSpec | None = None, seed: int = 0,
                       maxfev: int = 2000) -> NoiseSearchResult:
    """Search for the MMSE-maximizing noise at fixed power.

    ``GaussianMixtureFamily``: Nelder-Mead simplex with jittered restarts;
    every iterate is projected to zero mean and the exact variance budget.
    ``GridTableFamily``: the convex problem over density tables, solved by
    ``_grid_table_search``; ``iterations`` then counts its Newton steps.  The
    objective is the full nonlinear coefficient energy of the induced optimal
    estimator (see module docstring), not a sum truncated at an order:
    ``order`` is accepted for the caller's record and not read, and no
    expansion coefficients are returned.
    """
    _check_family(family)
    parametric = not isinstance(family, GridTableFamily)
    if parametric and maxfev < 1:
        raise ValueError("maxfev must be at least 1")
    grid, energy = _search_energy(source, noise_budget, grid)
    if not parametric:
        fz, steps, converged = _grid_table_search(energy, noise_budget, grid)
        tail, mmse = energy.tail(fz)
        return NoiseSearchResult(noise=tabulated(grid, fz), objective=tail,
                                 mmse_attained=mmse, iterations=steps,
                                 converged=converged)
    objective = _mixture_objective(energy, family.k, noise_budget, grid)
    rng = np.random.default_rng(seed)
    best = best_x = None
    total_evals, converged = 0, False
    for _ in range(_MIXTURE_RESTARTS):
        x0 = rng.normal(0.0, 0.7, family.parameter_count)
        res = minimize(objective, x0, method="Nelder-Mead",
                       options=dict(maxfev=maxfev, fatol=1e-14, xatol=1e-7))
        total_evals += res.nfev
        if np.isfinite(res.fun) and (best is None or res.fun < best):
            best = float(res.fun)
            best_x = res.x
            converged = bool(res.success)
    if best is None or not np.isfinite(best):
        raise InfeasibleFamily("no parameter vector produced a usable density")

    components = _unpack_mixture(best_x, family.k, noise_budget, 2.0 * grid.dx)
    tail, mmse = energy.tail(_mixture_table(*components, grid))
    return NoiseSearchResult(noise=gaussian_mixture(*components), objective=tail,
                             mmse_attained=mmse, iterations=total_evals,
                             converged=converged)


def probe_family(source: DistributionModel, noise_budget: float,
                 family, n_probes: int, seed: int,
                 grid: GridSpec | None = None) -> np.ndarray:
    """Objective values of random parameter draws; local-optimality witness."""
    _check_family(family)
    if isinstance(family, GridTableFamily):
        raise ValueError("probing needs a parametric family")
    grid, energy = _search_energy(source, noise_budget, grid)
    objective = _mixture_objective(energy, family.k, noise_budget, grid)
    rng = np.random.default_rng(seed)
    return np.array([objective(rng.normal(0.0, 0.7, family.parameter_count))
                     for _ in range(n_probes)])


# -- noise recovery from a linear estimator -------------------------------------------


def noise_from_estimator(source: DistributionModel, estimator_coeffs,
                         grid: GridSpec | None = None):
    """Recover the noise CF consistent with a linear conditional mean.

    A conditional mean h(u) = b_0 + b_1 u forces the product G = F_X * F_Z to
    satisfy b_0 G - i b_1 G' = -i F_X' G / F_X (the transform of the Bayes
    identity f_U h = (x f_X) * f_Z), whose solution with G(0) = 1 is
    G = F_X^(1/b_1) exp(-i b_0 omega / b_1): the linearity condition of
    Akyol, Viswanatha and Rose.  G is built in closed form with ``cf_power``
    and divided by F_X with ``cf_divide``, which zeroes the quotient where
    |F_X| < 1e-6.  Returns the validity-tagged noise CF and the residual sup
    |F_X F_Z - G| for omega >= 0 up to the first |F_X| < 1e-6, the round-off
    of that division.  ``cf_of`` checks the source against the grid, so a
    grid too narrow for it raises ``GridTooNarrow``.

    Trailing zero coefficients are trimmed.  A zero or constant estimator,
    or a slope b_1 <= 0, raises ``UnstableIntegration``; degree 2 and above
    raise ``ValueError``.
    """
    b = np.asarray(estimator_coeffs, dtype=float)
    if not np.any(np.abs(b) > 1e-14):
        raise UnstableIntegration(
            "estimator is identically zero: no additive-noise channel of "
            "finite power is consistent with it")
    b = b[:int(np.max(np.nonzero(np.abs(b) > 1e-14)[0])) + 1]
    if len(b) == 1:
        raise UnstableIntegration("constant estimator admits no noise CF")
    if len(b) > 2:
        raise ValueError("estimator degree capped at 1")
    if b[1] <= 0:
        raise UnstableIntegration(
            f"estimator slope {b[1]:g} is not positive: under independent "
            "additive noise the slope is var(X) / var(U) > 0")

    if grid is None:
        grid = default_grid(source, source.scaled(2.0))
    fx = cf_of(source, grid)
    g = cf_power(fx, 1.0 / b[1])
    if b[0] != 0.0:
        g = replace(g, values=g.values * np.exp(-1j * (b[0] / b[1]) * grid.omega))
    cf = check_validity(cf_divide(g, fx, _CF_RATIO_FLOOR))

    n = grid.num_points
    dead = np.abs(fx.values[n // 2:]) < _CF_RATIO_FLOOR
    live = slice(n // 2, n // 2 + (int(np.argmax(dead)) if dead.any() else n // 2))
    return cf, float(np.max(np.abs(fx.values[live] * cf.values[live] - g.values[live])))
