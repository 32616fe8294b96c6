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

from .charfun import cf_divide, cf_of, cf_power, check_validity
from .distributions import (DistributionModel, _mixture_tail_mass, default_grid,
                            gaussian, gaussian_mixture, tabulated)
from .errors import (_MASS_GATE, BasisMismatch, IllConditioned, InfeasibleFamily,
                     UnstableIntegration, check_integer, check_tails)
from .estimation import (_DENSITY_FLOOR, BayesRatio, _check_output_mass,
                         _curve_of, _gated_ratio, linear_benchmark)
from .grids import GridSpec, read_only_copy

_ORDER_CAP = 12          # Hankel conditioning ceiling in double precision
_HANKEL_COND_LIMIT = 1e12
_CF_RATIO_FLOOR = 1e-6   # recovered noise CF is cut where |F_X| falls below this

_BARRIER_SCHEDULE = (1e-6, 1e-7, 1e-8)  # barrier parameters of the table search
_BARRIER_FLOOR = 1e-6    # barrier weight floor, relative to the start's peak
_START_FLOOR = 1e-12     # keeps the Gaussian start positive, same units
_NEWTON_CAP = 300        # Newton steps per barrier parameter
_CG_CAP = 300            # conjugate-gradient steps per Newton step
_CG_MODEL_TOL = 0.5      # Nash-Sofer quadratic-model stopping constant
_MIXTURE_RESTARTS = 5    # seeded starts of the mixture search
_WOLFE_DECREASE = 1e-4   # sufficient-decrease constant of the line search
_WOLFE_CURVATURE = 0.9   # curvature constant of the line search
_QN_FTOL = 1e-12         # a step lowering f by no more than this ends the search
_QN_GTOL = 1e-12         # and so does a gradient no larger than this
_LINE_SEARCH_CAP = 20    # evaluations per line search


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
    orders end around 8-10.  An ``order`` that is no integer in [0, 12]
    raises ``ValueError``.
    """
    if output_density.kind != "tabulated":
        raise ValueError("basis measure must be a tabulated density")
    check_integer("order", order, 0, _ORDER_CAP)
    grid = output_density.grid
    fu = output_density.table
    w = fu * grid.dx
    sd = math.sqrt(float(w @ grid.x**2))
    t = grid.x / sd

    powers = [t**k for k in range(2 * order + 1)]  # also the Gram-Schmidt starts
    mom = np.array([float(w @ p) for p in powers])
    hankel = np.array([[mom[i + j] for j in range(order + 1)]
                       for i in range(order + 1)])
    cond = float(np.linalg.cond(hankel))
    if cond > _HANKEL_COND_LIMIT:
        raise IllConditioned(
            f"moment Hankel condition {cond:.3g} exceeds {_HANKEL_COND_LIMIT:g}")

    vecs = []
    coefs = []  # rows: coefficients in powers of t
    for m in range(order + 1):
        v = powers[m]
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
    ratio on the basis grid, with ``mmse_estimator``'s tail and output-mass
    gates.
    """
    grid = basis.measure.grid
    fx = source.pdf_on(grid)
    h, fu = BayesRatio(np.stack([grid.x * fx, fx]), grid.dx).ratio(noise.pdf_on(grid))
    if float(np.max(np.abs(fu - basis.measure.table))) > 1e-8:
        raise BasisMismatch("basis measure differs from the pair's output density")
    check_tails(grid, source, noise)
    _check_output_mass(fu, grid)
    return _coeffs_of(fx, h, fu, grid, basis)


def _coeffs_of(fx, h, fu, grid: GridSpec, basis) -> ExpansionCoefficients:
    c = basis.values @ (h * (fu * grid.dx))
    var_table = float(np.sum(grid.x**2 * fx) * grid.dx)
    return ExpansionCoefficients(c=c, mmse_poly=var_table - float(c @ c))


def _mmse_report(source: DistributionModel, noise: DistributionModel, order: int,
                 grid: GridSpec | None):
    """(curve, coeffs): the estimator and its expansion from one Bayes ratio."""
    fx, h, fu, grid = _gated_ratio(source, noise, grid)
    coeffs = _coeffs_of(fx, h, fu, grid, build_basis(tabulated(grid, fu), order))
    return _curve_of(fx, h, fu, grid), coeffs


def mmse_via_expansion(source: DistributionModel, noise: DistributionModel,
                       order: int, grid: GridSpec | None = None):
    """Expansion MMSE against the quadrature MMSE; returns (coeffs, gap)."""
    curve, coeffs = _mmse_report(source, noise, order, grid)
    return coeffs, abs(coeffs.mmse_poly - curve.mmse)


# -- worst-case noise search --------------------------------------------------------


@dataclass(frozen=True)
class GaussianMixtureFamily:
    """Zero-mean k-component Gaussian mixture; 3k-1 free parameters, at most
    11 (k <= 4) for the dense quasi-Newton search."""
    k: int = 3

    def __post_init__(self):
        check_integer("k", self.k, 1, 4)

    @property
    def parameter_count(self) -> int:
        return 3 * self.k - 1


@dataclass(frozen=True)
class GridTableFamily:
    """Every density table on the search grid with zero mean and the power
    budget.

    Nonparametric, so it holds the matching noise whenever one exists.  The
    search over it is a deterministic convex solve: ``seed`` and ``maxfev``
    are checked but not read, and the parameter cap does not apply.
    """


@dataclass(frozen=True)
class NoiseSearchResult:
    """``linear_bound`` is v P / (v + P), with v the variance of the source's
    table on the search grid and P the budget: the MMSE of the best linear
    estimator, which ``mmse_attained`` cannot exceed."""

    noise: DistributionModel
    objective: float
    mmse_attained: float
    linear_bound: float
    iterations: int
    converged: bool


def _mixture_parts(params: np.ndarray, k: int, budget: float, sigma_floor: float):
    """(weights, means, sigmas, c, t, s) of the parameter map, or None where
    it has no mixture.  Component i has mean s c_i, with c the centred means,
    and variance floor^2 + s^2 t_i^2; s puts the variance at ``budget``."""
    logits = np.concatenate([params[:k - 1], [0.0]])
    wts = np.exp(logits - logits.max())
    wts = wts / wts.sum()
    c = params[k - 1:2 * k - 1] - float(wts @ params[k - 1:2 * k - 1])
    t = params[2 * k - 1:3 * k - 1]
    var = float(wts @ (c * c + t * t))
    room = budget - sigma_floor**2
    if not (room > 0.0 and 0.0 < var < math.inf and np.all(wts > 0.0)):
        return None
    s = math.sqrt(room / var)
    return wts, s * c, np.sqrt(sigma_floor**2 + (s * t)**2), c, t, s


def _unpack_mixture(params: np.ndarray, k: int, budget: float, sigma_floor: float):
    """(weights, means, sigmas) of the zero-mean mixture at variance ``budget``
    that ``params`` (k - 1 weight logits, k means, k widths) stands for, or
    None.  The map is smooth, and every sigma is at least ``sigma_floor``."""
    parts = _mixture_parts(params, k, budget, sigma_floor)
    return None if parts is None else parts[:3]


def _component_densities(mu, sg, grid: GridSpec):
    """(z, rows): the grid standardized by each component, and its density."""
    z = (grid.x - mu[:, None]) / sg[:, None]
    return z, np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * sg[:, None])


def _mixture_table(wts, mu, sg, grid: GridSpec) -> np.ndarray:
    return wts @ _component_densities(mu, sg, grid)[1]


def _mixture_objective(params, k: int, budget: float, energy, grid: GridSpec):
    """(tail energy, its gradient in ``params``) of the mixture ``params``
    unpacks to; (inf, None) where it unpacks to none, or to one that leaves
    1e-10 or more of its mass off the grid (``check_tails``).  The gradient
    runs from ``_TableEnergy.tail_gradient`` through the component densities
    and back through the parameter map."""
    parts = _mixture_parts(params, k, budget, 2.0 * grid.dx)
    if parts is None:
        return math.inf, None
    wts, mu, sg, c, t, s = parts
    if _mixture_tail_mass(zip(wts, mu, sg), grid.half_width) >= _MASS_GATE:
        return math.inf, None
    z, rows = _component_densities(mu, sg, grid)
    tail, g_table = energy.tail_gradient(wts @ rows)
    zrows = z * rows
    g_w, g_z, g_zz = rows @ g_table, zrows @ g_table, (z * zrows) @ g_table
    g_mu, g_sg = wts * g_z / sg, wts * (g_zz - g_w) / sg
    # back through sigma = sqrt(floor^2 + s^2 t^2), mu = s c and
    # s = sqrt(room / var), var = w . spread
    spread = c * c + t * t
    g_s = float(g_mu @ c) + s * float(g_sg @ (t * t / sg))
    g_var = -0.5 * g_s * s / float(wts @ spread)
    g_c = s * g_mu + 2.0 * g_var * wts * c
    g_t = s * s * g_sg * t / sg + 2.0 * g_var * wts * t
    g_w = g_w + g_var * spread
    # back through c = m - w . m and the softmax weights
    g_m = g_c - wts * g_c.sum()
    g_w = g_w - params[k - 1:2 * k - 1] * g_c.sum()
    g_logits = wts * (g_w - float(wts @ g_w))
    return tail, np.concatenate([g_logits[:k - 1], g_m, g_t])


class _TableEnergy(BayesRatio):
    """E[h^2] = sum num^2/den dx as a function of the noise table f_Z.

    num = A f_Z and den = B f_Z are the Bayes-ratio convolutions with x f_X
    and f_X; output points where den is below the density floor drop out.
    ``_forward`` multiplies the noise spectrum first, unlike ``ratio``: complex
    products are not bitwise commutative, and the Newton iterates keep that order.
    """

    def __init__(self, fx: np.ndarray, grid: GridSpec):
        kx = grid.x * fx
        super().__init__(np.stack([kx, fx]), grid.dx)
        self._x = grid.x
        self._var_x = float(np.sum(grid.x**2 * fx) * grid.dx)
        self._adjoints = self.spectrum(np.stack([kx, fx])[:, ::-1])
        self._squares = np.fft.rfft(np.stack([kx * kx, kx * fx, fx * fx])[:, ::-1],
                                    2 * self.n)

    def _forward(self, v):
        """(A v, B v)."""
        return self.on_grid(self.spectrum(v) * self._kernels)

    def _correlate(self, vectors, spectra):
        """Sum over pairs of the adjoint convolutions K^T v."""
        total = sum(self.spectrum(np.stack(vectors)) * spectra)
        return self.on_grid(total, adjoint=True)

    def at(self, fz):
        """(E[h^2], h, 1/den), with h and 1/den zero below the floor."""
        num, den = self._forward(fz)
        ok = den > _DENSITY_FLOOR
        inv_den = np.where(ok, 1.0 / np.where(ok, den, 1.0), 0.0)
        h = num * inv_den
        return float(h @ num) * self.dx, h, inv_den

    def _coefficients(self, fz):
        """(h, den, E[h^2], c_0, c_1, sqrt(E[U^2])); h is extended past the
        density floor as in the Bayes ratio."""
        h, den = self.ratio(fz)
        w = den * self.dx
        root = math.sqrt(float(w @ self._x**2))
        return h, den, float(w @ h**2), float(w @ h), float(w @ (self._x * h)) / root, root

    def tail(self, fz):
        """(nonlinear coefficient energy of h, table MMSE)."""
        _, _, eh2, c0, c1, _ = self._coefficients(fz)
        return max(0.0, eh2 - c0 * c0 - c1 * c1), self._var_x - eh2

    def tail_gradient(self, fz):
        """(nonlinear coefficient energy of h, its gradient in ``fz``).

        The energy is E[h^2] - c_0^2 - c_1^2 over the output points, with
        num^2/den above the density floor and den h^2 below it.  Below the
        floor h, the extension of its nearest computed value, is held
        constant: its weight there is under 1e-12.
        """
        h, den, eh2, c0, c1, root = self._coefficients(fz)
        tail = eh2 - c0 * c0 - c1 * c1
        if tail <= 0.0:
            return 0.0, np.zeros(self.n)
        ok = den > _DENSITY_FLOOR
        fit = c1 / root * self._x  # c_1 times the first orthonormal polynomial
        d_num = np.where(ok, 2.0 * (h - c0 - fit), 0.0)
        d_den = np.where(ok, -h * h, h * (h - 2.0 * (c0 + fit))) + fit * fit
        return tail, self.dx * self._correlate((d_num, d_den), self._adjoints)

    def gradient(self, h):
        """dx (A^T 2h - B^T h^2)."""
        return self.dx * self._correlate((2.0 * h, -h * h), self._adjoints)

    def hvp(self, h, inv_den, v):
        """Hessian times v.  The Hessian is 2 dx M^T diag(1/den) M with
        M = A - diag(h) B."""
        a, b = self._forward(v)
        r = (a - h * b) * inv_den
        return 2.0 * self.dx * self._correlate((r, -h * r), self._adjoints)

    def hessian_diagonal(self, h, inv_den):
        """At FFT length 2n, not 3n/2, in the adjoint's window.  The entries
        can span 11 decades, and a transform's rounding, about eps times the
        largest entry, swamps the smallest ones: on a 256-point grid it is
        2.2e-16 of the largest at 2n and 3.5e-16 at 3n/2.  One call per
        Newton step, so the longer transform costs little."""
        size, start = 2 * self.n, self.n // 2 - 1
        total = sum(np.fft.rfft(np.stack((inv_den, -2.0 * h * inv_den, h * h * inv_den)),
                                size) * self._squares)
        return 2.0 * self.dx**2 * (np.fft.irfft(total, size)[start:start + self.n] * self.dx)


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
    """Approximate argmin of q(d) = grad.d + d.K.d/2 subject to rows @ d = 0.

    Conjugate gradients on the null space of ``rows`` with the diagonal
    preconditioner ``precond``; the projection is exact in the metric of the
    preconditioner.  Stops once the preconditioned residual r.z falls below
    a tenth of its starting value, or once step k lowers q by no more than
    ``_CG_MODEL_TOL * |q| / k`` (the quadratic-model test of Nash & Sofer,
    "Assessing a search direction within a truncated-Newton method", Oper.
    Res. Lett. 9, 1990).  Each step lowers q by alpha (r.z) / 2, so the test
    costs no product.
    """
    pinv = 1.0 / precond
    schur_inv = np.linalg.inv((rows * pinv) @ rows.T)

    def project(r):
        return pinv * (r - rows.T @ (schur_inv @ (rows @ (pinv * r))))

    d = np.zeros_like(grad)
    r = grad.copy()
    z = project(r)
    p = -z
    rz = rz0 = float(r @ z)
    if rz0 <= 0.0:
        return d
    q = 0.0
    for k in range(1, maxiter + 1):
        kp = hvp(p)
        curv = float(p @ kp)
        if curv <= 0.0:
            break
        alpha = rz / curv
        d += alpha * p
        drop = 0.5 * alpha * rz
        q -= drop
        if k * drop <= _CG_MODEL_TOL * abs(q):
            break
        r += alpha * kp
        z = project(r)
        rz_next = float(r @ z)
        if rz_next < 0.1 * rz0:
            break
        p = -z + (rz_next / rz) * p
        rz = rz_next
    for _ in range(2):  # remove the round-off drift out of the null space
        d -= pinv * (rows.T @ (schur_inv @ (rows @ d)))
    return d


def _grid_table_search(objective: _TableEnergy, budget: float, grid: GridSpec):
    """Minimize E[h^2] over noise tables of unit mass, zero mean and power
    ``budget``; returns (table, Newton steps, converged).

    Weighted log-barrier Newton method.  The barrier is -mu sum w log f dx
    with weights w the Gaussian start table plus a small floor, so the
    Gaussian is a barrier centre at every mu and the barrier itself adds no
    ripple where the source CF is too small for the objective to see.  Each
    Newton step solves the barrier system by projected conjugate gradients
    with a diagonal (Hessian plus barrier) preconditioner.  Its trial point
    max(f + t d, 0.01 f) floors each entry at 1% of its value and has its
    moments restored where the floor binds; t halves while that repair fails
    or the barrier merit misses the Armijo test.  A centred iterate at barrier
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
            merit, t = energy - mu * dx * float(weights @ np.log(f)), 1.0
            # each entry is floored at 1% of itself, so that an entry in the
            # far tails cannot cut the step of all the others
            while t > 1e-10:
                trial, floor, usable = f + t * step, 0.01 * f, True
                if np.any(trial < floor):
                    try:
                        trial = _match_moments(np.maximum(trial, floor), rows, target, dx)
                    except np.linalg.LinAlgError:
                        usable = False
                if usable and 0.0 < trial.min() and trial.max() < math.inf:
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


def _search_energy(source: DistributionModel, noise_budget: float,
                   grid: GridSpec | None):
    """(grid, ``_TableEnergy`` of the source) for a search at this budget;
    ``GridTooNarrow`` where the grid leaves 1e-10 or more of the source's
    mass off."""
    if not (math.isfinite(noise_budget) and noise_budget > 0):
        raise ValueError("noise budget must be finite and positive")
    if grid is None:
        scale = math.sqrt(noise_budget / source.variance)
        grid = default_grid(source, source.scaled(scale), num_points=2048)
    check_tails(grid, source)
    return grid, _TableEnergy(source.pdf_on(grid), grid)


def _wolfe_search(fun, x, f0, g0, d, step: float, evaluations: int):
    """A step along ``d`` that meets the strong Wolfe conditions, by
    Nocedal & Wright's bracketing and zoom (algorithms 3.5 and 3.6) with
    safeguarded quadratic interpolation, in at most ``evaluations`` calls.
    Returns (step, f, g, evaluations used); where the calls run out it
    returns the lowest point with sufficient decrease, step 0 if none.  A
    value that is not finite fails sufficient decrease, so the bracket
    closes on it by bisection."""
    slope0 = float(g0 @ d)
    lo, hi = (0.0, f0, slope0, g0), None
    for used in range(1, evaluations + 1):
        f, g = fun(x + step * d)
        slope = float(g @ d) if math.isfinite(f) else math.nan
        if not (f <= f0 + _WOLFE_DECREASE * step * slope0 and f < lo[1]):
            hi = (step, f, slope)
        elif abs(slope) <= -_WOLFE_CURVATURE * slope0:
            return step, f, g, used
        else:
            if slope * (1.0 if hi is None else hi[0] - lo[0]) >= 0.0:
                hi = lo[:3]
            lo = (step, f, slope, g)
        step = 2.0 * step if hi is None else _interpolate(lo[:3], hi)
    return lo[0], lo[1], lo[3], used


def _interpolate(lo, hi) -> float:
    """The minimizer of the quadratic with lo's (step, f, slope) and hi's f,
    kept within the middle 80% of the bracket; the bracket's midpoint where
    that quadratic has no minimum or hi's f is not finite."""
    (a0, f0, s0), (a1, f1, _) = lo, hi
    d = a1 - a0
    curv = f1 - f0 - s0 * d
    a = a0 - 0.5 * s0 * d * d / curv if 0.0 < curv < math.inf else a0 + 0.5 * d
    ends = sorted((a0 + 0.1 * d, a0 + 0.9 * d))
    return min(max(a, ends[0]), ends[1])


def _quasi_newton(fun, x, maxfev: int):
    """Minimize ``fun`` from ``x`` by BFGS on a dense inverse Hessian
    (Nocedal & Wright, Numerical Optimization, 2nd ed. 2006, algorithm 6.1)
    with a strong Wolfe line search; returns (x, f, evaluations, converged).

    ``fun`` returns (value, gradient); a value that is not finite lies
    outside the domain.  The first step has length 1 along -g, and the
    inverse Hessian is scaled by y.s / y.y before its first update.  The
    search has converged when a step lowers f by no more than 1e-12
    max(|f|, 1), a line search that finds no lower point included, or when
    no gradient entry exceeds 1e-12 in size, unless it used all ``maxfev``
    evaluations: then it has not converged.
    """
    x = np.asarray(x, dtype=float)
    f, g = fun(x)
    nfev = 1
    if not math.isfinite(f):
        return x, f, nfev, False
    inv_h = np.eye(len(x))
    first = True
    while nfev < maxfev:
        if np.max(np.abs(g)) <= _QN_GTOL:
            return x, f, nfev, True
        d = -(inv_h @ g)
        if not float(g @ d) < 0.0:  # rounding spoilt the inverse Hessian
            inv_h, first, d = np.eye(len(x)), True, -g
        step = 1.0 / math.sqrt(float(d @ d)) if first else 1.0
        step, f_new, g_new, used = _wolfe_search(
            fun, x, f, g, d, step, min(maxfev - nfev, _LINE_SEARCH_CAP))
        nfev += used
        s, y = step * d, g_new - g
        x, fell, f, g = x + s, f - f_new, f_new, g_new
        if fell <= _QN_FTOL * max(abs(f), 1.0):
            return x, f, nfev, nfev < maxfev
        sy = float(s @ y)
        if sy <= 0.0:
            continue
        if first:
            inv_h *= sy / float(y @ y)
            first = False
        v = np.eye(len(x)) - np.outer(s, y) / sy
        inv_h = v @ inv_h @ v.T + np.outer(s, s) / sy
    return x, f, nfev, False


def worst_noise_search(source: DistributionModel, noise_budget: float,
                       order: int, family=GaussianMixtureFamily(3), *,
                       grid: GridSpec | None = None, seed: int = 0,
                       maxfev: int = 2000) -> NoiseSearchResult:
    """Search for the MMSE-maximizing noise at fixed power.

    ``GaussianMixtureFamily``: jamlab's own quasi-Newton method
    (``_quasi_newton``) on the exact gradient, from 5 seeded starts of at
    most ``maxfev`` evaluations each; every iterate maps to zero mean and the
    exact variance budget, and ``iterations`` counts the evaluations of the
    objective and its gradient.
    ``GridTableFamily``: the convex problem over density tables, solved by
    ``_grid_table_search``; ``iterations`` then counts its Newton steps.  The
    objective is the full nonlinear coefficient energy of the induced optimal
    estimator (see module docstring), not a sum truncated at an order:
    ``order`` is accepted for the caller's record and not read, and no
    expansion coefficients are returned.  An unknown family, a ``seed`` that
    is no integer from 0, or a ``maxfev`` that is no integer from 1 raises
    ``ValueError`` for either family, before any spectrum is built; so,
    after those checks, does ``GridTooNarrow`` where ``grid`` leaves 1e-10 or
    more of the source's mass off.
    """
    if not isinstance(family, (GaussianMixtureFamily, GridTableFamily)):
        raise ValueError(f"unknown family {family!r}")
    check_integer("seed", seed, 0)
    check_integer("maxfev", maxfev, 1)
    grid, energy = _search_energy(source, noise_budget, grid)
    bound = linear_benchmark(energy._var_x, noise_budget)
    if isinstance(family, GridTableFamily):
        fz, steps, converged = _grid_table_search(energy, noise_budget, grid)
        tail, mmse = energy.tail(fz)
        return NoiseSearchResult(noise=tabulated(grid, fz), objective=tail,
                                 mmse_attained=mmse, linear_bound=bound,
                                 iterations=steps, converged=converged)

    def objective(params):
        return _mixture_objective(params, family.k, noise_budget, energy, grid)

    rng = np.random.default_rng(seed)
    best = best_x = None
    total_evals, converged = 0, False
    for _ in range(_MIXTURE_RESTARTS):
        x0 = rng.normal(0.0, 0.7, family.parameter_count)
        x, fx, nfev, done = _quasi_newton(objective, x0, maxfev)
        total_evals += nfev
        if math.isfinite(fx) and (best is None or fx < best):
            best, best_x, converged = fx, x, done
    if best is None:
        raise InfeasibleFamily("no parameter vector produced a usable density")

    components = _unpack_mixture(best_x, family.k, noise_budget, 2.0 * grid.dx)
    tail, mmse = energy.tail(_mixture_table(*components, grid))
    return NoiseSearchResult(noise=gaussian_mixture(*components), objective=tail,
                             mmse_attained=mmse, linear_bound=bound,
                             iterations=total_evals, converged=converged)


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
    or a slope b_1 <= 0, raises ``UnstableIntegration``; a coefficient that
    is not finite, or degree 2 and above, raises ``ValueError``.
    """
    b = np.asarray(estimator_coeffs, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError(f"estimator coefficients must be finite, got {b}")
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
