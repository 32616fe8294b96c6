"""Characteristic-function algebra on sample grids.

Transform convention: F(omega) = E[exp(j*omega*X)], discretized as

    F_j = dx * sum_k f(x_k) exp(j * omega_j * x_k)

on the centered grids of :class:`~jamlab.grids.GridSpec`.  The forward and
inverse discrete transforms used here are exact inverses of each other, so a
table -> CF -> table round trip is bitwise-stable to machine precision.

Fractional powers use a complex logarithm whose branch is tracked continuously
outward from omega=0 (phase unwrapping); principal-branch logs would inject
spurious 2*pi jumps that break Hermitian symmetry.  The branch tracking
computes the 2*pi correction only at phase steps of at least pi (NaN steps
included) and equals ``np.unwrap`` bit for bit.  Where the input magnitude
falls below the floor before the grid edge, the power/quotient is truncated to
zero outward and the result is flagged.

The validity battery's nonnegativity check inverts with a triangular (Fejer)
frequency window.  The windowed kernel is nonnegative, so any genuine CF stays
nonnegative up to aliasing, while the raw (rectangular) inversion rings at
1e-2..1e-4 around density discontinuities and would misclassify valid CFs such
as the uniform family's.  Genuine non-CFs still show negativity orders of
magnitude above the 1e-6 floor after windowing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import DistributionModel, tabulated
from .errors import (ExcessImaginary, GridMismatch, NotHermitian, ZeroCrossing,
                     check_tails)
from .grids import GridSpec, read_only_copy

VALID = "valid"
INVALID = "invalid"
UNCHECKED = "unchecked"

_CF_ATOL = 1e-9        # F(0)=1 / Hermitian / |F|<=1 tolerances
_NEG_FLOOR = -1e-6     # allowed negativity of the windowed inversion
_POWER_FLOOR = 1e-12   # default |F| floor for fractional powers
_DIVIDE_FLOOR = 1e-8   # default |den| floor for deconvolution


@dataclass(frozen=True)
class CharacteristicFunction:
    """Complex CF samples on a grid, with a validity verdict.

    ``validity`` is one of ``"valid"``, ``"invalid"`` or ``"unchecked"``;
    ``reason`` names the first failed check when invalid.  ``truncated``
    marks outputs whose sub-floor region was zeroed by a power or quotient.
    The constructor keeps a read-only copy of ``values``.
    """

    grid: GridSpec
    values: np.ndarray
    validity: str = UNCHECKED
    reason: str = ""
    truncated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "values", read_only_copy(
            self.values, complex, self.grid.num_points))

    @property
    def is_valid(self) -> bool:
        return self.validity == VALID

    def at_zero(self) -> complex:
        return complex(self.values[self.grid.num_points // 2])


def _wrap(grid: GridSpec, vals: np.ndarray, validity: str = UNCHECKED,
          reason: str = "", truncated: bool = False) -> CharacteristicFunction:
    """A CF around ``vals``, a complex array of the grid's length made in this
    module and not kept by its maker: frozen in place where the constructor
    would copy it, since at 8,192 points every copy is a full-grid array."""
    vals.flags.writeable = False
    cf = object.__new__(CharacteristicFunction)
    cf.__dict__.update(grid=grid, values=vals, validity=validity,
                       reason=reason, truncated=truncated)
    return cf


# -- transforms ----------------------------------------------------------------


def _swap_halves(a: np.ndarray) -> np.ndarray:
    # both fftshift and ifftshift on the even grids GridSpec enforces
    h = len(a) // 2
    return np.concatenate((a[h:], a[:h]))


def _density_to_cf_values(f: np.ndarray, grid: GridSpec) -> np.ndarray:
    n = grid.num_points
    return _swap_halves(np.fft.ifft(_swap_halves(f))) * (n * grid.dx)


def _cf_values_to_density(vals: np.ndarray, grid: GridSpec) -> np.ndarray:
    n = grid.num_points
    return _swap_halves(np.fft.fft(_swap_halves(vals))) / (n * grid.dx)


def _jump_corrections(p: np.ndarray):
    """(indices into ``np.diff(p)``, 2*pi corrections) of the phase steps of
    at least pi, NaN steps included, each reduced with numpy's own formula."""
    d = np.diff(p)
    jump = np.flatnonzero(~(np.abs(d) < np.pi))
    dj = d[jump]
    m = np.mod(dj + np.pi, 2 * np.pi) - np.pi
    m[(m == -np.pi) & (dj > 0)] = np.pi
    return jump, m - dj


def _unwrap(p: np.ndarray) -> np.ndarray:
    """``np.unwrap(p)`` of a 1-D float array, bit for bit.

    np.unwrap reduces every step mod 2*pi and then zeroes the correction
    wherever the step is below pi; here only the steps where ``|d| < pi``
    fails (NaN included) are reduced.  The corrections are still summed over
    the whole array, so signed zeros come out as numpy's do.
    """
    jump, c = _jump_corrections(p)
    up = p.copy()
    if not len(jump):
        up[1:] += 0.0  # numpy adds a zero correction: -0.0 becomes +0.0
        return up
    corr = np.zeros(len(p) - 1)
    corr[jump] = c
    up[1:] = p[1:] + np.cumsum(corr)
    return up


def _unwrapped_last(p: np.ndarray) -> float:
    """``_unwrap(p)[-1]`` of two or more phases, without unwrapping the rest:
    the zero corrections between the jumps leave the running sum as it is,
    and no correction is -0.0, so the sum over the jumps alone ends on the
    same bits.  A NaN result is NaN there too, though its sign bit may
    differ: numpy's add picks the NaN operand by array length."""
    jump, c = _jump_corrections(p)
    return p[-1] + (np.cumsum(c)[-1] if len(jump) else 0.0)


def _structural_failure(cf: CharacteristicFunction):
    """(error type, reason) of the first failed structural check -- finite
    samples (naming the first offending omega), F(0)=1, Hermitian symmetry --
    or None when all three pass."""
    bad = ~np.isfinite(cf.values)
    if bad.any():
        i = int(np.argmax(bad))
        return ValueError, (f"non-finite sample {complex(cf.values[i])} "
                            f"at omega = {cf.grid.omega[i]:.6g}")
    z = cf.at_zero()
    if abs(z - 1.0) > _CF_ATOL:
        return ValueError, f"cf(0) = {z:.6g}, expected 1"
    # index 0 (most negative frequency) has no positive partner on the grid
    tail = cf.values[1:]
    defect = float(np.max(np.abs(tail - np.conj(tail[::-1]))))
    if defect > _CF_ATOL:
        return NotHermitian, f"hermitian symmetry defect {defect:.3g}"
    return None


def _windowed_density(cf: CharacteristicFunction) -> np.ndarray:
    n = cf.grid.num_points
    j = np.arange(n) - n // 2
    w = np.maximum(0.0, 1.0 - np.abs(j) / (n // 2))
    return _cf_values_to_density(cf.values * w, cf.grid)


# -- construction ----------------------------------------------------------------


def cf_of(dist: DistributionModel, grid: GridSpec) -> CharacteristicFunction:
    """CF of a model sampled on the grid's frequencies.

    Analytic families use closed forms; tabulated models transform their
    table (exact FFT path when the grids coincide).  Raises ``GridTooNarrow``
    when 1e-10 or more of the model's mass lies outside the grid.
    """
    check_tails(grid, dist)
    if dist.kind == "tabulated" and dist.grid == grid:
        vals = _density_to_cf_values(dist.table, grid)
    else:
        vals = dist.cf_at(grid.omega)
    return _wrap(grid, vals, validity=VALID)


def density_from_cf(cf: CharacteristicFunction) -> DistributionModel:
    """Inverse transform onto the signal grid, returned as a tabulated model.

    Requires finite samples, F(0)=1 and Hermitian symmetry, raising
    ``ValueError`` or ``NotHermitian`` with the reason ``check_validity``
    would record; the imaginary residue of the inversion must stay below
    1e-6.  Negative ringing is clipped away and the pre-clip floor, 0 where
    no sample is negative, is recorded on the output model.
    """
    failed = _structural_failure(cf)
    if failed:
        raise failed[0](failed[1])
    f = _cf_values_to_density(cf.values, cf.grid)
    imag = float(np.max(np.abs(f.imag)))
    if imag > 1e-6:
        raise ExcessImaginary(f"imaginary residue {imag:.3g} exceeds 1e-6")
    return tabulated(cf.grid, f.real)


# -- algebra ------------------------------------------------------------------


def cf_power(cf: CharacteristicFunction, beta: float,
             floor: float = _POWER_FLOOR, strict: bool = False) -> CharacteristicFunction:
    """F**beta with the log branch unwrapped continuously outward from 0.

    The branch is tracked by ``_unwrap``, which computes the 2*pi correction
    only at phase steps of at least pi and equals ``np.unwrap`` bit for bit.
    The output is Hermitian by construction with F(0)=1 exact.  Samples beyond
    the first point where |F| < floor are zeroed (``truncated`` set on the
    output); in strict mode that situation raises ``ZeroCrossing`` instead.
    """
    if beta <= 0 or not np.isfinite(beta):
        raise ValueError("power must be positive and finite")
    if beta == 1.0:
        return cf
    n = cf.grid.num_points
    half = cf.values[n // 2:]
    mag = np.abs(half)
    if strict:
        # strict mode refuses CFs that are not safely nonvanishing: either a
        # sample below the 1e-12 yardstick, or a sign change of a real-valued
        # CF (the zero then falls between samples)
        yard = max(floor, _POWER_FLOOR)
        dips = np.where(mag < yard)[0]
        real_valued = float(np.max(np.abs(half.imag))) < 1e-12
        crossing = real_valued and bool(
            np.any(np.diff(np.sign(half.real[mag > 0])) != 0))
        if len(dips) or crossing:
            where = (cf.grid.omega[n // 2 + int(dips[0])] if len(dips)
                     else float("nan"))
            raise ZeroCrossing(
                f"CF vanishes on the grid (first dip at omega = {where:.4g})"
                if len(dips) else "real CF changes sign between samples")
    sub = np.where(mag < floor)[0]
    cut = int(sub[0]) if len(sub) else len(half)
    truncated = cut < len(half)
    out_half = np.zeros(len(half), dtype=complex)
    phase = _unwrap(np.angle(half[:cut]))
    with np.errstate(under="ignore"):
        out_half[:cut] = mag[:cut] ** beta * np.exp(1j * beta * phase)
    out_half[0] = 1.0 + 0.0j
    vals = np.empty(n, dtype=complex)
    vals[n // 2:] = out_half
    vals[1:n // 2] = np.conj(out_half[1:][::-1])
    # index 0 (most negative frequency) has no positive partner: walk the
    # branch down the left half instead
    edge = cf.values[n // 2::-1]
    mag0 = float(np.abs(edge[-1]))
    if truncated or mag0 < floor:
        vals[0] = 0.0
        truncated = truncated or mag0 < floor
    else:
        phase0 = _unwrapped_last(np.angle(edge))
        vals[0] = mag0 ** beta * np.exp(1j * beta * phase0)
    return _wrap(cf.grid, vals, truncated=truncated or cf.truncated)


def cf_multiply(a: CharacteristicFunction, b: CharacteristicFunction) -> CharacteristicFunction:
    """Pointwise product: CF of the sum of independent variables."""
    if a.grid != b.grid:
        raise GridMismatch("operands live on different grids")
    return _wrap(a.grid, a.values * b.values,
                 truncated=a.truncated or b.truncated)


def cf_divide(num: CharacteristicFunction, den: CharacteristicFunction,
              floor: float = _DIVIDE_FLOOR) -> CharacteristicFunction:
    """Pointwise quotient where |den| >= floor; zero (and flagged) elsewhere."""
    if num.grid != den.grid:
        raise GridMismatch("operands live on different grids")
    if not (0.0 < floor < 1.0):
        raise ValueError("floor must lie in (0, 1)")
    ok = np.abs(den.values) >= floor
    vals = np.zeros(num.grid.num_points, dtype=complex)
    with np.errstate(over="ignore", under="ignore"):
        np.divide(num.values, den.values, out=vals, where=ok)
    return _wrap(num.grid, vals, truncated=bool(
        (~ok).any()) or num.truncated or den.truncated)


# -- validity -------------------------------------------------------------------


def check_validity(cf: CharacteristicFunction) -> CharacteristicFunction:
    """Run the validity battery and return the CF tagged with its verdict.

    Checks, in order: finite samples (NaN or inf; the reason names the
    first offending omega), F(0)=1, Hermitian symmetry, |F| <= 1, and
    nonnegativity of the Fejer-windowed inversion (floor -1e-6).  The first
    failure is recorded as the reason.  The windowed inversion needs no
    separate unit-integral check: it sums to F(0) * w(0) = F(0) up to FFT
    rounding, and F(0) = 1 is checked to 1e-9.
    """
    failed = _structural_failure(cf)
    if failed:
        return _wrap(cf.grid, cf.values, INVALID, failed[1], cf.truncated)
    over = float(np.max(np.abs(cf.values))) - 1.0
    if over > _CF_ATOL:
        return _wrap(cf.grid, cf.values, INVALID,
                     f"magnitude exceeds 1 by {over:.3g}", cf.truncated)
    floor = float(_windowed_density(cf).real.min())
    if floor < _NEG_FLOOR:
        return _wrap(cf.grid, cf.values, INVALID,
                     f"density negativity floor {floor:.3g}", cf.truncated)
    return _wrap(cf.grid, cf.values, VALID, "", cf.truncated)


# -- diagnostics -----------------------------------------------------------------


def sup_distance(a: CharacteristicFunction, b: CharacteristicFunction) -> float:
    if a.grid != b.grid:
        raise GridMismatch("operands live on different grids")
    return float(np.max(np.abs(a.values - b.values)))


def variance_from_cf(cf: CharacteristicFunction) -> float:
    """Variance from the curvature of F at 0 (6th-order, 7-point stencil)."""
    c = cf.grid.num_points // 2
    v = cf.values.real
    second = (2 * v[c + 3] - 27 * v[c + 2] + 270 * v[c + 1] - 490 * v[c]
              + 270 * v[c - 1] - 27 * v[c - 2] + 2 * v[c - 3]) / (180 * cf.grid.domega**2)
    return float(-second)
