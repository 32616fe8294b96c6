"""Closed forms and checks computed apart from jamlab.

Nothing here imports jamlab: every expected value is recomputed from the
paper's formulas with numpy alone, so a fault in the package cannot also
move the yardstick.  Each check returns ``None`` when the answer holds and a
one-line description of the failure otherwise.
"""

from __future__ import annotations

import math

import numpy as np

SE_GATE = 4.0  # Monte Carlo gates, in standard errors


def signal_grid(half_width: float, n: int) -> np.ndarray:
    return (np.arange(n) - n // 2) * (2.0 * half_width / n)


def frequency_grid(half_width: float, n: int) -> np.ndarray:
    return (np.arange(n) - n // 2) * (math.pi / half_width)


def closed_form_cf(family: str, variance: float, omega: np.ndarray) -> np.ndarray:
    """E[exp(j omega X)] of a zero-mean family at the given variance."""
    if family == "gaussian":
        return np.exp(-variance * omega**2 / 2.0)
    if family == "laplace":
        return 1.0 / (1.0 + variance * omega**2 / 2.0)
    if family == "uniform":
        a = math.sqrt(3.0 * variance)
        return np.sinc(a * omega / math.pi)
    if family == "rademacher":
        return np.cos(math.sqrt(variance) * omega)
    raise ValueError(family)


def table_cf(table: np.ndarray, x: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """dx * sum_k f(x_k) exp(j omega x_k), by direct summation."""
    dx = x[1] - x[0]
    out = np.empty(len(omega), dtype=complex)
    for i in range(0, len(omega), 256):
        out[i:i + 256] = np.exp(1j * np.outer(omega[i:i + 256], x)) @ table * dx
    return out


def saddle_cost(var_x: float, var_n: float, power_tx: float, power_jam: float) -> float:
    """sigma_X^2 (P_A + sigma_N^2) / (P_T + P_A + sigma_N^2)."""
    return var_x * (power_jam + var_n) / (power_tx + power_jam + var_n)


def exploit_cost(var_x: float, var_n: float, power_tx: float, power_jam: float,
                 rho: float, p: float) -> float:
    """Second-moment cost of the sign exploit.

    Encoder gamma alpha X with P(gamma = +1) = p, jammer c X + R with
    c = rho sqrt(P_A / sigma_X^2) and var R = (1 - rho^2) P_A, decoder
    gamma g U.  The error is (1 - g alpha - gamma g c) X - gamma g (R + N),
    so E[err^2] = (1 - g alpha)^2 s + g^2 (P_A + sigma_N^2)
    - 2 E[gamma] c g (1 - g alpha) s with s = sigma_X^2, minimised at the g
    where its derivative in g vanishes.
    """
    alpha = math.sqrt(power_tx / var_x)
    c = rho * math.sqrt(power_jam / var_x)
    e = 2.0 * p - 1.0
    noise = power_jam + var_n
    g = (alpha + e * c) * var_x / (alpha**2 * var_x + noise + 2.0 * e * c * alpha * var_x)
    return ((1.0 - g * alpha) ** 2 * var_x + g * g * noise
            - 2.0 * e * c * g * (1.0 - g * alpha) * var_x)


def tail_energy(fx: np.ndarray, fz: np.ndarray, x: np.ndarray) -> float:
    """Nonlinear coefficient energy E[h^2] - c_0^2 - c_1^2 of the
    conditional-mean estimator of X from X + Z, by direct convolution."""
    n, dx = len(x), x[1] - x[0]
    num = np.convolve(x * fx, fz)[n // 2:n // 2 + n] * dx
    den = np.convolve(fx, fz)[n // 2:n // 2 + n] * dx
    ok = den > 1e-12
    h = np.where(ok, num / np.where(ok, den, 1.0), 0.0)
    w = np.where(ok, den, 0.0) * dx
    c0 = float(w @ h)
    c1 = float(w @ (x * h)) / math.sqrt(float(w @ x**2))
    return float(w @ h**2) - c0 * c0 - c1 * c1


# -- checks ---------------------------------------------------------------------


def cf_close(values: np.ndarray, expected: np.ndarray, tol: float, what: str):
    err = float(np.max(np.abs(values - expected)))
    return None if err <= tol else f"{what}: CF off by {err:.3g} > {tol:g}"


def variance_close(measured: float, budget: float, what: str, rtol: float = 1e-4):
    if abs(measured - budget) <= rtol * budget:
        return None
    return f"{what}: variance {measured!r} not within {rtol:g} of {budget:g}"


def density_moments(table: np.ndarray, x: np.ndarray, what: str,
                    power: float | None = None, tol: float = 1e-9,
                    mean_tol: float | None = None):
    """Unit mass, zero mean and (when given) the power, on the table's grid."""
    dx = x[1] - x[0]
    mass = float(np.sum(table) * dx)
    mean = float(np.sum(x * table) * dx)
    if abs(mass - 1.0) > tol:
        return f"{what}: mass {mass!r}"
    if abs(mean) > (tol if mean_tol is None else mean_tol):
        return f"{what}: mean {mean!r}"
    if power is not None:
        second = float(np.sum(x * x * table) * dx)
        if abs(second - power) > tol:
            return f"{what}: power {second!r}, budget {power:g}"
    return None


def within_se(cost: float, expected: float, se: float, what: str,
              gate: float = SE_GATE):
    z = (cost - expected) / se
    return None if abs(z) <= gate else f"{what}: cost {cost:.6g} is {z:.2f} SE from {expected:.6g}"


def at_least(cost: float, bound: float, se: float, what: str, gate: float = SE_GATE):
    """cost >= bound - gate * se (no encoder deviation beats the saddle)."""
    ok = cost >= bound - gate * se
    return None if ok else f"{what}: cost {cost:.6g} below {bound:.6g} - {gate:g} SE"


def at_most(cost: float, bound: float, se: float, what: str, gate: float = SE_GATE):
    """cost <= bound + gate * se (no jammer deviation beats the saddle)."""
    ok = cost <= bound + gate * se
    return None if ok else f"{what}: cost {cost:.6g} above {bound:.6g} + {gate:g} SE"
