"""Optimal-jammer synthesis via characteristic-function matching.

The jammer that forces the transmitter/receiver pair to their linear-mapping
ceiling has CF equal to the source CF (argument rescaled by the transmit gain)
raised to the power-ratio exponent ``beta``, deconvolved by the channel-noise
CF.  When that quotient passes the validity battery the game has an exact
saddle point with the all-linear cost; otherwise the configuration is
non-matching and only approximations exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .charfun import (CharacteristicFunction, cf_divide, cf_of, cf_power,
                      check_validity, density_from_cf, sup_distance,
                      variance_from_cf)
from .distributions import DistributionModel, default_grid, gaussian, laplace, uniform
from .errors import PreconditionViolated
from .grids import GridSpec

_IDENTICAL_TOL = 1e-6  # sup CF distance of the identical-distribution check


@dataclass(frozen=True)
class JammingGameConfig:
    """Game data: source X, channel noise N, transmit power and jam power.

    Derived quantities: ``beta`` = (P_A + var_N) / P_T (a reciprocal-CSNR-like
    ratio), ``alpha_t`` = sqrt(P_T / var_X) (the linear transmit gain),
    ``saddle_cost`` = the all-linear game value, equal to the linear-mapping
    distortion bound ``linear_bound``.
    """

    source: DistributionModel
    channel_noise: DistributionModel
    power_tx: float
    power_jam: float

    def __post_init__(self):
        if not (np.isfinite(self.power_tx) and self.power_tx > 0):
            raise ValueError("power_tx must be positive")
        if not (np.isfinite(self.power_jam) and self.power_jam > 0):
            raise ValueError("power_jam must be positive")

    @cached_property
    def beta(self) -> float:
        return (self.power_jam + self.channel_noise.variance) / self.power_tx

    @cached_property
    def alpha_t(self) -> float:
        return math.sqrt(self.power_tx / self.source.variance)

    @cached_property
    def saddle_cost(self) -> float:
        sx2, sn2 = self.source.variance, self.channel_noise.variance
        return sx2 * (self.power_jam + sn2) / (self.power_tx + self.power_jam + sn2)

    @property
    def linear_bound(self) -> float:
        """Distortion of the best fixed linear encoder/decoder pair."""
        return self.saddle_cost

    def grid_for(self, num_points: int = 4096) -> GridSpec:
        """Default grid covering the scaled source, the noise, and a jammer
        of power P_A shaped like either input family."""
        candidates = [self.source.scaled(self.alpha_t), self.channel_noise]
        for proto in (self.source, self.channel_noise):
            try:
                candidates.append(proto.scaled(
                    math.sqrt(self.power_jam / proto.variance)))
            except ValueError:
                pass
        candidates.append(gaussian(self.power_jam))
        return default_grid(*candidates, num_points=num_points)


MATCHED = "matched"
NO_MATCH = "no_match"


@dataclass(frozen=True)
class MatchingResult:
    """Outcome of the matching synthesis.

    ``jammer_density`` is only materialized when matched; ``jammer_variance``
    is read from the curvature of the jammer CF at zero and meets the jam
    power budget with equality (second-moment bookkeeping of the matching
    identity).  The density table is the sampling artifact: clipping of
    inversion ringing can bias its quadrature variance slightly (the pre-clip
    floor is recorded on the model).  The grid is recorded on ``jammer_cf``
    so the numerically decided verdict is reproducible.
    """

    jammer_cf: CharacteristicFunction
    jammer_density: DistributionModel | None
    verdict: str
    reason: str
    jammer_variance: float

    @property
    def matched(self) -> bool:
        return self.verdict == MATCHED


def synthesize_jammer(cfg: JammingGameConfig, grid: GridSpec | None = None,
                      *, strict: bool = False) -> MatchingResult:
    """Build the matching jammer CF and decide whether it is a genuine CF.

    Computes F_X(alpha_t * omega) ** beta / F_N(omega) with branch-tracked
    powers and floored division, then runs the validity battery.  ``Matched``
    means the quotient is a usable CF; the non-matching verdict is a finding,
    not an error.

    Floors follow provenance: closed-form inputs carry relative (not
    absolute) error, so their sub-floor truncation can sit at the edge of
    float64 range, where the quotient's own decay has already killed the
    truncation jump.  Shallow floors (1e-12 / 1e-8) on fast-decaying closed
    forms would chop the quotient mid-decay and the resulting step rings the
    validity battery into false no-match verdicts at unbalanced power ratios.
    Tabulated inputs carry absolute transform noise and keep shallow floors.
    """
    if grid is None:
        grid = cfg.grid_for()
    power_floor = 1e-12 if cfg.source.kind == "tabulated" else 1e-250
    division_floor = 1e-8 if cfg.channel_noise.kind == "tabulated" else 1e-250
    scaled_source = cfg.source.scaled(cfg.alpha_t)
    numerator = cf_power(cf_of(scaled_source, grid), cfg.beta,
                         floor=power_floor, strict=strict)
    quotient = cf_divide(numerator, cf_of(cfg.channel_noise, grid), division_floor)
    del numerator  # two full-grid arrays fewer alive while the battery runs
    quotient = check_validity(quotient)
    if not quotient.is_valid:
        return MatchingResult(jammer_cf=quotient, jammer_density=None,
                              verdict=NO_MATCH, reason=quotient.reason,
                              jammer_variance=float("nan"))
    density = density_from_cf(quotient)
    return MatchingResult(jammer_cf=quotient, jammer_density=density,
                          verdict=MATCHED, reason="",
                          jammer_variance=variance_from_cf(quotient))


def identical_distribution_check(cfg: JammingGameConfig) -> bool:
    """Check the equal-everything special case: jammer reproduces the source.

    Requires source and noise of the same family and variance with
    P_T = P_A = var_N (the exponent is then exactly 2 and the matching
    quotient collapses to the source CF itself).
    """
    same_family = cfg.source.kind == cfg.channel_noise.kind
    same_var = math.isclose(cfg.source.variance, cfg.channel_noise.variance,
                            rel_tol=1e-12)
    powers_eq = (math.isclose(cfg.power_tx, cfg.power_jam, rel_tol=1e-12)
                 and math.isclose(cfg.power_tx, cfg.channel_noise.variance,
                                  rel_tol=1e-12))
    if not (same_family and same_var and powers_eq):
        raise PreconditionViolated(
            "identical-distribution check needs X ~ N and P_T = P_A = var_N")
    result = synthesize_jammer(cfg)
    if not result.matched:
        return False
    want = cf_of(cfg.source.scaled(cfg.alpha_t), result.jammer_cf.grid)
    return sup_distance(result.jammer_cf, want) < _IDENTICAL_TOL


def _beta_schedule(beta_schedule, increasing: bool) -> list:
    """The betas; ValueError unless finite, positive and strictly monotone."""
    betas = list(beta_schedule)
    sign = 1.0 if increasing else -1.0
    if not (all(math.isfinite(b) and b > 0 for b in betas)
            and all(sign * (b2 - b1) > 0 for b1, b2 in zip(betas, betas[1:]))):
        order = "increasing" if increasing else "decreasing"
        raise ValueError(f"beta schedule must be finite, positive and {order}, got {betas}")
    return betas


def _gaussian_distance(cf_at, scale: float, exponent: float, grid: GridSpec) -> float:
    """sup |F(omega / scale) ** exponent - exp(-omega^2 / 2)| on the grid, the
    power branch-tracked by ``cf_power``."""
    base = CharacteristicFunction(grid, cf_at(grid.omega / scale))
    target = np.exp(-grid.omega**2 / 2.0)
    return float(np.max(np.abs(cf_power(base, exponent).values - target)))


def asymptotic_gaussianization(source: DistributionModel, beta_schedule,
                               grid: GridSpec | None = None) -> list[tuple[float, float]]:
    """Distances to Gaussianity of the normalized beta-fold source CF.

    The central limit theorem drives these to zero as beta grows, which is
    what makes Gaussian jamming asymptotically optimal over a Gaussian
    channel at low channel SNR.  Betas must be finite, positive and
    increasing; monotone decrease of the distances is asserted by callers.
    """
    betas = _beta_schedule(beta_schedule, increasing=True)
    if grid is None:
        grid = default_grid(gaussian(1.0))
    return [(b, _gaussian_distance(source.cf_at, math.sqrt(b * source.variance), b, grid))
            for b in betas]


def gaussian_source_limit_check(noise: DistributionModel, beta_schedule,
                                grid: GridSpec | None = None,
                                power_jam: float = 1.0) -> list[tuple[float, dict]]:
    """High-channel-SNR companion: (F_Z * F_N) ** (1/beta), normalized, against
    the Gaussian CF, for a fixed test set of jammer shapes at power P_A.

    Betas must decrease toward zero; the root's exponent 1/beta then grows and
    the central limit theorem again forces Gaussianity, so any jammer shape
    becomes asymptotically optimal when the source is Gaussian.
    """
    betas = _beta_schedule(beta_schedule, increasing=False)
    if grid is None:
        grid = default_grid(gaussian(1.0))
    totals = {name: lambda w, jam=jam: jam.cf_at(w) * noise.cf_at(w)  # CF of Z + N
              for name, jam in (("gaussian", gaussian(power_jam)),
                                ("laplace", laplace(power_jam)),
                                ("uniform", uniform(power_jam)))}
    out = []
    for b in betas:
        scale = math.sqrt((power_jam + noise.variance) / b)
        out.append((b, {name: _gaussian_distance(cf, scale, 1.0 / b, grid)
                        for name, cf in totals.items()}))
    return out
