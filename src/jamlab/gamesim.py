"""Monte Carlo saddle-point verification for the jamming game.

The saddle profile is a sign-randomized linear encoder (the sign stream is
shared with the decoder but hidden from the jammer), an independent jammer of
budgeted power, and a linear decoder.  Unilateral deviations cannot help:
any power-legal encoder against the matched jammer scores at least the
all-linear cost, and any power-legal jammer against the randomized encoder
scores at most that cost.  Both inequalities are checked empirically here,
together with the sign-parameter exploit that forces the jammer to stay
uncorrelated from the source.

Randomness is reproducible by construction: one master seed, with a fixed
substream per (component, chunk) pair, so swapping one component's
distribution never perturbs the draws of the others, and results do not
depend on how trials are partitioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from .distributions import DistributionModel, default_grid, gaussian, laplace, uniform
from .errors import InvalidProfile, PowerViolation
from .estimation import _floored_ratio, convolve_tables
from .grids import GridSpec, read_only_copy
from .matching import JammingGameConfig, synthesize_jammer

_CHUNK = 1 << 16
_DECODER_POINTS = 4096  # u-grid points of a conditional-mean decoder
_TAIL_MASS = 5e-11  # source mass per tail a conditional-mean decoder may leave out
MIN_TRIALS = 10_000
_POWER_RTOL = 1e-3
_SIGMA_GATE = 4.0  # standard errors a deviation may sit past the saddle cost
_STREAM_X, _STREAM_GAMMA, _STREAM_Z, _STREAM_N = 0, 1, 2, 3


# -- strategy components -----------------------------------------------------------


@dataclass(frozen=True)
class RandomizedLinear:
    """Y = gamma * alpha_t * X with gamma = +1 w.p. ``bernoulli_p``, else -1.

    The sign stream is shared with the decoder (common randomness), not with
    the jammer.  The symmetric choice p = 1/2 is the saddle strategy.
    """
    bernoulli_p: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.bernoulli_p <= 1.0:
            raise InvalidProfile("bernoulli_p must lie in [0, 1]")


def _freeze_values(curve) -> None:
    """Store a curve's values as a read-only float copy matching its grid."""
    object.__setattr__(curve, "values", read_only_copy(
        curve.values, float, curve.grid.num_points))


@dataclass(frozen=True)
class DeterministicEncoder:
    """Y = g(X) for a fixed curve tabulated on a grid."""
    grid: GridSpec
    values: np.ndarray
    label: str = "curve"

    __post_init__ = _freeze_values

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.grid.lookup(x, self.values)


@dataclass(frozen=True)
class IndependentNoise:
    """Z drawn independently of everything else."""
    model: DistributionModel


@dataclass(frozen=True)
class CorrelatedJammer:
    """Z = rho * sqrt(P_A / var_X) * X + residual rescaled to (1 - rho^2) P_A.

    Total jam power is exactly P_A and corr(Z, X) = rho.
    """
    rho: float
    residual: DistributionModel

    def __post_init__(self):
        if not -1.0 <= self.rho <= 1.0:
            raise InvalidProfile("rho must lie in [-1, 1]")


@dataclass(frozen=True)
class LinearDecoder:
    gain: float


@dataclass(frozen=True)
class CurveDecoder:
    grid: GridSpec
    values: np.ndarray

    __post_init__ = _freeze_values

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.grid.lookup(u, self.values)


@dataclass(frozen=True)
class MmseGivenProfile:
    """Marker: compute the conditional-mean decoder for the profile's channel
    (per shared sign when the encoder is randomized)."""


@dataclass(frozen=True)
class StrategyProfile:
    encoder: object
    jammer: object
    decoder: object


@dataclass(frozen=True)
class SaddleOutcome:
    empirical_cost: float
    std_error: float
    trials: int
    theoretical_cost: float

    @property
    def z_score(self) -> float:
        return (self.empirical_cost - self.theoretical_cost) / self.std_error


# -- saddle profile helpers ---------------------------------------------------------


def saddle_gain(cfg: JammingGameConfig, strict_paper: bool = False) -> float:
    """Decoder gain of the saddle strategy.

    The second-moment-optimal gain for X_hat = gamma * g * U carries the
    transmit gain alpha_t; with ``strict_paper`` the alpha_t factor is
    dropped (the two coincide when P_T = var_X).
    """
    denom = cfg.power_tx + cfg.power_jam + cfg.channel_noise.variance
    g = cfg.source.variance / denom
    return g if strict_paper else cfg.alpha_t * g


def saddle_profile(cfg: JammingGameConfig,
                   jammer_model: DistributionModel | None = None,
                   strict_paper: bool = False) -> StrategyProfile:
    """The saddle strategy triple; jammer defaults to the matched density
    when one exists, else Gaussian at the jam budget.

    Sampling tables materialized from a CF can carry a small clip bias in
    their quadrature variance; the jammer model is rescaled to the exact jam
    budget so the power constraint binds with equality.
    """
    if jammer_model is None:
        result = synthesize_jammer(cfg)
        jammer_model = result.jammer_density if result.matched \
            else gaussian(cfg.power_jam)
    scale = math.sqrt(cfg.power_jam / jammer_model.variance)
    if abs(scale - 1.0) > 1e-9:
        jammer_model = jammer_model.scaled(scale)
    return StrategyProfile(RandomizedLinear(0.5), IndependentNoise(jammer_model),
                           LinearDecoder(saddle_gain(cfg, strict_paper)))


# -- power validation ----------------------------------------------------------------


def _check_powers(cfg: JammingGameConfig, profile: StrategyProfile) -> None:
    enc = profile.encoder
    if isinstance(enc, DeterministicEncoder):
        fx = cfg.source.pdf_on(enc.grid)
        power = float(np.sum(enc.values**2 * fx) * enc.grid.dx)
        if power > cfg.power_tx * (1 + _POWER_RTOL):
            raise PowerViolation(
                f"encoder power {power:.6g} exceeds budget {cfg.power_tx:g}")
    elif not isinstance(enc, RandomizedLinear):
        raise InvalidProfile(f"unknown encoder {enc!r}")

    jam = profile.jammer
    if isinstance(jam, IndependentNoise):
        if jam.model.variance > cfg.power_jam * (1 + _POWER_RTOL):
            raise PowerViolation(
                f"jammer power {jam.model.variance:.6g} exceeds budget "
                f"{cfg.power_jam:g}")
    elif not isinstance(jam, CorrelatedJammer):
        raise InvalidProfile(f"unknown jammer {jam!r}")


def _jammer_parts(cfg: JammingGameConfig, jam) -> tuple[float, DistributionModel | None]:
    """(source coefficient, independent residual model) of the jam signal."""
    if isinstance(jam, IndependentNoise):
        return 0.0, jam.model
    c = jam.rho * math.sqrt(cfg.power_jam / cfg.source.variance)
    res_var = (1.0 - jam.rho**2) * cfg.power_jam
    if res_var <= 0:
        return c, None
    residual = jam.residual.scaled(math.sqrt(res_var / jam.residual.variance))
    return c, residual


# -- conditional-mean decoders --------------------------------------------------------


def _conditional_mean(cfg: JammingGameConfig, grid: GridSpec, phi: np.ndarray,
                      jam) -> CurveDecoder:
    """Decoder table h(u) = E[X | phi(X) + Z + N = u] for the jam signal Z.

    ``phi`` is tabulated on the source grid ``grid``; Z's source-correlated
    part joins it, so V = residual + N is independent of X.  Each source cell
    deposits its mass f_X dx and first moment x f_X dx at phi(x) on the
    u-grid with linear (cloud-in-cell) weights, and both deposits are
    convolved with f_V: the direct quadrature sum_x f_V(u - phi(x)) x f_X dx
    with f_V linear between u-grid nodes.  Only the outer cells holding the
    last ``_TAIL_MASS`` of each tail are left out, so the u-grid spans every
    cell that carries mass.
    """
    c, residual = _jammer_parts(cfg, jam)
    noises = [cfg.channel_noise] + ([residual] if residual is not None else [])
    mass = cfg.source.pdf_on(grid) * grid.dx
    below = np.cumsum(mass)
    live = (below > _TAIL_MASS) & (below[-1] - below + mass > _TAIL_MASS)
    x, mass, at = grid.x[live], mass[live], (phi + c * grid.x)[live]
    n = _DECODER_POINTS
    u_grid = GridSpec(float(np.max(np.abs(at), initial=0.0))
                      + default_grid(*noises).half_width, n)
    fv = noises[0].pdf_on(u_grid)
    for d in noises[1:]:
        fv = convolve_tables(fv, d.pdf_on(u_grid), u_grid)
    t = at / u_grid.dx + n // 2
    j = np.floor(t).astype(np.intp)
    idx = np.concatenate([j, j + 1])
    w = np.concatenate([mass * (j + 1 - t), mass * (t - j)])
    deposits = np.stack([np.bincount(idx, w * np.concatenate([x, x]), n),
                         np.bincount(idx, w, n)])
    num, den = fftconvolve(deposits, fv[None, :], axes=1)[:, n // 2: n // 2 + n]
    return CurveDecoder(u_grid, _floored_ratio(num, den))


def _per_sign_mmse_tables(cfg: JammingGameConfig, jam) -> dict:
    """Decoder tables h_gamma(u) = E[X | U = u, gamma] for the randomized
    linear encoder, one per shared sign."""
    grid = default_grid(cfg.source)
    return {s: _conditional_mean(cfg, grid, s * cfg.alpha_t * grid.x, jam)
            for s in (1.0, -1.0)}


def mmse_decoder_for_encoder(cfg: JammingGameConfig, enc: DeterministicEncoder,
                             jammer_model: DistributionModel) -> CurveDecoder:
    """Conditional-mean decoder h(u) = E[X | g(X) + Z + N = u]."""
    return _conditional_mean(cfg, enc.grid, enc.values,
                             IndependentNoise(jammer_model))


# -- simulation core -------------------------------------------------------------------


def _rng(seed: int, component: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng([seed, component, chunk])


def simulate(cfg: JammingGameConfig, profile: StrategyProfile, trials: int,
             seed: int, gamma_seed: int | None = None) -> SaddleOutcome:
    """Run the game and return the empirical mean squared error.

    Deterministic given (cfg, profile, trials, seed).  Trials are drawn in
    fixed-size chunks, each chunk from its own substreams, and the estimate
    is merged by pairwise summation, so results are independent of any
    parallel partitioning of the chunks.  ``gamma_seed`` reseeds only the
    shared-sign stream; swapping it must not change the cost distribution
    (the randomization is exchangeable), which tests exploit.
    """
    if trials < MIN_TRIALS:
        raise ValueError("at least 10^4 trials required")
    _check_powers(cfg, profile)

    enc, jam, dec = profile.encoder, profile.jammer, profile.decoder
    randomized = isinstance(enc, RandomizedLinear)
    if isinstance(dec, MmseGivenProfile):
        # one table per shared sign, else a plain curve decoder
        dec = _per_sign_mmse_tables(cfg, jam) if randomized \
            else _conditional_mean(cfg, enc.grid, enc.values, jam)
    elif not isinstance(dec, (LinearDecoder, CurveDecoder)):
        raise InvalidProfile(f"unknown decoder {dec!r}")
    c_coef, residual = _jammer_parts(cfg, jam)

    nchunks = (trials + _CHUNK - 1) // _CHUNK
    sums = np.zeros(nchunks)
    squares = np.zeros(nchunks)
    for chunk in range(nchunks):
        k = min(_CHUNK, trials - chunk * _CHUNK)
        x = cfg.source.sample(_rng(seed, _STREAM_X, chunk), k)
        n = cfg.channel_noise.sample(_rng(seed, _STREAM_N, chunk), k)
        z = np.zeros(k) if residual is None \
            else residual.sample(_rng(seed, _STREAM_Z, chunk), k)
        if c_coef != 0.0:
            z = z + c_coef * x
        if randomized:
            gseed = seed if gamma_seed is None else gamma_seed
            gam = np.where(_rng(gseed, _STREAM_GAMMA, chunk).random(k)
                           < enc.bernoulli_p, 1.0, -1.0)
            u = gam * cfg.alpha_t * x + z + n
        else:
            gam = None
            u = enc.apply(x) + z + n
        if isinstance(dec, LinearDecoder):
            xhat = dec.gain * u if gam is None else gam * dec.gain * u
        elif isinstance(dec, CurveDecoder):
            xhat = dec.apply(u) if gam is None else gam * dec.apply(gam * u)
        else:  # the per-sign tables of MmseGivenProfile
            xhat = np.empty(k)
            for s in (1.0, -1.0):
                at = np.flatnonzero(gam == s)  # faster than a boolean mask
                xhat[at] = dec[s].apply(u[at])
        err = (x - xhat) ** 2
        sums[chunk] = err.sum()
        squares[chunk] = (err * err).sum()
    mean = float(np.sum(sums)) / trials
    var = max(0.0, float(np.sum(squares)) / trials - mean * mean)
    se = math.sqrt(var / (trials - 1))
    return SaddleOutcome(empirical_cost=mean, std_error=se, trials=trials,
                         theoretical_cost=cfg.saddle_cost)


# -- deviation harnesses ------------------------------------------------------------------


@dataclass(frozen=True)
class DeviationEntry:
    label: str
    outcome: SaddleOutcome
    bound: float
    passed: bool

    @property
    def margin(self) -> float:
        """Signed distance from the bound, in standard errors."""
        return (self.outcome.empirical_cost - self.bound) / self.outcome.std_error


@dataclass(frozen=True)
class DeviationReport:
    side: str
    entries: tuple

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)


def companding_encoders(cfg: JammingGameConfig,
                        grid: GridSpec | None = None) -> list[DeterministicEncoder]:
    """Power-normalized deviation family: linear, odd cubic mix, hard limiter."""
    if grid is None:
        grid = default_grid(cfg.source)
    fx = cfg.source.pdf_on(grid)

    def normalized(raw, label):
        power = float(np.sum(raw**2 * fx) * grid.dx)
        return DeterministicEncoder(grid, raw * math.sqrt(cfg.power_tx / power),
                                    label=label)

    x = grid.x
    return [
        normalized(x.copy(), "linear"),
        normalized(x + 0.5 * x**3, "cubic-mix a=0.5"),
        DeterministicEncoder(grid, np.sign(x) * math.sqrt(cfg.power_tx),
                             label="hard limiter"),
    ]


def verify_rhs_inequality(cfg: JammingGameConfig, trials: int, seed: int,
                          encoders: list[DeterministicEncoder] | None = None,
                          jammer_model: DistributionModel | None = None) -> DeviationReport:
    """No encoder deviation beats the saddle value against the matched jammer.

    Each candidate encoder is decoded by its own conditional-mean decoder and
    must score at least the saddle cost minus ``_SIGMA_GATE`` standard errors.
    """
    if jammer_model is None:
        result = synthesize_jammer(cfg)
        if not result.matched:
            raise InvalidProfile("encoder-side check needs a matched jammer; "
                                 f"synthesis said: {result.reason}")
        jammer_model = result.jammer_density
    if encoders is None:
        encoders = companding_encoders(cfg)
    entries = []
    for enc in encoders:
        decoder = mmse_decoder_for_encoder(cfg, enc, jammer_model)
        profile = StrategyProfile(enc, IndependentNoise(jammer_model), decoder)
        outcome = simulate(cfg, profile, trials, seed)
        bound = cfg.saddle_cost - _SIGMA_GATE * outcome.std_error
        entries.append(DeviationEntry(label=enc.label, outcome=outcome,
                                      bound=bound,
                                      passed=outcome.empirical_cost >= bound))
    return DeviationReport(side="encoder", entries=tuple(entries))


def default_lhs_jammers(cfg: JammingGameConfig, rho: float = 0.7) -> list[tuple]:
    """(label, jammer) deviation family: two mismatched independent shapes
    and a source-correlated jammer, all at the jam budget."""
    return [
        ("uniform independent", IndependentNoise(uniform(cfg.power_jam))),
        ("laplace independent", IndependentNoise(laplace(cfg.power_jam))),
        (f"correlated rho={rho:g}",
         CorrelatedJammer(rho, gaussian(cfg.power_jam))),
    ]


def verify_lhs_inequality(cfg: JammingGameConfig, trials: int, seed: int,
                          jammers: list[tuple] | None = None) -> DeviationReport:
    """No jammer deviation pushes the cost above the saddle value.

    The encoder is the symmetric randomized-linear saddle strategy; the
    decoder is the conditional mean given the jammer's actual distribution
    and the shared sign.  Every candidate must score at most the saddle cost
    plus ``_SIGMA_GATE`` standard errors.
    """
    if jammers is None:
        jammers = default_lhs_jammers(cfg)
    entries = []
    for label, jam in jammers:
        profile = StrategyProfile(RandomizedLinear(0.5), jam, MmseGivenProfile())
        outcome = simulate(cfg, profile, trials, seed)
        bound = cfg.saddle_cost + _SIGMA_GATE * outcome.std_error
        entries.append(DeviationEntry(label=label, outcome=outcome, bound=bound,
                                      passed=outcome.empirical_cost <= bound))
    return DeviationReport(side="jammer", entries=tuple(entries))


# -- sign-parameter exploit --------------------------------------------------------------


@dataclass(frozen=True)
class ExploitEntry:
    p: float
    outcome: SaddleOutcome
    expected_cost: float


@dataclass(frozen=True)
class ExploitReport:
    entries: tuple
    saddle_cost: float


def _exploit_gain_and_cost(cfg: JammingGameConfig, p: float, c: float):
    """Best shared-sign linear decoder gain against a correlated jammer when
    the encoder sign is +1 w.p. p, with its second-moment cost."""
    sx2 = cfg.source.variance
    tot = cfg.power_tx + cfg.power_jam + cfg.channel_noise.variance
    e_gam = 2.0 * p - 1.0
    num = cfg.alpha_t * sx2 + e_gam * c * sx2
    den = tot + 2.0 * e_gam * c * sx2 * cfg.alpha_t
    g = num / den
    cost = ((1 - g * cfg.alpha_t) ** 2 * sx2
            + g * g * (cfg.power_jam + cfg.channel_noise.variance)
            - 2.0 * e_gam * c * g * (1 - g * cfg.alpha_t) * sx2)
    return g, cost


def bernoulli_exploit_check(cfg: JammingGameConfig, p_values,
                            correlated_jammer: CorrelatedJammer,
                            trials: int, seed: int) -> ExploitReport:
    """Sweep the encoder's sign probability against a fixed correlated jammer.

    The decoder is re-optimized per p within the shared-sign linear family
    (the family in which the symmetric choice exactly cancels the
    correlation cross terms and restores the saddle cost).  Asymmetric p
    exploits the correlation and lowers the cost, which is why an optimal
    jammer stays independent of the source.
    """
    if correlated_jammer.rho == 0:
        raise InvalidProfile("exploit check needs a correlated jammer")
    c, _ = _jammer_parts(cfg, correlated_jammer)
    entries = []
    for p in p_values:
        g, cost = _exploit_gain_and_cost(cfg, p, c)
        profile = StrategyProfile(RandomizedLinear(p), correlated_jammer,
                                  LinearDecoder(g))
        outcome = simulate(cfg, profile, trials, seed)
        entries.append(ExploitEntry(p=float(p), outcome=outcome,
                                    expected_cost=cost))
    return ExploitReport(entries=tuple(entries), saddle_cost=cfg.saddle_cost)
