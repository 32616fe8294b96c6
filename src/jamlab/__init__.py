"""Numerical toolkit for worst-case jamming over additive-noise channels.

Synthesizes the distortion-maximizing jamming density via characteristic-
function matching, verifies the game's saddle point by Monte Carlo deviation
testing, and approximates the worst-case noise by orthonormal-polynomial
expansion when no matching density exists.
"""

__version__ = "0.1.0"

from .charfun import (CharacteristicFunction, cf_divide, cf_multiply, cf_of,
                      cf_power, check_validity, density_from_cf, sup_distance,
                      variance_from_cf)
from .distributions import (DistributionModel, default_grid, gaussian,
                            gaussian_mixture, laplace, moments,
                            rademacher_scaled, tabulated, uniform)
from .estimation import (EstimatorCurve, distortion_of, linear_benchmark,
                         matched_source_check, mmse_estimator)
from .gamesim import (SaddleOutcome, StrategyProfile, bernoulli_exploit_check,
                      saddle_profile, simulate, verify_lhs_inequality,
                      verify_rhs_inequality)
from .grids import GridSpec
from .matching import (JammingGameConfig, MatchingResult,
                       asymptotic_gaussianization, gaussian_source_limit_check,
                       identical_distribution_check, synthesize_jammer)
from .polyexpand import (ExpansionCoefficients, GaussianMixtureFamily,
                         GridTableFamily, NoiseSearchResult, OrthoPolyBasis,
                         build_basis, expansion_coeffs, mmse_via_expansion,
                         noise_from_estimator, worst_noise_search)

__all__ = [
    "CharacteristicFunction", "DistributionModel", "EstimatorCurve",
    "ExpansionCoefficients", "GaussianMixtureFamily", "GridSpec",
    "GridTableFamily", "JammingGameConfig", "MatchingResult", "NoiseSearchResult",
    "OrthoPolyBasis", "SaddleOutcome", "StrategyProfile",
    "asymptotic_gaussianization", "bernoulli_exploit_check", "build_basis",
    "cf_divide", "cf_multiply", "cf_of", "cf_power", "check_validity",
    "default_grid", "density_from_cf", "distortion_of", "expansion_coeffs",
    "gaussian", "gaussian_mixture", "gaussian_source_limit_check",
    "identical_distribution_check", "laplace", "linear_benchmark",
    "matched_source_check", "mmse_estimator", "mmse_via_expansion", "moments",
    "noise_from_estimator", "rademacher_scaled", "saddle_profile", "simulate",
    "sup_distance", "synthesize_jammer", "tabulated", "uniform",
    "variance_from_cf", "verify_lhs_inequality", "verify_rhs_inequality",
    "worst_noise_search",
]
