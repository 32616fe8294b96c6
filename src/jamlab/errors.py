"""Exception types shared across the toolkit, and its integer-argument and
tail-mass checks."""

import numbers

_MASS_GATE = 1e-10  # probability mass a model may leave outside its grid


def check_integer(name: str, value, least: int, most: int | None = None) -> None:
    """``ValueError`` naming ``name`` unless ``value`` is an integer, numpy's
    included, of at least ``least`` and, where given, at most ``most``."""
    if not (isinstance(value, numbers.Integral) and least <= value
            and (most is None or value <= most)):
        bound = f"of at least {least}" if most is None else f"in [{least}, {most}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def check_tails(grid, *models) -> None:
    """``GridTooNarrow`` where a model leaves 1e-10 or more of its mass
    outside the grid's [-L, L]."""
    L = grid.half_width
    for d in models:
        if d.tail_mass_outside(L) >= _MASS_GATE:
            raise GridTooNarrow(f"mass outside [-{L:g}, {L:g}] exceeds {_MASS_GATE:g}")


class JamlabError(Exception):
    """Base class for every toolkit-specific error."""


class GridTooNarrow(JamlabError):
    """Grid half-width leaves more probability mass outside than tolerated."""


class NonZeroMean(JamlabError):
    """Distribution violates the zero-mean convention."""


class GridMismatch(JamlabError):
    """Two operands live on different grids."""


class NotHermitian(JamlabError):
    """Characteristic-function samples lack Hermitian symmetry."""


class ExcessImaginary(JamlabError):
    """Inverse transform left an imaginary residue above tolerance."""


class ZeroCrossing(JamlabError):
    """Characteristic function vanishes on the grid (strict mode)."""


class MomentOverflow(JamlabError):
    """Moment quadrature loses too much mass beyond the grid edge."""


class IllConditioned(JamlabError):
    """Moment Hankel matrix too ill-conditioned for the requested order."""


class BasisMismatch(JamlabError):
    """Expansion basis was built for a different output density."""


class InfeasibleFamily(JamlabError):
    """No parameter vector in the search family yields a usable density."""


class UnstableIntegration(JamlabError):
    """No noise CF is consistent with the given estimator."""


class PowerViolation(JamlabError):
    """Strategy exceeds its power budget."""


class InvalidProfile(JamlabError):
    """Strategy profile is malformed or inconsistent with the game."""


class PreconditionViolated(JamlabError):
    """Caller invoked an operation outside its stated preconditions."""


class ConfigError(JamlabError):
    """Experiment specification failed to parse or validate."""
