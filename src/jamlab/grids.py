"""Symmetric sample grids in the signal and frequency domains.

Every transform in the toolkit works on a ``GridSpec``: ``num_points`` samples
at spacing ``dx`` covering ``[-L, L)`` in the signal domain, and the dual
frequency samples at spacing ``pi / L``.  Both grids contain 0 exactly at
index ``num_points // 2``.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Sample grid shared by densities and characteristic functions.

    ``half_width`` is the signal-domain extent L (same units as the random
    variable); ``num_points`` must be a power of two, at least 64.
    """

    half_width: float
    num_points: int = 4096

    def __post_init__(self):
        if not np.isfinite(self.half_width) or self.half_width <= 0:
            raise ValueError("half_width must be finite and positive")
        n = self.num_points
        if n < 64 or (n & (n - 1)) != 0:
            raise ValueError("num_points must be a power of two >= 64")

    @cached_property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.num_points

    @cached_property
    def domega(self) -> float:
        return np.pi / self.half_width

    @cached_property
    def x(self) -> np.ndarray:
        a = (np.arange(self.num_points) - self.num_points // 2) * self.dx
        a.flags.writeable = False
        return a

    @cached_property
    def omega(self) -> np.ndarray:
        a = (np.arange(self.num_points) - self.num_points // 2) * self.domega
        a.flags.writeable = False
        return a

    def lookup(self, x, values: np.ndarray) -> np.ndarray:
        """``np.interp(x, self.x, values)``, with the interval found by index
        arithmetic on the uniform grid instead of by binary search."""
        n = self.num_points
        t = np.clip(x / self.dx + n // 2, 0.0, n - 1)
        i = np.fmax(t, 0.0).astype(np.intp)  # a NaN reads index 0
        slope = (np.diff(values, append=values[-1])
                 / np.diff(self.x, append=self.x[-1] + self.dx))
        offset = np.clip(x, self.x[0], self.x[-1]) - self.x.take(i)
        return values.take(i) + slope.take(i) * offset

    @property
    def omega_max(self) -> float:
        """Largest representable frequency magnitude."""
        return (self.num_points // 2) * self.domega

    def __eq__(self, other):
        if not isinstance(other, GridSpec):
            return NotImplemented
        return (self.half_width == other.half_width
                and self.num_points == other.num_points)

    def __hash__(self):
        return hash((self.half_width, self.num_points))
