"""Symmetric sample grids in the signal and frequency domains.

Every transform in the toolkit works on a ``GridSpec``: ``num_points`` samples
at spacing ``dx`` covering ``[-L, L)`` in the signal domain, and the dual
frequency samples at spacing ``pi / L``.  Both grids contain 0 exactly at
index ``num_points // 2``.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import check_integer


def read_only_copy(values, dtype=float, length: int | None = None) -> np.ndarray:
    """A read-only ``dtype`` copy of ``values``.  With ``length``, anything
    but a 1-D array of that many samples raises ``ValueError``."""
    a = np.array(values, dtype=dtype)
    if length is not None and a.shape != (length,):
        raise ValueError("values shape must match the grid")
    a.flags.writeable = False
    return a


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
        check_integer("num_points", n, 64)
        if n & (n - 1):
            raise ValueError(f"num_points must be a power of two, got {n!r}")

    @cached_property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.num_points

    @cached_property
    def domega(self) -> float:
        return np.pi / self.half_width

    @cached_property
    def x(self) -> np.ndarray:
        return read_only_copy((np.arange(self.num_points)
                               - self.num_points // 2) * self.dx)

    @cached_property
    def omega(self) -> np.ndarray:
        return read_only_copy((np.arange(self.num_points)
                               - self.num_points // 2) * self.domega)

    def slope(self, values: np.ndarray) -> np.ndarray:
        """The table ``lookup`` interpolates ``values`` with: the slope of
        each grid interval, and 0 past the last node."""
        return (np.diff(values, append=values[-1])
                / np.diff(self.x, append=self.x[-1] + self.dx))

    def lookup(self, x, values: np.ndarray,
               slope: np.ndarray | None = None) -> np.ndarray:
        """``np.interp(x, self.x, values)``, with the interval found by index
        arithmetic on the uniform grid instead of by binary search.
        ``slope``, ``self.slope(values)``, may be given by a caller that
        looks one table up many times."""
        if np.ndim(x) == 0:  # the steps below write into arrays
            return self.lookup(np.array([x], dtype=float), values, slope)[0]
        if slope is None:
            slope = self.slope(values)
        n = self.num_points
        t = np.divide(x, self.dx)
        t += n // 2
        np.clip(t, 0.0, n - 1, out=t)
        i = np.fmax(t, 0.0, out=t).astype(np.intp)  # a NaN reads index 0
        # i is in range: "clip" skips take's bounds check and its buffer
        out = self.x.take(i, mode="clip")
        offset = np.clip(x, self.x[0], self.x[-1], out=t)
        offset -= out
        slope.take(i, out=out, mode="clip")
        out *= offset
        out += values.take(i, out=offset, mode="clip")
        return out
