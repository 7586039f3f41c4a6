"""The uniform time grid that every record is sampled on, and its checks.

A record's rows are samples at t[k] = t[0] + k * dt: ``grid_break`` finds
the first row that breaks such a grid, and ``same_grid`` tells whether two
time columns agree. Both hold a bounded scratch whatever the length, and
a difference of finite timestamps that overflows (1e308 - -1e308) fails the
check without a numpy warning.
"""

from __future__ import annotations

import math

import numpy as np

_GRID_CHUNK = 1 << 14  # steps of t that grid_break checks at a time


class GridError(ValueError):
    """Samples are not on a uniform time grid; carries the row index, 0-based over the data."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def grid_break(t: np.ndarray) -> int | None:
    """First row of t that breaks a uniform increasing grid, or None if none does.

    The first step dt = t[1] - t[0] must be positive and finite, and every
    later step must match it within max(1e-12, 1e-6 * dt). A non-finite
    timestamp always breaks the grid.
    """
    if len(t) and not math.isfinite(t[0]):
        return 0
    if len(t) < 2:
        return None
    # an overflow is an inf step, and inf - inf a NaN one: both fail the comparisons
    with np.errstate(over="ignore", invalid="ignore"):
        dt = float(t[1] - t[0])
        if not 0.0 < dt < math.inf:
            return 1
        # a chunk at a time, so the scratch is bounded
        for lo in range(0, len(t) - 1, _GRID_CHUNK):
            off = ~(np.abs(np.diff(t[lo:lo + _GRID_CHUNK + 1]) - dt) <= max(1e-12, 1e-6 * dt))
            if off.any():
                return lo + int(np.argmax(off)) + 1
    return None


def same_grid(a: np.ndarray, b: np.ndarray) -> bool:
    """True if a and b have one length and agree within max(1e-9, 1e-9 * max|a|).

    Half of a's first step caps that where it is finite, so columns one row
    apart never agree. A NaN in either never agrees.
    """
    if len(a) != len(b):
        return False
    if len(a) == 0:
        return True
    # one temporary, d; np.max passes a NaN on, which fails the comparison
    tol = max(1e-9, 1e-9 * max(float(np.max(a)), -float(np.min(a))))
    if len(a) > 1:  # in floats an overflow is an inf step; min() keeps tol against inf or NaN
        tol = min(tol, abs(float(a[1]) - float(a[0])) / 2)
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.subtract(a, b, dtype=float)
    return bool(np.max(np.abs(d, out=d)) <= tol)
