"""The builtins ``max`` and ``min`` per entry, over a point or a grid.

The closed forms, which are plain numpy code, and the kernels use them: on
Python scalars (0-d input) and on arrays, which broadcast, they run the
same expressions, so a grid entry has the bits of the single-point call.
"""

from __future__ import annotations

import numpy as np


def positive(x):
    """max(0.0, x) per entry: -0.0 and NaN read 0.0, as with max."""
    return np.where(x > 0.0, x, 0.0)


def least(first, *rest):
    """min(first, *rest) per entry: a later value replaces the current one
    only where it is strictly less, as with min, so ties keep the earlier
    value (-0.0 before 0.0) and a NaN is kept only where it comes first."""
    for value in rest:
        first = np.where(value < first, value, first)
    return first
