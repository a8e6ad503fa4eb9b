"""The builtin ``min`` per entry, over a point or a grid.

The closed forms, which are plain numpy code, use it: on Python scalars
(0-d input) and on arrays, which broadcast, it runs the same expressions,
so a grid entry has the bits of the single-point call. No kernel clamps
at 0: the concurrence's K = 2 gap (``entanglement.ensemble_concurrences``)
is a quotient of two roots of nonnegative sums, never negative.
"""

from __future__ import annotations

import numpy as np


def least(first, *rest):
    """min(first, *rest) per entry: a later value replaces the current one
    only where it is strictly less, as with min, so ties keep the earlier
    value (-0.0 before 0.0) and a NaN is kept only where it comes first."""
    for value in rest:
        first = np.where(value < first, value, first)
    return first
