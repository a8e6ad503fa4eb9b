"""Elementwise math over a point or a grid, with the bits of Python's own
math at every entry.

The closed forms are written once over the functions of ``ops(...)``:
``SCALAR`` for Python (or numpy) scalars, which is ``math`` and the
builtins themselves, so a single point returns what plain ``math`` code
returns, and ``ARRAY`` for numpy arrays, which broadcast.

numpy's sin, cos, sqrt, abs and + - * / give the bits of ``math`` and of
Python's operators. Its power and log do not: numpy squares by multiplying
while Python's ``x ** 2`` calls the C library's pow (they differ in the
last bit on about 0.09% of doubles), and numpy's log is its own (about
0.1%). So ``ARRAY.pow`` and ``ARRAY.log`` call Python's pow and
``math.log`` on every entry, and everything else runs in numpy.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import repeat

import numpy as np


def _per_entry(func, x, *args):
    """func(entry, *args) at every entry of ``x``, by Python's own func."""
    flat = np.asarray(x).ravel().tolist()
    return np.array(list(map(func, flat, *map(repeat, args)))).reshape(np.shape(x))


def _pick(cond, x, y):
    return x if cond else y


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


class SCALAR:
    """The functions for Python (or numpy) scalars: ``math`` and the
    builtins themselves. SCALAR and ARRAY are classes used as namespaces,
    never instantiated: the interpreter reads a class attribute faster
    than an entry of an instance's dict, and a single point pays for every
    lookup."""

    sin, cos, sqrt, log = math.sin, math.cos, math.sqrt, math.log
    pow, min, any, complex = pow, min, bool, complex
    where = _pick


class ARRAY:
    """The functions for numpy arrays, which broadcast."""

    sin, cos, sqrt = np.sin, np.cos, np.sqrt
    # numpy's power and log differ from Python's in the last bit on about
    # 0.1% of entries, so these two call Python's own at every entry
    pow, log = partial(_per_entry, pow), partial(_per_entry, math.log)
    min, where, any = least, np.where, np.any
    complex = partial(np.asarray, dtype=complex)


#: one global lookup per test in ``ops``, which every single-point call runs
_NDARRAY = np.ndarray


def ops(x, y=None, z=None) -> type:
    """ARRAY if any of the values is a numpy array, else SCALAR. Each
    namespace has sin, cos, sqrt, pow, log, min, where(cond, x, y), any
    and complex; both branches of ``where`` are
    evaluated, so each must be defined everywhere."""
    if isinstance(x, _NDARRAY) or isinstance(y, _NDARRAY) or isinstance(z, _NDARRAY):
        return ARRAY
    return SCALAR


def first(cond, values):
    """The entry of ``values`` at the first place where ``cond``, of the
    same shape, holds, as a Python scalar, or None where it holds nowhere;
    on a scalar ``cond``, ``values`` itself or None."""
    if not isinstance(cond, np.ndarray):
        return values if cond else None
    hits = values[cond]
    return hits[0].item() if hits.size else None
