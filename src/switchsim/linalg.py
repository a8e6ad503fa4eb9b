"""Checks and products for small (2x2 .. 8x8) complex matrices and stacks
of them.

Everything in this package carries states and operators as plain numpy
arrays of dtype complex128. A *stack* is an array of shape (..., d, d):
one matrix per grid point along the leading axes. The checks test every
entry of a stack and raise on the first that fails, with the message a
single matrix would get; a single matrix is the stack with no leading
axes. Products go through `matmul` rather than `einsum`, so a stacked
result carries the same bits as the same product taken one matrix at a
time. The one eigensolve a command makes, the ppt's
`entanglement.ppt_spectra`, calls `np.linalg.eigvalsh` on matrices
Hermitian by construction, after `require_finite`.
"""

from __future__ import annotations

import numpy as np


def require(ok, values, message: str) -> None:
    """Raise ValueError unless every entry of the boolean stack ``ok`` holds.

    ``message`` is formatted with ``value``, the entry of ``values`` at the
    first failing position, as a Python float.
    """
    ok = np.asarray(ok)
    if not ok.all():
        value = float(np.broadcast_to(values, ok.shape)[~ok][0])
        raise ValueError(message.format(value=value))


def require_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{what} contain NaN or Inf")


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return np.conj(np.swapaxes(np.asarray(m), -1, -2))
