"""The finiteness check and the adjoint of small (2x2 .. 8x8) complex
matrices and stacks of them.

Everything in this package carries states and operators as plain numpy
arrays of dtype complex128. A *stack* is an array of shape (..., d, d):
one matrix per grid point along the leading axes; a single matrix is the
stack with no leading axes. ``require_finite`` tests every entry of a
stack; a ``KrausChannel`` checks its operators with it, and input is
checked nowhere else past the boundary (see ``sweep``). Products on the
pair routes go through `matmul` rather than `einsum`, so a stacked result
carries the same bits as the same product taken one matrix at a time.
The gate route, ``channels.average_fidelities``, takes no product: it
reduces each point's own entries, so a stacked call has the bits of the
single-point call, which ``tests/test_batch.py``'s gate-block test
holds. The one eigensolve a command makes, the ppt's `entanglement.ppt_spectra`, calls
`np.linalg.eigvalsh` on matrices Hermitian and finite by construction.
"""

from __future__ import annotations

import numpy as np


def require_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{what} contain NaN or Inf")


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return np.conj(np.swapaxes(np.asarray(m), -1, -2))
