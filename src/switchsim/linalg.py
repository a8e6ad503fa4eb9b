"""Dense complex linear algebra for small (2x2 .. 8x8) matrices and stacks
of them.

Everything in this package carries states and operators as plain numpy
arrays of dtype complex128. A *stack* is an array of shape (..., d, d):
one matrix per grid point along the leading axes. The stacked helpers run
numpy's gufuncs (`matmul`, `eigh`) over the whole stack in one call, and
their checks test every matrix of the stack and raise on the first that
fails, with the message a single matrix would get; a single matrix is the
stack with no leading axes. Products go through `matmul` rather than
`einsum`, so a stacked result carries the same bits as the same product
taken one matrix at a time. `eigh` gives an eigensystem as two arrays:
ascending eigenvalues and eigenvector columns, of matrices it checks to
be finite and Hermitian and symmetrises. A caller whose matrices are
Hermitian by construction and that needs only eigenvalues, such as the
ppt's `entanglement.ppt_spectra`, calls `np.linalg.eigvalsh` after
`require_finite` instead.
"""

from __future__ import annotations

import numpy as np

#: max |M - M^dagger| entry accepted as Hermitian
HERMITIAN_ATOL = 1e-10
#: eigenvalues no lower than this are accepted as "nonnegative" and clamped to 0
PSD_EIGENVALUE_FLOOR = -1e-10


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


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-d complex array (no NaN/Inf admitted)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got array of shape {a.shape}")
    require_finite(a, "matrix entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return np.conj(np.swapaxes(np.asarray(m), -1, -2))


def hermitian_deviation(m: np.ndarray) -> np.ndarray:
    """max |M - M^dagger| entry of each matrix of a stack."""
    return np.max(np.abs(m - dagger(m)), axis=(-2, -1))


def hermitize(m: np.ndarray) -> np.ndarray:
    return (m + dagger(m)) / 2


def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvector columns of every matrix of a
    stack of finite Hermitian matrices; rejects the stack if any matrix is
    not Hermitian within HERMITIAN_ATOL."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"eigensystem needs square matrices, got shape {m.shape}")
    require_finite(m, "matrix entries")
    deviation = hermitian_deviation(m)
    require(deviation <= HERMITIAN_ATOL, deviation,
            "matrix is not Hermitian: max |M - M^dagger| entry is {value:.3e}")
    return np.linalg.eigh(hermitize(m))
