"""Dense complex linear algebra helpers for small (2x2 .. 8x8) matrices.

Everything in this package carries states and operators as plain numpy
arrays of dtype complex128. The matrices are tiny, so the helpers here
favour strict validation and clear failure modes over speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: max |M - M^dagger| entry accepted as Hermitian
HERMITIAN_ATOL = 1e-10
#: eigenvalues no lower than this are accepted as "nonnegative" and clamped to 0
PSD_EIGENVALUE_FLOOR = -1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-d complex array (no NaN/Inf admitted)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got array of shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(m).T)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices (associative, bilinear)."""
    return np.kron(as_matrix(a), as_matrix(b))


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_ATOL) -> bool:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        return False
    return float(np.max(np.abs(a - dagger(a)))) <= tol


def is_unitary(m: np.ndarray, tol: float = 1e-12) -> bool:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        return False
    eye = np.eye(a.shape[0])
    return float(np.max(np.abs(dagger(a) @ a - eye))) <= tol


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + dagger(m)) / 2


@dataclass(frozen=True)
class EigenSystem:
    """Real spectrum (ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigensystem(m: np.ndarray) -> EigenSystem:
    """Full eigendecomposition of a Hermitian matrix.

    Eigenvalues come back ascending with orthonormal eigenvector columns;
    the reconstruction V diag(w) V^dagger matches the input to relative
    Frobenius error well below 1e-10.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"eigensystem needs a square matrix, got shape {a.shape}")
    deviation = float(np.max(np.abs(a - dagger(a))))
    if deviation > HERMITIAN_ATOL:
        raise ValueError(
            f"matrix is not Hermitian: max |M - M^dagger| entry is {deviation:.3e}"
        )
    w, v = np.linalg.eigh(_hermitize(a))
    return EigenSystem(eigenvalues=w, eigenvectors=v)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in (PSD_EIGENVALUE_FLOOR, 0) are numerical noise from
    operator products and are clamped to zero; anything lower is rejected.
    """
    sys = hermitian_eigensystem(m)
    w = sys.eigenvalues
    if float(w[0]) < PSD_EIGENVALUE_FLOOR:
        raise ValueError(
            f"matrix is not positive semidefinite: min eigenvalue {float(w[0]):.3e}"
        )
    w = np.where(w < 0, 0.0, w)
    s = (sys.eigenvectors * np.sqrt(w)) @ dagger(sys.eigenvectors)
    return _hermitize(s)
