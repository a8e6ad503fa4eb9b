"""Qubit amplitude vectors and the stacked operations on them.

Basis convention: qubit 0 is the leftmost (most significant) position, so
an n-qubit register is indexed |0...0> .. |1...1> with qubit q contributing
bit (n-1-q) of the basis index. Every module in the package shares this
ordering.

States are plain complex arrays. The functions work on stacks: amplitude
vectors of shape (..., 2**n) and matrices of shape (..., 2**n, 2**n), one
per grid point along the leading axes; one vector or matrix is the stack
with no leading axes. Amplitudes are checked and renormalized only where
they enter, never inside arithmetic, so norm-breaking bugs stay visible to
the tests: ``normalized`` checks a whole stack once, and ``angle_qubits``
builds the input qubits through it. Every later stage builds its result
from input already checked, so the norm holds there by construction, up
to rounding far below NORM_ATOL, and the result is not checked again: the
switch's ``registers`` and ``evolved`` (see ``switch``), a product of
normalized qubits and its unitary image, and ``entanglement``'s Kraus
branches of a normalized vector under a channel whose completeness was
checked. A sweep forms no density matrix but the ppt's Gram product (see
``entanglement``), and ``partial_transposes`` swaps its indices.
"""

from __future__ import annotations

import numpy as np

from . import linalg

#: tolerance on |norm^2 - 1| accepted where amplitudes enter
NORM_ATOL = 1e-10


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def normalized(amps: np.ndarray) -> np.ndarray:
    """Check a stack of amplitude vectors and rescale each to unit norm.

    Rejects NaN/Inf and any vector whose squared norm is off 1 by more than
    NORM_ATOL, with the message of the first failing vector.
    """
    linalg.require_finite(amps, "amplitudes")
    norm_sq = np.sum(np.abs(amps) ** 2, axis=-1)
    linalg.require(np.abs(norm_sq - 1.0) <= NORM_ATOL, norm_sq,
                   "state is not normalized: sum |amp|^2 = {value!r}")
    return amps / np.sqrt(norm_sq)[..., None]


def angle_qubits(a) -> np.ndarray:
    """sin(a)|0> + cos(a)|1> for each angle of a stack, checked by
    ``normalized``; shape (..., 2)."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("angle must be finite")
    return normalized(np.stack([np.sin(a), np.cos(a)], axis=-1).astype(complex))


def kron_vectors(*vectors: np.ndarray) -> np.ndarray:
    """Kronecker product of amplitude vectors, taken along the last axis and
    broadcast over the leading ones."""
    out = vectors[0]
    for v in vectors[1:]:
        out = out[..., :, None] * v[..., None, :]
        out = out.reshape(out.shape[:-2] + (-1,))
    return out


def partial_transposes(m: np.ndarray, qubit: int) -> np.ndarray:
    """Partial transpose on one qubit of each 2-qubit matrix of a stack."""
    if qubit not in (0, 1):
        raise ValueError(f"qubit index must be 0 or 1, got {qubit}")
    lead = m.shape[:-2]
    # axes (..., row qubit 0, row qubit 1, column qubit 0, column qubit 1)
    b = len(lead)
    return m.reshape(lead + (2, 2, 2, 2)).swapaxes(b + qubit, b + 2 + qubit).reshape(lead + (4, 4))
