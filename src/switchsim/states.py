"""Qubit amplitude vectors and the stacked operations on them.

Basis convention: qubit 0 is the leftmost (most significant) position, so
an n-qubit register is indexed |0...0> .. |1...1> with qubit q contributing
bit (n-1-q) of the basis index. Every module in the package shares this
ordering.

States are plain complex arrays. The functions work on stacks: amplitude
vectors of shape (..., 2**n) and matrices of shape (..., 2**n, 2**n), one
per grid point along the leading axes; one vector or matrix is the stack
with no leading axes. Nothing here checks its input: a ``SweepConfig``
checks the angles and times where they enter (see ``sweep``), so
``angle_qubits`` builds finite input qubits, and rescales each to unit
norm, the one place amplitudes are renormalized, never inside
arithmetic, so norm-breaking bugs stay visible to the tests. Every later
stage builds its result from those qubits, so the norm holds there by
construction, up to rounding: the switch's ``registers`` and ``evolved``
(see ``switch``), a product of normalized qubits and its unitary image,
and ``entanglement``'s Kraus branches of a normalized vector under a
channel that ``channels.make_channel`` builds complete. A sweep forms no
density matrix but the ppt's Gram product (see ``entanglement``), and
``partial_transposes`` swaps its indices, qubit 0 or 1.
"""

from __future__ import annotations

import numpy as np


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def angle_qubits(a) -> np.ndarray:
    """sin(a)|0> + cos(a)|1> for each finite angle of a stack, each divided
    by its norm, which rounding leaves off 1 (the bits of the outputs
    depend on it); shape (..., 2)."""
    amps = np.stack([np.sin(a), np.cos(a)], axis=-1).astype(complex)
    return amps / np.sqrt(np.sum(np.abs(amps) ** 2, axis=-1))[..., None]


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
    lead = m.shape[:-2]
    # axes (..., row qubit 0, row qubit 1, column qubit 0, column qubit 1)
    b = len(lead)
    return m.reshape(lead + (2, 2, 2, 2)).swapaxes(b + qubit, b + 2 + qubit).reshape(lead + (4, 4))
