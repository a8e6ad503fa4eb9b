"""The three-qubit switch: a controlled exchange of two data qubits.

The register is |A>|B>|C> with the control C last (qubit index 2). With
C = |0> the switch does nothing. The generator |011><101| + |101><011|
couples exactly those two basis states, which gives a closed-form time
evolution with a cos/sin block on indices {3, 5}. Time runs over
<0, pi/2>; at t = pi/2, with C = |1>, the exchange is complete and of
iSWAP type, not a plain swap: |01> and |10> of the data qubits trade
places with a phase -i, and |00> and |11> stay. On the input |A>|0>|1>,
the moved qubit arrives as diag(1, -i) |A>.
``evolved`` applies that 2 x 2 block to amplitudes 3 and 5 of each register
and copies the other six; ``switch_unitaries(t)``, one plain 8 x 8 array
per time of ``t``, is the full unitary, which the gate route needs. Every
function takes stacks, one register or time per point along the leading
axes; one register is the stack with no leading axes. The times are
finite: a ``SweepConfig`` checks them, and their span, where they enter
(see ``sweep``), so no function here checks them again.
"""

from __future__ import annotations

import math

import numpy as np

from .states import _frozen, kron_vectors


def _const(rows) -> np.ndarray:
    return _frozen(np.array(rows, dtype=complex))


PAULI_X = _const([[0, 1], [1, 0]])
# sign convention: +i in the top row; the concurrence spin flip applies it
# twice, so the overall sign never matters downstream
PAULI_Y = _const([[0, 1j], [-1j, 0]])
PAULI_Z = _const([[1, 0], [0, -1]])
IDENTITY_2 = _const([[1, 0], [0, 1]])
KET_0 = _const([1, 0])
KET_1 = _const([0, 1])


def switch_unitaries(t) -> np.ndarray:
    """Closed-form exp(-i t H) of the switch generator at each time of a
    stack, shape (..., 8, 8).

    Identity everywhere except the 2x2 block on indices {3, 5}, which is
    [[cos t, -i sin t], [-i sin t, cos t]].
    """
    t = np.asarray(t, dtype=float)
    u = np.zeros(t.shape + (8, 8), dtype=complex)
    u[..., range(8), range(8)] = 1.0
    c, s = np.cos(t), np.sin(t)
    u[..., 3, 3] = c
    u[..., 5, 5] = c
    u[..., 3, 5] = -1j * s
    u[..., 5, 3] = -1j * s
    return u


def evolved(amps: np.ndarray, t) -> np.ndarray:
    """U(t) applied to each normalized 3-qubit amplitude vector of a stack,
    as from ``registers``; ``t`` is one time or one per vector. Only
    amplitudes 3 and 5 move, by the 2 x 2 block of ``switch_unitaries``; a
    unitary image of a normalized vector is normalized, so the result is
    not checked again."""
    t = np.asarray(t, dtype=float)
    c, s = np.cos(t), np.sin(t)
    a3, a5 = amps[..., 3], amps[..., 5]
    shape = np.broadcast_shapes(a3.shape, t.shape) + (8,)
    out = np.array(np.broadcast_to(amps, shape), dtype=complex)
    out[..., 3] = c * a3 - 1j * s * a5
    out[..., 5] = -1j * s * a3 + c * a5
    return out


def overlaps(phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """|<phi|psi>| of each pair of amplitude vectors of two stacks."""
    return np.abs((np.conj(phi)[..., None, :] @ psi[..., :, None])[..., 0, 0])


def switch_fidelities(regs: np.ndarray, t) -> np.ndarray:
    """Overlap of each 3-qubit register of the stack ``regs`` at time ``t``
    with its completed swap at pi/2.

    For |A>|0>|1> with amplitudes (alpha, beta) this evaluates to
    | |alpha|^2 + sin(t) |beta|^2 | (entanglement.fidelity_closed); it
    reaches 1 at t = pi/2 for every input.
    """
    return overlaps(evolved(regs, math.pi / 2), evolved(regs, t))


def registers(a_amps: np.ndarray) -> np.ndarray:
    """The switch input |A>|0>|1> for each |A> of a stack of normalized
    amplitude pairs, as from ``states.angle_qubits``; the product of
    normalized qubits is normalized, so it is not checked again."""
    return kron_vectors(a_amps, KET_0, KET_1)


def switched_pairs(a_amps: np.ndarray, t) -> np.ndarray:
    """Data-qubit pairs after running the switch on |A>|0>|1> to time ``t``,
    for a stack of normalized amplitude pairs as ``registers`` takes them.

    Each is the control-|1> half, the odd amplitudes, of the evolved
    register: the 2-qubit vector (alpha, -i sin(t) beta, cos(t) beta, 0).
    The control stays |1> exactly, since the even amplitudes are exact zeros
    that the evolution does not touch, so that half carries all of the mass
    and needs no rescaling.
    """
    return evolved(registers(a_amps), t)[..., 1::2]
