"""The three-qubit switch: a controlled exchange of two data qubits.

Basis convention: qubit 0 is the leftmost (most significant) position, so
an n-qubit register is indexed |0...0> .. |1...1> with qubit q contributing
bit (n-1-q) of the basis index. Every module in the package shares this
ordering. States are plain complex arrays.

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
axes; one register is the stack with no leading axes. The angles and
times are finite: a ``SweepConfig`` checks them, and the times' span,
where they enter (see ``sweep``), so no function here checks them again.
``angle_qubits`` rescales each input qubit to unit norm, the one place
amplitudes are renormalized, never inside arithmetic, so norm-breaking
bugs stay visible to the tests. Every later stage builds its result from
those qubits, so the norm holds there by construction, up to rounding:
the ``registers`` that place them, their ``evolved`` image under a
unitary, and ``entanglement``'s Kraus branches of a normalized vector
under a channel that ``channels.make_channel`` builds complete.
"""

from __future__ import annotations

import math

import numpy as np


def angle_qubits(a) -> np.ndarray:
    """sin(a)|0> + cos(a)|1> for each finite angle of a stack, each divided
    by its norm, which rounding leaves off 1 (the bits of the outputs
    depend on it); shape (..., 2)."""
    amps = np.stack([np.sin(a), np.cos(a)], axis=-1).astype(complex)
    return amps / np.sqrt(np.sum(np.abs(amps) ** 2, axis=-1))[..., None]


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
    as from ``registers``, at the times ``t``, whose shape broadcasts
    against the stack's: a column of registers and a row of times give
    the register at every time. Only
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
    amplitude pairs, as from ``angle_qubits``: zeros but for |A>'s
    amplitudes, at |001> and |101> (indices 1 and 5); a normalized qubit
    placed in a register is normalized, so it is not checked again."""
    regs = np.zeros(a_amps.shape[:-1] + (8,), dtype=complex)
    regs[..., 1::4] = a_amps
    return regs


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
