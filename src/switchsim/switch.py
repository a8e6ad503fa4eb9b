"""The three-qubit switch: a controlled swap of two data qubits.

The register is |A>|B>|C> with the control C last (qubit index 2). With
C = |1> the switch exchanges A and B; with C = |0> it does nothing. The
generator couples exactly the two basis states |011> and |101>, which gives
a closed-form time evolution with a cos/sin block on indices {3, 5}. Time
runs over <0, pi/2>; at t = pi/2 the swap is complete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .states import PureState, _frozen


def _const(rows) -> np.ndarray:
    return _frozen(np.array(rows, dtype=complex))


PAULI_X = _const([[0, 1], [1, 0]])
# sign convention: +i in the top row; the concurrence spin flip applies it
# twice, so the overall sign never matters downstream
PAULI_Y = _const([[0, 1j], [-1j, 0]])
PAULI_Z = _const([[1, 0], [0, -1]])
IDENTITY_2 = _const([[1, 0], [0, 1]])


@dataclass(frozen=True)
class SwitchOperator:
    """Unitary of the switch at time ``t``; differs from identity only on
    rows/columns 3 and 5."""

    t: float
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))


def switch_hamiltonian() -> np.ndarray:
    """Generator |011><101| + |101><011| of the swap dynamics.

    Real symmetric 8x8 with unit entries at (3, 5) and (5, 3); spectrum is
    [-1, 0, 0, 0, 0, 0, 0, 1].
    """
    h = np.zeros((8, 8), dtype=complex)
    h[3, 5] = 1.0
    h[5, 3] = 1.0
    return h


def switch_unitary(t: float) -> SwitchOperator:
    """Closed-form exp(-i t H) of the switch generator.

    Identity everywhere except the 2x2 block on indices {3, 5}, which is
    [[cos t, -i sin t], [-i sin t, cos t]].
    """
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    u = np.eye(8, dtype=complex)
    c, s = math.cos(t), math.sin(t)
    u[3, 3] = c
    u[5, 5] = c
    u[3, 5] = -1j * s
    u[5, 3] = -1j * s
    return SwitchOperator(t=t, matrix=u)


def switch_unitary_oracle(t: float) -> np.ndarray:
    """exp(-i t H) built independently from the eigensystem of the generator.

    Cross-check for the closed form: V diag(exp(-i w t)) V^dagger.
    """
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    sys = linalg.hermitian_eigensystem(switch_hamiltonian())
    phases = np.exp(-1j * sys.eigenvalues * t)
    return (sys.eigenvectors * phases) @ linalg.dagger(sys.eigenvectors)


def _permutation_gate(n_qubits: int, image) -> np.ndarray:
    dim = 2**n_qubits
    g = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        g[image(col), col] = 1.0
    return g


def circuit_unitary() -> np.ndarray:
    """The switch as a three-gate circuit: CNOT, Toffoli, CNOT.

    The outer gates negate qubit 0 controlled on qubit 1; the middle gate
    negates qubit 1 controlled on qubits 0 and 2 (the control line). The
    product is the exact 0/1 permutation exchanging |011> and |101>.
    """

    def cnot_q1_to_q0(i):
        b1 = (i >> 1) & 1
        return i ^ (b1 << 2)

    def toffoli_q0q2_to_q1(i):
        b0 = (i >> 2) & 1
        b2 = i & 1
        return i ^ ((b0 & b2) << 1)

    cn = _permutation_gate(3, cnot_q1_to_q0)
    tof = _permutation_gate(3, toffoli_q0q2_to_q1)
    return cn @ tof @ cn


def evolve(psi: PureState, t: float) -> PureState:
    """Apply the switch at time ``t`` to a 3-qubit register."""
    if psi.n_qubits != 3:
        raise ValueError(f"the switch acts on 3 qubits, got {psi.n_qubits}")
    return PureState(3, switch_unitary(t).matrix @ psi.amplitudes)


def fidelity(phi: PureState, psi: PureState) -> float:
    """|<phi|psi>| between pure states of equal arity."""
    if phi.n_qubits != psi.n_qubits:
        raise ValueError(
            f"fidelity needs equal arity, got {phi.n_qubits} and {psi.n_qubits}"
        )
    return float(abs(np.vdot(phi.amplitudes, psi.amplitudes)))


def switch_fidelity(psi0: PureState, t: float) -> float:
    """Overlap of the state at time ``t`` with the completed swap at pi/2.

    For |A>|0>|1> with amplitudes (alpha, beta) this evaluates to
    | |alpha|^2 + sin(t) |beta|^2 | (entanglement.fidelity_closed); it
    reaches 1 at t = pi/2 for every input.
    """
    if psi0.n_qubits != 3:
        raise ValueError(f"the switch acts on 3 qubits, got {psi0.n_qubits}")
    return fidelity(evolve(psi0, math.pi / 2), evolve(psi0, t))


def switched_pair(a_state: PureState, t: float) -> PureState:
    """Data-qubit pair after running the switch on |A>|0>|1> to time ``t``.

    Evolves the register and drops the control qubit (which stays |1>
    exactly); the result is the 2-qubit vector
    (alpha, -i sin(t) beta, cos(t) beta, 0).
    """
    from .states import make_qubit, project_control, tensor  # local to avoid cycle

    if a_state.n_qubits != 1:
        raise ValueError("a_state must be a single qubit")
    zero = make_qubit(1.0, 0.0)
    one = make_qubit(0.0, 1.0)
    evolved = evolve(tensor([a_state, zero, one]), t)
    return project_control(evolved, qubit=2, bit=1)
