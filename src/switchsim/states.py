"""Qubit registers as pure states and density matrices.

Basis convention: qubit 0 is the leftmost (most significant) position, so
an n-qubit register is indexed |0...0> .. |1...1> with qubit q contributing
bit (n-1-q) of the basis index. Every module in the package shares this
ordering.

States are immutable; the stored arrays are read-only copies. They are
renormalized only at explicit construction/projection points, never inside
arithmetic, so norm-breaking bugs stay visible to the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg

#: tolerance on |norm^2 - 1| accepted by state constructors
NORM_ATOL = 1e-10
#: tolerance on |trace - 1| and Hermiticity for density matrices
DENSITY_ATOL = 1e-10


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over ``n_qubits`` qubits."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("a state needs at least one qubit")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] != 2**self.n_qubits:
            raise ValueError(
                f"{self.n_qubits}-qubit state needs {2**self.n_qubits} amplitudes, "
                f"got {amps.shape[0]}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes contain NaN or Inf")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_ATOL:
            raise ValueError(f"state is not normalized: sum |amp|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", _frozen(amps / math.sqrt(norm_sq)))

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite operator on ``n_qubits``."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("a density matrix needs at least one qubit")
        m = linalg.as_matrix(self.matrix)
        dim = 2**self.n_qubits
        if m.shape != (dim, dim):
            raise ValueError(
                f"{self.n_qubits}-qubit density matrix must be {dim}x{dim}, "
                f"got shape {m.shape}"
            )
        if not linalg.is_hermitian(m, DENSITY_ATOL):
            raise ValueError("density matrix is not Hermitian")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > DENSITY_ATOL:
            raise ValueError(f"density matrix trace is {tr!r}, expected 1")
        w = np.linalg.eigvalsh((m + linalg.dagger(m)) / 2)
        if float(w[0]) < linalg.PSD_EIGENVALUE_FLOOR:
            raise ValueError(
                f"density matrix is not PSD: min eigenvalue {float(w[0]):.3e}"
            )
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


def make_qubit(alpha: complex, beta: complex) -> PureState:
    """Single qubit alpha|0> + beta|1>; rejects non-normalized input."""
    norm_sq = abs(alpha) ** 2 + abs(beta) ** 2
    if not math.isfinite(norm_sq) or abs(norm_sq - 1.0) > NORM_ATOL:
        raise ValueError(f"|alpha|^2 + |beta|^2 = {norm_sq!r}, expected 1")
    return PureState(1, np.array([alpha, beta], dtype=complex))


def qubit_from_angle(a: float) -> PureState:
    """Single qubit sin(a)|0> + cos(a)|1>."""
    if not math.isfinite(a):
        raise ValueError("angle must be finite")
    return PureState(1, np.array([math.sin(a), math.cos(a)], dtype=complex))


def tensor(states) -> PureState:
    """Kronecker product of a non-empty sequence of pure states."""
    states = list(states)
    if not states:
        raise ValueError("tensor needs at least one state")
    amps = states[0].amplitudes
    n = states[0].n_qubits
    for s in states[1:]:
        amps = np.kron(amps, s.amplitudes)
        n += s.n_qubits
    return PureState(n, amps)


def to_density(psi: PureState) -> DensityMatrix:
    """Rank-1 projector |psi><psi|."""
    return DensityMatrix(psi.n_qubits, np.outer(psi.amplitudes, np.conj(psi.amplitudes)))


def partial_trace(rho: DensityMatrix, discard) -> DensityMatrix:
    """Trace out the given qubits, keeping the rest in original order."""
    n = rho.n_qubits
    discard = set(discard)
    if not discard:
        raise ValueError("discard set must not be empty")
    if not discard <= set(range(n)):
        raise ValueError(f"discard set {sorted(discard)} out of range for {n} qubits")
    if discard == set(range(n)):
        raise ValueError("cannot discard every qubit")

    keep = [q for q in range(n) if q not in discard]
    dropped = sorted(discard)
    m, d = 2 ** len(keep), 2 ** len(dropped)
    # one row axis and one column axis per qubit, grouped as
    # (kept rows, dropped rows, kept columns, dropped columns)
    axes = keep + dropped + [n + q for q in keep] + [n + q for q in dropped]
    grouped = rho.matrix.reshape((2,) * (2 * n)).transpose(axes).reshape(m, d, m, d)
    return DensityMatrix(len(keep), np.trace(grouped, axis1=1, axis2=3))


def partial_transpose(rho: DensityMatrix, qubit: int) -> np.ndarray:
    """Transpose the indices of one qubit of a 2-qubit density matrix.

    The result is Hermitian with unit trace but may fail positivity; it is
    returned as a bare matrix, not a DensityMatrix.
    """
    if rho.n_qubits != 2:
        raise ValueError(f"partial transpose is defined here for 2 qubits, got {rho.n_qubits}")
    if qubit not in (0, 1):
        raise ValueError(f"qubit index must be 0 or 1, got {qubit}")
    # axes (row qubit 0, row qubit 1, column qubit 0, column qubit 1)
    return rho.matrix.reshape(2, 2, 2, 2).swapaxes(qubit, 2 + qubit).reshape(4, 4)


def project_control(psi: PureState, qubit: int, bit: int) -> PureState:
    """Project one qubit onto |bit> and drop it, renormalizing the rest.

    Rejects branches carrying no amplitude mass (probability <= 1e-12).
    """
    n = psi.n_qubits
    if n < 2:
        raise ValueError("projection needs at least two qubits")
    if not 0 <= qubit < n:
        raise ValueError(f"qubit index {qubit} out of range for {n} qubits")
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    branch = psi.amplitudes.reshape((2,) * n).take(bit, axis=qubit).reshape(-1)
    mass = float(np.sum(np.abs(branch) ** 2))
    if mass <= 1e-12:
        raise ValueError(
            f"qubit {qubit} has no amplitude on |{bit}> (probability {mass:.3e})"
        )
    return PureState(n - 1, branch / math.sqrt(mass))
