"""Qubit registers as pure states and density matrices.

Basis convention: qubit 0 is the leftmost (most significant) position, so
an n-qubit register is indexed |0...0> .. |1...1> with qubit q contributing
bit (n-1-q) of the basis index. Every module in the package shares this
ordering.

States are immutable; the stored arrays are read-only copies. Amplitudes
are renormalized only where they enter, never inside arithmetic, so
norm-breaking bugs stay visible to the tests.

The functions with plural names work on stacks: amplitude vectors of shape
(..., 2**n) and matrices of shape (..., 2**n, 2**n), one per grid point
along the leading axes. ``normalized`` and ``checked_density`` are the
checks the two state types make, run once over a whole stack, and only
where input enters: ``normalized`` in the ``PureState`` constructor and
``angle_qubits``, and ``checked_density`` in the ``DensityMatrix``
constructor. Every other stage builds its result from input already
checked, so Hermiticity, unit trace, positivity and the norm hold there by
construction, up to rounding far below NORM_ATOL, DENSITY_ATOL and
linalg.PSD_EIGENVALUE_FLOOR, and the result is not checked again: the
switch's ``registers`` and ``evolved`` (see ``switch``), a product of
normalized qubits and its unitary image; ``densities`` from normalized
vectors; ``partial_traces`` from density matrices;
``entanglement.ensemble_densities`` from the Kraus branches of a
normalized vector under a channel whose completeness was checked; and
``channels.apply_kraus``, behind ``channels.apply_channel``, from density
matrices and such a channel. A sweep applies no channel to a density
matrix; it reads the Kraus branches (see ``entanglement``). The measures
that eigensolve a density matrix read its positivity from that eigensolve.
The state types and the single-state functions are the stack with no
leading axes: the constructors call the checks on one vector or matrix,
and a function such as ``partial_trace`` wraps the result of its stacked
twin without checking it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

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


def normalized(amps: np.ndarray) -> np.ndarray:
    """Check a stack of amplitude vectors and rescale each to unit norm.

    Rejects NaN/Inf and any vector whose squared norm is off 1 by more than
    NORM_ATOL: the checks of PureState, which calls this on one vector.
    """
    linalg.require_finite(amps, "amplitudes")
    norm_sq = np.sum(np.abs(amps) ** 2, axis=-1)
    linalg.require(np.abs(norm_sq - 1.0) <= NORM_ATOL, norm_sq,
                   "state is not normalized: sum |amp|^2 = {value!r}")
    return amps / np.sqrt(norm_sq)[..., None]


def checked_density(m: np.ndarray) -> np.ndarray:
    """Check a stack of matrices as density matrices and return it.

    Every matrix must be finite, Hermitian and of unit trace within
    DENSITY_ATOL, with no eigenvalue below linalg.PSD_EIGENVALUE_FLOOR: the
    checks of DensityMatrix, which calls this on one matrix.
    """
    linalg.require_finite(m, "matrix entries")
    deviation = linalg.hermitian_deviation(m)
    linalg.require(deviation <= DENSITY_ATOL, deviation,
                   "density matrix is not Hermitian: max |M - M^dagger| entry is {value:.3e}")
    tr = np.trace(m, axis1=-2, axis2=-1).real
    linalg.require(np.abs(tr - 1.0) <= DENSITY_ATOL, tr,
                   "density matrix trace is {value!r}, expected 1")
    require_psd(np.linalg.eigvalsh(linalg.hermitize(m))[..., 0])
    return m


def require_psd(low: np.ndarray) -> None:
    """Reject a stack of density matrices whose least eigenvalues ``low``
    include one below linalg.PSD_EIGENVALUE_FLOOR, with the message of
    DensityMatrix."""
    linalg.require(low >= linalg.PSD_EIGENVALUE_FLOOR, low,
                   "density matrix is not PSD: min eigenvalue {value:.3e}")


def _adopt(cls, n_qubits: int, array: np.ndarray):
    """An instance of a state type around an array that the stacked checks
    have already passed, so that it is not checked and rescaled again."""
    state = object.__new__(cls)
    object.__setattr__(state, "n_qubits", n_qubits)
    object.__setattr__(state, fields(cls)[1].name, _frozen(array))
    return state


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
        object.__setattr__(self, "amplitudes", _frozen(normalized(amps)))

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
        object.__setattr__(self, "matrix", _frozen(checked_density(m)))

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


def make_qubit(alpha: complex, beta: complex) -> PureState:
    """Single qubit alpha|0> + beta|1>; rejects non-normalized input."""
    norm_sq = abs(alpha) ** 2 + abs(beta) ** 2
    if not math.isfinite(norm_sq) or abs(norm_sq - 1.0) > NORM_ATOL:
        raise ValueError(f"|alpha|^2 + |beta|^2 = {norm_sq!r}, expected 1")
    return PureState(1, np.array([alpha, beta], dtype=complex))


def angle_qubits(a) -> np.ndarray:
    """sin(a)|0> + cos(a)|1> for each angle of a stack, checked as a
    PureState is; shape (..., 2)."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("angle must be finite")
    return normalized(np.stack([np.sin(a), np.cos(a)], axis=-1).astype(complex))


def qubit_from_angle(a: float) -> PureState:
    """Single qubit sin(a)|0> + cos(a)|1>."""
    return _adopt(PureState, 1, angle_qubits(a))


def kron_vectors(*vectors: np.ndarray) -> np.ndarray:
    """Kronecker product of amplitude vectors, taken along the last axis and
    broadcast over the leading ones."""
    out = vectors[0]
    for v in vectors[1:]:
        out = out[..., :, None] * v[..., None, :]
        out = out.reshape(out.shape[:-2] + (-1,))
    return out


def tensor(states) -> PureState:
    """Kronecker product of a non-empty sequence of pure states."""
    states = list(states)
    if not states:
        raise ValueError("tensor needs at least one state")
    amps = kron_vectors(*(s.amplitudes for s in states))
    return PureState(sum(s.n_qubits for s in states), amps)


def densities(amps: np.ndarray) -> np.ndarray:
    """|psi><psi| of each normalized amplitude vector of a stack; a density
    matrix by construction, so not checked again."""
    return amps[..., :, None] * np.conj(amps)[..., None, :]


def to_density(psi: PureState) -> DensityMatrix:
    """Rank-1 projector |psi><psi|."""
    return _adopt(DensityMatrix, psi.n_qubits, densities(psi.amplitudes))


def partial_traces(m: np.ndarray, n_qubits: int, discard) -> np.ndarray:
    """Trace the qubits in ``discard`` out of each n-qubit density matrix of
    a stack, keeping the rest in original order; the partial trace of a
    density matrix is one, so the results are not checked again."""
    n, discard = n_qubits, set(discard)
    if not discard:
        raise ValueError("discard set must not be empty")
    if not discard <= set(range(n)):
        raise ValueError(f"discard set {sorted(discard)} out of range for {n} qubits")
    if discard == set(range(n)):
        raise ValueError("cannot discard every qubit")
    keep = [q for q in range(n) if q not in discard]
    dropped = sorted(discard)
    k, d = 2 ** len(keep), 2 ** len(dropped)
    lead = m.shape[:-2]
    b = len(lead)
    # one row axis and one column axis per qubit, grouped as
    # (kept rows, dropped rows, kept columns, dropped columns)
    axes = [*range(b), *(b + q for q in keep + dropped), *(b + n + q for q in keep + dropped)]
    grouped = m.reshape(lead + (2,) * (2 * n)).transpose(axes).reshape(lead + (k, d, k, d))
    return np.trace(grouped, axis1=b + 1, axis2=b + 3)


def partial_trace(rho: DensityMatrix, discard) -> DensityMatrix:
    """Trace out the given qubits, keeping the rest in original order."""
    reduced = partial_traces(rho.matrix, rho.n_qubits, discard)
    return _adopt(DensityMatrix, rho.n_qubits - len(set(discard)), reduced)


def partial_transposes(m: np.ndarray, qubit: int) -> np.ndarray:
    """Partial transpose on one qubit of each 2-qubit matrix of a stack."""
    if qubit not in (0, 1):
        raise ValueError(f"qubit index must be 0 or 1, got {qubit}")
    lead = m.shape[:-2]
    # axes (..., row qubit 0, row qubit 1, column qubit 0, column qubit 1)
    b = len(lead)
    return m.reshape(lead + (2, 2, 2, 2)).swapaxes(b + qubit, b + 2 + qubit).reshape(lead + (4, 4))


def partial_transpose(rho: DensityMatrix, qubit: int) -> np.ndarray:
    """Transpose the indices of one qubit of a 2-qubit density matrix.

    The result is Hermitian with unit trace but may fail positivity; it is
    returned as a bare matrix, not a DensityMatrix.
    """
    if rho.n_qubits != 2:
        raise ValueError(f"partial transpose is defined here for 2 qubits, got {rho.n_qubits}")
    return partial_transposes(rho.matrix, qubit)

