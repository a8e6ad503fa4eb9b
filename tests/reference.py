"""Density-matrix references that the tests hold the package's routes to.

The commands never form a checked density matrix, apply a channel to one,
or eigensolve one for its eigenvectors: their routes read the evolved
pair's Kraus branches (see ``switchsim.entanglement``). The functions here
take the other road, through the matrices, so that a test can hold the two
against each other. Each works on a stack, one matrix or vector per point
along the leading axes; one matrix is the stack with no leading axes.

- ``require`` raises on the first failing entry of a stack of checks,
  ``require_finite`` on a stack with a NaN or Inf entry, and ``dagger``
  is the adjoint of each matrix of a stack; ``normalized`` checks a
  stack of amplitude vectors and rescales them, and ``kron_vectors`` is
  their Kronecker product, with the kets ``KET_0`` and ``KET_1``, which
  builds any product register, as the package's ``switch.registers``
  places the amplitudes of its one input.
- ``checked_density`` checks a stack as density matrices, and
  ``require_psd`` its least eigenvalues; ``densities`` forms |psi><psi|,
  and ``partial_traces`` traces qubits out.
- ``eigh`` is the checked Hermitian eigensystem; ``concurrences``,
  ``iconcurrences`` and ``entropies`` eigensolve a density matrix once
  (``_psd_eigh``) and read its positivity there.
- ``uhlmann_concurrences`` is Uhlmann's concurrence of an ensemble of
  any number K of columns, from the SVD of xi^T (Y x Y) xi: the general
  route that the package's kernel ``ensemble_concurrences`` reads for
  K = 1 and 2 without an SVD, and that ``concurrences`` takes for the
  K = 4 columns of an eigensolve.
- ``ppt_eigenvalues_closed`` is the closed partial-transpose spectrum of
  the switched pair, all four eigenvalues, of which the package's ppt
  reads only the least, -sqrt(d), with no eigensolve.
- ``checked_channel`` holds a tuple of Kraus operators to what
  ``channels.make_channel`` guarantees of its own: a tuple of read-only,
  finite 2 x 2 matrices, or stacks of them, that are complete.
  ``lifted_operators`` embeds a channel's 2 x 2 operators into a
  register, one ``np.kron`` per qubit, which the package's kernels never
  do: they apply each operator along its qubit's axis.
- ``apply_kraus`` forms sum_k E_k rho E_k^dagger;
  ``average_fidelities_gram`` is the average fidelity through the
  products U^dagger E_k and their Gram matrices, and
  ``average_fidelity_monte_carlo`` estimates it from Haar-random inputs;
  each takes a channel's Kraus operators as a tuple of arrays of the
  state's or the target's dimension: a channel's 2 x 2 operators on one
  qubit, or ``lifted_operators`` on a register.
- ``numeric`` is a measure's numeric route on any arrays of a and t that
  broadcast alike: its state (``sweep.STATES``) read by its kernel, as
  each block of a sweep reads them.
- ``switch_hamiltonian`` is the switch's generator,
  ``switch_unitary_oracle`` its exponential from an eigensolve, and
  ``circuit_unitary`` the switch as a three-gate circuit.
"""

from __future__ import annotations

import math

import numpy as np

from switchsim.entanglement import _log_scale, reduced_determinants, reduced_qubit_closed
from switchsim.sweep import STATES

#: tolerance on |norm^2 - 1| of an amplitude vector
NORM_ATOL = 1e-10
#: tolerance on |trace - 1| and Hermiticity for density matrices
DENSITY_ATOL = 1e-10
#: max |M - M^dagger| entry accepted as Hermitian
HERMITIAN_ATOL = 1e-10
#: max deviation of sum E_k^dagger E_k from identity accepted as complete
COMPLETENESS_ATOL = 1e-12
#: eigenvalues no lower than this are accepted as "nonnegative" and clamped to 0
PSD_EIGENVALUE_FLOOR = -1e-10
#: eigenvalues of a density matrix below this are eigensolver noise;
#: ``_ensemble`` drops them from V sqrt(w), where their
#: eigenvectors would otherwise enter at about sqrt(1e-16) = 1e-8
ENSEMBLE_WEIGHT_FLOOR = 1e-15
KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)
# sign convention: +i in the top row; the concurrence spin flip applies it
# twice, so the overall sign never matters downstream
PAULI_Y = np.array([[0, 1j], [-1j, 0]])
#: the two-qubit spin flip Y x Y of the concurrence
SPIN_FLIP = np.kron(PAULI_Y, PAULI_Y)


# --------------------------------------------------------------- matrices


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


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return np.conj(np.swapaxes(np.asarray(m), -1, -2))


def positive(x):
    """max(0.0, x) per entry: -0.0 and NaN read 0.0, as with max."""
    return np.where(x > 0.0, x, 0.0)


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


# ----------------------------------------------------------------- states


def normalized(amps: np.ndarray) -> np.ndarray:
    """Check a stack of amplitude vectors and rescale each to unit norm.

    Rejects NaN/Inf and any vector whose squared norm is off 1 by more than
    NORM_ATOL, with the message of the first failing vector.
    """
    require_finite(amps, "amplitudes")
    norm_sq = np.sum(np.abs(amps) ** 2, axis=-1)
    require(np.abs(norm_sq - 1.0) <= NORM_ATOL, norm_sq,
            "state is not normalized: sum |amp|^2 = {value!r}")
    return amps / np.sqrt(norm_sq)[..., None]


def kron_vectors(*vectors: np.ndarray) -> np.ndarray:
    """Kronecker product of amplitude vectors, taken along the last axis and
    broadcast over the leading ones."""
    out = vectors[0]
    for v in vectors[1:]:
        out = out[..., :, None] * v[..., None, :]
        out = out.reshape(out.shape[:-2] + (-1,))
    return out


def checked_density(m: np.ndarray) -> np.ndarray:
    """Check a stack of matrices as density matrices and return it.

    Every matrix must be finite, Hermitian and of unit trace within
    DENSITY_ATOL, with no eigenvalue below PSD_EIGENVALUE_FLOOR; the message
    names the first matrix that fails.
    """
    require_finite(m, "matrix entries")
    deviation = hermitian_deviation(m)
    require(deviation <= DENSITY_ATOL, deviation,
            "density matrix is not Hermitian: max |M - M^dagger| entry is {value:.3e}")
    tr = np.trace(m, axis1=-2, axis2=-1).real
    require(np.abs(tr - 1.0) <= DENSITY_ATOL, tr,
            "density matrix trace is {value!r}, expected 1")
    require_psd(np.linalg.eigvalsh(hermitize(m))[..., 0])
    return m


def require_psd(low: np.ndarray) -> None:
    """Reject a stack of density matrices whose least eigenvalues ``low``
    include one below PSD_EIGENVALUE_FLOOR, with the message of
    ``checked_density``."""
    require(low >= PSD_EIGENVALUE_FLOOR, low,
            "density matrix is not PSD: min eigenvalue {value:.3e}")


def densities(amps: np.ndarray) -> np.ndarray:
    """|psi><psi| of each normalized amplitude vector of a stack; a density
    matrix by construction, so not checked again."""
    return amps[..., :, None] * np.conj(amps)[..., None, :]


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


# ----------------------------------------------------------- entanglement


def _psd_eigh(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending spectrum and eigenvector columns of each density matrix of
    a stack, rejected as ``checked_density`` rejects it if any eigenvalue is
    below the PSD floor: the positivity check of the stages that built the
    matrices, read from the eigensolve the measure needs anyway."""
    w, v = eigh(rho)
    require_psd(w[..., 0])
    return w, v


def _ensemble(rho: np.ndarray) -> np.ndarray:
    """V sqrt(w) for each density matrix of a stack: one ``eigh`` gives
    rho = V diag(w) V^dagger and, from its least eigenvalue, the
    positivity check of ``checked_density``. Eigenvalues below
    ENSEMBLE_WEIGHT_FLOOR are dropped."""
    w, v = _psd_eigh(rho)
    w = np.where(w < ENSEMBLE_WEIGHT_FLOOR, 0.0, w)
    return v * np.sqrt(w)[..., None, :]


def uhlmann_concurrences(xi: np.ndarray) -> np.ndarray:
    """Two-qubit concurrence of each ensemble of a stack, shape (..., 4, K),
    any K: max(0, l1 - l2 - ... - lK) over the descending singular values
    l_i of tau = xi^T (Y x Y) xi, formed by two ``matmul``s and read by one
    ``np.linalg.svd`` (Uhlmann, PRA 62, 032307 (2000))."""
    tau = np.swapaxes(xi, -1, -2) @ SPIN_FLIP @ xi
    lam = np.linalg.svd(tau, compute_uv=False)
    return positive(lam[..., 0] - np.sum(lam[..., 1:], axis=-1))


def concurrences(rho: np.ndarray) -> np.ndarray:
    """Two-qubit concurrence of each density matrix of a stack: the Uhlmann
    reference ``uhlmann_concurrences`` over the K = 4 columns of
    ``_ensemble(rho)``."""
    return uhlmann_concurrences(_ensemble(rho))


def iconcurrences(rho: np.ndarray, traced_side: str = "B") -> np.ndarray:
    """sqrt(2 (1 - purity)) = 2 sqrt(det) of the state left after tracing
    out one side, for each 2-qubit density matrix of a stack, with det
    read from ``_ensemble(rho)`` (qubit axes swapped for side "A").

    Equals the concurrence on pure 2-qubit states. On mixed states it is
    applied exactly as defined (purity of the reduced state), which is what
    the noisy closed forms reproduce.
    """
    if traced_side not in ("A", "B"):
        raise ValueError(f"traced_side must be 'A' or 'B', got {traced_side!r}")
    xi = _ensemble(rho)
    if traced_side == "A":
        xi = np.swapaxes(xi.reshape(xi.shape[:-2] + (2, 2, -1)), -3, -2).reshape(xi.shape)
    return 2.0 * np.sqrt(reduced_determinants(xi))


def entropies(rho: np.ndarray, log_base: str = "e") -> np.ndarray:
    """-sum l log(l) over the spectrum of each density matrix of a stack,
    with 0 log 0 = 0.

    ``log_base`` selects nats ("e", the default) or bits ("2").
    """
    scale = _log_scale(log_base)
    w = np.clip(_psd_eigh(rho)[0], 0.0, None)
    nonzero = w > 0
    terms = np.where(nonzero, w * np.log(np.where(nonzero, w, 1.0)), 0.0)
    # an eigenvalue rounding to 1+eps would otherwise leave -eps behind
    return positive(-np.sum(terms, axis=-1) * scale)


def ppt_eigenvalues_closed(
    alpha0: complex, beta0: complex, t: float
) -> tuple[float, float, float, float]:
    """The four closed-form partial-transpose eigenvalues of the switched
    pair, unsorted, one value each or grids as ``reduced_qubit_closed``
    gives them.

    For real amplitudes they are +-|beta|^2 sin(t) cos(t) and
    (1 -+ |r|) / 2, with |r| the Bloch length of ``reduced_qubit_closed``.
    """
    _, root = reduced_qubit_closed(alpha0, beta0, t)
    swap = np.float_power(abs(beta0), 2) * np.sin(t) * np.cos(t)
    return -swap, swap, (1 - root) / 2, (1 + root) / 2


# --------------------------------------------------------------- channels


def checked_channel(operators: tuple, p_count: int | None = None) -> tuple:
    """Check the Kraus operators of a single-qubit channel as
    ``channels.make_channel`` builds them, and return them: a non-empty
    tuple of read-only, finite 2 x 2 complex arrays, or of (P, 2, 2)
    stacks for ``p_count`` P, whose sum E_k^dagger E_k is the identity
    within COMPLETENESS_ATOL for every matrix of the stack."""
    lead = () if p_count is None else (p_count,)
    if type(operators) is not tuple or not operators:
        raise ValueError("a channel is a non-empty tuple of Kraus operators")
    for e in operators:
        if e.shape != lead + (2, 2) or e.dtype != complex:
            raise ValueError(f"Kraus operator of shape {e.shape} and dtype {e.dtype}, "
                             f"expected {lead + (2, 2)} complex")
        if e.flags.writeable:
            raise ValueError("Kraus operators must be read-only")
        require_finite(e, "Kraus operators")
    total = sum(dagger(e) @ e for e in operators)
    deviation = np.max(np.abs(total - np.eye(2)), axis=(-2, -1))
    require(deviation <= COMPLETENESS_ATOL, deviation,
            "Kraus operators are not trace preserving: |sum E^dag E - I| reaches {value:.3e}")
    return operators


def lifted_operators(operators: tuple, qubit: int, n_qubits: int) -> tuple:
    """Each 2 x 2 Kraus operator, or each matrix of a stack, embedded at
    position ``qubit`` of an n-qubit register by one ``np.kron`` per qubit
    (qubit 0 leftmost): a tuple of (..., 2^n, 2^n) arrays, with the
    operators' leading axes."""
    lifted = []
    for e in operators:
        op = np.eye(1, dtype=complex)
        for q in range(n_qubits):
            # np.kron prepends unit axes to the lower-dimensional factor:
            # each matrix of a stack is lifted as it would be alone
            op = np.kron(op, e if q == qubit else np.eye(2, dtype=complex))
        lifted.append(op)
    return tuple(lifted)


def _require_dim(dim: int, operators: tuple, what: str) -> None:
    """Reject a ``dim``-dimensional ``what`` for the Kraus ``operators``."""
    channel_dim = operators[0].shape[-1]
    if dim != channel_dim:
        raise ValueError(
            f"dimension mismatch: {what} is {dim}-dimensional, "
            f"channel is {channel_dim}-dimensional"
        )


def apply_kraus(m: np.ndarray, operators: tuple) -> np.ndarray:
    """sum_k E_k rho E_k^dagger for each density matrix rho of a stack, as
    one broadcast product over (point, operator) summed over the Kraus
    ``operators``; the leading axes of operator stacks broadcast against
    the stack's. A complete channel maps density matrices to density
    matrices, so the results are not checked again."""
    _require_dim(m.shape[-1], operators, "state")
    ops = np.stack(operators, axis=-3)
    terms = ops @ m[..., None, :, :] @ dagger(ops)
    return np.sum(terms, axis=-3, initial=0.0)


def average_fidelities_gram(u: np.ndarray, operators: tuple) -> np.ndarray:
    """The average fidelity of ``channels.average_fidelities`` through
    matrix products: M_k = U^dagger E_k and its Gram matrix M_k^dagger M_k,
    one ``matmul`` each per matrix, then

        F_avg = (tr sum_k M_k^dagger M_k + sum_k |tr M_k|^2) / (n (n + 1)).

    The norm term is the trace of the Gram sum, with no use of the
    unitarity of U or of the completeness of the operators."""
    n = u.shape[-1]
    ud = dagger(u)
    gram = np.zeros(np.broadcast_shapes(u.shape, *(e.shape for e in operators)), dtype=complex)
    overlap = 0.0
    for e in operators:
        m = ud @ e
        gram += dagger(m) @ m
        overlap = overlap + np.abs(np.trace(m, axis1=-2, axis2=-1)) ** 2
    return (np.trace(gram, axis1=-2, axis2=-1).real + overlap) / (n * (n + 1))


def average_fidelity_monte_carlo(
    u_target: np.ndarray,
    operators: tuple,
    samples: int = 100_000,
    rng=0,
):
    """Estimate the average fidelity by sampling Haar-random pure inputs.

    Independent of the trace formula: draws |psi> uniformly, pushes it
    through the channel of Kraus ``operators`` and measures <psi| U^dag K(|psi><psi|) U |psi>.
    ``rng`` is a numpy Generator or anything ``np.random.default_rng``
    accepts. Returns (mean, standard_error).
    """
    u = np.asarray(u_target, dtype=complex)
    n = u.shape[0]
    _require_dim(n, operators, "target")
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    psi = g / np.linalg.norm(g, axis=1, keepdims=True)
    phi = psi @ u.T  # rows are U|psi>
    f = np.zeros(samples)
    for e in operators:
        amp = np.einsum("si,si->s", np.conj(phi), psi @ e.T)
        f += np.abs(amp) ** 2
    mean = float(np.mean(f))
    stderr = float(np.std(f, ddof=1) / math.sqrt(samples))
    return mean, stderr


# ----------------------------------------------------------------- switch


def numeric(m, a, t, operators=None, qubit=None, log_base: str = "e") -> np.ndarray:
    """The numeric route of the measure ``m`` (a ``sweep.Measure``): the
    kernel's values on the state its entry of ``sweep.STATES`` builds from
    ``a``, ``t``, the channel's ``operators`` and the noise ``qubit``."""
    state = STATES[m.state](a, t, operators, qubit)
    return m.kernel(state, t, operators, qubit, log_base)


def switch_hamiltonian() -> np.ndarray:
    """Generator |011><101| + |101><011| of the swap dynamics.

    Real symmetric 8x8 with unit entries at (3, 5) and (5, 3); spectrum is
    [-1, 0, 0, 0, 0, 0, 0, 1].
    """
    h = np.zeros((8, 8), dtype=complex)
    h[3, 5] = 1.0
    h[5, 3] = 1.0
    return h


def switch_unitary_oracle(t: float) -> np.ndarray:
    """exp(-i t H) built independently from the eigensystem of the generator.

    Cross-check for the closed form: V diag(exp(-i w t)) V^dagger.
    """
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    w, v = eigh(switch_hamiltonian())
    return (v * np.exp(-1j * w * t)) @ dagger(v)


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
