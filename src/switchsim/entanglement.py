"""Entanglement and entropy diagnostics for two-qubit states.

Every measure comes in two flavours: a numeric pipeline working on the
state itself, and a closed-form expression in the amplitudes (alpha, beta)
of the first data qubit and the switch time t. The two are cross-checked
against each other throughout the test suite.

Each numeric measure is one stacked kernel with a plural name
(``schmidt_spectra``, ``ppt_spectra``, ``concurrences``, ``iconcurrences``,
``entropies``, ``determinant_entropies``) over arrays with one state per
point along the leading axes; the single-state functions call it on one
state. The kernels that eigensolve a density matrix (``entropies``,
``concurrences`` and ``iconcurrences``) read its positivity from that one
``linalg.eigh``: the stages that build the matrices do not check it (see
``states``). No sweep calls them.

The concurrence, the Schmidt coefficients, the I-concurrence and the
entropy read an ensemble xi, the columns of a decomposition
rho = xi xi^dagger, and take no square root of a spectrum. A sweep hands
them the Kraus branches E_k psi of the evolved pair, which decompose the
noisy pair's density matrix without forming it; ``_ensemble`` factors a
density matrix as V sqrt(w) from one eigensolve. The concurrence's
kernel, ``ensemble_concurrences``, is Uhlmann's form of Wootters'
formula, read from singular values. ``reduced_determinants`` is the
determinant of the first qubit's reduced state X X^dagger, with X = xi
reshaped to (..., 2, 2K): by Cauchy-Binet a sum of squared 2 x 2 minors
of X, so nothing cancels. The spectrum of a unit-trace 2 x 2 state is the
roots of l^2 - l + det (``_reduced_spectrum``), read with no eigensolve:
the I-concurrence is 2 sqrt(det), the Schmidt coefficients of a pure pair
are the square roots of the roots, and the entropy,
``determinant_entropies``, is -sum l log(l) over them.

The PPT spectrum reads the same ensemble, ``pair_ensembles``, through a
Gram product: ``ensemble_densities`` gives the pair's density matrix
xi xi^dagger, for a clean pair (K = 1) with the bits of
``states.densities``. That product is Hermitian bit for bit, and so is
its partial transpose, an index swap; ``ppt_spectra`` takes its
eigenvalues alone with ``np.linalg.eigvalsh``, checked only for NaN and
Inf, and neither re-checks nor symmetrises the matrix.

Each closed form is one definition in plain numpy: called on Python
scalars it returns numpy floats (``np.float64``, a subclass of float), and
called on a column of amplitudes, shape (A, 1), and a row of times, shape
(T,), it returns the (A, T) grid of values in one call, each entry with
the bits of the single-point call. Squares are ``np.float_power(x, 2)``,
the C library's pow, as Python's ``x ** 2``: ``np.power`` multiplies,
which rounds differently on about 0.08% of doubles. The Schmidt,
I-concurrence and entropy forms factor the same determinant into
nonnegative products; the Schmidt and entropy forms read its spectrum
through ``_reduced_spectrum``, as the numeric routes do.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from . import linalg
from . import pointwise as pw
from .channels import KrausChannel, check_channel
from .states import DensityMatrix, PureState, partial_transposes, require_psd
from .switch import PAULI_Y, switched_pairs

#: eigenvalues of a density matrix below this are eigensolver noise;
#: ``_ensemble`` drops them from V sqrt(w), where their
#: eigenvectors would otherwise enter at about sqrt(1e-16) = 1e-8
ENSEMBLE_WEIGHT_FLOOR = 1e-15

#: the two-qubit spin flip Y x Y of the concurrence
_YY = np.kron(PAULI_Y, PAULI_Y)


class SchmidtPair(NamedTuple):
    """The two Schmidt coefficients of a 2-qubit pure state, ascending;
    lambda0^2 + lambda1^2 = 1 and lambda0 > 0 signals entanglement."""

    lambda0: float
    lambda1: float


def _checked_beta(beta0):
    """Reject |beta0| > 1; the message names the first such value."""
    size = abs(beta0)
    bad = pw.first(size > 1 + 1e-12, size)
    if bad is not None:
        raise ValueError(f"|beta0| must be <= 1, got {bad!r}")


def _psd_eigh(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending spectrum and eigenvector columns of each density matrix of
    a stack, rejected as DensityMatrix rejects it if any eigenvalue is below
    the PSD floor: the positivity check of the stages that built the
    matrices, read from the eigensolve the measure needs anyway."""
    w, v = linalg.eigh(rho)
    require_psd(w[..., 0])
    return w, v


def reduced_determinants(xi: np.ndarray) -> np.ndarray:
    """det of the first qubit's reduced state X X^dagger for each 2-qubit
    ensemble of a stack, shape (..., 4, K), with X = xi reshaped to
    (..., 2, 2K): its columns <j|_1 E_k psi decompose the partial trace
    over the second qubit.

    By Cauchy-Binet the determinant is the sum over column pairs i < j of
    |X_0i X_1j - X_0j X_1i|^2. Every term is nonnegative, so nothing
    cancels: 1 - purity = 2 det of the formed matrix would lose a small
    determinant to rounding near 1.
    """
    x = xi.reshape(xi.shape[:-2] + (2, -1))
    i, j = np.triu_indices(x.shape[-1], 1)
    m = x[..., 0, i] * x[..., 1, j] - x[..., 0, j] * x[..., 1, i]
    return np.sum(m.real * m.real + m.imag * m.imag, axis=-1)


def _reduced_spectrum(d):
    """Ascending spectrum of each unit-trace 2 x 2 state whose determinant
    is d: the roots of l^2 - l + d, the small one written as
    2d / (1 + sqrt(1 - 4d)) so that it cancels nothing. d is at most 1/4;
    rounding above it would put the small root above the large one. A NaN
    d gives NaN roots."""
    d = pw.least(d, 0.25)
    root = np.sqrt(1.0 - 4.0 * d)
    return 2.0 * d / (1.0 + root), (1.0 + root) / 2.0


def _schmidt_pair(d):
    """(lambda0, lambda1) of a pure pair whose reduced state has determinant
    d: the square roots of that state's spectrum."""
    return tuple(np.sqrt(lam) for lam in _reduced_spectrum(d))


def _switched_determinant(beta0, t):
    """d = |sin(t) beta|^2 |cos(t) beta|^2, the determinant of the first
    qubit's reduced state of the switched pair, a product of nonnegative
    factors."""
    s, c = abs(np.sin(t) * beta0), abs(np.cos(t) * beta0)
    return s * s * (c * c)


def schmidt_spectra(psi: np.ndarray) -> np.ndarray:
    """Schmidt coefficients (ascending) of each 2-qubit amplitude vector of a
    stack, from the determinant of its reduced state; shape (..., 2)."""
    return np.stack(_schmidt_pair(reduced_determinants(psi[..., None])), axis=-1)


def schmidt_coefficients(psi: PureState) -> SchmidtPair:
    """Schmidt coefficients from the determinant of the reduced state."""
    if psi.n_qubits != 2:
        raise ValueError(f"Schmidt coefficients need a 2-qubit state, got {psi.n_qubits}")
    lam = schmidt_spectra(psi.amplitudes)
    return SchmidtPair(float(lam[0]), float(lam[1]))


def schmidt_closed(beta0: complex, t: float) -> SchmidtPair:
    """Closed-form Schmidt pair of the switched |A>|0> pair at time ``t``:
    sqrt(1 -+ sqrt(1 - 4d)) / sqrt(2) with d = |sin(t) beta|^2 |cos(t) beta|^2,
    through ``_schmidt_pair``, so that lambda0 cancels nothing."""
    _checked_beta(beta0)
    return SchmidtPair(*_schmidt_pair(_switched_determinant(beta0, t)))


def ppt_spectra(rho: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the partial transpose on the second qubit of
    each 2-qubit density matrix of a stack; shape (..., 4).

    A negative eigenvalue witnesses entanglement; the spectrum is the same
    whichever qubit is transposed. The partial transpose of a Hermitian
    matrix is Hermitian, so it is not checked or symmetrised again: one
    ``eigvalsh``, with no eigenvectors. A NaN or Inf entry raises
    ValueError, not LAPACK's convergence error.
    """
    pt = partial_transposes(rho, 1)
    linalg.require_finite(pt, "matrix entries")
    return np.linalg.eigvalsh(pt)


def ppt_spectrum(rho: DensityMatrix) -> np.ndarray:
    """ppt_spectra of one 2-qubit density matrix."""
    if rho.n_qubits != 2:
        raise ValueError(f"the PPT spectrum needs a 2-qubit state, got {rho.n_qubits}")
    return ppt_spectra(rho.matrix)


def ppt_eigenvalues_closed(
    alpha0: complex, beta0: complex, t: float
) -> tuple[float, float, float, float]:
    """The four closed-form partial-transpose eigenvalues of the switched
    pair, unsorted.

    For real amplitudes they are +-|beta|^2 sin(t) cos(t) and
    (1 -+ sqrt(|alpha|^4 + 2|alpha beta|^2 + |beta|^4 cos^2(2t))) / 2.
    """
    x, y = np.float_power(abs(alpha0), 2), np.float_power(abs(beta0), 2)
    norm_sq = x + y
    bad = pw.first(abs(norm_sq - 1.0) > 1e-10, norm_sq)
    if bad is not None:
        raise ValueError(f"amplitudes are not normalized: |a|^2+|b|^2 = {bad!r}")
    swap = y * np.sin(t) * np.cos(t)
    cos_sq = np.float_power(np.cos(2 * t), 2)
    root = np.sqrt(np.float_power(x, 2) + 2 * x * y + np.float_power(y, 2) * cos_sq)
    return -swap, swap, (1 - root) / 2, (1 + root) / 2


def fidelity_closed(alpha0: complex, beta0: complex, t: float) -> float:
    """Closed form of switch_fidelity for the input |A>|0>|1>:

        | |alpha|^2 + sin(t) |beta|^2 |

    The bracket turns negative where sin(t) < 0; the overlap is its modulus.
    """
    return abs(np.float_power(abs(alpha0), 2) + np.sin(t) * np.float_power(abs(beta0), 2))


def ensemble_concurrences(xi: np.ndarray) -> np.ndarray:
    """Two-qubit concurrence of each ensemble of a stack, shape (..., 4, K):
    the K columns xi decompose the state as rho = xi xi^dagger.

    Uhlmann's form of Wootters' concurrence: max(0, l1 - l2 - ... - lK)
    over the descending singular values l_i of tau = xi^T (Y x Y) xi,
    whatever the decomposition (Wootters, PRL 80, 2245 (1998); Uhlmann,
    PRA 62, 032307 (2000)). With K = 1 this is |psi^T (Y x Y) psi|. No
    eigensolve and no square root of a spectrum, so a small concurrence
    is read as exactly as a large one.
    """
    tau = np.swapaxes(xi, -1, -2) @ _YY @ xi
    if tau.shape[-1] == 1:
        return np.abs(tau[..., 0, 0])
    lam = np.linalg.svd(tau, compute_uv=False)
    return pw.positive(lam[..., 0] - np.sum(lam[..., 1:], axis=-1))


def _ensemble(rho: np.ndarray) -> np.ndarray:
    """V sqrt(w) for each density matrix of a stack: one ``linalg.eigh``
    gives rho = V diag(w) V^dagger and, from its least eigenvalue, the
    positivity check of DensityMatrix. Eigenvalues below
    ENSEMBLE_WEIGHT_FLOOR are dropped."""
    w, v = _psd_eigh(rho)
    w = np.where(w < ENSEMBLE_WEIGHT_FLOOR, 0.0, w)
    return v * np.sqrt(w)[..., None, :]


def concurrences(rho: np.ndarray) -> np.ndarray:
    """Two-qubit concurrence of each density matrix of a stack: the Uhlmann
    kernel ``ensemble_concurrences`` over ``_ensemble(rho)``."""
    return ensemble_concurrences(_ensemble(rho))


def concurrence(rho: DensityMatrix) -> float:
    """concurrences of one 2-qubit density matrix."""
    if rho.n_qubits != 2:
        raise ValueError(f"concurrence needs a 2-qubit state, got {rho.n_qubits}")
    return float(concurrences(rho.matrix))


def concurrence_closed(beta0: complex, t: float) -> float:
    """|beta^2 sin(2t)| for the switched pair."""
    _checked_beta(beta0)
    return abs(np.float_power(beta0, 2) * np.sin(2 * t))


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


def iconcurrence(rho: DensityMatrix, traced_side: str = "B") -> float:
    """iconcurrences of one 2-qubit density matrix."""
    if rho.n_qubits != 2:
        raise ValueError(f"I-concurrence needs a 2-qubit state, got {rho.n_qubits}")
    return float(iconcurrences(rho.matrix, traced_side))


def iconcurrence_closed(alpha0: complex, beta0: complex, t: float) -> float:
    """Noiseless closed form for the switched pair, 2 sqrt(det) of the
    reduced state: 2 |sin(t) beta| |cos(t) beta| = |beta^2 sin(2t)|."""
    return 2.0 * abs(np.sin(t) * beta0) * abs(np.cos(t) * beta0)


def iconcurrence_noisy_closed(
    kind: str, p: float, t: float, alpha0: complex, beta0: complex
) -> float:
    """Closed-form I-concurrence of the switched pair with noise of strength
    ``p`` on the first qubit: sqrt(1 - |r'|^2), with r' the channel's
    contraction of the first qubit's Bloch vector r (Nielsen and Chuang,
    section 8.3). With x = |alpha|^2, s = |sin(t) beta|^2 and
    u = |cos(t) beta|^2, 1 - |r|^2 = 4 s u, and

        PF: 2 sqrt(u (s + 4p(1-p) x))
        BF: sqrt(4 s u + 4p(1-p) (r_y^2 + r_z^2)),
            r_z = x + s - u, r_y = 2 Im(alpha cos(t) conj(beta))
        AD: 2 sqrt((1-p) u (s + p u))
        PD: 2 sqrt(u (s + p x))

    each a sum of nonnegative products, so nothing cancels.
    """
    check_channel(kind, p)
    c = np.cos(t)
    a, sb, cb = abs(alpha0), abs(np.sin(t) * beta0), abs(c * beta0)
    x, s, u = a * a, sb * sb, cb * cb
    if kind == "PF":
        return 2.0 * np.sqrt(u * (s + 4.0 * p * (1.0 - p) * x))
    if kind == "BF":
        r_y = 2.0 * np.imag(alpha0 * c * np.conj(beta0))
        r_z = x + s - u
        return np.sqrt(4.0 * s * u + 4.0 * p * (1.0 - p) * (r_y * r_y + r_z * r_z))
    if kind == "AD":
        return 2.0 * np.sqrt((1.0 - p) * u * (s + p * u))
    return 2.0 * np.sqrt(u * (s + p * x))  # PD


def entropies(rho: np.ndarray, log_base: str = "e") -> np.ndarray:
    """-sum l log(l) over the spectrum of each density matrix of a stack,
    with 0 log 0 = 0.

    ``log_base`` selects nats ("e", the default) or bits ("2").
    """
    scale = _log_scale(log_base)
    w = np.clip(_psd_eigh(rho)[0], 0.0, None)
    positive = w > 0
    terms = np.where(positive, w * np.log(np.where(positive, w, 1.0)), 0.0)
    # an eigenvalue rounding to 1+eps would otherwise leave -eps behind
    return pw.positive(-np.sum(terms, axis=-1) * scale)


def von_neumann_entropy(rho: DensityMatrix, log_base: str = "e") -> float:
    """entropies of one density matrix."""
    return float(entropies(rho.matrix, log_base))


def _log_scale(log_base: str) -> float:
    if log_base == "e":
        return 1.0
    if log_base == "2":
        return 1.0 / math.log(2.0)
    raise ValueError(f"log_base must be 'e' or '2', got {log_base!r}")


def determinant_entropies(d, log_base: str = "e"):
    """-l0 log(l0) - l1 log(l1) over the spectrum l0 <= l1 =
    ``_reduced_spectrum(d)`` of each unit-trace 2 x 2 state whose
    determinant is d, with 0 log 0 = 0; no eigensolve. The large root's
    log is log1p(-l0), which keeps its term, about d, where d is below eps
    and l1 rounds to 1. Both roots lie in [0, 1], so no term is positive,
    and a NaN d gives a NaN entropy.

    ``log_base`` selects nats ("e", the default) or bits ("2").
    """
    l0, l1 = _reduced_spectrum(d)
    # 0 log 0 = 0 reads 0 log 1; a zero entropy comes out as 0.0, not -0.0
    entropy = -l1 * np.log1p(-l0) - l0 * np.log(np.where(l0 > 0.0, l0, 1.0))
    return entropy * _log_scale(log_base)


def reduced_entropy_closed(
    alpha0: complex, beta0: complex, t: float, log_base: str = "e"
) -> float:
    """Entropy of the first data qubit of the switched pair:
    ``determinant_entropies`` of d = |sin(t) beta|^2 |cos(t) beta|^2."""
    return determinant_entropies(_switched_determinant(beta0, t), log_base)


def reduced_eigenvalues_closed(alpha0: complex, beta0: complex, t: float):
    """The closed-form eigenvalue pair behind reduced_entropy_closed,
    ascending: the roots of l^2 - l + d, d = |sin(t) beta|^2 |cos(t) beta|^2,
    equal to (1 -+ sqrt(2|a b|^2 + |a|^4 + |b|^4 cos^2(2t))) / 2 for
    normalized amplitudes."""
    return _reduced_spectrum(_switched_determinant(beta0, t))


def pair_ensembles(
    a_amps: np.ndarray, t, lifted: Optional[KrausChannel] = None
) -> np.ndarray:
    """Run the switch on |A>|0>|1> to time ``t`` for each |A> of a stack of
    amplitude pairs and drop the control: the switched pair psi as a
    one-column ensemble, or its Kraus branches E_k psi under ``lifted``, a
    channel already lifted onto the pair; shape (..., 4, K). The columns
    decompose the pair's density matrix, sum_k (E_k psi)(E_k psi)^dagger,
    which is not formed."""
    psi = switched_pairs(a_amps, t)[..., None]
    if lifted is None:
        return psi
    return np.concatenate([e @ psi for e in lifted.operators], axis=-1)


def ensemble_densities(xi: np.ndarray) -> np.ndarray:
    """xi xi^dagger for each ensemble of a stack, shape (..., d, K): the
    density matrix its columns decompose, shape (..., d, d).

    A sum of elementwise products over the columns, in column order: with
    one column it has the bits of ``states.densities``, and it is a density
    matrix by construction, so it is not checked again. Entries (i, j) and
    (j, i) sum the products x conj(y) and y conj(x), which are exact
    conjugates, so the result is Hermitian bit for bit.
    """
    return np.sum(xi[..., :, None, :] * np.conj(xi)[..., None, :, :], axis=-1)
