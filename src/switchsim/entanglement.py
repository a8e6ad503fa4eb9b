"""Entanglement and entropy diagnostics for two-qubit states.

Every measure comes in two flavours: a numeric pipeline working on the
state itself, and a closed-form expression in the amplitudes (alpha, beta)
of the first data qubit and the switch time t. The two are cross-checked
against each other throughout the test suite.

Each numeric measure is one stacked kernel with a plural name
(``schmidt_spectra``, ``ppt_spectra``, ``ensemble_concurrences``,
``reduced_determinants``, ``determinant_entropies``) over arrays with one
state per point along the leading axes; one state is the stack with no
leading axes.

The concurrence, the Schmidt coefficients, the I-concurrence and the
entropy read an ensemble xi, the columns of a decomposition
rho = xi xi^dagger, and take no square root of a spectrum. A sweep hands
them the Kraus branches E_k psi of the evolved pair, which decompose the
noisy pair's density matrix without forming it. The concurrence's
kernel, ``ensemble_concurrences``, is Uhlmann's form of Wootters'
formula, sigma_1 - sigma_2 over the singular values of the K x K matrix
tau = xi^T (Y x Y) xi, which it builds entrywise (Y x Y is
antidiagonal) and, for the two branches of every channel, reads with no
SVD as the gap sigma_1^2 - sigma_2^2 over sigma_1 + sigma_2, each a root
of a sum of nonnegative terms. ``reduced_determinants`` is the
determinant of the first qubit's reduced state X X^dagger, with X = xi
reshaped to (..., 2, 2K): by Cauchy-Binet a sum of squared 2 x 2 minors
of X, so nothing cancels. ``reduced_qubits`` adds the length |r| of its
Bloch vector, the root of a sum of squares over the rows of X. The Schmidt
coefficient, the I-concurrence and the entropy read only that state's pair
(d, |r|), and its spectrum by one rule,
``_reduced_spectrum``: (2d / (1 + |r|), (1 + |r|) / 2), with no eigensolve
and no sqrt(1 - 4d), which cancels near d = 1/4. The I-concurrence is
2 sqrt(d), the Schmidt coefficients of a pure pair are the square roots of
the spectrum, and the entropy, ``determinant_entropies``, is -sum l log(l).

The PPT spectrum reads the same ensemble, ``pair_ensembles``, through a
Gram product: ``ensemble_densities`` gives the pair's density matrix
xi xi^dagger. That product is Hermitian bit for bit, and so is its
partial transpose, an index swap; ``ppt_spectra`` takes its eigenvalues
alone with ``np.linalg.eigvalsh``, and neither re-checks nor symmetrises
the matrix. Its entries are finite because the angles and times are:
a ``SweepConfig`` checks them where they enter (see ``sweep``), and no
kernel or closed form here checks its input again. That is the one
eigensolve a command makes. No kernel takes an ``einsum``, and no pair
route a ``matmul``, so a stacked result has the bits of the same call on
one point at a time; ``pair_ensembles`` applies each 2 x 2 Kraus
operator along the noise qubit's axis of the pair.

Each closed form is one definition in plain numpy: called on Python
scalars it returns numpy floats (``np.float64``, a subclass of float), and
called on a column of amplitudes, shape (A, 1), and a row of times, shape
(T,), it returns the (A, T) grid of values in one call, each entry with
the bits of the single-point call. Squares are ``np.float_power(x, 2)``,
the C library's pow, as Python's ``x ** 2``: ``np.power`` multiplies,
which rounds differently on about 0.08% of doubles. The closed pair
(d, |r|) is one function per noise configuration, a contraction of the
Bloch vector (Nielsen and Chuang, section 8.3): ``reduced_qubit_closed``
clean or under noise on qubit 1, and ``noisy_determinant_closed``, its d
half under each channel on qubit 0. The measure table applies each
measure's map of (d, |r|) to the numeric and to the closed pair alike.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .states import partial_transposes
from .switch import switched_pairs

#: the column pairs i < j that ``reduced_determinants`` reads, by column
#: count: read-only index arrays, built once per count
_COLUMN_PAIRS = {}


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
    pairs = _COLUMN_PAIRS.get(x.shape[-1])
    if pairs is None:
        pairs = _COLUMN_PAIRS[x.shape[-1]] = np.triu_indices(x.shape[-1], 1)
        for index in pairs:
            index.setflags(write=False)
    i, j = pairs
    m = x[..., 0, i] * x[..., 1, j] - x[..., 0, j] * x[..., 1, i]
    return np.sum(m.real * m.real + m.imag * m.imag, axis=-1)


def reduced_qubits(xi: np.ndarray):
    """(d, |r|) of the first qubit's reduced state for each 2-qubit
    ensemble of a stack: d is ``reduced_determinants``, and the Bloch
    length |r| = sqrt((|X_0|^2 - |X_1|^2)^2 + 4 |<X_1, X_0>|^2) is read from
    the rows X_0, X_1 of the same X, which, unlike sqrt(1 - 4d), keeps the
    digits of a small |r|."""
    x = xi.reshape(xi.shape[:-2] + (2, -1))
    rows = np.sum(x.real * x.real + x.imag * x.imag, axis=-1)
    z = rows[..., 0] - rows[..., 1]
    c = np.sum(x[..., 1, :] * np.conj(x[..., 0, :]), axis=-1)
    return reduced_determinants(xi), np.sqrt(z * z + 4.0 * (c.real * c.real + c.imag * c.imag))


def _reduced_spectrum(d, r):
    """The spectrum (1 -+ r) / 2 of each unit-trace 2 x 2 state with
    determinant d and Bloch length r, the small root written as
    2d / (1 + r) so that it cancels nothing; a NaN gives NaN roots."""
    return 2.0 * d / (1.0 + r), (1.0 + r) / 2.0


def schmidt_spectra(psi: np.ndarray) -> np.ndarray:
    """Schmidt coefficients (ascending) of each 2-qubit amplitude vector of a
    stack, the square roots of the spectrum of its reduced state, read
    from that state's (d, |r|); shape (..., 2)."""
    spectrum = _reduced_spectrum(*reduced_qubits(psi[..., None]))
    return np.sqrt(np.stack(spectrum, axis=-1))


def ppt_spectra(rho: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the partial transpose on the second qubit of
    each 2-qubit density matrix of a stack; shape (..., 4).

    A negative eigenvalue witnesses entanglement; the spectrum is the same
    whichever qubit is transposed. The partial transpose of a Hermitian
    matrix is Hermitian, so it is not checked or symmetrised again: one
    ``eigvalsh``, with no eigenvectors, of finite matrices built from
    checked angles and times.
    """
    return np.linalg.eigvalsh(partial_transposes(rho, 1))


def ppt_eigenvalues_closed(
    alpha0: complex, beta0: complex, t: float
) -> tuple[float, float, float, float]:
    """The four closed-form partial-transpose eigenvalues of the switched
    pair, unsorted.

    For real amplitudes they are +-|beta|^2 sin(t) cos(t) and
    (1 -+ |r|) / 2, with |r| the Bloch length of ``reduced_qubit_closed``.
    """
    _, root = reduced_qubit_closed(alpha0, beta0, t)
    swap = np.float_power(abs(beta0), 2) * np.sin(t) * np.cos(t)
    return -swap, swap, (1 - root) / 2, (1 + root) / 2


def fidelity_closed(alpha0: complex, beta0: complex, t: float) -> float:
    """Closed form of ``switch.switch_fidelities`` for the input |A>|0>|1>:

        | |alpha|^2 + sin(t) |beta|^2 |

    The bracket turns negative where sin(t) < 0; the overlap is its modulus.
    """
    return abs(np.float_power(abs(alpha0), 2) + np.sin(t) * np.float_power(abs(beta0), 2))


def ensemble_concurrences(xi: np.ndarray) -> np.ndarray:
    """Two-qubit concurrence of each ensemble of a stack, shape (..., 4, K),
    K = 1 or 2: the K columns xi decompose the state as rho = xi xi^dagger.

    Uhlmann's form of Wootters' concurrence, sigma_1 - sigma_2 over the
    descending singular values of tau = xi^T (Y x Y) xi, whatever the
    decomposition (Wootters, PRL 80, 2245 (1998); Uhlmann, PRA 62, 032307
    (2000)). Y x Y is antidiagonal (-1, 1, 1, -1), so tau = S + S^T with
    S_jk = x1_j x2_k - x0_j x3_k over the rows x_m of xi: no matrix
    product. With K = 1 the concurrence is |tau|. With K = 2, tau =
    [[a, b], [c, d]], r0 = |a|^2 + |b|^2, r1 = |c|^2 + |d|^2 and
    g = a conj(c) + b conj(d),

        sigma_1 - sigma_2 = sqrt((r0 - r1)^2 + 4 |g|^2) / sqrt(r0 + r1 + 2 |ad - bc|),

    the gap sigma_1^2 - sigma_2^2 of tau tau^dagger over sigma_1 + sigma_2:
    two roots of sums of nonnegative terms, so a small concurrence is read
    as exactly as a large one, with no SVD and no sqrt(r0 + r1 - 2 |ad - bc|),
    which cancels. tau = 0 (a product pair, t = 0) reads 0 and a NaN reads
    NaN. Any other K raises ValueError.
    """
    # xi's rows, then tau's rows and entries, are unpacked from axes moved
    # ahead of the stack's, so that a shape other than (..., 4, 1) or
    # (..., 4, 2) raises instead of being read in part
    x0, x1, x2, x3 = xi.transpose(-2, *range(xi.ndim - 2), -1)
    s = x1[..., :, None] * x2[..., None, :] - x0[..., :, None] * x3[..., None, :]
    tau = s + np.swapaxes(s, -1, -2)
    tau = tau.transpose(-2, -1, *range(tau.ndim - 2))
    if len(tau) == 1:
        ((a,),) = tau
        return np.abs(a)
    (a, b), (c, d) = tau
    r0 = a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag
    r1 = c.real * c.real + c.imag * c.imag + d.real * d.real + d.imag * d.imag
    g = a * np.conj(c) + b * np.conj(d)
    z = r0 - r1
    gap = np.sqrt(z * z + 4.0 * (g.real * g.real + g.imag * g.imag))
    total = np.sqrt(r0 + r1 + 2.0 * np.abs(a * d - b * c))
    # total is 0 only where tau, and so the gap, is: 0 / 1 reads 0
    return gap / np.where(total > 0.0, total, 1.0)


def concurrence_closed(beta0: complex, t: float) -> float:
    """|beta^2 sin(2t)| for the switched pair."""
    return abs(np.float_power(beta0, 2) * np.sin(2 * t))


def reduced_qubit_closed(alpha0: complex, beta0: complex, t: float):
    """Closed-form (d, |r|) of the first data qubit's reduced state of the
    switched pair, clean or under noise on qubit 1, which leaves it as it
    is: d = q q with q = |sin(t) beta| |cos(t) beta|, so that 2 sqrt(d) is
    2q bit for bit where q q does not underflow, and, with x = |alpha|^2
    and y = |beta|^2, |r| = sqrt(x^2 + 2 x y + y^2 cos^2(2t)); nothing
    cancels."""
    x, y = np.float_power(abs(alpha0), 2), np.float_power(abs(beta0), 2)
    q = abs(np.sin(t) * beta0) * abs(np.cos(t) * beta0)
    cos_sq = np.float_power(np.cos(2 * t), 2)
    return q * q, np.sqrt(np.float_power(x, 2) + 2 * x * y + np.float_power(y, 2) * cos_sq)


def noisy_determinant_closed(
    kind: str, p, t: float, alpha0: complex, beta0: complex
) -> float:
    """Closed-form d of the first qubit's reduced state of the switched
    pair with noise of strength ``p``, one value or a (P, 1, 1) column of
    a stack's values, on that qubit: (1 - |r'|^2) / 4, with r' the
    channel's contraction of the qubit's Bloch vector r (Nielsen and
    Chuang, section 8.3). With x = |alpha|^2, s = |sin(t) beta|^2 and
    u = |cos(t) beta|^2, 1 - |r|^2 = 4 s u, and

        PF: u (s + 4p(1-p) x)
        BF: s u + p(1-p) (r_y^2 + r_z^2),
            r_z = x + s - u, r_y = 2 Im(alpha cos(t) conj(beta))
        AD: (1-p) u (s + p u)
        PD: u (s + p x)

    each a sum of nonnegative products, so nothing cancels.
    ``ChannelSpec`` checked the kind and p.
    """
    c = np.cos(t)
    a, sb, cb = abs(alpha0), abs(np.sin(t) * beta0), abs(c * beta0)
    x, s, u = a * a, sb * sb, cb * cb
    if kind == "PF":
        return u * (s + 4.0 * p * (1.0 - p) * x)
    if kind == "BF":
        r_y = 2.0 * np.imag(alpha0 * c * np.conj(beta0))
        r_z = x + s - u
        return s * u + p * (1.0 - p) * (r_y * r_y + r_z * r_z)
    if kind == "AD":
        return (1.0 - p) * u * (s + p * u)
    return u * (s + p * x)  # PD


#: entropy unit -> factor from nats: natural log ("e") or log2 ("2")
LOG_SCALES = {"e": 1.0, "2": 1.0 / math.log(2.0)}


def _log_scale(log_base: str) -> float:
    if log_base not in LOG_SCALES:
        raise ValueError(f"log_base must be 'e' or '2', got {log_base!r}")
    return LOG_SCALES[log_base]


def determinant_entropies(d, r, log_base: str = "e"):
    """-l0 log(l0) - l1 log(l1) over the spectrum (l0, l1) =
    ``_reduced_spectrum(d, r)`` of each unit-trace 2 x 2 state with
    determinant d and Bloch length |r| = r, with 0 log 0 = 0; no
    eigensolve. The large root's log is log1p(-l0), which keeps its term,
    about d, where d is below eps and l1 rounds to 1. Neither term is
    negative, and a NaN d or r gives a NaN entropy.

    ``log_base`` selects nats ("e", the default) or bits ("2"), a key of
    LOG_SCALES, which ``SweepConfig`` and ``verify`` check.
    """
    l0, l1 = _reduced_spectrum(d, r)
    # 0 log 0 = 0 reads 0 log 1; a zero entropy comes out as 0.0, not -0.0
    entropy = -l1 * np.log1p(-l0) - l0 * np.log(np.where(l0 > 0.0, l0, 1.0))
    return entropy * LOG_SCALES[log_base]


def pair_ensembles(
    a_amps: np.ndarray, t, operators: Optional[tuple] = None, qubit: Optional[int] = None
) -> np.ndarray:
    """Run the switch on |A>|0>|1> to time ``t`` for each |A> of a stack of
    amplitude pairs and drop the control: the switched pair psi as a
    one-column ensemble, or its Kraus branches E_k psi under ``operators``,
    a channel's 2 x 2 operators (``channels.make_channel``) or stacks of
    them whose leading axes broadcast against the pairs', acting on data
    qubit ``qubit``, 0 or 1, which is read only with operators; shape
    (..., 4, K). The columns decompose the pair's density matrix,
    sum_k (E_k psi)(E_k psi)^dagger, which is not formed. E_k acts along
    that qubit's axis of psi reshaped to (..., 2, 2): an entry of E_k psi
    is E_a0 psi_0j + E_a1 psi_1j on qubit 0, two products, with no
    ``matmul``.
    """
    psi = switched_pairs(a_amps, t)
    if operators is None:
        return psi[..., None]
    # the pair as (..., noise qubit, other qubit), and each branch back
    x = psi.reshape(psi.shape[:-1] + (2, 2))
    if qubit == 1:
        x = x.swapaxes(-1, -2)
    x0, x1 = x[..., None, 0, :], x[..., None, 1, :]
    branches = [e[..., :, :1] * x0 + e[..., :, 1:] * x1 for e in operators]
    if qubit == 1:
        branches = [y.swapaxes(-1, -2) for y in branches]
    return np.stack([y.reshape(y.shape[:-2] + (4,)) for y in branches], axis=-1)


def ensemble_densities(xi: np.ndarray) -> np.ndarray:
    """xi xi^dagger for each ensemble of a stack, shape (..., d, K): the
    density matrix its columns decompose, shape (..., d, d).

    A sum of elementwise products over the columns, in column order, and
    a density matrix by construction, so it is not checked again. Entries
    (i, j) and (j, i) sum the products x conj(y) and y conj(x), which are
    exact conjugates, so the result is Hermitian bit for bit.
    """
    return np.sum(xi[..., :, None, :] * np.conj(xi)[..., None, :, :], axis=-1)
