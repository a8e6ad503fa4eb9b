"""Entanglement and entropy diagnostics for two-qubit states.

Every measure comes in two flavours: a numeric pipeline working on the
state itself, and a closed-form expression in the amplitudes (alpha, beta)
of the first data qubit and the switch time t. The two are cross-checked
against each other throughout the test suite; the closed forms are written
out verbatim rather than simplified so the comparison stays literal.

Closed forms involving nested square roots are validated on real
amplitudes only; complex inputs should use the numeric routes.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import linalg
from .channels import KrausChannel, apply_channel, check_kind, lift
from .states import DensityMatrix, PureState, partial_trace, partial_transpose, to_density
from .switch import PAULI_Y

#: spectral weight below this is eigensolver noise; treating it as exactly
#: zero keeps sqrt-based measures exact at separable points instead of
#: inflating them to ~sqrt(machine eps)
SPECTRAL_NOISE_FLOOR = 1e-13


class SchmidtPair(NamedTuple):
    """The two Schmidt coefficients of a 2-qubit pure state, ascending;
    lambda0^2 + lambda1^2 = 1 and lambda0 > 0 signals entanglement."""

    lambda0: float
    lambda1: float


def _floored(values: np.ndarray) -> np.ndarray:
    return np.where(values < SPECTRAL_NOISE_FLOOR, 0.0, values)


def _sqrt_floored(value: float) -> float:
    # square roots amplify rounding residue near zero to ~1e-8; both the
    # numeric and closed routes must zero it for their comparison to hold
    return 0.0 if value < SPECTRAL_NOISE_FLOOR else math.sqrt(value)


def schmidt_coefficients(psi: PureState) -> SchmidtPair:
    """Schmidt coefficients as square roots of the reduced-state spectrum."""
    if psi.n_qubits != 2:
        raise ValueError(f"Schmidt coefficients need a 2-qubit state, got {psi.n_qubits}")
    reduced = partial_trace(to_density(psi), {1})
    w = linalg.hermitian_eigensystem(reduced.matrix).eigenvalues
    lam = np.sqrt(_floored(w))
    return SchmidtPair(float(lam[0]), float(lam[1]))


def schmidt_closed(beta0: complex, t: float) -> SchmidtPair:
    """Closed-form Schmidt pair of the switched |A>|0> pair at time ``t``:

        lambda_{0,1} = sqrt(1 -+ sqrt(1 - |beta|^4 sin^2(2t))) / sqrt(2)
    """
    if abs(beta0) > 1 + 1e-12:
        raise ValueError(f"|beta0| must be <= 1, got {abs(beta0)!r}")
    inner = math.sqrt(max(0.0, 1.0 - abs(beta0) ** 4 * math.sin(2 * t) ** 2))
    lam0 = math.sqrt(max(0.0, 1.0 - inner)) / math.sqrt(2.0)
    lam1 = math.sqrt(1.0 + inner) / math.sqrt(2.0)
    return SchmidtPair(lam0, lam1)


def ppt_spectrum(rho: DensityMatrix) -> np.ndarray:
    """Ascending eigenvalues of the partial transpose on the second qubit.

    A negative eigenvalue witnesses entanglement; the spectrum is the same
    whichever qubit is transposed.
    """
    return linalg.hermitian_eigensystem(partial_transpose(rho, 1)).eigenvalues


def ppt_closed(alpha0: complex, beta0: complex, t: float) -> np.ndarray:
    """Closed-form partial-transpose spectrum of the switched pair (ascending).

    For real amplitudes the four eigenvalues are +-|beta|^2 sin(t) cos(t)
    and (1 -+ sqrt(|alpha|^4 + 2|alpha beta|^2 + |beta|^4 cos^2(2t))) / 2.
    """
    norm_sq = abs(alpha0) ** 2 + abs(beta0) ** 2
    if abs(norm_sq - 1.0) > 1e-10:
        raise ValueError(f"amplitudes are not normalized: |a|^2+|b|^2 = {norm_sq!r}")
    x, y = abs(alpha0) ** 2, abs(beta0) ** 2
    swap = y * math.sin(t) * math.cos(t)
    root = math.sqrt(x**2 + 2 * x * y + y**2 * math.cos(2 * t) ** 2)
    return np.sort(np.array([-swap, swap, (1 - root) / 2, (1 + root) / 2]))


def fidelity_closed(alpha0: complex, beta0: complex, t: float) -> float:
    """Closed form of switch_fidelity for the input |A>|0>|1>:

        | |alpha|^2 + sin(t) |beta|^2 |

    The bracket turns negative where sin(t) < 0; the overlap is its modulus.
    """
    return abs(abs(alpha0) ** 2 + math.sin(t) * abs(beta0) ** 2)


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence max(0, l1 - l2 - l3 - l4).

    The l_i are the descending eigenvalues of sqrt(sqrt(rho) rho~ sqrt(rho))
    with the spin-flipped state rho~ = (Y x Y) conj(rho) (Y x Y), obtained
    here as square roots of the sandwiched product's spectrum (floored at
    the noise level, see SPECTRAL_NOISE_FLOOR).
    """
    if rho.n_qubits != 2:
        raise ValueError(f"concurrence needs a 2-qubit state, got {rho.n_qubits}")
    yy = np.kron(PAULI_Y, PAULI_Y)
    rho_tilde = yy @ np.conj(rho.matrix) @ yy
    root = linalg.psd_sqrt(rho.matrix)
    sandwiched = root @ rho_tilde @ root
    w = linalg.hermitian_eigensystem(sandwiched).eigenvalues
    lam = np.sqrt(_floored(w))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def concurrence_closed(beta0: complex, t: float) -> float:
    """|beta^2 sin(2t)| for the switched pair."""
    if abs(beta0) > 1 + 1e-12:
        raise ValueError(f"|beta0| must be <= 1, got {abs(beta0)!r}")
    return abs(beta0**2 * math.sin(2 * t))


def iconcurrence(rho: DensityMatrix, traced_side: str = "B") -> float:
    """sqrt(2 (1 - purity)) of the state left after tracing out one side.

    Equals the concurrence on pure 2-qubit states. On mixed states it is
    applied exactly as defined (purity of the reduced state), which is what
    the noisy closed forms reproduce.
    """
    if rho.n_qubits != 2:
        raise ValueError(f"I-concurrence needs a 2-qubit state, got {rho.n_qubits}")
    if traced_side not in ("A", "B"):
        raise ValueError(f"traced_side must be 'A' or 'B', got {traced_side!r}")
    reduced = partial_trace(rho, {0} if traced_side == "A" else {1})
    purity = float(np.trace(reduced.matrix @ reduced.matrix).real)
    return _sqrt_floored(2.0 * (1.0 - purity))


def iconcurrence_closed(alpha0: complex, beta0: complex, t: float) -> float:
    """Noiseless closed form for the switched pair:

        sqrt(2) sqrt(1 - (|a|^2 + |sin(t) b|^2)^2
                       - 2 |cos(t) a b|^2 - |cos(t) b|^4)
    """
    x = abs(alpha0) ** 2
    sb = abs(math.sin(t) * beta0) ** 2
    cab = abs(math.cos(t) * alpha0 * beta0) ** 2
    cb = abs(math.cos(t) * beta0) ** 2
    inner = -((x + sb) ** 2) - 2 * cab - cb**2 + 1.0
    return _sqrt_floored(2.0 * inner)


def iconcurrence_noisy_closed(
    kind: str, p: float, t: float, alpha0: complex, beta0: complex
) -> float:
    """Closed-form I-concurrence of the switched pair with noise of strength
    ``p`` on the first qubit, one expression per channel kind."""
    check_kind(kind)
    if not (math.isfinite(p) and 0.0 <= p <= 1.0):
        raise ValueError(f"probability must lie in [0, 1], got {p!r}")
    a, b = complex(alpha0), complex(beta0)
    x = abs(a) ** 2
    sb = abs(math.sin(t) * b) ** 2
    cb = abs(math.cos(t) * b) ** 2
    if kind == "PF":
        inner = (
            2.0
            - 4.0 * (1.0 - 2.0 * p) ** 2 * x * cb
            - 2.0 * (x + sb) ** 2
            - 2.0 * cb**2
        )
    elif kind == "BF":
        c = math.cos(t)
        f1 = a * p * np.conj(c * b) - b * (p - 1.0) * np.conj(a) * c
        f2 = b * p * np.conj(a) * c - a * (p - 1.0) * np.conj(c * b)
        cross = f1 * f2
        inner = (
            2.0
            - 2.0 * (p * cb - (p - 1.0) * (x + sb)) ** 2
            - 2.0 * ((p - 1.0) * cb - p * (x + sb)) ** 2
            - 4.0 * cross.real
        )
    elif kind == "AD":
        inner = (
            2.0
            + 4.0 * (p - 1.0) * x * cb
            - 2.0 * (x + p * cb + sb) ** 2
            - 2.0 * (p - 1.0) ** 2 * cb**2
        )
    else:  # PD
        inner = 2.0 + 4.0 * (p - 1.0) * x * cb - 2.0 * (x + sb) ** 2 - 2.0 * cb**2
    return _sqrt_floored(inner)


def von_neumann_entropy(rho: DensityMatrix, log_base: str = "e") -> float:
    """-sum l log(l) over the spectrum, with 0 log 0 = 0.

    ``log_base`` selects nats ("e", the default) or bits ("2").
    """
    scale = _log_scale(log_base)
    w = linalg.hermitian_eigensystem(rho.matrix).eigenvalues
    w = np.clip(w, 0.0, None)
    positive = w[w > 0]
    # an eigenvalue rounding to 1+eps would otherwise leave -eps behind
    return max(0.0, float(-np.sum(positive * np.log(positive)) * scale))


def _log_scale(log_base: str) -> float:
    if log_base in ("e", "nat"):
        return 1.0
    if log_base in ("2", 2):
        return 1.0 / math.log(2.0)
    raise ValueError(f"log_base must be 'e' or '2', got {log_base!r}")


def reduced_entropy_closed(
    alpha0: complex, beta0: complex, t: float, log_base: str = "e"
) -> float:
    """Entropy of the first data qubit of the switched pair via the
    closed-form eigenvalue pair

        (1 -+ sqrt(2|a b|^2 + |a|^4 + |b|^4 cos^2(2t))) / 2.
    """
    scale = _log_scale(log_base)
    total = 0.0
    for lam in reduced_eigenvalues_closed(alpha0, beta0, t):
        if lam > 0.0:
            total -= lam * math.log(lam)
    return total * scale


def reduced_eigenvalues_closed(alpha0: complex, beta0: complex, t: float):
    """The closed-form eigenvalue pair behind reduced_entropy_closed, ascending."""
    x, y = abs(alpha0) ** 2, abs(beta0) ** 2
    root = math.sqrt(min(1.0, 2 * x * y + x**2 + y**2 * math.cos(2 * t) ** 2))
    return (1.0 - root) / 2.0, (1.0 + root) / 2.0


def entropy_symmetry_check(rho_ab: DensityMatrix, log_base: str = "e"):
    """(S(rho_A), S(rho_B)) for a pure joint state; the pair is equal.

    Mixed input is rejected: the identity only holds for pure joint states.
    """
    if rho_ab.n_qubits != 2:
        raise ValueError(f"needs a 2-qubit state, got {rho_ab.n_qubits}")
    purity = float(np.trace(rho_ab.matrix @ rho_ab.matrix).real)
    if abs(purity - 1.0) > 1e-10:
        raise ValueError(f"joint state is not pure: purity = {purity!r}")
    s_a = von_neumann_entropy(partial_trace(rho_ab, {1}), log_base)
    s_b = von_neumann_entropy(partial_trace(rho_ab, {0}), log_base)
    return s_a, s_b


def noisy_pair_density(
    a_state: PureState, t: float, channel: KrausChannel, qubit: int = 0
) -> DensityMatrix:
    """Run the switch on |A>|0>|1> to time ``t``, drop the control, then
    apply a single-qubit channel to one of the data qubits."""
    from .switch import switched_pair  # local to avoid cycle

    pair = switched_pair(a_state, t)
    return apply_channel(to_density(pair), lift(channel, qubit, 2))

