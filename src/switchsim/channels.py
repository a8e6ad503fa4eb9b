"""Kraus decoherence channels and average gate fidelity.

Four single-qubit channels are provided, each a trace-preserving pair of
operators parametrized by a probability p:

    PF (phase flip):        E0 = sqrt(p) I,  E1 = sqrt(1-p) Z
    BF (bit flip):          E0 = sqrt(p) I,  E1 = sqrt(1-p) X
    AD (amplitude damping): E0 = diag(1, sqrt(1-p)),  E1 = sqrt(p) |0><1|
    PD (phase damping):     E0 = diag(1, sqrt(1-p)),  E1 = sqrt(p) |1><1|

Note the convention split: PF/BF are noiseless at p = 1, while AD/PD are
noiseless at p = 0. The conventions are kept exactly as stated so the
closed-form comparisons stay literal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .states import DensityMatrix, _frozen
from .switch import IDENTITY_2, PAULI_X, PAULI_Z

CHANNEL_KINDS = ("PF", "BF", "AD", "PD")

#: max deviation of sum E_k^dagger E_k from identity
COMPLETENESS_ATOL = 1e-12


def check_kind(kind: str) -> None:
    if kind not in CHANNEL_KINDS:
        raise ValueError(f"unknown channel kind {kind!r}; expected one of {CHANNEL_KINDS}")


@dataclass(frozen=True)
class KrausChannel:
    """A trace-preserving map rho -> sum_k E_k rho E_k^dagger."""

    kind: str
    p: float
    operators: tuple
    dim: int

    def __post_init__(self):
        ops = tuple(_frozen(linalg.as_matrix(e)) for e in self.operators)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        for e in ops:
            if e.shape != (self.dim, self.dim):
                raise ValueError(
                    f"Kraus operator shape {e.shape} does not match dim {self.dim}"
                )
        total = sum(linalg.dagger(e) @ e for e in ops)
        deviation = float(np.max(np.abs(total - np.eye(self.dim))))
        if deviation > COMPLETENESS_ATOL:
            raise ValueError(
                f"Kraus operators are not trace preserving: "
                f"|sum E^dag E - I| reaches {deviation:.3e}"
            )
        object.__setattr__(self, "operators", ops)


def make_channel(kind: str, p: float) -> KrausChannel:
    """Build one of the four single-qubit channels at probability ``p``."""
    check_kind(kind)
    if not (math.isfinite(p) and 0.0 <= p <= 1.0):
        raise ValueError(f"probability must lie in [0, 1], got {p!r}")
    sp, sq = math.sqrt(p), math.sqrt(1.0 - p)
    if kind == "PF":
        ops = (sp * IDENTITY_2, sq * PAULI_Z)
    elif kind == "BF":
        ops = (sp * IDENTITY_2, sq * PAULI_X)
    elif kind == "AD":
        ops = (
            np.array([[1, 0], [0, sq]], dtype=complex),
            np.array([[0, sp], [0, 0]], dtype=complex),
        )
    else:  # PD
        ops = (
            np.array([[1, 0], [0, sq]], dtype=complex),
            np.array([[0, 0], [0, sp]], dtype=complex),
        )
    return KrausChannel(kind=kind, p=p, operators=ops, dim=2)


def lift(channel: KrausChannel, qubit: int, n_qubits: int) -> KrausChannel:
    """Embed a single-qubit channel at position ``qubit`` of an n-qubit register."""
    if channel.dim != 2:
        raise ValueError(f"only single-qubit channels can be lifted, got dim {channel.dim}")
    if not 0 <= qubit < n_qubits:
        raise ValueError(f"qubit index {qubit} out of range for {n_qubits} qubits")
    lifted = []
    for e in channel.operators:
        op = np.eye(1, dtype=complex)
        for q in range(n_qubits):
            op = np.kron(op, e if q == qubit else np.eye(2, dtype=complex))
        lifted.append(op)
    return KrausChannel(
        kind=channel.kind, p=channel.p, operators=tuple(lifted), dim=2**n_qubits
    )


def apply_channel(rho: DensityMatrix, channel: KrausChannel) -> DensityMatrix:
    """sum_k E_k rho E_k^dagger; preserves trace, Hermiticity and positivity."""
    if rho.dim != channel.dim:
        raise ValueError(
            f"dimension mismatch: state is {rho.dim}-dimensional, "
            f"channel is {channel.dim}-dimensional"
        )
    out = np.zeros_like(rho.matrix)
    for e in channel.operators:
        out = out + e @ rho.matrix @ linalg.dagger(e)
    return DensityMatrix(rho.n_qubits, out)


def average_fidelity_numeric(u_target: np.ndarray, channel: KrausChannel) -> float:
    """Average gate fidelity of a noisy implementation against a target unitary.

    With M_k = U^dagger E_k and n the dimension,

        F_avg = (tr sum_k M_k^dagger M_k + sum_k |tr M_k|^2) / (n (n + 1)).

    For a trace-preserving channel the first term equals n.
    """
    u = linalg.as_matrix(u_target)
    n = u.shape[0]
    if u.shape != (n, n) or n != channel.dim:
        raise ValueError(
            f"dimension mismatch: target is {u.shape}, channel dim is {channel.dim}"
        )
    ud = linalg.dagger(u)
    total = 0.0
    trace_sum = np.zeros((n, n), dtype=complex)
    for e in channel.operators:
        m = ud @ e
        trace_sum = trace_sum + linalg.dagger(m) @ m
        total += abs(np.trace(m)) ** 2
    return float((np.trace(trace_sum).real + total) / (n * (n + 1)))


def average_fidelity_closed(kind: str, p: float, t: float) -> float:
    """Closed-form average fidelity for the switch at time ``t`` with noise of
    strength ``p`` on the first qubit.

    PF and BF give (p (cos t + 3)^2 + 2) / 18; AD and PD carry the
    sqrt(1-p) factors of their damping operators.
    """
    check_kind(kind)
    if not (math.isfinite(p) and 0.0 <= p <= 1.0):
        raise ValueError(f"probability must lie in [0, 1], got {p!r}")
    c3 = math.cos(t) + 3.0
    if kind in ("PF", "BF"):
        return (p * c3**2 + 2.0) / 18.0
    if kind == "AD":
        return (abs((math.sqrt(1.0 - p) + 1.0) * c3) ** 2 + 8.0) / 72.0
    # PD
    return (
        abs((math.sqrt(1.0 - p) + 1.0) * c3) ** 2 + abs(p * c3**2) + 8.0
    ) / 72.0


def average_fidelity_monte_carlo(
    u_target: np.ndarray,
    channel: KrausChannel,
    samples: int = 100_000,
    rng=0,
):
    """Estimate the average fidelity by sampling Haar-random pure inputs.

    Independent of the trace formula: draws |psi> uniformly, pushes it
    through the channel and measures <psi| U^dag K(|psi><psi|) U |psi>.
    ``rng`` is a numpy Generator or anything ``np.random.default_rng``
    accepts. Returns (mean, standard_error).
    """
    u = linalg.as_matrix(u_target)
    n = u.shape[0]
    if n != channel.dim:
        raise ValueError(
            f"dimension mismatch: target is {u.shape}, channel dim is {channel.dim}"
        )
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    psi = g / np.linalg.norm(g, axis=1, keepdims=True)
    phi = psi @ u.T  # rows are U|psi>
    f = np.zeros(samples)
    for e in channel.operators:
        amp = np.einsum("si,si->s", np.conj(phi), psi @ e.T)
        f += np.abs(amp) ** 2
    mean = float(np.mean(f))
    stderr = float(np.std(f, ddof=1) / math.sqrt(samples))
    return mean, stderr
