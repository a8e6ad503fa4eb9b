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

``average_fidelities`` works on a stack of target unitaries; one unitary
is the stack with no leading axes. A sweep applies no channel to a
density matrix: it reads the Kraus branches E_k psi of the evolved pair
(``entanglement.pair_ensembles``). A ``KrausChannel`` checks its
completeness when it is built, and ``make_channel`` is the package's one
way to build one. ``lift`` embeds a channel into a register and returns
the lifted operators alone, a tuple of read-only arrays, not checked
again, since they are complete whenever the channel's are; the kernels
and ``average_fidelities`` take that tuple.

p stacks: ``make_channel`` given a tuple of P values builds the P channels
of one kind as a single ``KrausChannel`` whose operators are (P, 2, 2)
stacks, checked once over the whole stack, each matrix with the bits of
the channel at that p alone. ``lift`` lifts the stack in one go; a
sweep's routes slice rows of p from the lifted stacks to broadcast
against a stack of points, so that they evaluate (p, point) blocks with
each point's state built once (see ``sweep``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .states import _frozen
from .switch import IDENTITY_2, PAULI_X, PAULI_Z

CHANNEL_KINDS = ("PF", "BF", "AD", "PD")

#: max deviation of sum E_k^dagger E_k from identity
COMPLETENESS_ATOL = 1e-12


def check_channel(kind: str, p) -> None:
    """Reject an unknown channel kind, then a probability outside [0, 1]:
    ``p`` is one value or an array of them, of any shape, read in one
    pass, and the message names the first that is NaN, infinite or
    outside [0, 1]."""
    if kind not in CHANNEL_KINDS:
        raise ValueError(f"unknown channel kind {kind!r}; expected one of {CHANNEL_KINDS}")
    for value in np.ravel(p).tolist():
        if not 0.0 <= value <= 1.0:  # NaN fails both comparisons
            raise ValueError(f"probability must lie in [0, 1], got {value!r}")


def p_shape(p) -> tuple:
    """The shape of ``p``, one value or a stack of at least one: () or
    (P,); any other shape is rejected."""
    lead = np.shape(p)
    if len(lead) > 1 or lead == (0,):
        raise ValueError(f"p must be one value or a stack of at least one, got shape {lead}")
    return lead


@dataclass(frozen=True)
class KrausChannel:
    """A trace-preserving map rho -> sum_k E_k rho E_k^dagger, or a stack
    of them: with ``p`` a tuple of P values, each operator is a (P, dim,
    dim) stack, one matrix per value of p, and completeness is checked over
    the whole stack at once. A sequence p is stored as a tuple of floats,
    immutable once checked and hashable, as one float is; the channel
    itself is not hashable, since its operators are arrays."""

    kind: str
    p: float
    operators: tuple
    dim: int

    def __post_init__(self):
        check_channel(self.kind, self.p)
        lead = p_shape(self.p)
        if lead:
            object.__setattr__(self, "p", tuple(np.asarray(self.p, dtype=float).tolist()))
        ops = tuple(_frozen(e) for e in self.operators)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        for e in ops:
            if e.shape != lead + (self.dim, self.dim):
                raise ValueError(
                    f"Kraus operator shape {e.shape} does not match dim {self.dim}"
                    + (f" and {lead[0]} values of p" if lead else "")
                )
            linalg.require_finite(e, "matrix entries")
        total = sum(linalg.dagger(e) @ e for e in ops)
        deviation = float(np.max(np.abs(total - np.eye(self.dim))))
        if deviation > COMPLETENESS_ATOL:
            raise ValueError(
                f"Kraus operators are not trace preserving: "
                f"|sum E^dag E - I| reaches {deviation:.3e}"
            )
        object.__setattr__(self, "operators", ops)


def _matrices(lead: tuple, *entries) -> np.ndarray:
    """A (*lead, 2, 2) stack, zero but at the (row, column, value) entries."""
    e = np.zeros(lead + (2, 2), dtype=complex)
    for row, column, value in entries:
        e[..., row, column] = value
    return e


def make_channel(kind: str, p) -> KrausChannel:
    """Build one of the four single-qubit channels at probability ``p``, one
    value or a stack of them (see KrausChannel)."""
    check_channel(kind, p)
    lead = np.shape(p)
    sp, sq = np.sqrt(p), np.sqrt(np.subtract(1.0, p))
    if kind in ("PF", "BF"):
        flip = PAULI_Z if kind == "PF" else PAULI_X
        ops = (sp[..., None, None] * IDENTITY_2, sq[..., None, None] * flip)
    elif kind == "AD":
        ops = (_matrices(lead, (0, 0, 1.0), (1, 1, sq)), _matrices(lead, (0, 1, sp)))
    else:  # PD
        ops = (_matrices(lead, (0, 0, 1.0), (1, 1, sq)), _matrices(lead, (1, 1, sp)))
    return KrausChannel(kind=kind, p=p, operators=ops, dim=2)


def lift(channel: KrausChannel, qubit: int, n_qubits: int) -> tuple:
    """The operators of a single-qubit channel, or of each channel of a
    stack, embedded at position ``qubit`` of an n-qubit register: a tuple
    of read-only (..., 2^n, 2^n) arrays, with the channel's leading axes.
    ``make_channel`` builds single-qubit channels, and a checked
    ``ChannelSpec`` names the qubit, so neither is checked here."""
    left, right = 2**qubit, 2 ** (n_qubits - 1 - qubit)
    lifted = []
    for e in channel.operators:
        # np.kron prepends unit axes to the identity: each matrix of a stack
        # is lifted as it would be alone
        if right > 1:
            e = np.kron(e, np.eye(right, dtype=complex))
        if left > 1:
            e = np.kron(np.eye(left, dtype=complex), e)
        # (sum E^dag E) x I = I: complete by construction, so not checked again
        e.setflags(write=False)
        lifted.append(e)
    return tuple(lifted)


def average_fidelities(u: np.ndarray, operators: tuple) -> np.ndarray:
    """Average gate fidelity of a noisy implementation, the Kraus
    ``operators`` of a channel (``lift``), against each target unitary of
    a stack; the leading axes of a channel stack broadcast against the
    targets'.

    With M_k = U^dagger E_k and n the dimension,

        F_avg = (tr sum_k M_k^dagger M_k + sum_k |tr M_k|^2) / (n (n + 1)).

    For a trace-preserving channel the first term equals n. The gate
    route passes unitaries of checked times and a channel lifted onto
    their three qubits, so neither is checked here.
    """
    n = u.shape[-1]
    ud = linalg.dagger(u)
    gram = np.zeros(np.broadcast_shapes(u.shape, *(e.shape for e in operators)), dtype=complex)
    overlap = 0.0
    # one operator at a time, accumulating in place: the stacks held stay
    # a few, whatever the number of operators
    for e in operators:
        m = ud @ e
        gram += linalg.dagger(m) @ m
        overlap = overlap + np.abs(np.trace(m, axis1=-2, axis2=-1)) ** 2
        del m
    return (np.trace(gram, axis1=-2, axis2=-1).real + overlap) / (n * (n + 1))


def average_fidelity_closed(kind: str, p, t: float) -> float:
    """Closed-form average fidelity for the switch at time ``t`` with noise of
    strength ``p`` on the first qubit.

    PF and BF give (p (cos t + 3)^2 + 2) / 18; AD and PD carry the
    sqrt(1-p) factors of their damping operators. ``t`` may be an array
    and ``p`` a (P, 1, 1) column of a stack's values, which broadcast;
    each entry has the bits of the single-point call; squares are taken as
    in ``entanglement``.
    """
    check_channel(kind, p)
    c3 = np.cos(t) + 3.0
    if kind in ("PF", "BF"):
        return (p * np.float_power(c3, 2) + 2.0) / 18.0
    if kind == "AD":
        return (np.float_power(abs((np.sqrt(1.0 - p) + 1.0) * c3), 2) + 8.0) / 72.0
    # PD
    damped = np.float_power(abs((np.sqrt(1.0 - p) + 1.0) * c3), 2)
    return (damped + abs(p * np.float_power(c3, 2)) + 8.0) / 72.0
