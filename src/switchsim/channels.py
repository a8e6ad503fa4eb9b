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

A channel is the tuple of its Kraus operators, read-only 2 x 2 arrays,
or (P, 2, 2) stacks, one matrix per value of p, each with the bits of
the channel at that p alone. ``make_channel`` builds them, complete and
finite, from a kind and p that a ``ChannelSpec`` has checked (see
``sweep``). Every kernel applies them along the axis of the qubit they
act on, and none embeds them into a register: a sweep reads the Kraus
branches E_k psi of the evolved pair (``entanglement.pair_ensembles``),
and ``average_fidelities`` reads each target unitary's overlap from its
2 x 2 partial trace, with no matrix product. A sweep's routes slice rows
of p from the stacks to broadcast against a stack of points, so that
they evaluate (p, point) blocks with each point's state built once.
"""

from __future__ import annotations

import numpy as np

from .switch import IDENTITY_2, PAULI_X, PAULI_Z

CHANNEL_KINDS = ("PF", "BF", "AD", "PD")


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


def _matrices(lead: tuple, *entries) -> np.ndarray:
    """A (*lead, 2, 2) stack, zero but at the (row, column, value) entries."""
    e = np.zeros(lead + (2, 2), dtype=complex)
    for row, column, value in entries:
        e[..., row, column] = value
    return e


def make_channel(kind: str, p) -> tuple:
    """The Kraus operators of one of the four single-qubit channels at
    probability ``p``, one value or a sequence of P values: a tuple of
    read-only 2 x 2 arrays, or of (P, 2, 2) stacks, one matrix per value
    of p. ``ChannelSpec`` checks the kind and p (``check_channel``), and
    every kind at every p in [0, 1] gives complete, finite operators, so
    nothing is checked here."""
    lead = np.shape(p)
    sp, sq = np.sqrt(p), np.sqrt(np.subtract(1.0, p))
    if kind in ("PF", "BF"):
        flip = PAULI_Z if kind == "PF" else PAULI_X
        ops = (sp[..., None, None] * IDENTITY_2, sq[..., None, None] * flip)
    elif kind == "AD":
        ops = (_matrices(lead, (0, 0, 1.0), (1, 1, sq)), _matrices(lead, (0, 1, sp)))
    else:  # PD
        ops = (_matrices(lead, (0, 0, 1.0), (1, 1, sq)), _matrices(lead, (1, 1, sp)))
    for e in ops:
        e.setflags(write=False)
    return ops


def average_fidelities(u: np.ndarray, operators: tuple, qubit: int) -> np.ndarray:
    """Average gate fidelity of a noisy implementation, the 2 x 2 Kraus
    ``operators`` of a channel on qubit ``qubit`` of the register, against
    each n x n target unitary of a stack; the leading axes of a channel
    stack broadcast against the targets'.

    With M_k = U^dagger (E_k on qubit q) (Nielsen, Phys. Lett. A 303, 249
    (2002)),

        F_avg = (sum_k tr M_k^dagger M_k + sum_k |tr M_k|^2) / (n (n + 1)).

    Both terms are read entrywise, with no matrix product. The overlap
    tr M_k = sum_ab W_ab (E_k)_ab, where W is the 2 x 2 partial trace of
    conj(U) over the other qubits, one per target, shared by every
    operator. The norm tr M_k^dagger M_k = (n / 2) ||E_k||_F^2, since a
    unitary U keeps the Frobenius norm, so the norm term is read from the
    operators alone and does not depend on U. It equals n only for a
    trace-preserving channel, which is not assumed. Each sum reads one
    matrix's own entries, and |tr M_k| is squared by ``np.square`` (a
    numpy float's ``** 2`` can round apart from an array's), so a stacked
    call gives each entry the bits of the single-point call. The gate
    route passes unitaries of checked times and a checked noise qubit, so
    neither is checked here.
    """
    n = u.shape[-1]
    # the basis indices with the qubit's bit 0 and with it 1, each in the
    # same order of the other qubits' bits: W_ab sums U over the pairs of
    # indices (row, column) = (index[a, j], index[b, j])
    index = np.arange(n).reshape(2**qubit, 2, -1).swapaxes(0, 1).reshape(2, -1)
    terms = u[..., index[:, None, :], index[None, :, :]]
    # added in index order, term by term: np.sum would order a stack's
    # additions apart from one point's, which lie differently in memory
    w = terms[..., 0]
    for j in range(1, n // 2):
        w = w + terms[..., j]
    w = np.conj(w)
    norm = overlap = 0.0
    for e in operators:
        norm = norm + (n / 2) * np.sum(np.square(np.abs(e)), axis=(-2, -1))
        overlap = overlap + np.square(np.abs(np.sum(w * e, axis=(-2, -1))))
    return (norm + overlap) / (n * (n + 1))


def average_fidelity_closed(kind: str, p, t: float) -> float:
    """Closed-form average fidelity for the switch at time ``t`` with noise of
    strength ``p`` on the first qubit.

    PF and BF give (p (cos t + 3)^2 + 2) / 18; AD and PD carry the
    sqrt(1-p) factors of their damping operators. ``t`` may be an array
    and ``p`` a (P, 1, 1) column of a stack's values, which broadcast;
    each entry has the bits of the single-point call; squares are taken as
    in ``entanglement``. ``ChannelSpec`` checked the kind and p.
    """
    c3 = np.cos(t) + 3.0
    if kind in ("PF", "BF"):
        return (p * np.float_power(c3, 2) + 2.0) / 18.0
    if kind == "AD":
        return (np.float_power(abs((np.sqrt(1.0 - p) + 1.0) * c3), 2) + 8.0) / 72.0
    # PD
    damped = np.float_power(abs((np.sqrt(1.0 - p) + 1.0) * c3), 2)
    return (damped + abs(p * np.float_power(c3, 2)) + 8.0) / 72.0
