"""The stacked pipeline: its checks look at every point of a stack, and a
sweep evaluated in blocks gives the values of the same stacked functions
called on one point at a time, with (a, t) paired correctly across block
boundaries."""

import math

import numpy as np
import pytest
import reference
from reference import (
    DENSITY_ATOL,
    KET_0,
    KET_1,
    NORM_ATOL,
    PSD_EIGENVALUE_FLOOR,
    kron_vectors,
    normalized,
)

from switchsim import channels as ch
from switchsim import entanglement as ent
from switchsim import switch
from switchsim.sweep import BLOCK_POINTS, MEASURES, ChannelSpec, SweepConfig, diff_sweep, run_sweep

#: the corrupted point: neither the first nor the last of its stack
BAD = 3


def _pairs(n=7):
    """n valid switched pairs as a stack of amplitude vectors, shape (n, 4)."""
    a = np.linspace(0.1, 1.4, n)
    t = np.linspace(0.2, 1.3, n)
    return switch.switched_pairs(switch.angle_qubits(a), t)


def _raises_like(stacked_call, scalar_call):
    """Both calls, on a stack and on its failing point alone, raise
    ValueError, with the same message."""
    with pytest.raises(ValueError) as stacked:
        stacked_call()
    with pytest.raises(ValueError) as scalar:
        scalar_call()
    assert str(stacked.value) == str(scalar.value)


@pytest.mark.parametrize("off, fails", [(2.0, True), (0.5, False)])
def test_norm_check_covers_every_vector(off, fails):
    amps = _pairs().copy()
    amps[BAD] *= math.sqrt(1.0 + off * NORM_ATOL)
    if fails:
        _raises_like(lambda: normalized(amps), lambda: normalized(amps[BAD]))
    else:
        assert np.allclose(normalized(amps), _pairs(), atol=1e-15)


def test_finiteness_check_covers_every_vector():
    amps = _pairs().copy()
    amps[BAD, 1] = np.nan
    _raises_like(lambda: normalized(amps), lambda: normalized(amps[BAD]))


def _densities():
    return reference.densities(_pairs())


@pytest.mark.parametrize("off, fails", [(2.0, True), (0.5, False)])
def test_hermiticity_check_covers_every_matrix(off, fails):
    rho = _densities().copy()
    rho[BAD, 0, 1] += off * DENSITY_ATOL
    if fails:
        _raises_like(lambda: reference.checked_density(rho),
                     lambda: reference.checked_density(rho[BAD]))
        with pytest.raises(ValueError, match="Hermitian"):
            reference.eigh(rho)
    else:
        reference.checked_density(rho)


@pytest.mark.parametrize("off, fails", [(2.0, True), (0.5, False)])
def test_trace_check_covers_every_matrix(off, fails):
    rho = _densities().copy()
    rho[BAD] *= 1.0 + off * DENSITY_ATOL
    if fails:
        _raises_like(lambda: reference.checked_density(rho),
                     lambda: reference.checked_density(rho[BAD]))
    else:
        reference.checked_density(rho)


@pytest.mark.parametrize("off, fails", [(2.0, True), (0.5, False)])
def test_min_eigenvalue_check_covers_every_matrix(off, fails):
    rho = _densities().copy()
    low = off * PSD_EIGENVALUE_FLOOR
    rho[BAD] = np.diag([0.6 - low, 0.4, 0.0, low])
    if fails:
        _raises_like(lambda: reference.checked_density(rho),
                     lambda: reference.checked_density(rho[BAD]))
    else:
        reference.checked_density(rho)


# ------------------------------------------------------------ gate blocks

#: each end of [0, 1], the least subnormal, a tiny normal, the middle and
#: the last double below 1
EDGE_P = (0.0, 5e-324, 1e-300, 0.5, 1 - 1e-16, 1.0)
GATE_TIMES = np.linspace(-10.0, 10.0, 41)


@pytest.mark.parametrize("qubit", (0, 1))
@pytest.mark.parametrize("kind", ch.CHANNEL_KINDS)
def test_a_gate_block_has_the_bits_of_its_single_points(kind, qubit):
    """(P, 1, 2, 2) rows of a p stack against (N, 8, 8) unitaries, as
    the gate route evaluates a block, give at every (p, t) the bits of the
    call on that one channel and that one unitary."""
    operators = ch.make_channel(kind, EDGE_P)
    block = ch.average_fidelities(switch.switch_unitaries(GATE_TIMES),
                                  tuple(e[:, None] for e in operators), qubit)
    assert block.shape == (len(EDGE_P), len(GATE_TIMES))
    for i, p in enumerate(EDGE_P):
        single = ch.make_channel(kind, p)
        for j, t in enumerate(GATE_TIMES.tolist()):
            value = ch.average_fidelities(switch.switch_unitaries(t), single, qubit)
            assert np.float64(value).tobytes() == block[i, j].tobytes(), (p, t)


# ------------------------------------------------------ pair blocks

PAIR_ANGLES = np.linspace(-math.pi, math.pi, 41)
PAIR_TIMES = np.linspace(-math.pi, 2 * math.pi, 41)


@pytest.mark.parametrize("qubit", (0, 1))
@pytest.mark.parametrize("kind", ch.CHANNEL_KINDS)
def test_a_concurrence_block_has_the_bits_of_its_single_points(kind, qubit):
    """The two-branch ensembles of a p stack against 41 pairs, a
    (P, N, 4, 2) block, give at every (p, point) the bits of the
    concurrence of that one ensemble."""
    operators = ch.make_channel(kind, EDGE_P)
    xi = ent.pair_ensembles(switch.angle_qubits(PAIR_ANGLES), PAIR_TIMES,
                            tuple(e[:, None] for e in operators), qubit)
    assert xi.shape == (len(EDGE_P), len(PAIR_TIMES), 4, 2)
    block = ent.ensemble_concurrences(xi)
    for i, j in np.ndindex(block.shape):
        value = ent.ensemble_concurrences(xi[i, j])
        assert np.float64(value).tobytes() == block[i, j].tobytes(), (EDGE_P[i], j)


# ------------------------------------------------------- block boundaries

#: 707 points: more than one block, and the last block is not full
A_STEPS, T_STEPS = 7, 101
#: points checked one at a time: both sides of every block boundary, a
#: stride through the grid and the last point
N_POINTS = A_STEPS * T_STEPS
SAMPLE = sorted(
    {i for b in range(BLOCK_POINTS, N_POINTS, BLOCK_POINTS) for i in range(b - 2, b + 2)}
    | set(range(0, N_POINTS, 37))
    | {N_POINTS - 1}
)
assert SAMPLE[-1] == N_POINTS - 1 and N_POINTS % BLOCK_POINTS
P = 0.37


def _scalar_numeric(name, a, t, spec):
    """One point through the stacked functions on a stack with no leading
    axes, and the density-matrix references."""
    channel = None if spec is None else ch.make_channel(spec.kind, spec.p)
    if name == "avg_fidelity":
        return float(ch.average_fidelities(switch.switch_unitaries(t), channel, spec.qubit))
    if name == "fidelity":
        reg = normalized(kron_vectors(switch.angle_qubits(a), KET_0, KET_1))
        return float(switch.switch_fidelities(reg, t))
    pair = switch.switched_pairs(switch.angle_qubits(a), t)
    if name == "schmidt":
        return float(ent.schmidt_spectra(pair)[0])
    rho = reference.densities(pair)
    if spec is not None:
        rho = reference.apply_kraus(rho, reference.lifted_operators(channel, spec.qubit, 2))
    if name == "ppt":
        return float(ent.ppt_spectra(rho)[0])
    if name == "concurrence":
        return float(reference.concurrences(rho))
    if name == "iconcurrence":
        return float(reference.iconcurrences(rho, "B"))
    assert name == "entropy"
    return float(reference.entropies(reference.partial_traces(rho, 2, {1})))


def _specs(m):
    """None for a clean run, then every channel on noise qubits 0 and 1."""
    noisy = [ChannelSpec(kind, P, qubit) for kind in ch.CHANNEL_KINDS for qubit in (0, 1)]
    if m.gate:
        return noisy
    return [None] + (noisy if m.mixed else [])


CASES = [(name, spec) for name, m in MEASURES.items() for spec in _specs(m)]


def _label(spec):
    return "clean" if spec is None else f"{spec.kind}_q{spec.qubit}"


@pytest.mark.parametrize(
    "name, spec", CASES, ids=[f"{n}-{_label(s)}" for n, s in CASES]
)
def test_blocked_sweep_matches_the_single_state_api(name, spec):
    config = SweepConfig(name, a_steps=A_STEPS, t_steps=T_STEPS, channel=spec)
    record = run_sweep(config)
    assert len(record.value) == N_POINTS
    a, t, value = (c.tolist() for c in (record.a, record.t, record.value))
    for i in SAMPLE:
        assert value[i] == pytest.approx(
            _scalar_numeric(name, a[i], t[i], spec), abs=1e-12
        ), (i, a[i], t[i])
    if spec is not None and MEASURES[name].mixed:
        diffs = diff_sweep(config).value.tolist()
        for i in SAMPLE:
            expected = abs(
                _scalar_numeric(name, a[i], t[i], spec) - _scalar_numeric(name, a[i], t[i], None)
            )
            assert diffs[i] == pytest.approx(expected, abs=1e-12), (i, a[i], t[i])
