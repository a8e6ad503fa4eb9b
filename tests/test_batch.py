"""The stacked pipeline: its checks look at every point of a stack, and a
sweep evaluated in blocks gives the per-point values of the single-state
API, with (a, t) paired correctly across block boundaries."""

import math

import numpy as np
import pytest

from switchsim import channels as ch
from switchsim import entanglement as ent
from switchsim import linalg, states, switch
from switchsim.states import (
    DENSITY_ATOL,
    NORM_ATOL,
    DensityMatrix,
    PureState,
    make_qubit,
    partial_trace,
    qubit_from_angle,
    tensor,
    to_density,
)
from switchsim.sweep import BLOCK_POINTS, MEASURES, ChannelSpec, SweepConfig, diff_sweep, run_sweep

#: the corrupted point: neither the first nor the last of its stack
BAD = 3


def _pairs(n=7):
    """n valid switched pairs as a stack of amplitude vectors, shape (n, 4)."""
    a = np.linspace(0.1, 1.4, n)
    t = np.linspace(0.2, 1.3, n)
    return switch.switched_pairs(states.angle_qubits(a), t)


def _raises_like(stacked_call, scalar_call):
    """Both calls raise ValueError, with the same message."""
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
        _raises_like(lambda: states.normalized(amps), lambda: PureState(2, amps[BAD]))
    else:
        assert np.allclose(states.normalized(amps), _pairs(), atol=1e-15)


def test_finiteness_check_covers_every_vector():
    amps = _pairs().copy()
    amps[BAD, 1] = np.nan
    _raises_like(lambda: states.normalized(amps), lambda: PureState(2, amps[BAD]))


def _densities():
    return states.densities(_pairs())


@pytest.mark.parametrize("off, fails", [(2.0, True), (0.5, False)])
def test_hermiticity_check_covers_every_matrix(off, fails):
    rho = _densities().copy()
    rho[BAD, 0, 1] += off * DENSITY_ATOL
    if fails:
        _raises_like(lambda: states.checked_density(rho), lambda: DensityMatrix(2, rho[BAD]))
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.eigh(rho)
    else:
        states.checked_density(rho)


@pytest.mark.parametrize("off, fails", [(2.0, True), (0.5, False)])
def test_trace_check_covers_every_matrix(off, fails):
    rho = _densities().copy()
    rho[BAD] *= 1.0 + off * DENSITY_ATOL
    if fails:
        _raises_like(lambda: states.checked_density(rho), lambda: DensityMatrix(2, rho[BAD]))
    else:
        states.checked_density(rho)


@pytest.mark.parametrize("off, fails", [(2.0, True), (0.5, False)])
def test_min_eigenvalue_check_covers_every_matrix(off, fails):
    rho = _densities().copy()
    low = off * linalg.PSD_EIGENVALUE_FLOOR
    rho[BAD] = np.diag([0.6 - low, 0.4, 0.0, low])
    if fails:
        _raises_like(lambda: states.checked_density(rho), lambda: DensityMatrix(2, rho[BAD]))
    else:
        states.checked_density(rho)


def test_a_failing_point_fails_the_whole_stacked_route():
    a = np.linspace(0.1, 1.4, 7)
    t = np.linspace(0.2, 1.3, 7)
    t[BAD] = math.inf
    with pytest.raises(ValueError, match="finite"):
        MEASURES["concurrence"].numeric(a, t, None, "e")


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
    """One point through the single-state API."""
    if name == "avg_fidelity":
        lifted = ch.lift(spec.make(), spec.qubit, 3)
        return ch.average_fidelity_numeric(switch.switch_unitaries(t), lifted)
    if name == "fidelity":
        reg = tensor([qubit_from_angle(a), make_qubit(1, 0), make_qubit(0, 1)])
        return switch.switch_fidelity(reg, t)
    pair = switch.switched_pair(qubit_from_angle(a), t)
    if name == "schmidt":
        return ent.schmidt_coefficients(pair).lambda0
    rho = to_density(pair)
    if spec is not None:
        rho = ch.apply_channel(rho, ch.lift(spec.make(), spec.qubit, 2))
    if name == "ppt":
        return float(ent.ppt_spectrum(rho)[0])
    if name == "concurrence":
        return ent.concurrence(rho)
    if name == "iconcurrence":
        return ent.iconcurrence(rho, "B")
    assert name == "entropy"
    return ent.von_neumann_entropy(partial_trace(rho, {1}))


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
    rows = run_sweep(config)
    assert len(rows) == N_POINTS
    for i in SAMPLE:
        r = rows[i]
        assert r.value_numeric == pytest.approx(
            _scalar_numeric(name, r.a, r.t, spec), abs=1e-12
        ), (i, r.a, r.t)
    if spec is not None and MEASURES[name].mixed:
        diffs = diff_sweep(config)
        for i in SAMPLE:
            r = diffs[i]
            expected = abs(
                _scalar_numeric(name, r.a, r.t, spec) - _scalar_numeric(name, r.a, r.t, None)
            )
            assert r.value_numeric == pytest.approx(expected, abs=1e-12), (i, r.a, r.t)
