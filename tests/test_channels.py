import math

import numpy as np
import pytest
from randstates import random_density

from switchsim import channels as ch
from switchsim import switch
from switchsim.states import make_qubit, to_density
from switchsim.switch import PAULI_X, PAULI_Z

P_GRID = (0.0, 0.25, 0.5, 0.74, 1.0)


def test_table_of_kraus_operators():
    p = 0.3
    pf = ch.make_channel("PF", p)
    assert np.allclose(pf.operators[0], math.sqrt(p) * np.eye(2))
    assert np.allclose(pf.operators[1], math.sqrt(1 - p) * PAULI_Z)
    bf = ch.make_channel("BF", p)
    assert np.allclose(bf.operators[1], math.sqrt(1 - p) * PAULI_X)
    ad = ch.make_channel("AD", p)
    assert np.allclose(ad.operators[0], np.diag([1, math.sqrt(1 - p)]))
    assert np.allclose(ad.operators[1], [[0, math.sqrt(p)], [0, 0]])
    pd = ch.make_channel("PD", p)
    assert np.allclose(pd.operators[0], np.diag([1, math.sqrt(1 - p)]))
    assert np.allclose(pd.operators[1], np.diag([0, math.sqrt(p)]))


def test_noiseless_endpoints():
    pf = ch.make_channel("PF", 1.0)
    assert np.array_equal(pf.operators[0], np.eye(2, dtype=complex))
    assert np.all(pf.operators[1] == 0)
    ad = ch.make_channel("AD", 0.0)
    assert np.array_equal(ad.operators[0], np.eye(2, dtype=complex))
    assert np.all(ad.operators[1] == 0)


def test_make_channel_validation():
    with pytest.raises(ValueError):
        ch.make_channel("PF", 1.5)
    with pytest.raises(ValueError):
        ch.make_channel("PF", -0.1)
    with pytest.raises(ValueError):
        ch.make_channel("depolarizing", 0.5)


def test_completeness_for_all_kinds_and_probabilities():
    for kind in ch.CHANNEL_KINDS:
        for p in P_GRID:
            channel = ch.make_channel(kind, p)
            total = sum(e.conj().T @ e for e in channel.operators)
            assert np.max(np.abs(total - np.eye(2))) <= 1e-12


def test_lift_places_operator_on_the_requested_qubit():
    p = 0.4
    lifted = ch.lift(ch.make_channel("PF", p), 0, 3)
    expected = math.sqrt(1 - p) * np.kron(PAULI_Z, np.eye(4))
    assert np.allclose(lifted.operators[1], expected, atol=1e-15)
    total = sum(e.conj().T @ e for e in lifted.operators)
    assert np.max(np.abs(total - np.eye(8))) <= 1e-12


def test_lift_of_identity_channel_is_identity():
    lifted = ch.lift(ch.make_channel("AD", 0.0), 2, 3)
    rho = random_density(np.random.default_rng(3), 3)
    out = ch.apply_channel(rho, lifted)
    assert np.allclose(out.matrix, rho.matrix, atol=1e-14)


def test_lift_rejects_bad_indices():
    channel = ch.make_channel("PF", 0.5)
    with pytest.raises(ValueError):
        ch.lift(channel, 3, 3)
    with pytest.raises(ValueError):
        ch.lift(ch.lift(channel, 0, 2), 0, 3)


def test_apply_identity_and_pure_flip():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 1)
    unchanged = ch.apply_channel(rho, ch.make_channel("PF", 1.0))
    assert np.allclose(unchanged.matrix, rho.matrix, atol=1e-15)
    flipped = ch.apply_channel(rho, ch.make_channel("PF", 0.0))
    assert np.allclose(flipped.matrix, PAULI_Z @ rho.matrix @ PAULI_Z, atol=1e-15)


def test_full_damping_sends_excited_to_ground():
    rho = to_density(make_qubit(0, 1))
    out = ch.apply_channel(rho, ch.make_channel("AD", 1.0))
    assert np.allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-15)


def test_apply_rejects_dimension_mismatch():
    rho = random_density(np.random.default_rng(7), 2)
    with pytest.raises(ValueError):
        ch.apply_channel(rho, ch.make_channel("PF", 0.5))


def test_apply_preserves_state_invariants():
    rng = np.random.default_rng(11)
    for kind in ch.CHANNEL_KINDS:
        channel = ch.make_channel(kind, 0.37)
        for _ in range(100):
            rho = random_density(rng, 1, rank=rng.integers(1, 3))
            out = ch.apply_channel(rho, channel)
            assert abs(np.trace(out.matrix).real - 1.0) <= 1e-12
            assert np.max(np.abs(out.matrix - out.matrix.conj().T)) <= 1e-12
            assert np.min(np.linalg.eigvalsh(out.matrix)) >= -1e-10


def test_average_fidelity_of_identity_is_one():
    identity = ch.KrausChannel("PF", 1.0, (np.eye(8, dtype=complex),), 8)
    assert ch.average_fidelity_numeric(np.eye(8), identity) == pytest.approx(1.0, abs=1e-14)


def test_trace_preserving_channels_contribute_the_dimension():
    # the sum over M_k^dag M_k of a trace-preserving channel has trace n
    lifted = ch.lift(ch.make_channel("AD", 0.6), 0, 3)
    u = switch.switch_unitary(0.4).matrix
    total = sum((u.conj().T @ e).conj().T @ (u.conj().T @ e) for e in lifted.operators)
    assert np.trace(total).real == pytest.approx(8.0, abs=1e-12)


def test_average_fidelity_numeric_matches_flip_formula():
    for p in np.linspace(0, 1, 8):
        lifted = ch.lift(ch.make_channel("PF", float(p)), 0, 3)
        for t in np.linspace(0, math.pi / 2, 8):
            numeric = ch.average_fidelity_numeric(switch.switch_unitary(float(t)).matrix, lifted)
            closed = (p * (math.cos(t) + 3) ** 2 + 2) / 18
            assert numeric == pytest.approx(closed, abs=1e-12)


def test_average_fidelity_closed_reference_points():
    assert ch.average_fidelity_closed("PF", 1.0, 0.0) == pytest.approx(1.0)
    assert ch.average_fidelity_closed("AD", 0.0, 0.0) == pytest.approx((64 + 8) / 72)
    p, t = 0.3, 0.8
    expected = (
        abs((math.sqrt(1 - p) + 1) * (math.cos(t) + 3)) ** 2
        + abs(p * (math.cos(t) + 3) ** 2)
        + 8
    ) / 72
    assert ch.average_fidelity_closed("PD", p, t) == pytest.approx(expected, abs=1e-15)


def test_flip_channels_share_one_average_fidelity():
    for p in np.linspace(0, 1, 10):
        for t in np.linspace(0, math.pi / 2, 10):
            assert ch.average_fidelity_closed("PF", float(p), float(t)) == pytest.approx(
                ch.average_fidelity_closed("BF", float(p), float(t)), abs=1e-15
            )


def test_average_fidelity_decreases_with_noise_strength():
    for t in np.linspace(0, math.pi / 2, 6):
        for kind, grid in (
            ("PF", np.linspace(1, 0, 11)),  # noise grows as p drops
            ("BF", np.linspace(1, 0, 11)),
            ("AD", np.linspace(0, 1, 11)),  # noise grows as p rises
            ("PD", np.linspace(0, 1, 11)),
        ):
            values = [
                ch.average_fidelity_numeric(
                    switch.switch_unitary(float(t)).matrix,
                    ch.lift(ch.make_channel(kind, float(p)), 0, 3),
                )
                for p in grid
            ]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_monte_carlo_estimate_is_deterministic_and_consistent():
    u = switch.switch_unitary(0.7).matrix
    lifted = ch.lift(ch.make_channel("PD", 0.5), 0, 3)
    first = ch.average_fidelity_monte_carlo(u, lifted, samples=20_000, rng=99)
    second = ch.average_fidelity_monte_carlo(u, lifted, samples=20_000, rng=99)
    assert first == second
    mean, stderr = first
    exact = ch.average_fidelity_numeric(u, lifted)
    assert abs(mean - exact) <= 3 * stderr


def test_channel_type_rejects_non_trace_preserving_sets():
    with pytest.raises(ValueError, match="trace preserving"):
        ch.KrausChannel("PF", 0.5, (np.eye(2, dtype=complex) * 0.5,), 2)
