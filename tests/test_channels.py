import math

import numpy as np
import pytest
from randstates import random_density
from reference import apply_kraus, average_fidelity_monte_carlo, densities

from switchsim import channels as ch
from switchsim import entanglement as ent
from switchsim import switch
from switchsim.sweep import ChannelSpec
from switchsim.switch import KET_1, PAULI_X, PAULI_Z

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


def _identity_channel(kind, p):
    """A channel built directly, not by make_channel: the identity map
    under ``kind`` and ``p``, one matrix per value of p."""
    identity = np.broadcast_to(np.eye(2, dtype=complex), np.shape(p) + (2, 2))
    return ch.KrausChannel(kind, p, (identity,), 2)


#: every entry point that takes a channel kind and a probability
CHANNEL_ENTRY_POINTS = {
    "ChannelSpec": ChannelSpec,
    "KrausChannel": _identity_channel,
    "make_channel": ch.make_channel,
    "noisy_determinant_closed": lambda kind, p: ent.noisy_determinant_closed(
        kind, p, 0.3, 0.6, 0.8
    ),
    "average_fidelity_closed": lambda kind, p: ch.average_fidelity_closed(kind, p, 0.3),
}
BAD_KIND = "unknown channel kind 'XX'; expected one of ('PF', 'BF', 'AD', 'PD')"


@pytest.mark.parametrize("entry", CHANNEL_ENTRY_POINTS)
@pytest.mark.parametrize("kind, p, message", [
    ("XX", 0.5, BAD_KIND),
    ("XX", 1.5, BAD_KIND),  # the kind is checked before p
    ("PF", -0.1, "probability must lie in [0, 1], got -0.1"),
    ("BF", 1.5, "probability must lie in [0, 1], got 1.5"),
    ("AD", math.nan, "probability must lie in [0, 1], got nan"),
    ("PD", math.inf, "probability must lie in [0, 1], got inf"),
])
def test_every_channel_entry_point_rejects_a_bad_kind_or_p_alike(entry, kind, p, message):
    with pytest.raises(ValueError) as err:
        CHANNEL_ENTRY_POINTS[entry](kind, p)
    assert str(err.value) == message


#: every entry point that takes a stack of p, as a tuple or a (P, 1, 1) column
STACK_ENTRY_POINTS = {
    "ChannelSpec": ChannelSpec,
    "KrausChannel": _identity_channel,
    "check_channel": ch.check_channel,
    "make_channel": ch.make_channel,
    "noisy_determinant_closed": lambda kind, p: ent.noisy_determinant_closed(
        kind, np.array(p)[:, None, None], np.array([0.3, 0.9]), 0.6, 0.8
    ),
    "average_fidelity_closed": lambda kind, p: ch.average_fidelity_closed(
        kind, np.array(p)[:, None, None], np.array([0.3, 0.9])
    ),
}


@pytest.mark.parametrize("entry", STACK_ENTRY_POINTS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1, 1.5])
@pytest.mark.parametrize("position", range(len(P_GRID)))
def test_a_stack_of_p_names_its_first_bad_value(entry, bad, position):
    stack = list(P_GRID)
    stack[position] = bad
    if position < len(P_GRID) - 1:
        stack[-1] = 2.0  # a later bad value is not the one named
    with pytest.raises(ValueError) as err:
        STACK_ENTRY_POINTS[entry]("PF", tuple(stack))
    assert str(err.value) == f"probability must lie in [0, 1], got {bad!r}"
    with pytest.raises(ValueError) as err:  # the kind is checked before p
        STACK_ENTRY_POINTS[entry]("XX", tuple(stack))
    assert str(err.value) == BAD_KIND


@pytest.mark.parametrize("entry", ["ChannelSpec", "make_channel"])
@pytest.mark.parametrize("p, shape", [
    ((), (0,)), (((0.1, 0.2),), (1, 2)), (((0.1, 0.2), (0.3, 0.4)), (2, 2)),
], ids=["empty", "one-row", "two-rows"])
def test_a_p_of_no_values_or_of_two_axes_is_rejected(entry, p, shape):
    with pytest.raises(ValueError) as err:
        CHANNEL_ENTRY_POINTS[entry]("PF", p)
    assert str(err.value) == f"p must be one value or a stack of at least one, got shape {shape}"
    with pytest.raises(ValueError) as err:  # the kind is checked before p
        CHANNEL_ENTRY_POINTS[entry]("XX", p)
    assert str(err.value) == BAD_KIND


@pytest.mark.parametrize("kind", ch.CHANNEL_KINDS)
def test_a_channel_stack_is_its_channels_bit_for_bit(kind):
    stack = ch.make_channel(kind, list(P_GRID))
    assert stack.p == P_GRID and isinstance(stack.p, tuple)  # immutable once checked
    with pytest.raises(TypeError):  # its operators are arrays
        hash(stack)
    alone = [ch.make_channel(kind, p) for p in P_GRID]
    for n in (1, 2, 3):
        for qubit in range(n):
            lifted = ch.lift(stack, qubit, n)
            assert type(lifted) is tuple
            reference = [ch.lift(channel, qubit, n) for channel in alone]
            for k, e in enumerate(lifted):
                assert e.shape == (len(P_GRID), 2**n, 2**n) and not e.flags.writeable
                assert e.tobytes() == np.stack([ops[k] for ops in reference]).tobytes()
    rho = np.stack([random_density(np.random.default_rng(i), 1) for i in range(len(P_GRID))])
    out = apply_kraus(rho, stack.operators)
    for i, channel in enumerate(alone):
        assert out[i].tobytes() == apply_kraus(rho[i], channel.operators).tobytes()


def test_a_channel_stack_is_checked_as_a_whole():
    ops = ch.make_channel("AD", P_GRID).operators
    broken = (ops[0], ops[1] * np.array([1.0, 1.0, 1.1, 1.0, 1.0])[:, None, None])
    with pytest.raises(ValueError, match="trace preserving"):
        ch.KrausChannel("AD", P_GRID, broken, 2)
    with pytest.raises(ValueError, match="does not match dim 2 and 5 values of p"):
        ch.KrausChannel("AD", P_GRID, (ops[0][:4], ops[1][:4]), 2)


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
    assert np.allclose(lifted[1], expected, atol=1e-15)
    total = sum(e.conj().T @ e for e in lifted)
    assert np.max(np.abs(total - np.eye(8))) <= 1e-12


def test_lift_of_identity_channel_is_identity():
    lifted = ch.lift(ch.make_channel("AD", 0.0), 2, 3)
    rho = random_density(np.random.default_rng(3), 3)
    out = apply_kraus(rho, lifted)
    assert np.allclose(out, rho, atol=1e-14)


def _lift_by_kron_loop(channel, qubit, n_qubits):
    """The reference lift: one np.kron per qubit of the register."""
    lifted = []
    for e in channel.operators:
        op = np.eye(1, dtype=complex)
        for q in range(n_qubits):
            op = np.kron(op, e if q == qubit else np.eye(2, dtype=complex))
        lifted.append(op)
    return lifted


@pytest.mark.parametrize("kind", ch.CHANNEL_KINDS)
def test_lift_is_the_kron_loop_bit_for_bit(kind):
    # tobytes tells -0.0 from 0.0, which the signs of the products could flip
    for p in (0.0, 0.3, 1.0):
        channel = ch.make_channel(kind, p)
        for n in (1, 2, 3):
            for qubit in range(n):
                lifted = ch.lift(channel, qubit, n)
                reference = _lift_by_kron_loop(channel, qubit, n)
                assert type(lifted) is tuple and len(lifted) == len(reference)
                for e, r in zip(lifted, reference):
                    assert e.shape == r.shape and e.tobytes() == r.tobytes()
                    assert not e.flags.writeable


def test_lifted_channel_is_frozen():
    lifted = ch.lift(ch.make_channel("AD", 0.3), 1, 2)
    with pytest.raises(TypeError):
        lifted[0] = lifted[1]
    with pytest.raises(ValueError):
        lifted[0][0, 0] = 2.0


def test_apply_identity_and_pure_flip():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 1)
    unchanged = apply_kraus(rho, ch.make_channel("PF", 1.0).operators)
    assert np.allclose(unchanged, rho, atol=1e-15)
    flipped = apply_kraus(rho, ch.make_channel("PF", 0.0).operators)
    assert np.allclose(flipped, PAULI_Z @ rho @ PAULI_Z, atol=1e-15)


def test_full_damping_sends_excited_to_ground():
    rho = densities(KET_1)
    out = apply_kraus(rho, ch.make_channel("AD", 1.0).operators)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-15)


def test_apply_rejects_dimension_mismatch():
    rho = random_density(np.random.default_rng(7), 2)
    with pytest.raises(ValueError) as err:
        apply_kraus(rho, ch.make_channel("PF", 0.5).operators)
    assert str(err.value) == "dimension mismatch: state is 4-dimensional, channel is 2-dimensional"


def test_apply_preserves_state_invariants():
    rng = np.random.default_rng(11)
    for kind in ch.CHANNEL_KINDS:
        channel = ch.make_channel(kind, 0.37)
        for _ in range(100):
            rho = random_density(rng, 1, rank=rng.integers(1, 3))
            out = apply_kraus(rho, channel.operators)
            assert abs(np.trace(out).real - 1.0) <= 1e-12
            assert np.max(np.abs(out - out.conj().T)) <= 1e-12
            assert np.min(np.linalg.eigvalsh(out)) >= -1e-10


def test_average_fidelity_of_identity_is_one():
    identity = ch.KrausChannel("PF", 1.0, (np.eye(8, dtype=complex),), 8)
    fidelity = float(ch.average_fidelities(np.eye(8, dtype=complex), identity.operators))
    assert fidelity == pytest.approx(1.0, abs=1e-14)


def test_trace_preserving_channels_contribute_the_dimension():
    # the sum over M_k^dag M_k of a trace-preserving channel has trace n
    lifted = ch.lift(ch.make_channel("AD", 0.6), 0, 3)
    u = switch.switch_unitaries(0.4)
    total = sum((u.conj().T @ e).conj().T @ (u.conj().T @ e) for e in lifted)
    assert np.trace(total).real == pytest.approx(8.0, abs=1e-12)


def test_average_fidelity_numeric_matches_flip_formula():
    for p in np.linspace(0, 1, 8):
        lifted = ch.lift(ch.make_channel("PF", float(p)), 0, 3)
        for t in np.linspace(0, math.pi / 2, 8):
            numeric = float(ch.average_fidelities(switch.switch_unitaries(float(t)), lifted))
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
                float(ch.average_fidelities(
                    switch.switch_unitaries(float(t)),
                    ch.lift(ch.make_channel(kind, float(p)), 0, 3),
                ))
                for p in grid
            ]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_monte_carlo_estimate_is_deterministic_and_consistent():
    u = switch.switch_unitaries(0.7)
    lifted = ch.lift(ch.make_channel("PD", 0.5), 0, 3)
    first = average_fidelity_monte_carlo(u, lifted, samples=20_000, rng=99)
    second = average_fidelity_monte_carlo(u, lifted, samples=20_000, rng=99)
    assert first == second
    mean, stderr = first
    exact = float(ch.average_fidelities(u, lifted))
    assert abs(mean - exact) <= 3 * stderr


def test_channel_type_rejects_non_trace_preserving_sets():
    with pytest.raises(ValueError, match="trace preserving"):
        ch.KrausChannel("PF", 0.5, (np.eye(2, dtype=complex) * 0.5,), 2)
