import math

import numpy as np
import pytest
from randstates import random_density, random_unitary
from reference import (
    apply_kraus,
    average_fidelities_gram,
    average_fidelity_monte_carlo,
    checked_channel,
    densities,
    lifted_operators,
)

from switchsim import channels as ch
from switchsim import switch
from switchsim.sweep import ChannelSpec
from switchsim.switch import KET_1, PAULI_X, PAULI_Z

P_GRID = (0.0, 0.25, 0.5, 0.74, 1.0)
#: each end of [0, 1], the least subnormal, a tiny normal, the middle and
#: the last double below 1
EDGE_P = (0.0, 5e-324, 1e-300, 0.5, 1 - 1e-16, 1.0)
#: largest |average_fidelities - average_fidelities_gram| accepted; over 20
#: seeds of 200 Haar unitaries under every kind at EDGE_P on qubits 0, 1
#: and 2 and the incomplete sets below, and the switch at 2,001 times in
#: [-10, 10], the largest seen was 2 eps
GRAM_ATOL = 4 * np.finfo(float).eps


def test_table_of_kraus_operators():
    p = 0.3
    pf = ch.make_channel("PF", p)
    assert np.allclose(pf[0], math.sqrt(p) * np.eye(2))
    assert np.allclose(pf[1], math.sqrt(1 - p) * PAULI_Z)
    bf = ch.make_channel("BF", p)
    assert np.allclose(bf[1], math.sqrt(1 - p) * PAULI_X)
    ad = ch.make_channel("AD", p)
    assert np.allclose(ad[0], np.diag([1, math.sqrt(1 - p)]))
    assert np.allclose(ad[1], [[0, math.sqrt(p)], [0, 0]])
    pd = ch.make_channel("PD", p)
    assert np.allclose(pd[0], np.diag([1, math.sqrt(1 - p)]))
    assert np.allclose(pd[1], np.diag([0, math.sqrt(p)]))


#: every entry point that takes a channel kind and a probability
CHANNEL_ENTRY_POINTS = {
    "ChannelSpec": ChannelSpec,
    "check_channel": ch.check_channel,
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
    "check_channel": ch.check_channel,
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


@pytest.mark.parametrize("p, shape", [
    ((), (0,)), (((0.1, 0.2),), (1, 2)), (((0.1, 0.2), (0.3, 0.4)), (2, 2)),
], ids=["empty", "one-row", "two-rows"])
def test_a_p_of_no_values_or_of_two_axes_is_rejected(p, shape):
    with pytest.raises(ValueError) as err:
        ChannelSpec("PF", p)
    assert str(err.value) == f"p must be one value or a stack of at least one, got shape {shape}"
    with pytest.raises(ValueError) as err:  # the kind is checked before p
        ChannelSpec("XX", p)
    assert str(err.value) == BAD_KIND


@pytest.mark.parametrize("kind", ch.CHANNEL_KINDS)
def test_a_channel_stack_is_its_channels_bit_for_bit(kind):
    stack = ch.make_channel(kind, list(P_GRID))
    alone = [ch.make_channel(kind, p) for p in P_GRID]
    assert type(stack) is tuple and len(stack) == 2
    for k, e in enumerate(stack):
        assert e.shape == (len(P_GRID), 2, 2) and not e.flags.writeable
        assert e.tobytes() == np.stack([ops[k] for ops in alone]).tobytes()
    rho = np.stack([random_density(np.random.default_rng(i), 1) for i in range(len(P_GRID))])
    out = apply_kraus(rho, stack)
    for i, ops in enumerate(alone):
        assert out[i].tobytes() == apply_kraus(rho[i], ops).tobytes()


@pytest.mark.parametrize("p", [*EDGE_P, EDGE_P], ids=[*map(repr, EDGE_P), "stack"])
@pytest.mark.parametrize("kind", ch.CHANNEL_KINDS)
def test_make_channel_builds_checked_channels_at_every_edge_of_p(kind, p):
    # what make_channel no longer checks of its own operators: a tuple of
    # read-only, finite, complete 2 x 2 matrices, one p and a stack alike
    if isinstance(p, tuple):
        checked_channel(ch.make_channel(kind, p), len(p))
    else:
        checked_channel(ch.make_channel(kind, p))


def _read_only(a):
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


def test_the_channel_reference_rejects_what_make_channel_never_builds():
    ops = ch.make_channel("AD", P_GRID)
    broken = _read_only(ops[1] * np.array([1.0, 1.0, 1.1, 1.0, 1.0])[:, None, None])
    with pytest.raises(ValueError, match="not trace preserving: .* reaches 1[.]050e-01"):
        checked_channel((ops[0], broken), len(P_GRID))
    with pytest.raises(ValueError, match="not trace preserving"):
        checked_channel((_read_only(np.eye(2) * 0.5),))
    with pytest.raises(ValueError, match="expected \\(5, 2, 2\\) complex"):
        checked_channel((ops[0][:4], ops[1][:4]), len(P_GRID))
    with pytest.raises(ValueError, match="expected \\(2, 2\\) complex"):
        checked_channel(ops)
    with pytest.raises(ValueError, match="read-only"):
        checked_channel((np.eye(2, dtype=complex),))
    with pytest.raises(ValueError, match="NaN or Inf"):
        checked_channel((_read_only([[1.0, 0.0], [0.0, math.nan]]),))
    with pytest.raises(ValueError, match="non-empty tuple"):
        checked_channel(())
    with pytest.raises(ValueError, match="non-empty tuple"):
        checked_channel(list(ops), len(P_GRID))


def test_noiseless_endpoints():
    pf = ch.make_channel("PF", 1.0)
    assert np.array_equal(pf[0], np.eye(2, dtype=complex))
    assert np.all(pf[1] == 0)
    ad = ch.make_channel("AD", 0.0)
    assert np.array_equal(ad[0], np.eye(2, dtype=complex))
    assert np.all(ad[1] == 0)


def test_completeness_for_all_kinds_and_probabilities():
    for kind in ch.CHANNEL_KINDS:
        for p in P_GRID:
            total = sum(e.conj().T @ e for e in ch.make_channel(kind, p))
            assert np.max(np.abs(total - np.eye(2))) <= 1e-12


def test_make_channel_is_frozen():
    ops = ch.make_channel("AD", 0.3)
    with pytest.raises(TypeError):
        ops[0] = ops[1]
    with pytest.raises(ValueError):
        ops[0][0, 0] = 2.0


def test_lifted_operators_place_an_operator_on_the_requested_qubit():
    p = 0.4
    lifted = lifted_operators(ch.make_channel("PF", p), 0, 3)
    expected = math.sqrt(1 - p) * np.kron(PAULI_Z, np.eye(4))
    assert np.allclose(lifted[1], expected, atol=1e-15)
    total = sum(e.conj().T @ e for e in lifted)
    assert np.max(np.abs(total - np.eye(8))) <= 1e-12


def test_lifted_identity_channel_is_identity():
    lifted = lifted_operators(ch.make_channel("AD", 0.0), 2, 3)
    rho = random_density(np.random.default_rng(3), 3)
    out = apply_kraus(rho, lifted)
    assert np.allclose(out, rho, atol=1e-14)


@pytest.mark.parametrize("kind", ch.CHANNEL_KINDS)
def test_a_lifted_stack_is_its_lifted_channels_bit_for_bit(kind):
    stack = ch.make_channel(kind, EDGE_P)
    for n in (1, 2, 3):
        for qubit in range(n):
            lifted = lifted_operators(stack, qubit, n)
            alone = [lifted_operators(ch.make_channel(kind, p), qubit, n) for p in EDGE_P]
            for k, e in enumerate(lifted):
                assert e.shape == (len(EDGE_P), 2**n, 2**n)
                assert e.tobytes() == np.stack([ops[k] for ops in alone]).tobytes()


def test_apply_identity_and_pure_flip():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 1)
    unchanged = apply_kraus(rho, ch.make_channel("PF", 1.0))
    assert np.allclose(unchanged, rho, atol=1e-15)
    flipped = apply_kraus(rho, ch.make_channel("PF", 0.0))
    assert np.allclose(flipped, PAULI_Z @ rho @ PAULI_Z, atol=1e-15)


def test_full_damping_sends_excited_to_ground():
    rho = densities(KET_1)
    out = apply_kraus(rho, ch.make_channel("AD", 1.0))
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-15)


def test_apply_rejects_dimension_mismatch():
    rho = random_density(np.random.default_rng(7), 2)
    with pytest.raises(ValueError) as err:
        apply_kraus(rho, ch.make_channel("PF", 0.5))
    assert str(err.value) == "dimension mismatch: state is 4-dimensional, channel is 2-dimensional"


def test_apply_preserves_state_invariants():
    rng = np.random.default_rng(11)
    for kind in ch.CHANNEL_KINDS:
        operators = ch.make_channel(kind, 0.37)
        for _ in range(100):
            rho = random_density(rng, 1, rank=rng.integers(1, 3))
            out = apply_kraus(rho, operators)
            assert abs(np.trace(out).real - 1.0) <= 1e-12
            assert np.max(np.abs(out - out.conj().T)) <= 1e-12
            assert np.min(np.linalg.eigvalsh(out)) >= -1e-10


@pytest.mark.parametrize("qubit", range(3))
def test_average_fidelity_of_identity_is_one(qubit):
    identity = (np.eye(2, dtype=complex),)
    fidelity = float(ch.average_fidelities(np.eye(8, dtype=complex), identity, qubit))
    assert fidelity == pytest.approx(1.0, abs=1e-14)


def test_trace_preserving_channels_contribute_the_dimension():
    # the norm term that average_fidelities reads, (n / 2) sum_k ||E_k||_F^2,
    # is n for a complete channel, one value of p at a time and as a stack;
    # on a register of three qubits it is the lifted operators' own
    def norm_term(operators):
        return sum(np.linalg.norm(e, axis=(-2, -1)) ** 2 for e in operators)

    for kind in ch.CHANNEL_KINDS:
        stack = norm_term(ch.make_channel(kind, EDGE_P))
        assert stack.shape == (len(EDGE_P),)
        assert np.max(np.abs(stack - 2.0)) <= 1e-12, kind
        for p in EDGE_P:
            single = ch.make_channel(kind, p)
            assert abs(norm_term(single) - 2.0) <= 1e-12, (kind, p)
            for qubit in range(3):
                lifted = norm_term(lifted_operators(single, qubit, 3))
                assert abs(lifted - 4.0 * norm_term(single)) <= 1e-12, (kind, p, qubit)


def _rows(kind):
    """Each kind's operators at EDGE_P as (P, 1, 2, 2) rows that broadcast
    against a stack of unitaries, as the gate route hands them on."""
    return tuple(e[:, None] for e in ch.make_channel(kind, EDGE_P))


def _incomplete_sets(rng):
    """Single-qubit Kraus operator sets that are not trace preserving: half
    the identity, half a Haar unitary and three Gaussian matrices."""
    gauss = (rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))) / 2
    return [(0.5 * np.eye(2, dtype=complex),), (random_unitary(rng, 2) / 2,), tuple(gauss)]


def _meets_gram(u, operators, qubit):
    # the kernel on the 2 x 2 operators; the reference on the operators
    # lifted onto the register
    numeric = ch.average_fidelities(u, operators, qubit)
    gram = average_fidelities_gram(u, lifted_operators(operators, qubit, 3))
    assert np.max(np.abs(numeric - gram)) <= GRAM_ATOL, qubit


@pytest.mark.parametrize("seed", range(3))
def test_average_fidelities_meet_the_gram_reference_on_haar_unitaries(seed):
    rng = np.random.default_rng(seed)
    u = np.stack([random_unitary(rng, 8) for _ in range(64)])
    for qubit in range(3):
        for kind in ch.CHANNEL_KINDS:
            _meets_gram(u, _rows(kind), qubit)
        for operators in _incomplete_sets(rng):
            _meets_gram(u, operators, qubit)


@pytest.mark.parametrize("qubit", range(3))
def test_average_fidelities_read_no_completeness(qubit):
    # F of half the identity is (2 + |tr U|^2 / 4) / 72: the norm term is 2, not 8
    u = switch.switch_unitaries(np.linspace(-10.0, 10.0, 401))
    half = (0.5 * np.eye(2, dtype=complex),)
    expected = (2.0 + np.abs(np.trace(u, axis1=-2, axis2=-1)) ** 2 / 4) / 72
    assert np.max(np.abs(ch.average_fidelities(u, half, qubit) - expected)) <= GRAM_ATOL
    for operators in _incomplete_sets(np.random.default_rng(5)):
        _meets_gram(u, operators, qubit)


def test_average_fidelities_meet_the_gram_reference_on_the_switch():
    u = switch.switch_unitaries(np.linspace(-10.0, 10.0, 401))
    for kind in ch.CHANNEL_KINDS:
        for qubit in range(3):
            _meets_gram(u, _rows(kind), qubit)


def test_average_fidelity_numeric_matches_flip_formula():
    for p in np.linspace(0, 1, 8):
        operators = ch.make_channel("PF", float(p))
        for t in np.linspace(0, math.pi / 2, 8):
            numeric = float(ch.average_fidelities(switch.switch_unitaries(float(t)), operators, 0))
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


@pytest.mark.parametrize("qubit", [0, 1])
@pytest.mark.parametrize("kind", ch.CHANNEL_KINDS)
def test_the_gate_route_meets_its_closed_form_at_every_edge_of_p(kind, qubit):
    # the 2 x 2 operators of a p stack on either data qubit of the switch
    # against the closed form over the same column of p; the switch
    # exchanges the data qubits, so the form holds on both, and the
    # largest difference seen is 2 eps
    t = np.linspace(-10.0, 10.0, 401)
    numeric = ch.average_fidelities(switch.switch_unitaries(t), _rows(kind), qubit)
    closed = ch.average_fidelity_closed(kind, np.array(EDGE_P)[:, None], t)
    assert numeric.shape == closed.shape == (len(EDGE_P), len(t))
    assert np.max(np.abs(numeric - closed)) <= GRAM_ATOL


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
                    ch.make_channel(kind, float(p)), 0,
                ))
                for p in grid
            ]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_monte_carlo_estimate_is_deterministic_and_consistent():
    u = switch.switch_unitaries(0.7)
    operators = ch.make_channel("PD", 0.5)
    lifted = lifted_operators(operators, 0, 3)
    first = average_fidelity_monte_carlo(u, lifted, samples=20_000, rng=99)
    second = average_fidelity_monte_carlo(u, lifted, samples=20_000, rng=99)
    assert first == second
    mean, stderr = first
    exact = float(ch.average_fidelities(u, operators, 0))
    assert abs(mean - exact) <= 3 * stderr
