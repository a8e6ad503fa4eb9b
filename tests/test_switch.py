import math

import numpy as np
import pytest
from randstates import random_pure
from reference import (
    KET_0,
    KET_1,
    PAULI_Y,
    circuit_unitary,
    dagger,
    densities,
    eigh,
    kron_vectors,
    normalized,
    partial_traces,
    switch_hamiltonian,
    switch_unitary_oracle,
)

from switchsim import channels
from switchsim.switch import (
    angle_qubits,
    evolved,
    overlaps,
    registers,
    switch_fidelities,
    switch_unitaries,
    switched_pairs,
)

SWAP_PERMUTATION = np.eye(8)
SWAP_PERMUTATION[[3, 5]] = SWAP_PERMUTATION[[5, 3]]


def test_gate_constants_are_unitary():
    for g in (channels.PAULI_X, PAULI_Y, channels.PAULI_Z, channels.IDENTITY_2):
        assert np.max(np.abs(dagger(g) @ g - np.eye(2))) <= 1e-12


def test_angle_qubits():
    sq2 = math.sqrt(2.0)
    assert np.allclose(angle_qubits(0.0), [0, 1], atol=1e-15)
    assert np.allclose(angle_qubits(math.pi / 2), [1, 0], atol=1e-15)
    assert np.allclose(angle_qubits(math.pi / 4), [sq2 / 2, sq2 / 2], atol=1e-15)


def test_registers_are_the_kronecker_product_of_the_input():
    # seeded complex qubits with negative real and imaginary parts, as a
    # stack and one at a time
    rng = np.random.default_rng(61)
    qubits = rng.uniform(-1, 1, (40, 2)) + 1j * rng.uniform(-1, 1, (40, 2))
    qubits /= np.linalg.norm(qubits, axis=-1, keepdims=True)
    assert np.any(qubits.real < 0) and np.any(qubits.imag < 0)
    assert np.array_equal(registers(qubits), kron_vectors(qubits, KET_0, KET_1))
    assert np.array_equal(registers(qubits.reshape(5, 8, 2)),
                          kron_vectors(qubits.reshape(5, 8, 2), KET_0, KET_1))
    for q in qubits:
        reg = registers(q)
        assert reg.shape == (8,)
        assert np.array_equal(reg, kron_vectors(q, KET_0, KET_1))


def test_hamiltonian_entries_and_trace():
    h = switch_hamiltonian()
    expected = np.zeros((8, 8))
    expected[3, 5] = expected[5, 3] = 1.0
    assert np.array_equal(h, expected)
    assert np.trace(h) == 0


def test_hamiltonian_spectrum():
    w = eigh(switch_hamiltonian())[0]
    assert np.allclose(w, [-1, 0, 0, 0, 0, 0, 0, 1], atol=1e-12)


def test_hamiltonian_squared_is_the_coupled_projector():
    h = switch_hamiltonian()
    expected = np.zeros((8, 8))
    expected[3, 3] = expected[5, 5] = 1.0
    assert np.allclose(h @ h, expected, atol=1e-15)


def test_switch_unitary_at_reference_times():
    assert np.array_equal(switch_unitaries(0.0), np.eye(8))
    u = switch_unitaries(math.pi / 2)
    assert abs(u[3, 3]) < 1e-15 and abs(u[5, 5]) < 1e-15
    assert u[3, 5] == pytest.approx(-1j) and u[5, 3] == pytest.approx(-1j)
    u = switch_unitaries(math.pi / 4)
    assert u[3, 3] == pytest.approx(math.sqrt(2) / 2)
    assert u[3, 5] == pytest.approx(-1j * math.sqrt(2) / 2)


def test_switch_unitary_is_unitary_and_identity_off_block():
    rng = np.random.default_rng(23)
    eye = np.eye(8, dtype=bool)
    block = np.zeros((8, 8), dtype=bool)
    block[np.ix_([3, 5], [3, 5])] = True
    for t in rng.uniform(-10, 10, 100):
        u = switch_unitaries(float(t))
        assert np.max(np.abs(dagger(u) @ u - np.eye(8))) <= 1e-12
        outside = ~block
        assert np.array_equal(u[outside], np.eye(8, dtype=complex)[outside])
        assert u.shape == (8, 8) and eye.shape == outside.shape


def test_full_swap_applied_twice_gives_a_minus_sign_on_the_pair():
    u = switch_unitaries(math.pi / 2)
    uu = u @ u
    for idx in range(8):
        e = np.zeros(8)
        e[idx] = 1.0
        out = uu @ e
        phase = -1.0 if idx in (3, 5) else 1.0
        assert np.allclose(out, phase * e, atol=1e-15)
        assert np.allclose(np.abs(out), e, atol=1e-15)


def test_closed_form_matches_eigendecomposition_exponential():
    # every finite t is accepted by the command line; +-1e3 are far outside
    # the paper's <0, pi/2>
    times = np.concatenate([np.linspace(0, math.pi / 2, 100),
                            np.linspace(-3 * math.pi, 3 * math.pi, 601), [-1e3, 1e3]])
    stacked = switch_unitaries(times)
    for t, u in zip(times.tolist(), stacked):
        assert np.max(np.abs(u - switch_unitary_oracle(t))) <= 1e-12, t
        assert np.array_equal(switch_unitaries(t), u), t


@pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
def test_switch_unitaries_of_a_stack_of_times(shape):
    rng = np.random.default_rng(29)
    t = rng.uniform(-3 * math.pi, 3 * math.pi, shape)
    u = switch_unitaries(t)
    assert u.shape == t.shape + (8, 8)
    # outside the 2 x 2 block on {3, 5} every entry is the identity's, exactly
    block = np.zeros((8, 8), dtype=bool)
    block[np.ix_([3, 5], [3, 5])] = True
    assert np.array_equal(u[..., ~block], np.broadcast_to(np.eye(8)[~block], shape + (60,)))
    for idx in np.ndindex(shape):
        assert np.max(np.abs(u[idx] - switch_unitary_oracle(float(t[idx])))) <= 1e-12


def test_spectral_projector_reconstruction():
    # sum over eigenprojectors of the generator with phases exp(-i w t)
    w, vectors = eigh(switch_hamiltonian())
    t = 0.83
    u = np.zeros((8, 8), dtype=complex)
    for k in range(8):
        v = vectors[:, k : k + 1]
        u = u + np.exp(-1j * w[k] * t) * (v @ v.conj().T)
    assert np.max(np.abs(u - switch_unitaries(t))) <= 1e-12


def test_full_swap_matches_the_permutation_up_to_phase():
    u = switch_unitaries(math.pi / 2)
    assert np.allclose(np.abs(u), SWAP_PERMUTATION, atol=1e-15)


def test_circuit_unitary_is_the_exact_permutation():
    u = circuit_unitary()
    assert np.array_equal(u, SWAP_PERMUTATION.astype(complex))
    assert np.array_equal(u @ u.conj().T, np.eye(8, dtype=complex))


def test_circuit_leaves_control_zero_states_alone():
    rng = np.random.default_rng(29)
    a, b = random_pure(rng, 1), random_pure(rng, 1)
    reg = normalized(kron_vectors(a, b, KET_0))
    assert np.allclose(circuit_unitary() @ reg, reg, atol=1e-15)


def test_evolve_leaves_control_zero_states_alone():
    rng = np.random.default_rng(31)
    for _ in range(5):
        a, b = random_pure(rng, 1), random_pure(rng, 1)
        reg = normalized(kron_vectors(a, b, KET_0))
        out = evolved(reg, float(rng.uniform(0, math.pi / 2)))
        assert np.allclose(out, reg, atol=1e-14)


def test_evolve_componentwise_on_control_one_states():
    rng = np.random.default_rng(37)
    for _ in range(5):
        a, b = random_pure(rng, 1), random_pure(rng, 1)
        (a0, b0), (a1, b1) = a, b
        t = float(rng.uniform(0, math.pi / 2))
        out = evolved(normalized(kron_vectors(a, b, KET_1)), t)
        c, s = math.cos(t), math.sin(t)
        expected = np.zeros(8, dtype=complex)
        expected[1] = a0 * a1
        expected[3] = c * a0 * b1 - 1j * s * a1 * b0
        expected[5] = c * a1 * b0 - 1j * s * a0 * b1
        expected[7] = b0 * b1
        assert np.allclose(out, expected, atol=1e-14)


def test_evolve_full_swap_of_a_basis_state():
    psi = normalized(np.eye(8, dtype=complex)[5])  # |101>
    out = evolved(psi, math.pi / 2)
    expected = np.zeros(8, dtype=complex)
    expected[3] = -1j
    assert np.allclose(out, expected, atol=1e-15)


def test_evolve_preserves_norm():
    rng = np.random.default_rng(41)
    for _ in range(20):
        psi = random_pure(rng, 3)
        out = evolved(psi, float(rng.uniform(-5, 5)))
        assert abs(np.sum(np.abs(out) ** 2) - 1) < 1e-12


def _registers(rng, n):
    """n seeded random complex 3-qubit registers, shape (n, 8), with no
    zero amplitude, so that every entry of U(t) is exercised."""
    v = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
    assert np.all(np.abs(v) > 0.0)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def test_evolved_is_the_full_unitary_applied():
    rng = np.random.default_rng(53)
    amps = _registers(rng, 200)
    for t in rng.uniform(-3, 7, 20):
        full = (switch_unitaries(t) @ amps[..., None])[..., 0]
        assert np.max(np.abs(evolved(amps, t) - full)) <= 1e-15
    ts = rng.uniform(-3, 7, 200)
    full = (switch_unitaries(ts) @ amps[..., None])[..., 0]
    assert np.max(np.abs(evolved(amps, ts) - full)) <= 1e-15


def test_evolved_full_swap_is_the_circuit_up_to_phase():
    amps = _registers(np.random.default_rng(59), 200)
    out = evolved(amps, math.pi / 2)
    assert np.allclose(np.abs(out), np.abs(amps @ circuit_unitary().T), rtol=0.0, atol=1e-15)
    assert np.max(np.abs(out - amps @ switch_unitary_oracle(math.pi / 2).T)) <= 1e-14


def test_fidelity_basics():
    rng = np.random.default_rng(43)
    psi = random_pure(rng, 2)
    assert float(overlaps(psi, psi)) == pytest.approx(1.0, abs=1e-14)
    assert float(overlaps(KET_0, KET_1)) == 0.0
    plus = normalized(np.array([1, 1], dtype=complex) / math.sqrt(2))
    assert float(overlaps(plus, KET_0)) == pytest.approx(1 / math.sqrt(2), abs=1e-14)


def test_fidelity_is_symmetric_and_phase_invariant():
    rng = np.random.default_rng(47)
    phi, psi = random_pure(rng, 2), random_pure(rng, 2)
    assert float(overlaps(phi, psi)) == pytest.approx(float(overlaps(psi, phi)), abs=1e-14)
    rotated = normalized(np.exp(1j * 0.7) * psi)
    assert float(overlaps(psi, rotated)) == pytest.approx(1.0, abs=1e-14)


def _a01(a):
    return normalized(kron_vectors(angle_qubits(a), KET_0, KET_1))


def _a11(a):
    return normalized(kron_vectors(angle_qubits(a), KET_1, KET_1))


def test_switch_fidelity_closed_forms():
    for a in np.linspace(0, math.pi / 2, 25):
        al, be = math.sin(a), math.cos(a)
        for t in np.linspace(0, math.pi / 2, 25):
            assert float(switch_fidelities(_a01(float(a)), float(t))) == pytest.approx(
                al**2 + math.sin(t) * be**2, abs=1e-12
            )
            assert float(switch_fidelities(_a11(float(a)), float(t))) == pytest.approx(
                math.sin(t) * al**2 + be**2, abs=1e-12
            )


def test_switch_fidelity_with_beta_zero_is_flat():
    psi = _a01(math.pi / 2)  # |A> = |0>, nothing to swap
    for t in np.linspace(0, math.pi / 2, 10):
        assert float(switch_fidelities(psi, float(t))) == pytest.approx(1.0, abs=1e-12)


def test_switched_pair_amplitudes():
    a, t = 1.1, 0.4
    pair = switched_pairs(angle_qubits(a), t)
    al, be = math.sin(a), math.cos(a)
    expected = np.array([al, -1j * math.sin(t) * be, math.cos(t) * be, 0.0])
    assert np.allclose(pair, expected, atol=1e-14)


def _data_qubits(rng, n):
    """n random pairs of data qubits |a>, |b> as two (n, 2) stacks."""
    a = np.stack([random_pure(rng, 1) for _ in range(2 * n)])
    return a[:n], a[n:]


def test_the_switch_keeps_its_control_exactly_in_one():
    rng = np.random.default_rng(9)
    a, b = _data_qubits(rng, 50)
    t = rng.uniform(-3 * math.pi, 3 * math.pi, 50)
    out = evolved(kron_vectors(a, b, KET_1), t)
    # the even amplitudes, where the control is |0>, are exact zeros
    assert np.all(out[:, 0::2] == 0)
    # for the paper's input |A>|0>|1> the odd half is the switched pair
    al, be = math.sin(0.6), math.cos(0.6)
    pair = evolved(registers(angle_qubits(0.6)), 0.8)[1::2]
    expected = np.array([al, -1j * math.sin(0.8) * be, math.cos(0.8) * be, 0.0])
    assert np.allclose(pair, expected, atol=1e-14)


def test_a_control_in_zero_leaves_the_register_unchanged():
    rng = np.random.default_rng(17)
    a, b = _data_qubits(rng, 50)
    regs = kron_vectors(a, b, KET_0)
    out = evolved(regs, rng.uniform(-3 * math.pi, 3 * math.pi, 50))
    # the six amplitudes the switch does not move keep their bits; the two
    # it rotates, |011> and |101>, are zeros before and after (a rotated
    # zero may come out as -0.0)
    kept = [0, 1, 2, 4, 6, 7]
    assert out[:, kept].tobytes() == regs[:, kept].tobytes()
    assert np.all(out[:, [3, 5]] == 0) and np.all(regs[:, [3, 5]] == 0)


def test_the_odd_half_is_the_partial_trace_over_the_control():
    # the full 8 x 8 unitary is the independent route to the register
    rng = np.random.default_rng(23)
    a, b = _data_qubits(rng, 50)
    regs = kron_vectors(a, b, KET_1)
    t = rng.uniform(-3 * math.pi, 3 * math.pi, 50)
    full = (switch_unitaries(t) @ regs[..., None])[..., 0]
    traced = partial_traces(densities(full), 3, {2})
    odd = densities(evolved(regs, t)[..., 1::2])
    assert np.max(np.abs(odd - traced)) <= 1e-15
