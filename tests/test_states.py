import itertools
import math

import numpy as np
import pytest
from randstates import random_density, random_pure

from switchsim.states import (
    DensityMatrix,
    PureState,
    angle_qubits,
    densities,
    kron_vectors,
    make_qubit,
    partial_trace,
    partial_traces,
    partial_transpose,
    qubit_from_angle,
    tensor,
    to_density,
)
from switchsim.switch import KET_0, KET_1, evolved, registers, switch_unitaries

SQ2 = math.sqrt(2.0)


def bell_state() -> PureState:
    return PureState(2, np.array([1, 0, 0, 1]) / SQ2)


def test_make_qubit_basis_states():
    assert np.array_equal(make_qubit(1, 0).amplitudes, [1, 0])
    assert np.array_equal(make_qubit(0, 1).amplitudes, [0, 1])
    plus = make_qubit(1 / SQ2, 1 / SQ2)
    assert abs(np.sum(np.abs(plus.amplitudes) ** 2) - 1) < 1e-15


def test_make_qubit_rejects_unnormalized():
    with pytest.raises(ValueError, match="0.5"):
        make_qubit(0.5, 0.5)


def test_qubit_from_angle():
    assert np.allclose(qubit_from_angle(0.0).amplitudes, [0, 1], atol=1e-15)
    assert np.allclose(qubit_from_angle(math.pi / 2).amplitudes, [1, 0], atol=1e-15)
    assert np.allclose(qubit_from_angle(math.pi / 4).amplitudes, [SQ2 / 2, SQ2 / 2], atol=1e-15)


def test_tensor_places_first_qubit_most_significant():
    a = make_qubit(0.6, 0.8)
    reg = tensor([a, make_qubit(1, 0), make_qubit(0, 1)])
    assert reg.n_qubits == 3
    # |A>|0>|1>: the |001> slot carries A's |0> amplitude
    assert reg.amplitudes[0b001] == pytest.approx(0.6)
    assert reg.amplitudes[0b101] == pytest.approx(0.8)


def test_tensor_products():
    zz = tensor([make_qubit(1, 0), make_qubit(1, 0)])
    assert np.array_equal(zz.amplitudes, [1, 0, 0, 0])
    plus = make_qubit(1 / SQ2, 1 / SQ2)
    assert np.allclose(tensor([plus, plus]).amplitudes, [0.5] * 4, atol=1e-15)
    with pytest.raises(ValueError):
        tensor([])


def test_to_density():
    assert np.array_equal(to_density(make_qubit(1, 0)).matrix, np.diag([1.0, 0.0]))
    plus = make_qubit(1 / SQ2, 1 / SQ2)
    assert np.allclose(to_density(plus).matrix, np.full((2, 2), 0.5), atol=1e-15)
    epr = to_density(bell_state()).matrix
    assert epr[0, 0] == epr[0, 3] == epr[3, 0] == epr[3, 3] == pytest.approx(0.5)
    # projector: rho^2 = rho
    assert np.max(np.abs(epr @ epr - epr)) < 1e-12


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(1, np.diag([1.0, 1.0]))
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(1, np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="PSD"):
        DensityMatrix(1, np.diag([1.5, -0.5]))


def test_partial_trace_of_bell_state_is_maximally_mixed():
    rho = to_density(bell_state())
    for q in (0, 1):
        assert np.allclose(partial_trace(rho, {q}).matrix, np.eye(2) / 2, atol=1e-15)


def test_partial_trace_of_switched_register():
    # the switch run on |A>|0>|1> leaves the pair (a, -i sin t b, cos t b, 0)
    from switchsim.switch import evolve

    a, t = 0.6, 0.8
    al, be = math.sin(a), math.cos(a)
    reg = evolve(tensor([qubit_from_angle(a), make_qubit(1, 0), make_qubit(0, 1)]), t)
    v = np.array([al, -1j * math.sin(t) * be, math.cos(t) * be, 0.0])
    rho = partial_trace(to_density(reg), {2})
    assert np.allclose(rho.matrix, np.outer(v, v.conj()), atol=1e-14)

    reduced = partial_trace(rho, {1})
    expected = np.array(
        [
            [al**2 + (math.sin(t) * be) ** 2, math.cos(t) * be * al],
            [al * math.cos(t) * be, (math.cos(t) * be) ** 2],
        ]
    )
    assert np.allclose(reduced.matrix, expected, atol=1e-14)


def test_partial_trace_rejects_bad_discard_sets():
    rho = to_density(bell_state())
    with pytest.raises(ValueError):
        partial_trace(rho, set())
    with pytest.raises(ValueError):
        partial_trace(rho, {0, 1})
    with pytest.raises(ValueError):
        partial_trace(rho, {5})


def test_partial_trace_of_product_recovers_factor():
    rng = np.random.default_rng(3)
    for _ in range(10):
        psi1, psi2 = random_pure(rng, 1), random_pure(rng, 1)
        rho = to_density(tensor([psi1, psi2]))
        assert np.allclose(
            partial_trace(rho, {1}).matrix, to_density(psi1).matrix, atol=1e-12
        )


def _partial_trace_loop(m, n, discard):
    # reference: sum the matrix entries over basis indices, one index at a time
    keep = [q for q in range(n) if q not in discard]
    dropped = sorted(discard)

    def index(kept_bits, dropped_bits):
        i = 0
        for q, b in list(zip(keep, kept_bits)) + list(zip(dropped, dropped_bits)):
            i |= b << (n - 1 - q)
        return i

    def bits(value, width):
        return [(value >> (width - 1 - j)) & 1 for j in range(width)]

    out = np.zeros((2 ** len(keep),) * 2, dtype=complex)
    for r in range(2 ** len(keep)):
        for c in range(2 ** len(keep)):
            for e in range(2 ** len(dropped)):
                d = bits(e, len(dropped))
                out[r, c] += m[index(bits(r, len(keep)), d), index(bits(c, len(keep)), d)]
    return out


def test_partial_trace_matches_index_loop_reference():
    rng = np.random.default_rng(4)
    for n in (2, 3):
        rho = random_density(rng, n)
        for size in range(1, n):
            for discard in itertools.combinations(range(n), size):
                got = partial_trace(rho, set(discard)).matrix
                assert np.array_equal(got, _partial_trace_loop(rho.matrix, n, set(discard)))


def test_partial_transpose_leaves_diagonal_states_alone():
    rho = DensityMatrix(2, np.diag([0.4, 0.3, 0.2, 0.1]))
    for q in (0, 1):
        assert np.array_equal(partial_transpose(rho, q), rho.matrix)


def test_partial_transpose_matches_reference_on_switched_pair():
    a, t = 0.6, 0.8
    al, be = math.sin(a), math.cos(a)
    s, c = math.sin(t), math.cos(t)
    v = np.array([al, -1j * s * be, c * be, 0.0])
    rho = DensityMatrix(2, np.outer(v, v.conj()))
    expected = np.array(
        [
            [al**2, 1j * s * be * al, al * c * be, 1j * s * be * c * be],
            [-1j * al * s * be, (s * be) ** 2, 0, 0],
            [c * be * al, 0, (c * be) ** 2, 0],
            [-1j * c * be * s * be, 0, 0, 0],
        ]
    )
    # transposing the first qubit produces the reference matrix; transposing
    # the second gives its transpose, so the two share one spectrum
    pt0 = partial_transpose(rho, 0)
    pt1 = partial_transpose(rho, 1)
    assert np.allclose(pt0, expected, atol=1e-14)
    assert np.allclose(pt1, expected.T, atol=1e-14)
    assert np.allclose(np.linalg.eigvalsh(pt0), np.linalg.eigvalsh(pt1), atol=1e-14)


def _pt_oracle(m, qubit):
    # independent reshape-based partial transpose
    r = m.reshape(2, 2, 2, 2)  # (a, b, a', b')
    r = r.transpose(2, 1, 0, 3) if qubit == 0 else r.transpose(0, 3, 2, 1)
    return r.reshape(4, 4)


def test_partial_transpose_matches_reshape_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        rho = to_density(random_pure(rng, 2))
        for q in (0, 1):
            assert np.array_equal(partial_transpose(rho, q), _pt_oracle(rho.matrix, q))


def test_partial_transpose_is_an_involution():
    rng = np.random.default_rng(6)
    for _ in range(10):
        rho = to_density(random_pure(rng, 2))
        for q in (0, 1):
            once = partial_transpose(rho, q)
            assert np.array_equal(_pt_oracle(once, q), rho.matrix)
    # through the public type when the intermediate stays a valid state
    rho = to_density(tensor([make_qubit(0.6, 0.8), make_qubit(1 / SQ2, 1j / SQ2)]))
    for q in (0, 1):
        once = partial_transpose(rho, q)
        assert np.array_equal(partial_transpose(DensityMatrix(2, once), q), rho.matrix)


def test_partial_transpose_of_bell_state_has_negative_eigenvalue():
    rho = to_density(bell_state())
    w = np.linalg.eigvalsh(partial_transpose(rho, 1))
    assert w[0] == pytest.approx(-0.5, abs=1e-12)


def test_partial_transpose_rejects_wrong_arity():
    rho = to_density(make_qubit(1, 0))
    with pytest.raises(ValueError):
        partial_transpose(rho, 0)


def _data_qubits(rng, n):
    """n random pairs of data qubits |a>, |b> as two (n, 2) stacks."""
    a = np.stack([random_pure(rng, 1).amplitudes for _ in range(2 * n)])
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


def test_pure_state_validation():
    with pytest.raises(ValueError, match="normalized"):
        PureState(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="amplitudes"):
        PureState(2, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="NaN"):
        PureState(1, np.array([np.nan, 0.0]))


def test_states_are_immutable():
    psi = make_qubit(1, 0)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0
    rho = to_density(psi)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.0
