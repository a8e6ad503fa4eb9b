import itertools
import math

import numpy as np
import pytest
from randstates import random_density, random_pure
from reference import checked_density, densities, normalized, partial_traces

from switchsim.states import angle_qubits, kron_vectors, partial_transposes
from switchsim.switch import KET_0, KET_1, evolved, registers, switch_unitaries

SQ2 = math.sqrt(2.0)


def bell_state() -> np.ndarray:
    return normalized(np.array([1, 0, 0, 1], dtype=complex) / SQ2)


def _qubit(alpha, beta) -> np.ndarray:
    return normalized(np.array([alpha, beta], dtype=complex))


def test_angle_qubits():
    assert np.allclose(angle_qubits(0.0), [0, 1], atol=1e-15)
    assert np.allclose(angle_qubits(math.pi / 2), [1, 0], atol=1e-15)
    assert np.allclose(angle_qubits(math.pi / 4), [SQ2 / 2, SQ2 / 2], atol=1e-15)


def test_kron_vectors_places_first_qubit_most_significant():
    reg = kron_vectors(_qubit(0.6, 0.8), KET_0, KET_1)
    assert reg.shape == (8,)
    # |A>|0>|1>: the |001> slot carries A's |0> amplitude
    assert reg[0b001] == pytest.approx(0.6)
    assert reg[0b101] == pytest.approx(0.8)


def test_kron_vectors_products():
    assert np.array_equal(kron_vectors(KET_0, KET_0), [1, 0, 0, 0])
    plus = _qubit(1 / SQ2, 1 / SQ2)
    assert np.allclose(kron_vectors(plus, plus), [0.5] * 4, atol=1e-15)


def test_densities():
    assert np.array_equal(densities(KET_0), np.diag([1.0, 0.0]))
    plus = _qubit(1 / SQ2, 1 / SQ2)
    assert np.allclose(densities(plus), np.full((2, 2), 0.5), atol=1e-15)
    epr = densities(bell_state())
    assert epr[0, 0] == epr[0, 3] == epr[3, 0] == epr[3, 3] == pytest.approx(0.5)
    # projector: rho^2 = rho
    assert np.max(np.abs(epr @ epr - epr)) < 1e-12


def test_checked_density_validation():
    with pytest.raises(ValueError, match=r"^density matrix trace is 2\.0, expected 1$"):
        checked_density(np.diag([1.0, 1.0]))
    with pytest.raises(ValueError, match="^density matrix is not Hermitian: max "
                                         r"\|M - M\^dagger\| entry is 5\.000e-01$"):
        checked_density(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="^density matrix is not PSD: min eigenvalue -5.000e-01$"):
        checked_density(np.diag([1.5, -0.5]))


def test_partial_trace_of_bell_state_is_maximally_mixed():
    rho = densities(bell_state())
    for q in (0, 1):
        assert np.allclose(partial_traces(rho, 2, {q}), np.eye(2) / 2, atol=1e-15)


def test_partial_trace_of_switched_register():
    # the switch run on |A>|0>|1> leaves the pair (a, -i sin t b, cos t b, 0)
    a, t = 0.6, 0.8
    al, be = math.sin(a), math.cos(a)
    reg = evolved(registers(angle_qubits(a)), t)
    v = np.array([al, -1j * math.sin(t) * be, math.cos(t) * be, 0.0])
    rho = partial_traces(densities(reg), 3, {2})
    assert np.allclose(rho, np.outer(v, v.conj()), atol=1e-14)

    reduced = partial_traces(rho, 2, {1})
    expected = np.array(
        [
            [al**2 + (math.sin(t) * be) ** 2, math.cos(t) * be * al],
            [al * math.cos(t) * be, (math.cos(t) * be) ** 2],
        ]
    )
    assert np.allclose(reduced, expected, atol=1e-14)


def test_partial_trace_rejects_bad_discard_sets():
    rho = densities(bell_state())
    with pytest.raises(ValueError):
        partial_traces(rho, 2, set())
    with pytest.raises(ValueError):
        partial_traces(rho, 2, {0, 1})
    with pytest.raises(ValueError):
        partial_traces(rho, 2, {5})


def test_partial_trace_of_product_recovers_factor():
    rng = np.random.default_rng(3)
    for _ in range(10):
        psi1, psi2 = random_pure(rng, 1), random_pure(rng, 1)
        rho = densities(normalized(kron_vectors(psi1, psi2)))
        assert np.allclose(partial_traces(rho, 2, {1}), densities(psi1), atol=1e-12)


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
                got = partial_traces(rho, n, set(discard))
                assert np.array_equal(got, _partial_trace_loop(rho, n, set(discard)))


def test_partial_transpose_leaves_diagonal_states_alone():
    rho = checked_density(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    for q in (0, 1):
        assert np.array_equal(partial_transposes(rho, q), rho)


def test_partial_transpose_matches_reference_on_switched_pair():
    a, t = 0.6, 0.8
    al, be = math.sin(a), math.cos(a)
    s, c = math.sin(t), math.cos(t)
    v = np.array([al, -1j * s * be, c * be, 0.0])
    rho = checked_density(np.outer(v, v.conj()))
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
    pt0 = partial_transposes(rho, 0)
    pt1 = partial_transposes(rho, 1)
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
        rho = densities(random_pure(rng, 2))
        for q in (0, 1):
            assert np.array_equal(partial_transposes(rho, q), _pt_oracle(rho, q))


def test_partial_transpose_is_an_involution():
    rng = np.random.default_rng(6)
    for _ in range(10):
        rho = densities(random_pure(rng, 2))
        for q in (0, 1):
            once = partial_transposes(rho, q)
            assert np.array_equal(_pt_oracle(once, q), rho)
    # through the density-matrix check when the intermediate stays a valid state
    rho = densities(normalized(kron_vectors(_qubit(0.6, 0.8), _qubit(1 / SQ2, 1j / SQ2))))
    for q in (0, 1):
        once = partial_transposes(rho, q)
        assert np.array_equal(partial_transposes(checked_density(once), q), rho)


def test_partial_transpose_of_bell_state_has_negative_eigenvalue():
    rho = densities(bell_state())
    w = np.linalg.eigvalsh(partial_transposes(rho, 1))
    assert w[0] == pytest.approx(-0.5, abs=1e-12)


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


def test_normalized_validation():
    with pytest.raises(ValueError, match=r"^state is not normalized: sum \|amp\|\^2 = 2\.0$"):
        normalized(np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(ValueError, match="^amplitudes contain NaN or Inf$"):
        normalized(np.array([np.nan, 0.0], dtype=complex))
