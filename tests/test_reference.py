"""The matrix and density-matrix helpers of the tests' references
(``reference.py``)."""

import itertools
import math

import numpy as np
import pytest
from randstates import random_density, random_hermitian, random_pure
from reference import (
    HERMITIAN_ATOL,
    KET_0,
    KET_1,
    PAULI_Y,
    checked_density,
    dagger,
    densities,
    eigh,
    hermitian_deviation,
    hermitize,
    kron_vectors,
    normalized,
    partial_traces,
    require,
    require_finite,
)

from switchsim.channels import PAULI_X, PAULI_Z
from switchsim.switch import angle_qubits, evolved, registers

SQ2 = math.sqrt(2.0)


def test_adjoint_of_y_is_itself():
    assert np.array_equal(dagger(PAULI_Y), PAULI_Y)


def test_pauli_x_is_an_involution():
    assert np.array_equal(PAULI_X @ PAULI_X, np.eye(2))


def test_rejects_nan_entries():
    with pytest.raises(ValueError):
        require_finite(np.array([[np.nan, 0], [0, 1]]), "matrix entries")


def test_mismatched_products_raise_shape_errors():
    with pytest.raises(ValueError):
        np.zeros((2, 2)) @ np.zeros((3, 3))
    with pytest.raises(ValueError):
        np.zeros((2, 2)) + np.zeros((3, 3))


def test_predicates():
    assert hermitian_deviation(PAULI_Z) <= HERMITIAN_ATOL
    assert np.max(np.abs(dagger(PAULI_Y) @ PAULI_Y - np.eye(2))) <= 1e-12
    assert hermitian_deviation(np.array([[0, 1], [0, 0]])) > HERMITIAN_ATOL


def test_hermitian_deviation_and_hermitize_over_a_stack():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    deviation = hermitian_deviation(m)
    assert deviation.shape == (3,)
    for i in range(3):
        assert deviation[i] == hermitian_deviation(m[i])
        assert deviation[i] > HERMITIAN_ATOL
    h = hermitize(m)
    # h_ij and conj(h_ji) are the same two terms added, so the bits agree
    assert np.all(hermitian_deviation(h) == 0.0)
    assert np.array_equal(hermitize(h), h)
    assert np.array_equal(h - dagger(h), np.zeros_like(h))


def test_require_reports_the_first_failing_entry():
    values = np.array([[0.5, 2.0], [3.0, 0.25]])
    require(values < 5.0, values, "too big: {value}")
    with pytest.raises(ValueError, match=r"^too big: 2\.0$"):
        require(values < 1.0, values, "too big: {value}")
    # a scalar value broadcasts against the whole stack of checks
    with pytest.raises(ValueError, match=r"^bad: 7\.0$"):
        require(np.array([True, False]), 7.0, "bad: {value}")
    with pytest.raises(ValueError, match="NaN or Inf"):
        require_finite(np.array([1.0, np.inf]), "entries")


def test_eigensystem_of_pauli_z():
    w, _ = eigh(PAULI_Z)
    assert np.allclose(w, [-1, 1], atol=1e-14)


def test_eigensystem_of_bell_reduced_state():
    # tracing either qubit of (|00>+|11>)/sqrt(2) leaves I/2
    assert np.allclose(
        eigh(np.eye(2) / 2)[0], [0.5, 0.5], atol=1e-14
    )


def test_eigensystem_reconstructs_random_hermitian():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 4, 8):
        for _ in range(10):
            m = random_hermitian(rng, dim)
            w, v = eigh(m)
            rebuilt = (v * w) @ v.conj().T
            rel = np.linalg.norm(m - rebuilt) / np.linalg.norm(m)
            assert rel <= 1e-10
            assert np.all(np.diff(w) >= 0)
            assert abs(np.sum(w) - np.trace(m).real) <= 1e-10
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-12


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        eigh(np.array([[0, 1], [0, 0]], dtype=complex))


def test_kron_vectors_places_first_qubit_most_significant():
    reg = kron_vectors(np.array([0.6, 0.8], dtype=complex), KET_0, KET_1)
    assert reg.shape == (8,)
    # |A>|0>|1>: the |001> slot carries A's |0> amplitude
    assert reg[0b001] == pytest.approx(0.6)
    assert reg[0b101] == pytest.approx(0.8)


def test_kron_vectors_products():
    assert np.array_equal(kron_vectors(KET_0, KET_0), [1, 0, 0, 0])
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2.0)
    assert np.allclose(kron_vectors(plus, plus), [0.5] * 4, atol=1e-15)


def bell_state() -> np.ndarray:
    return normalized(np.array([1, 0, 0, 1], dtype=complex) / SQ2)


def _qubit(alpha, beta) -> np.ndarray:
    return normalized(np.array([alpha, beta], dtype=complex))


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


def test_normalized_validation():
    with pytest.raises(ValueError, match=r"^state is not normalized: sum \|amp\|\^2 = 2\.0$"):
        normalized(np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(ValueError, match="^amplitudes contain NaN or Inf$"):
        normalized(np.array([np.nan, 0.0], dtype=complex))
