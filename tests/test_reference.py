"""The matrix helpers of the tests' references (``reference.py``)."""

import numpy as np
import pytest
from randstates import random_hermitian
from reference import (
    HERMITIAN_ATOL,
    dagger,
    eigh,
    hermitian_deviation,
    hermitize,
    require,
    require_finite,
)

from switchsim.switch import PAULI_X, PAULI_Y, PAULI_Z


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
