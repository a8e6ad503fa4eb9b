import numpy as np
import pytest
from randstates import random_hermitian

from switchsim import linalg
from switchsim.switch import PAULI_X, PAULI_Y, PAULI_Z, IDENTITY_2


def test_adjoint_of_y_is_itself():
    assert np.array_equal(linalg.dagger(PAULI_Y), PAULI_Y)


def test_pauli_x_is_an_involution():
    assert np.array_equal(PAULI_X @ PAULI_X, np.eye(2))


def test_rejects_nan_entries():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.array([[np.nan, 0], [0, 1]]))


def test_mismatched_products_raise_shape_errors():
    with pytest.raises(ValueError):
        np.zeros((2, 2)) @ np.zeros((3, 3))
    with pytest.raises(ValueError):
        np.zeros((2, 2)) + np.zeros((3, 3))


def test_predicates():
    assert linalg.is_hermitian(PAULI_Z)
    assert linalg.is_unitary(PAULI_Y)
    assert not linalg.is_hermitian(np.array([[0, 1], [0, 0]]))


def test_kron_identities():
    assert np.array_equal(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))
    ket0 = np.array([[1], [0]])
    ket1 = np.array([[0], [1]])
    assert np.array_equal(linalg.kron(ket0, ket1).ravel(), [0, 1, 0, 0])
    assert np.array_equal(linalg.kron(PAULI_Z, IDENTITY_2), np.diag([1, 1, -1, -1]))


def test_kron_bilinear_and_associative():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
        s = complex(rng.standard_normal(), rng.standard_normal())
        assert np.allclose(linalg.kron(s * a + b, c), s * linalg.kron(a, c) + linalg.kron(b, c), atol=1e-14)
        assert np.allclose(
            linalg.kron(linalg.kron(a, b), c), linalg.kron(a, linalg.kron(b, c)), atol=1e-14
        )
    # exact associativity on the dyadic entries the gate constants use
    for _ in range(20):
        a, b, c = (
            rng.choice([0.0, 1.0, -1.0, 0.5], (2, 2))
            + 1j * rng.choice([0.0, 1.0, -1.0, 0.5], (2, 2))
            for _ in range(3)
        )
        assert np.array_equal(
            linalg.kron(linalg.kron(a, b), c), linalg.kron(a, linalg.kron(b, c))
        )


def test_eigensystem_of_pauli_z():
    sys = linalg.hermitian_eigensystem(PAULI_Z)
    assert np.allclose(sys.eigenvalues, [-1, 1], atol=1e-14)


def test_eigensystem_of_bell_reduced_state():
    # tracing either qubit of (|00>+|11>)/sqrt(2) leaves I/2
    assert np.allclose(
        linalg.hermitian_eigensystem(np.eye(2) / 2).eigenvalues, [0.5, 0.5], atol=1e-14
    )


def test_eigensystem_reconstructs_random_hermitian():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 4, 8):
        for _ in range(10):
            m = random_hermitian(rng, dim)
            sys = linalg.hermitian_eigensystem(m)
            v = sys.eigenvectors
            rebuilt = (v * sys.eigenvalues) @ v.conj().T
            rel = np.linalg.norm(m - rebuilt) / np.linalg.norm(m)
            assert rel <= 1e-10
            assert np.all(np.diff(sys.eigenvalues) >= 0)
            assert abs(np.sum(sys.eigenvalues) - np.trace(m).real) <= 1e-10
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-12


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        linalg.hermitian_eigensystem(np.array([[0, 1], [0, 0]], dtype=complex))


def test_psd_sqrt_identity_and_diagonal():
    assert np.allclose(linalg.psd_sqrt(np.eye(4)), np.eye(4), atol=1e-14)
    assert np.allclose(linalg.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)


def test_psd_sqrt_fixes_pure_projectors():
    v = np.array([0.6, 0.8j])
    rho = np.outer(v, v.conj())
    assert np.allclose(linalg.psd_sqrt(rho), rho, atol=1e-12)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(13)
    for dim in (2, 4, 8):
        for _ in range(10):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = g.conj().T @ g
            s = linalg.psd_sqrt(m)
            assert np.linalg.norm(s @ s - m) <= 1e-9
            assert linalg.is_hermitian(s)


def test_psd_sqrt_rejects_negative():
    with pytest.raises(ValueError, match="positive semidefinite"):
        linalg.psd_sqrt(np.diag([1.0, -1e-6]))
