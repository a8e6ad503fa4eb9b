"""Seeded random states and operators shared by the tests: amplitude
vectors and density matrices as plain arrays, checked as they are built."""

import numpy as np
from reference import checked_density, normalized


def random_pure(rng, n_qubits: int) -> np.ndarray:
    dim = 2**n_qubits
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return normalized(v / np.linalg.norm(v))


def random_density(rng, n_qubits: int, rank: int | None = None) -> np.ndarray:
    dim = 2**n_qubits
    rank = rank or dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return checked_density(m / np.trace(m).real)


def random_unitary(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng, dim: int) -> np.ndarray:
    g = rng.uniform(-1.0, 1.0, (dim, dim)) + 1j * rng.uniform(-1.0, 1.0, (dim, dim))
    return (g + g.conj().T) / 2
