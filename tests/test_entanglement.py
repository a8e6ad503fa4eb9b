import decimal
import math
import warnings

import numpy as np
import pytest
from randstates import random_density, random_pure, random_unitary
from reference import (
    SPIN_FLIP,
    apply_kraus,
    checked_density,
    concurrences,
    densities,
    entropies,
    iconcurrences,
    lifted_operators,
    normalized,
    partial_traces,
    uhlmann_concurrences,
)

from switchsim import channels as ch
from switchsim import cli
from switchsim import entanglement as ent
from switchsim.states import angle_qubits, kron_vectors
from switchsim.sweep import MEASURES
from switchsim.switch import switched_pairs

SQ2 = math.sqrt(2.0)
LN2 = math.log(2.0)


def bell_density() -> np.ndarray:
    return densities(normalized(np.array([1, 0, 0, 1], dtype=complex) / SQ2))


def pair(a: float, t: float) -> np.ndarray:
    return switched_pairs(angle_qubits(a), t)


def product(rng) -> np.ndarray:
    """A random product of two single-qubit states."""
    return normalized(kron_vectors(random_pure(rng, 1), random_pure(rng, 1)))


def amplitudes(a: float):
    return math.sin(a), math.cos(a)


def closed_schmidt(alpha0, beta0, t):
    """The Schmidt pair (lambda0, lambda1) of the closed (d, |r|), shape
    (2, ...)."""
    return np.sqrt(ent._reduced_spectrum(*ent.reduced_qubit_closed(alpha0, beta0, t)))


def closed_entropy(alpha0, beta0, t, base="e"):
    return ent.determinant_entropies(*ent.reduced_qubit_closed(alpha0, beta0, t), base)


# ---------------------------------------------------------------- Schmidt


def test_schmidt_of_maximally_swapped_pair():
    got = ent.schmidt_spectra(pair(0.0, math.pi / 4))  # beta = 1
    assert got[0] == pytest.approx(1 / SQ2, abs=1e-12)
    assert got[1] == pytest.approx(1 / SQ2, abs=1e-12)
    # beside the half swap, where the determinant is about 1/4 and |r|
    # about 0, lambda0 does not pass lambda1
    t = np.linspace(math.pi / 4 - 1e-6, math.pi / 4 + 1e-6, 2001)
    lam = ent.schmidt_spectra(switched_pairs(angle_qubits(np.zeros_like(t)), t))
    closed = closed_schmidt(np.zeros((1, 1)), np.ones((1, 1)), t)
    assert np.all(lam[:, 0] <= lam[:, 1]) and np.all(closed[0] <= closed[1])


def test_schmidt_of_product_states():
    rng = np.random.default_rng(3)
    got = ent.schmidt_spectra(product(rng))
    assert got[0] == pytest.approx(0.0, abs=1e-10)
    assert got[1] == pytest.approx(1.0, abs=1e-10)
    # the switch starts from a product state
    got = ent.schmidt_spectra(pair(0.9, 0.0))
    assert got[0] == 0.0


def test_schmidt_closed_reference_points():
    assert closed_schmidt(1.0, 0.0, 0.77).tolist() == [0.0, 1.0]
    got = closed_schmidt(0.0, 1.0, math.pi / 4)
    assert got[0] == pytest.approx(1 / SQ2, abs=1e-15)
    assert got[1] == pytest.approx(1 / SQ2, abs=1e-15)


def test_closed_pair_reference_points():
    # the pure product state, the half swap and a point between
    assert ent.reduced_qubit_closed(0.6, 0.8, 0.0) == (0.0, 1.0)
    d, r = ent.reduced_qubit_closed(0.0, 1.0, math.pi / 4)
    assert d == pytest.approx(0.25, abs=1e-16) and r == pytest.approx(0.0, abs=1e-16)
    al, be = amplitudes(0.9)
    d, r = ent.reduced_qubit_closed(al, be, 0.4)
    assert r * r + 4.0 * d == pytest.approx(1.0, abs=1e-15)


def test_reduced_qubits_are_those_of_the_formed_reduced_states():
    # pure pairs and Kraus ensembles of every channel on either qubit,
    # against the Bloch vector (tr rho X, tr rho Y, tr rho Z) of the formed
    # reduced state
    rng = np.random.default_rng(37)
    psi = np.stack([random_pure(rng, 2) for _ in range(40)])
    amps = angle_qubits(rng.uniform(-math.pi, math.pi, 40))
    t = rng.uniform(-3.0, 6.0, 40)
    ensembles = [psi[..., None]] + [
        ent.pair_ensembles(amps, t, ch.make_channel(kind, 0.3), qubit)
        for kind in ch.CHANNEL_KINDS for qubit in (0, 1)
    ]
    for xi in ensembles:
        rho = partial_traces(ent.ensemble_densities(xi), 2, {1})
        r = np.stack([2.0 * rho[..., 0, 1].real, -2.0 * rho[..., 0, 1].imag,
                      (rho[..., 0, 0] - rho[..., 1, 1]).real], axis=-1)
        d, length = ent.reduced_qubits(xi)
        assert np.array_equal(d, ent.reduced_determinants(xi))
        assert np.max(np.abs(length - np.linalg.norm(r, axis=-1))) <= 1e-14


def test_schmidt_numeric_matches_closed_form_on_grid():
    for a in np.linspace(0, math.pi / 2, 30):
        al, be = amplitudes(float(a))
        for t in np.linspace(0, math.pi / 2, 30):
            num = ent.schmidt_spectra(pair(float(a), float(t)))
            clo = closed_schmidt(al, be, float(t))
            assert abs(num[0] - clo[0]) <= 1e-10
            assert abs(num[1] - clo[1]) <= 1e-10
            assert abs(num[0]**2 + num[1]**2 - 1.0) <= 1e-10


# ------------------------------------------------------------------- PPT


def test_ppt_minimum_at_the_half_swap():
    spectrum = ent.ppt_spectra(densities(pair(0.0, math.pi / 4)))
    assert spectrum[0] == pytest.approx(-0.5, abs=1e-12)


def test_ppt_of_product_and_initial_states_is_nonnegative():
    rng = np.random.default_rng(5)
    assert ent.ppt_spectra(densities(product(rng)))[0] >= -1e-10
    assert ent.ppt_spectra(densities(pair(0.7, 0.0)))[0] >= -1e-10


def test_ppt_closed_reference_points():
    al, be = amplitudes(math.pi / 4)
    got = np.sort(np.array(ent.ppt_eigenvalues_closed(al, be, math.pi / 8)))
    assert got[0] == pytest.approx(-0.5 * math.sin(math.pi / 8) * math.cos(math.pi / 8), abs=1e-15)
    # the swap pair cancels, so the two trace-carrying eigenvalues add to one
    assert got[0] + got[2] == pytest.approx(0.0, abs=1e-15)
    assert got[1] + got[3] == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(
        sorted(ent.ppt_eigenvalues_closed(1.0, 0.0, 0.9)), [0, 0, 0, 1], atol=1e-15
    )


def test_ppt_numeric_matches_closed_form_on_grid():
    for a in np.linspace(0, math.pi / 2, 30):
        al, be = amplitudes(float(a))
        for t in np.linspace(0, math.pi / 2, 30):
            num = ent.ppt_spectra(densities(pair(float(a), float(t))))
            clo = np.sort(np.array(ent.ppt_eigenvalues_closed(al, be, float(t))))
            assert np.max(np.abs(num - clo)) <= 1e-10


# ----------------------------------------------------------- Concurrence


def test_concurrence_reference_values():
    assert float(concurrences(bell_density())) == pytest.approx(1.0, abs=1e-9)
    rng = np.random.default_rng(7)
    assert float(concurrences(densities(product(rng)))) <= 1e-9
    assert float(concurrences(densities(pair(math.pi / 4, math.pi / 4)))) == pytest.approx(
        0.5, abs=1e-9
    )


def test_concurrence_closed_reference_values():
    assert ent.concurrence_closed(0.8, 0.0) == 0.0
    assert ent.concurrence_closed(1.0, math.pi / 4) == pytest.approx(1.0)


def test_concurrence_numeric_matches_closed_form_on_grid():
    for a in np.linspace(0, math.pi / 2, 30):
        _, be = amplitudes(float(a))
        for t in np.linspace(0, math.pi / 2, 30):
            num = float(concurrences(densities(pair(float(a), float(t)))))
            assert abs(num - ent.concurrence_closed(be, float(t))) <= 1e-9


def test_concurrence_is_invariant_under_local_unitaries():
    rng = np.random.default_rng(11)
    for _ in range(10):
        rho = random_density(rng, 2, rank=int(rng.integers(1, 5)))
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = checked_density(u @ rho @ u.conj().T)
        assert abs(float(concurrences(rho)) - float(concurrences(rotated))) <= 1e-10


#: p at each end of [0, 1], the least subnormal, two interior values, the
#: middle and the last double below 1
CONCURRENCE_P = (0.0, 5e-324, 0.13, 0.5, 0.74, 1 - 1e-16, 1.0)
#: largest |ensemble_concurrences - uhlmann_concurrences| allowed; the
#: largest seen is 1.5 eps on the points below, under every kind on either
#: qubit at every p of CONCURRENCE_P, and 2.5 eps on 20,000 Gaussian
#: ensembles (numpy 2.4.6)
UHLMANN_BOUND = 4 * np.finfo(float).eps
#: rows of each block of _concurrence_points() where the concurrence is 0:
#: t = 0, where every branch is a product vector and tau is 0, and then
#: a = pi/2, where beta rounds to 6e-17
ZERO_ROWS = 50


def _concurrence_points():
    """(a, t): 2,000 seeded points of the domain the command line accepts,
    200 near-separable points each with a near pi/2 and with t near 0,
    200 near-maximal points (a near 0, t near pi/4), then ZERO_ROWS rows
    at t = 0 and ZERO_ROWS at a = pi/2."""
    rng = np.random.default_rng(2245)
    n, m, z = 2_000, 200, ZERO_ROWS
    half = math.pi / 2
    a = np.concatenate([rng.uniform(-math.pi, math.pi, n), half + rng.normal(0.0, 1e-6, m),
                        rng.uniform(-math.pi, math.pi, m), rng.normal(0.0, 1e-6, m),
                        rng.uniform(-math.pi, math.pi, z), np.full(z, half)])
    t = np.concatenate([rng.uniform(-math.pi, 2 * math.pi, n),
                        rng.uniform(-math.pi, 2 * math.pi, m), rng.normal(0.0, 1e-8, m),
                        math.pi / 4 + rng.normal(0.0, 1e-6, m), np.zeros(z),
                        rng.uniform(-math.pi, 2 * math.pi, z)])
    return a, t


def _law_zero(kind, p):
    """The channel's Choi concurrence is 0: it leaves no pair entangled."""
    return p == (0.5 if kind in ("PF", "BF") else 1.0)


@pytest.mark.parametrize("qubit", [0, 1])
@pytest.mark.parametrize("kind", ch.CHANNEL_KINDS)
def test_the_two_branch_gap_meets_the_svd_reference(kind, qubit):
    # the kernel reads sigma_1 - sigma_2 of the 2 x 2 tau from its gap;
    # the reference takes the SVD of the matrix product. A 0 / 0 where tau
    # is 0 would warn, which fails the test
    a, t = _concurrence_points()
    qubits = angle_qubits(a)
    for p in CONCURRENCE_P:
        xi = ent.pair_ensembles(qubits, t, ch.make_channel(kind, p), qubit)
        assert xi.shape == (len(a), 4, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel = ent.ensemble_concurrences(xi)
        assert np.max(np.abs(kernel - uhlmann_concurrences(xi))) <= UHLMANN_BOUND, p
        assert np.all(kernel[-2 * ZERO_ROWS:-ZERO_ROWS] == 0.0), p
        if _law_zero(kind, p):
            assert np.all(kernel == 0.0), p


@pytest.mark.parametrize("qubit", [0, 1])
@pytest.mark.parametrize("kind", ch.CHANNEL_KINDS)
def test_the_branches_on_the_qubit_axis_are_the_lifted_products(kind, qubit):
    # pair_ensembles applies each 2 x 2 operator on the noise qubit's axis;
    # the reference lifts it to 4 x 4 with np.kron and multiplies. The
    # ensembles are equal (== ignores the sign of a zero, which the two
    # may give apart), and the concurrence, the reduced determinant and
    # the ppt's least eigenvalue read from them keep every bit
    a, t = _concurrence_points()
    qubits = angle_qubits(a)
    rows = tuple(e[:, None] for e in ch.make_channel(kind, CONCURRENCE_P))
    xi = ent.pair_ensembles(qubits, t, rows, qubit)
    psi = switched_pairs(qubits, t)[..., None]
    lifted = np.concatenate([e @ psi for e in lifted_operators(rows, qubit, 2)], axis=-1)
    assert xi.shape == lifted.shape == (len(CONCURRENCE_P), len(a), 4, 2)
    assert np.array_equal(xi, lifted)
    for kernel in (ent.ensemble_concurrences, ent.reduced_determinants,
                   lambda x: ent.ppt_spectra(ent.ensemble_densities(x))[..., 0]):
        assert kernel(xi).tobytes() == kernel(lifted).tobytes()


@pytest.mark.parametrize("p", CONCURRENCE_P, ids=repr)
@pytest.mark.parametrize("qubit", [0, 1])
@pytest.mark.parametrize("kind", ch.CHANNEL_KINDS)
def test_one_value_of_p_branches_as_its_row_of_a_stack(kind, qubit, p):
    # one value of p gives (2, 2) operators with no leading axis: its
    # branches are the lifted products, and its row of the p stack bit for
    # bit, so the kernels read from the stack hold for it too
    a, t = _concurrence_points()
    qubits = angle_qubits(a)
    operators = ch.make_channel(kind, p)
    xi = ent.pair_ensembles(qubits, t, operators, qubit)
    psi = switched_pairs(qubits, t)[..., None]
    lifted = np.concatenate([e @ psi for e in lifted_operators(operators, qubit, 2)], axis=-1)
    assert xi.shape == lifted.shape == (len(a), 4, 2)
    assert np.array_equal(xi, lifted)
    rows = tuple(e[:, None] for e in ch.make_channel(kind, CONCURRENCE_P))
    row = ent.pair_ensembles(qubits, t, rows, qubit)[CONCURRENCE_P.index(p)]
    assert xi.tobytes() == row.tobytes()


def test_the_two_branch_gap_meets_the_svd_reference_on_gaussian_ensembles():
    rng = np.random.default_rng(2000)
    xi = rng.standard_normal((20_000, 4, 2)) + 1j * rng.standard_normal((20_000, 4, 2))
    xi /= np.sqrt(np.sum(np.abs(xi) ** 2, axis=(-2, -1)))[:, None, None]
    kernel = ent.ensemble_concurrences(xi)
    assert np.max(np.abs(kernel - uhlmann_concurrences(xi))) <= UHLMANN_BOUND


def test_one_branch_concurrence_has_the_bits_of_the_matrix_product():
    # tau = S + S^T is 2S, and the pair's last amplitude is 0, so the
    # product's four terms add to the same bits
    a, t = _concurrence_points()
    xi = ent.pair_ensembles(angle_qubits(a), t)
    product = np.abs((np.swapaxes(xi, -1, -2) @ SPIN_FLIP @ xi)[..., 0, 0])
    assert ent.ensemble_concurrences(xi).tobytes() == product.tobytes()


@pytest.mark.parametrize("branches", [1, 2])
def test_concurrence_reads_a_nan_as_nan(branches):
    rng = np.random.default_rng(3)
    xi = rng.standard_normal((5, 4, branches)) + 1j * rng.standard_normal((5, 4, branches))
    clean = ent.ensemble_concurrences(xi)
    xi[2, 1, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ent.ensemble_concurrences(xi)
    assert np.isnan(got[2])
    assert np.array_equal(np.delete(got, 2), np.delete(clean, 2))


@pytest.mark.parametrize("branches", [3, 4])
def test_concurrence_rejects_more_than_two_branches(branches):
    # the kernel reads only K = 1 and K = 2; a wider tau must not be read
    # from its corner
    xi = np.ones((3, 4, branches), dtype=complex)
    with pytest.raises(ValueError):
        ent.ensemble_concurrences(xi)
    assert uhlmann_concurrences(xi).shape == (3,)


# --------------------------------------------------------- I-concurrence


def test_iconcurrence_reference_values():
    rng = np.random.default_rng(13)
    # the rounding of the eigenvectors leaves about 7e-16 at a product state
    assert float(iconcurrences(densities(product(rng)))) <= 1e-15
    assert float(iconcurrences(bell_density())) == pytest.approx(1.0, abs=1e-12)


def test_iconcurrence_matches_its_closed_form_on_grid():
    for a in np.linspace(0, math.pi / 2, 30):
        al, be = amplitudes(float(a))
        for t in np.linspace(0, math.pi / 2, 30):
            num = float(iconcurrences(densities(pair(float(a), float(t)))))
            clo = 2.0 * math.sqrt(ent.reduced_qubit_closed(al, be, float(t))[0])
            assert abs(num - clo) <= 1e-10


def test_iconcurrence_traced_side_matters_only_for_mixed_states():
    rng = np.random.default_rng(17)
    rho = densities(random_pure(rng, 2))
    assert float(iconcurrences(rho, "A")) == pytest.approx(float(iconcurrences(rho, "B")),
                                                           abs=1e-12)
    with pytest.raises(ValueError):
        iconcurrences(rho, "C")


def test_noisy_closed_form_flip_endpoints_recover_the_clean_value():
    # a phase flip with certainty either way is a local unitary (or nothing)
    for a in np.linspace(0, math.pi / 2, 9):
        al, be = amplitudes(float(a))
        for t in np.linspace(0, math.pi / 2, 9):
            clean = 2.0 * math.sqrt(ent.reduced_qubit_closed(al, be, float(t))[0])
            for p in (0.0, 1.0):
                noisy = 2.0 * math.sqrt(ent.noisy_determinant_closed("PF", p, float(t), al, be))
                assert abs(noisy - clean) <= 1e-12


def test_noisy_closed_forms_match_the_numeric_pipeline():
    # 7 x 21 points (a outer, t fastest) as one stack per (kind, p), through
    # pair_ensembles, ensemble_densities and iconcurrences
    a_points = np.linspace(0, math.pi / 2, 7)
    t_points = np.linspace(0, math.pi / 2, 21)
    amps = angle_qubits(np.repeat(a_points, len(t_points)))
    t = np.tile(t_points, len(a_points))
    al, be = np.sin(a_points)[:, None], np.cos(a_points)[:, None]
    for kind in ch.CHANNEL_KINDS:
        for p in (0.0, 0.25, 0.5, 0.74, 1.0):
            operators = ch.make_channel(kind, p)
            rho = ent.ensemble_densities(ent.pair_ensembles(amps, t, operators, 0))
            num = iconcurrences(rho, "B")
            clo = 2.0 * np.sqrt(ent.noisy_determinant_closed(kind, p, t_points, al, be)).ravel()
            assert np.max(np.abs(num - clo)) <= 1e-9, (kind, p)


# ---------------------------------------------------------------- Entropy


def test_entropy_reference_values():
    rng = np.random.default_rng(19)
    assert float(entropies(densities(random_pure(rng, 2)))) == pytest.approx(0.0, abs=1e-12)
    mixed = checked_density(np.eye(2, dtype=complex) / 2)
    assert float(entropies(mixed)) == pytest.approx(LN2, abs=1e-14)
    assert float(entropies(mixed, log_base="2")) == pytest.approx(1.0, abs=1e-14)


def test_entropy_of_the_half_swapped_pair():
    rho = densities(pair(0.0, math.pi / 4))
    reduced = partial_traces(rho, 2, {1})
    assert np.allclose(np.linalg.eigvalsh(reduced), [0.5, 0.5], atol=1e-12)
    assert float(entropies(reduced)) == pytest.approx(LN2, abs=1e-12)


def test_entropy_is_unitarily_invariant():
    rng = np.random.default_rng(23)
    for _ in range(10):
        rho = random_density(rng, 2, rank=int(rng.integers(1, 5)))
        u = random_unitary(rng, 4)
        rotated = checked_density(u @ rho @ u.conj().T)
        assert abs(float(entropies(rho)) - float(entropies(rotated))) <= 1e-10


def test_reduced_entropy_closed_reference_points():
    al, be = amplitudes(0.9)
    assert closed_entropy(al, be, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert closed_entropy(0.0, 1.0, math.pi / 4) == pytest.approx(LN2, abs=1e-12)
    lam0, lam1 = ent._reduced_spectrum(*ent.reduced_qubit_closed(al, be, 0.62))
    assert lam0 + lam1 == pytest.approx(1.0, abs=1e-15)


def test_determinant_entropies_match_the_eigensolve_over_the_range():
    # diag(p, 1 - p) has determinant p (1 - p) and Bloch length 1 - 2p; the
    # ends are the pure state (exactly 0) and the maximally mixed one, and a
    # determinant rounded above 1/4 stays within rounding of the maximum
    p = np.concatenate([[0.0, 1e-300, 1e-17, 0.5], np.linspace(0.0, 0.5, 41)])
    rho = np.zeros(p.shape + (2, 2))
    rho[:, 0, 0], rho[:, 1, 1] = p, 1.0 - p
    for base, full in (("e", LN2), ("2", 1.0)):
        kernel = ent.determinant_entropies(p * (1.0 - p), 1.0 - 2.0 * p, base)
        assert np.max(np.abs(kernel - entropies(rho, base))) <= 1e-14, base
        assert kernel[0] == 0.0 and kernel[1] > 0.0 and kernel[2] > 0.0, base
        assert ent.determinant_entropies(0.25, 0.0, base) == full, base
        above = ent.determinant_entropies(0.25 + 1e-16, 0.0, base)
        assert abs(above - full) <= 2.0 * np.spacing(full), base


#: the kernel's largest relative error against a 60-digit reference; about
#: 3.6e-16 is seen on the grid below, and 2.6e-2 was seen before the large
#: root's log became log1p(-l0)
ENTROPY_REL_BOUND = 2e-15


_CTX = decimal.Context(prec=60)


def _decimal_bloch_length(d: float) -> decimal.Decimal:
    """|r| = sqrt(1 - 4d) of the unit-trace state with determinant d, from
    the exact binary value of d."""
    return _CTX.sqrt(1 - 4 * decimal.Decimal(d))


def _decimal_entropy(d: float) -> decimal.Decimal:
    """The entropy in nats of the spectrum of l^2 - l + d, in 60-digit
    decimal arithmetic from the exact binary value of d."""
    # the small root without cancellation: (1 - r)/2 loses it below 1e-60
    l0 = _CTX.divide(2 * decimal.Decimal(d), 1 + _decimal_bloch_length(d))
    l1 = _CTX.subtract(1, l0)
    small = -l0 * _CTX.ln(l0) if l0 > 0 else decimal.Decimal(0)
    if l0 < decimal.Decimal("1e-10"):
        # -ln(1 - l0) as its series, since l1 keeps too few digits of l0
        large = l1 * sum(_CTX.divide(_CTX.power(l0, k), k) for k in range(1, 8))
    else:
        large = -l1 * _CTX.ln(l1)
    return _CTX.add(small, large)


def test_determinant_entropies_meet_a_decimal_reference():
    # a log grid down to 1e-300, where l1 rounds to 1, a linear one up to
    # the maximally mixed 1/4, and d whose entropy is 0 or subnormal; each
    # with its Bloch length rounded from the reference's
    d = np.concatenate([[0.0, 5e-324, 1e-310], np.geomspace(1e-300, 0.25, 3000),
                        np.linspace(0.0, 0.25, 501)[1:]])
    r = np.array([float(_decimal_bloch_length(x)) for x in d.tolist()])
    nats = [_decimal_entropy(x) for x in d.tolist()]
    ln2 = _CTX.ln(2)
    tiny = np.finfo(float).tiny
    for base, ref in (("e", nats), ("2", [_CTX.divide(s, ln2) for s in nats])):
        want = np.array([float(s) for s in ref])
        err = np.abs(ent.determinant_entropies(d, r, base) - want)
        # a subnormal value has fewer digits, so it is held in absolute terms
        normal = want >= tiny
        assert np.max(err[normal] / want[normal]) <= ENTROPY_REL_BOUND, base
        assert np.max(err[~normal]) <= ENTROPY_REL_BOUND * tiny, base


#: the largest absolute error of the Schmidt coefficient and the entropy,
#: on either route, against a 60-digit reference near maximal
#: entanglement; about 4.4e-16 is seen, and 5e-9 was seen when the
#: spectrum took sqrt(1 - 4d)
NEAR_MAXIMAL_BOUND = 1e-15


def _decimal_sin_cos(x: float):
    """(sin x, cos x) of the exact binary value of x, |x| <= 1, by their
    series in 60-digit decimal arithmetic."""
    with decimal.localcontext(_CTX):
        x = decimal.Decimal(x)
        terms, term = [], decimal.Decimal(1)
        for k in range(60):  # x^k / k!
            terms.append(term)
            term = term * x / (k + 1)
        sin = sum(terms[1::4]) - sum(terms[3::4])
        cos = sum(terms[0::4]) - sum(terms[2::4])
    return sin, cos


def _decimal_schmidt_entropy(alpha0: float, beta0: float, t: float):
    """(lambda0, entropy in nats) of the switched pair (alpha0,
    -i sin(t) beta0, cos(t) beta0, 0), in 60-digit decimal arithmetic from
    the exact binary values of its inputs: the spectrum of the first
    qubit's reduced state, the roots of l^2 - tr l + d."""
    with decimal.localcontext(_CTX):
        s, c = _decimal_sin_cos(t)
        x, y = decimal.Decimal(alpha0) ** 2, decimal.Decimal(beta0) ** 2
        d = (s * c * y) ** 2
        trace = x + y
        l0 = 2 * d / (trace + (trace * trace - 4 * d).sqrt())
        l1 = trace - l0
        return l0.sqrt(), -l0 * l0.ln() - l1 * l1.ln()


def test_schmidt_and_entropy_routes_meet_a_decimal_reference_near_maximal_entanglement():
    # |a| < 1e-6 and |t - pi/4| < 1e-7, where d is about 1/4 and |r| about
    # 0, with the exact half swap and the grid of a = 1e-8 below
    rng = np.random.default_rng(18)
    a = np.concatenate([[0.0, 1e-8, -1e-8], rng.uniform(-1e-6, 1e-6, 300)])
    t = np.concatenate([[math.pi / 4] * 3, math.pi / 4 + rng.uniform(-1e-7, 1e-7, 300)])
    alpha0, beta0 = np.sin(a), np.cos(a)
    want = np.array([_decimal_schmidt_entropy(*point) for point in
                     zip(alpha0.tolist(), beta0.tolist(), t.tolist())], dtype=float)
    for column, name in enumerate(("schmidt", "entropy")):
        m = MEASURES[name]
        for route in (m.numeric(a, t, None, None, "e"), m.closed(alpha0, beta0, t, "e")):
            assert np.max(np.abs(route - want[:, column])) <= NEAR_MAXIMAL_BOUND, name


def test_the_schmidt_sweep_near_maximal_entanglement_prints_no_error(capsys):
    argv = ["sweep", "--measure", "schmidt", "--a", "1e-08", "--t-min", "0.7853981633974483",
            "--t-max", "0.7853981633984483", "--t-steps", "5", "--compare"]
    assert cli.main(argv) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 5
    for _, _, value, closed, abs_err in rows:
        assert value == closed == "0.707106776187"
        assert float(abs_err) <= NEAR_MAXIMAL_BOUND


def test_determinant_entropies_read_a_nan_determinant_or_length_as_nan():
    d = np.array([0.1, math.nan, 0.0, 0.25, 0.1])
    r = np.array([math.sqrt(0.6), 0.5, 1.0, 0.0, math.nan])
    for base in ("e", "2"):
        s = ent.determinant_entropies(d, r, base)
        assert math.isnan(s[1]) and math.isnan(s[4]), base
        assert np.all(np.isfinite(s[[0, 2, 3]])), base


def test_reduced_entropy_matches_numeric_on_grid():
    for a in np.linspace(0, math.pi / 2, 20):
        al, be = amplitudes(float(a))
        for t in np.linspace(0, math.pi / 2, 20):
            reduced = partial_traces(densities(pair(float(a), float(t))), 2, {1})
            num = float(entropies(reduced))
            assert abs(num - closed_entropy(al, be, float(t))) <= 1e-10
            num2 = float(entropies(reduced, log_base="2"))
            assert abs(num2 - closed_entropy(al, be, float(t), "2")) <= 1e-10


def _side_entropies(rho):
    """(S(rho_A), S(rho_B)) of a 2-qubit density matrix."""
    return tuple(float(entropies(partial_traces(rho, 2, {q}))) for q in (1, 0))


def test_entropy_symmetry_for_pure_joint_states():
    s_a, s_b = _side_entropies(bell_density())
    assert s_a == pytest.approx(LN2, abs=1e-12)
    assert s_b == pytest.approx(LN2, abs=1e-12)
    rng = np.random.default_rng(29)
    assert _side_entropies(densities(product(rng))) == pytest.approx((0.0, 0.0), abs=1e-10)
    for _ in range(10):
        a = float(rng.uniform(0, math.pi / 2))
        t = float(rng.uniform(0, math.pi / 2))
        s_a, s_b = _side_entropies(densities(pair(a, t)))
        assert abs(s_a - s_b) <= 1e-10


def test_entropy_symmetry_fails_for_mixed_joint_states():
    # S(rho_A) = S(rho_B) needs a pure joint state: |0><0| x I/2 has a pure
    # side and a maximally mixed one
    s_a, s_b = _side_entropies(checked_density(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)))
    assert s_a == pytest.approx(0.0, abs=1e-12)
    assert s_b == pytest.approx(LN2, abs=1e-12)
    # amplitude damping on qubit A of the half-swapped pair mixes it, and the
    # sides part; the clean pair's sides agree to rounding
    rho = densities(pair(math.pi / 4, math.pi / 4))
    s_a, s_b = _side_entropies(rho)
    assert abs(s_a - s_b) <= 1e-10
    noisy = apply_kraus(rho, lifted_operators(ch.make_channel("AD", 0.5), 0, 2))
    s_a, s_b = _side_entropies(noisy)
    assert abs(s_a - s_b) > 1e-2


# ------------------------------------------------- Cross-measure checks


def test_pure_state_measures_agree():
    rng = np.random.default_rng(31)
    for _ in range(25):
        psi = random_pure(rng, 2)
        rho = densities(psi)
        schmidt = ent.schmidt_spectra(psi)
        c = float(concurrences(rho))
        ic = float(iconcurrences(rho))
        assert abs(c - ic) <= 1e-9
        assert abs(c - 2 * schmidt[0] * schmidt[1]) <= 1e-9


def test_detection_agreement_across_the_grid():
    # the 50 x 50 grid as one stack, a outer, t fastest
    grid = np.linspace(0, math.pi / 2, 50)
    psi = switched_pairs(angle_qubits(np.repeat(grid, 50)), np.tile(grid, 50))
    rho = densities(psi)
    ppt_says = ent.ppt_spectra(rho)[:, 0] < -1e-9
    schmidt_says = ent.schmidt_spectra(psi)[:, 0] > 1e-9
    concurrence_says = concurrences(rho) > 1e-9
    assert np.array_equal(ppt_says, schmidt_says)
    assert np.array_equal(schmidt_says, concurrence_says)
    assert ppt_says.any() and not ppt_says.all()


def test_every_measure_vanishes_at_the_endpoints():
    for a in np.linspace(0, math.pi / 2, 25):
        for t in (0.0, math.pi / 2):
            psi = pair(float(a), t)
            rho = densities(psi)
            assert concurrences(rho) <= 1e-9
            assert iconcurrences(rho) <= 1e-9
            assert entropies(partial_traces(rho, 2, {1})) <= 1e-9
            assert ent.schmidt_spectra(psi)[0] <= 1e-9
            assert ent.ppt_spectra(rho)[0] >= -1e-9
