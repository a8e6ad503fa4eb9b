import math

import numpy as np
import pytest
from randstates import random_density, random_pure, random_unitary

from switchsim import channels as ch
from switchsim import entanglement as ent
from switchsim.states import (
    DensityMatrix,
    PureState,
    angle_qubits,
    densities,
    make_qubit,
    partial_trace,
    qubit_from_angle,
    tensor,
    to_density,
)
from switchsim.switch import switched_pair, switched_pairs

SQ2 = math.sqrt(2.0)
LN2 = math.log(2.0)


def bell_density() -> DensityMatrix:
    return to_density(PureState(2, np.array([1, 0, 0, 1]) / SQ2))


def pair(a: float, t: float) -> PureState:
    return switched_pair(qubit_from_angle(a), t)


def amplitudes(a: float):
    return math.sin(a), math.cos(a)


# ---------------------------------------------------------------- Schmidt


def test_schmidt_of_maximally_swapped_pair():
    got = ent.schmidt_coefficients(pair(0.0, math.pi / 4))  # beta = 1
    assert got.lambda0 == pytest.approx(1 / SQ2, abs=1e-12)
    assert got.lambda1 == pytest.approx(1 / SQ2, abs=1e-12)
    # beside the half swap the determinant can round above 1/4, where
    # lambda0 would pass lambda1
    t = np.linspace(math.pi / 4 - 1e-6, math.pi / 4 + 1e-6, 2001)
    lam = ent.schmidt_spectra(switched_pairs(angle_qubits(np.zeros_like(t)), t))
    closed = ent.schmidt_closed(np.ones((1, 1)), t)
    assert np.all(lam[:, 0] <= lam[:, 1]) and np.all(closed.lambda0 <= closed.lambda1)


def test_schmidt_of_product_states():
    rng = np.random.default_rng(3)
    product = tensor([random_pure(rng, 1), random_pure(rng, 1)])
    got = ent.schmidt_coefficients(product)
    assert got.lambda0 == pytest.approx(0.0, abs=1e-10)
    assert got.lambda1 == pytest.approx(1.0, abs=1e-10)
    # the switch starts from a product state
    got = ent.schmidt_coefficients(pair(0.9, 0.0))
    assert got.lambda0 == 0.0


def test_schmidt_closed_reference_points():
    assert ent.schmidt_closed(0.0, 0.77) == (0.0, 1.0)
    got = ent.schmidt_closed(1.0, math.pi / 4)
    assert got.lambda0 == pytest.approx(1 / SQ2, abs=1e-15)
    assert got.lambda1 == pytest.approx(1 / SQ2, abs=1e-15)


def test_schmidt_numeric_matches_closed_form_on_grid():
    for a in np.linspace(0, math.pi / 2, 30):
        _, be = amplitudes(float(a))
        for t in np.linspace(0, math.pi / 2, 30):
            num = ent.schmidt_coefficients(pair(float(a), float(t)))
            clo = ent.schmidt_closed(be, float(t))
            assert abs(num.lambda0 - clo.lambda0) <= 1e-10
            assert abs(num.lambda1 - clo.lambda1) <= 1e-10
            assert abs(num.lambda0**2 + num.lambda1**2 - 1.0) <= 1e-10


def test_schmidt_rejects_wrong_arity():
    with pytest.raises(ValueError):
        ent.schmidt_coefficients(make_qubit(1, 0))


# ------------------------------------------------------------------- PPT


def test_ppt_minimum_at_the_half_swap():
    spectrum = ent.ppt_spectrum(to_density(pair(0.0, math.pi / 4)))
    assert spectrum[0] == pytest.approx(-0.5, abs=1e-12)


def test_ppt_of_product_and_initial_states_is_nonnegative():
    rng = np.random.default_rng(5)
    product = to_density(tensor([random_pure(rng, 1), random_pure(rng, 1)]))
    assert ent.ppt_spectrum(product)[0] >= -1e-10
    assert ent.ppt_spectrum(to_density(pair(0.7, 0.0)))[0] >= -1e-10


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
            num = ent.ppt_spectrum(to_density(pair(float(a), float(t))))
            clo = np.sort(np.array(ent.ppt_eigenvalues_closed(al, be, float(t))))
            assert np.max(np.abs(num - clo)) <= 1e-10


# ----------------------------------------------------------- Concurrence


def test_concurrence_reference_values():
    assert ent.concurrence(bell_density()) == pytest.approx(1.0, abs=1e-9)
    rng = np.random.default_rng(7)
    product = to_density(tensor([random_pure(rng, 1), random_pure(rng, 1)]))
    assert ent.concurrence(product) <= 1e-9
    assert ent.concurrence(to_density(pair(math.pi / 4, math.pi / 4))) == pytest.approx(
        0.5, abs=1e-9
    )


def test_concurrence_closed_reference_values():
    assert ent.concurrence_closed(0.8, 0.0) == 0.0
    assert ent.concurrence_closed(1.0, math.pi / 4) == pytest.approx(1.0)


def test_concurrence_numeric_matches_closed_form_on_grid():
    for a in np.linspace(0, math.pi / 2, 30):
        _, be = amplitudes(float(a))
        for t in np.linspace(0, math.pi / 2, 30):
            num = ent.concurrence(to_density(pair(float(a), float(t))))
            assert abs(num - ent.concurrence_closed(be, float(t))) <= 1e-9


def test_concurrence_is_invariant_under_local_unitaries():
    rng = np.random.default_rng(11)
    for _ in range(10):
        rho = random_density(rng, 2, rank=int(rng.integers(1, 5)))
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = DensityMatrix(2, u @ rho.matrix @ u.conj().T)
        assert abs(ent.concurrence(rho) - ent.concurrence(rotated)) <= 1e-10


# --------------------------------------------------------- I-concurrence


def test_iconcurrence_reference_values():
    rng = np.random.default_rng(13)
    product = to_density(tensor([random_pure(rng, 1), random_pure(rng, 1)]))
    # the rounding of the eigenvectors leaves about 7e-16 at a product state
    assert ent.iconcurrence(product) <= 1e-15
    assert ent.iconcurrence(bell_density()) == pytest.approx(1.0, abs=1e-12)


def test_iconcurrence_matches_its_closed_form_on_grid():
    for a in np.linspace(0, math.pi / 2, 30):
        al, be = amplitudes(float(a))
        for t in np.linspace(0, math.pi / 2, 30):
            num = ent.iconcurrence(to_density(pair(float(a), float(t))))
            assert abs(num - ent.iconcurrence_closed(al, be, float(t))) <= 1e-10


def test_iconcurrence_traced_side_matters_only_for_mixed_states():
    rng = np.random.default_rng(17)
    psi = random_pure(rng, 2)
    rho = to_density(psi)
    assert ent.iconcurrence(rho, "A") == pytest.approx(ent.iconcurrence(rho, "B"), abs=1e-12)
    with pytest.raises(ValueError):
        ent.iconcurrence(rho, "C")


def test_noisy_closed_form_flip_endpoints_recover_the_clean_value():
    # a phase flip with certainty either way is a local unitary (or nothing)
    for a in np.linspace(0, math.pi / 2, 9):
        al, be = amplitudes(float(a))
        for t in np.linspace(0, math.pi / 2, 9):
            clean = ent.iconcurrence_closed(al, be, float(t))
            for p in (0.0, 1.0):
                noisy = ent.iconcurrence_noisy_closed("PF", p, float(t), al, be)
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
            lifted = ch.lift(ch.make_channel(kind, p), 0, 2)
            rho = ent.ensemble_densities(ent.pair_ensembles(amps, t, lifted))
            num = ent.iconcurrences(rho, "B")
            clo = ent.iconcurrence_noisy_closed(kind, p, t_points, al, be).ravel()
            assert np.max(np.abs(num - clo)) <= 1e-9, (kind, p)


def test_noisy_closed_form_rejects_unknown_kind():
    with pytest.raises(ValueError):
        ent.iconcurrence_noisy_closed("XX", 0.5, 0.3, 1.0, 0.0)


# ---------------------------------------------------------------- Entropy


def test_entropy_reference_values():
    rng = np.random.default_rng(19)
    assert ent.von_neumann_entropy(to_density(random_pure(rng, 2))) == pytest.approx(
        0.0, abs=1e-12
    )
    mixed = DensityMatrix(1, np.eye(2) / 2)
    assert ent.von_neumann_entropy(mixed) == pytest.approx(LN2, abs=1e-14)
    assert ent.von_neumann_entropy(mixed, log_base="2") == pytest.approx(1.0, abs=1e-14)


def test_entropy_of_the_half_swapped_pair():
    rho = to_density(pair(0.0, math.pi / 4))
    reduced = partial_trace(rho, {1})
    assert np.allclose(np.linalg.eigvalsh(reduced.matrix), [0.5, 0.5], atol=1e-12)
    assert ent.von_neumann_entropy(reduced) == pytest.approx(LN2, abs=1e-12)


def test_entropy_is_unitarily_invariant():
    rng = np.random.default_rng(23)
    for _ in range(10):
        rho = random_density(rng, 2, rank=int(rng.integers(1, 5)))
        u = random_unitary(rng, 4)
        rotated = DensityMatrix(2, u @ rho.matrix @ u.conj().T)
        assert abs(
            ent.von_neumann_entropy(rho) - ent.von_neumann_entropy(rotated)
        ) <= 1e-10


def test_reduced_entropy_closed_reference_points():
    al, be = amplitudes(0.9)
    assert ent.reduced_entropy_closed(al, be, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert ent.reduced_entropy_closed(0.0, 1.0, math.pi / 4) == pytest.approx(LN2, abs=1e-12)
    lam0, lam1 = ent.reduced_eigenvalues_closed(al, be, 0.62)
    assert lam0 + lam1 == pytest.approx(1.0, abs=1e-15)


def test_determinant_entropies_match_the_eigensolve_over_the_range():
    # diag(p, 1 - p) has determinant p (1 - p); the ends are the pure state
    # (exactly 0) and the maximally mixed one, and a determinant rounded
    # above 1/4 reads as 1/4
    p = np.concatenate([[0.0, 1e-300, 1e-17, 0.5], np.linspace(0.0, 0.5, 41)])
    rho = np.zeros(p.shape + (2, 2))
    rho[:, 0, 0], rho[:, 1, 1] = p, 1.0 - p
    for base, full in (("e", LN2), ("2", 1.0)):
        kernel = ent.determinant_entropies(p * (1.0 - p), base)
        assert np.max(np.abs(kernel - ent.entropies(rho, base))) <= 1e-14, base
        assert kernel[0] == 0.0 and kernel[1] > 0.0 and kernel[2] > 0.0, base
        assert ent.determinant_entropies(0.25 + 1e-16, base) == full, base


def test_determinant_entropies_read_a_nan_determinant_as_nan():
    d = np.array([0.1, math.nan, 0.0, 0.25])
    for base in ("e", "2"):
        s = ent.determinant_entropies(d, base)
        assert math.isnan(s[1]), base
        assert np.all(np.isfinite(s[[0, 2, 3]])), base


def test_reduced_entropy_matches_numeric_on_grid():
    for a in np.linspace(0, math.pi / 2, 20):
        al, be = amplitudes(float(a))
        for t in np.linspace(0, math.pi / 2, 20):
            reduced = partial_trace(to_density(pair(float(a), float(t))), {1})
            num = ent.von_neumann_entropy(reduced)
            assert abs(num - ent.reduced_entropy_closed(al, be, float(t))) <= 1e-10
            num2 = ent.von_neumann_entropy(reduced, log_base="2")
            assert abs(num2 - ent.reduced_entropy_closed(al, be, float(t), "2")) <= 1e-10


def _side_entropies(rho):
    """(S(rho_A), S(rho_B)) of a 2-qubit density matrix."""
    return tuple(ent.von_neumann_entropy(partial_trace(rho, {q})) for q in (1, 0))


def test_entropy_symmetry_for_pure_joint_states():
    s_a, s_b = _side_entropies(bell_density())
    assert s_a == pytest.approx(LN2, abs=1e-12)
    assert s_b == pytest.approx(LN2, abs=1e-12)
    rng = np.random.default_rng(29)
    product = to_density(tensor([random_pure(rng, 1), random_pure(rng, 1)]))
    assert _side_entropies(product) == pytest.approx((0.0, 0.0), abs=1e-10)
    for _ in range(10):
        a = float(rng.uniform(0, math.pi / 2))
        t = float(rng.uniform(0, math.pi / 2))
        s_a, s_b = _side_entropies(to_density(pair(a, t)))
        assert abs(s_a - s_b) <= 1e-10


def test_entropy_symmetry_fails_for_mixed_joint_states():
    # S(rho_A) = S(rho_B) needs a pure joint state: |0><0| x I/2 has a pure
    # side and a maximally mixed one
    s_a, s_b = _side_entropies(DensityMatrix(2, np.diag([0.5, 0.5, 0.0, 0.0])))
    assert s_a == pytest.approx(0.0, abs=1e-12)
    assert s_b == pytest.approx(LN2, abs=1e-12)
    # amplitude damping on qubit A of the half-swapped pair mixes it, and the
    # sides part; the clean pair's sides agree to rounding
    rho = to_density(pair(math.pi / 4, math.pi / 4))
    s_a, s_b = _side_entropies(rho)
    assert abs(s_a - s_b) <= 1e-10
    noisy = ch.apply_channel(rho, ch.lift(ch.make_channel("AD", 0.5), 0, 2))
    s_a, s_b = _side_entropies(noisy)
    assert abs(s_a - s_b) > 1e-2


# ------------------------------------------------- Cross-measure checks


def test_pure_state_measures_agree():
    rng = np.random.default_rng(31)
    for _ in range(25):
        psi = random_pure(rng, 2)
        rho = to_density(psi)
        schmidt = ent.schmidt_coefficients(psi)
        c = ent.concurrence(rho)
        ic = ent.iconcurrence(rho)
        assert abs(c - ic) <= 1e-9
        assert abs(c - 2 * schmidt.lambda0 * schmidt.lambda1) <= 1e-9


def test_detection_agreement_across_the_grid():
    # the 50 x 50 grid as one stack, a outer, t fastest
    grid = np.linspace(0, math.pi / 2, 50)
    psi = switched_pairs(angle_qubits(np.repeat(grid, 50)), np.tile(grid, 50))
    rho = densities(psi)
    ppt_says = ent.ppt_spectra(rho)[:, 0] < -1e-9
    schmidt_says = ent.schmidt_spectra(psi)[:, 0] > 1e-9
    concurrence_says = ent.concurrences(rho) > 1e-9
    assert np.array_equal(ppt_says, schmidt_says)
    assert np.array_equal(schmidt_says, concurrence_says)
    assert ppt_says.any() and not ppt_says.all()


def test_every_measure_vanishes_at_the_endpoints():
    for a in np.linspace(0, math.pi / 2, 25):
        for t in (0.0, math.pi / 2):
            psi = pair(float(a), t)
            rho = to_density(psi)
            assert ent.concurrence(rho) <= 1e-9
            assert ent.iconcurrence(rho) <= 1e-9
            assert ent.von_neumann_entropy(partial_trace(rho, {1})) <= 1e-9
            assert ent.schmidt_coefficients(psi).lambda0 <= 1e-9
            assert ent.ppt_spectrum(rho)[0] >= -1e-9
