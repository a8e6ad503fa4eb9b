"""Acceptance gate: closed-form-vs-numeric equivalence plus property suites.

Each test covers one numbered criterion at its stated tolerance and prints
one pass line (visible with ``pytest -s`` or on failure).
"""

import math
import subprocess
import sys

import numpy as np
from randstates import random_density

from switchsim import channels as ch
from switchsim import entanglement as ent
from switchsim import linalg, switch
from switchsim.states import make_qubit, partial_trace, qubit_from_angle, tensor, to_density
from switchsim.switch import switched_pair

A_GRID = np.linspace(0.0, math.pi / 2, 50)
T_GRID = np.linspace(0.0, math.pi / 2, 50)
P_SET = (0.0, 0.25, 0.5, 0.74, 1.0)


def _ok(num: int, label: str) -> None:
    print(f"[PASS] criterion {num}: {label}")


def _a01(a: float):
    return tensor([qubit_from_angle(a), make_qubit(1, 0), make_qubit(0, 1)])


def test_criterion_1_generator_spectrum():
    w = linalg.hermitian_eigensystem(switch.switch_hamiltonian()).eigenvalues
    assert np.max(np.abs(w - np.array([-1, 0, 0, 0, 0, 0, 0, 1]))) <= 1e-12
    _ok(1, "generator spectrum is [-1, 0, 0, 0, 0, 0, 0, 1] within 1e-12")


def test_criterion_2_evolution_oracle_and_circuit():
    worst = 0.0
    for t in np.linspace(0.0, math.pi / 2, 100):
        delta = np.max(
            np.abs(switch.switch_unitary(float(t)).matrix - switch.switch_unitary_oracle(float(t)))
        )
        worst = max(worst, float(delta))
    assert worst <= 1e-12
    permutation = np.eye(8, dtype=complex)
    permutation[[3, 5]] = permutation[[5, 3]]
    assert np.array_equal(switch.circuit_unitary(), permutation)
    _ok(2, f"closed form vs eigendecomposition exponential, max err {worst:.2e}; circuit exact")


def test_criterion_3_fidelity_closed_form():
    worst = 0.0
    for a in A_GRID:
        psi0 = _a01(float(a))
        al, be = math.sin(a), math.cos(a)
        for t in T_GRID:
            err = abs(switch.switch_fidelity(psi0, float(t)) - (al**2 + math.sin(t) * be**2))
            worst = max(worst, err)
        assert abs(switch.switch_fidelity(psi0, math.pi / 2) - 1.0) <= 1e-12
    assert worst <= 1e-12
    _ok(3, f"fidelity matches alpha^2 + sin(t) beta^2, max err {worst:.2e}; 1 at t=pi/2")


def test_criterion_4_schmidt_closed_form():
    worst = sum_worst = 0.0
    for a in A_GRID:
        be = math.cos(a)
        for t in T_GRID:
            num = ent.schmidt_coefficients(switched_pair(qubit_from_angle(float(a)), float(t)))
            clo = ent.schmidt_closed(be, float(t))
            worst = max(worst, abs(num.lambda0 - clo.lambda0), abs(num.lambda1 - clo.lambda1))
            sum_worst = max(sum_worst, abs(num.lambda0**2 + num.lambda1**2 - 1.0))
        for t in (0.0, math.pi / 2):
            lam0 = ent.schmidt_coefficients(
                switched_pair(qubit_from_angle(float(a)), t)
            ).lambda0
            assert lam0 <= 1e-10
    assert worst <= 1e-10 and sum_worst <= 1e-10
    _ok(4, f"Schmidt coefficients, max err {worst:.2e}, normalization err {sum_worst:.2e}")


def test_criterion_5_ppt_closed_form():
    worst = 0.0
    for a in A_GRID:
        al, be = math.sin(a), math.cos(a)
        for t in T_GRID:
            rho = to_density(switched_pair(qubit_from_angle(float(a)), float(t)))
            num = float(ent.ppt_spectrum(rho)[0])
            clo = float(ent.ppt_closed(al, be, float(t))[0])
            worst = max(worst, abs(num - clo))
        for t in (0.0, math.pi / 2):
            rho = to_density(switched_pair(qubit_from_angle(float(a)), t))
            assert float(ent.ppt_spectrum(rho)[0]) >= -1e-10
    assert worst <= 1e-10
    half = to_density(switched_pair(qubit_from_angle(0.0), math.pi / 4))
    assert abs(float(ent.ppt_spectrum(half)[0]) + 0.5) <= 1e-10
    _ok(5, f"partial-transpose minimum eigenvalue, max err {worst:.2e}; -1/2 at (0, pi/4)")


def test_criterion_6_concurrence_closed_form():
    worst = cross = 0.0
    for a in A_GRID:
        al, be = math.sin(a), math.cos(a)
        for t in T_GRID:
            rho = to_density(switched_pair(qubit_from_angle(float(a)), float(t)))
            c = ent.concurrence(rho)
            worst = max(worst, abs(c - ent.concurrence_closed(be, float(t))))
            cross = max(
                cross,
                abs(c - ent.iconcurrence(rho)),
                abs(c - ent.iconcurrence_closed(al, be, float(t))),
            )
    assert worst <= 1e-9 and cross <= 1e-9
    _ok(6, f"concurrence, max err {worst:.2e}; matches I-concurrence within {cross:.2e}")


def test_criterion_7_entropy_closed_form():
    worst = sym = 0.0
    for a in A_GRID:
        al, be = math.sin(a), math.cos(a)
        for t in T_GRID:
            rho = to_density(switched_pair(qubit_from_angle(float(a)), float(t)))
            reduced = partial_trace(rho, {1})
            num = linalg.hermitian_eigensystem(reduced.matrix).eigenvalues
            clo = ent.reduced_eigenvalues_closed(al, be, float(t))
            worst = max(worst, abs(num[0] - clo[0]), abs(num[1] - clo[1]))
            s_a, s_b = ent.entropy_symmetry_check(rho)
            sym = max(sym, abs(s_a - s_b))
        for t in (0.0, math.pi / 2):
            rho = to_density(switched_pair(qubit_from_angle(float(a)), t))
            assert ent.von_neumann_entropy(partial_trace(rho, {1})) <= 1e-10
    assert worst <= 1e-10 and sym <= 1e-10
    peak = ent.von_neumann_entropy(
        partial_trace(to_density(switched_pair(qubit_from_angle(0.0), math.pi / 4)), {1})
    )
    assert abs(peak - math.log(2.0)) <= 1e-10
    _ok(7, f"reduced-state spectrum, max err {worst:.2e}; S_A=S_B within {sym:.2e}; ln2 peak")


def test_criterion_8_noisy_iconcurrence():
    worst = 0.0
    t_points = np.linspace(0.0, math.pi / 2, 101)
    for kind in ch.CHANNEL_KINDS:
        for p in P_SET:
            channel = ch.make_channel(kind, p)
            for a in np.linspace(0.0, math.pi / 2, 5):
                al, be = math.sin(a), math.cos(a)
                a_state = qubit_from_angle(float(a))
                for t in t_points:
                    rho = ent.noisy_pair_density(a_state, float(t), channel, qubit=0)
                    num = ent.iconcurrence(rho, "B")
                    clo = ent.iconcurrence_noisy_closed(kind, p, float(t), al, be)
                    worst = max(worst, abs(num - clo))
    assert worst <= 1e-9
    _ok(8, f"noisy I-concurrence vs closed forms, all channels, max err {worst:.2e}")


def test_criterion_9_average_fidelity():
    worst = flip = 0.0
    for kind in ch.CHANNEL_KINDS:
        for p in np.linspace(0.0, 1.0, 20):
            lifted = ch.lift(ch.make_channel(kind, float(p)), 0, 3)
            for t in np.linspace(0.0, math.pi / 2, 20):
                u = switch.switch_unitary(float(t)).matrix
                num = ch.average_fidelity_numeric(u, lifted)
                worst = max(worst, abs(num - ch.average_fidelity_closed(kind, float(p), float(t))))
                if kind == "PF":
                    bf = ch.lift(ch.make_channel("BF", float(p)), 0, 3)
                    flip = max(flip, abs(num - ch.average_fidelity_numeric(u, bf)))
    assert worst <= 1e-10 and flip <= 1e-12
    u = switch.switch_unitary(0.9).matrix
    for kind in ch.CHANNEL_KINDS:
        lifted = ch.lift(ch.make_channel(kind, 0.74), 0, 3)
        mean, stderr = ch.average_fidelity_monte_carlo(u, lifted, samples=100_000, rng=2024)
        exact = ch.average_fidelity_numeric(u, lifted)
        assert abs(mean - exact) <= 3 * stderr, (kind, mean, exact, stderr)
    _ok(9, f"average fidelity, max err {worst:.2e}; PF=BF within {flip:.2e}; Monte Carlo agrees")


def test_criterion_10_channel_properties():
    rng = np.random.default_rng(77)
    for kind in ch.CHANNEL_KINDS:
        for p in P_SET:
            channel = ch.make_channel(kind, p)
            total = sum(e.conj().T @ e for e in channel.operators)
            assert np.max(np.abs(total - np.eye(2))) <= 1e-12
        channel = ch.make_channel(kind, 0.37)
        for _ in range(100):
            rho = random_density(rng, 1, rank=int(rng.integers(1, 3)))
            out = ch.apply_channel(rho, channel)
            assert abs(np.trace(out.matrix).real - 1.0) <= 1e-12
            assert np.max(np.abs(out.matrix - out.matrix.conj().T)) <= 1e-10
            assert np.min(np.linalg.eigvalsh(out.matrix)) >= -1e-10
    _ok(10, "channel completeness and trace/Hermiticity/PSD preservation")


def _run_verify(*extra):
    return subprocess.run(
        [sys.executable, "-m", "switchsim", "verify", *extra],
        capture_output=True, text=True,
    )


def test_criterion_11_tooling():
    full = _run_verify()
    assert full.returncode == 0, full.stdout + full.stderr
    fast = ("--a-steps", "5", "--t-steps", "7")
    assert _run_verify(*fast, "--inject-error", "1e-6").returncode == 1
    assert _run_verify(*fast).stdout == _run_verify(*fast).stdout
    _ok(11, "verify exits 0, fails under a 1e-6 perturbation, and is reproducible")
