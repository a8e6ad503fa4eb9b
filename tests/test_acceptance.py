"""Acceptance gate: closed-form-vs-numeric equivalence plus property suites.

Each test covers one numbered criterion at its stated tolerance and prints
one pass line (visible with ``pytest -s`` or on failure).
"""

import math
import subprocess
import sys

import numpy as np
import reference
from randstates import random_density
from reference import densities, partial_traces

from switchsim import channels as ch
from switchsim import entanglement as ent
from switchsim import switch
from switchsim.switch import angle_qubits

A_GRID = np.linspace(0.0, math.pi / 2, 50)
T_GRID = np.linspace(0.0, math.pi / 2, 50)
P_SET = (0.0, 0.25, 0.5, 0.74, 1.0)
#: the A_GRID x T_GRID points (a outer, t fastest) as two flat arrays, the
#: closed forms' (A, 1) amplitude columns, and the endpoints t = 0, pi/2
GRID = (np.repeat(A_GRID, len(T_GRID)), np.tile(T_GRID, len(A_GRID)))
AL, BE = np.sin(A_GRID)[:, None], np.cos(A_GRID)[:, None]
ENDS = (np.repeat(A_GRID, 2), np.tile([0.0, math.pi / 2], len(A_GRID)))


def _ok(num: int, label: str) -> None:
    print(f"[PASS] criterion {num}: {label}")


def _pairs(a, t):
    """The switched pair at each point (a, t), as one stack."""
    return switch.switched_pairs(angle_qubits(a), t)


def test_criterion_1_generator_spectrum():
    w = reference.eigh(reference.switch_hamiltonian())[0]
    assert np.max(np.abs(w - np.array([-1, 0, 0, 0, 0, 0, 0, 1]))) <= 1e-12
    _ok(1, "generator spectrum is [-1, 0, 0, 0, 0, 0, 0, 1] within 1e-12")


def test_criterion_2_evolution_oracle_and_circuit():
    worst = 0.0
    for t in np.linspace(0.0, math.pi / 2, 100):
        delta = np.max(
            np.abs(switch.switch_unitaries(float(t)) - reference.switch_unitary_oracle(float(t)))
        )
        worst = max(worst, float(delta))
    assert worst <= 1e-12
    permutation = np.eye(8, dtype=complex)
    permutation[[3, 5]] = permutation[[5, 3]]
    assert np.array_equal(reference.circuit_unitary(), permutation)
    _ok(2, f"closed form vs eigendecomposition exponential, max err {worst:.2e}; circuit exact")


def test_criterion_3_fidelity_closed_form():
    a, t = GRID
    num = switch.switch_fidelities(switch.registers(angle_qubits(a)), t)
    worst = float(np.max(np.abs(num - (AL**2 + np.sin(T_GRID) * BE**2).ravel())))
    done = switch.switch_fidelities(switch.registers(angle_qubits(A_GRID)), math.pi / 2)
    assert np.max(np.abs(done - 1.0)) <= 1e-12
    assert worst <= 1e-12
    _ok(3, f"fidelity matches alpha^2 + sin(t) beta^2, max err {worst:.2e}; 1 at t=pi/2")


def test_criterion_4_schmidt_closed_form():
    num = ent.schmidt_spectra(_pairs(*GRID))
    clo = np.sqrt(ent._reduced_spectrum(*ent.reduced_qubit_closed(AL, BE, T_GRID)))
    worst = max(
        float(np.max(np.abs(num[:, 0] - clo[0].ravel()))),
        float(np.max(np.abs(num[:, 1] - clo[1].ravel()))),
    )
    sum_worst = float(np.max(np.abs(num[:, 0] ** 2 + num[:, 1] ** 2 - 1.0)))
    assert np.max(ent.schmidt_spectra(_pairs(*ENDS))[:, 0]) <= 1e-10
    assert worst <= 1e-10 and sum_worst <= 1e-10
    _ok(4, f"Schmidt coefficients, max err {worst:.2e}, normalization err {sum_worst:.2e}")


def test_criterion_5_ppt_closed_form():
    psi = _pairs(*GRID)
    num = ent.ppt_spectra(densities(psi))[:, 0]
    route = ent.ensemble_ppts(psi[..., None])
    clo = np.min(reference.ppt_eigenvalues_closed(AL, BE, T_GRID), axis=0).ravel()
    worst = max(float(np.max(np.abs(num - clo))), float(np.max(np.abs(route - clo))))
    assert np.min(ent.ppt_spectra(densities(_pairs(*ENDS)))[:, 0]) >= -1e-10
    assert worst <= 1e-10
    half = ent.ppt_spectra(densities(_pairs(0.0, math.pi / 4)))[0]
    assert abs(half + 0.5) <= 1e-10
    _ok(5, f"partial-transpose minimum eigenvalue, max err {worst:.2e}; -1/2 at (0, pi/4)")


def test_criterion_6_concurrence_closed_form():
    psi = _pairs(*GRID)
    c = ent.ensemble_concurrences(psi[..., None])
    worst = float(np.max(np.abs(c - ent.concurrence_closed(BE, T_GRID).ravel())))
    iconcurrence = 2.0 * np.sqrt(ent.reduced_qubit_closed(AL, BE, T_GRID)[0]).ravel()
    cross = max(
        float(np.max(np.abs(c - reference.iconcurrences(densities(psi))))),
        float(np.max(np.abs(c - iconcurrence))),
    )
    assert worst <= 1e-9 and cross <= 1e-9
    _ok(6, f"concurrence, max err {worst:.2e}; matches I-concurrence within {cross:.2e}")


def _reduced(a, t, keep: int):
    """The reduced state of qubit ``keep`` of the switched pair at each point."""
    return partial_traces(densities(_pairs(a, t)), 2, {1 - keep})


def test_criterion_7_entropy_closed_form():
    reduced = _reduced(*GRID, keep=0)
    num = reference.eigh(reduced)[0]
    clo = ent._reduced_spectrum(*ent.reduced_qubit_closed(AL, BE, T_GRID))
    worst = max(
        float(np.max(np.abs(num[:, 0] - clo[0].ravel()))),
        float(np.max(np.abs(num[:, 1] - clo[1].ravel()))),
    )
    sym = float(np.max(np.abs(reference.entropies(reduced)
                              - reference.entropies(_reduced(*GRID, keep=1)))))
    assert np.max(reference.entropies(_reduced(*ENDS, keep=0))) <= 1e-10
    assert worst <= 1e-10 and sym <= 1e-10
    peak = reference.entropies(_reduced(0.0, math.pi / 4, keep=0))
    assert abs(peak - math.log(2.0)) <= 1e-10
    _ok(7, f"reduced-state spectrum, max err {worst:.2e}; S_A=S_B within {sym:.2e}; ln2 peak")


def test_criterion_8_noisy_iconcurrence():
    # 5 x 101 points (a outer, t fastest) as one stack per channel, through
    # pair_ensembles, ensemble_densities and iconcurrences
    worst = 0.0
    a_points = np.linspace(0.0, math.pi / 2, 5)
    t_points = np.linspace(0.0, math.pi / 2, 101)
    amps = angle_qubits(np.repeat(a_points, len(t_points)))
    t = np.tile(t_points, len(a_points))
    al, be = np.sin(a_points)[:, None], np.cos(a_points)[:, None]
    for kind in ch.CHANNEL_KINDS:
        for p in P_SET:
            operators = ch.make_channel(kind, p)
            rho = ent.ensemble_densities(ent.pair_ensembles(amps, t, operators, 0))
            num = reference.iconcurrences(rho, "B")
            clo = 2.0 * np.sqrt(ent.noisy_determinant_closed(kind, p, t_points, al, be)).ravel()
            worst = max(worst, float(np.max(np.abs(num - clo))))
    assert worst <= 1e-9
    _ok(8, f"noisy I-concurrence vs closed forms, all channels, max err {worst:.2e}")


def test_criterion_9_average_fidelity():
    # the 20 times as one stack of unitaries per (kind, p), against one
    # closed-form call on the same row
    worst = flip = 0.0
    ts = np.linspace(0.0, math.pi / 2, 20)
    us = switch.switch_unitaries(ts)
    for kind in ch.CHANNEL_KINDS:
        for p in np.linspace(0.0, 1.0, 20).tolist():
            num = ch.average_fidelities(us, ch.make_channel(kind, p), 0)
            closed = ch.average_fidelity_closed(kind, p, ts)
            worst = max(worst, float(np.max(np.abs(num - closed))))
            if kind == "PF":
                bf = ch.average_fidelities(us, ch.make_channel("BF", p), 0)
                flip = max(flip, float(np.max(np.abs(num - bf))))
    assert worst <= 1e-10 and flip <= 1e-12
    u = switch.switch_unitaries(0.9)
    for kind in ch.CHANNEL_KINDS:
        operators = ch.make_channel(kind, 0.74)
        mean, stderr = reference.average_fidelity_monte_carlo(
            u, reference.lifted_operators(operators, 0, 3), samples=100_000, rng=2024)
        exact = float(ch.average_fidelities(u, operators, 0))
        assert abs(mean - exact) <= 3 * stderr, (kind, mean, exact, stderr)
    _ok(9, f"average fidelity, max err {worst:.2e}; PF=BF within {flip:.2e}; Monte Carlo agrees")


def test_criterion_10_channel_properties():
    rng = np.random.default_rng(77)
    for kind in ch.CHANNEL_KINDS:
        for p in P_SET:
            total = sum(e.conj().T @ e for e in ch.make_channel(kind, p))
            assert np.max(np.abs(total - np.eye(2))) <= 1e-12
        operators = ch.make_channel(kind, 0.37)
        for _ in range(100):
            rho = random_density(rng, 1, rank=int(rng.integers(1, 3)))
            out = reference.apply_kraus(rho, operators)
            assert abs(np.trace(out).real - 1.0) <= 1e-12
            assert np.max(np.abs(out - out.conj().T)) <= 1e-10
            assert np.min(np.linalg.eigvalsh(out)) >= -1e-10
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
