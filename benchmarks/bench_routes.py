"""Numeric routes of a sweep: each measure's stacked route through
`sweep._evaluate` on a 50 x 101 grid, clean, and under amplitude damping
where the route accepts a channel, in the blocks `sweep._routes` sizes,
plus the concurrence under a bit flip on noise qubit 1 (the configuration
of the benchmark's `diff` commands) and the I-concurrence under amplitude
damping on qubit 0 on a 9 x 50 grid (the shape of a noisy configuration
of `verify`); `verify` of the average fidelity and of the I-concurrence
alone, whose noisy records each evaluate a stack of p values at once; the
first qubit's entropy of 256 switched pairs under
amplitude damping on qubit 0, read from the pair (d, |r|) of the Kraus
branches (`entanglement.pair_ensembles`, `reduced_qubits` and
`determinant_entropies`, the sweeps' route, with no eigensolve) against
the eigensolve `reference.entropies` of the reduced states that
`reference.apply_kraus` and `reference.partial_traces` form (the tests'
density-matrix references, `tests/reference.py`); each closed form
of the table through `sweep._closed_column` on the 50 x 101 grid, clean,
and under amplitude damping on qubit 0 where it has a noisy form, one
call per grid; one call of each scalar closed-form entry point, and of
each closed form of the table, at one point, the cost a caller that
evaluates point by point pays; the switch's
evolution, `switch.switched_pairs` on a 256-point stack (a pair route's
block) and `switch.switch_fidelities` on 64 registers (a gate route's
block; it evolves each register twice); the average gate fidelity
`channels.average_fidelities` on a 64-point gate block under one value
of p and on a block of `verify`'s p stack, 3 values of p against 20
times, with the channel's (P, 1, 2, 2) operator rows and its qubit,
beside the Gram-matrix reference `reference.average_fidelities_gram` on
the same rows lifted onto the register; the Kraus branches of 256
switched pairs under a bit flip on noise qubit 1, each 2 x 2 operator
applied on the qubit's axis (`entanglement.pair_ensembles`, the route)
beside the matmul of the operators lifted by `np.kron`
(`reference.lifted_operators`); the concurrence of 256 two-branch
ensembles of switched pairs under a bit flip on noise qubit 1, read from
the gap of each 2 x 2 tau (`entanglement.ensemble_concurrences`, the
route) beside the SVD of the tests' `reference.uhlmann_concurrences`;
the concurrence of a density matrix, `reference.concurrences`, on a
256-matrix noisy stack; the
density-matrix check `reference.checked_density` on a 256-point stack,
the size of a pair route's block; and the input qubits
`states.angle_qubits` of 256 angles, the one place a sweep rescales
amplitudes to unit norm.

    pytest benchmarks/bench_routes.py
    pytest benchmarks/bench_routes.py --benchmark-json BENCH_routes.json

The file name keeps it out of the test suite's collection.
"""

import math

import numpy as np
import pytest
import reference

from switchsim import channels, entanglement, states, switch, sweep

NOISE = sweep.ChannelSpec("AD", 0.3)
DIFF_NOISE = sweep.ChannelSpec("BF", 0.3, qubit=1)
SURFACE = (50, 101)
ROUTES = [
    (name, spec, SURFACE)
    for name, m in sweep.MEASURES.items()
    for spec in ([] if m.gate else [None]) + ([NOISE] if m.mixed or m.gate else [])
] + [("concurrence", DIFF_NOISE, SURFACE), ("iconcurrence", NOISE, (9, 50))]


def _route_id(name, spec, grid):
    label = name if spec is None else f"{name}[{spec.kind}]"
    return label if grid == SURFACE else f"{label}-{grid[0]}x{grid[1]}"


@pytest.mark.parametrize("name, spec, grid", ROUTES, ids=[_route_id(*r) for r in ROUTES])
def test_route(benchmark, name, spec, grid):
    benchmark.group = "sweep.routes"
    config = sweep.SweepConfig(name, a_steps=grid[0], t_steps=grid[1], channel=spec)
    numeric, _, block = sweep._routes(config)
    a, t = config.grid()
    values = benchmark(sweep._evaluate, numeric, a, t, 1, block)
    assert values.shape == (grid[0] * grid[1],)


CLOSED = [(name, None) for name, m in sweep.MEASURES.items() if m.closed is not None]
CLOSED += [(name, NOISE) for name, m in sweep.MEASURES.items() if m.noisy_closed is not None]


@pytest.mark.parametrize(
    "name, spec", CLOSED, ids=[n if s is None else f"{n}[{s.kind}]" for n, s in CLOSED]
)
def test_closed_column(benchmark, name, spec):
    benchmark.group = "sweep.closed"
    config = sweep.SweepConfig(name, a_steps=50, t_steps=101, channel=spec, compare=True)
    _, closed, _ = sweep._routes(config)
    column = benchmark(sweep._closed_column, config, closed)
    assert column.shape == (5050,)


@pytest.mark.parametrize("measure", ["avg_fidelity", "iconcurrence"])
def test_verify(benchmark, measure):
    benchmark.group = "sweep.verify"
    checks = benchmark(sweep.verify, measures=[measure])
    assert checks and all(c.passed for c in checks)


AL, BE, T = math.sin(0.7), math.cos(0.7), 0.41
POINT = {
    "reduced_qubit_closed": lambda: entanglement.reduced_qubit_closed(AL, BE, T),
    "noisy_determinant_closed[BF]": lambda: entanglement.noisy_determinant_closed(
        "BF", 0.3, T, AL, BE
    ),
    "ppt_eigenvalues_closed": lambda: entanglement.ppt_eigenvalues_closed(AL, BE, T),
    "concurrence_closed": lambda: entanglement.concurrence_closed(BE, T),
    "fidelity_closed": lambda: entanglement.fidelity_closed(AL, BE, T),
    "average_fidelity_closed[PD]": lambda: channels.average_fidelity_closed("PD", 0.3, T),
    "schmidt": lambda: sweep.MEASURES["schmidt"].closed(AL, BE, T, "e"),
    "iconcurrence": lambda: sweep.MEASURES["iconcurrence"].closed(AL, BE, T, "e"),
    "iconcurrence[AD]": lambda: sweep.MEASURES["iconcurrence"].noisy_closed("AD", 0.3, T, AL, BE),
    "iconcurrence[BF]": lambda: sweep.MEASURES["iconcurrence"].noisy_closed("BF", 0.3, T, AL, BE),
    "entropy": lambda: sweep.MEASURES["entropy"].closed(AL, BE, T, "e"),
}


@pytest.mark.parametrize("name", POINT)
def test_closed_point(benchmark, name):
    benchmark.group = "closed.point"
    value = benchmark(POINT[name])
    # np.float64 values, which are floats; a 0-d array is not
    values = value if isinstance(value, tuple) else (value,)
    assert all(isinstance(v, float) and not isinstance(v, np.ndarray) for v in values)


@pytest.fixture(scope="module")
def pair_inputs():
    """The amplitude pairs |A>, shape (256, 2), and the times of 256 points."""
    x = np.linspace(0.0, np.pi / 2, 256)
    return states.angle_qubits(x), x


@pytest.fixture(scope="module")
def pairs(pair_inputs):
    """256 switched pairs, shape (256, 4)."""
    return switch.switched_pairs(*pair_inputs)


def test_switched_pairs(benchmark, pair_inputs):
    benchmark.group = "switch"
    assert benchmark(switch.switched_pairs, *pair_inputs).shape == (256, 4)


def test_switch_fidelities(benchmark):
    benchmark.group = "switch"
    x = np.linspace(0.0, np.pi / 2, sweep.BLOCK_POINTS)
    regs = switch.registers(states.angle_qubits(x))
    assert benchmark(switch.switch_fidelities, regs, x).shape == (sweep.BLOCK_POINTS,)


#: the gate route's blocks, (values of p, times): 64 times under one p
#: row, a sweep's block, and 3 rows of `verify`'s stack of AVG_GRID values
#: of p against its AVG_GRID times
GATE_BLOCKS = {
    "sweep": ((NOISE.p,), np.linspace(0.0, np.pi / 2, sweep.BLOCK_POINTS)),
    "verify": (tuple(np.linspace(0.0, 1.0, sweep.AVG_GRID)[:3].tolist()),
               np.linspace(0.0, np.pi / 2, sweep.AVG_GRID)),
}
#: the average fidelity of a block, read entrywise from the 2 x 2 operator
#: rows on the noise qubit (the route) and through the Gram matrices of
#: U^dagger E_k with the rows lifted onto the register (the tests'
#: reference); each takes (unitaries, rows)
FIDELITY = {
    "entrywise": lambda u, rows: channels.average_fidelities(u, rows, NOISE.qubit),
    "gram": lambda u, rows: reference.average_fidelities_gram(
        u, reference.lifted_operators(rows, NOISE.qubit, 3)),
}


@pytest.mark.parametrize("route", FIDELITY)
@pytest.mark.parametrize("block", GATE_BLOCKS)
def test_average_fidelities(benchmark, block, route):
    benchmark.group = "channels"
    p, t = GATE_BLOCKS[block]
    rows = tuple(e[:, None] for e in channels.make_channel(NOISE.kind, p))
    values = benchmark(FIDELITY[route], switch.switch_unitaries(t), rows)
    assert values.shape == (len(p), len(t))


#: the 2 x 2 Kraus operators of NOISE, which the route takes with its
#: qubit, and the same operators lifted onto the pair for the reference
PAIR_OPERATORS = channels.make_channel(NOISE.kind, NOISE.p)
PAIR_LIFTED = reference.lifted_operators(PAIR_OPERATORS, NOISE.qubit, 2)
#: the first qubit's entropy of noisy switched pairs, two ways
ENTROPY = {
    "determinant": lambda amps, t: entanglement.determinant_entropies(
        *entanglement.reduced_qubits(
            entanglement.pair_ensembles(amps, t, PAIR_OPERATORS, NOISE.qubit)
        )
    ),
    "eigensolve": lambda amps, t: reference.entropies(reference.partial_traces(
        reference.apply_kraus(reference.densities(switch.switched_pairs(amps, t)), PAIR_LIFTED),
        2, {1},
    )),
}


@pytest.mark.parametrize("route", ENTROPY)
def test_pair_entropies(benchmark, pair_inputs, route):
    benchmark.group = "sweep.pairs"
    assert benchmark(ENTROPY[route], *pair_inputs).shape == (256,)


#: the 2 x 2 Kraus operators of DIFF_NOISE, and the same operators lifted
#: onto the pair
DIFF_OPERATORS = channels.make_channel(DIFF_NOISE.kind, DIFF_NOISE.p)
DIFF_LIFTED = reference.lifted_operators(DIFF_OPERATORS, DIFF_NOISE.qubit, 2)


def _lifted_branches(amps, t):
    psi = switch.switched_pairs(amps, t)[..., None]
    return np.concatenate([e @ psi for e in DIFF_LIFTED], axis=-1)


#: the Kraus branches E_k psi of a block of switched pairs: each 2 x 2
#: operator on the noise qubit's axis (the route), and the 4 x 4 lifted
#: operators' matmul (the reference); both evolve the pairs as well
BRANCHES = {
    "axis": lambda amps, t: entanglement.pair_ensembles(
        amps, t, DIFF_OPERATORS, DIFF_NOISE.qubit),
    "lifted": _lifted_branches,
}


@pytest.mark.parametrize("route", BRANCHES)
def test_pair_branches(benchmark, pair_inputs, route):
    benchmark.group = "entanglement.branches"
    assert benchmark(BRANCHES[route], *pair_inputs).shape == (256, 4, 2)


#: the concurrence of a block of two-branch ensembles, read from the gap of
#: each 2 x 2 tau (the route) and from its SVD (the tests' reference)
PAIR_CONCURRENCE = {"gap": entanglement.ensemble_concurrences,
                    "svd": reference.uhlmann_concurrences}


@pytest.mark.parametrize("route", PAIR_CONCURRENCE)
def test_pair_concurrences(benchmark, pair_inputs, route):
    benchmark.group = "entanglement.concurrences"
    xi = entanglement.pair_ensembles(*pair_inputs, DIFF_OPERATORS, DIFF_NOISE.qubit)
    assert benchmark(PAIR_CONCURRENCE[route], xi).shape == (256,)


def test_density_concurrences(benchmark, pairs):
    benchmark.group = "entanglement.concurrences"
    rho = reference.apply_kraus(reference.densities(pairs), DIFF_LIFTED)
    assert benchmark(reference.concurrences, rho).shape == (256,)


def test_checked_density(benchmark, pairs):
    benchmark.group = "states.checks"
    rho = reference.densities(pairs)
    assert benchmark(reference.checked_density, rho) is rho


def test_angle_qubits(benchmark, pair_inputs):
    benchmark.group = "states"
    assert benchmark(states.angle_qubits, pair_inputs[1]).shape == (256, 2)
