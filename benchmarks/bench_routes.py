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
block; it evolves each register twice); the concurrence of a density
matrix, `reference.concurrences`, on a 256-matrix noisy stack; the
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


#: the Kraus operators of NOISE lifted onto the pair, a tuple of 4 x 4
#: arrays, which the route and the reference take alike
PAIR_LIFTED = channels.lift(channels.make_channel(NOISE.kind, NOISE.p), NOISE.qubit, 2)
#: the first qubit's entropy of noisy switched pairs, two ways
ENTROPY = {
    "determinant": lambda amps, t: entanglement.determinant_entropies(
        *entanglement.reduced_qubits(entanglement.pair_ensembles(amps, t, PAIR_LIFTED))
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


def test_density_concurrences(benchmark, pairs):
    benchmark.group = "entanglement.concurrences"
    lifted = channels.lift(channels.make_channel(DIFF_NOISE.kind, DIFF_NOISE.p),
                           DIFF_NOISE.qubit, 2)
    rho = reference.apply_kraus(reference.densities(pairs), lifted)
    assert benchmark(reference.concurrences, rho).shape == (256,)


def test_checked_density(benchmark, pairs):
    benchmark.group = "states.checks"
    rho = reference.densities(pairs)
    assert benchmark(reference.checked_density, rho) is rho


def test_angle_qubits(benchmark, pair_inputs):
    benchmark.group = "states"
    assert benchmark(states.angle_qubits, pair_inputs[1]).shape == (256, 2)
