"""Numeric routes of a sweep: each measure's stacked route through
`sweep._evaluate` on a 50 x 101 grid, clean, and under amplitude damping
where the route accepts a channel, in the blocks `sweep._routes` sizes,
plus the concurrence under a bit flip on noise qubit 1 (the configuration
of the benchmark's `diff` commands); each closed form of the table through
`sweep._closed_column` on the same grid, clean, and under amplitude
damping on qubit 0 where it has a noisy form, one call per grid; one call
of each scalar closed-form entry point at one point, the cost a caller
that evaluates point by point pays; the concurrence of a
density matrix, `entanglement.concurrences`, on a 256-matrix noisy stack;
and the two state checks, `states.checked_density` and
`states.normalized`, on a 256-point stack, the size of a pair route's
block.

    pytest benchmarks/bench_routes.py
    pytest benchmarks/bench_routes.py --benchmark-json BENCH_routes.json

The file name keeps it out of the test suite's collection.
"""

import math

import numpy as np
import pytest

from switchsim import channels, entanglement, states, switch, sweep

NOISE = sweep.ChannelSpec("AD", 0.3)
DIFF_NOISE = sweep.ChannelSpec("BF", 0.3, qubit=1)
ROUTES = [
    (name, spec)
    for name, m in sweep.MEASURES.items()
    for spec in ([] if m.gate else [None]) + ([NOISE] if m.mixed or m.gate else [])
] + [("concurrence", DIFF_NOISE)]


@pytest.mark.parametrize(
    "name, spec", ROUTES, ids=[n if s is None else f"{n}[{s.kind}]" for n, s in ROUTES]
)
def test_route(benchmark, name, spec):
    benchmark.group = "sweep.routes"
    config = sweep.SweepConfig(name, a_steps=50, t_steps=101, channel=spec)
    numeric, _, block = sweep._routes(config)
    a, t = config.grid()
    values = benchmark(sweep._evaluate, numeric, a, t, block)
    assert values.shape == (5050,)


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


AL, BE, T = math.sin(0.7), math.cos(0.7), 0.41
POINT = {
    "schmidt_closed": lambda: entanglement.schmidt_closed(BE, T),
    "ppt_eigenvalues_closed": lambda: entanglement.ppt_eigenvalues_closed(AL, BE, T),
    "concurrence_closed": lambda: entanglement.concurrence_closed(BE, T),
    "iconcurrence_closed": lambda: entanglement.iconcurrence_closed(AL, BE, T),
    "iconcurrence_noisy_closed[AD]": lambda: entanglement.iconcurrence_noisy_closed(
        "AD", 0.3, T, AL, BE
    ),
    "iconcurrence_noisy_closed[BF]": lambda: entanglement.iconcurrence_noisy_closed(
        "BF", 0.3, T, AL, BE
    ),
    "reduced_entropy_closed": lambda: entanglement.reduced_entropy_closed(AL, BE, T),
    "fidelity_closed": lambda: entanglement.fidelity_closed(AL, BE, T),
    "average_fidelity_closed[PD]": lambda: channels.average_fidelity_closed("PD", 0.3, T),
}


@pytest.mark.parametrize("name", POINT)
def test_closed_point(benchmark, name):
    benchmark.group = "closed.point"
    value = benchmark(POINT[name])
    assert all(type(v) is float for v in (value if isinstance(value, tuple) else (value,)))


@pytest.fixture(scope="module")
def pairs():
    """256 switched pairs, shape (256, 4)."""
    a = np.linspace(0.0, np.pi / 2, 256)
    return switch.switched_pairs(states.angle_qubits(a), np.linspace(0.0, np.pi / 2, 256))


def test_density_concurrences(benchmark, pairs):
    benchmark.group = "entanglement.concurrences"
    lifted = channels.lift(DIFF_NOISE.make(), DIFF_NOISE.qubit, 2)
    rho = channels.apply_kraus(states.densities(pairs), lifted)
    assert benchmark(entanglement.concurrences, rho).shape == (256,)


def test_checked_density(benchmark, pairs):
    benchmark.group = "states.checks"
    rho = states.densities(pairs)
    assert benchmark(states.checked_density, rho) is rho


def test_normalized(benchmark, pairs):
    benchmark.group = "states.checks"
    assert benchmark(states.normalized, pairs).shape == (256, 4)
