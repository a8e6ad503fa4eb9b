"""Emission layer of a sweep: rendering CSV and JSON, and building the rows
they render, on one 50 x 101 clean concurrence surface with its closed
column (5,050 rows), as the `sweep --compare --a-steps 50 --t-steps 101`
command line makes it. Each benchmark is grouped under the layer name the
benchmark harness in perfbench/ reports.

    pytest benchmarks/bench_emit.py
    pytest benchmarks/bench_emit.py --benchmark-json BENCH_emit.json

The file name keeps it out of the test suite's collection.
"""

import pytest

from switchsim import sweep

CONFIG = sweep.SweepConfig("concurrence", a_steps=50, t_steps=101, compare=True)


@pytest.fixture(scope="module")
def surface():
    """(numeric values, closed column, rows) of CONFIG."""
    values, closed = sweep._columns(CONFIG)
    return values, closed, sweep._rows(CONFIG, values, closed)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_render(benchmark, surface, fmt):
    benchmark.group = "sweep.emit"
    render = sweep._render_csv if fmt == "csv" else sweep._render_json
    text = benchmark(render, surface[2])
    assert text.count("\n") == (5051 if fmt == "csv" else 7 * 5050 + 2)


@pytest.mark.parametrize("compare", [True, False], ids=["closed", "numeric-only"])
def test_rows(benchmark, surface, compare):
    benchmark.group = "sweep.rows"
    values, closed, _ = surface
    rows = benchmark(sweep._rows, CONFIG, values, closed if compare else None)
    assert len(rows) == 5050 and (rows[-1].abs_err is not None) == compare
