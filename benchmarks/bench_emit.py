"""Emission layer of a sweep: ``emit`` of one 50 x 101 clean surface with
its closed column (5,050 rows), as the
`sweep --compare --a-steps 50 --t-steps 101` command line makes it, to an
in-memory stream, as CSV and as JSON, with the closed column and without.
The surfaces are the concurrence and the ppt: emission formats each
distinct bit pattern of a surface once, and the ppt has the most of them
(8,649 of 25,250 cells), so it is the case that dedupe helps least.
Each benchmark is grouped under the layer name the benchmark harness in
perfbench/ reports.

    pytest benchmarks/bench_emit.py
    pytest benchmarks/bench_emit.py --benchmark-json BENCH_emit.json

The file name keeps it out of the test suite's collection.
"""

import io

import pytest

from switchsim import sweep

MEASURES = ("concurrence", "ppt")


@pytest.fixture(scope="module", params=MEASURES)
def surface(request):
    """The sweep record of a 50 x 101 clean surface of the measure."""
    return sweep.run_sweep(
        sweep.SweepConfig(request.param, a_steps=50, t_steps=101, compare=True)
    )


def _emit(record, fmt):
    buf = io.StringIO()
    sweep.emit(record, fmt, buf)
    return buf.getvalue()


@pytest.mark.parametrize("compare", [True, False], ids=["closed", "numeric-only"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit(benchmark, surface, fmt, compare):
    benchmark.group = "sweep.emit"
    record = surface if compare else sweep.Sweep(surface.t, surface.a, surface.value)
    text = benchmark(_emit, record, fmt)
    assert text.count("\n") == (5051 if fmt == "csv" else 7 * 5050 + 2)
