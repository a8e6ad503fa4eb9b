"""Benchmarks import switchsim from this checkout's src/, whatever else is
installed, so that they time the code beside them, and the tests'
density-matrix references (``reference``) from its tests/.

A ``--benchmark-json`` file keeps each benchmark's summary statistics but
not ``stats.data``, the raw time of every round, which pytest-benchmark
writes there whatever its options (17.5 MB for ``bench_routes.py``)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "src"))


def pytest_benchmark_update_json(config, benchmarks, output_json):
    for bench in output_json["benchmarks"]:
        bench["stats"].pop("data", None)
