"""Per-call cost of the command line: `cli.main` on a 2-point
`sweep --compare` of the I-concurrence written to a file, clean and under
amplitude damping (`--channel AD`), where the grid is so small that the
command's fixed cost, argument parsing and emission, is most of its time;
and parsing alone, `_parser().parse_args` of the same noisy command line.
`main` reuses one parser per process, so these time what every call after
the first pays, as the benchmark harness in perfbench/ and the tests call
`main` many times in one process. The groups are the harness's layer name,
`cli.main`, and `cli.parse_args`.

    pytest benchmarks/bench_cli.py
    pytest benchmarks/bench_cli.py --benchmark-json BENCH_cli.json

The file name keeps it out of the test suite's collection.
"""

import pytest

from switchsim import cli

SWEEP = ["sweep", "--measure", "iconcurrence", "--t-steps", "2", "--compare"]
NOISY = [*SWEEP, "--channel", "AD"]


@pytest.mark.parametrize("argv", [SWEEP, NOISY], ids=["clean", "AD"])
def test_main(benchmark, tmp_path, argv):
    benchmark.group = "cli.main"
    out = tmp_path / "sweep.csv"
    assert benchmark(cli.main, [*argv, "--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 3


def test_parse_args(benchmark):
    benchmark.group = "cli.parse_args"
    args = benchmark(cli._parser().parse_args, NOISY)
    assert (args.command, args.channel, args.t_steps) == ("sweep", "AD", 2)
