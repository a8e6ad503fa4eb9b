import json
import math
import subprocess
import sys

import pytest

from switchsim import cli
from switchsim import sweep as sw

VERIFY_FAST = [
    "verify", "--a-steps", "5", "--t-steps", "7",
]


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "switchsim", *args],
        capture_output=True, text=True,
    )


def test_sweep_to_stdout(capsys):
    code = cli.main(
        ["sweep", "--measure", "concurrence", "--a", "0.7854", "--t-steps", "5", "--compare"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,a,value,value_closed,abs_err"
    assert len(lines) == 6


def test_sweep_json_round_trips(capsys):
    code = cli.main([
        "sweep", "--measure", "entropy", "--t-steps", "4", "--format", "json",
        "--log-base", "2", "--compare",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 4
    assert set(payload[0]) == {"t", "a", "value", "value_closed", "abs_err"}


def test_sweep_writes_files_byte_identically(tmp_path):
    out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
    args = (
        "sweep", "--measure", "iconcurrence", "--channel", "AD", "--p", "0.74",
        "--a-steps", "3", "--t-steps", "9", "--compare",
    )
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("measure", ["iconcurrence", "schmidt"])
def test_a_measure_near_a_separable_point_is_read_exactly(capsys, measure):
    # C = |beta^2 sin 2t| is about 3.2e-7 here; the I-concurrence is C and
    # the smaller Schmidt coefficient C / sqrt(2 (1 + sqrt(1 - C^2)))
    a, t = 1.5733447365331983, 4.688054686384465
    c = abs(math.cos(a) ** 2 * math.sin(2 * t))
    want = c if measure == "iconcurrence" else c / math.sqrt(2 * (1 + math.sqrt(1 - c * c)))
    argv = ["sweep", "--measure", measure, "--compare", "--a", repr(a),
            "--t-min", repr(t), "--t-max", repr(t), "--t-steps", "2"]
    assert cli.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 2
    for row in rows:
        _, _, value, _, abs_err = map(float, row.split(","))
        assert abs_err <= 1e-9 and abs(value - want) <= 1e-15, row


def test_diff_subcommand(capsys):
    code = cli.main([
        "diff", "--measure", "iconcurrence", "--channel", "PF", "--p", "1",
        "--t-steps", "5",
    ])
    assert code == 0
    data_lines = capsys.readouterr().out.splitlines()[1:]
    assert all(float(line.split(",")[2]) <= 1e-12 for line in data_lines)


def test_avg_fidelity_subcommand(capsys):
    code = cli.main(
        ["avg-fidelity", "--channel", "PD", "--p", "0.74", "--t-steps", "5", "--compare"]
    )
    assert code == 0
    for line in capsys.readouterr().out.splitlines()[1:]:
        assert float(line.split(",")[4]) <= 1e-10


def test_verify_passes_and_reports(capsys):
    code = cli.main(VERIFY_FAST)
    captured = capsys.readouterr()
    assert code == 0, captured.out + captured.err
    assert "verify: PASS" in captured.out
    assert captured.out.count("PASS") >= 15


def test_verify_fails_with_injected_error(capsys):
    code = cli.main([*VERIFY_FAST, "--inject-error", "1e-6"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_output_is_reproducible(capsys):
    # in process; test_criterion_11_tooling compares two processes
    outputs = []
    for _ in range(2):
        assert cli.main(VERIFY_FAST) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_usage_errors_exit_2(capsys):
    # in process: argparse exits 2 itself; the process's exit code is held
    # by the other tests that run the command
    for argv in (["sweep", "--measure", "negativity"], ["sweep"],
                 ["diff", "--measure", "iconcurrence"]):
        with pytest.raises(SystemExit) as exited:
            cli.main(argv)
        assert exited.value.code == 2
    capsys.readouterr()
    assert cli.main(["sweep", "--measure", "schmidt", "--channel", "PF", "--p", "0.3"]) == 2
    assert "noiseless" in capsys.readouterr().err
    # the gate measure's battery reads neither grid size, but verify checks both
    for grid, message in ((("--a-steps", "-3"), "a_steps must be >= 1, got -3"),
                          (("--t-steps", "1"), "t_steps must be >= 2, got 1")):
        assert cli.main(["verify", "--measure", "avg_fidelity", *grid]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""


#: a channel on each command that takes one
CHANNEL_COMMANDS = {
    "sweep": ["sweep", "--measure", "concurrence", "--t-steps", "3", "--channel", "PF"],
    "diff": ["diff", "--measure", "iconcurrence", "--t-steps", "3", "--channel", "AD"],
    "avg-fidelity": ["avg-fidelity", "--t-steps", "3", "--channel", "PD"],
}


@pytest.mark.parametrize("p", ["-0.1", "-5e-324", "1.5", "nan", "inf", "-inf"])
@pytest.mark.parametrize("command", CHANNEL_COMMANDS)
def test_a_probability_outside_the_unit_interval_exits_2_naming_it(capsys, command, p):
    # the channel is checked once, where its spec is built from the options
    assert cli.main([*CHANNEL_COMMANDS[command], "--p", p]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"probability must lie in [0, 1], got {float(p)!r}" in captured.err


def test_avg_fidelity_takes_no_log_base(capsys):
    # the average fidelity has no logarithm, so a unit for one is refused
    with pytest.raises(SystemExit) as exited:
        cli.main(["avg-fidelity", "--channel", "PF", "--log-base", "2"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --log-base 2" in capsys.readouterr().err


def test_out_path_failure_exits_2(tmp_path, capsys):
    code = cli.main([
        "sweep", "--measure", "concurrence", "--t-steps", "3",
        "--out", str(tmp_path / "missing" / "dir.csv"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_verify_rejects_a_non_finite_injected_error(capsys):
    for bad in ("nan", "inf"):
        argv = ["verify", "--inject-error", bad, "--measure", "concurrence",
                "--a-steps", "3", "--t-steps", "3"]
        assert cli.main(argv) == 2
        assert "finite" in capsys.readouterr().err


def test_grid_cap_exits_2_before_building_the_grid(monkeypatch, capsys):
    def no_grid(self):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(sw.SweepConfig, "grid", no_grid)
    huge = ["--a-steps", "100000", "--t-steps", "100000"]
    for argv in (["sweep", "--measure", "concurrence", *huge],
                 ["diff", "--measure", "concurrence", "--channel", "AD", *huge],
                 ["avg-fidelity", "--channel", "AD", *huge],
                 ["verify", *huge],
                 # every record is built before any is evaluated: the noisy
                 # 9 x 200,000 grid is refused before a clean check runs
                 ["verify", "--a-steps", "1", "--t-steps", "200000"]):
        assert cli.main(argv) == 2
        assert "exceeds the limit" in capsys.readouterr().err


def test_a_time_span_that_overflows_exits_2_without_a_warning(capsys, recwarn):
    # both endpoints are finite, but t_max - t_min is not, so the grid
    # would hold NaN; the span is rejected before any grid is built
    for command in (["sweep", "--measure", "entropy"],
                    ["diff", "--measure", "entropy", "--channel", "AD"]):
        assert cli.main([*command, "--t-min=-1e308", "--t-max=1e308"]) == 2
        err = capsys.readouterr().err
        assert "t_max - t_min overflows" in err and "must be finite" not in err
    assert not recwarn.list


def test_a_negative_float_in_exponent_notation_is_an_option_value(capsys):
    # argparse reads -1e-5 as an option unless it is joined to its flag
    grid = ["--t-min", "-1e-3", "--t-steps", "3", "--compare"]
    assert cli.main(["sweep", "--measure", "schmidt", "--a", "-1e-5", *grid]) == 0
    spaced = capsys.readouterr().out
    assert cli.main(["sweep", "--measure", "schmidt", "--a=-1e-5", *grid]) == 0
    assert spaced == capsys.readouterr().out
    assert "-1e-05" in spaced
    result = run_cli("sweep", "--measure", "schmidt", "--t-min", "-inf")
    assert result.returncode == 2
    assert "error:" in result.stderr and "Traceback" not in result.stderr


#: (COLUMNS, argv): a success of each command; argparse's usage errors (an
#: unknown --measure, a missing one, avg-fidelity's refused --log-base); a
#: library ValueError, which exits 2; verify's failure, which exits 1; a
#: negative float that must be joined to its option; and the help of a
#: command at two terminal widths
REUSED = [
    ("80", ["sweep", "--measure", "concurrence", "--t-steps", "3", "--compare"]),
    ("80", ["diff", "--measure", "entropy", "--channel", "AD", "--t-steps", "3",
            "--format", "json"]),
    ("80", ["avg-fidelity", "--channel", "PF", "--t-steps", "3", "--compare"]),
    ("80", ["verify", "--measure", "ppt", "--a-steps", "2", "--t-steps", "2"]),
    ("80", ["sweep", "--measure", "negativity"]),
    ("80", ["sweep"]),
    ("80", ["avg-fidelity", "--channel", "PF", "--log-base", "2"]),
    ("80", ["sweep", "--measure", "schmidt", "--channel", "PF", "--p", "0.3"]),
    ("80", ["verify", "--measure", "ppt", "--a-steps", "2", "--t-steps", "2",
            "--inject-error", "1e-6"]),
    ("80", ["sweep", "--measure", "schmidt", "--a", "-1e-5", "--t-steps", "3"]),
    ("60", ["sweep", "--help"]),
    ("120", ["sweep", "--help"]),
]


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of one in-process command."""
    try:
        code = cli.main(argv)
    except SystemExit as exited:
        code = exited.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reusing_the_parser_changes_nothing(monkeypatch, capsys):
    fresh = []
    for columns, argv in REUSED:
        monkeypatch.setenv("COLUMNS", columns)
        cli._parser.cache_clear()
        fresh.append(_outcome(argv, capsys))
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 2, 2, 2, 2, 1, 0, 0, 0]
    # the help is wrapped to the width COLUMNS gives when it is printed
    assert fresh[-2][1] != fresh[-1][1]
    cli._parser.cache_clear()
    parser = cli._parser()
    for _ in range(2):
        for (columns, argv), want in zip(REUSED, fresh):
            monkeypatch.setenv("COLUMNS", columns)
            assert _outcome(argv, capsys) == want, argv
    assert cli._parser() is parser
