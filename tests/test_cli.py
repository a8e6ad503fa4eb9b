import json
import subprocess
import sys

from switchsim import cli

VERIFY_FAST = [
    "verify", "--a-steps", "5", "--t-steps", "7",
]


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "switchsim", *args],
        capture_output=True, text=True,
    )


def test_sweep_to_stdout():
    result = run_cli(
        "sweep", "--measure", "concurrence", "--a", "0.7854", "--t-steps", "5", "--compare"
    )
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "t,a,value,value_closed,abs_err"
    assert len(lines) == 6


def test_sweep_json_round_trips():
    result = run_cli(
        "sweep", "--measure", "entropy", "--t-steps", "4", "--format", "json",
        "--log-base", "2", "--compare",
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
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


def test_diff_subcommand():
    result = run_cli(
        "diff", "--measure", "iconcurrence", "--channel", "PF", "--p", "1",
        "--t-steps", "5",
    )
    assert result.returncode == 0
    data_lines = result.stdout.splitlines()[1:]
    assert all(float(line.split(",")[2]) <= 1e-12 for line in data_lines)


def test_avg_fidelity_subcommand():
    result = run_cli(
        "avg-fidelity", "--channel", "PD", "--p", "0.74", "--t-steps", "5", "--compare"
    )
    assert result.returncode == 0
    for line in result.stdout.splitlines()[1:]:
        assert float(line.split(",")[4]) <= 1e-10


def test_verify_passes_and_reports():
    result = run_cli(*VERIFY_FAST)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "verify: PASS" in result.stdout
    assert result.stdout.count("PASS") >= 15


def test_verify_fails_with_injected_error():
    result = run_cli(*VERIFY_FAST, "--inject-error", "1e-6")
    assert result.returncode == 1
    assert "FAIL" in result.stdout


def test_verify_output_is_reproducible():
    first = run_cli(*VERIFY_FAST)
    second = run_cli(*VERIFY_FAST)
    assert first.stdout == second.stdout


def test_usage_errors_exit_2():
    assert run_cli("sweep", "--measure", "negativity").returncode == 2
    assert run_cli("sweep").returncode == 2
    assert run_cli("diff", "--measure", "iconcurrence").returncode == 2
    result = run_cli("sweep", "--measure", "schmidt", "--channel", "PF", "--p", "0.3")
    assert result.returncode == 2
    assert "noiseless" in result.stderr


def test_out_path_failure_exits_2(tmp_path):
    result = run_cli(
        "sweep", "--measure", "concurrence", "--t-steps", "3",
        "--out", str(tmp_path / "missing" / "dir.csv"),
    )
    assert result.returncode == 2
    assert "error:" in result.stderr


def test_verify_rejects_a_non_finite_injected_error(capsys):
    for bad in ("nan", "inf"):
        argv = ["verify", "--inject-error", bad, "--measure", "concurrence",
                "--a-steps", "3", "--t-steps", "3"]
        assert cli.main(argv) == 2
        assert "finite" in capsys.readouterr().err
