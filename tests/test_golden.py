"""Byte-for-byte golden outputs of the `switchsim` command on small grids.

Every case runs `switchsim.cli.main(argv)` in-process and compares what it
writes to stdout with the file of the same name under tests/golden/. The
measure and channel lists are written out here rather than read from the
package, so that a refactor of the package cannot change what is checked.

To re-record after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from switchsim import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

GRID = ("--a-steps", "3", "--t-steps", "5")
CLEAN_MEASURES = ("schmidt", "ppt", "concurrence", "iconcurrence", "entropy", "fidelity")
NOISY_MEASURES = ("ppt", "concurrence", "iconcurrence", "entropy")
CHANNEL_KINDS = ("PF", "BF", "AD", "PD")
NOISE_QUBITS = ("0", "1")
P = "0.3"


def _cases() -> dict:
    """{golden file name: argv}."""
    cases = {}
    for fmt in ("csv", "json"):
        for measure in CLEAN_MEASURES:
            cases[f"sweep_{measure}_clean.{fmt}"] = (
                "sweep", "--measure", measure, "--compare", *GRID, "--format", fmt,
            )
        for measure in NOISY_MEASURES + ("avg_fidelity",):
            for kind in CHANNEL_KINDS:
                for qubit in NOISE_QUBITS:
                    cases[f"sweep_{measure}_{kind}_q{qubit}.{fmt}"] = (
                        "sweep", "--measure", measure, "--compare", *GRID, "--format", fmt,
                        "--channel", kind, "--p", P, "--noise-qubit", qubit,
                    )
    for measure in NOISY_MEASURES:
        for kind in CHANNEL_KINDS:
            for qubit in NOISE_QUBITS:
                cases[f"diff_{measure}_{kind}_q{qubit}.csv"] = (
                    "diff", "--measure", measure, "--compare", *GRID,
                    "--channel", kind, "--p", P, "--noise-qubit", qubit,
                )
    for kind in CHANNEL_KINDS:
        for qubit in NOISE_QUBITS:
            cases[f"avg_fidelity_{kind}_q{qubit}.csv"] = (
                "avg-fidelity", "--compare", "--t-steps", "5",
                "--channel", kind, "--p", P, "--noise-qubit", qubit,
            )
    cases["verify.txt"] = ("verify", "--a-steps", "5", "--t-steps", "7")
    return cases


CASES = _cases()


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0, f"switchsim {' '.join(argv)} exited {code}"
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert run(CASES[name]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / name).write_text(run(argv), encoding="utf-8", newline="")
    print(f"recorded {len(CASES)} golden files in {GOLDEN}")
