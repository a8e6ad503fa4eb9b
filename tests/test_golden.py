"""Byte-for-byte golden outputs of the `switchsim` command on small grids.

Every case runs `switchsim.cli.main(argv)` in-process and compares what it
writes to stdout with the file of the same name under tests/golden/. The
measure and channel lists are written out here rather than read from the
package, so that a refactor of the package cannot change what is checked.

To re-record after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py

The recorder prints, for each file whose content it changes, the number of
rows that changed and the largest |new - old| of each numeric column.
"""

import contextlib
import io
import json
import re
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
    cases["verify_default.txt"] = ("verify",)
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


def _rows(name: str, text: str) -> list:
    """The rows of a golden file as {column: value} dicts: a CSV row by its
    header, a JSON object by its keys, and a line of text as the line
    itself and its `key=value` fields."""
    if name.endswith(".csv"):
        header, *lines = text.splitlines()
        return [dict(zip(header.split(","), line.split(","))) for line in lines]
    if name.endswith(".json"):
        return json.loads(text)
    return [{"line": line, **dict(re.findall(r"(\w+)=(\S+)", line))}
            for line in text.splitlines()]


def _number(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _change_report(name: str, old: str, new: str) -> str:
    """How many rows of a golden file changed, and the largest |new - old|
    of each column that holds numbers in both versions of a row."""
    before, after = _rows(name, old), _rows(name, new)
    changed = sum(b != a for b, a in zip(before, after)) + abs(len(before) - len(after))
    deltas = {}
    for b, a in zip(before, after):
        for column, value in a.items():
            x, y = _number(b.get(column)), _number(value)
            if x is not None and y is not None:
                deltas[column] = max(deltas.get(column, 0.0), abs(y - x))
    widest = ", ".join(f"{column} {delta:.3g}" for column, delta in deltas.items())
    return f"{name}: {changed} of {len(after)} rows changed; max |delta|: {widest}"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        path = GOLDEN / name
        old = path.read_text(encoding="utf-8") if path.exists() else None
        new = run(argv)
        if old is None:
            print(f"{name}: new file")
        elif new != old:
            print(_change_report(name, old, new))
        path.write_text(new, encoding="utf-8", newline="")
    print(f"recorded {len(CASES)} golden files in {GOLDEN}")
