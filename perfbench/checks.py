"""Correctness checks on the outputs of the benchmark's commands.

A command passes when it exits 0 and its output meets the CLI's contract:
the header, the row count and the t/a columns match the requested grid;
every row with a closed form has abs_err within the measure's `verify`
tolerance; rows without one leave the closed columns empty; and, where a
reference is available, every value agrees with it within the same
tolerance. Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import gzip
import json
import math
import re
from pathlib import Path

import numpy as np

from workloads import Command

COLUMNS = ("t", "a", "value", "value_closed", "abs_err")
#: the CLI prints 12 significant digits; grid coordinates read back within this
GRID_ATOL = 1e-10
#: |value - value_closed| recomputed from printed digits carries this rounding
PRINT_ATOL = 1e-11
#: SPECTRAL_NOISE_FLOOR of the package: spectral weight below it counts as zero
SPECTRAL_NOISE_FLOOR = 1e-13

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

_VERIFY_LINE = re.compile(r"^(\S+)\s+max_abs_err=(\S+)\s+tol=(\S+)\s+(PASS|FAIL)$")


def normalized_argv(cmd: Command) -> list:
    """The command line with the output path reduced to its file name."""
    argv = list(cmd.argv)
    for i in range(1, len(argv)):
        if argv[i - 1] == "--out":
            argv[i] = Path(argv[i]).name
    return argv


def read_table(path: Path, fmt: str):
    """Parse a CSV or JSON sweep output into an (n, 5) float array, NaN for
    empty fields. Returns (table, problems)."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        return None, [f"cannot read {path.name}: {exc}"]
    if fmt == "csv":
        lines = text.split("\n")
        if lines[0] != ",".join(COLUMNS) or lines[-1] != "":
            return None, [f"{path.name}: bad CSV header or missing final newline"]
        rows = [line.split(",") for line in lines[1:-1]]
        if any(len(r) != len(COLUMNS) for r in rows):
            return None, [f"{path.name}: a CSV row does not have {len(COLUMNS)} fields"]
        cells = [[float(x) if x else math.nan for x in r] for r in rows]
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            return None, [f"{path.name}: invalid JSON: {exc}"]
        if not isinstance(data, list) or any(
            not isinstance(r, dict) or tuple(r) != COLUMNS for r in data
        ):
            return None, [f"{path.name}: JSON is not a list of rows keyed {COLUMNS}"]
        cells = [[math.nan if r[k] is None else float(r[k]) for k in COLUMNS] for r in data]
    return np.array(cells, dtype=float).reshape(-1, len(COLUMNS)), []


def _first_bad(mask: np.ndarray) -> int:
    return int(np.flatnonzero(mask)[0])


def check_rows(cmd: Command, table: np.ndarray, reference=None) -> list:
    """Problems with one sweep/diff/avg-fidelity output table."""
    name = cmd.out
    if table.shape[0] != cmd.points:
        return [f"{name}: {table.shape[0]} rows, expected {cmd.points}"]
    t, a, value, closed, err = table.T
    want_a, want_t = cmd.grid()
    problems = []
    for label, got, want in (("t", t, want_t), ("a", a, want_a)):
        bad = ~(np.abs(got - want) <= GRID_ATOL)
        if bad.any():
            i = _first_bad(bad)
            problems.append(f"{name}: row {i} has {label}={got[i]:.12g}, expected {want[i]:.12g}")
    if not np.isfinite(value).all():
        problems.append(f"{name}: row {_first_bad(~np.isfinite(value))} value is not finite")
    if cmd.closed:
        tol = cmd.tolerance
        bad = ~((err <= tol) & (np.abs(value - closed) <= tol + PRINT_ATOL))
        if bad.any():
            i = _first_bad(bad)
            problems.append(
                f"{name}: row {i} value={value[i]:.12g} closed={closed[i]:.12g} "
                f"abs_err={err[i]:.12g} exceeds {tol:g}"
            )
    elif not (np.isnan(closed).all() and np.isnan(err).all()):
        problems.append(f"{name}: closed columns must be empty without a closed form")
    if cmd.diff_noise is not None:
        want = concurrence_diff(cmd.diff_noise, want_a, want_t)
        bad = ~(np.abs(value - want) <= cmd.tolerance)
        if bad.any():
            i = _first_bad(bad)
            problems.append(
                f"{name}: row {i} value={value[i]:.12g}, independent check {want[i]:.12g}"
            )
    if reference is not None:
        ref = np.asarray(reference, dtype=float)
        bad = ~(np.abs(value - ref) <= cmd.tolerance) if ref.shape == value.shape else None
        if bad is None:
            problems.append(f"{name}: reference has {ref.size} values, output {value.size}")
        elif bad.any():
            i = _first_bad(bad)
            problems.append(f"{name}: row {i} value={value[i]:.12g}, reference {ref[i]:.12g}")
    return problems


def parse_verify(text: str) -> dict:
    """{check name: (max_abs_err, tolerance, passed)} from `verify` output,
    or {} when the text is not in the expected form."""
    lines = text.rstrip("\n").split("\n")
    checks = {}
    for line in lines[:-1]:
        m = _VERIFY_LINE.match(line)
        if m is None:
            return {}
        checks[m[1]] = (float(m[2]), float(m[3]), m[4] == "PASS")
    if not lines[-1].startswith("verify: "):
        return {}
    return checks


def check_verify(code: int, text: str, reference=None) -> list:
    """Problems with one `verify` run: exit 0 and every check PASS within
    its tolerance; with a reference, every recorded check still present."""
    problems = [] if code == 0 else [f"verify exited {code}"]
    checks = parse_verify(text)
    if not checks:
        return problems + ["verify output is not in the expected form"]
    for name, (err, tol, passed) in checks.items():
        if not (passed and err <= tol):
            problems.append(f"verify check {name} failed: max_abs_err={err:.3e} tol={tol:.1e}")
    summary = text.rstrip("\n").split("\n")[-1]
    if summary != f"verify: PASS ({len(checks)}/{len(checks)} checks)":
        problems.append(f"verify summary reads {summary!r}")
    if reference is not None:
        missing = sorted(set(reference) - set(checks))
        if missing:
            problems.append(f"verify no longer runs checks {missing}")
    return problems


def load_reference(name: str):
    """The recorded reference for ``name``, or None if none was recorded."""
    path = REFERENCE_DIR / f"{name}.json.gz"
    if not path.is_file():
        return None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(name: str, payload) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    # mtime=0 keeps the file byte-identical when re-recorded from the same outputs
    with open(REFERENCE_DIR / f"{name}.json.gz", "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
            gz.write(json.dumps(payload, separators=(",", ":")).encode("utf-8"))


# --- independent value check for the numeric-only diff rows -----------------

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_YY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))


def _kraus(kind: str, p: float) -> list:
    sp, sq = math.sqrt(p), math.sqrt(1.0 - p)
    if kind == "PF":
        return [sp * _I, sq * _Z]
    if kind == "BF":
        return [sp * _I, sq * _X]
    damp = np.diag([1.0, sq]).astype(complex)
    if kind == "AD":
        return [damp, np.array([[0, sp], [0, 0]], dtype=complex)]
    return [damp, np.array([[0, 0], [0, sp]], dtype=complex)]


def _concurrence(rho: np.ndarray) -> np.ndarray:
    """Wootters concurrence of a stack of 2-qubit density matrices."""
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ np.conj(np.swapaxes(v, 1, 2))
    tilde = _YY @ np.conj(rho) @ _YY
    lam = np.linalg.eigvalsh(root @ tilde @ root)
    lam = np.sqrt(np.where(lam < SPECTRAL_NOISE_FLOOR, 0.0, lam))[:, ::-1]
    return np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])


def concurrence_diff(noise, a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """|C(noisy) - C(clean)| of the switched pair (alpha, -i sin(t) beta,
    cos(t) beta, 0), computed here in batch, independently of the package."""
    alpha, beta = np.sin(a), np.cos(a)
    psi = np.stack([alpha, -1j * np.sin(t) * beta, np.cos(t) * beta, np.zeros_like(a)], axis=1)
    rho = psi[:, :, None] * np.conj(psi)[:, None, :]
    noisy = np.zeros_like(rho)
    for e in _kraus(noise.kind, noise.p):
        op = np.kron(e, _I) if noise.qubit == 0 else np.kron(_I, e)
        noisy += op @ rho @ op.conj().T
    return np.abs(_concurrence(noisy) - _concurrence(rho))
