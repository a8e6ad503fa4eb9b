"""Record the reference outputs that run.py compares values against.

    python3 perfbench/record_reference.py

Runs every workload once at the default seed, plus the negative control's
known-good command, checks each output against the CLI contract, and
writes the values to perfbench/reference/<name>.json.gz. The committed
references were recorded at the commit that introduced the benchmark;
re-record only when an output is meant to change.
"""

from __future__ import annotations

import sys

import checks
import run
from workloads import DEFAULT_SEED, WORKLOADS, commands, control_commands


def record(name: str, cmds) -> None:
    payload = {}
    for cmd in cmds:
        code, text = run.run_command(cmd.argv)
        problems = run.check_command(cmd, (code, text), None)
        if problems:
            sys.exit(f"not recording {name}: {problems[:5]}")
        if cmd.out is None:
            values = sorted(checks.parse_verify(text))
        else:
            table, _ = checks.read_table(run.OUT_DIR / cmd.out, cmd.fmt)
            values = table[:, 2].tolist()
        payload[cmd.out or "verify"] = {"argv": checks.normalized_argv(cmd), "values": values}
    checks.save_reference(name, payload)
    print(f"recorded {name}: {len(payload)} commands")


def main() -> int:
    run.import_cli()
    run.OUT_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        record(workload, commands(workload, DEFAULT_SEED, run.OUT_DIR))
    record("control", control_commands(run.OUT_DIR)[:1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
