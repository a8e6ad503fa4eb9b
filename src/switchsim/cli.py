"""Command-line front end.

Subcommands:

    sweep         one measure over a (t, a) grid, CSV/JSON out
    diff          |noisy - clean| of a measure over the grid
    avg-fidelity  average gate fidelity of the noisy switch over t
    verify        closed-form-vs-numeric battery; exit 1 on any failure

Exit codes: 0 success, 1 verification failure, 2 usage error.

The parser is built once per process, on the first call of ``main``, and
reused by every later call: ``parse_args`` fills a new namespace each time
and leaves the parser as it was, so ``main`` may be called repeatedly in
one process, as the tests and the benchmarks do. ``build_parser`` returns
a new parser on every call.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Optional

from . import entanglement as ent
from . import sweep as sw
from .channels import CHANNEL_KINDS


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--a", type=float, default=math.pi / 4,
        help="input angle a of |A> = sin(a)|0> + cos(a)|1> (default pi/4)",
    )
    parser.add_argument(
        "--a-steps", type=int, default=1,
        help="sweep a over <0, pi/2> with this many points instead of a single --a",
    )
    parser.add_argument("--t-min", type=float, default=0.0, help="start of the time grid")
    parser.add_argument(
        "--t-max", type=float, default=math.pi / 2, help="end of the time grid (default pi/2)"
    )
    parser.add_argument("--t-steps", type=int, default=101, help="time grid points (default 101)")


def _add_channel_flags(parser: argparse.ArgumentParser, required: bool = False) -> None:
    parser.add_argument(
        "--channel", choices=CHANNEL_KINDS, type=str.upper, required=required,
        help="noise channel kind (PF and BF are noiseless at p=1, AD and PD at p=0)",
    )
    parser.add_argument(
        "--p", type=float, default=0.74,
        help="decoherence probability in [0, 1] (default 0.74)",
    )
    parser.add_argument(
        "--noise-qubit", type=int, default=0, choices=sw.NOISE_QUBITS,
        help="data qubit the noise acts on (default 0, the first)",
    )


def _add_log_base_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-base", choices=ent.LOG_SCALES, default="e",
        help="entropy unit: natural log (nats) or log2 (bits)",
    )


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=sw.FORMATS, default="csv")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchsim",
        description=(
            "Simulate the three-qubit controlled-swap switch and emit "
            "entanglement/entropy/fidelity diagnostics with closed-form cross-checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="one measure over a (t, a) grid")
    p_sweep.add_argument(
        "--measure", choices=sw.MEASURES, required=True, help="diagnostic to sweep"
    )
    _add_grid_flags(p_sweep)
    _add_channel_flags(p_sweep)
    _add_output_flags(p_sweep)
    _add_log_base_flag(p_sweep)
    p_sweep.add_argument(
        "--compare", action="store_true",
        help="also evaluate the closed form and the absolute error per row",
    )

    p_diff = sub.add_parser("diff", help="|noisy - clean| of a measure over the grid")
    p_diff.add_argument("--measure", choices=sw.mixed_measures(), required=True)
    _add_grid_flags(p_diff)
    _add_channel_flags(p_diff, required=True)
    _add_output_flags(p_diff)
    _add_log_base_flag(p_diff)
    p_diff.add_argument("--compare", action="store_true")

    p_avg = sub.add_parser(
        "avg-fidelity", help="average gate fidelity of the noisy switch over t"
    )
    _add_grid_flags(p_avg)
    _add_channel_flags(p_avg, required=True)
    _add_output_flags(p_avg)
    p_avg.add_argument("--compare", action="store_true")

    p_verify = sub.add_parser(
        "verify", help="run the closed-form-vs-numeric battery; exit 1 on failure"
    )
    p_verify.add_argument(
        "--measure", choices=sw.MEASURES, default=None,
        help="restrict the battery to one measure (default: everything)",
    )
    p_verify.add_argument("--a-steps", type=int, default=50)
    p_verify.add_argument("--t-steps", type=int, default=50)
    _add_log_base_flag(p_verify)
    p_verify.add_argument(
        "--inject-error", type=float, default=0.0,
        help="offset added to every closed form; a harness self-test, nonzero must fail",
    )
    return parser


#: the parser ``main`` reads, built by its first call
_parser = functools.cache(build_parser)


#: options that take a float; argparse reads a value such as -1e-5 or -inf,
#: which is not a plain negative decimal, as an option of its own
_FLOAT_OPTIONS = ("--a", "--t-min", "--t-max", "--p", "--inject-error")


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _joined_negative_floats(argv) -> list:
    """``argv`` with each float option and a following negative number
    written as one argument, ``--a=-1e-5``, the form argparse reads as
    the option's value."""
    out = []
    for arg in argv:
        if out and out[-1] in _FLOAT_OPTIONS and arg.startswith("-") and _is_float(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _config_from(args, measure: Optional[str] = None) -> sw.SweepConfig:
    channel = None
    if args.channel is not None:
        channel = sw.ChannelSpec(kind=args.channel, p=args.p, qubit=args.noise_qubit)
    return sw.SweepConfig(
        measure=measure or args.measure,
        a=args.a,
        a_steps=args.a_steps,
        t_min=args.t_min,
        t_max=args.t_max,
        t_steps=args.t_steps,
        channel=channel,
        # the average fidelity has no logarithm, so avg-fidelity takes no --log-base
        log_base=getattr(args, "log_base", "e"),
        compare=args.compare,
    )


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(_joined_negative_floats(argv))
    try:
        if args.command == "sweep":
            sw.emit(sw.run_sweep(_config_from(args)), args.format, args.out)
            return 0
        if args.command == "diff":
            sw.emit(sw.diff_sweep(_config_from(args)), args.format, args.out)
            return 0
        if args.command == "avg-fidelity":
            sw.emit(sw.run_sweep(_config_from(args, measure="avg_fidelity")), args.format, args.out)
            return 0
        # verify
        checks = sw.verify(
            measures=None if args.measure is None else [args.measure],
            a_steps=args.a_steps,
            t_steps=args.t_steps,
            log_base=args.log_base,
            inject_error=args.inject_error,
        )
        width = max(len(c.name) for c in checks)
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            print(
                f"{c.name:<{width}}  max_abs_err={c.max_abs_err:.3e}  "
                f"tol={c.tolerance:.1e}  {status}"
            )
        failed = [c for c in checks if not c.passed]
        print(f"verify: {'FAIL' if failed else 'PASS'} "
              f"({len(checks) - len(failed)}/{len(checks)} checks)")
        return 1 if failed else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
