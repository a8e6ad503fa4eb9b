"""The switchsim benchmark.

Drives `switchsim.cli.main(argv)` in-process, from one process and one
thread, as a closed loop: each command starts when the previous one has
returned. One pass runs every command of a workload once; passes repeat
for about ``--seconds``. Every pass's outputs are checked (see checks.py)
outside the timed region.

    python3 perfbench/run.py --workload surface_clean --seed 0 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs untraced passes, then traced ones (see tracer.py), and reports the
per-layer metrics. Every metric is printed with its unit, and the last
line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from speed import SpeedSampler
from tracer import LIFT, Tracer
from workloads import DEFAULT_SEED, WORKLOADS, commands, control_commands, warmup_commands

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: run outputs (sweep files, spans); ignored by git
OUT_DIR = ROOT / ".perfbench"

#: fewest passes behind a median, whatever --seconds says
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
#: fresh interpreters timed for setup_s after each of the first MIN_PASSES
#: passes, so that the samples span the run rather than one moment of it
SETUP_SAMPLES_PER_PASS = 3

_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from switchsim import cli
cli.build_parser()
elapsed = time.perf_counter() - t0
if not cli.__file__.startswith(sys.argv[1]):
    sys.exit(f"switchsim imported from {cli.__file__}, not {sys.argv[1]}")
print(repr(elapsed))
"""
#: the calibration for setup_s: a fresh interpreter that imports only numpy
_NUMPY_CHILD = """
import time
t0 = time.perf_counter()
import numpy
print(repr(time.perf_counter() - t0))
"""
#: seconds `import numpy` in a fresh interpreter is taken to last at the reference speed
NUMPY_IMPORT_REFERENCE_S = 0.1

#: traced labels reported as <label>.calls and <label>.self_s
CALLS_AND_SELF = (
    "states.PureState", "states.DensityMatrix",
    "channels.make_channel", "channels.lift", "channels.apply_channel", "channels.KrausChannel",
    "switch.switch_unitary", "switch.evolve", "switch.switched_pair", "switch.switch_fidelity",
)
#: traced labels reported as <label>.self_s only
SELF_ONLY = (
    "states.tensor", "states.to_density", "states.partial_trace", "states.partial_transpose",
    "states.project_control",
    "linalg.hermitian_eigensystem", "linalg.psd_sqrt",
    "channels.average_fidelity_numeric",
    "entanglement.schmidt_coefficients", "entanglement.ppt_spectrum", "entanglement.concurrence",
    "entanglement.iconcurrence", "entanglement.von_neumann_entropy",
    "entanglement.noisy_pair_density",
    "sweep.run_sweep", "sweep.diff_sweep", "sweep.verify",
    "cli.main",
)


def import_cli() -> None:
    """Import switchsim.cli from this checkout's src/, or exit without a result."""
    # cache the package's bytecode whatever PYTHONDONTWRITEBYTECODE says, so
    # that setup_s times an import as an installed package makes it
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))
    try:
        from switchsim import cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import switchsim from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: switchsim was imported from {cli.__file__}, not {SRC}")


def run_command(argv) -> tuple:
    """(exit code, captured stdout) of one in-process CLI invocation."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            # looked up per call, so that the tracer's wrapper is the one called
            code = sys.modules["switchsim.cli"].main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash in the program is a failed command, not a failed benchmark
        traceback.print_exc(file=sys.stderr)
        code = -1
    return code, buf.getvalue()


def run_pass(cmds, sampler=None) -> tuple:
    """(wall seconds, [(exit code, stdout)] per command) of one pass, with
    the machine's speed sampled throughout when ``sampler`` is given."""
    results = []
    # start from a collected heap, as a fresh CLI process would, whatever the
    # checks of the previous pass left behind
    gc.collect()
    with sampler or contextlib.nullcontext():
        start = time.perf_counter()
        for cmd in cmds:
            results.append(run_command(cmd.argv))
    # read after the sampler is disarmed, so that every sample lies inside
    return time.perf_counter() - start, results


def reference_values(cmd, reference):
    """The recorded values for ``cmd``, or None when no recording has the
    same command line (surface_noisy is recorded for the default seed only)."""
    entry = (reference or {}).get(cmd.out or "verify")
    if entry is None or entry["argv"] != checks.normalized_argv(cmd):
        return None
    return entry["values"]


def check_command(cmd, result, reference, require_reference: bool = False) -> list:
    """Problems with one command's (exit code, stdout) and output file."""
    code, text = result
    ref = reference_values(cmd, reference)
    missing = ([f"{cmd.out or 'verify'}: no reference recorded for this command"]
               if require_reference and ref is None else [])
    if cmd.out is None:
        return checks.check_verify(code, text, ref) + missing
    if code != 0:
        return [f"{' '.join(cmd.argv[:3])}: exit {code}"] + missing
    table, problems = checks.read_table(OUT_DIR / cmd.out, cmd.fmt)
    return (problems or checks.check_rows(cmd, table, ref)) + missing


def negative_control() -> list:
    """Problems with the checker itself: a known-good command must pass, and
    both an injected verify error and a perturbed reference must fail."""
    good, bad = control_commands(OUT_DIR)
    reference = checks.load_reference("control")
    problems = []
    good_result = run_command(good.argv)
    if check_command(good, good_result, reference):
        problems.append("control: the known-good command does not pass")
    perturbed = copy.deepcopy(reference)
    perturbed[good.out]["values"][7] += 10 * good.tolerance  # any row will do
    if not check_command(good, good_result, perturbed):
        problems.append("control: a perturbed reference is not detected")
    if not check_command(bad, run_command(bad.argv), None):
        problems.append("control: verify --inject-error 1e-6 is not detected")
    return problems


def child_seconds(script: str, *args: str) -> float:
    """The seconds a fresh interpreter running ``script`` prints."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def setup_samples(n: int) -> list:
    """``n`` times for a fresh interpreter to import switchsim and build the
    CLI parser, at the reference speed. The benchmark process has already
    imported both, so the bytecode and file caches are warm.

    Most of that time is numpy's import, which no interpreter-loop
    calibration tracks, so each sample is bracketed by fresh interpreters
    that import only numpy and is scaled by their mean: the time at the
    speed at which numpy imports in NUMPY_IMPORT_REFERENCE_S."""
    numpy_s = [child_seconds(_NUMPY_CHILD)]
    samples = []
    for _ in range(n):
        setup = child_seconds(_SETUP_CHILD, str(SRC))
        numpy_s.append(child_seconds(_NUMPY_CHILD))
        samples.append(setup * NUMPY_IMPORT_REFERENCE_S / statistics.fmean(numpy_s[-2:]))
    return samples


def layer_metrics(tracer: Tracer, summary: dict, points: int, emit_bytes: int) -> dict:
    """Per-layer values of one traced pass: {name: (value, unit)}."""
    metrics = {}
    calls = {label: s[0] for label, s in summary.items()}
    self_s = {label: s[1] for label, s in summary.items()}
    for label in CALLS_AND_SELF:
        metrics[f"{label}.calls"] = (calls.get(label, 0), "count")
        metrics[f"{label}.self_s"] = (self_s.get(label, 0.0), "s")
    for label in SELF_ONLY:
        metrics[f"{label}.self_s"] = (self_s.get(label, 0.0), "s")
    closed = [label for label in summary if label.endswith("_closed")]
    metrics["entanglement.closed.self_s"] = (sum(self_s[label] for label in closed), "s")
    metrics["sweep.points"] = (points, "count")
    metrics["sweep.emit.s"] = (summary.get("sweep.emit", (0, 0.0, 0.0))[2], "s")
    metrics["sweep.emit.bytes"] = (emit_bytes, "bytes")
    eigensolves = tracer.counts["numpy.linalg.eigh"] + tracer.counts["numpy.linalg.eigvalsh"]
    validations = calls.get("states.PureState", 0) + calls.get("states.DensityMatrix", 0)
    lifts = calls.get(LIFT, 0)
    metrics["numpy.eigensolves"] = (eigensolves, "count")
    metrics["numpy.kron.calls"] = (tracer.counts["numpy.kron"], "count")
    metrics["states.validations_per_point"] = (validations / points, "ratio")
    metrics["linalg.eigensolves_per_point"] = (eigensolves / points, "ratio")
    metrics["channels.lift.useful_ratio"] = (
        len(tracer.lift_keys) / lifts if lifts and not tracer.lift_probe_failed else 0.0, "ratio"
    )
    return metrics


def enough(walls, started: float, seconds: float, min_passes: int) -> bool:
    """True once ``min_passes`` have run and one more pass would end more
    than ``seconds`` after ``started``. The time spent checking outputs
    counts, so that a run's length does not grow as passes get faster."""
    return (len(walls) >= min_passes
            and time.perf_counter() - started + statistics.median(walls) > seconds)


def emitted_bytes(cmds) -> int:
    return sum((OUT_DIR / c.out).stat().st_size for c in cmds
               if c.out is not None and (OUT_DIR / c.out).exists())


class Passes:
    """Runs passes over one workload and checks each pass's outputs after it,
    keeping the tally of commands attempted and failed."""

    def __init__(self, cmds, reference, require_reference: bool, sample_speed: bool):
        self.cmds = cmds
        self.sample_speed = sample_speed
        self.reference = reference
        self.require_reference = require_reference
        self.attempted = self.failed = 0
        self.problems: list = []
        self.peak_rss_mb = None
        #: per untraced pass: time at the reference speed, median calibration unit
        self.normalized: list = []
        self.unit_s: list = []

    def run(self, tracer=None) -> float:
        """Wall seconds of one pass, traced when ``tracer`` is given. An
        untraced pass also samples the machine's speed, and its time at the
        reference speed is appended to ``normalized``."""
        sampler = SpeedSampler() if self.sample_speed and not tracer else None
        with tracer or contextlib.nullcontext():
            wall, results = run_pass(self.cmds, sampler)
        if sampler is not None:
            self.normalized.append(sampler.normalize(wall))
            self.unit_s.append(sampler.median_sample())
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        per_command = [check_command(cmd, result, self.reference, self.require_reference)
                       for cmd, result in zip(self.cmds, results)]
        self.attempted += len(self.cmds)
        self.failed += sum(1 for p in per_command if p)
        self.problems += [p for ps in per_command for p in ps]
        return wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"draws surface_noisy's noise probabilities (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long to repeat passes; a few passes run whatever it says")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_cli()
    OUT_DIR.mkdir(exist_ok=True)
    cmds = commands(args.workload, args.seed, OUT_DIR)
    points = sum(c.points for c in cmds)
    passes = Passes(cmds, checks.load_reference(args.workload),
                    require_reference=args.seed == DEFAULT_SEED,
                    # a traced run compares raw pass times, for trace.overhead_s
                    sample_speed=args.trace == 0)

    for warmup in warmup_commands(OUT_DIR):
        run_command(warmup)

    # a traced run times one untraced pass, for trace.overhead_s, and spends
    # --seconds on traced ones
    walls, setup, started = [], [], time.perf_counter()
    while not enough(walls, started, args.seconds if args.trace == 0 else 0.0,
                     MIN_PASSES if args.trace == 0 else 1):
        walls.append(passes.run())
        if args.trace == 0 and len(walls) <= MIN_PASSES:
            setup += setup_samples(SETUP_SAMPLES_PER_PASS)
    traced_walls, started = [], time.perf_counter()
    tracers = []
    while args.trace == 1 and not enough(traced_walls, started, args.seconds, MIN_TRACED_PASSES):
        tracer = Tracer()
        traced_walls.append(passes.run(tracer))
        tracers.append((tracer, emitted_bytes(cmds)))

    problems = passes.problems + negative_control()
    wall_s = statistics.median(walls)
    print(f"pass walls (s): {[round(w, 4) for w in walls]}")
    print(f"passes at the reference speed (s): {[round(w, 4) for w in passes.normalized]}")
    print(f"median calibration unit per pass (ms): {[round(u * 1e3, 4) for u in passes.unit_s]}")
    if args.trace == 0:
        ref_wall_s = statistics.median(passes.normalized)
        metrics = {
            "wall_s": (ref_wall_s, "s"),
            "points_per_s": (points / ref_wall_s, "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (passes.peak_rss_mb, "MB"),
        }
    else:
        print(f"traced pass walls (s): {[round(w, 4) for w in traced_walls]}")
        metrics, trace_problems = traced_metrics(args.workload, tracers, points,
                                                 traced_walls, wall_s)
        problems += trace_problems

    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    print(f"commands attempted {passes.attempted}, failed {passes.failed}, "
          f"error_rate {passes.failed / passes.attempted:g}")
    print(json.dumps({
        "correct": not problems,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


def traced_metrics(workload: str, tracers: list, points: int, traced_walls, untraced_wall):
    """Per-layer metrics over the traced passes: counts must repeat exactly
    between passes; times are medians. Writes the spans and a summary."""
    problems, per_pass, summaries = [], [], []
    for tracer, emit_bytes in tracers:
        summary = tracer.summary()
        summaries.append(summary)
        per_pass.append(layer_metrics(tracer, summary, points, emit_bytes))
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
        else:
            if any(v != value for v in values):
                problems.append(f"trace: {name} differs between traced passes: {values}")
            metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (statistics.median(traced_walls) - untraced_wall, "s")
    absent = tracers[0][0].absent
    print(f"absent (reported as 0): {absent or 'none'}")

    np.savez(OUT_DIR / f"spans_{workload}.npz",
             **{f"pass{i}_{key}": array for i, (tracer, _) in enumerate(tracers)
                for key, array in tracer.spans().items()})
    (OUT_DIR / f"trace_{workload}.json").write_text(json.dumps({
        "absent": absent,
        "passes": [{label: {"calls": c, "self_s": s, "inclusive_s": i}
                    for label, (c, s, i) in summary.items()} for summary in summaries],
        "counts": [dict(t.counts) for t, _ in tracers],
    }, indent=1) + "\n")
    return metrics, problems


if __name__ == "__main__":
    sys.exit(main())
