"""The benchmark's workloads: lists of `switchsim` command lines.

Every command runs on the CLI's default domain, t and a in [0, pi/2], and
no grid exceeds 5,050 points. Only flags the CLI is meant to keep are
passed; in particular `--seed` is never passed, because the CLI's own
`--seed` is slated for removal. The benchmark seed only draws the four
noise probabilities of `surface_noisy`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

DEFAULT_SEED = 0
WORKLOADS = ("verify", "surface_clean", "surface_noisy")

CLEAN_MEASURES = ("schmidt", "ppt", "concurrence", "iconcurrence", "entropy", "fidelity")
CHANNEL_KINDS = ("PF", "BF", "AD", "PD")

#: `switchsim verify` tolerances: every measure at 1e-9, average fidelity at 1e-10
TOLERANCE = 1e-9
AVG_FIDELITY_TOLERANCE = 1e-10

#: grid points `switchsim verify` evaluates with its default arguments:
#: six clean measures on 50 x 50, noisy I-concurrence for 4 channels x 5 p
#: on 9 x 50, average fidelity for 4 channels on 20 x 20 plus PF=BF on 20 x 20
VERIFY_POINTS = 6 * 50 * 50 + 4 * 5 * 9 * 50 + 4 * 20 * 20 + 20 * 20


@dataclass(frozen=True)
class Noise:
    kind: str
    p: float
    qubit: int


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must look like."""

    argv: tuple
    #: output file name inside the run directory; None for `verify` (stdout)
    out: Optional[str] = None
    a_steps: int = 1
    t_steps: int = 101
    #: rows carry a closed form and abs_err that must be within `tolerance`
    closed: bool = False
    tolerance: float = TOLERANCE
    #: the command is `diff --measure concurrence` under this noise
    diff_noise: Optional[Noise] = None

    @property
    def points(self) -> int:
        return VERIFY_POINTS if self.out is None else self.a_steps * self.t_steps

    @property
    def fmt(self) -> str:
        return "text" if self.out is None else Path(self.out).suffix[1:]

    def grid(self):
        """(a, t) of every row in emission order: a outer, t fastest."""
        if self.a_steps == 1:
            a = np.array([math.pi / 4])
        else:
            a = np.linspace(0.0, math.pi / 2, self.a_steps)
        t = np.linspace(0.0, math.pi / 2, self.t_steps)
        return np.repeat(a, self.t_steps), np.tile(t, self.a_steps)


def noise_probabilities(seed: int) -> list:
    """Four p values in (0, 1), one per channel kind, drawn from ``seed``."""
    rng = random.Random(seed)
    out = []
    while len(out) < len(CHANNEL_KINDS):
        p = round(rng.random(), 6)
        if 0.0 < p < 1.0:
            out.append(p)
    return out


def commands(workload: str, seed: int, out_dir: Path) -> list:
    """The command lines of one pass over ``workload``."""
    if workload == "verify":
        return [Command(argv=("verify",))]
    if workload == "surface_clean":
        cmds = []
        for i, measure in enumerate(CLEAN_MEASURES):
            fmt = "csv" if i % 2 == 0 else "json"
            name = f"clean_{measure}.{fmt}"
            cmds.append(Command(
                argv=("sweep", "--measure", measure, "--compare", "--a-steps", "50",
                      "--t-steps", "101", "--format", fmt, "--out", str(out_dir / name)),
                out=name, a_steps=50, t_steps=101, closed=True,
            ))
        return cmds
    if workload == "surface_noisy":
        cmds = []
        for kind, p in zip(CHANNEL_KINDS, noise_probabilities(seed)):
            noise = ("--channel", kind, "--p", repr(p))
            sweep_out, diff_out, avg_out = (f"noisy_{kind}_{part}.csv"
                                            for part in ("sweep", "diff", "avg"))
            cmds += [
                Command(
                    argv=("sweep", "--measure", "iconcurrence", "--compare", *noise,
                          "--noise-qubit", "0", "--a-steps", "10", "--t-steps", "101",
                          "--out", str(out_dir / sweep_out)),
                    out=sweep_out, a_steps=10, t_steps=101, closed=True,
                ),
                Command(
                    argv=("diff", "--measure", "concurrence", *noise, "--noise-qubit", "1",
                          "--a-steps", "10", "--t-steps", "101", "--out", str(out_dir / diff_out)),
                    out=diff_out, a_steps=10, t_steps=101, diff_noise=Noise(kind, p, 1),
                ),
                Command(
                    argv=("avg-fidelity", "--compare", *noise, "--t-steps", "1001",
                          "--out", str(out_dir / avg_out)),
                    out=avg_out, a_steps=1, t_steps=1001, closed=True,
                    tolerance=AVG_FIDELITY_TOLERANCE,
                ),
            ]
        return cmds
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def warmup_commands(out_dir: Path) -> list:
    """Every code path of every workload on tiny grids, run once before timing
    so that lazy set-up in numpy and the interpreter is done."""
    out = str(out_dir / "warmup.csv")
    cmds = [("verify", "--a-steps", "2", "--t-steps", "2")]
    cmds += [("sweep", "--measure", m, "--compare", "--t-steps", "3", "--out", out)
             for m in CLEAN_MEASURES]
    cmds += [("sweep", "--measure", "iconcurrence", "--compare", "--channel", "AD", "--p", "0.5",
              "--t-steps", "3", "--format", "json", "--out", out),
             ("diff", "--measure", "concurrence", "--channel", "AD", "--p", "0.5",
              "--noise-qubit", "1", "--t-steps", "3", "--out", out),
             ("avg-fidelity", "--compare", "--channel", "AD", "--p", "0.5",
              "--t-steps", "3", "--out", out)]
    return cmds


def control_commands(out_dir: Path):
    """Commands for the negative control, run outside the timed passes.

    Returns (known-good sweep whose reference is recorded, verify with an
    injected error that must fail).
    """
    good = Command(
        argv=("sweep", "--measure", "concurrence", "--compare", "--a-steps", "3",
              "--t-steps", "11", "--out", str(out_dir / "control.csv")),
        out="control.csv", a_steps=3, t_steps=11, closed=True,
    )
    bad = Command(argv=("verify", "--inject-error", "1e-6", "--measure", "iconcurrence",
                        "--a-steps", "3", "--t-steps", "3"))
    return good, bad
