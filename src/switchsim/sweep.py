"""Parameter sweeps over the switch time t and input angle a, with
closed-form cross-checks.

Every sweep runs over the state |A>|0>|1> with |A> = sin(a)|0> + cos(a)|1>.
Each diagnostic is one entry of the measure table ``MEASURES``: its numeric
route, its clean and noisy closed forms, its verification tolerance and the
states it accepts. Sweeps, diffs, ``verify`` and the command line all read
that table. The numeric route always runs; the closed-form column is filled
whenever the entry has a closed form for the configuration (clean runs for
every measure, noisy runs for the I-concurrence and the average fidelity
with noise on qubit 0). Output is deterministic: identical configurations
produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import channels as ch
from . import entanglement as ent
from . import states, switch

#: verification gate per measure
DEFAULT_TOLERANCE = 1e-9
AVG_FIDELITY_TOLERANCE = 1e-10


@dataclass(frozen=True)
class Measure:
    """One diagnostic: how to compute it twice, and how close the two must be.

    ``numeric(a, t, lifted, log_base)`` computes the value from the evolved
    state; ``lifted`` is the channel already lifted onto the register, or
    None for a clean run. ``closed(alpha0, beta0, t, log_base)`` is the
    clean closed form and ``noisy_closed(kind, p, t, alpha0, beta0)`` the
    closed form under noise on qubit 0; either may be None. ``mixed`` says
    whether the numeric route accepts a noisy (mixed) pair; ``gate`` marks a
    property of the noisy switch itself, which needs a channel and lifts it
    onto all three qubits.
    """

    name: str
    numeric: Callable[[float, float, Optional[ch.KrausChannel], str], float]
    closed: Optional[Callable[[complex, complex, float, str], float]]
    noisy_closed: Optional[Callable[[str, float, float, complex, complex], float]]
    tolerance: float
    mixed: bool
    gate: bool = False


def _pure_pair(a: float, t: float) -> states.PureState:
    return switch.switched_pair(states.qubit_from_angle(a), t)


def _pair(a: float, t: float, lifted: Optional[ch.KrausChannel]) -> states.DensityMatrix:
    """The switched pair as a density matrix, after the channel if one is given."""
    rho = states.to_density(_pure_pair(a, t))
    return rho if lifted is None else ch.apply_channel(rho, lifted)


def _register(a: float) -> states.PureState:
    """The switch's input |A>|0>|1>."""
    return states.tensor(
        [states.qubit_from_angle(a), states.make_qubit(1.0, 0.0), states.make_qubit(0.0, 1.0)]
    )


# The routes call through module attributes instead of holding function
# objects, so that a rebound package function is called here as well.
MEASURES = {m.name: m for m in (
    Measure(
        "schmidt",
        numeric=lambda a, t, lifted, base: ent.schmidt_coefficients(_pure_pair(a, t)).lambda0,
        closed=lambda al, be, t, base: ent.schmidt_closed(be, t).lambda0,
        noisy_closed=None, tolerance=DEFAULT_TOLERANCE, mixed=False,
    ),
    Measure(
        "ppt",
        numeric=lambda a, t, lifted, base: float(ent.ppt_spectrum(_pair(a, t, lifted))[0]),
        closed=lambda al, be, t, base: float(ent.ppt_closed(al, be, t)[0]),
        noisy_closed=None, tolerance=DEFAULT_TOLERANCE, mixed=True,
    ),
    Measure(
        "concurrence",
        numeric=lambda a, t, lifted, base: ent.concurrence(_pair(a, t, lifted)),
        closed=lambda al, be, t, base: ent.concurrence_closed(be, t),
        noisy_closed=None, tolerance=DEFAULT_TOLERANCE, mixed=True,
    ),
    Measure(
        "iconcurrence",
        numeric=lambda a, t, lifted, base: ent.iconcurrence(_pair(a, t, lifted), "B"),
        closed=lambda al, be, t, base: ent.iconcurrence_closed(al, be, t),
        noisy_closed=lambda kind, p, t, al, be: ent.iconcurrence_noisy_closed(kind, p, t, al, be),
        tolerance=DEFAULT_TOLERANCE, mixed=True,
    ),
    Measure(
        "entropy",
        numeric=lambda a, t, lifted, base: ent.von_neumann_entropy(
            states.partial_trace(_pair(a, t, lifted), {1}), base
        ),
        closed=lambda al, be, t, base: ent.reduced_entropy_closed(al, be, t, base),
        noisy_closed=None, tolerance=DEFAULT_TOLERANCE, mixed=True,
    ),
    Measure(
        "fidelity",
        numeric=lambda a, t, lifted, base: switch.switch_fidelity(_register(a), t),
        closed=lambda al, be, t, base: ent.fidelity_closed(al, be, t),
        noisy_closed=None, tolerance=DEFAULT_TOLERANCE, mixed=False,
    ),
    Measure(
        "avg_fidelity",
        numeric=lambda a, t, lifted, base: ch.average_fidelity_numeric(
            switch.switch_unitary(t).matrix, lifted
        ),
        closed=None,
        noisy_closed=lambda kind, p, t, al, be: ch.average_fidelity_closed(kind, p, t),
        tolerance=AVG_FIDELITY_TOLERANCE, mixed=False, gate=True,
    ),
)}


def mixed_measures() -> tuple:
    """Names of the measures whose numeric route accepts a noisy pair."""
    return tuple(name for name, m in MEASURES.items() if m.mixed)


@dataclass(frozen=True)
class ChannelSpec:
    kind: str
    p: float
    qubit: int = 0

    def __post_init__(self):
        ch.check_kind(self.kind)
        if not (math.isfinite(self.p) and 0.0 <= self.p <= 1.0):
            raise ValueError(f"probability must lie in [0, 1], got {self.p!r}")
        if self.qubit not in (0, 1):
            raise ValueError(f"noise qubit must be 0 or 1, got {self.qubit}")

    def make(self) -> ch.KrausChannel:
        return ch.make_channel(self.kind, self.p)


@dataclass(frozen=True)
class SweepConfig:
    measure: str
    a: float = math.pi / 4
    a_steps: int = 1
    t_min: float = 0.0
    t_max: float = math.pi / 2
    t_steps: int = 101
    channel: Optional[ChannelSpec] = None
    log_base: str = "e"
    compare: bool = False

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ValueError(
                f"unknown measure {self.measure!r}; expected one of {tuple(MEASURES)}"
            )
        if self.t_steps < 2:
            raise ValueError(f"t_steps must be >= 2, got {self.t_steps}")
        if self.a_steps < 1:
            raise ValueError(f"a_steps must be >= 1, got {self.a_steps}")
        for name in ("a", "t_min", "t_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.t_max < self.t_min:
            raise ValueError("t_max must be >= t_min")
        ent._log_scale(self.log_base)  # validates

    def a_values(self) -> np.ndarray:
        if self.a_steps == 1:
            return np.array([self.a])
        return np.linspace(0.0, math.pi / 2, self.a_steps)

    def t_values(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.t_steps)

    def grid(self) -> list:
        """(a, t) of every grid point: a outer, t fastest."""
        ts = [float(t) for t in self.t_values()]
        return [(float(a), t) for a in self.a_values() for t in ts]


@dataclass(frozen=True)
class SweepRow:
    t: float
    a: float
    value_numeric: float
    value_closed: Optional[float] = None
    abs_err: Optional[float] = None


Route = Callable[[float, float], float]


def _routes(config: SweepConfig) -> tuple[Route, Optional[Route]]:
    """The numeric route of ``config`` and its closed form as functions of
    (a, t). The closed form is None without ``compare`` or where the table
    has none (noise on qubit 1 included). The channel is built and lifted
    here, once per configuration."""
    m = MEASURES[config.measure]
    spec, base = config.channel, config.log_base
    if m.gate and spec is None:
        raise ValueError(f"{m.name} needs a channel (--channel/--p)")
    if spec is not None and not (m.mixed or m.gate):
        raise ValueError(
            f"measure {m.name!r} is defined for noiseless (pure) states "
            f"only; drop the channel or pick one of {mixed_measures()}"
        )
    lifted = None if spec is None else ch.lift(spec.make(), spec.qubit, 3 if m.gate else 2)

    def numeric(a: float, t: float) -> float:
        return m.numeric(a, t, lifted, base)

    if not config.compare:
        return numeric, None
    if spec is None:
        if m.closed is None:
            return numeric, None
        return numeric, lambda a, t: m.closed(math.sin(a), math.cos(a), t, base)
    if spec.qubit != 0 or m.noisy_closed is None:
        return numeric, None
    return numeric, lambda a, t: m.noisy_closed(spec.kind, spec.p, t, math.sin(a), math.cos(a))


def _row(t: float, a: float, numeric: float, closed: Optional[float]) -> SweepRow:
    if closed is None:
        return SweepRow(t=t, a=a, value_numeric=numeric)
    return SweepRow(
        t=t, a=a, value_numeric=numeric, value_closed=closed, abs_err=abs(numeric - closed)
    )


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """One row per grid point, a outer, t fastest."""
    numeric, closed = _routes(config)
    return [
        _row(t, a, numeric(a, t), None if closed is None else closed(a, t))
        for a, t in config.grid()
    ]


def diff_sweep(config: SweepConfig) -> list[SweepRow]:
    """|noisy - clean| of a measure per grid point; needs a channel."""
    if config.channel is None:
        raise ValueError("diff needs a channel (--channel/--p)")
    if not MEASURES[config.measure].mixed:
        raise ValueError(f"diff is defined for {mixed_measures()}, got {config.measure!r}")
    noisy, noisy_closed = _routes(config)
    clean, clean_closed = _routes(replace(config, channel=None))
    rows = []
    for a, t in config.grid():
        closed = None
        if noisy_closed is not None and clean_closed is not None:
            closed = abs(noisy_closed(a, t) - clean_closed(a, t))
        rows.append(_row(t, a, abs(noisy(a, t) - clean(a, t)), closed))
    return rows


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    max_abs_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_abs_err <= self.tolerance


NOISY_P_VALUES = (0.0, 0.25, 0.5, 0.74, 1.0)


def verify(
    measures: Optional[Sequence[str]] = None,
    a_steps: int = 50,
    t_steps: int = 50,
    noisy_a_steps: int = 9,
    avg_grid: int = 20,
    log_base: str = "e",
    inject_error: float = 0.0,
) -> list[VerifyCheck]:
    """Closed-form-vs-numeric comparison battery.

    One check per measure with a clean closed form, then one per measure
    with a noisy closed form and channel kind (noise on qubit 0 at each of
    NOISY_P_VALUES, or at ``avg_grid`` values of p for a gate measure), then
    the PF=BF agreement of the average fidelity. ``inject_error`` is added
    to every closed-form value; it exists so the harness can prove it fails
    when the two routes disagree. A NaN from either route fails its check.
    """
    wanted = MEASURES if measures is None else measures
    unknown = set(wanted) - set(MEASURES)
    if unknown:
        raise ValueError(f"unknown measures: {sorted(unknown)}")
    if not math.isfinite(inject_error):
        raise ValueError(f"inject_error must be finite, got {inject_error!r}")
    table = [m for m in MEASURES.values() if m.name in wanted]
    plan = [(m, None) for m in table if m.closed is not None]
    plan += [(m, kind) for m in table if m.noisy_closed is not None for kind in ch.CHANNEL_KINDS]
    avg_p = [float(p) for p in np.linspace(0.0, 1.0, avg_grid)]

    checks = []
    for m, kind in plan:
        if kind is None:
            configs = [SweepConfig(m.name, a_steps=a_steps, t_steps=t_steps,
                                   log_base=log_base, compare=True)]
        elif m.gate:
            configs = [SweepConfig(m.name, t_steps=avg_grid, channel=ChannelSpec(kind, p),
                                   compare=True) for p in avg_p]
        else:
            configs = [SweepConfig(m.name, a_steps=noisy_a_steps, t_steps=t_steps,
                                   channel=ChannelSpec(kind, p), compare=True)
                       for p in NOISY_P_VALUES]
        errors = [abs(r.value_numeric - (r.value_closed + inject_error))
                  for config in configs for r in run_sweep(config)]
        name = m.name if kind is None else f"{m.name}[{kind}]"
        # np.max, unlike max(), lets a NaN through, and a NaN fails the check
        checks.append(VerifyCheck(name, float(np.max(errors)), m.tolerance))

    if "avg_fidelity" in wanted:
        # the two flip channels must agree with each other exactly
        def flip(kind: str, p: float) -> list[SweepRow]:
            return run_sweep(SweepConfig("avg_fidelity", t_steps=avg_grid,
                                         channel=ChannelSpec(kind, p)))

        errors = [abs(pf.value_numeric - bf.value_numeric)
                  for p in avg_p for pf, bf in zip(flip("PF", p), flip("BF", p))]
        checks.append(VerifyCheck("avg_fidelity[PF=BF]", float(np.max(errors)), 1e-12))

    return checks


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.12g}"


def emit(rows: Sequence[SweepRow], fmt: str = "csv", destination=None) -> None:
    """Write rows as CSV or JSON to a path or a text stream (default stdout).

    Columns/keys are t, a, value, value_closed, abs_err; optional fields
    are empty (CSV) or null (JSON). Values carry 12 significant digits and
    a locale-independent decimal point.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    text = _render_csv(rows) if fmt == "csv" else _render_json(rows)
    if destination is None:
        sys.stdout.write(text)
    elif hasattr(destination, "write"):
        destination.write(text)
    else:
        try:
            with open(destination, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write sweep output to {destination!r}: {exc}") from exc


def _render_csv(rows: Sequence[SweepRow]) -> str:
    lines = ["t,a,value,value_closed,abs_err"]
    for r in rows:
        lines.append(
            ",".join(
                (_fmt(r.t), _fmt(r.a), _fmt(r.value_numeric), _fmt(r.value_closed), _fmt(r.abs_err))
            )
        )
    return "\n".join(lines) + "\n"


def _render_json(rows: Sequence[SweepRow]) -> str:
    def number(value: Optional[float]):
        return None if value is None else float(f"{value:.12g}")

    payload = [
        {
            "t": number(r.t),
            "a": number(r.a),
            "value": number(r.value_numeric),
            "value_closed": number(r.value_closed),
            "abs_err": number(r.abs_err),
        }
        for r in rows
    ]
    return json.dumps(payload, indent=2) + "\n"
