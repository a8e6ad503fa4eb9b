"""Parameter sweeps over the switch time t and input angle a, with
closed-form cross-checks.

Every sweep runs over the state |A>|0>|1> with |A> = sin(a)|0> + cos(a)|1>.
Each diagnostic is one entry of the measure table ``MEASURES``: its numeric
route, the state it reads (an entry of ``STATES``) and the kernel that reads
it, its clean and noisy closed forms, its verification tolerance and the
states it accepts. Sweeps, diffs, ``verify`` and the command line all read
that table. The Schmidt coefficient, the I-concurrence, the entropy and the
clean ppt are each one map of the first data qubit's reduced state, its
determinant d and Bloch length |r|, applied to the numeric and to the
closed (d, |r|) alike (see ``entanglement``). The numeric route always
runs; the closed-form column is filled whenever the entry has a closed
form for the configuration (clean runs for every measure, noisy runs for
the I-concurrence and the average fidelity with noise on qubit 0). Output
is deterministic: identical configurations produce byte-identical files.

Both routes take the grid as its axes: the values of a as an (A, 1)
column and the times as a (T,) row, which broadcast to the (A, T) grid,
a outer and t fastest. The numeric route evaluates it in blocks sized by
the bytes of the route's matrices (BLOCK_POINTS entries for a gate route,
4 times that for a pair route), so that the memory it holds does not
grow with the grid or with the number of values of p. Input is
checked once, where it enters: a ``SweepConfig`` rejects a non-finite a,
t_min or t_max, a reversed or overflowing time span and a grid too small
or too large, its ``ChannelSpec`` a p outside [0, 1], and ``verify`` and
``emit`` their own arguments. Nothing past them checks it again:
``switch.angle_qubits`` builds the qubits |A> from finite angles, each
rescaled to unit norm, and the registers, their evolution and what is
built from them hold by construction (see ``switch``).
Every pair route reads the evolved pair as its Kraus branches E_k psi
(psi itself for a clean run), and no mixed measure forms the noisy pair
by a channel product E_k rho E_k^dagger: the Schmidt coefficient, the
I-concurrence, the entropy and the clean ppt, -sqrt(d), read the first
qubit's (d, |r|) from the branches, a clean pair's sqrt(d) as the
modulus of its one minor, and the concurrence forms no density matrix.
Only the noisy ppt reads the pair's density matrix, as the Gram
product of the branches, and takes the eigenvalues of its partial
transpose, with no eigenvectors (``np.linalg.eigvalsh``): the only
eigensolve of any route, so a clean run makes none. The block size does
not change a bit of the values.
A closed form is called once per grid, on sin a and cos a as the column
and on the row of times; the (A, T) values it returns are the closed
column, with the bits of the closed form at each single point, since
both are the same numpy code (see ``entanglement``). A grid may hold at
most MAX_GRID_POINTS points.

p stacks. A ``SweepConfig`` is a whole run: its ``ChannelSpec`` holds
one value of the channel strength p or a tuple of P values, a p stack,
and the config is checked once, when it is built. Sweeps, diffs and
``verify`` share one path, ``_columns``: the numeric values and closed
column of each of the configs that share one state, grid and channel,
compared as |numeric - closed|. It builds the channel once, as (P, 2, 2)
stacks of the Kraus operators at its P values of p (see ``channels``),
and repeats each matrix once per value of a into one read-only stack per
operator, a matrix per (p, a) row. The numeric route runs over those
rows, p outer, in blocks of as many whole rows as fit, or of pieces of
one row where a row does not fit, so that a block holds no more entries,
and no more bytes, whatever P is. A block builds its state once, from
its (R, 1) column of a, its (T',) row of times and its (R, 1, 2, 2) rows
of each operator stack, which broadcast: each input qubit |A> is built
once per row, not once per point, and each operator applies on the noise
qubit's axis. Every config's kernel then reads that state. A noisy
closed form takes p as a (P, 1, 1) column and gives the (P, A, T) closed
column in one call.
Every value has the bits of the config with that one value of p. A
sweep or diff takes one value of p and one config; ``verify`` gives each
noisy record one config with a p stack, and evaluates together the
configs of its battery that read one state on one grid under one channel:
the five clean pair records read one pair state per block. A diff
first subtracts the clean config's columns. A sweep or diff returns them
as one columnar record, ``Sweep``, with the t and a of each point;
``verify`` builds none.

Emission writes the text itself, from the columns, and formats each
distinct bit pattern once (by bits, not by value: 0.0 and -0.0 have
different texts); a 50 x 101 surface of 25,250 cells has under 9,000. A
CSV value is its ``%.12g`` text, and so is a JSON value wherever that
already is the text ``json.dumps`` gives the rounded float, which is
everywhere except integral values, ``e+`` exponents, ``e-3xx`` exponents
and non-finite values. A numpy mask over the distinct values finds where
it may not be; those take the encoder's text. The texts fill one
all-``%s`` row template per column count.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import channels as ch
from . import entanglement as ent
from . import switch

#: verification gate per measure
DEFAULT_TOLERANCE = 1e-9
AVG_FIDELITY_TOLERANCE = 1e-10
#: (p, point) entries a gate route evaluates together as one stack, at
#: most. The 8 x 8 matrices of a gate block are its points' unitaries
#: alone, since a channel's 2 x 2 operators are not embedded into the
#: register; every other route measures 4 x 4 pair matrices, a quarter of
#: the bytes, and takes 4 * BLOCK_POINTS entries, so that the matrix stacks
#: a measure works on stay at 64 KiB per block (the 8-amplitude registers
#: a block evolves are transient). Blocks bound the memory a sweep holds
#: in arrays, whatever the size of its grid or the number of its values of
#: p: the average-fidelity route holds about 1.5 KB per point at its peak
#: (tracemalloc), and 64 points keep a sweep's peak memory at that of
#: evaluating one point at a time (512 raised the peak RSS of four
#: 1,001-point runs by 1.5 MB). Larger blocks
#: pay numpy's per-call cost fewer times per grid: 1,024-point pair blocks
#: took about 10% less time than 256 but raised peak memory by 4 to 7%
BLOCK_POINTS = 64
#: largest grid (a_steps * t_steps) a sweep accepts
MAX_GRID_POINTS = 1_000_000
#: output formats of ``emit``
FORMATS = ("csv", "json")


#: the state a numeric route reads, by name, built from a block's (R, 1)
#: column of a, its (T',) row of times, and its operator rows and noise
#: qubit, or None and None for a clean run: the switched pair as its Kraus
#: branches (``entanglement.pair_ensembles``), the input registers
#: |A>|0>|1>, or the switch's unitaries, which read the times alone. The
#: functions call through module attributes instead of holding function
#: objects, so that a rebound package function is called here as well.
STATES = {
    "pair": lambda a, t, ops, qubit: ent.pair_ensembles(switch.angle_qubits(a), t, ops, qubit),
    "register": lambda a, t, ops, qubit: switch.registers(switch.angle_qubits(a)),
    "gate": lambda a, t, ops, qubit: switch.switch_unitaries(t),
}


@dataclass(frozen=True)
class Measure:
    """One diagnostic: how to compute it twice, and how close the two must be.

    The numeric route is a state and a kernel. ``state`` names the entry of
    ``STATES`` that builds, per block, the state the route reads, and
    ``kernel(state, t, operators, qubit, log_base)`` computes the values
    from it, as one stack: for a block's (R, 1) column of a and (T',) row
    of times ``t``, (R, T') values, and for arrays that broadcast alike,
    flat (a, t) points among them, their broadcast shape. ``operators`` is
    the tuple of a channel's 2 x 2 Kraus operators
    (``channels.make_channel``) acting on data qubit ``qubit``, or None,
    with ``qubit`` None, for a clean run: one matrix each, or (R, 1, 2, 2)
    rows, one matrix per row of a, that broadcast against the times. Every
    measure of one state reads the same state of a block, built once.
    ``closed(alpha0, beta0, t, log_base)`` is the clean closed form and
    ``noisy_closed(kind, p, t, alpha0, beta0)`` the closed form under
    noise on qubit 0, either None or called once per grid: ``alpha0`` and
    ``beta0`` are sin a and cos a as (A, 1) columns, ``t`` is a (T,) row,
    ``p`` a (P, 1, 1) column of a config's p stack, and the values
    broadcast to (A, T), or (P, A, T) under noise.
    ``mixed`` says whether the numeric route accepts a noisy (mixed) pair;
    ``gate``, a measure of the switch's unitaries, marks a property of the
    noisy switch itself, which needs a channel.
    """

    name: str
    state: str
    kernel: Callable[[np.ndarray, np.ndarray, Optional[tuple], Optional[int], str],
                     np.ndarray]
    closed: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray, str], np.ndarray]]
    noisy_closed: Optional[
        Callable[[str, np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    ]
    tolerance: float
    mixed: bool

    @property
    def gate(self) -> bool:
        return self.state == "gate"


# The kernels call through module attributes as well.
MEASURES = {m.name: m for m in (
    Measure(
        "schmidt", "pair",
        kernel=lambda xi, t, ops, qubit, base: ent.schmidt_spectra(xi[..., 0])[..., 0],
        closed=lambda al, be, t, base: ent._least_coefficients(
            ent.reduced_root_closed(be, t), 0.0, ent.bloch_length_closed(al, be, t)
        ),
        noisy_closed=None, tolerance=DEFAULT_TOLERANCE, mixed=False,
    ),
    Measure(
        "ppt", "pair",
        kernel=lambda xi, t, ops, qubit, base: ent.ensemble_ppts(xi),
        closed=lambda al, be, t, base: -ent.reduced_root_closed(be, t),
        noisy_closed=None, tolerance=DEFAULT_TOLERANCE, mixed=True,
    ),
    Measure(
        "concurrence", "pair",
        kernel=lambda xi, t, ops, qubit, base: ent.ensemble_concurrences(xi),
        closed=lambda al, be, t, base: ent.concurrence_closed(be, t),
        noisy_closed=None, tolerance=DEFAULT_TOLERANCE, mixed=True,
    ),
    Measure(
        "iconcurrence", "pair",
        kernel=lambda xi, t, ops, qubit, base: 2.0 * ent.reduced_roots(xi),
        closed=lambda al, be, t, base: 2.0 * ent.reduced_root_closed(be, t),
        noisy_closed=lambda kind, p, t, al, be: 2.0 * np.sqrt(
            ent.noisy_determinant_closed(kind, p, t, al, be)
        ),
        tolerance=DEFAULT_TOLERANCE, mixed=True,
    ),
    Measure(
        "entropy", "pair",
        kernel=lambda xi, t, ops, qubit, base: ent.determinant_entropies(
            *ent.reduced_qubits(xi), base
        ),
        closed=lambda al, be, t, base: ent.determinant_entropies(
            *ent.reduced_qubit_closed(al, be, t), base
        ),
        noisy_closed=None, tolerance=DEFAULT_TOLERANCE, mixed=True,
    ),
    Measure(
        "fidelity", "register",
        kernel=lambda regs, t, ops, qubit, base: switch.switch_fidelities(regs, t),
        closed=lambda al, be, t, base: ent.fidelity_closed(al, be, t),
        noisy_closed=None, tolerance=DEFAULT_TOLERANCE, mixed=False,
    ),
    Measure(
        "avg_fidelity", "gate",
        kernel=lambda u, t, ops, qubit, base: ch.average_fidelities(u, ops, qubit),
        closed=None,
        noisy_closed=lambda kind, p, t, al, be: ch.average_fidelity_closed(kind, p, t),
        tolerance=AVG_FIDELITY_TOLERANCE, mixed=False,
    ),
)}


def mixed_measures() -> tuple:
    """Names of the measures whose numeric route accepts a noisy pair."""
    return tuple(name for name, m in MEASURES.items() if m.mixed)


#: the data qubits a channel may act on
NOISE_QUBITS = (0, 1)


@dataclass(frozen=True)
class ChannelSpec:
    kind: str
    p: float | tuple
    qubit: int = 0

    def __post_init__(self):
        ch.check_channel(self.kind, self.p)
        ch.p_shape(self.p)
        if self.qubit not in NOISE_QUBITS:
            raise ValueError(f"noise qubit must be 0 or 1, got {self.qubit}")


def _check_grid(a_steps: int, t_steps: int) -> None:
    """Reject a grid of ``a_steps`` x ``t_steps`` points that is too small
    or larger than MAX_GRID_POINTS."""
    if t_steps < 2:
        raise ValueError(f"t_steps must be >= 2, got {t_steps}")
    if a_steps < 1:
        raise ValueError(f"a_steps must be >= 1, got {a_steps}")
    if a_steps * t_steps > MAX_GRID_POINTS:
        raise ValueError(
            f"a grid of {a_steps} x {t_steps} points exceeds the "
            f"limit of {MAX_GRID_POINTS:,} points"
        )


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
        _check_grid(self.a_steps, self.t_steps)
        for name in ("a", "t_min", "t_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.t_max < self.t_min:
            raise ValueError("t_max must be >= t_min")
        if not math.isfinite(self.t_max - self.t_min):
            raise ValueError(
                f"the time span t_max - t_min overflows: {self.t_min!r} to {self.t_max!r}"
            )
        ent._log_scale(self.log_base)  # validates
        m = MEASURES[self.measure]
        if m.gate and self.channel is None:
            raise ValueError(f"{m.name} needs a channel (--channel/--p)")
        if self.channel is not None and not (m.mixed or m.gate):
            raise ValueError(
                f"measure {m.name!r} is defined for noiseless (pure) states "
                f"only; drop the channel or pick one of {mixed_measures()}"
            )

    def a_values(self) -> np.ndarray:
        if self.a_steps == 1:
            return np.array([self.a])
        return np.linspace(0.0, math.pi / 2, self.a_steps)

    def t_values(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.t_steps)

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays of a and t over every grid point: a outer, t fastest."""
        a, t = self.a_values(), self.t_values()
        return np.repeat(a, len(t)), np.tile(t, len(a))


class Sweep:
    """The columns of a sweep, one entry per grid point, a outer, t fastest.

    ``value_closed`` and ``abs_err`` are both None where no closed form
    applies. Emission reads the columns. A plain class, not a dataclass:
    every CLI run imports this module, and generating a dataclass's
    methods takes about 0.3 ms.
    """

    __slots__ = ("t", "a", "value", "value_closed", "abs_err")

    def __init__(self, t: np.ndarray, a: np.ndarray, value: np.ndarray,
                 value_closed: Optional[np.ndarray] = None,
                 abs_err: Optional[np.ndarray] = None):
        self.t, self.a, self.value = t, a, value
        self.value_closed, self.abs_err = value_closed, abs_err

    def columns(self) -> tuple:
        """The columns that hold values, in output order."""
        if self.value_closed is None:
            return self.t, self.a, self.value
        return self.t, self.a, self.value, self.value_closed, self.abs_err


def _p_count(config: SweepConfig) -> int:
    """The number of values of p ``config`` runs over: 1 for a clean run."""
    return 1 if config.channel is None else np.size(config.channel.p)


def _columns(configs: Sequence[SweepConfig]) -> list:
    """The numeric values of each config of ``configs`` under each of its
    values of p, p outer, then a, t fastest, and its closed column, or None
    without ``compare`` or where the table has none (noise on qubit 1
    included), as a (values, closed) pair per config, in order: both
    routes on the grid's axes, in the numeric route's blocks of (p, a)
    rows (see the module's "p stacks"). The configs share one state, grid
    and channel, and differ at most in measure, log base and ``compare``:
    each block's state is built once, and every config's kernel reads it.
    The configs were checked when they were built."""
    config, spec = configs[0], configs[0].channel
    measures = [MEASURES[c.measure] for c in configs]
    a, t = config.a_values()[:, None], config.t_values()
    rows, operators, qubit = a, None, None
    if spec is not None:
        p = np.ravel(spec.p)
        rows, qubit = np.tile(a, (len(p), 1)), spec.qubit
        operators = tuple(np.repeat(e, len(a), axis=0)
                          for e in ch.make_channel(spec.kind, tuple(p.tolist())))
        for e in operators:
            e.setflags(write=False)
    state = STATES[measures[0].state]
    block = BLOCK_POINTS if measures[0].gate else 4 * BLOCK_POINTS
    n, step = max(1, block // len(t)), min(block, len(t))
    values = [np.empty((len(rows), len(t))) for _ in configs]
    for r in range(0, len(rows), n):
        ops = None if operators is None else tuple(e[r:r + n, None] for e in operators)
        for j in range(0, len(t), step):
            x = state(rows[r:r + n], t[j:j + step], ops, qubit)
            for v, m, c in zip(values, measures, configs):
                v[r:r + n, j:j + step] = m.kernel(x, t[j:j + step], ops, qubit, c.log_base)
    columns, al, be = [], np.sin(a), np.cos(a)
    for v, m, c in zip(values, measures, configs):
        closed = None
        if c.compare and spec is None and m.closed is not None:
            closed = m.closed(al, be, t, c.log_base)
        elif c.compare and spec is not None and spec.qubit == 0 and m.noisy_closed is not None:
            closed = m.noisy_closed(spec.kind, p[:, None, None], t, al, be)
        if closed is not None:
            closed = np.broadcast_to(closed, (_p_count(c), len(a), len(t))).ravel()
        columns.append((v.ravel(), closed))
    return columns


def _sweep(config: SweepConfig, values: np.ndarray, closed: Optional[np.ndarray]) -> Sweep:
    """The record of ``values`` over the grid of ``config``; the closed
    column ``closed`` fills value_closed and abs_err, or None leaves them
    empty."""
    a, t = config.grid()
    errors = None if closed is None else np.abs(values - closed)
    return Sweep(t, a, values, closed, errors)


def run_sweep(config: SweepConfig) -> Sweep:
    """The values of ``config`` at every grid point, a outer, t fastest;
    a sweep's rows have no p column, so it takes one value of p."""
    if _p_count(config) > 1:
        raise ValueError(f"a sweep takes one value of p, got {config.channel.p!r}")
    return _sweep(config, *_columns([config])[0])


def diff_sweep(config: SweepConfig) -> Sweep:
    """|noisy - clean| of a measure per grid point; needs a channel.

    The entropy and the I-concurrence read the first qubit's reduced state,
    which noise on qubit 1 leaves unchanged: they cannot detect that noise,
    and diff to rounding error. The concurrence can."""
    if config.channel is None:
        raise ValueError("diff needs a channel (--channel/--p)")
    if not MEASURES[config.measure].mixed:
        raise ValueError(f"diff is defined for {mixed_measures()}, got {config.measure!r}")
    if _p_count(config) > 1:
        raise ValueError(f"diff takes one value of p, got {config.channel.p!r}")
    [(noisy, noisy_closed)] = _columns([config])
    # every mixed measure has a clean closed form; needed only with a noisy one
    clean_config = replace(config, channel=None, compare=noisy_closed is not None)
    [(clean, clean_closed)] = _columns([clean_config])
    closed = None if noisy_closed is None else np.abs(noisy_closed - clean_closed)
    return _sweep(config, np.abs(noisy - clean), closed)


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    max_abs_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_abs_err <= self.tolerance


#: ``verify``'s noisy grids: these p over NOISY_A_STEPS values of a, and
#: for a gate measure AVG_GRID values of p and of t
NOISY_P_VALUES = (0.0, 0.25, 0.5, 0.74, 1.0)
NOISY_A_STEPS = 9
AVG_GRID = 20


@dataclass(frozen=True)
class CheckRecord:
    """One check of ``verify``: the numeric values of ``config`` within
    ``tolerance`` of a reference, its own closed column or, with
    ``against``, the numeric values of that config, whose grid and p
    stack have as many entries."""

    name: str
    config: SweepConfig
    tolerance: float
    against: Optional[SweepConfig] = None


def _battery(wanted, a_steps, t_steps, log_base) -> list[CheckRecord]:
    """The records of ``verify``'s checks of the measures ``wanted``, in
    order, all built before any is evaluated: each clean closed form; each
    noisy closed form under each channel kind on qubit 0, one config with
    a p stack per kind (see AVG_GRID); then a gate measure's [PF] values
    held to its [BF] values."""
    table = [m for m in MEASURES.values() if m.name in wanted]
    battery = [CheckRecord(m.name, SweepConfig(m.name, a_steps=a_steps, t_steps=t_steps,
                                               log_base=log_base, compare=True), m.tolerance)
               for m in table if m.closed is not None]
    noisy = {}
    for m in (m for m in table if m.noisy_closed is not None):
        grid = dict(t_steps=AVG_GRID) if m.gate else dict(a_steps=NOISY_A_STEPS, t_steps=t_steps)
        p_values = tuple(np.linspace(0.0, 1.0, AVG_GRID).tolist()) if m.gate else NOISY_P_VALUES
        for kind in ch.CHANNEL_KINDS:
            noisy[kind] = SweepConfig(m.name, **grid, channel=ChannelSpec(kind, p_values),
                                      compare=True)
            battery.append(CheckRecord(f"{m.name}[{kind}]", noisy[kind], m.tolerance))
        if m.gate:  # the two flip channels give the switch one average fidelity
            battery.append(CheckRecord(f"{m.name}[PF=BF]", noisy["PF"], 1e-12, noisy["BF"]))
    return battery


def verify(
    measures: Optional[Sequence[str]] = None,
    a_steps: int = 50,
    t_steps: int = 50,
    log_base: str = "e",
    inject_error: float = 0.0,
) -> list[VerifyCheck]:
    """Closed-form-vs-numeric comparison battery: the largest
    |numeric - reference| of each record of ``_battery``, in its order.

    ``inject_error`` is added to every closed-form value, so the harness
    can prove it fails when the two routes disagree. A NaN from either
    route fails its check. The columns are a sweep's, compared with no
    rows built, as a row's abs_err; each config is evaluated once, and
    the configs that read one state on one grid under one channel are
    evaluated together, so each block's state is built once for all of
    them.
    """
    wanted = MEASURES if measures is None else measures
    unknown = set(wanted) - set(MEASURES)
    if unknown:
        raise ValueError(f"unknown measures: {sorted(unknown)}")
    if not math.isfinite(inject_error):
        raise ValueError(f"inject_error must be finite, got {inject_error!r}")
    _check_grid(a_steps, t_steps)  # here as well: the gate measure's records read neither
    ent._log_scale(log_base)  # validates
    battery = _battery(wanted, a_steps, t_steps, log_base)
    # the configs that read one state share its blocks: one group per
    # state and every field but those a kernel or closed form reads alone
    groups = {}
    for c in dict.fromkeys(c for record in battery for c in (record.config, record.against)
                           if c is not None):
        key = [MEASURES[c.measure].state] + [getattr(c, f.name) for f in fields(c)
                                             if f.name not in ("measure", "log_base", "compare")]
        groups.setdefault(tuple(key), []).append(c)
    columns = {}
    for group in groups.values():
        columns.update(zip(group, _columns(group)))
    checks = []
    for record in battery:
        values, closed = columns[record.config]
        reference = closed + inject_error if record.against is None else columns[record.against][0]
        error = np.max(np.abs(values - reference))  # unlike max(), lets a NaN through to fail
        checks.append(VerifyCheck(record.name, float(error), record.tolerance))
    return checks


def emit(sweep: Sweep, fmt: str = "csv", destination=None) -> None:
    """Write a sweep as CSV or JSON to a path or a text stream (default
    stdout), rendered from its columns, with no object built per row.

    Columns/keys are t, a, value, value_closed, abs_err, one row per grid
    point; an empty closed column leaves its fields empty (CSV) or null
    (JSON). Values carry 12 significant digits and a locale-independent
    decimal point.
    """
    if fmt not in FORMATS:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    text = _render_csv(sweep) if fmt == "csv" else _render_json(sweep)
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


#: the CSV line of a row by its number of columns, empty closed fields included
_CSV_LINES = {5: "%s,%s,%s,%s,%s\n", 3: "%s,%s,%s,,\n"}


def _cell_texts(cells: np.ndarray, json_texts: bool = False) -> tuple:
    """The text of each cell of ``cells``, in row order, formatted once per
    distinct bit pattern: its ``%.12g`` text, or with ``json_texts`` the
    JSON text, which is the encoder's where ``_needs_encoder`` flags it."""
    bits, inverse = np.unique(cells.ravel().view(np.int64), return_inverse=True)
    distinct = bits.view(np.float64)
    texts = ("%.12g\n" * len(distinct) % tuple(distinct.tolist())).splitlines()
    if json_texts:
        for i in np.flatnonzero(_needs_encoder(distinct)).tolist():
            texts[i] = _json_number(texts[i])
    return tuple(np.array(texts, dtype=object)[inverse].tolist())


def _render_csv(sweep: Sweep) -> str:
    cells = np.column_stack(sweep.columns())
    lines = _CSV_LINES[cells.shape[1]] * len(cells)
    return "t,a,value,value_closed,abs_err\n" + lines % _cell_texts(cells)


def _json_row(formats: Sequence[str]) -> str:
    keys = ("t", "a", "value", "value_closed", "abs_err")
    fields = ",\n".join(f'    "{key}": {form}' for key, form in zip(keys, formats))
    return "  {\n" + fields + "\n  }"


#: the JSON object of a row, keyed by its number of columns; an empty
#: closed column reads null
_JSON_ROWS = {n: _json_row(["%s"] * n + ["null"] * (5 - n)) for n in (5, 3)}
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _needs_encoder(values: np.ndarray) -> np.ndarray:
    """True at every value, of the distinct values of a sweep, whose
    ``%.12g`` text may differ from the text json.dumps writes for the float
    it reads as: non-finite values; |v| < 1e-29 (zero, -0.0 and the e-3x and
    e-3xx exponents, subnormals among them); and |v| >= 0.5 within 1e-11 |v|
    of an integer, which is wider than the half unit in the 12th digit that
    rounding to an integral text needs, and holds for every |v| >= 5e10, so
    it covers the e+ exponents and the 12-digit integers too. Elsewhere the
    text has a fraction or an exponent from e-05 to e-29, and json.dumps
    writes the same text."""
    size = np.abs(values)
    with np.errstate(invalid="ignore"):
        integral = (size >= 0.5) & (np.abs(values - np.round(values)) <= 1e-11 * size)
    return ~np.isfinite(values) | (size < 1e-29) | integral


def _json_number(text: str) -> str:
    """The JSON text json.dumps writes for float(text), of a ``%.12g`` text."""
    return _NON_FINITE.get(text) or repr(float(text))


def _render_json(sweep: Sweep) -> str:
    """The text json.dumps(rows as objects, indent=2) gives, and a final
    newline, written directly; keys t, a, value, value_closed, abs_err."""
    cells = np.column_stack(sweep.columns())
    template = ",\n".join([_JSON_ROWS[cells.shape[1]]] * len(cells))
    return "[\n" + template % _cell_texts(cells, json_texts=True) + "\n]\n"
