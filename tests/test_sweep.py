import io
import json
import math
import random
import struct
from dataclasses import replace

import numpy as np
import pytest

from switchsim import entanglement as ent
from switchsim import channels as ch
from switchsim import sweep
from switchsim.sweep import (
    MAX_GRID_POINTS,
    MEASURES,
    ChannelSpec,
    Sweep,
    SweepConfig,
    diff_sweep,
    emit,
    run_sweep,
    verify,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(measure="negativity")
    with pytest.raises(ValueError):
        SweepConfig(measure="concurrence", t_steps=1)
    with pytest.raises(ValueError):
        SweepConfig(measure="concurrence", a_steps=0)
    with pytest.raises(ValueError):
        SweepConfig(measure="concurrence", t_min=1.0, t_max=0.5)
    with pytest.raises(ValueError, match="limit"):
        SweepConfig(measure="concurrence", a_steps=MAX_GRID_POINTS // 100 + 1, t_steps=100)
    SweepConfig(measure="concurrence", a_steps=MAX_GRID_POINTS // 100, t_steps=100)
    with pytest.raises(ValueError):
        ChannelSpec("PF", 1.2)
    with pytest.raises(ValueError):
        ChannelSpec("PF", 0.5, qubit=2)


@pytest.mark.parametrize("qubit", [-1, 2, 3, 0.5])
def test_a_noise_qubit_off_the_data_qubits_is_rejected(qubit):
    # the command line offers only 0 and 1; a library caller is told
    with pytest.raises(ValueError) as err:
        ChannelSpec("PF", 0.5, qubit=qubit)
    assert str(err.value) == f"noise qubit must be 0 or 1, got {qubit}"


def test_concurrence_sweep_peaks_at_the_half_swap():
    config = SweepConfig(measure="concurrence", a=math.pi / 4, t_steps=101, compare=True)
    record = run_sweep(config)
    assert len(record.value) == 101
    values = record.value.tolist()
    peak = max(values)
    assert peak == pytest.approx(0.5, abs=1e-9)
    assert values.index(peak) == 50  # t = pi/4
    assert np.all(record.abs_err <= 1e-9)


def test_fidelity_sweep_reaches_one_at_the_end():
    config = SweepConfig(measure="fidelity", a_steps=11, t_steps=11, compare=True)
    record = run_sweep(config)
    assert len(record.value) == 121
    # grid order: a outer, t fastest
    assert record.a[0] == record.a[10] and record.t[0] < record.t[10]
    for t, value in zip(record.t.tolist(), record.value.tolist()):
        if t == pytest.approx(math.pi / 2):
            assert value == pytest.approx(1.0, abs=1e-12)


def test_noisy_sweep_fills_closed_column_only_on_first_qubit():
    spec = ChannelSpec("AD", 0.74, qubit=0)
    record = run_sweep(
        SweepConfig(measure="iconcurrence", channel=spec, t_steps=5, compare=True)
    )
    assert record.value_closed is not None and np.all(record.abs_err <= 1e-9)
    record = run_sweep(
        SweepConfig(
            measure="iconcurrence", channel=ChannelSpec("AD", 0.74, qubit=1),
            t_steps=5, compare=True,
        )
    )
    assert record.value_closed is None and record.abs_err is None


def test_rejected_pipelines():
    # a config is checked when it is built, not when it runs
    with pytest.raises(ValueError, match="avg_fidelity needs a channel"):
        SweepConfig(measure="avg_fidelity")
    with pytest.raises(ValueError, match="noiseless"):
        SweepConfig(measure="schmidt", channel=ChannelSpec("PF", 0.5))
    with pytest.raises(ValueError, match="noiseless"):
        SweepConfig(measure="fidelity", channel=ChannelSpec("PF", 0.5))


def test_a_sweep_or_diff_rejects_a_p_stack():
    # a sweep's rows have no p column; a stack of one value is one value
    config = SweepConfig("iconcurrence", t_steps=5, channel=ChannelSpec("AD", (0.25, 0.5)))
    for run, what in ((run_sweep, "a sweep"), (diff_sweep, "diff")):
        with pytest.raises(ValueError) as err:
            run(config)
        assert str(err.value) == f"{what} takes one value of p, got (0.25, 0.5)"
    single = SweepConfig("iconcurrence", t_steps=5, channel=ChannelSpec("AD", 0.25))
    stacked = SweepConfig("iconcurrence", t_steps=5, channel=ChannelSpec("AD", (0.25,)))
    assert ([c.tobytes() for c in run_sweep(stacked).columns()]
            == [c.tobytes() for c in run_sweep(single).columns()])


def test_avg_fidelity_sweep():
    record = run_sweep(
        SweepConfig(
            measure="avg_fidelity", channel=ChannelSpec("PF", 0.74), t_steps=21, compare=True
        )
    )
    assert np.all(record.abs_err <= 1e-10)
    assert np.all((0.0 <= record.value) & (record.value <= 1.0))


def test_diff_needs_a_channel_and_a_noisy_measure():
    with pytest.raises(ValueError, match="channel"):
        diff_sweep(SweepConfig(measure="iconcurrence"))
    with pytest.raises(ValueError):
        diff_sweep(SweepConfig(measure="fidelity", channel=ChannelSpec("PF", 0.5)))


def test_diff_vanishes_for_identity_and_local_unitary_noise():
    for p in (1.0, 0.0):  # p=1 is the identity, p=0 a local phase flip
        record = diff_sweep(
            SweepConfig(
                measure="iconcurrence", channel=ChannelSpec("PF", p), a=0.9, t_steps=21
            )
        )
        assert np.max(record.value) <= 1e-12


def test_diff_detects_amplitude_damping():
    record = diff_sweep(
        SweepConfig(
            measure="iconcurrence", channel=ChannelSpec("AD", 0.74), a=0.9,
            t_steps=51, compare=True,
        )
    )
    interior = (0.0 < record.t) & (record.t < math.pi / 2)
    assert np.max(record.value[interior]) > 0.01
    assert np.all(record.abs_err <= 1e-9)


def _record(*columns):
    """A Sweep over the given columns: t, a and value, and optionally
    value_closed and abs_err."""
    return Sweep(*(np.array(c, dtype=float) for c in columns))


#: an empty sweep of each column shape: closed columns absent and present
EMPTY = [_record([], [], []), _record([], [], [], [], [])]


@pytest.mark.parametrize("empty", EMPTY, ids=["numeric-only", "closed"])
def test_emit_csv_header_only_for_empty_sweeps(empty):
    buf = io.StringIO()
    emit(empty, "csv", buf)
    assert buf.getvalue() == "t,a,value,value_closed,abs_err\n"


def test_emit_csv_single_row():
    buf = io.StringIO()
    emit(_record([0.5], [0.25], [1.0 / 3.0]), "csv", buf)
    assert buf.getvalue().splitlines()[1:] == ["0.5,0.25,0.333333333333,,"]
    buf = io.StringIO()
    emit(_record([0.5], [0.25], [1.0 / 3.0], [0.25], [1.0 / 12.0]), "csv", buf)
    assert buf.getvalue().splitlines()[1:] == ["0.5,0.25,0.333333333333,0.25,0.0833333333333"]


def test_emit_json_keys_and_nulls():
    buf = io.StringIO()
    emit(_record([0.5, 1.0], [0.25, 0.0], [0.1, 2.0]), "json", buf)
    assert json.loads(buf.getvalue()) == [
        {"t": 0.5, "a": 0.25, "value": 0.1, "value_closed": None, "abs_err": None},
        {"t": 1.0, "a": 0.0, "value": 2.0, "value_closed": None, "abs_err": None},
    ]
    buf = io.StringIO()
    emit(_record([0.5], [0.25], [0.1], [0.3], [0.2]), "json", buf)
    assert json.loads(buf.getvalue()) == [
        {"t": 0.5, "a": 0.25, "value": 0.1, "value_closed": 0.3, "abs_err": 0.2}
    ]


#: (sweep or diff, configuration, has a closed column)
VIEWED = [
    (run_sweep, SweepConfig("entropy", a_steps=3, t_steps=7, compare=True), True),
    (run_sweep, SweepConfig("entropy", a_steps=3, t_steps=7), False),
    (diff_sweep, SweepConfig("iconcurrence", a_steps=3, t_steps=7,
                             channel=ChannelSpec("AD", 0.3), compare=True), True),
    # no noisy closed form on qubit 1, so no closed column despite compare
    (diff_sweep, SweepConfig("iconcurrence", a_steps=3, t_steps=7,
                             channel=ChannelSpec("AD", 0.3, qubit=1), compare=True), False),
]


@pytest.mark.parametrize("run, config, closed", VIEWED,
                         ids=["sweep-closed", "sweep", "diff-closed", "diff"])
def test_points_are_sweep_row_views_of_the_columns(run, config, closed):
    record = run(config)
    assert (record.value_closed is not None) == closed == (record.abs_err is not None)
    assert record.t.tolist() == config.t_values().tolist() * 3
    assert record.a.tolist() == [a for a in config.a_values().tolist() for _ in range(7)]
    assert len(record.value) == 21
    columns = [record.t, record.a, record.value, record.value_closed, record.abs_err]
    assert list(map(id, record.columns())) == [id(c) for c in columns if c is not None]
    for column in record.columns():
        assert column.shape == (21,) and column.dtype == float
    if closed:
        assert record.abs_err.tolist() == abs(record.value - record.value_closed).tolist()


#: the keys of a row, in output order
KEYS = ("t", "a", "value", "value_closed", "abs_err")


def _rows(record):
    """The rows of a record as tuples of Python floats in the order of
    KEYS, None where no closed form applies."""
    cells = [c.tolist() for c in record.columns()]
    return [row + (None,) * (len(KEYS) - len(row)) for row in zip(*cells)]


def _reference_csv(record):
    """The renderer as it was written before it formatted whole rows."""
    def fmt(value):
        return "" if value is None else f"{value:.12g}"

    lines = [",".join(KEYS)] + [",".join(map(fmt, row)) for row in _rows(record)]
    return "\n".join(lines) + "\n"


def _reference_json(record):
    """The renderer as it was written before it wrote the JSON text itself."""
    def number(value):
        return None if value is None else float(f"{value:.12g}")

    payload = [dict(zip(KEYS, map(number, row))) for row in _rows(record)]
    return json.dumps(payload, indent=2) + "\n"


def _assert_same_text(got: str, want: str, label) -> None:
    """got == want. A failure names the first line that differs: pytest's
    report of two unequal texts of hundreds of KB is a diff that takes
    minutes to build."""
    if got != want:
        got_lines, want_lines = got.splitlines(), want.splitlines()
        pairs = zip(got_lines, want_lines)
        first = next((i for i, (g, w) in enumerate(pairs) if g != w),
                     min(len(got_lines), len(want_lines)))
        pytest.fail(f"{label}: line {first} differs: {got_lines[first:first + 1]} != "
                    f"{want_lines[first:first + 1]} ({len(got_lines)} and {len(want_lines)} "
                    "lines)")


#: values whose 12-digit text json.dumps writes differently: integral (some
#: only after rounding), e+ exponents, e-3xx exponents and subnormals, and
#: the non-finite values, beside ordinary ones
EDGE_VALUES = [
    0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 1e11, 123456789012.0, 999999999999.5, 1.5e13,
    1e15, 1e16, 1e17, 1e-4, 1e-5, 1.5e-35, 1e-30, 1e-300, 5e-324, 1e-310,
    math.inf, -math.inf, math.nan,
]


#: values on either side of each bound of the renderer's mask of cells that
#: take the encoder's text (``sweep._needs_encoder``): 0.5, integral 12-digit
#: text, 1e11 and 1e-29, a subnormal, and near-integers on each side of the half unit in
#: the 12th digit, of either sign
MASK_BOUNDARY = [
    sign * v
    for sign in (1.0, -1.0)
    for v in [
        0.49999999999999994, 0.5, 0.9999999999996, 2.9999999999995, 99999999999.95,
        math.nextafter(1e11, 0.0), 1e11, math.nextafter(1e11, math.inf),
        math.nextafter(1e-29, 0.0), 1e-29, math.nextafter(1e-29, math.inf),
        1.2345678901234e-316,  # a subnormal with about 8 digits of precision
        *(k * (1.0 + j * 1e-12) for k in (1.0, 3.0, 7.0, 1e5, 5e10) for j in range(-12, 13)),
    ]
]


def _random_doubles(n, seed=20240611):
    """Doubles from uniformly drawn bit patterns: every exponent, and NaN
    payloads, subnormals and infinities among them."""
    rng = random.Random(seed)
    return [struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0] for _ in range(n)]


def _repeats(n=600):
    """A few values repeated many times, interleaved with 0.0 and -0.0 and
    with NaNs of different payloads and signs: distinct bit patterns whose
    texts are equal, and equal values whose texts differ."""
    nans = [struct.unpack("<d", bits.to_bytes(8, "little"))[0] for bits in (
        0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001,
        0x7FFFFFFFFFFFFFFF)]
    few = [0.1, 1.0, -1.0, 1e11, 1e-300, math.inf]
    return [v for i in range(n) for v in (few[i % 6], -0.0 if i % 2 else 0.0, nans[i % 5])]


def _sweeps_over(values):
    """A sweep of each column shape, numeric-only and with closed columns,
    that puts every value in every column."""
    n = len(values)
    return [_record(*([values[(i + k) % n] for i in range(n)] for k in range(width)))
            for width in (3, 5)]


@pytest.mark.parametrize("values", [EDGE_VALUES + MASK_BOUNDARY, _random_doubles(2000),
                                    _repeats()],
                         ids=["edges", "random-bits", "repeats"])
def test_renderers_match_the_reference_renderers(values):
    for record in _sweeps_over(values):
        for fmt, reference in (("csv", _reference_csv), ("json", _reference_json)):
            buf = io.StringIO()
            emit(record, fmt, buf)
            _assert_same_text(buf.getvalue(), reference(record), fmt)


@pytest.mark.parametrize("width", [3, 5])
def test_json_writes_a_column_of_signed_zeros_as_json_dumps_does(width):
    # 0.0 and -0.0 are one value but two bit patterns, each formatted once
    # with the encoder's text, json.dumps' 0.0 or -0.0
    values = EDGE_VALUES + MASK_BOUNDARY
    zeros = [-0.0 if i % 3 else 0.0 for i in range(len(values))]
    for k in range(width):
        columns = [zeros if j == k else values[j:] + values[:j] for j in range(width)]
        record = _record(*columns)
        buf = io.StringIO()
        emit(record, "json", buf)
        _assert_same_text(buf.getvalue(), _reference_json(record), k)


def test_the_encoder_mask_misses_no_cell_whose_text_differs():
    values = EDGE_VALUES + MASK_BOUNDARY + _random_doubles(2000)
    flagged = sweep._needs_encoder(np.array(values)).tolist()
    for value, flag in zip(values, flagged):
        text = f"{value:.12g}"
        assert flag or text == json.dumps(float(text)), value


#: the benchmark's clean surfaces, 50 x 101 with closed columns, and a noisy
#: diff with none
SURFACES = [
    (run_sweep, SweepConfig(m, a_steps=50, t_steps=101, compare=True))
    for m in ("schmidt", "ppt", "concurrence", "iconcurrence", "entropy", "fidelity")
] + [(diff_sweep, SweepConfig("concurrence", a_steps=50, t_steps=101,
                              channel=ChannelSpec("BF", 0.3, qubit=1), compare=True))]


@pytest.mark.parametrize("run, config", SURFACES,
                         ids=[c.measure if r is run_sweep else "diff" for r, c in SURFACES])
def test_whole_surfaces_render_as_the_reference_renderers(run, config):
    record = run(config)
    assert len(record.value) == 5050
    for fmt, reference in (("csv", _reference_csv), ("json", _reference_json)):
        buf = io.StringIO()
        emit(record, fmt, buf)
        _assert_same_text(buf.getvalue(), reference(record), fmt)


def test_emit_rejects_unknown_format_and_bad_paths(tmp_path):
    with pytest.raises(ValueError):
        emit(EMPTY[0], "yaml")
    with pytest.raises(OSError, match="no/such"):
        emit(EMPTY[0], "csv", str(tmp_path / "no" / "such" / "dir.csv"))


def test_emit_is_deterministic(tmp_path):
    config = SweepConfig(measure="entropy", a_steps=3, t_steps=7, compare=True)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(run_sweep(config), "csv", str(first))
    emit(run_sweep(config), "csv", str(second))
    assert first.read_bytes() == second.read_bytes()


def test_verify_passes_on_small_grids():
    checks = verify(a_steps=7, t_steps=9)
    assert checks and all(c.passed for c in checks)
    names = {c.name for c in checks}
    assert {"fidelity", "schmidt", "ppt", "concurrence", "iconcurrence", "entropy"} <= names
    assert {f"avg_fidelity[{k}]" for k in ("PF", "BF", "AD", "PD")} <= names
    assert "avg_fidelity[PF=BF]" in names


def test_verify_fails_under_injected_error():
    checks = verify(
        measures=["concurrence"], a_steps=5, t_steps=5, inject_error=1e-6
    )
    assert any(not c.passed for c in checks)
    checks = verify(measures=["avg_fidelity"], inject_error=1e-6)
    assert any(not c.passed for c in checks)


@pytest.mark.parametrize("inject_error", [0.0, 1e-6])
def test_verify_errors_equal_those_of_the_sweep_rows(inject_error):
    # verify runs no sweep; its maxima must be those the sweeps give, bit
    # for bit, as the largest of their rows' errors
    grid = dict(a_steps=4, t_steps=5, log_base="e")
    checks = {c.name: c.max_abs_err for c in verify(**grid, inject_error=inject_error)}
    values = {}
    battery = sweep._battery(MEASURES, **grid)
    for record in battery:
        if record.against is None:
            spec = record.config.channel
            configs = [record.config] if spec is None else [
                replace(record.config, channel=replace(spec, p=p)) for p in spec.p
            ]
            sweeps = [run_sweep(config) for config in configs]
            values[record.name] = np.concatenate([s.value for s in sweeps])
            closed = np.concatenate([s.value_closed for s in sweeps])
            expected = max(np.abs(values[record.name] - (closed + inject_error)).tolist())
            assert checks.pop(record.name) == expected, record.name
    # the flip agreement, from the [PF] and [BF] values
    flips = np.abs(values["avg_fidelity[PF]"] - values["avg_fidelity[BF]"])
    assert checks.pop("avg_fidelity[PF=BF]") == max(flips.tolist())
    assert not checks and len(battery) == 15


def test_the_default_battery_builds_one_config_per_measure_and_kind():
    # 6 clean records, 4 noisy ones each for the I-concurrence and the
    # average fidelity, and [PF=BF], which reuses the [PF] and [BF] configs
    battery = sweep._battery(MEASURES, 50, 50, "e")
    configs = [c for r in battery for c in (r.config, r.against) if c is not None]
    assert len(battery) == 15 and len(configs) == 16
    assert len({id(c) for c in configs}) == len(set(configs)) == 14
    assert len({id(c.channel) for c in configs if c.channel is not None}) == 8


#: the checks of each measure's battery, in order
BATTERIES = {
    "schmidt": ["schmidt"],
    "ppt": ["ppt"],
    "concurrence": ["concurrence"],
    "iconcurrence": ["iconcurrence", "iconcurrence[PF]", "iconcurrence[BF]",
                     "iconcurrence[AD]", "iconcurrence[PD]"],
    "entropy": ["entropy"],
    "fidelity": ["fidelity"],
    "avg_fidelity": ["avg_fidelity[PF]", "avg_fidelity[BF]", "avg_fidelity[AD]",
                     "avg_fidelity[PD]", "avg_fidelity[PF=BF]"],
}


@pytest.mark.parametrize("measure, names", BATTERIES.items())
def test_the_battery_of_each_measure(measure, names):
    assert [c.name for c in verify(measures=[measure], a_steps=2, t_steps=2)] == names


def _count_channel_builds(monkeypatch):
    """Record the arguments of every make_channel call."""
    calls = []
    make_channel = ch.make_channel
    monkeypatch.setattr(ch, "make_channel",
                        lambda *args: calls.append(args) or make_channel(*args))
    return calls


def test_verify_builds_each_average_fidelity_channel_once(monkeypatch):
    # one stack of 20 values of p per kind; the PF=BF check reuses the
    # [PF] and [BF] values
    calls = _count_channel_builds(monkeypatch)
    checks = verify(measures=["avg_fidelity"])
    p_values = tuple(np.linspace(0.0, 1.0, sweep.AVG_GRID).tolist())
    assert calls == [(kind, p_values) for kind in ch.CHANNEL_KINDS]
    assert [c.name for c in checks][-1] == "avg_fidelity[PF=BF]"
    assert all(c.passed for c in checks)


def test_verify_builds_each_iconcurrence_channel_stack_once(monkeypatch):
    # one stack of the 5 NOISY_P_VALUES per kind
    calls = _count_channel_builds(monkeypatch)
    checks = verify(measures=["iconcurrence"])
    assert calls == [(kind, sweep.NOISY_P_VALUES) for kind in ch.CHANNEL_KINDS]
    assert all(c.passed for c in checks)


def test_a_stacked_verify_holds_no_larger_blocks(monkeypatch):
    # a block of a run spans rows of p: its stacks hold no more matrices
    # than a single configuration's, whatever the number of p
    sizes = {"average_fidelities": [], "reduced_determinants": []}

    def record(module, name, shape):
        original = getattr(module, name)

        def recorded(*args):
            sizes[name].append(shape(*args)[:-2])
            return original(*args)

        monkeypatch.setattr(module, name, recorded)

    record(ch, "average_fidelities", lambda u, operators, qubit: np.broadcast_shapes(
        u.shape[:-2], *(e.shape[:-2] for e in operators)) + u.shape[-2:])
    record(ent, "reduced_determinants", lambda xi: xi.shape)
    assert all(c.passed for c in verify(measures=["avg_fidelity", "iconcurrence"]))
    gate, pair = sizes["average_fidelities"], sizes["reduced_determinants"]
    assert max(math.prod(s) for s in gate) <= sweep.BLOCK_POINTS
    assert max(math.prod(s) for s in pair) <= 4 * sweep.BLOCK_POINTS
    # 20 times per p: three rows of p per block of the gate route; 450
    # points per p: pieces of one row for a pair route
    assert (3, 20) in gate and (1, 256) in pair


def test_verify_rejects_unknown_measures():
    with pytest.raises(ValueError):
        verify(measures=["negativity"])


def test_verify_rejects_a_bad_log_base_for_every_measure():
    # the gate measure's battery reads no log base; the command line
    # offers only the valid ones
    with pytest.raises(ValueError, match="log_base must be 'e' or '2'"):
        verify(measures=["avg_fidelity"], log_base="10")


def test_verify_respects_log_base():
    checks = verify(measures=["entropy"], a_steps=5, t_steps=5, log_base="2")
    assert all(c.passed for c in checks)


def test_fidelity_closed_form_holds_where_sin_t_is_negative():
    # numeric |<psi(pi/2)|psi(t)>| is 1 at t = -pi/2; alpha^2 + sin(t) beta^2 is -1
    record = run_sweep(
        SweepConfig(measure="fidelity", a=0.0, t_min=-1.5708, t_max=0.0, t_steps=3, compare=True)
    )
    assert record.value[0] == pytest.approx(1.0, abs=1e-8)
    assert np.all(record.abs_err <= 1e-12)


def _nan_at_an_interior_point(monkeypatch, kernel):
    """Rebind the package kernel ``ent.<kernel>`` to one that returns NaN at
    the fifth point of each call."""
    original = getattr(ent, kernel)

    def patched(xi):
        values = original(xi)
        values[4] = math.nan
        return values

    monkeypatch.setattr(ent, kernel, patched)


def test_verify_fails_when_a_route_returns_nan(monkeypatch):
    _nan_at_an_interior_point(monkeypatch, "ensemble_concurrences")
    [check] = verify(measures=["concurrence"], a_steps=3, t_steps=3)
    assert math.isnan(check.max_abs_err)
    assert not check.passed


def test_verify_fails_when_the_reduced_determinant_is_nan(monkeypatch):
    # the entropy reads its spectrum from the determinant, with no
    # eigensolve that would reject a NaN; the NaN must reach the check
    _nan_at_an_interior_point(monkeypatch, "reduced_determinants")
    [check] = verify(measures=["entropy"], a_steps=3, t_steps=3)
    assert math.isnan(check.max_abs_err)
    assert not check.passed


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_verify_rejects_a_non_finite_injected_error(bad):
    with pytest.raises(ValueError, match="finite"):
        verify(measures=["concurrence"], a_steps=3, t_steps=3, inject_error=bad)


#: every route, clean where it accepts a clean run and under each channel
#: on noise qubits 0 and 1 where it accepts one
ROUTES = [
    (name, spec)
    for name, m in MEASURES.items()
    for spec in ([] if m.gate else [None]) + (
        [ChannelSpec(kind, 0.3, qubit) for kind in ch.CHANNEL_KINDS for qubit in (0, 1)]
        if m.mixed or m.gate else []
    )
]


@pytest.mark.parametrize(
    "name, spec", ROUTES,
    ids=[n if s is None else f"{n}[{s.kind}_q{s.qubit}]" for n, s in ROUTES],
)
def test_values_do_not_depend_on_the_block_size(name, spec):
    # the same bits whatever the block, so block sizes never move an output
    # byte; tobytes also tells -0.0 from 0.0, which print differently
    config = SweepConfig(name, a_steps=3, t_steps=17, t_min=-3.0, t_max=6.0, channel=spec)
    numeric, _, block = sweep._routes(config)
    a, t = config.grid()
    blocked = sweep._evaluate(numeric, a, t, 1, block)
    assert blocked.shape == (51,)
    assert sweep._evaluate(numeric, a, t, 1, 1).tobytes() == blocked.tobytes()


def test_pair_routes_take_four_times_the_points_of_a_gate_route():
    noise = ChannelSpec("PF", 0.3)
    for name, m in MEASURES.items():
        *_, block = sweep._routes(SweepConfig(name, channel=noise if m.gate else None))
        assert block == (sweep.BLOCK_POINTS if m.gate else 4 * sweep.BLOCK_POINTS)


STACKED = [name for name, m in MEASURES.items() if m.mixed or m.gate]
P_VALUES = sweep.NOISY_P_VALUES


@pytest.mark.parametrize("name", ["iconcurrence", "avg_fidelity"])
@pytest.mark.parametrize("qubit", [0, 1])
def test_a_block_reads_its_rows_of_the_operator_stacks_as_views(monkeypatch, name, qubit):
    # the numeric route hands a measure the rows start:stop of each 2 x 2
    # operator stack that make_channel built, with a unit axis after them
    # that broadcasts against the block's points, and the noise qubit
    seen = []
    make_channel, m = ch.make_channel, MEASURES[name]
    monkeypatch.setattr(ch, "make_channel",
                        lambda *args: seen.append(make_channel(*args)) or seen[-1])
    monkeypatch.setitem(MEASURES, m.name, replace(
        m, numeric=lambda a, t, rows, q, base: seen.append((rows, q))
        or m.numeric(a, t, rows, q, base)))
    config = SweepConfig(m.name, channel=ChannelSpec("AD", P_VALUES, qubit))
    numeric, _, _ = sweep._routes(config)
    assert numeric(np.array([0.3, 0.4]), np.array([0.1, 0.2]), 1, 4).shape == (3, 2)
    operators, (rows, q) = seen
    assert q == qubit
    assert type(rows) is tuple and len(rows) == len(operators) == 2
    for e, r in zip(operators, rows):
        assert r.shape == (3, 1, 2, 2) and not r.flags.writeable
        assert r.base is e and r.tobytes() == e[1:4].tobytes()


@pytest.mark.parametrize("qubit", [0, 1])
@pytest.mark.parametrize("kind", ch.CHANNEL_KINDS)
def test_a_p_stack_is_its_configurations_bit_for_bit(kind, qubit):
    # every stacked route and closed column against the route under each
    # channel alone, and against the config at each single p
    for name in STACKED:
        m = MEASURES[name]
        config = SweepConfig(name, a_steps=3, t_steps=5, t_min=-1.0, t_max=2.0,
                             channel=ChannelSpec(kind, P_VALUES, qubit), compare=True)
        values, closed = sweep._columns(config)
        a, t = config.grid()
        alone = [m.numeric(a, t, ch.make_channel(kind, p), qubit, "e") for p in P_VALUES]
        runs = [sweep._columns(replace(config, channel=ChannelSpec(kind, p, qubit)))
                for p in P_VALUES]
        assert np.array_equal(values, np.concatenate(alone)), name
        assert values.tobytes() == np.concatenate([v for v, _ in runs]).tobytes(), name
        numeric, _, block = sweep._routes(config)
        assert sweep._evaluate(numeric, a, t, len(P_VALUES), 7).tobytes() == values.tobytes()
        if qubit == 1 or m.noisy_closed is None:
            assert closed is None and all(c is None for _, c in runs), name
            continue
        al, be = np.sin(config.a_values())[:, None], np.cos(config.a_values())[:, None]
        t_row = config.t_values()
        points = [np.broadcast_to(m.noisy_closed(kind, p, t_row, al, be), (3, 5)).ravel()
                  for p in P_VALUES]
        assert np.array_equal(closed, np.concatenate(points)), name
        assert closed.tobytes() == np.concatenate([c for _, c in runs]).tobytes(), name

