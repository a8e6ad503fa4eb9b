import io
import json
import math

import pytest

from switchsim import entanglement as ent
from switchsim.sweep import ChannelSpec, SweepConfig, SweepRow, diff_sweep, emit, run_sweep, verify


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(measure="negativity")
    with pytest.raises(ValueError):
        SweepConfig(measure="concurrence", t_steps=1)
    with pytest.raises(ValueError):
        SweepConfig(measure="concurrence", a_steps=0)
    with pytest.raises(ValueError):
        SweepConfig(measure="concurrence", t_min=1.0, t_max=0.5)
    with pytest.raises(ValueError):
        ChannelSpec("PF", 1.2)
    with pytest.raises(ValueError):
        ChannelSpec("PF", 0.5, qubit=2)


def test_concurrence_sweep_peaks_at_the_half_swap():
    config = SweepConfig(measure="concurrence", a=math.pi / 4, t_steps=101, compare=True)
    rows = run_sweep(config)
    assert len(rows) == 101
    values = [r.value_numeric for r in rows]
    peak = max(values)
    assert peak == pytest.approx(0.5, abs=1e-9)
    assert values.index(peak) == 50  # t = pi/4
    assert all(r.abs_err <= 1e-9 for r in rows)


def test_fidelity_sweep_reaches_one_at_the_end():
    config = SweepConfig(measure="fidelity", a_steps=11, t_steps=11, compare=True)
    rows = run_sweep(config)
    assert len(rows) == 121
    # grid order: a outer, t fastest
    assert rows[0].a == rows[10].a and rows[0].t < rows[10].t
    for row in rows:
        if row.t == pytest.approx(math.pi / 2):
            assert row.value_numeric == pytest.approx(1.0, abs=1e-12)


def test_noisy_sweep_fills_closed_column_only_on_first_qubit():
    spec = ChannelSpec("AD", 0.74, qubit=0)
    rows = run_sweep(
        SweepConfig(measure="iconcurrence", channel=spec, t_steps=5, compare=True)
    )
    assert all(r.value_closed is not None and r.abs_err <= 1e-9 for r in rows)
    rows = run_sweep(
        SweepConfig(
            measure="iconcurrence", channel=ChannelSpec("AD", 0.74, qubit=1),
            t_steps=5, compare=True,
        )
    )
    assert all(r.value_closed is None for r in rows)


def test_rejected_pipelines():
    with pytest.raises(ValueError, match="avg_fidelity needs a channel"):
        run_sweep(SweepConfig(measure="avg_fidelity"))
    with pytest.raises(ValueError, match="noiseless"):
        run_sweep(SweepConfig(measure="schmidt", channel=ChannelSpec("PF", 0.5)))
    with pytest.raises(ValueError, match="noiseless"):
        run_sweep(SweepConfig(measure="fidelity", channel=ChannelSpec("PF", 0.5)))


def test_avg_fidelity_sweep():
    rows = run_sweep(
        SweepConfig(
            measure="avg_fidelity", channel=ChannelSpec("PF", 0.74), t_steps=21, compare=True
        )
    )
    assert all(r.abs_err <= 1e-10 for r in rows)
    assert all(0.0 <= r.value_numeric <= 1.0 for r in rows)


def test_diff_needs_a_channel_and_a_noisy_measure():
    with pytest.raises(ValueError, match="channel"):
        diff_sweep(SweepConfig(measure="iconcurrence"))
    with pytest.raises(ValueError):
        diff_sweep(SweepConfig(measure="fidelity", channel=ChannelSpec("PF", 0.5)))


def test_diff_vanishes_for_identity_and_local_unitary_noise():
    for p in (1.0, 0.0):  # p=1 is the identity, p=0 a local phase flip
        rows = diff_sweep(
            SweepConfig(
                measure="iconcurrence", channel=ChannelSpec("PF", p), a=0.9, t_steps=21
            )
        )
        assert max(r.value_numeric for r in rows) <= 1e-12


def test_diff_detects_amplitude_damping():
    rows = diff_sweep(
        SweepConfig(
            measure="iconcurrence", channel=ChannelSpec("AD", 0.74), a=0.9,
            t_steps=51, compare=True,
        )
    )
    interior = [r for r in rows if 0.0 < r.t < math.pi / 2]
    assert max(r.value_numeric for r in interior) > 0.01
    assert all(r.abs_err <= 1e-9 for r in rows if r.abs_err is not None)


def test_emit_csv_header_only_for_empty_sweeps():
    buf = io.StringIO()
    emit([], "csv", buf)
    assert buf.getvalue() == "t,a,value,value_closed,abs_err\n"


def test_emit_csv_single_row():
    buf = io.StringIO()
    emit([SweepRow(t=0.5, a=0.25, value_numeric=1.0 / 3.0)], "csv", buf)
    lines = buf.getvalue().splitlines()
    assert lines[1] == "0.5,0.25,0.333333333333,,"


def test_emit_json_keys_and_nulls():
    buf = io.StringIO()
    emit([SweepRow(t=0.5, a=0.25, value_numeric=0.1)], "json", buf)
    payload = json.loads(buf.getvalue())
    assert payload == [
        {"t": 0.5, "a": 0.25, "value": 0.1, "value_closed": None, "abs_err": None}
    ]


def test_emit_rejects_unknown_format_and_bad_paths(tmp_path):
    with pytest.raises(ValueError):
        emit([], "yaml")
    with pytest.raises(OSError, match="no/such"):
        emit([], "csv", str(tmp_path / "no" / "such" / "dir.csv"))


def test_emit_is_deterministic(tmp_path):
    config = SweepConfig(measure="entropy", a_steps=3, t_steps=7, compare=True)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(run_sweep(config), "csv", str(first))
    emit(run_sweep(config), "csv", str(second))
    assert first.read_bytes() == second.read_bytes()


def test_verify_passes_on_small_grids():
    checks = verify(a_steps=7, t_steps=9, noisy_a_steps=3, avg_grid=5)
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
    checks = verify(
        measures=["avg_fidelity"], avg_grid=5, inject_error=1e-6
    )
    assert any(not c.passed for c in checks)


def test_verify_rejects_unknown_measures():
    with pytest.raises(ValueError):
        verify(measures=["negativity"])


def test_verify_respects_log_base():
    checks = verify(measures=["entropy"], a_steps=5, t_steps=5, log_base="2")
    assert all(c.passed for c in checks)


def test_fidelity_closed_form_holds_where_sin_t_is_negative():
    # numeric |<psi(pi/2)|psi(t)>| is 1 at t = -pi/2; alpha^2 + sin(t) beta^2 is -1
    rows = run_sweep(
        SweepConfig(measure="fidelity", a=0.0, t_min=-1.5708, t_max=0.0, t_steps=3, compare=True)
    )
    assert rows[0].value_numeric == pytest.approx(1.0, abs=1e-8)
    assert all(r.abs_err <= 1e-12 for r in rows)


def test_verify_fails_when_a_route_returns_nan(monkeypatch):
    monkeypatch.setattr(ent, "concurrence", lambda rho: math.nan)
    [check] = verify(measures=["concurrence"], a_steps=3, t_steps=3)
    assert math.isnan(check.max_abs_err)
    assert not check.passed


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_verify_rejects_a_non_finite_injected_error(bad):
    with pytest.raises(ValueError, match="finite"):
        verify(measures=["concurrence"], a_steps=3, t_steps=3, inject_error=bad)
