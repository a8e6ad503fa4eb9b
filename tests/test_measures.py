"""The measure table: every closed form against its numeric route over the
whole (a, t, p) domain the command line accepts, and the separation of the
two routes."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsim import channels as ch
from switchsim import entanglement as ent
from switchsim.sweep import MEASURES, ChannelSpec, SweepConfig, diff_sweep, run_sweep

#: (measure, channel kind or None): every closed form the table holds,
#: clean and with each channel on qubit 0
CASES = [(name, None) for name, m in MEASURES.items() if m.closed is not None]
CASES += [
    (name, kind)
    for name, m in MEASURES.items()
    if m.noisy_closed is not None
    for kind in ch.CHANNEL_KINDS
]

angles = st.floats(-math.pi, math.pi)
times = st.floats(-math.pi, 2 * math.pi)
# the endpoints are where PF/BF and AD/PD turn noiseless, so draw them on purpose
probabilities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@pytest.mark.parametrize(
    "name, kind", CASES, ids=[n if k is None else f"{n}[{k}]" for n, k in CASES]
)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(a=angles, t=times, p=probabilities)
def test_closed_form_matches_the_numeric_route(name, kind, a, t, p):
    channel = None if kind is None else ChannelSpec(kind, p, qubit=0)
    config = SweepConfig(name, a=a, t_min=t, t_max=t, t_steps=2, channel=channel, compare=True)
    row = run_sweep(config)[0]
    assert row.abs_err <= MEASURES[name].tolerance, (row.value_numeric, row.value_closed)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=angles, t=st.one_of(st.sampled_from([0.0, math.pi / 2]), times))
def test_ppt_closed_column_is_the_least_eigenvalue_bit_for_bit(a, t):
    # the sweep's ppt closed column takes min() of the unsorted eigenvalues;
    # repr tells -0.0 from 0.0, which the column prints differently
    alpha0, beta0 = math.sin(a), math.cos(a)
    least = min(ent.ppt_eigenvalues_closed(alpha0, beta0, t))
    assert repr(least) == repr(float(ent.ppt_closed(alpha0, beta0, t)[0]))


def _forbidden(*args, **kwargs):
    raise AssertionError("a closed form ran on the numeric route")


def test_numeric_route_never_calls_a_closed_form(monkeypatch):
    for module in (ent, ch):
        for attr in dir(module):
            if attr.endswith("_closed"):
                monkeypatch.setattr(module, attr, _forbidden)
    noise = ChannelSpec("AD", 0.3)
    for name, m in MEASURES.items():
        if not m.gate:
            run_sweep(SweepConfig(name, a_steps=2, t_steps=3))
        if m.mixed or m.gate:
            run_sweep(SweepConfig(name, a_steps=2, t_steps=3, channel=noise))
        if m.mixed:
            diff_sweep(SweepConfig(name, a_steps=2, t_steps=3, channel=noise))


@pytest.mark.parametrize("name", ["iconcurrence", "avg_fidelity"])
def test_a_sweep_lifts_its_channel_once(monkeypatch, name):
    calls = []
    lift = ch.lift
    monkeypatch.setattr(ch, "lift", lambda *args: calls.append(args) or lift(*args))
    config = SweepConfig(name, a_steps=3, t_steps=5, channel=ChannelSpec("PD", 0.4), compare=True)
    assert len(run_sweep(config)) == 15
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["schmidt", "concurrence"])
def test_closed_form_matches_the_numeric_route_near_separable_points(name):
    # beta = cos(a) is about 1e-3, so the measure is about 1e-8 at t = 0.01
    config = SweepConfig(name, a=1.5698, t_min=0.01, t_max=0.01, t_steps=2, compare=True)
    row = run_sweep(config)[0]
    assert row.abs_err <= MEASURES[name].tolerance, (row.value_numeric, row.value_closed)
