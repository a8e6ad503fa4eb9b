"""The input boundary: the command line's parser and ``SweepConfig``,
``ChannelSpec`` and ``verify`` check every input once, where it enters,
and nothing past them checks it again.

A property test draws command lines from the edge values of a, t and p,
over every command, measure, channel kind and noise qubit, and runs
``cli.main`` in process: each exits 0 or 2, with no traceback, every
closed column it prints lies within its measure's tolerance of the
numeric one, and a second run prints the same bytes. The boundary's
messages are pinned exactly, since every later stage relies on them, and
a non-finite a or t is shown to stop there before each route the command
line reaches, since no route checks its points again.
"""

import contextlib
import dataclasses
import io
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switchsim import cli
from switchsim import channels as ch
from switchsim import sweep as sw
from switchsim.sweep import MEASURES, SweepConfig, mixed_measures, verify

#: a, t_min and the span t_max - t_min: zeros of both signs, the least
#: subnormal, tiny, ordinary and huge values, and pi/4 and pi/2, where the
#: swap is half and wholly done
EDGES = (0.0, -0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0, math.pi / 4, math.pi / 2, 2.0, -3.0,
         1e3, 1e8, 1e15, 1e17, 1e300, -1e300)
#: p at and next to the ends of [0, 1] and next to 1/2, where PF and BF
#: turn noiseless, fully noisy and fully mixing
P_EDGES = (0.0, 5e-324, 1e-300, 1e-17, 1e-9, 0.5, 0.5 + 1e-16, 0.74, 1 - 1e-16, 1.0)

#: the sweep near maximal entanglement whose Schmidt pair was 5e-9 off
NEAR_MAXIMAL = ["sweep", "--measure", "schmidt", "--a", "1e-08", "--t-min", "0.7853981633974483",
                "--t-max", "0.7853981633984483", "--t-steps", "5", "--compare"]


@st.composite
def command_lines(draw):
    """A ``--compare`` command on a grid of at most 2 x 3 points."""
    command = draw(st.sampled_from(["sweep", "diff", "avg-fidelity"]))
    argv = [command]
    if command != "avg-fidelity":
        names = tuple(MEASURES) if command == "sweep" else mixed_measures()
        argv += ["--measure", draw(st.sampled_from(names)),
                 "--log-base", draw(st.sampled_from(["e", "2"]))]
    t_min, span = draw(st.sampled_from(EDGES)), draw(st.sampled_from(EDGES))
    argv += ["--a", repr(draw(st.sampled_from(EDGES))), "--t-min", repr(t_min),
             "--t-max", repr(t_min + span), "--a-steps", draw(st.sampled_from(["1", "2"])),
             "--t-steps", draw(st.sampled_from(["2", "3"])), "--compare"]
    if command != "sweep" or draw(st.booleans()):
        argv += ["--channel", draw(st.sampled_from(ch.CHANNEL_KINDS)),
                 "--p", repr(draw(st.sampled_from(P_EDGES))),
                 "--noise-qubit", draw(st.sampled_from(["0", "1"]))]
    return argv


def _run(argv):
    """(exit code, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exited:
            code = exited.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(argv=command_lines())
@example(argv=NEAR_MAXIMAL)
@example(argv=["sweep", "--measure", "ppt", "--a", "5e-324", "--t-min", "-1e+300", "--t-max",
               "-1e+300", "--t-steps", "2", "--compare"])
@example(argv=["diff", "--measure", "entropy", "--a", "1e+17", "--t-min", "1e+15", "--t-max",
               "2e+15", "--t-steps", "3", "--compare", "--channel", "BF", "--p",
               "0.5000000000000001"])
@example(argv=["avg-fidelity", "--t-min", "-3.0", "--t-max", "1e+300", "--t-steps", "3",
               "--compare", "--channel", "AD", "--p", "0.9999999999999999", "--noise-qubit", "1"])
def test_every_command_line_exits_cleanly_and_its_routes_agree(argv):
    code, out, err = _run(argv)
    assert code in (0, 2), (argv, err)
    assert "Traceback" not in err
    assert (code == 0) == (err == "") and (code == 0) == (out != "")
    measure = "avg_fidelity" if argv[0] == "avg-fidelity" else argv[argv.index("--measure") + 1]
    for line in out.splitlines()[1:]:
        abs_err = line.split(",")[4]
        assert abs_err == "" or float(abs_err) <= MEASURES[measure].tolerance, (argv, line)
    assert _run(argv) == (code, out, err)


# ---------------------------------------------------- the boundary's messages

#: every route the command line reaches: sweep of each measure that takes
#: a clean run, sweep and diff of each mixed measure under a channel, and
#: avg-fidelity's gate route
ROUTES = (
    [["sweep", "--measure", name] for name, m in MEASURES.items() if not m.gate]
    + [[command, "--measure", name, "--channel", "AD"]
       for command in ("sweep", "diff") for name in mixed_measures()]
    + [["avg-fidelity", "--channel", "AD"]]
)
ROUTE_IDS = ["-".join(route[::2]) for route in ROUTES]


class _RouteReached(Exception):
    """Raised by a route's numeric half in place of its values."""


@pytest.mark.parametrize("route", ROUTES, ids=ROUTE_IDS)
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_a_non_finite_angle_or_time_stops_before_every_route(monkeypatch, route, bad):
    # the routes no longer check their points, so a non-finite a or t must
    # never reach one: the same command with finite values does reach it
    measure = "avg_fidelity" if route[0] == "avg-fidelity" else route[2]

    def reached(*args):
        raise _RouteReached(measure)

    monkeypatch.setitem(sw.MEASURES, measure,
                        dataclasses.replace(MEASURES[measure], numeric=reached))
    argv = route + ["--a-steps", "2", "--t-steps", "3"]
    with pytest.raises(_RouteReached):
        _run(argv)
    for option, name in (("--a", "a"), ("--t-min", "t_min"), ("--t-max", "t_max")):
        assert _run(argv + [option, bad]) == (2, "", f"error: {name} must be finite\n"), option


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["a", "t_min", "t_max"])
def test_a_config_rejects_a_non_finite_angle_or_time(name, bad):
    with pytest.raises(ValueError) as raised:
        SweepConfig("concurrence", **{name: bad})
    assert str(raised.value) == f"{name} must be finite"


@pytest.mark.parametrize("grid, message", [
    (dict(a_steps=0), "a_steps must be >= 1, got 0"),
    (dict(t_steps=1), "t_steps must be >= 2, got 1"),
], ids=["a_steps", "t_steps"])
def test_verify_checks_the_grid_that_its_gate_records_do_not_read(grid, message):
    # the average fidelity's records run on a grid of their own, so no
    # config of this battery would see the grid it was given
    with pytest.raises(ValueError) as raised:
        verify(measures=["avg_fidelity"], **grid)
    assert str(raised.value) == message
