"""The measure table: every closed form against its numeric route over the
whole (a, t, p) domain the command line accepts, the concurrence against
its factorization law under noise, the separation of the two routes, and
where the numeric routes check their input and eigensolve."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsim import channels as ch
from switchsim import entanglement as ent
from switchsim import linalg, states, sweep, switch
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


def _choi_concurrence(kind: str, p: float) -> float:
    """The concurrence of the channel's Choi state: the factor by which the
    channel, acting on one qubit, scales the concurrence of every pure
    two-qubit state (Konrad et al., Nat. Phys. 4, 99 (2008))."""
    return abs(2.0 * p - 1.0) if kind in ("PF", "BF") else math.sqrt(1.0 - p)


#: the probe's first points: its near-separable points, then the first
#: 2,500 random ones; the density-matrix route, which runs an eigensolve
#: per point, is held to the law on these
DENSITY_PROBE = 4_000


@pytest.fixture(scope="module")
def probe():
    """(a, t, clean closed-form concurrence) at 1,500 seeded points near
    separable states (a near pi/2, so beta near 0; t near 0; both), then at
    20,000 seeded random points of the domain the command line accepts."""
    rng = np.random.default_rng(2008)
    n, m = 20_000, 500
    a_near = math.pi / 2 + rng.normal(0.0, 1e-4, m)
    t_near = rng.normal(0.0, 1e-7, m)
    a = np.concatenate([a_near, rng.uniform(-math.pi, math.pi, m), a_near,
                        rng.uniform(-math.pi, math.pi, n)])
    t = np.concatenate([rng.uniform(-math.pi, 2 * math.pi, m), t_near, t_near,
                        rng.uniform(-math.pi, 2 * math.pi, n)])
    clean = [ent.concurrence_closed(math.cos(x), y) for x, y in zip(a.tolist(), t.tolist())]
    return a, t, np.array(clean)


@pytest.mark.parametrize("qubit", [0, 1])
@pytest.mark.parametrize("kind", ch.CHANNEL_KINDS)
def test_concurrence_follows_the_factorization_law(probe, kind, qubit):
    # neither route uses the law; where C is small, a square root of
    # eigensolver noise would miss it by far more than 1e-12
    a, t, clean = probe
    rho = states.densities(switch.switched_pairs(states.angle_qubits(a[:DENSITY_PROBE]),
                                                 t[:DENSITY_PROBE]))
    for p in (0.0, 0.13, 0.5, 0.74, 1.0):
        lifted = ch.lift(ch.make_channel(kind, p), qubit, 2)
        want = clean * _choi_concurrence(kind, p)
        route = MEASURES["concurrence"].numeric(a, t, lifted, "e")
        assert np.max(np.abs(route - want)) <= 1e-12, p
        noisy = ch.apply_kraus(rho, lifted)
        density = ent.concurrences(noisy)
        assert np.max(np.abs(density - want[:DENSITY_PROBE])) <= 1e-12, p
        for i in range(0, DENSITY_PROBE, 100):
            single = ent.concurrence(states.DensityMatrix(2, noisy[i]))
            assert abs(single - want[i]) <= 1e-12, (p, a[i], t[i])


@pytest.mark.xfail(strict=True, reason=(
    "iconcurrences takes sqrt(2 (1 - purity)), which turns rounding in the "
    "purity into an error of about 3e-9 where the measure is about 3e-7"
))
def test_clean_iconcurrence_holds_its_tolerance_where_it_is_small():
    # numeric 3.2579e-07 against closed 3.2850e-07: abs_err 2.71e-09
    t = 6.035607994453679
    config = SweepConfig("iconcurrence", a=1.5699664036480403, t_min=t, t_max=t,
                         t_steps=2, compare=True)
    row = run_sweep(config)[0]
    assert row.abs_err <= sweep.DEFAULT_TOLERANCE, (row.value_numeric, row.value_closed)


@pytest.mark.parametrize("name", ["entropy", "iconcurrence"])
def test_noise_on_the_second_qubit_is_invisible_to_entropy_and_iconcurrence(name):
    # both read the first qubit's reduced state, which a channel on the
    # second leaves unchanged; the concurrence does see that noise
    worst = max(
        row.value_numeric
        for kind in ch.CHANNEL_KINDS
        for p in (0.0, 0.3, 0.74, 1.0)
        for row in diff_sweep(SweepConfig(name, a_steps=9, t_min=-3.0, t_max=6.0, t_steps=51,
                                          channel=ChannelSpec(kind, p, qubit=1)))
    )
    assert worst <= sweep.DEFAULT_TOLERANCE


# ------------------------------------------- checks at the (a, t) boundary

#: (measure, channel lifted onto the register or None): every route clean
#: where it accepts a clean run, and under a channel where it accepts one
ROUTES = [
    (name, None) for name, m in MEASURES.items() if not m.gate
] + [
    (name, ch.lift(ch.make_channel("AD", 0.3), 1, 3 if m.gate else 2))
    for name, m in MEASURES.items() if m.mixed or m.gate
]
ROUTE_IDS = [n if lifted is None else f"{n}[AD]" for n, lifted in ROUTES]


@pytest.mark.parametrize("name, lifted", ROUTES, ids=ROUTE_IDS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_every_route_rejects_a_non_finite_point(name, lifted, bad):
    m = MEASURES[name]
    # a gate route reads only t: its value is a property of the switch
    for corrupted in ("t",) if m.gate else ("a", "t"):
        grid = {"a": np.linspace(0.1, 1.4, 7), "t": np.linspace(0.2, 1.3, 7)}
        grid[corrupted][3] = bad
        with pytest.raises(ValueError, match="finite"):
            m.numeric(grid["a"], grid["t"], lifted, "e")


#: a valid 2-qubit density matrix
_RHO = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
#: (entry, value) pairs that corrupt _RHO, by the message of the check
#: they must fail
CORRUPTIONS = {
    "NaN": [((1, 1), math.nan)],
    "not Hermitian": [((0, 1), 1e-6)],
    "trace": [((0, 0), 0.5)],
    "not PSD": [((0, 0), 0.5 + 1e-6), ((3, 3), -1e-6)],
}


@pytest.mark.parametrize("corruption", CORRUPTIONS)
@pytest.mark.parametrize(
    "measure", [ent.concurrence, ent.iconcurrence, ent.von_neumann_entropy],
    ids=["concurrence", "iconcurrence", "von_neumann_entropy"],
)
def test_measures_of_a_corrupted_matrix_fail_at_the_state_constructor(measure, corruption):
    # the measures take a DensityMatrix, whose constructor is the check the
    # stacked stages after it no longer repeat
    m = _RHO.copy()
    for entry, value in CORRUPTIONS[corruption]:
        m[entry] = value
    with pytest.raises(ValueError, match=corruption):
        measure(states.DensityMatrix(2, m))
    assert measure(states.DensityMatrix(2, _RHO)) >= 0.0


@pytest.mark.parametrize("off, fails", [(2.0, True), (0.5, False)])
def test_entropies_check_positivity_as_a_density_matrix_does(off, fails):
    # the positivity check of the stages before a measure comes from the
    # measure's own eigensolve; it must still see every matrix of a stack
    rho = np.stack([_RHO] * 7)
    low = off * linalg.PSD_EIGENVALUE_FLOOR
    rho[3] = np.diag([0.4 - low, 0.3, 0.3, low])
    if fails:
        with pytest.raises(ValueError) as stacked:
            ent.entropies(rho)
        with pytest.raises(ValueError) as single:
            states.DensityMatrix(2, rho[3])
        assert str(stacked.value) == str(single.value)
    else:
        assert np.all(ent.entropies(rho) > 0.0)


# ------------------------------------ checks that hold by construction

def _counting(monkeypatch, module, attr, calls):
    original = getattr(module, attr)

    def counted(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)


def test_sweeps_make_no_density_check_and_no_eigvalsh(monkeypatch):
    calls = []
    for module in (states, ch, ent, switch, sweep):
        if hasattr(module, "checked_density"):
            _counting(monkeypatch, module, "checked_density", calls)
    _counting(monkeypatch, np.linalg, "eigvalsh", calls)
    noise = ChannelSpec("PF", 0.3)
    for name, m in MEASURES.items():
        if not m.gate:
            run_sweep(SweepConfig(name, a_steps=3, t_steps=5, compare=True))
        if m.mixed or m.gate:
            run_sweep(SweepConfig(name, a_steps=3, t_steps=5, channel=noise, compare=True))
        if m.mixed:
            diff_sweep(SweepConfig(name, a_steps=3, t_steps=5, channel=noise))
    assert calls == []
    states.DensityMatrix(2, _RHO)
    assert calls == ["checked_density", "eigvalsh"]


def test_concurrence_makes_no_eigensolve_in_a_sweep_and_one_on_a_density_matrix(monkeypatch):
    # a sweep reads the pair's Kraus branches, so neither a density matrix
    # nor its spectrum is formed; a density matrix is eigensolved once
    calls = []
    for attr in ("eigh", "eigvalsh"):
        _counting(monkeypatch, np.linalg, attr, calls)
    _counting(monkeypatch, linalg, "psd_sqrt", calls)
    noisy = [ChannelSpec(kind, 0.3, qubit) for kind in ch.CHANNEL_KINDS for qubit in (0, 1)]
    run_sweep(SweepConfig("concurrence", a_steps=3, t_steps=5, compare=True))
    for spec in noisy:
        config = SweepConfig("concurrence", a_steps=3, t_steps=5, channel=spec, compare=True)
        run_sweep(config)
        diff_sweep(config)
    assert calls == []
    rho = states.DensityMatrix(2, _RHO)
    calls.clear()
    ent.concurrence(rho)
    assert calls == ["eigh"]
