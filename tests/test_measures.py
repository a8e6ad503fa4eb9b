"""The measure table: every closed form against its numeric route over the
whole (a, t, p) domain the command line accepts, the concurrence against
its factorization law under noise, the separation of the two routes, the
closed columns and scalar closed forms against the point-by-point code
they replaced, and where the numeric routes eigensolve."""

import cmath
import math
from collections import Counter

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsim import channels as ch
from switchsim import cli
from switchsim import entanglement as ent
from switchsim import sweep, switch
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
    record = run_sweep(config)
    assert record.abs_err[0] <= MEASURES[name].tolerance, (record.value[0], record.value_closed[0])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=angles, t=times, phi=st.floats(-math.pi, math.pi),
       kind=st.sampled_from(ch.CHANNEL_KINDS), p=probabilities)
def test_determinant_forms_hold_for_complex_phases(a, t, phi, kind, p):
    # |A> = sin a|0> + e^{i phi} cos a|1>, which the command line cannot
    # reach; BF's r_y term is 0 on every real input, so only this test
    # exercises it
    al, be = math.sin(a), cmath.rect(math.cos(a), phi)
    amps = np.array([[al, be]])
    psi = switch.switched_pairs(amps, t)
    closed = {name: m.closed(al, be, t, "e") for name, m in MEASURES.items() if m.closed}
    clean = 2.0 * math.sqrt(ent.reduced_determinants(psi[..., None])[0])
    assert abs(ent.least_schmidt_coefficients(psi[..., None])[0] - closed["schmidt"]) <= 1e-12
    assert abs(clean - closed["iconcurrence"]) <= 1e-12
    length = ent.reduced_qubits(psi[..., None])[1][0]
    assert abs(length - ent.reduced_qubit_closed(al, be, t)[1]) <= 1e-12
    # the other closed forms, which read only |alpha| and |beta|
    concurrence = ent.ensemble_concurrences(psi[..., None])[0]
    assert abs(concurrence - ent.concurrence_closed(be, t)) <= 1e-12
    ppt = ent.ppt_spectra(reference.densities(psi))[0]
    spectrum = np.sort(np.array(reference.ppt_eigenvalues_closed(al, be, t)))
    assert np.max(np.abs(ppt - spectrum)) <= 1e-12
    assert abs(ent.ensemble_ppts(psi[..., None])[0] - closed["ppt"]) <= 1e-12
    entropy = reference.entropies(reference.partial_traces(reference.densities(psi), 2, {1}))[0]
    assert abs(entropy - closed["entropy"]) <= 1e-12
    fidelity = switch.switch_fidelities(switch.registers(amps), t)[0]
    assert abs(fidelity - ent.fidelity_closed(al, be, t)) <= 1e-12
    operators = ch.make_channel(kind, p)
    noisy = 2.0 * math.sqrt(
        ent.reduced_determinants(ent.pair_ensembles(amps, t, operators, 0))[0]
    )
    assert abs(noisy - MEASURES["iconcurrence"].noisy_closed(kind, p, t, al, be)) <= 1e-12


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=angles, t=st.one_of(st.sampled_from([0.0, math.pi / 2]), times))
def test_ppt_closed_column_is_the_least_closed_eigenvalue(a, t):
    # the sweep's ppt closed column is -sqrt(d), the closed q unsquared, the
    # least of the four closed eigenvalues, which (1 - |r|) / 2 may undercut
    # by its rounding (1.7e-16 is the most seen on the probe); it is -I/2
    # bit for bit, and -0.0 at a product pair, which repr tells from 0.0
    alpha0, beta0 = math.sin(a), math.cos(a)
    ppt = MEASURES["ppt"].closed(alpha0, beta0, t, "e")
    iconcurrence = MEASURES["iconcurrence"].closed(alpha0, beta0, t, "e")
    assert repr(ppt) == repr(-0.5 * iconcurrence)
    least = min(reference.ppt_eigenvalues_closed(alpha0, beta0, t))
    assert abs(ppt - least) <= 2 * np.finfo(float).eps


def test_the_clean_ppt_and_iconcurrence_keep_their_digits_where_d_underflows():
    # at a = pi/2 and t = 1e-140, 2e-140, sqrt(d) is about 4e-173, so d
    # underflows to 0; both routes read sqrt(d) with no square, as the
    # concurrence reads tau, and the ppt stays -I/2 bit for bit
    grid = dict(a=1.5707963267948966, t_min=1e-140, t_max=2e-140, t_steps=2, compare=True)
    ppt, icon, conc = (run_sweep(SweepConfig(name, **grid))
                       for name in ("ppt", "iconcurrence", "concurrence"))
    amps = switch.angle_qubits(ppt.a)
    assert np.all(ent.reduced_determinants(ent.pair_ensembles(amps, ppt.t)) == 0.0)
    assert np.all(ent.reduced_qubit_closed(amps[:, 0], amps[:, 1], ppt.t)[0] == 0.0)
    assert np.all(conc.value > 1e-173) and np.all(conc.value_closed > 1e-173)
    # 2 |minor| is |tau| of the pure pair bit for bit
    assert icon.value.tobytes() == conc.value.tobytes()
    assert np.all(np.abs(icon.value_closed - conc.value_closed) <= 4e-16 * conc.value_closed)
    for column in ("value", "value_closed"):
        assert getattr(ppt, column).tobytes() == (-0.5 * getattr(icon, column)).tobytes()


def test_the_schmidt_coefficient_keeps_its_digits_where_d_underflows():
    # at a = pi/2 and t = 1e-140, 2e-140, d underflows to 0; both routes
    # read the least Schmidt coefficient s0 from sqrt(d) prescaled by a
    # power of two, and hold s0 s1 = C / 2 of the pure pair
    grid = dict(a=1.5707963267948966, t_min=1e-140, t_max=2e-140, t_steps=2, compare=True)
    schmidt, conc = (run_sweep(SweepConfig(name, **grid)) for name in ("schmidt", "concurrence"))
    pairs = switch.switched_pairs(switch.angle_qubits(schmidt.a), schmidt.t)
    s1 = reference.schmidt_spectra(pairs)
    for column in ("value", "value_closed"):
        s0, c = getattr(schmidt, column), getattr(conc, column)
        assert np.all(s0 > 1e-173), column
        assert np.all(np.abs(s0 - c / (2.0 * s1[:, 1])) <= 4 * np.finfo(float).eps * s0), column


def test_the_prescaled_schmidt_coefficient_has_the_unscaled_bits_where_d_is_normal():
    # a power of two scales exactly, so wherever d is a normal double the
    # least coefficient is the plain sqrt of the small root, bit for bit
    rng = np.random.default_rng(46)
    a, t = rng.uniform(-math.pi, math.pi, 20_000), rng.uniform(-math.pi, 2 * math.pi, 20_000)
    psi = switch.switched_pairs(switch.angle_qubits(a), t)
    d, r = ent.reduced_qubits(psi[..., None])
    al, be = np.sin(a), np.cos(a)
    d_closed, r_closed = ent.reduced_qubit_closed(al, be, t)
    normal = (d > 1e-300) & (d_closed > 1e-300)
    assert np.count_nonzero(normal) > 19_000
    plain = np.sqrt(ent._reduced_spectrum(d, r)[0])
    plain_closed = np.sqrt(ent._reduced_spectrum(d_closed, r_closed)[0])
    numeric = ent.least_schmidt_coefficients(psi[..., None])
    closed = MEASURES["schmidt"].closed(al, be, t, "e")
    assert numeric[normal].tobytes() == plain[normal].tobytes()
    assert closed[normal].tobytes() == plain_closed[normal].tobytes()


def _forbidden(*args, **kwargs):
    raise AssertionError("a closed form ran on the numeric route")


#: every closed form of the package, the closed pairs (d, |r|) among them
CLOSED_FORMS = [(module, attr) for module in (ent, ch) for attr in dir(module)
                if attr.endswith("_closed")]


def test_numeric_route_never_calls_a_closed_form(monkeypatch):
    names = {attr for _, attr in CLOSED_FORMS}
    assert {"reduced_qubit_closed", "reduced_root_closed", "bloch_length_closed",
            "noisy_determinant_closed"} <= names
    for module, attr in CLOSED_FORMS:
        monkeypatch.setattr(module, attr, _forbidden)
    a, t = np.linspace(0.1, 1.4, 5), np.linspace(-1.0, 2.0, 5)
    noise = ChannelSpec("AD", 0.3)
    for name, m in MEASURES.items():
        if not m.gate:
            reference.numeric(m, a, t, None, None, "e")
            run_sweep(SweepConfig(name, a_steps=2, t_steps=3))
        if m.mixed or m.gate:
            for kind in ch.CHANNEL_KINDS:
                for qubit in (0, 1):
                    reference.numeric(m, a, t, ch.make_channel(kind, 0.3), qubit, "e")
            run_sweep(SweepConfig(name, a_steps=2, t_steps=3, channel=noise))
        if m.mixed:
            diff_sweep(SweepConfig(name, a_steps=2, t_steps=3, channel=noise))


#: every --compare run that fills a closed column: each measure clean, each
#: noisy form under each channel on qubit 0, and the diff of each measure
#: that has a noisy form
COMPARE_RUNS = [
    ("sweep", "--measure", name) for name, m in MEASURES.items() if m.closed is not None
] + [
    ("avg-fidelity" if m.gate else "sweep", *(() if m.gate else ("--measure", name)),
     "--channel", kind)
    for name, m in MEASURES.items() if m.noisy_closed is not None
    for kind in ch.CHANNEL_KINDS
] + [
    ("diff", "--measure", name, "--channel", kind)
    for name, m in MEASURES.items() if m.mixed and m.noisy_closed is not None
    for kind in ch.CHANNEL_KINDS
]


@pytest.mark.parametrize("run", COMPARE_RUNS, ids=" ".join)
def test_a_compare_run_calls_each_closed_form_once_per_configuration(monkeypatch, capsys, run):
    # a closed column is one call over the whole grid, not one per point;
    # a diff evaluates two configurations, the noisy one and the clean one
    calls = []
    for module, attr in CLOSED_FORMS:
        _counting(monkeypatch, module, attr, calls)
    assert cli.main([*run, "--compare", "--a-steps", "3", "--t-steps", "5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 16
    counts = Counter(calls)
    assert counts and set(counts.values()) == {1}, counts
    if run[0] == "diff":  # the clean I-concurrence reads sqrt(d) unsquared
        assert {"reduced_root_closed", "noisy_determinant_closed"} <= set(counts)


@pytest.mark.parametrize("name", ["iconcurrence", "avg_fidelity"])
def test_a_sweep_builds_its_channel_once(monkeypatch, name):
    calls = []
    make_channel = ch.make_channel
    monkeypatch.setattr(ch, "make_channel",
                        lambda *args: calls.append(args) or make_channel(*args))
    config = SweepConfig(name, a_steps=3, t_steps=5, channel=ChannelSpec("PD", 0.4), compare=True)
    assert len(run_sweep(config).value) == 15
    assert calls == [("PD", (0.4,))]


@pytest.mark.parametrize("name", ["schmidt", "concurrence"])
def test_closed_form_matches_the_numeric_route_near_separable_points(name):
    # beta = cos(a) is about 1e-3, so the measure is about 1e-8 at t = 0.01
    config = SweepConfig(name, a=1.5698, t_min=0.01, t_max=0.01, t_steps=2, compare=True)
    record = run_sweep(config)
    assert record.abs_err[0] <= MEASURES[name].tolerance, (record.value[0], record.value_closed[0])


def _choi_concurrence(kind: str, p: float) -> float:
    """The concurrence of the channel's Choi state: the factor by which the
    channel, acting on one qubit, scales the concurrence of every pure
    two-qubit state (Konrad et al., Nat. Phys. 4, 99 (2008))."""
    return abs(2.0 * p - 1.0) if kind in ("PF", "BF") else math.sqrt(1.0 - p)


#: the probe's first points: its near-separable points, then the first
#: 2,500 random ones; the density-matrix route, which runs an eigensolve
#: per point, is held to the law on these
DENSITY_PROBE = 4_000
#: the probe's near-separable points, its first
NEAR_SEPARABLE = 1_500


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
    return a, t, ent.concurrence_closed(np.cos(a), t)


@pytest.mark.parametrize("qubit", [0, 1])
@pytest.mark.parametrize("kind", ch.CHANNEL_KINDS)
def test_concurrence_follows_the_factorization_law(probe, kind, qubit):
    # neither route uses the law; where C is small, a square root of
    # eigensolver noise would miss it by far more than 1e-12
    # the five values of p as one stack, in the (P, 1, 2, 2) rows that a
    # sweep's route takes: one route call and one reference pass per case
    a, t, clean = probe
    rho = reference.densities(switch.switched_pairs(switch.angle_qubits(a[:DENSITY_PROBE]),
                                                    t[:DENSITY_PROBE]))
    p_values = (0.0, 0.13, 0.5, 0.74, 1.0)
    rows = tuple(e[:, None] for e in ch.make_channel(kind, p_values))
    want = clean * np.array([_choi_concurrence(kind, p) for p in p_values])[:, None]
    route = reference.numeric(MEASURES["concurrence"], a, t, rows, qubit, "e")
    noisy = reference.apply_kraus(rho, reference.lifted_operators(rows, qubit, 2))
    density = reference.concurrences(noisy)
    for j, p in enumerate(p_values):
        assert np.max(np.abs(route[j] - want[j])) <= 1e-12, p
        assert np.max(np.abs(density[j] - want[j, :DENSITY_PROBE])) <= 1e-12, p
        for i in range(0, DENSITY_PROBE, 100):
            single = float(reference.concurrences(reference.checked_density(noisy[j, i])))
            assert abs(single - want[j, i]) <= 1e-12, (p, a[i], t[i])


@pytest.mark.parametrize("name, kind", [("schmidt", None), ("iconcurrence", None)] + [
    ("iconcurrence", kind) for kind in ch.CHANNEL_KINDS
])
def test_determinant_routes_meet_their_closed_forms_on_the_probe(probe, name, kind):
    # both routes read the reduced state's determinant as a sum of
    # nonnegative terms; a route through the purity, or a floor, missed
    # these points by up to 3.2e-7
    a, t, _ = probe
    m = MEASURES[name]
    al, be = np.sin(a), np.cos(a)
    if kind is None:
        route, closed = reference.numeric(m, a, t, None, None, "e"), m.closed(al, be, t, "e")
        assert np.max(np.abs(route - closed)) <= sweep.DEFAULT_TOLERANCE
        return
    for p in (0.0, 0.13, 0.5, 0.74, 1.0):
        route = reference.numeric(m, a, t, ch.make_channel(kind, p), 0, "e")
        closed = m.noisy_closed(kind, p, t, al, be)
        assert np.max(np.abs(route - closed)) <= sweep.DEFAULT_TOLERANCE, p


@pytest.mark.parametrize("qubit", [0, 1])
@pytest.mark.parametrize("kind", ch.CHANNEL_KINDS)
def test_ensemble_routes_match_their_kernels_on_the_noisy_density_matrix(probe, kind, qubit):
    # the routes read the Kraus branches E_k psi; the reference forms
    # sum_k E_k rho E_k^dagger and eigensolves it, or for the entropy its
    # partial trace. The I-concurrence is held by the entropy, which reads
    # the same determinant: from a density matrix alone, a value near 0 is
    # known only to about sqrt(machine eps), so its values cannot be held
    # at 1e-13. The reference runs on the DENSITY_PROBE points, for time,
    # as in the test above
    a, t = probe[0][:DENSITY_PROBE], probe[1][:DENSITY_PROBE]
    rho = reference.densities(switch.switched_pairs(switch.angle_qubits(a), t))
    kernels = {
        "ppt": lambda m: ent.ppt_spectra(m)[:, 0],
        "entropy": lambda m: reference.entropies(reference.partial_traces(m, 2, {1})),
    }
    # one branch, the clean run, reads the ppt as -sqrt(d) with no
    # eigensolve, and is held to the density matrix's below as well
    for p in (None, 0.0, 0.13, 0.5, 0.74, 1.0):
        operators = None if p is None else ch.make_channel(kind, p)
        noisy = rho if p is None else reference.apply_kraus(
            rho, reference.lifted_operators(operators, qubit, 2))
        for name, kernel in kernels.items():
            route = reference.numeric(MEASURES[name], a, t, operators, qubit, "e")
            assert np.max(np.abs(route - kernel(noisy))) <= 1e-13, (name, p)


#: largest |clean ppt route - eigvalsh of the partial transpose| allowed on
#: the probe; the largest seen there is 5.0e-16 (numpy 2.4.6), which the
#: eigensolve's absolute error sets
CLEAN_PPT_EIGVALSH_BOUND = 1e-15


def test_clean_ppt_meets_the_eigvalsh_reference_on_the_probe(probe):
    # the route reads -sqrt(d), which is -I/2 bit for bit; the tests'
    # eigensolve of the partial transposes of |psi><psi| is its
    # independent check, and the closed column meets both
    a, t, _ = probe
    route = reference.numeric(MEASURES["ppt"], a, t, None, None, "e")
    iconcurrence = reference.numeric(MEASURES["iconcurrence"], a, t, None, None, "e")
    assert route.tobytes() == (-0.5 * iconcurrence).tobytes()
    rho = reference.densities(switch.switched_pairs(switch.angle_qubits(a), t))
    eigvalsh = ent.ppt_spectra(rho)[:, 0]
    assert np.max(np.abs(route - eigvalsh)) <= CLEAN_PPT_EIGVALSH_BOUND
    closed = MEASURES["ppt"].closed(np.sin(a), np.cos(a), t, "e")
    assert np.max(np.abs(route - closed)) <= CLEAN_PPT_EIGVALSH_BOUND
    assert np.max(np.abs(eigvalsh - closed)) <= CLEAN_PPT_EIGVALSH_BOUND


#: (channel kind, noise qubit): a clean run, then every kind on each qubit
NOISE_CASES = [(None, None)] + [(kind, qubit) for kind in ch.CHANNEL_KINDS for qubit in (0, 1)]
#: largest |ppt_spectra - reference.eigh(...)[0]| allowed on the probe; the
#: largest seen there is 1.0e-15 (numpy 2.4.6), clean and under every kind
#: on either qubit at p in {0, 0.13, 0.37, 0.5, 0.74, 1}
PPT_EIGH_BOUND = 4e-15


@pytest.mark.parametrize("kind, qubit", NOISE_CASES)
def test_the_ppt_route_eigensolves_exactly_hermitian_partial_transposes(probe, kind, qubit):
    # the route neither checks nor symmetrises its partial transposes, of
    # the density matrices built here as it builds them: the Gram product
    # is Hermitian bit for bit, and an index swap keeps it so
    a, t, _ = probe
    operators = None if kind is None else ch.make_channel(kind, 0.37)
    rho = ent.ensemble_densities(sweep.STATES["pair"](a, t, operators, qubit))
    pt = ent.partial_transposes(rho, 1)
    assert np.all(reference.hermitian_deviation(pt) == 0.0)
    assert np.max(np.abs(ent.ppt_spectra(rho) - reference.eigh(pt)[0])) <= PPT_EIGH_BOUND


@pytest.mark.parametrize("base", ["e", "2"])
def test_entropy_routes_agree_near_separable_points(probe, base):
    # the small eigenvalue is as low as 7e-43 here: a form that cancels,
    # such as (1 - root) / 2, or an eigensolve reads it, and the entropy,
    # as 0
    a, t = probe[0][:NEAR_SEPARABLE], probe[1][:NEAR_SEPARABLE]
    route = reference.numeric(MEASURES["entropy"], a, t, None, None, base)
    closed = MEASURES["entropy"].closed(np.sin(a), np.cos(a), t, base)
    assert np.all(route > 0.0) and np.all(closed > 0.0)
    assert np.max(np.abs(route - closed) / closed) <= 1e-12


def test_clean_iconcurrence_holds_its_tolerance_where_it_is_small():
    # numeric 3.2579e-07 against closed 3.2850e-07: abs_err 2.71e-09
    t = 6.035607994453679
    config = SweepConfig("iconcurrence", a=1.5699664036480403, t_min=t, t_max=t,
                         t_steps=2, compare=True)
    record = run_sweep(config)
    assert record.abs_err[0] <= sweep.DEFAULT_TOLERANCE, (record.value[0], record.value_closed[0])


@pytest.mark.parametrize("name", ["entropy", "iconcurrence"])
def test_noise_on_the_second_qubit_is_invisible_to_entropy_and_iconcurrence(name):
    # both read the first qubit's reduced state, which a channel on the
    # second leaves unchanged; the concurrence does see that noise
    worst = max(
        np.max(diff_sweep(SweepConfig(name, a_steps=9, t_min=-3.0, t_max=6.0, t_steps=51,
                                      channel=ChannelSpec(kind, p, qubit=1))).value)
        for kind in ch.CHANNEL_KINDS
        for p in (0.0, 0.3, 0.74, 1.0)
    )
    assert worst <= sweep.DEFAULT_TOLERANCE


#: p at which each channel is the identity: the flips at p = 1, the
#: damping channels at p = 0
NOISELESS_P = {"PF": 1.0, "BF": 1.0, "AD": 0.0, "PD": 0.0}
#: largest ppt diff allowed at a noiseless p: its noisy half is eigvalsh's
#: least eigenvalue, accurate in absolute terms only, and its clean half
#: -sqrt(d); the largest seen on the 50 x 101 grid is 4.996e-16 (numpy
#: 2.4.6), for every kind on either qubit
NOISELESS_PPT_DIFF = 1e-15


@pytest.mark.parametrize("qubit", [0, 1])
@pytest.mark.parametrize("kind", ch.CHANNEL_KINDS)
def test_a_noiseless_ppt_diff_reads_the_rounding_of_the_eigensolve(kind, qubit):
    # the two halves of a ppt diff take two routes, so where the channel
    # does nothing the diff is not exactly 0
    config = SweepConfig("ppt", a_steps=50, t_steps=101,
                         channel=ChannelSpec(kind, NOISELESS_P[kind], qubit))
    assert np.max(diff_sweep(config).value) <= NOISELESS_PPT_DIFF


@pytest.mark.parametrize("qubit", [0, 1])
@pytest.mark.parametrize("kind", ch.CHANNEL_KINDS)
def test_noisy_routes_keep_their_digits_where_squares_underflow(kind, qubit):
    # a = pi/2 and t near 1e-140: the concurrence is about 7.5e-173, whose
    # square underflows. A noiseless channel leaves the pair's two branches
    # psi and 0, so the noisy I-concurrence and concurrence are the clean
    # concurrence, 2 |minor|, and must not read 0
    grid = dict(a=math.pi / 2, t_min=1e-140, t_max=2e-140, t_steps=2)
    clean = run_sweep(SweepConfig("concurrence", **grid)).value
    assert np.all(clean > 7e-173)
    spec = ChannelSpec(kind, NOISELESS_P[kind], qubit)
    for name in ("iconcurrence", "concurrence"):
        noisy = run_sweep(SweepConfig(name, **grid, channel=spec)).value
        assert np.max(np.abs(noisy - clean) / clean) <= 4 * np.finfo(float).eps, name


# ------------------------- closed forms against their point-by-point code
# The reference below is the scalar ``math`` code of each closed form (for
# the Schmidt coefficient and the I-concurrence, of the factored forms),
# and the loop that called it once per grid point. The closed forms are
# numpy code, whose log may differ from math.log in the last bit, so every
# closed column, and every scalar call, is held within 1e-15 of it; a
# closed column keeps the bits of the package's own scalar calls.

def _ref_reduced_qubit(alpha0, beta0, t):
    x, y = abs(alpha0) ** 2, abs(beta0) ** 2
    q = abs(math.sin(t) * beta0) * abs(math.cos(t) * beta0)
    return q * q, math.sqrt(x**2 + 2 * x * y + y**2 * math.cos(2 * t) ** 2)


def _ref_reduced_eigenvalues(alpha0, beta0, t):
    d, r = _ref_reduced_qubit(alpha0, beta0, t)
    return 2.0 * d / (1.0 + r), (1.0 + r) / 2.0


def _ref_schmidt(alpha0, beta0, t):
    return tuple(map(math.sqrt, _ref_reduced_eigenvalues(alpha0, beta0, t)))


def _ref_ppt(alpha0, beta0, t):
    return -math.sqrt(_ref_reduced_qubit(alpha0, beta0, t)[0])


def _ref_fidelity(alpha0, beta0, t):
    return abs(abs(alpha0) ** 2 + math.sin(t) * abs(beta0) ** 2)


def _ref_concurrence(beta0, t):
    return abs(beta0**2 * math.sin(2 * t))


def _ref_iconcurrence(alpha0, beta0, t):
    return 2.0 * abs(math.sin(t) * beta0) * abs(math.cos(t) * beta0)


def _ref_noisy_determinant(kind, p, t, alpha0, beta0):
    c = math.cos(t)
    a, sb, cb = abs(alpha0), abs(math.sin(t) * beta0), abs(c * beta0)
    x, s, u = a * a, sb * sb, cb * cb
    if kind == "PF":
        return u * (s + 4.0 * p * (1.0 - p) * x)
    if kind == "BF":
        r_y = 2.0 * (alpha0 * c * complex(beta0).conjugate()).imag
        r_z = x + s - u
        return s * u + p * (1.0 - p) * (r_y * r_y + r_z * r_z)
    if kind == "AD":
        return (1.0 - p) * u * (s + p * u)
    return u * (s + p * x)


def _ref_iconcurrence_noisy(kind, p, t, alpha0, beta0):
    return 2.0 * math.sqrt(_ref_noisy_determinant(kind, p, t, alpha0, beta0))


def _ref_entropy(alpha0, beta0, t, log_base):
    total = 0.0
    for lam in _ref_reduced_eigenvalues(alpha0, beta0, t):
        if lam > 0.0:
            total -= lam * math.log(lam)
    return total * (1.0 if log_base == "e" else 1.0 / math.log(2.0))


def _ref_average_fidelity(kind, p, t):
    c3 = math.cos(t) + 3.0
    if kind in ("PF", "BF"):
        return (p * c3**2 + 2.0) / 18.0
    if kind == "AD":
        return (abs((math.sqrt(1.0 - p) + 1.0) * c3) ** 2 + 8.0) / 72.0
    return (abs((math.sqrt(1.0 - p) + 1.0) * c3) ** 2 + abs(p * c3**2) + 8.0) / 72.0


# The paper's literal forms of the Schmidt coefficient and the
# I-concurrence, each returning (value, radicand). Their rounded squares
# cancel where the radicand is small, so they are held against the
# factored forms only where it is not.

def _literal_schmidt(beta0, t):
    inner = math.sqrt(max(0.0, 1.0 - abs(beta0) ** 4 * math.sin(2 * t) ** 2))
    return math.sqrt(max(0.0, 1.0 - inner)) / math.sqrt(2.0), 1.0 - inner


def _literal_iconcurrence(alpha0, beta0, t):
    x = abs(alpha0) ** 2
    sb = abs(math.sin(t) * beta0) ** 2
    cab = abs(math.cos(t) * alpha0 * beta0) ** 2
    cb = abs(math.cos(t) * beta0) ** 2
    radicand = 2.0 * (-((x + sb) ** 2) - 2 * cab - cb**2 + 1.0)
    return math.sqrt(max(0.0, radicand)), radicand


def _literal_iconcurrence_noisy(kind, p, t, alpha0, beta0):
    a, b = complex(alpha0), complex(beta0)
    x = abs(a) ** 2
    sb = abs(math.sin(t) * b) ** 2
    cb = abs(math.cos(t) * b) ** 2
    if kind == "PF":
        radicand = 2.0 - 4.0 * (1.0 - 2.0 * p) ** 2 * x * cb - 2.0 * (x + sb) ** 2 - 2.0 * cb**2
    elif kind == "BF":
        c = math.cos(t)
        f1 = a * p * (c * b).conjugate() - b * (p - 1.0) * a.conjugate() * c
        f2 = b * p * a.conjugate() * c - a * (p - 1.0) * (c * b).conjugate()
        radicand = (
            2.0
            - 2.0 * (p * cb - (p - 1.0) * (x + sb)) ** 2
            - 2.0 * ((p - 1.0) * cb - p * (x + sb)) ** 2
            - 4.0 * (f1 * f2).real
        )
    elif kind == "AD":
        radicand = (
            2.0 + 4.0 * (p - 1.0) * x * cb - 2.0 * (x + p * cb + sb) ** 2
            - 2.0 * (p - 1.0) ** 2 * cb**2
        )
    else:
        radicand = 2.0 + 4.0 * (p - 1.0) * x * cb - 2.0 * (x + sb) ** 2 - 2.0 * cb**2
    return math.sqrt(max(0.0, radicand)), radicand


def test_factored_forms_are_the_literal_forms_where_these_do_not_cancel():
    # real amplitudes and sin a, e^{i phi} cos a, every channel at each point
    rng = np.random.default_rng(1935)
    n = 1_000
    a = rng.uniform(-math.pi, math.pi, n).tolist()
    t = rng.uniform(-math.pi, 2 * math.pi, n).tolist()
    phi = rng.uniform(-math.pi, math.pi, n).tolist()
    p = rng.choice([0.0, 0.13, 0.5, 1.0, *rng.uniform(0.0, 1.0, 4)], n).tolist()
    held = 0
    for i in range(n):
        al = math.sin(a[i])
        for be in (math.cos(a[i]), cmath.rect(math.cos(a[i]), phi[i])):
            pairs = [(MEASURES["schmidt"].closed(al, be, t[i], "e"), _literal_schmidt(be, t[i])),
                     (MEASURES["iconcurrence"].closed(al, be, t[i], "e"),
                      _literal_iconcurrence(al, be, t[i]))]
            pairs += [(MEASURES["iconcurrence"].noisy_closed(kind, p[i], t[i], al, be),
                       _literal_iconcurrence_noisy(kind, p[i], t[i], al, be))
                      for kind in ch.CHANNEL_KINDS]
            for got, (want, radicand) in pairs:
                if radicand > 1e-6:
                    assert abs(got - want) <= 1e-12, (a[i], t[i], phi[i], p[i])
                    held += 1
    assert held >= 0.9 * 12 * n


#: measure -> the reference value at one point (sin a, cos a, t, config)
REFERENCE_POINT = {
    "schmidt": lambda al, be, t, c: _ref_schmidt(al, be, t)[0],
    "ppt": lambda al, be, t, c: _ref_ppt(al, be, t),
    "concurrence": lambda al, be, t, c: _ref_concurrence(be, t),
    "iconcurrence": lambda al, be, t, c: (
        _ref_iconcurrence(al, be, t) if c.channel is None
        else _ref_iconcurrence_noisy(c.channel.kind, c.channel.p, t, al, be)
    ),
    "entropy": lambda al, be, t, c: _ref_entropy(al, be, t, c.log_base),
    "fidelity": lambda al, be, t, c: _ref_fidelity(al, be, t),
    "avg_fidelity": lambda al, be, t, c: _ref_average_fidelity(c.channel.kind, c.channel.p, t),
}


def _reference_column(config, point):
    """point(sin a, cos a, t) at every grid point, a outer, t fastest."""
    ts = config.t_values().tolist()
    column = []
    for a in config.a_values().tolist():
        alpha0, beta0 = math.sin(a), math.cos(a)
        column += [point(alpha0, beta0, t) for t in ts]
    return np.array(column, dtype=float)


#: the default 50 x 101 surface, then single values of a across [-pi, pi],
#: beside pi/2 (beta0 near 0) and at -1e-320 (sin a a signed subnormal),
#: each over t in [-3, 6]
GRIDS = [dict(a_steps=50, t_steps=101)] + [
    dict(a=a, t_min=-3.0, t_max=6.0, t_steps=101)
    for a in [*np.linspace(-math.pi, math.pi, 9).tolist(),
              math.pi / 2 - 1e-4, math.pi / 2 + 1e-4, -1e-320]
]
CLOSED_RUNS = [
    (name, None, base) for name, m in MEASURES.items() if m.closed is not None
    for base in ("e", "2")
] + [
    (name, (kind, p), "e") for name, m in MEASURES.items() if m.noisy_closed is not None
    for kind in ch.CHANNEL_KINDS for p in (0.0, 0.13, 0.25, 0.5, 0.74, 1.0)
]


@pytest.mark.parametrize(
    "name, noise, base", CLOSED_RUNS,
    ids=[f"{n}-{b}" if c is None else f"{n}[{c[0]}, {c[1]}]" for n, c, b in CLOSED_RUNS],
)
def test_closed_column_is_the_point_by_point_loop_bit_for_bit(name, noise, base):
    # tobytes tells -0.0 from 0.0 (ppt prints -0 at t = 0) and sees a last
    # bit; the math reference differs by at most 5.6e-17 (entropy's log)
    channel = None if noise is None else ChannelSpec(*noise)
    for grid in GRIDS:
        config = SweepConfig(name, channel=channel, log_base=base, compare=True, **grid)
        [(_, column)] = sweep._columns([config])
        # the sweep's noisy closed form reads p as a (1, 1, 1) column; the
        # single-point call takes it as a float
        if noise is None:
            closed = lambda al, be, t: MEASURES[name].closed(al, be, t, base)
        else:
            closed = lambda al, be, t: MEASURES[name].noisy_closed(*noise, t, al, be)
        points = _reference_column(config, closed)
        assert column.dtype == points.dtype and column.shape == points.shape
        assert column.tobytes() == points.tobytes(), grid
        point = REFERENCE_POINT[name]
        reference = _reference_column(config, lambda al, be, t: point(al, be, t, config))
        assert np.max(np.abs(column - reference)) <= 1e-15, grid


def _scalar_calls(al, be, t, kind, p):
    """(label, the package's value, the reference value) of every scalar
    closed-form entry point at one point."""
    yield "reduced_qubit", ent.reduced_qubit_closed(al, be, t), _ref_reduced_qubit(al, be, t)
    yield ("noisy_determinant", ent.noisy_determinant_closed(kind, p, t, al, be),
           _ref_noisy_determinant(kind, p, t, al, be))
    yield "schmidt", MEASURES["schmidt"].closed(al, be, t, "e"), _ref_schmidt(al, be, t)[0]
    yield "ppt", MEASURES["ppt"].closed(al, be, t, "e"), _ref_ppt(al, be, t)
    yield "fidelity", ent.fidelity_closed(al, be, t), _ref_fidelity(al, be, t)
    yield "concurrence", ent.concurrence_closed(be, t), _ref_concurrence(be, t)
    yield ("iconcurrence", MEASURES["iconcurrence"].closed(al, be, t, "e"),
           _ref_iconcurrence(al, be, t))
    yield ("iconcurrence_noisy", MEASURES["iconcurrence"].noisy_closed(kind, p, t, al, be),
           _ref_iconcurrence_noisy(kind, p, t, al, be))
    yield ("eigenvalues", ent._reduced_spectrum(*ent.reduced_qubit_closed(al, be, t)),
           _ref_reduced_eigenvalues(al, be, t))
    for base in ("e", "2"):
        yield ("entropy", MEASURES["entropy"].closed(al, be, t, base),
               _ref_entropy(al, be, t, base))
    yield ("average_fidelity", ch.average_fidelity_closed(kind, p, t),
           _ref_average_fidelity(kind, p, t))


def test_scalar_closed_forms_return_the_point_by_point_floats():
    # floats (np.float64, or a tuple of them), never a 0-d
    # array, within 1e-15 of the reference, for real amplitudes and for
    # sin a, e^{i phi} cos a
    rng = np.random.default_rng(2017)
    n = 2_000
    a = rng.uniform(-math.pi, math.pi, n).tolist()
    t = rng.uniform(-3.0, 6.0, n).tolist()
    phi = rng.uniform(-math.pi, math.pi, n).tolist()
    p = rng.choice([0.0, 0.13, 0.5, 1.0, *rng.uniform(0.0, 1.0, 4)], n).tolist()
    kinds = rng.choice(ch.CHANNEL_KINDS, n).tolist()
    for i in range(n):
        for beta0 in (math.cos(a[i]), cmath.rect(math.cos(a[i]), phi[i])):
            for label, got, want in _scalar_calls(math.sin(a[i]), beta0, t[i], kinds[i], p[i]):
                if isinstance(want, tuple):
                    assert type(got) is type(want) and len(got) == len(want), label
                else:
                    got, want = (got,), (want,)
                # a 0-d array is no float
                assert all(isinstance(v, float) for v in got), (label, got)
                err = max(abs(v - w) for v, w in zip(got, want))
                assert err <= 1e-15, (label, a[i], t[i], phi[i], err)


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
    "measure", [reference.concurrences, reference.iconcurrences, reference.entropies],
    ids=["concurrence", "iconcurrence", "entropy"],
)
def test_measures_of_a_corrupted_matrix_fail_the_density_check(measure, corruption):
    # the reference measures take a matrix that checked_density passed,
    # the check the stacked stages after it do not repeat
    m = _RHO.copy()
    for entry, value in CORRUPTIONS[corruption]:
        m[entry] = value
    with pytest.raises(ValueError, match=corruption):
        measure(reference.checked_density(m))
    assert measure(reference.checked_density(_RHO)) >= 0.0


@pytest.mark.parametrize("off, fails", [(2.0, True), (0.5, False)])
def test_entropies_check_positivity_as_a_density_matrix_does(off, fails):
    # the positivity check of the stages before a measure comes from the
    # measure's own eigensolve; it must still see every matrix of a stack
    rho = np.stack([_RHO] * 7)
    low = off * reference.PSD_EIGENVALUE_FLOOR
    rho[3] = np.diag([0.4 - low, 0.3, 0.3, low])
    if fails:
        with pytest.raises(ValueError) as stacked:
            reference.entropies(rho)
        with pytest.raises(ValueError) as single:
            reference.checked_density(rho[3])
        assert str(stacked.value) == str(single.value)
    else:
        assert np.all(reference.entropies(rho) > 0.0)


# ------------------------------------ checks that hold by construction

def _counting(monkeypatch, module, attr, calls):
    original = getattr(module, attr)

    def counted(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)


def test_sweeps_make_no_density_check_and_no_eigh_and_eigvalsh_only_for_the_noisy_ppt(
    monkeypatch,
):
    # the matrices a sweep builds are density matrices by construction, and
    # the one eigensolve of any route is the noisy ppt's, for eigenvalues
    # alone: one np.linalg.eigvalsh per block of that route, and none
    # elsewhere. A clean run makes none, the clean half of a diff and the
    # clean ppt, -sqrt(d), among them, and so does verify; the package
    # holds no density-matrix check, only the tests' reference
    calls = []
    _counting(monkeypatch, reference, "checked_density", calls)
    _counting(monkeypatch, reference, "eigh", calls)
    _counting(monkeypatch, np.linalg, "eigh", calls)
    _counting(monkeypatch, np.linalg, "eigvalsh", calls)
    noise = ChannelSpec("PF", 0.3)
    grid = dict(a_steps=3, t_steps=5)
    blocks = 6  # 3 rows of 5 times, in pieces of 4 and 1 to a block below
    with monkeypatch.context() as small:
        small.setattr(sweep, "BLOCK_POINTS", 4)
        for name, m in MEASURES.items():
            runs = [] if m.gate else [(run_sweep, SweepConfig(name, **grid, compare=True), 0)]
            if m.mixed or m.gate:
                noisy = SweepConfig(name, **grid, channel=noise, compare=True)
                want = blocks if name == "ppt" else 0
                runs += [(run_sweep, noisy, want)]
                runs += [(diff_sweep, noisy, want)] if m.mixed else []  # the noisy half's
            for run, config, want in runs:
                calls.clear()
                run(config)
                assert calls == ["eigvalsh"] * want, (run.__name__, name, config.channel)
    calls.clear()
    assert all(check.passed for check in sweep.verify(**grid))
    assert all(check.passed for check in sweep.verify())  # the default battery
    assert calls == []
    calls.clear()
    reference.checked_density(_RHO)
    assert calls == ["checked_density", "eigvalsh"]


def test_only_the_gate_route_builds_the_switch_unitary(monkeypatch):
    # the pair and fidelity routes rotate the two amplitudes the switch
    # moves; only the average fidelity needs the full U(t)
    calls = []
    _counting(monkeypatch, switch, "switch_unitaries", calls)
    for name, m in MEASURES.items():
        if not m.gate:
            run_sweep(SweepConfig(name, a_steps=3, t_steps=5, compare=True))
        for spec in [ChannelSpec(kind, 0.3) for kind in ch.CHANNEL_KINDS] if m.mixed else ():
            config = SweepConfig(name, a_steps=3, t_steps=5, channel=spec, compare=True)
            run_sweep(config)
            diff_sweep(config)
    assert calls == []
    run_sweep(SweepConfig("avg_fidelity", a_steps=3, t_steps=5, channel=ChannelSpec("PD", 0.3)))
    assert calls


def test_the_switched_pair_is_the_control_one_half_of_the_evolved_register(probe):
    # the control stays |1> exactly, so the pair carries all of the mass
    # and is the odd half of the full evolution by the 8 x 8 unitary
    a, t, _ = probe
    regs = switch.registers(switch.angle_qubits(a))
    assert np.all(switch.evolved(regs, t)[..., 0::2] == 0)
    pairs = switch.switched_pairs(switch.angle_qubits(a), t)
    full = (switch.switch_unitaries(t) @ regs[..., None])[..., 0]
    assert np.all(full[..., 0::2] == 0)
    assert np.max(np.abs(pairs - full[..., 1::2])) <= 1e-15
    norm_sq = np.sum(np.abs(pairs) ** 2, axis=-1)
    assert np.max(np.abs(norm_sq - 1.0)) <= 4 * np.finfo(float).eps


def test_sweeps_diffs_and_verify_apply_no_channel_to_a_density_matrix(monkeypatch):
    # the pair routes read the Kraus branches E_k psi, each operator on its
    # qubit's axis; sum_k E_k rho E_k^dagger, and the operators lifted by
    # np.kron, are formed by the tests' references alone
    calls = []
    _counting(monkeypatch, reference, "apply_kraus", calls)
    _counting(monkeypatch, np, "kron", calls)
    noisy = [ChannelSpec(kind, 0.3, qubit) for kind in ch.CHANNEL_KINDS for qubit in (0, 1)]
    for name, m in MEASURES.items():
        for spec in noisy if m.mixed or m.gate else ():
            config = SweepConfig(name, a_steps=3, t_steps=5, channel=spec, compare=True)
            run_sweep(config)
            if m.mixed:
                diff_sweep(config)
    assert all(check.passed for check in sweep.verify(a_steps=3, t_steps=3))
    assert calls == []
    reference.apply_kraus(reference.checked_density(_RHO),
                          reference.lifted_operators(ch.make_channel("AD", 0.3), 0, 2))
    assert calls == ["kron"] * 4 + ["apply_kraus"]


def test_concurrence_makes_no_eigensolve_in_a_sweep_and_one_on_a_density_matrix(monkeypatch):
    # a sweep reads the pair's Kraus branches, so neither a density matrix
    # nor its spectrum is formed, and the two branches' gap takes no SVD; a
    # density matrix is eigensolved once, and the SVD of its K = 4 tau read
    calls = []
    for attr in ("eigh", "eigvalsh", "svd"):
        _counting(monkeypatch, np.linalg, attr, calls)
    noisy = [ChannelSpec(kind, 0.3, qubit) for kind in ch.CHANNEL_KINDS for qubit in (0, 1)]
    run_sweep(SweepConfig("concurrence", a_steps=3, t_steps=5, compare=True))
    for spec in noisy:
        config = SweepConfig("concurrence", a_steps=3, t_steps=5, channel=spec, compare=True)
        run_sweep(config)
        diff_sweep(config)
    assert calls == []
    rho = reference.checked_density(_RHO)
    calls.clear()
    reference.concurrences(rho)
    assert calls == ["eigh", "svd"]


def test_determinant_routes_make_no_eigensolve_in_a_sweep_and_one_on_a_density_matrix(
    monkeypatch,
):
    # the Schmidt, I-concurrence and entropy routes read the reduced
    # state's determinant from its minors; a density matrix is eigensolved
    # once
    calls = []
    for attr in ("eigh", "eigvalsh", "svd"):
        _counting(monkeypatch, np.linalg, attr, calls)
    for name in ("schmidt", "iconcurrence", "entropy"):
        run_sweep(SweepConfig(name, a_steps=3, t_steps=5, compare=True))
    for name in ("iconcurrence", "entropy"):
        for kind in ch.CHANNEL_KINDS:
            for qubit in (0, 1):
                config = SweepConfig(name, a_steps=3, t_steps=5,
                                     channel=ChannelSpec(kind, 0.3, qubit), compare=True)
                run_sweep(config)
                diff_sweep(config)
    ent.least_schmidt_coefficients(switch.switched_pairs(switch.angle_qubits(0.4), 0.3)[..., None])
    assert calls == []
    rho = reference.checked_density(_RHO)
    for measure in (reference.iconcurrences, reference.entropies):
        calls.clear()
        measure(rho)
        assert calls == ["eigh"], measure
