import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qwalk.detection import (
    _BLOCK,
    APD_NAMES,
    ClickCalculator,
    WalkInputs,
    _checked,
    _p0_excess,
    scan_patterns,
)
from qwalk.errors import (
    DuplicateGateBin,
    EtaOutOfRange,
    IndexOutOfRange,
    NumericalInstability,
    ZeroHeraldRate,
)
from qwalk.experiments import (
    _HOM_ARMS,
    _SCANS,
    ExperimentSpec,
    _gate_point,
    _hom_clicks,
    _sources,
    _Stage,
    _stage,
)
from qwalk.fock import ThresholdOracle
from qwalk.gaussian import SourceSpec, prepare, symplectic_from_unitary
from qwalk.modes import ModeIndex, Pol, flat_index
from qwalk.walk import LayerParams, WalkConfig

H1 = ModeIndex(Pol.H, 1, 0)
V1 = ModeIndex(Pol.V, 1, 0)


def routed(sources, slots=(0, 0), bins=1, efficiency=0.97):
    """The dense route's ClickCalculator at one gate point behind a walk of
    no steps, so the sources reach the gates as they are."""
    stage = _Stage(WalkConfig(0, (), bins), tuple(sources), 1.0, 1.0)
    return _gate_point(stage, slots, efficiency)[0]


def mean_photons(calc):
    """Expected photon number per mode of the calculator's state."""
    return 0.5 * (np.diag(calc.cov) + calc.mean**2).reshape(-1, 2).sum(axis=1) - 0.5


def test_coherent_no_click_probability():
    # exp(-0.1)
    state = prepare((SourceSpec("coherent", H1, 0.1),), bins=1)
    i = flat_index(H1, state.bins)
    calc = ClickCalculator(state.mean, state.cov, {"APD1": {i}})
    assert calc.no_click({i}) == pytest.approx(0.9048374180359595, abs=1e-14)


def test_thermal_no_click_probability():
    # the unheralded TMSV signal is thermal: 1/(1 + mu)
    state = prepare((SourceSpec("tmsv", H1, 0.026),), bins=1)
    i = flat_index(H1, state.bins)
    calc = ClickCalculator(state.mean, state.cov, {"APD1": {i}})
    assert calc.no_click({i}) == pytest.approx(1.0 / 1.026, abs=1e-14)


def test_no_click_on_empty_set_is_one():
    state = prepare((SourceSpec("coherent", H1, 0.5),), bins=1)
    assert ClickCalculator(state.mean, state.cov, {"APD1": ()}).no_click(()) == 1.0


def test_tmsv_herald_rate():
    # 1 - 1/(1 + mu) = mu/(1 + mu)
    calc = routed((SourceSpec("tmsv", H1, 0.026),))
    assert calc.herald_rate() == pytest.approx(0.025341130604288498, abs=1e-15)


def test_herald_needs_an_idler():
    with pytest.raises(ZeroHeraldRate):
        routed((SourceSpec("coherent", H1, 0.1),)).herald_rate()


def full_patterns(plan=APD_NAMES):
    """Every fully specified query of `plan`: (clicked, silent) names."""
    for bits in itertools.product((False, True), repeat=len(plan)):
        yield tuple(itertools.compress(plan, bits)), tuple(n for n, b in zip(plan, bits) if not b)


def test_pattern_space_is_complete():
    sources = (SourceSpec("tmsv", H1, 0.026), SourceSpec("coherent", V1, 0.3, overlap=0.7))
    calc = routed(sources, (1, 2), bins=2)
    total = sum(calc.pattern(*p) for p in full_patterns())
    assert total == pytest.approx(1.0, abs=1e-12)


def test_marginal_equals_sum_over_outcomes():
    sources = (SourceSpec("tmsv", H1, 0.026), SourceSpec("coherent", V1, 0.3, overlap=0.7))
    calc = routed(sources, (1, 2), bins=2)
    for name in APD_NAMES:
        base = ("APD4",) if name == "APD3" else ("APD3",)
        assert calc.pattern(base) == pytest.approx(
            calc.pattern(base + (name,)) + calc.pattern(base, (name,)), abs=1e-12
        )


def test_heralded_is_joint_over_herald_rate():
    sources = (SourceSpec("tmsv", H1, 0.026), SourceSpec("coherent", V1, 0.1))
    calc = routed(sources, (0, 1), bins=2)
    want = ("APD4",)
    joint = calc.pattern(("APD1",) + want)
    assert calc.heralded(want) == pytest.approx(
        joint / calc.herald_rate(), rel=1e-12
    )


def test_heralded_rejects_patterns_that_pin_the_idler():
    calc = routed((SourceSpec("tmsv", H1, 0.026),))
    with pytest.raises(IndexOutOfRange):
        calc.heralded(("APD1",))


def test_gate_splits_photon_flux():
    # eta_K of the tapped light routes out, the rest stays on the walk mode
    calc = routed((SourceSpec("coherent", H1, 0.5),), (1, 0), efficiency=0.97)
    photons = mean_photons(calc)
    assert sum(photons[i] for i in calc.detectors["APD3"]) == pytest.approx(
        0.97 * 0.5, abs=1e-13
    )
    assert photons[flat_index(H1, 1)] == pytest.approx(0.03 * 0.5, abs=1e-13)


def test_duplicate_gate_bins_rejected():
    with pytest.raises(DuplicateGateBin):
        routed((SourceSpec("coherent", H1, 0.1),), (2, 2), bins=2)


def test_disabled_gate_is_skipped():
    calc = routed((SourceSpec("coherent", H1, 0.1),), (0, 1), bins=2)
    assert calc.detectors["APD3"] == frozenset()
    assert len(calc.detectors["APD4"]) == 2


def test_pattern_on_empty_detector_is_zero():
    calc = routed((SourceSpec("coherent", H1, 0.1),))
    assert calc.pattern(("APD3",)) == 0.0
    assert calc.pattern((), ("APD3",)) == pytest.approx(1.0)


def test_probability_depends_on_mode_set_not_order():
    state = prepare(
        (SourceSpec("coherent", H1, 0.4), SourceSpec("coherent", V1, 0.2)),
        bins=1,
    )
    a, b = flat_index(H1, state.bins), flat_index(V1, state.bins)
    fwd = ClickCalculator(state.mean, state.cov, {"APD1": {a}, "APD2": {b}})
    rev = ClickCalculator(state.mean, state.cov, {"APD1": {b}, "APD2": {a}})
    p_fwd = fwd.pattern(("APD1",), ("APD2",))
    p_rev = rev.pattern(("APD2",), ("APD1",))
    assert p_fwd == pytest.approx(p_rev, rel=1e-13)


def test_swapping_gate_bins_swaps_the_routing_detectors():
    sources = (SourceSpec("tmsv", H1, 0.026), SourceSpec("coherent", V1, 0.3))
    calc12 = routed(sources, (1, 2), bins=2)
    calc21 = routed(sources, (2, 1), bins=2)
    coincidence = ("APD3", "APD4")
    assert calc12.pattern(coincidence) == pytest.approx(
        calc21.pattern(coincidence), rel=1e-12
    )
    only3 = ("APD3",), ("APD4",)
    only4 = ("APD4",), ("APD3",)
    assert calc12.pattern(*only3) == pytest.approx(calc21.pattern(*only4), rel=1e-12)


def test_single_photon_splits_at_a_balanced_coupler():
    # one photon into a 50:50 splitter clicks each side half the time; the
    # splitter leaves the vacuum state as it is
    u = np.eye(4, dtype=complex)
    u[np.ix_((0, 2), (0, 2))] = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    s = symplectic_from_unitary(u)
    injection = s[:, [0, 1]]  # unit x and p probes entering mode 0
    calc = ClickCalculator(np.zeros(8), 0.5 * np.eye(8), {"APD1": {0}, "APD2": {2}})
    p_a = calc.single_photon(("APD1",), injection)
    p_b = calc.single_photon(("APD2",), injection)
    p_none = calc.single_photon((), injection, ("APD1", "APD2"))
    p_both = calc.single_photon(("APD1", "APD2"), injection)
    assert p_a == pytest.approx(0.5, abs=1e-12)
    assert p_b == pytest.approx(0.5, abs=1e-12)
    assert p_none == pytest.approx(0.0, abs=1e-12)
    assert p_both == pytest.approx(0.0, abs=1e-12)


def test_single_photon_into_a_watched_mode_always_clicks():
    injection = np.zeros((8, 2))
    injection[0, 0] = 1.0
    injection[1, 1] = 1.0
    calc = ClickCalculator(np.zeros(8), 0.5 * np.eye(8), {"APD1": {0}})
    assert calc.single_photon(("APD1",), injection) == pytest.approx(1.0, abs=1e-12)


# -- batched scans: one stacked pass -------------------------------------------


def per_union_scan(inputs, slots, efficiency, clicked, heralded):
    """scan_patterns as one pass per detector union, each union's sums built
    gate by gate, for a gate efficiency below 1 (so only gates can be dark)."""
    bins = len(inputs.signal) // 2
    u, beta = inputs.signal[:bins], inputs.coherent[:bins]
    z = np.sqrt(inputs.overlap) * u.conj() * beta
    per_bin = (u.real**2 + u.imag**2, z, beta.real**2 + beta.imag**2)
    sums = [(x.sum(), *(efficiency * np.concatenate(([0.0], x)))[slots.T]) for x in per_bin]
    clicked, rate = tuple(clicked), 1.0
    if heralded:
        clicked, rate = ("APD1",) + clicked, -float(_p0_excess(inputs, 0.0, 0j, 0.0, inputs.idler))
    joint = np.zeros(len(slots))
    for r in range(1, len(clicked) + 1):
        for subset in itertools.combinations(clicked, r):
            union = []
            for total, *shares in sums:
                out = total if "APD2" in subset else 0.0
                for share, gate in zip(shares, ("APD3", "APD4")):
                    if ("APD2" in subset) != (gate in subset):
                        out = out - share if "APD2" in subset else out + share
                union.append(out)
            h = inputs.idler if "APD1" in subset else 0.0
            joint += (-1.0) ** r * _p0_excess(inputs, *union, h)
    dark = np.concatenate(([True], (per_bin[0] == 0.0) & (per_bin[2] == 0.0)))  # 0: no gate
    for k, gate in enumerate(("APD3", "APD4")):
        if gate in clicked:
            joint[dark[slots[:, k]]] = 0.0
    return np.clip(joint, 0.0, 1.0) / rate


@pytest.mark.parametrize("n_steps", [25, 200], ids=["N25", "N200-blocks"])
@pytest.mark.parametrize("kind", ["one-fold", "two-fold", "three-fold"])
@pytest.mark.parametrize(
    "herald",
    [
        dict(heralded=True),
        dict(heralded=False),
        dict(heralded=True, ideal_herald=True),
        dict(heralded=True, pair_source="squashed"),
        dict(heralded=False, pair_source="squashed"),
    ],
    ids=["heralded", "unheralded", "ideal-herald", "squashed", "squashed-unheralded"],
)
def test_stacked_scan_matches_the_per_union_loop(n_steps, kind, herald):
    rng = np.random.default_rng(n_steps)
    layers = tuple(
        LayerParams(omega=rng.uniform(0.1, np.pi - 0.1), gamma=rng.uniform(0, 2 * np.pi))
        for _ in range(n_steps)
    )
    spec = ExperimentSpec(
        walk=WalkConfig(n_steps, layers), kind=kind, mu_alpha=0.24, mu_xi=0.026,
        overlap=0.897461, eta_kerr=0.97, **herald,
    )
    inputs, scan = _stage(spec).inputs, _SCANS[kind]
    slots = scan.slots(scan.labels(n_steps))
    assert kind == "one-fold" or n_steps < 100 or len(slots) > 3 * _BLOCK  # pairs span blocks
    heralded = spec.heralded and not spec.ideal_herald
    args = (inputs, slots, spec.eta_kerr, scan.clicked, heralded)
    assert np.array_equal(scan_patterns(*args), per_union_scan(*args))


def per_union_hom(inputs, overlaps, clicked):
    """_hom_clicks as one pass per detector union, its sums added arm by arm
    and z scaled by sqrt(overlap) last."""
    bins = len(inputs.signal) // 2
    own = {}
    for name, mode in _HOM_ARMS.items():
        u, beta = inputs.signal[flat_index(mode, bins)], inputs.coherent[flat_index(mode, bins)]
        own[name] = (u.real**2 + u.imag**2, u.conj() * beta, beta.real**2 + beta.imag**2)
    root = np.sqrt(np.asarray(overlaps))
    joint = np.zeros(len(root))
    for r in range(1, len(clicked) + 1):
        for subset in itertools.combinations(clicked, r):
            a, z, e = (sum(own[d][k] for d in subset if d in own) for k in range(3))
            h = inputs.idler if "APD1" in subset else 0.0
            joint += (-1.0) ** r * _p0_excess(inputs, a, z * root, e, h)
    dark = any(d == "APD3" or d in own and not (own[d][0] or own[d][2]) for d in clicked)
    return np.zeros(len(root)) if dark else np.clip(joint, 0.0, 1.0)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("pair_source", ["tmsv", "squashed"])
@pytest.mark.parametrize(
    "clicked", [("APD2", "APD4"), ("APD1", "APD2", "APD4"), ("APD1", "APD2", "APD3", "APD4")]
)
def test_stacked_hom_matches_the_per_union_loop(seed, pair_source, clicked):
    # both arms in one union: its row (1, 1) over the arms
    rng = np.random.default_rng(seed)
    layer = LayerParams(
        omega=rng.uniform(0.1, np.pi - 0.1), gamma=rng.uniform(0, 2 * np.pi),
        transmission=rng.uniform(0.5, 1.0),
    )
    spec = ExperimentSpec(
        walk=WalkConfig(1, (layer,)), kind="hom", mu_alpha=rng.uniform(0.05, 0.5), mu_xi=0.026,
        eta_idler=rng.uniform(0.5, 1.0), pair_source=pair_source,
    )
    inputs = _stage(spec).inputs
    overlaps = (0.0, 0.25, 0.5, 0.897461, 1.0)
    assert np.array_equal(_hom_clicks(inputs, overlaps, clicked), per_union_hom(inputs, overlaps, clicked))


@given(
    source=st.sampled_from(["tmsv", "squashed", "fock1", None]),
    mu=st.floats(min_value=0.0, max_value=1e15),
    a=st.floats(min_value=0.0, max_value=1.0),
    h=st.floats(min_value=0.0, max_value=1.0),
    e=st.floats(min_value=0.0, max_value=50.0),
    share=st.floats(min_value=0.0, max_value=1.0),
    phase=st.floats(min_value=0.0, max_value=2 * np.pi),
)
@settings(max_examples=300, deadline=None)
def test_closed_form_p0_is_a_probability_for_every_mu(source, mu, a, h, e, share, phase):
    # a pair's 1 + delta is >= 1 for every mu >= 0, so the closed form needs
    # no covariance refusal: each union's P0 is finite and in [0, 1]
    z = share * np.sqrt(a * e) * np.exp(1j * phase)
    assume(z.real**2 + z.imag**2 <= a * e)  # Cauchy-Schwarz, overlap <= 1
    inputs = WalkInputs(np.zeros(2), np.zeros(2), 1.0, source, mu, None)
    excess = _p0_excess(inputs, np.float64(a), np.complex128(z), np.float64(e), np.float64(h))
    assert np.isfinite(excess)
    assert 0.0 <= 1.0 + excess <= 1.0


# -- batched scans: refusals --------------------------------------------------

def pair_inputs(mu: float, idler=None, bins=(1,), capacity: int = 1) -> WalkInputs:
    """A TMSV signal of mean photon number `mu` reaching (H, t_m) with unit
    amplitude for each m in `bins`, the idler's transmission `idler`, and
    no coherent light."""
    signal = np.zeros(2 * capacity, dtype=complex)
    signal[[m - 1 for m in bins]] = 1.0
    return WalkInputs(signal, np.zeros(2 * capacity, dtype=complex), 1.0, "tmsv", mu, idler)


def dense_one_fold(mu: float) -> float:
    """The same one-fold point on the dense route: the signal's thermal
    marginal, cov = (1/2 + mu) I on (H, t1)."""
    stage = _Stage(WalkConfig(0), (), 1.0, 1.0)
    cov = 0.5 * np.eye(8)
    cov[:2, :2] += mu * np.eye(2)
    stage.dense = np.zeros(8), cov, ()
    calc, _ = _gate_point(stage, (0, 1), 1.0)
    return calc.pattern(("APD4",))


@pytest.mark.parametrize(
    "mu, error, message",
    [
        (-0.9, NumericalInstability, "inclusion-exclusion produced"),
    ],
)
def test_scan_refusals_match_the_dense_route(mu, error, message):
    with pytest.raises(error, match=message) as batched:
        scan_patterns(pair_inputs(mu), [(0, 1)], 1.0, ("APD4",))
    assert "gate point with gates on bins 1" in str(batched.value)
    with pytest.raises(error):
        dense_one_fold(mu)


def test_scan_refuses_a_nan_total_at_its_gate_point():
    # mu < 0 never passes ExperimentSpec; straight into WalkInputs, the pair
    # term log1p(-2) is NaN, which no comparison with the bounds can catch
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalInstability, match="produced nan at .* bins 1"):
            scan_patterns(pair_inputs(-2.0), [(0, 1)], 1.0, ("APD4",))


@pytest.mark.parametrize(
    "total, shown",
    [(1.0 + 2e-12, "1.000000000002"), (-2e-12, "-2e-12")],
    ids=["1.000000000002", "-2e-12"],
)
def test_refusals_show_the_total_at_full_precision(monkeypatch, total, shown):
    # at three digits a total of 1 + 2e-12 would read 1.000e+00
    calc = routed((SourceSpec("coherent", H1, 0.1),))
    monkeypatch.setattr(calc, "no_click", lambda modes: 0.0 if modes else total)
    with pytest.raises(NumericalInstability, match=f"produced {shown}$"):
        calc.pattern(("APD2",))
    with pytest.raises(NumericalInstability, match=f"produced {shown} at .* bins 2"):
        _checked(np.array([0.5, total]), np.array([[0, 1], [0, 2]]))


def test_scan_refuses_a_dead_herald_before_any_pattern():
    # the patterns themselves would be NaN, refused as NumericalInstability
    with pytest.raises(ZeroHeraldRate, match="no idler"):
        scan_patterns(pair_inputs(-2.0), [(0, 1)], 1.0, ("APD4",), heralded=True)
    with pytest.raises(ZeroHeraldRate, match="never click"):
        scan_patterns(pair_inputs(-2.0, idler=0.0), [(0, 1)], 1.0, ("APD4",), heralded=True)


def test_scan_rejects_bad_gate_slots():
    state = pair_inputs(0.1)
    with pytest.raises(IndexOutOfRange):
        scan_patterns(state, [(0, 2)], 1.0, ("APD4",))
    with pytest.raises(DuplicateGateBin):
        scan_patterns(state, [(1, 1)], 1.0, ("APD4",))
    with pytest.raises(EtaOutOfRange):
        scan_patterns(state, [(0, 1)], 1.5, ("APD4",))
    # the oracle takes the same gate points and refusals, here on 2-bin registers
    state = pair_inputs(0.1, capacity=2)
    oracle = ThresholdOracle((SourceSpec("coherent", H1, 0.1),), WalkConfig.uniform(1))
    cases = [
        ([(1.5, 2.9)], 1.0, IndexOutOfRange),  # not whole numbers: no truncation to (1, 2)
        ([(np.nan, 1)], 1.0, IndexOutOfRange),
        ([(1, 2, 3)], 1.0, IndexOutOfRange),  # three gates
        ([1, 2, 0, 1], 1.0, IndexOutOfRange),  # a flat list, not two gate points
        ([(0, -1)], 1.0, IndexOutOfRange),
        ([(0, 3)], 1.0, IndexOutOfRange),  # bin B + 1
        ([(1, 2), (2, 2)], 1.0, DuplicateGateBin),
        ([(0, 1)], -0.1, EtaOutOfRange),
        ([(0, 1)], 1.1, EtaOutOfRange),
        ([(0, 1)], np.nan, EtaOutOfRange),
    ]
    for slots, efficiency, error in cases:
        with pytest.raises(error):
            scan_patterns(state, slots, efficiency, ("APD4",))
        with pytest.raises(error):
            oracle.scan(slots, efficiency)


# -- detector queries: one format, one checker ----------------------------------

NINE = ExperimentSpec(
    walk=WalkConfig.uniform(9), kind="two-fold", mu_alpha=0.24, mu_xi=0.026, overlap=0.897461
)


def ask(engine, clicked, silent, heralded):
    """One query of `engine`: a scan's two gate points at N = 9 in closed
    form, its HOM arms, or one gate point on the dense route or the oracle."""
    if engine == "closed form":
        return scan_patterns(_stage(NINE).inputs, [(1, 2), (3, 4)], 0.97, clicked, heralded)
    if engine == "closed form, HOM":
        return _hom_clicks(_stage(NINE).inputs, (0.5, 1.0), clicked)
    if engine == "dense":
        calc = routed(_sources(NINE), (1, 2), bins=2)
        return (calc.heralded if heralded else calc.pattern)(clicked, silent)
    oracle = ThresholdOracle(_sources(NINE), WalkConfig.uniform(1)).scan([(1, 2)], 0.97)
    return (oracle.heralded_prob if heralded else oracle.pattern_prob)(clicked, silent)


BAD_QUERIES = {
    "unknown name": (("APD5",), (), False),
    "lower case": (("apd3", "APD4"), (), False),
    "bare string": ("APD4", (), False),
    "repeated": (("APD4", "APD4"), (), False),
    "clicked and silent": (("APD3",), ("APD3",), False),
    "heralded, herald clicked": (("APD1", "APD4"), (), True),
    "heralded, herald silent": (("APD4",), ("APD1",), True),
}


@pytest.mark.parametrize(
    "engine, case",
    [
        (engine, case)
        for engine in ("closed form", "closed form, HOM", "dense", "oracle")
        for case, (_, silent, heralded) in BAD_QUERIES.items()
        # the closed form marginalizes every detector it is not told to click,
        # and the HOM preset heralds by clicking APD1 itself
        if not (engine.startswith("closed form") and silent or engine.endswith("HOM") and heralded)
    ],
)
def test_every_engine_refuses_a_bad_detector_query(engine, case):
    clicked, silent, heralded = BAD_QUERIES[case]
    with pytest.raises(IndexOutOfRange):
        ask(engine, clicked, silent, heralded)
    # the same engine answers a good query, in any order of its names
    good = ask(engine, ("APD4", "APD2"), (), False)
    assert np.array_equal(good, ask(engine, ("APD2", "APD4"), (), False))
