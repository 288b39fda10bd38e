import numpy as np
import pytest

from qwalk.detection import (
    ClickCalculator,
    ClickPattern,
    Detector,
    DetectorLayout,
    GateSpec,
    build_layout,
    scan_patterns,
)
from qwalk.errors import (
    DuplicateGateBin,
    EtaOutOfRange,
    IndexOutOfRange,
    ModeCollision,
    NumericalInstability,
    SingularMatrix,
    ZeroHeraldRate,
)
from qwalk.gaussian import (
    LowRankState,
    SourceSpec,
    apply_passive,
    mean_photons,
    prepare,
    symplectic_from_unitary,
    vacuum_state,
)
from qwalk.modes import ModeIndex, ModeRegistry, Pol

H1 = ModeIndex(Pol.H, 1, 0)
V1 = ModeIndex(Pol.V, 1, 0)


def test_coherent_no_click_probability():
    # exp(-0.1)
    state = prepare((SourceSpec("coherent", H1, 0.1),), bins=1)
    i = state.registry.flatten(H1)
    layout = DetectorLayout((Detector("APD1", frozenset({i})),))
    assert ClickCalculator(state, layout).no_click({i}) == pytest.approx(
        0.9048374180359595, abs=1e-14
    )


def test_thermal_no_click_probability():
    # 1/(1 + mu)
    state = prepare((SourceSpec("thermal", H1, 0.026),), bins=1)
    i = state.registry.flatten(H1)
    layout = DetectorLayout((Detector("APD1", frozenset({i})),))
    assert ClickCalculator(state, layout).no_click({i}) == pytest.approx(1.0 / 1.026, abs=1e-14)


def test_no_click_on_empty_set_is_one():
    state = prepare((SourceSpec("coherent", H1, 0.5),), bins=1)
    layout = DetectorLayout((Detector("APD1", frozenset()),))
    assert ClickCalculator(state, layout).no_click(()) == 1.0


def test_tmsv_herald_rate():
    # 1 - 1/(1 + mu) = mu/(1 + mu)
    state, layout = build_layout(
        prepare((SourceSpec("tmsv", H1, 0.026),), bins=1), ()
    )
    calc = ClickCalculator(state, layout)
    assert calc.herald_rate() == pytest.approx(0.025341130604288498, abs=1e-15)


def test_herald_needs_an_idler():
    state, layout = build_layout(
        prepare((SourceSpec("coherent", H1, 0.1),), bins=1), ()
    )
    with pytest.raises(ZeroHeraldRate):
        ClickCalculator(state, layout).herald_rate()


def test_pattern_space_is_complete():
    state = prepare(
        (SourceSpec("tmsv", H1, 0.026), SourceSpec("coherent", V1, 0.3, overlap=0.7)),
        bins=2,
    )
    state, layout = build_layout(state, (GateSpec(1), GateSpec(2)))
    calc = ClickCalculator(state, layout)
    total = sum(calc.pattern(p) for p in ClickPattern.full_patterns())
    assert total == pytest.approx(1.0, abs=1e-12)


def test_marginal_equals_sum_over_outcomes():
    state = prepare(
        (SourceSpec("tmsv", H1, 0.026), SourceSpec("coherent", V1, 0.3, overlap=0.7)),
        bins=2,
    )
    state, layout = build_layout(state, (GateSpec(1), GateSpec(2)))
    calc = ClickCalculator(state, layout)
    for position in range(4):
        base = ClickPattern.of(apd3=True)
        if position == 2:
            base = ClickPattern.of(apd4=True)
        split = base.with_click(position)
        silent = ClickPattern(
            tuple(
                False if k == position else c
                for k, c in enumerate(base.clicks)
            )
        )
        assert calc.pattern(base) == pytest.approx(
            calc.pattern(split) + calc.pattern(silent), abs=1e-12
        )


def test_heralded_is_joint_over_herald_rate():
    state = prepare(
        (SourceSpec("tmsv", H1, 0.026), SourceSpec("coherent", V1, 0.1)),
        bins=2,
    )
    state, layout = build_layout(state, (None, GateSpec(1)))
    calc = ClickCalculator(state, layout)
    want = ClickPattern.of(apd4=True)
    joint = calc.pattern(want.with_click(0))
    assert calc.heralded(want) == pytest.approx(
        joint / calc.herald_rate(), rel=1e-12
    )


def test_heralded_rejects_patterns_that_pin_the_idler():
    state = prepare((SourceSpec("tmsv", H1, 0.026),), bins=1)
    state, layout = build_layout(state, ())
    calc = ClickCalculator(state, layout)
    with pytest.raises(ValueError):
        calc.heralded(ClickPattern.of(apd1=True))


def test_gate_splits_photon_flux():
    # eta_K of the tapped light routes out, the rest stays on the walk mode
    state = prepare((SourceSpec("coherent", H1, 0.5),), bins=1)
    reg = state.registry
    tap = reg.flatten(H1)
    routed, layout = build_layout(state, (GateSpec(1, efficiency=0.97),))
    photons = mean_photons(routed)
    routed_modes = layout.detector("APD3").modes
    assert sum(photons[i] for i in routed_modes) == pytest.approx(
        0.97 * 0.5, abs=1e-13
    )
    assert photons[tap] == pytest.approx(0.03 * 0.5, abs=1e-13)


def test_duplicate_gate_bins_rejected():
    state = prepare((SourceSpec("coherent", H1, 0.1),), bins=2)
    with pytest.raises(DuplicateGateBin):
        build_layout(state, (GateSpec(2), GateSpec(2)))


def test_disabled_gate_is_skipped():
    state = prepare((SourceSpec("coherent", H1, 0.1),), bins=2)
    routed, layout = build_layout(
        state, (GateSpec(2, enabled=False), GateSpec(1))
    )
    assert layout.detector("APD3").modes == frozenset()
    assert len(layout.detector("APD4").modes) == 2


def test_layout_rejects_overlapping_detectors():
    with pytest.raises(ModeCollision):
        DetectorLayout(
            (
                Detector("APD1", frozenset({0, 1})),
                Detector("APD2", frozenset({1, 2})),
            )
        )


def test_pattern_on_empty_detector_is_zero():
    state = prepare((SourceSpec("coherent", H1, 0.1),), bins=1)
    state, layout = build_layout(state, ())
    calc = ClickCalculator(state, layout)
    assert calc.pattern(ClickPattern.of(apd3=True)) == 0.0
    assert calc.pattern(ClickPattern.of(apd3=False)) == pytest.approx(1.0)


def test_probability_depends_on_mode_set_not_order():
    state = prepare(
        (SourceSpec("coherent", H1, 0.4), SourceSpec("coherent", V1, 0.2)),
        bins=1,
    )
    reg = state.registry
    a, b = reg.flatten(H1), reg.flatten(V1)
    fwd = DetectorLayout(
        (Detector("APD1", frozenset({a})), Detector("APD2", frozenset({b})))
    )
    rev = DetectorLayout(
        (Detector("APD1", frozenset({b})), Detector("APD2", frozenset({a})))
    )
    p_fwd = ClickCalculator(state, fwd).pattern(ClickPattern((True, False)))
    p_rev = ClickCalculator(state, rev).pattern(ClickPattern((False, True)))
    assert p_fwd == pytest.approx(p_rev, rel=1e-13)


def test_swapping_gate_bins_swaps_the_routing_detectors():
    state = prepare(
        (SourceSpec("tmsv", H1, 0.026), SourceSpec("coherent", V1, 0.3)),
        bins=2,
    )
    calc12 = ClickCalculator(*build_layout(state, (GateSpec(1), GateSpec(2))))
    calc21 = ClickCalculator(*build_layout(state, (GateSpec(2), GateSpec(1))))
    coincidence = ClickPattern.of(apd3=True, apd4=True)
    assert calc12.pattern(coincidence) == pytest.approx(
        calc21.pattern(coincidence), rel=1e-12
    )
    only3 = ClickPattern.of(apd3=True, apd4=False)
    only4 = ClickPattern.of(apd3=False, apd4=True)
    assert calc12.pattern(only3) == pytest.approx(calc21.pattern(only4), rel=1e-12)


def test_single_photon_splits_at_a_balanced_coupler():
    # one photon into a 50:50 splitter clicks each side half the time
    registry = ModeRegistry.for_walk(1)
    state = vacuum_state(registry)
    u = np.eye(4, dtype=complex)
    u[np.ix_((0, 2), (0, 2))] = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    s = symplectic_from_unitary(u)
    injection = s[:, [0, 1]]  # unit x and p probes entering mode 0
    state = apply_passive(state, u)
    layout = DetectorLayout(
        (
            Detector("APD1", frozenset({0})),
            Detector("APD2", frozenset({2})),
        )
    )
    calc = ClickCalculator(state, layout)
    p_a = calc.single_photon(ClickPattern((True, None)), injection)
    p_b = calc.single_photon(ClickPattern((None, True)), injection)
    p_none = calc.single_photon(ClickPattern((False, False)), injection)
    p_both = calc.single_photon(ClickPattern((True, True)), injection)
    assert p_a == pytest.approx(0.5, abs=1e-12)
    assert p_b == pytest.approx(0.5, abs=1e-12)
    assert p_none == pytest.approx(0.0, abs=1e-12)
    assert p_both == pytest.approx(0.0, abs=1e-12)


def test_single_photon_into_a_watched_mode_always_clicks():
    registry = ModeRegistry.for_walk(1)
    state = vacuum_state(registry)
    injection = np.zeros((8, 2))
    injection[0, 0] = 1.0
    injection[1, 1] = 1.0
    layout = DetectorLayout((Detector("APD1", frozenset({0})),))
    calc = ClickCalculator(state, layout)
    assert calc.single_photon(ClickPattern((True,)), injection) == pytest.approx(1.0, abs=1e-12)


# -- batched scans: refusals --------------------------------------------------

H1_X = 0  # x quadrature of (H, t1, s0) in a one-bin register


def unphysical(eig: float, idler: bool = False) -> LowRankState:
    """cov - I/2 = eig on one quadrature of (H, t1, s0); no mean."""
    registry = ModeRegistry.for_walk(1, idler=idler)
    factor = np.zeros((2 * len(registry), 2))
    factor[H1_X, 0] = 1.0
    return LowRankState(registry, factor, np.array([[eig]]))


def dense_one_fold(state: LowRankState) -> float:
    routed, layout = build_layout(state.dense(), (None, GateSpec(1, 1.0)))
    return ClickCalculator(routed, layout).pattern(ClickPattern.of(apd4=True))


@pytest.mark.parametrize(
    "eig, error, message",
    [
        (-2.0, SingularMatrix, "not positive definite"),
        (-(1.0 - 1e-13), NumericalInstability, "ill-conditioned"),
        (-0.9, NumericalInstability, "inclusion-exclusion produced"),
    ],
)
def test_scan_refusals_match_the_dense_route(eig, error, message):
    state = unphysical(eig)
    with pytest.raises(error, match=message) as batched:
        scan_patterns(state, [(0, 1)], 1.0, ("APD4",))
    assert "gate point with gates on bins 1" in str(batched.value)
    with pytest.raises(error):
        dense_one_fold(state)


def test_scan_refuses_a_dead_herald_before_any_pattern():
    # the patterns themselves would raise SingularMatrix
    with pytest.raises(ZeroHeraldRate, match="no idler"):
        scan_patterns(unphysical(-2.0), [(0, 1)], 1.0, ("APD4",), heralded=True)
    with pytest.raises(ZeroHeraldRate, match="never click"):
        scan_patterns(
            unphysical(-2.0, idler=True), [(0, 1)], 1.0, ("APD4",), heralded=True
        )


def test_scan_rejects_bad_gate_slots():
    state = unphysical(0.1)
    with pytest.raises(IndexOutOfRange):
        scan_patterns(state, [(0, 2)], 1.0, ("APD4",))
    with pytest.raises(DuplicateGateBin):
        scan_patterns(state, [(1, 1)], 1.0, ("APD4",))
    with pytest.raises(EtaOutOfRange):
        scan_patterns(state, [(0, 1)], 1.5, ("APD4",))
