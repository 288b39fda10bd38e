import itertools
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwalk.dense as dense
import qwalk.detection as detection
import qwalk.experiments as experiments
import qwalk.fock as fock
from qwalk.dense import ClickCalculator
from qwalk.errors import ConfigInvalid, ZeroHeraldRate
from qwalk.experiments import (
    Distribution,
    ExperimentSpec,
    _SCANS,
    _batched_raw,
    _sources,
    _stage,
    fit_overlap,
    hom_scan,
    run_experiment,
    step_evolution,
    verify_against_oracle,
)
from qwalk.fock import ThresholdOracle
from qwalk.modes import IDLER, ModeIndex, Pol, flat_index
from qwalk.walk import LayerParams, WalkConfig, aggregate_transmission, walk_unitary

SCAN_KINDS = ("one-fold", "two-fold", "three-fold")


def ideal_spec(n_steps, **kw):
    defaults = dict(
        walk=WalkConfig.uniform(n_steps, transmission=1.0),
        kind="one-fold",
        mu_alpha=0.0,
        mu_xi=0.026,
        eta_kerr=1.0,
        heralded=True,
        ideal_herald=True,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


def h_restricted_column(walk):
    """Renormalized |walk column|^2 of the (H, t1) input over H outputs."""
    u = walk_unitary(walk)
    bins = walk.bin_capacity
    col = u[:, flat_index(ModeIndex(Pol.H, 1, 0), bins)]
    weights = np.array(
        [
            abs(col[flat_index(ModeIndex(Pol.H, m, 0), bins)]) ** 2
            for m in range(1, walk.n_steps + 2)
        ]
    )
    return weights / weights.sum()


def test_spec_validation():
    with pytest.raises(ConfigInvalid):
        ExperimentSpec(walk=WalkConfig.uniform(1), kind="five-fold")
    with pytest.raises(ConfigInvalid):
        ExperimentSpec(walk=WalkConfig.uniform(1), overlap=1.5)
    with pytest.raises(ConfigInvalid):
        ExperimentSpec(walk=WalkConfig.uniform(1), pair_source="epr")
    with pytest.raises(ConfigInvalid):
        ExperimentSpec(
            walk=WalkConfig.uniform(1), ideal_herald=True, heralded=False
        )
    with pytest.raises(ConfigInvalid):
        ExperimentSpec(walk=WalkConfig.uniform(0), kind="three-fold")
    # a 0-step walk has one bin, so a two-fold scan would have no gate point
    with pytest.raises(ConfigInvalid, match="two-fold readout needs two distinct gate bins"):
        ExperimentSpec(walk=WalkConfig.uniform(0), kind="two-fold")
    with pytest.raises(ConfigInvalid):
        ExperimentSpec(walk=WalkConfig.uniform(2), kind="hom")


@pytest.mark.parametrize("field, value", [("mu_xi", np.inf), ("mu_alpha", np.nan)])
def test_mean_photon_numbers_must_be_finite(field, value):
    # an infinite pair gain used to write NaN probabilities, and a NaN
    # coherent intensity silently dropped the coherent input
    with pytest.raises(ConfigInvalid, match=field):
        ExperimentSpec(walk=WalkConfig.uniform(1), **{field: value})


def test_single_photon_one_step_lands_in_bin_one():
    dist = run_experiment(ideal_spec(1))
    assert dist.labels == (1, 2)
    assert dist.probs[0] == pytest.approx(1.0, abs=1e-12)
    assert dist.probs[1] == pytest.approx(0.0, abs=1e-12)


def test_single_photon_three_steps_frozen_distribution():
    # H-restricted weights (1/8, 1/2, 1/8, 0), renormalized
    dist = run_experiment(ideal_spec(3))
    assert dist.probs[0] == pytest.approx(1.0 / 6.0, abs=1e-10)
    assert dist.probs[1] == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert dist.probs[2] == pytest.approx(1.0 / 6.0, abs=1e-10)
    assert dist.probs[3] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n_steps", [2, 5, 8])
def test_single_photon_distribution_matches_walk_column(n_steps):
    dist = run_experiment(ideal_spec(n_steps))
    expected = h_restricted_column(WalkConfig.uniform(n_steps, transmission=1.0))
    assert np.allclose(dist.probs, expected, atol=1e-10)


def test_one_fold_normalization_flag():
    dist = run_experiment(ideal_spec(2))
    assert dist.normalization == "NormalizedOverOutcomes"
    assert not dist.undefined
    assert sum(dist.probs) == pytest.approx(1.0, abs=1e-12)


def test_vacuum_inputs_give_undefined_distribution():
    spec = ExperimentSpec(
        walk=WalkConfig.uniform(1),
        kind="two-fold",
        mu_alpha=0.0,
        mu_xi=0.0,
        heralded=False,
    )
    dist = run_experiment(spec)
    assert dist.undefined
    assert all(p == 0.0 for p in dist.probs)


def test_heralding_without_a_pair_source_fails():
    spec = ExperimentSpec(
        walk=WalkConfig.uniform(1),
        kind="one-fold",
        mu_alpha=0.1,
        mu_xi=0.0,
        heralded=True,
    )
    with pytest.raises(ZeroHeraldRate):
        run_experiment(spec)


def test_three_fold_is_bounded_by_two_fold():
    base = dict(
        walk=WalkConfig.uniform(2),
        mu_alpha=0.3,
        mu_xi=0.026,
        overlap=0.9,
        heralded=False,
    )
    two = run_experiment(ExperimentSpec(kind="two-fold", **base))
    three = run_experiment(ExperimentSpec(kind="three-fold", **base))
    assert three.labels == two.labels
    for p3, p2 in zip(three.raw, two.raw):
        assert p3 <= p2 + 1e-15


def test_click_probabilities_decrease_with_loss():
    def raw_at(eta):
        spec = ExperimentSpec(
            walk=WalkConfig.uniform(2),
            kind="two-fold",
            mu_alpha=0.3,
            mu_xi=0.026,
            heralded=False,
            eta_sys=eta,
        )
        return run_experiment(spec).raw

    lossless, mid, lossy = raw_at(1.0), raw_at(0.8), raw_at(0.5)
    for a, b, c in zip(lossless, mid, lossy):
        assert a >= b - 1e-15
        assert b >= c - 1e-15


def test_runs_are_deterministic():
    spec = ExperimentSpec(
        walk=WalkConfig.uniform(3),
        kind="two-fold",
        mu_alpha=0.1,
        mu_xi=0.026,
        overlap=0.7,
    )
    assert run_experiment(spec) == run_experiment(spec)


def test_hom_visibility_grows_with_overlap():
    spec = ExperimentSpec(walk=WalkConfig.uniform(1), kind="hom", mu_alpha=0.1)
    values = hom_scan(spec, (0.0, 0.3, 0.6, 1.0)).probs
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_hom_scan_packaging():
    spec = ExperimentSpec(walk=WalkConfig.uniform(1), kind="hom", mu_alpha=0.1)
    dist = hom_scan(spec, (0.0, 0.5, 1.0))
    assert dist.kind == "hom"
    assert dist.normalization == "RawPattern"
    assert dist.labels == (0.0, 0.5, 1.0)
    assert dist.probs[0] == pytest.approx(0.0, abs=1e-12)
    assert dist.raw[0] == pytest.approx(dense_hom(spec, 0.0), rel=1e-12)


def dense_hom(spec, overlap):
    """The HOM coincidence on the dense route, the independent reference of
    the closed form: both gates off, APD4 on the (H, t1) arm and APD2 on the
    (V, t2) arm in both sectors, the herald on APD1."""
    stage = _stage(replace(spec, overlap=overlap))
    mean, cov, _ = dense._register(stage)
    bins = spec.walk.bin_capacity

    def arm(pol, m):
        return [flat_index(ModeIndex(pol, m, s), bins) for s in (0, 1)]

    detectors = {
        "APD1": (flat_index(IDLER, bins),) if stage.idler else (),
        "APD2": arm(Pol.V, 2),
        "APD3": (),
        "APD4": arm(Pol.H, 1),
    }
    calc = ClickCalculator(mean[None], cov[None], detectors)
    return calc.pattern(("APD1", "APD2", "APD4"))[0]


@given(
    overlap=st.floats(min_value=0.0, max_value=1.0),
    mu_alpha=st.floats(min_value=0.0, max_value=1.0),
    pair_source=st.sampled_from(("tmsv", "squashed")),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_hom_scan_matches_the_dense_route(overlap, mu_alpha, pair_source, seed):
    rng = np.random.default_rng(seed)
    spec = ExperimentSpec(
        walk=random_walk(rng, 1),
        kind="hom",
        pair_source=pair_source,
        mu_alpha=mu_alpha,
        mu_xi=float(rng.uniform(0.01, 0.3)),
        eta_sys=float(rng.uniform(0.5, 0.99)),
        eta_idler=float(rng.uniform(0.5, 0.99)),
    )
    raw = hom_scan(spec, (overlap,)).raw[0]
    assert abs(raw - dense_hom(spec, overlap)) <= 1e-13


def test_hom_scan_scores_every_overlap_in_one_evaluation(monkeypatch):
    # overlaps are the points of one call, with overlap 0 as the reference
    calls = []

    def counted(inputs, slots, *args):
        calls.append(len(slots))
        return detection.click_probabilities(inputs, slots, *args)

    monkeypatch.setattr(experiments, "click_probabilities", counted)
    spec = ExperimentSpec(walk=WalkConfig.uniform(1), kind="hom", mu_alpha=0.1)
    hom_scan(spec, (0.0, 0.25, 0.5, 1.0))
    assert calls == [5]


def test_fit_overlap_reaches_target_visibility():
    spec = ExperimentSpec(walk=WalkConfig.uniform(1), kind="hom", mu_alpha=0.1)
    overlap, visibility = fit_overlap(spec, target=0.70, tol=1e-4)
    assert abs(visibility - 0.70) <= 1e-4
    assert 0.0 < overlap < 1.0
    assert hom_scan(spec, (overlap,)).probs[0] == pytest.approx(visibility)


def test_fit_overlap_rejects_unreachable_targets():
    spec = ExperimentSpec(walk=WalkConfig.uniform(1), kind="hom", mu_alpha=0.1)
    with pytest.raises(ConfigInvalid):
        fit_overlap(spec, target=0.999)


@pytest.mark.parametrize(
    "call",
    [lambda spec: hom_scan(spec, (0.5,)), fit_overlap, verify_against_oracle],
    ids=["hom_scan", "fit_overlap", "verify_against_oracle"],
)
def test_hom_refuses_a_zero_distinguishable_rate(call):
    # without a pair source nothing heralds, so the reference rate is zero
    spec = ExperimentSpec(walk=WalkConfig.uniform(1), kind="hom", mu_alpha=0.1, mu_xi=0.0)
    message = "^distinguishable coincidence rate is zero; visibility is undefined$"
    with pytest.raises(ConfigInvalid, match=message):
        call(spec)


def test_step_evolution_matches_direct_runs():
    spec = ExperimentSpec(
        walk=WalkConfig.uniform(4),
        kind="step-evolution",
        mu_alpha=0.1,
        mu_xi=0.026,
        overlap=0.8,
    )
    steps = step_evolution(spec, n_max=4, inner_kind="one-fold")
    assert [d.step for d in steps] == [1, 2, 3, 4]
    for n, dist in zip(range(1, 5), steps):
        direct = run_experiment(
            ExperimentSpec(
                walk=spec.walk.truncated(n),
                kind="one-fold",
                mu_alpha=0.1,
                mu_xi=0.026,
                overlap=0.8,
            )
        )
        assert dist.labels == direct.labels
        assert dist.raw == direct.raw


def test_step_evolution_single_photon_tracks_walk_columns():
    spec = ideal_spec(5)
    for dist in step_evolution(spec, inner_kind="one-fold"):
        walk = spec.walk.truncated(dist.step)
        expected = h_restricted_column(walk)
        assert np.allclose(dist.probs[: len(expected)], expected, atol=1e-10)


def test_step_evolution_rejects_bad_ranges():
    spec = ideal_spec(3)
    with pytest.raises(ConfigInvalid):
        step_evolution(spec, n_max=9)
    with pytest.raises(ConfigInvalid):
        step_evolution(spec, n_max=0)
    with pytest.raises(ConfigInvalid):
        step_evolution(spec, inner_kind="hom")


def test_step_evolution_refuses_a_walk_of_no_steps():
    # once refused only later, as "n_max must lie in [1, 0], got 0"
    with pytest.raises(ConfigInvalid, match="^step evolution needs at least one walk step$"):
        ExperimentSpec(walk=WalkConfig(0), kind="step-evolution")


def test_step_evolution_supports_three_fold_from_step_one():
    series = step_evolution(ideal_spec(2), inner_kind="three-fold")
    assert tuple(d.step for d in series) == (1, 2)
    assert series[0].kind == "three-fold"


def test_oracle_bridge_for_ideal_herald():
    spec = ideal_spec(2, mu_alpha=0.2, overlap=0.7, eta_kerr=0.97)
    report = verify_against_oracle(spec)
    assert report.comparisons == 3
    assert report.max_abs_diff < 1e-7


def test_oracle_bridge_for_hom():
    spec = ExperimentSpec(
        walk=WalkConfig.uniform(1), kind="hom", mu_alpha=0.1, overlap=0.9
    )
    report = verify_against_oracle(spec)
    assert report.max_abs_diff < 1e-7


# One oracle per gate point, with the routing modes appended to the
# register, gave these values before routing moved to query time; a
# per-scan oracle routed with `at` must reproduce them.  Walk: a skewed
# coin (omega 0.6, gamma 0.4); mu_alpha 0.2, mu_xi 0.026, overlap 0.7,
# eta_K 0.9.  PLAN puts the share of bin 2 that gate 2 leaves behind on
# APD3 whenever gate 2 sits there.
PLAN = {
    "APD1": ("idler",),
    "APD2": ((Pol.V, 3),),
    "APD3": ("gate1", (Pol.H, 2)),
    "APD4": ("gate2",),
}
PER_POINT_ORACLE = [
    (dict(n=1, kind="one-fold", heralded=True), None, (
        0.8110562552708169, 1.8290436857389834e-09,
    )),
    (dict(n=2, kind="one-fold", heralded=True), None, (
        0.7358698020495693, 0.02068832564337526, 1.8290436857389834e-09,
    )),
    (dict(n=3, kind="one-fold", heralded=True), None, (
        0.6673693331246985, 0.034798251071266564, 0.01870971592248258,
        1.8290436857389834e-09,
    )),
    (dict(n=1, kind="one-fold", heralded=False), None, (
        0.03559923868212855, 1.0634348956983786e-10,
    )),
    (dict(n=2, kind="one-fold", heralded=False), None, (
        0.03224856826454858, 0.014125061065171307, 1.0634348956983786e-10,
    )),
    (dict(n=3, kind="one-fold", heralded=False), None, (
        0.02920528139782741, 0.010946706720593835, 0.012767513320578239,
        1.0634348956983786e-10,
    )),
    (dict(n=1, kind="two-fold", heralded=True), None, (
        1.8290436857389834e-09,
    )),
    (dict(n=2, kind="two-fold", heralded=True), None, (
        0.009279100843969039, 1.8290393046281246e-09, 1.8290393046281246e-09,
    )),
    (dict(n=3, kind="two-fold", heralded=True), None, (
        0.006031119433708714, 0.007605001247498949, 1.829048066849842e-09,
        0.0007048166664589647, 1.8290436857389834e-09, 1.829048066849842e-09,
    )),
    (dict(n=1, kind="two-fold", heralded=False), None, (
        1.0634348956983786e-10,
    )),
    (dict(n=2, kind="two-fold", heralded=False), None, (
        0.00042493411923072433, 1.0634348956983786e-10, 1.0634348956983786e-10,
    )),
    (dict(n=3, kind="two-fold", heralded=False), None, (
        0.00027978392854399736, 0.00034777608273228733, 1.0634348956983786e-10,
        0.00014480939448113794, 1.0634348956983786e-10, 1.0634348956983786e-10,
    )),
    (dict(n=1, kind="three-fold", heralded=True), None, (
        1.8290436857389834e-09,
    )),
    (dict(n=2, kind="three-fold", heralded=True), None, (
        9.720557168306584e-05, 1.829048066849842e-09, 1.829048066849842e-09,
    )),
    (dict(n=3, kind="three-fold", heralded=True), None, (
        0.00013660632122053772, 0.00015464022534733096, 1.8290261612955486e-09,
        8.643953784448469e-05, 1.8290524479607007e-09, 1.8290261612955486e-09,
    )),
    (dict(n=1, kind="three-fold", heralded=False), None, (
        1.063433785475354e-10,
    )),
    (dict(n=2, kind="three-fold", heralded=False), None, (
        3.055117958172815e-06, 1.063433785475354e-10, 1.0634348956983786e-10,
    )),
    (dict(n=3, kind="three-fold", heralded=False), None, (
        5.560172066210178e-06, 6.12865413196495e-06, 1.0634360059214032e-10,
        4.288889056569545e-06, 1.0634348956983786e-10, 1.0634348956983786e-10,
    )),
    (dict(n=2, kind="one-fold", ideal_herald=True), None, (
        0.7308760889487117, 0.020518815328290363, 2.4661517272761557e-10,
    )),
    (dict(n=2, kind="two-fold", ideal_herald=True), None, (
        0.008946514634746772, 2.4661517272761557e-10, 2.4661517272761557e-10,
    )),
    (dict(n=2, kind="three-fold", ideal_herald=True), None, (
        6.186893475479405e-05, 2.466152282387668e-10, 2.4661531150549365e-10,
    )),
    (dict(n=2, kind="two-fold", heralded=True, eta_sys=0.8, eta_idler=0.7), None, (
        0.006063194466212828, 2.567341094290591e-09, 2.567341094290591e-09,
    )),
    (dict(n=2, kind="two-fold", heralded=False, eta_sys=0.8, eta_idler=0.7), None, (
        0.0002737163237326312, 1.0634348956983786e-10, 1.0634348956983786e-10,
    )),
    (dict(n=2, kind="three-fold", eta_sys=0.8, eta_idler=0.7), None, (
        5.5800866008862855e-05, 2.567353516588214e-09, 2.5673348831417795e-09,
    )),
    (dict(n=2, kind="two-fold"), PLAN, (
        0.009323559029298281, 1.8290436857389834e-09, 1.8290436857389834e-09,
    )),
    (dict(n=2, kind="two-fold", heralded=True, pair_source="squashed"), None, (
        0.0006517266397703488, 1.0872427573295538e-09, 1.0872471384404124e-09,
    )),
    (dict(n=2, kind="two-fold", heralded=False, pair_source="squashed"), None, (
        0.0004249341013573549, 8.75455263837921e-11, 8.75455263837921e-11,
    )),
]


@pytest.mark.parametrize("params, plan, expected", PER_POINT_ORACLE)
def test_per_scan_oracle_matches_one_oracle_per_gate_point(params, plan, expected):
    params = dict(params)
    walk = WalkConfig.uniform(params.pop("n"), omega=0.6, gamma=0.4)
    spec = ExperimentSpec(
        walk=walk, mu_alpha=0.2, mu_xi=0.026, overlap=0.7, eta_kerr=0.9, **params
    )
    scan = _SCANS[spec.kind]
    kwargs = dict(eta_sys=spec.eta_sys, eta_idler=spec.eta_idler, detector_labels=plan)
    per_scan = ThresholdOracle(_sources(spec), walk, **kwargs)
    labels = scan.labels(walk.n_steps)
    assert len(labels) == len(expected)
    for slots, value in zip(scan.slots(labels), expected):
        fresh = ThresholdOracle(_sources(spec), walk, **kwargs).scan([slots], spec.eta_kerr)
        for oracle in (per_scan.scan([slots], spec.eta_kerr), fresh):
            if spec.heralded and not spec.ideal_herald:
                (got,) = oracle.heralded_prob(scan.clicked)
            else:
                (got,) = oracle.pattern_prob(scan.clicked)
            assert abs(got - value) <= 1e-13


def test_oracle_check_builds_one_oracle_per_scan_and_shares_sets(monkeypatch):
    builds, recursed, queried = [], [], []
    build = fock.ThresholdOracle.__init__
    recursion = fock._gamma_blocks
    p0 = fock._Branch.p0

    def counted_build(self, *args, **kwargs):
        builds.append(self)
        build(self, *args, **kwargs)

    def counted_recursion(g, geom):
        recursed.append((geom, [m.tobytes() for m in g]))
        return recursion(g, geom)

    def counted_p0(self, grams):
        queried.append((self, grams))
        return p0(self, grams)

    monkeypatch.setattr(fock.ThresholdOracle, "__init__", counted_build)
    monkeypatch.setattr(fock, "_gamma_blocks", counted_recursion)
    monkeypatch.setattr(fock._Branch, "p0", counted_p0)
    walk = WalkConfig.uniform(3, omega=0.6, gamma=0.4)
    spec = ExperimentSpec(walk=walk, kind="two-fold", mu_alpha=0.2, overlap=0.7, eta_kerr=0.9)
    assert verify_against_oracle(spec).comparisons == 6
    assert len(builds) == 1
    branches = builds[0].branches
    assert not any(branch.trivial for branch in branches)
    # sector 0 holds signal, idler and coherent light; only the idler is free
    pair = branches[0]
    assert pair.free.tolist() == [1] and pair.block[1].tolist() == [[0, 2]]
    assert pair.geom is not branches[1].geom

    def g(gram):
        return np.eye(len(gram)) - gram

    def block(branch, gram):
        return g(gram)[branch.block].tobytes()

    # Each branch runs one recursion pass for the whole scan, and no coupled
    # block goes through the recursion twice in the scan: not the herald's,
    # and not the single-gate sets eta G_m (APD3 at m1 or APD4 at m2), which
    # several gate points share.  One oracle per gate point ran 6 x (7 + 3) =
    # 60 sets; at most 21 + 10 full G are distinct, and the 10 with APD1 share
    # their coupled block with their twin without it.  Sector 1's lone input
    # is a free axis, so all of its sets share one empty coupled block: the
    # two branches recurse 8 blocks in all.
    for branch in branches:
        passes = [keys for geom, keys in recursed if geom is branch.geom]
        asked = {block(branch, gram) for b, grams in queried if b is branch for gram in grams}
        assert len(passes) == 1
        assert sorted(passes[0]) == sorted(asked)
    counts = Counter(key for _, keys in recursed for key in keys)
    assert set(counts.values()) == {1}
    assert sum(len(keys) for _, keys in recursed) <= 8
    idler = pair.grams[-1]
    assert counts[block(pair, idler)] == 1
    for b, branch in enumerate(branches):
        for m in range(1, 5):  # register column m holds (H, m)
            assert counts[block(branch, 0.9 * branch.grams[m])] == 1
    queried_g = {g(gram).tobytes() for b, grams in queried if b is pair for gram in grams}
    for m in range(1, 4):  # APD3 alone, and with the herald
        gate = 0.9 * pair.grams[m]
        assert {g(gate).tobytes(), g(gate + idler).tobytes()} <= queried_g
        assert block(pair, gate + idler) == block(pair, gate)


def test_distribution_is_plain_data():
    dist = Distribution(
        kind="one-fold",
        labels=(1,),
        probs=(1.0,),
        raw=(0.5,),
    )
    assert dist == Distribution("one-fold", (1,), (1.0,), (0.5,))


def test_run_experiment_dispatch():
    spec = ideal_spec(2, kind="two-fold")
    assert run_experiment(spec).kind == "two-fold"
    with pytest.raises(ConfigInvalid):
        run_experiment(
            ExperimentSpec(walk=WalkConfig.uniform(1), kind="hom", mu_alpha=0.1)
        )


# -- batched scans against the dense route -----------------------------------


def dense_scan(spec):
    """Raw values of the scan on the dense route (`qwalk.dense`), a block of
    gate points at a time, at any walk length: the independent Gaussian
    reference of the batched route."""
    scan = _SCANS[spec.kind]
    return dense.scan_raw(scan, spec, _stage(spec), scan.labels(spec.walk.n_steps))


def batched_scan(spec):
    """Raw values of the scan from the batched evaluator, at any walk length."""
    scan = _SCANS[spec.kind]
    return _batched_raw(scan, spec, _stage(spec), scan.labels(spec.walk.n_steps))


def batched_cases():
    """The acceptance oracle grid, then ideal herald, squashed and lossy cases."""
    for n, mu_alpha, overlap, eta_kerr, kind, heralded in itertools.product(
        (1, 2, 3), (0.1, 0.3), (0.0, 0.7, 1.0), (0.97, 1.0), SCAN_KINDS, (True, False)
    ):
        yield ExperimentSpec(
            walk=WalkConfig.uniform(n),
            kind=kind,
            mu_alpha=mu_alpha,
            mu_xi=0.026,
            overlap=overlap,
            eta_kerr=eta_kerr,
            heralded=heralded,
        )
    rng = np.random.default_rng(11)
    for n, kind in itertools.product(range(1, 7), SCAN_KINDS):
        walk = random_walk(rng, n)
        common = dict(walk=walk, kind=kind, mu_alpha=0.3, overlap=0.6, eta_kerr=0.9)
        yield ExperimentSpec(ideal_herald=True, **common)
        for heralded in (True, False):
            yield ExperimentSpec(pair_source="squashed", heralded=heralded, **common)
            yield ExperimentSpec(
                mu_xi=0.1, eta_idler=0.7, eta_sys=0.8, heralded=heralded, **common
            )
    # registers past the dense route's 7 bins: every pair source, herald mode
    # and kind once, with lossy idler and system and a partial overlap
    rng = np.random.default_rng(12)
    for kind, pair_source, herald in itertools.product(
        SCAN_KINDS, ("tmsv", "squashed"), ("heralded", "unheralded", "ideal")
    ):
        yield ExperimentSpec(
            walk=random_walk(rng, int(rng.integers(7, 13))),
            kind=kind,
            pair_source=pair_source,
            mu_alpha=float(rng.uniform(0.01, 1.0)),
            mu_xi=float(rng.uniform(0.01, 0.3)),
            overlap=float(rng.uniform(0.05, 0.95)),
            eta_kerr=float(rng.uniform(0.5, 1.0)),
            eta_sys=float(rng.uniform(0.5, 0.99)),
            eta_idler=float(rng.uniform(0.5, 0.99)),
            heralded=herald != "unheralded",
            ideal_herald=herald == "ideal",
        )


def test_batched_scans_match_the_dense_route():
    worst = 0.0
    for spec in batched_cases():
        raw = batched_scan(spec)
        reference = dense_scan(spec)
        assert len(raw) == len(reference)
        worst = max(worst, max(abs(a - b) for a, b in zip(raw, reference)))
    assert worst <= 1e-12


def test_scans_pick_their_route_by_register_size():
    # up to 7 time bins on the dense route, from 8 batched
    rng = np.random.default_rng(5)
    for n, kind in itertools.product((6, 7), SCAN_KINDS):
        spec = ExperimentSpec(walk=random_walk(rng, n), kind=kind, mu_alpha=0.3, overlap=0.6)
        raw = run_experiment(spec).raw
        assert raw == tuple((batched_scan if n == 7 else dense_scan)(spec))
        assert np.allclose(raw, dense_scan(spec), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("herald", ("tmsv", "squashed", "unheralded", "ideal"))
def test_stacked_dense_blocks_keep_every_value_to_the_bit(herald, monkeypatch):
    # the dense route scores a block of gate points as one stack; each value
    # must be the one its point gets when routed and scored alone, on scans
    # shorter and longer than one block
    rng = np.random.default_rng(29)
    longest = 0
    for n, kind in itertools.product(range(1, 7), SCAN_KINDS):
        spec = ExperimentSpec(
            walk=random_walk(rng, n),
            kind=kind,
            mu_alpha=0.3,
            overlap=0.6,
            eta_sys=0.9,
            eta_idler=0.8,
            heralded=herald != "unheralded",
            pair_source="squashed" if herald == "squashed" else "tmsv",
            ideal_herald=herald == "ideal",
        )
        scan, stage, labels = _SCANS[kind], _stage(spec), _SCANS[kind].labels(n)
        with monkeypatch.context() as patch:
            patch.setattr(dense, "_DENSE_BLOCK", 1)
            alone = dense.scan_raw(scan, spec, stage, labels)
        stacked = dense.scan_raw(scan, spec, stage, labels)
        assert stacked == alone
        assert np.array(stacked).tobytes() == np.array(alone).tobytes()  # signed zeros too
        longest = max(longest, len(alone))
    assert longest > dense._DENSE_BLOCK


def test_a_gate_on_a_dark_bin_gives_exactly_zero_on_the_batched_route(monkeypatch):
    # one step leaves no H light on bin 2, so gate 2 there cannot click; the
    # batched route once returned 1.1e-15 here, normalized to probability 1
    monkeypatch.setattr(dense, "_DENSE_MAX_BINS", 0)
    for heralded in (True, False):
        spec = ExperimentSpec(
            walk=WalkConfig.uniform(1),
            kind="three-fold",
            mu_alpha=0.24,
            overlap=0.897461,
            heralded=heralded,
        )
        dist = run_experiment(spec)
        assert dist.raw == (0.0,)
        assert dist.undefined


def dense_amplitudes(spec):
    """(u, beta) read off the dense stage: u from the ideal-herald probe's
    mean or from the signal's covariance with the idler, beta from the mean."""
    mean, cov, probes = dense._register(_stage(spec))
    bins, idler = spec.walk.bin_capacity, 2 * flat_index(IDLER, spec.walk.bin_capacity)
    walk_modes = [flat_index(ModeIndex(pol, m, 0), bins) for pol in (Pol.H, Pol.V) for m in range(1, bins + 1)]
    if spec.ideal_herald:
        u = np.array([probes[0][2 * j] + 1j * probes[0][2 * j + 1] for j in walk_modes])
    else:
        mu = spec.mu_xi
        c = np.sqrt(mu * (mu + 1.0)) if spec.pair_source == "tmsv" else mu
        # the cross block is c sqrt(eta_idler) [[Re u, Im u], [Im u, -Re u]]
        cross = [cov[2 * j : 2 * j + 2, idler] for j in walk_modes]
        u = np.array([x + 1j * y for x, y in cross]) / (c * np.sqrt(spec.eta_idler))
    # sector 0 carries sqrt(2 overlap) beta on its quadratures, sector 1 sqrt(2 (1 - overlap)) beta
    sectors = [
        np.array([mean[2 * j] + 1j * mean[2 * j + 1] for j in walk_modes]),
        np.array([mean[2 * (j + 2 * bins)] + 1j * mean[2 * (j + 2 * bins) + 1] for j in walk_modes]),
    ]
    beta = (np.sqrt(spec.overlap) * sectors[0] + np.sqrt(1.0 - spec.overlap) * sectors[1]) / np.sqrt(2.0)
    return u, beta


@given(
    n_steps=st.integers(min_value=1, max_value=60),
    spare=st.integers(min_value=0, max_value=3),
    herald=st.sampled_from(("heralded", "unheralded", "ideal")),
    pair_source=st.sampled_from(("tmsv", "squashed")),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_walk_inputs_match_the_dense_stage(n_steps, spare, herald, pair_source, seed):
    # the walk's t1 columns, scaled by the walk's transmission, are the
    # amplitudes the dense stage carries in its mean and covariance
    rng = np.random.default_rng(seed)
    walk = random_walk(rng, n_steps)
    spec = ExperimentSpec(
        walk=WalkConfig(n_steps, walk.layers, n_steps + 1 + spare),
        kind="two-fold",
        mu_alpha=float(rng.uniform(0.01, 0.5)),
        mu_xi=float(rng.uniform(0.01, 0.2)),
        overlap=float(rng.uniform(0.0, 1.0)),
        eta_sys=float(rng.uniform(0.5, 1.0)),
        eta_idler=float(rng.uniform(0.5, 1.0)),
        heralded=herald != "unheralded",
        ideal_herald=herald == "ideal",
        pair_source=pair_source,
    )
    inputs = _stage(spec).inputs
    u, beta = dense_amplitudes(spec)
    assert np.allclose(inputs.signal, u, rtol=0.0, atol=1e-12)
    assert np.allclose(inputs.coherent, beta, rtol=0.0, atol=1e-12)
    assert inputs.overlap == spec.overlap
    if herald == "ideal":
        assert (inputs.source, inputs.idler) == ("fock1", None)
    else:
        assert (inputs.source, inputs.mu, inputs.idler) == (pair_source, spec.mu_xi, spec.eta_idler)


@pytest.mark.parametrize("herald", ("heralded", "ideal"))
def test_batched_stage_forms_no_register_sized_square(herald):
    # at N = 1001 (M = 4009 modes) one real 2M x 2M matrix is 514 MB and the
    # complex M x M walk unitary 257 MB; the batched stage holds two walk
    # columns of 2004 complex amplitudes (32 kB each)
    spec = ExperimentSpec(
        walk=WalkConfig.uniform(1001),
        kind="two-fold",
        eta_sys=0.9,
        eta_idler=0.8,
        ideal_herald=herald == "ideal",
    )
    tracemalloc.start()
    try:
        _stage(spec).inputs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def per_point_raw(spec):
    """Raw scan values from one closed-form term per (detector union, gate
    point), its sums taken over explicit per-bin routing weights."""
    scan, inputs = _SCANS[spec.kind], _stage(spec).inputs
    slots = scan.slots(scan.labels(spec.walk.n_steps))
    bins = spec.walk.bin_capacity
    routed = spec.eta_kerr * np.vstack((np.zeros(bins), np.eye(bins)))  # row 0: a dark slot
    apd3, apd4 = routed[slots[:, 0]], routed[slots[:, 1]]
    weights = {"APD2": 1.0 - apd3 - apd4, "APD3": apd3, "APD4": apd4}
    u, beta = inputs.signal[:bins], inputs.coherent[:bins]
    clicked, rate = scan.clicked, 1.0
    if spec.heralded and not spec.ideal_herald:
        rate = -detection._p0_excess(inputs, 0.0, 0j, 0.0, inputs.idler)
        clicked = ("APD1",) + clicked
    joint = np.zeros(len(slots))
    for r in range(len(clicked) + 1):
        for subset in itertools.combinations(clicked, r):
            w = sum((weights[n] for n in subset if n != "APD1"), np.zeros((len(slots), bins)))
            a = w @ np.abs(u) ** 2
            z = np.sqrt(spec.overlap) * (w @ (u.conj() * beta))
            e = w @ np.abs(beta) ** 2
            h = inputs.idler if "APD1" in subset else 0.0
            joint += (-1.0) ** r * detection._p0_excess(inputs, a, z, e, h)
    return np.clip(joint, 0.0, 1.0) / rate


@given(
    n_steps=st.integers(min_value=7, max_value=60),
    kind=st.sampled_from(SCAN_KINDS),
    herald=st.sampled_from(("heralded", "unheralded", "ideal")),
    pair_source=st.sampled_from(("tmsv", "squashed")),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_distinct_gram_scans_match_one_term_per_union_and_point(
    n_steps, kind, herald, pair_source, seed
):
    # the scan's sums, H totals minus the routed shares, against explicit weights
    rng = np.random.default_rng(seed)
    spec = ExperimentSpec(
        walk=random_walk(rng, n_steps),  # coins with gamma != 0
        kind=kind,
        pair_source=pair_source,
        mu_alpha=float(rng.uniform(0.01, 1.0)),
        mu_xi=float(rng.uniform(0.01, 0.3)),
        overlap=float(rng.uniform(0.0, 1.0)),
        eta_kerr=float(rng.uniform(0.5, 1.0)),
        eta_sys=float(rng.uniform(0.5, 0.99)),
        eta_idler=float(rng.uniform(0.5, 0.99)),
        heralded=herald != "unheralded",
        ideal_herald=herald == "ideal",
    )
    assert np.max(np.abs(batched_scan(spec) - per_point_raw(spec))) <= 1e-13


@pytest.mark.parametrize("n_steps", [2, 7])
def test_dead_idler_refuses_heralded_scans(n_steps):
    spec = ExperimentSpec(walk=WalkConfig.uniform(n_steps), kind="two-fold", eta_idler=0.0)
    with pytest.raises(ZeroHeraldRate):
        run_experiment(spec)


# -- closed forms at any walk length --------------------------------------------


def random_walk(rng, n_steps):
    layers = tuple(
        LayerParams(
            omega=float(rng.uniform(0.0, 2.0 * np.pi)),
            gamma=float(rng.uniform(0.0, 2.0 * np.pi)),
            transmission=float(rng.uniform(0.9, 1.0)),
        )
        for _ in range(n_steps)
    )
    return WalkConfig(n_steps, layers)


def closed_form_case(seed, n_steps, **kw):
    """Random program and one-fold settings; returns (spec, eta, walk unitary)."""
    rng = np.random.default_rng(seed)
    spec = ExperimentSpec(
        walk=random_walk(rng, n_steps),
        kind="one-fold",
        overlap=float(rng.uniform(0.0, 1.0)),
        eta_kerr=float(rng.uniform(0.5, 1.0)),
        eta_sys=float(rng.uniform(0.5, 1.0)),
        heralded=False,
        **kw,
    )
    eta = spec.eta_kerr * aggregate_transmission(spec.walk) * spec.eta_sys
    return spec, eta, walk_unitary(spec.walk)


def h_output(u, bins, m, source):
    return abs(u[flat_index(ModeIndex(Pol.H, m, 0), bins), flat_index(source, bins)]) ** 2


@given(
    n_steps=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log_mu=st.floats(min_value=-4.0, max_value=0.0),
)
@settings(max_examples=25, deadline=None)
def test_coherent_one_fold_is_poissonian(n_steps, seed, log_mu):
    # both sectors carry the coherent light: P(click) = 1 - exp(-eta mu |U|^2)
    mu = 10.0**log_mu
    spec, eta, u = closed_form_case(seed, n_steps, mu_alpha=mu, mu_xi=0.0)
    bins = spec.walk.bin_capacity
    expected = [
        -np.expm1(-eta * mu * h_output(u, bins, m, ModeIndex(Pol.V, 1, 0)))
        for m in range(1, n_steps + 2)
    ]
    assert np.allclose(batched_scan(spec), expected, rtol=1e-12, atol=0.0)


@given(
    n_steps=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log_mu=st.floats(min_value=-8.0, max_value=0.0),
)
@settings(max_examples=25, deadline=None)
def test_unheralded_tmsv_one_fold_is_thermal(n_steps, seed, log_mu):
    # the signal marginal is thermal: P(click) = x / (1 + x), x = eta mu |U|^2
    mu = 10.0**log_mu
    spec, eta, u = closed_form_case(seed, n_steps, mu_alpha=0.0, mu_xi=mu)
    bins = spec.walk.bin_capacity
    x = np.array(
        [eta * mu * h_output(u, bins, m, ModeIndex(Pol.H, 1, 0)) for m in range(1, n_steps + 2)]
    )
    assert np.allclose(batched_scan(spec), x / (1.0 + x), rtol=1e-12, atol=0.0)
