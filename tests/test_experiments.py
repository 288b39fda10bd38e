import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.errors import ConfigInvalid, ZeroHeraldRate
from qwalk.experiments import (
    Distribution,
    ExperimentSpec,
    _SCANS,
    _batched_raw,
    _dense_raw,
    _stage,
    fit_overlap,
    hom_coincidence,
    hom_scan,
    hom_visibility,
    run_experiment,
    run_one_fold,
    run_three_fold_partial,
    run_two_fold,
    step_evolution,
    verify_against_oracle,
)
from qwalk.modes import ModeIndex, ModeRegistry, Pol
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
    reg = ModeRegistry.for_walk(walk.bin_capacity)
    col = u[:, reg.flatten(ModeIndex(Pol.H, 1, 0))]
    weights = np.array(
        [
            abs(col[reg.flatten(ModeIndex(Pol.H, m, 0))]) ** 2
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
    with pytest.raises(ConfigInvalid):
        ExperimentSpec(walk=WalkConfig.uniform(2), kind="hom")


def test_single_photon_one_step_lands_in_bin_one():
    dist = run_one_fold(ideal_spec(1))
    assert dist.labels == (1, 2)
    assert dist.probs[0] == pytest.approx(1.0, abs=1e-12)
    assert dist.probs[1] == pytest.approx(0.0, abs=1e-12)


def test_single_photon_three_steps_frozen_distribution():
    # H-restricted weights (1/8, 1/2, 1/8, 0), renormalized
    dist = run_one_fold(ideal_spec(3))
    assert dist.probs[0] == pytest.approx(1.0 / 6.0, abs=1e-10)
    assert dist.probs[1] == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert dist.probs[2] == pytest.approx(1.0 / 6.0, abs=1e-10)
    assert dist.probs[3] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n_steps", [2, 5, 8])
def test_single_photon_distribution_matches_walk_column(n_steps):
    dist = run_one_fold(ideal_spec(n_steps))
    expected = h_restricted_column(WalkConfig.uniform(n_steps, transmission=1.0))
    assert np.allclose(dist.probs, expected, atol=1e-10)


def test_one_fold_normalization_flag():
    dist = run_one_fold(ideal_spec(2))
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
    dist = run_two_fold(spec)
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
        run_one_fold(spec)


def test_three_fold_is_bounded_by_two_fold():
    base = dict(
        walk=WalkConfig.uniform(2),
        mu_alpha=0.3,
        mu_xi=0.026,
        overlap=0.9,
        heralded=False,
    )
    two = run_two_fold(ExperimentSpec(kind="two-fold", **base))
    three = run_three_fold_partial(ExperimentSpec(kind="three-fold", **base))
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
        return run_two_fold(spec).raw

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
    assert run_two_fold(spec) == run_two_fold(spec)


def test_hom_visibility_grows_with_overlap():
    spec = ExperimentSpec(walk=WalkConfig.uniform(1), kind="hom", mu_alpha=0.1)
    values = [hom_visibility(spec, o) for o in (0.0, 0.3, 0.6, 1.0)]
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_hom_scan_packaging():
    spec = ExperimentSpec(walk=WalkConfig.uniform(1), kind="hom", mu_alpha=0.1)
    dist = hom_scan(spec, (0.0, 0.5, 1.0))
    assert dist.kind == "hom"
    assert dist.normalization == "RawPattern"
    assert dist.labels == (0.0, 0.5, 1.0)
    assert dist.probs[0] == pytest.approx(0.0, abs=1e-12)
    assert dist.raw[0] == pytest.approx(hom_coincidence(spec, 0.0), rel=1e-12)


def test_fit_overlap_reaches_target_visibility():
    spec = ExperimentSpec(walk=WalkConfig.uniform(1), kind="hom", mu_alpha=0.1)
    overlap, visibility = fit_overlap(spec, target=0.70, tol=1e-4)
    assert abs(visibility - 0.70) <= 1e-4
    assert 0.0 < overlap < 1.0
    assert hom_visibility(spec, overlap) == pytest.approx(visibility)


def test_fit_overlap_rejects_unreachable_targets():
    spec = ExperimentSpec(walk=WalkConfig.uniform(1), kind="hom", mu_alpha=0.1)
    with pytest.raises(ConfigInvalid):
        fit_overlap(spec, target=0.999)


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
        direct = run_one_fold(
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


# -- batched scans against the dense per-point route --------------------------


def dense_scan(spec):
    """Raw values of the scan from `_gate_point` + ClickCalculator, point by point."""
    scan = _SCANS[spec.kind]
    return _dense_raw(scan, spec, _stage(spec), scan.labels(spec.walk.n_steps))


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


def test_batched_scans_match_the_dense_route():
    worst = 0.0
    for spec in batched_cases():
        raw = batched_scan(spec)
        reference = dense_scan(spec)
        assert len(raw) == len(reference)
        worst = max(worst, max(abs(a - b) for a, b in zip(raw, reference)))
    assert worst <= 1e-12


def test_scans_pick_their_route_by_register_size():
    # up to 7 time bins point by point on the dense route, from 8 batched
    rng = np.random.default_rng(5)
    for n, kind in itertools.product((6, 7), SCAN_KINDS):
        spec = ExperimentSpec(walk=random_walk(rng, n), kind=kind, mu_alpha=0.3, overlap=0.6)
        raw = run_experiment(spec).raw
        assert raw == tuple((batched_scan if n == 7 else dense_scan)(spec))
        assert np.allclose(raw, dense_scan(spec), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n_steps", [2, 7])
def test_dead_idler_refuses_heralded_scans(n_steps):
    spec = ExperimentSpec(walk=WalkConfig.uniform(n_steps), kind="two-fold", eta_idler=0.0)
    with pytest.raises(ZeroHeraldRate):
        run_two_fold(spec)


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


def h_output(u, reg, m, source):
    return abs(u[reg.flatten(ModeIndex(Pol.H, m, 0)), reg.flatten(source)]) ** 2


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
    reg = ModeRegistry.for_walk(spec.walk.bin_capacity)
    expected = [
        -np.expm1(-eta * mu * h_output(u, reg, m, ModeIndex(Pol.V, 1, 0)))
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
    reg = ModeRegistry.for_walk(spec.walk.bin_capacity)
    x = np.array(
        [eta * mu * h_output(u, reg, m, ModeIndex(Pol.H, 1, 0)) for m in range(1, n_steps + 2)]
    )
    assert np.allclose(batched_scan(spec), x / (1.0 + x), rtol=1e-12, atol=0.0)
