"""End-to-end acceptance checks, one test per shipped guarantee.

Run `pytest -v tests/test_acceptance.py` to get a one-line verdict per
guarantee; add `-s` for the measured numbers behind each verdict.  The
checks pin the tolerances and runtime budgets the README advertises, so
a regression in accuracy or speed fails here before it reaches users.
"""

import itertools
import math
import time

import numpy as np
import pytest

from qwalk.cli import main
from qwalk.detection import APD_NAMES, scan_patterns
from qwalk.experiments import (
    NORMALIZED,
    ExperimentSpec,
    _hom_clicks,
    _sources,
    _stage,
    fit_overlap,
    run_experiment,
    step_evolution,
    verify_against_oracle,
)
from qwalk.fock import OracleSettings, SourceSpec, ThresholdOracle
from qwalk.gaussian import classicality_eigenvalues, prepare
from qwalk.modes import ModeIndex, Pol, flat_index
from qwalk.walk import LayerParams, WalkConfig, walk_unitary

SIGNAL = ModeIndex(Pol.H, 1, 0)


def random_walk(rng, n_steps, transmission=1.0):
    layers = tuple(
        LayerParams(
            omega=float(rng.uniform(0.0, 2.0 * math.pi)),
            gamma=float(rng.uniform(0.0, 2.0 * math.pi)),
            transmission=transmission,
        )
        for _ in range(n_steps)
    )
    return WalkConfig(n_steps=n_steps, layers=layers)


def h_restricted_column(walk):
    """Renormalized |walk column|^2 of the (H, t1) input over H outputs."""
    u = walk_unitary(walk)
    bins = walk.bin_capacity
    col = u[:, flat_index(SIGNAL, bins)]
    weights = np.array(
        [
            abs(col[flat_index(ModeIndex(Pol.H, m, 0), bins)]) ** 2
            for m in range(1, walk.n_steps + 2)
        ]
    )
    return weights / weights.sum()


@pytest.fixture(scope="session")
def fitted_overlap():
    """Overlap whose simulated HOM visibility hits 0.70 at the source point."""
    spec = ExperimentSpec(
        walk=WalkConfig.uniform(1),
        kind="hom",
        mu_alpha=0.1,
        mu_xi=0.026,
    )
    return fit_overlap(spec, target=0.70, tol=1e-4)


def test_01_walk_unitarity_for_random_programs():
    rng = np.random.default_rng(20260816)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 12))
        u = walk_unitary(random_walk(rng, n))
        gram = u.conj().T @ u
        worst = max(worst, float(np.abs(gram - np.eye(u.shape[0])).max()))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 1.0
    print(
        f"\nwalk unitarity: max |U^H U - I| = {worst:.3e} "
        f"over 100 random programs up to N=11 in {elapsed:.3f} s  PASS"
    )


def test_02_gaussian_route_matches_fock_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    worst_leak = 0.0
    compared = 0
    grid = itertools.product(
        (1, 2, 3),
        (0.1, 0.3),
        (0.0, 0.7, 1.0),
        (0.97, 1.0),
        ("one-fold", "two-fold", "three-fold"),
        (True, False),
    )
    for n, mu_alpha, overlap, eta_kerr, kind, heralded in grid:
        report = verify_against_oracle(
            ExperimentSpec(
                walk=WalkConfig.uniform(n),
                kind=kind,
                mu_alpha=mu_alpha,
                mu_xi=0.026,
                overlap=overlap,
                eta_kerr=eta_kerr,
                heralded=heralded,
            )
        )
        worst = max(worst, report.max_abs_diff)
        worst_leak = max(worst_leak, report.truncation_leak)
        compared += report.comparisons
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6
    assert worst_leak < 1e-9
    assert elapsed < 120.0
    print(
        f"\noracle agreement: max |Gaussian - Fock| = {worst:.3e} over "
        f"{compared} pattern probabilities (leak {worst_leak:.1e}) "
        f"in {elapsed:.1f} s  PASS"
    )


def test_03_heralded_single_photon_reproduces_walk_columns():
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in range(1, 12):
        for walk in (
            WalkConfig.uniform(n, transmission=1.0),
            random_walk(rng, n),
        ):
            dist = run_experiment(
                ExperimentSpec(
                    walk=walk,
                    kind="one-fold",
                    mu_alpha=0.0,
                    eta_kerr=1.0,
                    ideal_herald=True,
                )
            )
            expected = h_restricted_column(walk)
            worst = max(
                worst,
                max(abs(p - e) for p, e in zip(dist.probs, expected)),
            )
    assert worst < 1e-9
    print(
        f"\nsingle-photon walk identity: max deviation from renormalized "
        f"|U column|^2 = {worst:.3e} over N = 1..11  PASS"
    )


def test_04_hom_null_and_visibility_fit(fitted_overlap):
    # two indistinguishable single photons on the N=1 splitter: the
    # two-arm coincidence must vanish identically
    oracle = ThresholdOracle(
        (
            SourceSpec("fock1", ModeIndex(Pol.H, 1, 0), 1.0),
            SourceSpec("fock1", ModeIndex(Pol.V, 1, 0), 1.0),
        ),
        WalkConfig.uniform(1, transmission=1.0),
        detector_labels={
            "APD1": (),
            "APD2": ((Pol.V, 2),),
            "APD3": (),
            "APD4": ((Pol.H, 1),),
        },
    )
    (null,) = oracle.pattern_prob(("APD2", "APD4"))
    assert null < 1e-12

    overlap, visibility = fitted_overlap
    assert 0.0 < overlap < 1.0
    assert abs(visibility - 0.70) <= 0.001
    print(
        f"\nHOM: ideal-photon coincidence null = {null:.3e}; fitted "
        f"overlap {overlap:.6f} gives visibility {visibility:.6f}  PASS"
    )


def test_05_heralding_concentrates_two_fold_patterns(fitted_overlap):
    o_star, _ = fitted_overlap
    ratios = []
    for mu_alpha in (0.1, 0.24, 0.95):
        common = dict(
            walk=WalkConfig.uniform(11),
            kind="two-fold",
            mu_alpha=mu_alpha,
            mu_xi=0.026,
            overlap=o_star,
            eta_kerr=0.97,
        )
        heralded = run_experiment(ExperimentSpec(heralded=True, **common))
        unheralded = run_experiment(ExperimentSpec(heralded=False, **common))
        ratios.append(max(heralded.raw) / max(unheralded.raw))
    assert all(r > 1.0 for r in ratios)
    assert ratios[0] > ratios[1] > ratios[2]
    print(
        "\nclustering trend at N=11: heralded/unheralded peak ratios "
        + " > ".join(f"{r:.2f}" for r in ratios)
        + " for mu_alpha = 0.1, 0.24, 0.95  PASS"
    )


def test_06_squashed_source_sits_on_the_classical_boundary():
    squashed = prepare((SourceSpec("squashed", SIGNAL, 0.026),), bins=1)
    tmsv = prepare((SourceSpec("tmsv", SIGNAL, 0.026),), bins=1)
    floor_squashed = float(classicality_eigenvalues(squashed).min())
    floor_tmsv = float(classicality_eigenvalues(tmsv).min())
    assert floor_squashed >= -1e-10
    assert floor_tmsv < -1e-10

    common = dict(
        walk=WalkConfig.uniform(3),
        kind="two-fold",
        mu_alpha=0.1,
        mu_xi=0.026,
        overlap=0.9,
        eta_kerr=0.97,
        heralded=True,
    )
    peaks = {
        source: max(
            run_experiment(ExperimentSpec(pair_source=source, **common)).raw
        )
        for source in ("tmsv", "squashed")
    }
    assert peaks["tmsv"] > peaks["squashed"]
    print(
        f"\nclassicality: min eig(cov - I/2) squashed = {floor_squashed:.1e} "
        f"(>= 0), tmsv = {floor_tmsv:.3f} (< 0); heralded two-fold peak "
        f"tmsv {peaks['tmsv']:.3e} > squashed {peaks['squashed']:.3e}  PASS"
    )


def test_07_click_pattern_space_is_complete():
    spec = ExperimentSpec(
        walk=WalkConfig.uniform(2),
        kind="two-fold",
        mu_alpha=0.3,
        mu_xi=0.026,
        overlap=0.7,
        eta_kerr=0.97,
    )
    inputs = _stage(spec).inputs
    subsets = [d for r in range(len(APD_NAMES) + 1) for d in itertools.combinations(APD_NAMES, r)]

    def full_patterns(marginal: dict) -> list:
        # each full pattern by Moebius inversion of the marginal-click
        # queries, P(exactly C click) = sum over D >= C of
        # (-1)^|D - C| P(every detector in D clicks)
        return [
            sum((-1) ** (len(d) - len(c)) * q for d, q in marginal.items() if set(c) <= set(d))
            for c in marginal
        ]

    # the scans' gate layouts, gates on bin 2 (one-fold), bins 1 and 3
    # (two-fold) and bins 1 and 2 (three-fold), unheralded; then the HOM layout
    gate_layouts = ((0, 2), (1, 3), (1, 2))
    layouts = [
        {d: scan_patterns(inputs, [slots], spec.eta_kerr, d)[0] for d in subsets}
        for slots in gate_layouts
    ]
    layouts.append({d: _hom_clicks(inputs, (spec.overlap,), d)[0] for d in subsets})
    worst = max(abs(sum(full_patterns(marginal)) - 1.0) for marginal in layouts)
    assert worst < 1e-9

    # the sum is 1 whatever the marginals are, so each gate layout's full
    # patterns are also checked one by one, against the Fock oracle
    oracle = ThresholdOracle(
        _sources(spec), spec.walk, settings=OracleSettings(leak_target=1e-12)
    )
    worst_fock = 0.0
    for slots, marginal in zip(gate_layouts, layouts):
        routed = oracle.scan([slots], spec.eta_kerr)
        for clicked, p in zip(marginal, full_patterns(marginal)):
            silent = tuple(d for d in APD_NAMES if d not in clicked)
            (fock,) = routed.pattern_prob(clicked, silent)
            assert p >= -1e-12, (slots, clicked, p)
            worst_fock = max(worst_fock, abs(p - fock))
    assert worst_fock < 1e-9, worst_fock

    worst_dist = 0.0
    checked = 0
    for kind in ("one-fold", "two-fold", "three-fold"):
        for heralded in (True, False):
            dist = run_experiment(
                ExperimentSpec(
                    walk=spec.walk,
                    kind=kind,
                    mu_alpha=spec.mu_alpha,
                    mu_xi=spec.mu_xi,
                    overlap=spec.overlap,
                    eta_kerr=spec.eta_kerr,
                    heralded=heralded,
                )
            )
            assert dist.normalization == NORMALIZED
            assert not dist.undefined
            worst_dist = max(worst_dist, abs(sum(dist.probs) - 1.0))
            checked += 1
    for dist in step_evolution(spec, inner_kind="one-fold"):
        assert dist.normalization == NORMALIZED
        worst_dist = max(worst_dist, abs(sum(dist.probs) - 1.0))
        checked += 1
    assert worst_dist < 1e-9
    print(
        f"\ncompleteness: 16-pattern sums within {worst:.1e} of 1 for all "
        f"four layouts, gate layouts' patterns within {worst_fock:.1e} of Fock; "
        f"{checked} normalized distributions within "
        f"{worst_dist:.1e} of 1  PASS"
    )


def test_08_scan_runtime_budgets():
    common = dict(
        walk=WalkConfig.uniform(11),
        kind="two-fold",
        mu_alpha=0.24,
        mu_xi=0.026,
        overlap=0.9,
        eta_kerr=0.97,
    )
    t0 = time.perf_counter()
    run_experiment(ExperimentSpec(heralded=True, **common))
    run_experiment(ExperimentSpec(heralded=False, **common))
    two_fold_s = time.perf_counter() - t0

    spec = ExperimentSpec(
        walk=WalkConfig.uniform(11),
        kind="one-fold",
        mu_alpha=0.24,
        mu_xi=0.026,
        overlap=0.9,
        eta_kerr=0.97,
    )
    t1 = time.perf_counter()
    series = step_evolution(spec, inner_kind="one-fold")
    steps_s = time.perf_counter() - t1

    large = dict(common, walk=WalkConfig.uniform(25))
    t2 = time.perf_counter()
    run_experiment(ExperimentSpec(heralded=True, **large))
    run_experiment(ExperimentSpec(**dict(large, kind="three-fold", heralded=False)))
    large_s = time.perf_counter() - t2

    assert two_fold_s < 10.0
    assert len(series) == 11
    assert steps_s < 5.0
    assert large_s < 1.0
    print(
        f"\nruntime: N=11 two-fold heralded+unheralded in {two_fold_s:.2f} s "
        f"(budget 10 s); step evolution 1..11 in {steps_s:.2f} s "
        f"(budget 5 s); N=25 heralded two-fold + unheralded three-fold in "
        f"{large_s:.2f} s (budget 1 s)  PASS"
    )


def test_09_reruns_are_byte_identical(tmp_path):
    two_fold_yaml = """\
experiment:
  kind: two-fold
  walk:
    n_steps: 3
  mu_alpha: 0.24
  mu_xi: 0.026
  overlap: 0.9
  eta_kerr: 0.97
"""
    step_yaml = """\
experiment:
  kind: step-evolution
  walk:
    n_steps: 4
  mu_alpha: 0.1
  step:
    inner_kind: two-fold
output:
  format: json
"""
    checked = []
    for name, text in (("two_fold", two_fold_yaml), ("steps", step_yaml)):
        config = tmp_path / f"{name}.yaml"
        config.write_text(text)
        first = tmp_path / f"{name}_a.out"
        second = tmp_path / f"{name}_b.out"
        assert main(["simulate", "--config", str(config), "--out", str(first)]) == 0
        assert main(["simulate", "--config", str(config), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        checked.append(f"{name} ({len(first.read_bytes())} bytes)")
    print(
        "\ndeterminism: byte-identical reruns for "
        + " and ".join(checked)
        + "  PASS"
    )
