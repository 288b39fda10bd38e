"""Accuracy of scans against 50-digit arithmetic.

The reference evaluates the same per-bin closed form as the engine
(detection._p0_excess) with mpmath, on the engine's own walk amplitudes, so
it measures the round-off of double precision and nothing else; the
physics is checked against the dense route and the Fock oracle elsewhere,
and at the end of this file against the closed form of a lone photon.
"""

import itertools
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from qwalk.errors import SingularMatrix
from qwalk.experiments import _SCANS, ExperimentSpec, _batched_raw, _stage, run_experiment
from qwalk.modes import ModeIndex, Pol, flat_index
from qwalk.walk import LayerParams, WalkConfig, aggregate_transmission, walk_columns

PAPER_POINT = dict(mu_alpha=0.24, mu_xi=0.026, overlap=0.897461, eta_kerr=0.97)


def paper_spec(seed: int, kind: str, heralded: bool, n_steps: int = 25) -> ExperimentSpec:
    """A seeded coin program at the paper's operating point."""
    rng = np.random.default_rng(seed)
    layers = tuple(
        LayerParams(omega=float(rng.uniform(0.3, 1.3)), gamma=float(rng.uniform(0.0, 2 * np.pi)))
        for _ in range(n_steps)
    )
    return ExperimentSpec(
        walk=WalkConfig(n_steps, layers), kind=kind, heralded=heralded, **PAPER_POINT
    )


def reference_raw(spec: ExperimentSpec) -> list:
    """Raw scan values at 50 digits from the stage's amplitudes."""
    with mpmath.workdps(50):
        inputs = _stage(spec).inputs
        bins = spec.walk.bin_capacity
        mu, eta = mpmath.mpf(inputs.mu), mpmath.mpf(spec.eta_kerr)
        root = mpmath.sqrt(mpmath.mpf(inputs.overlap))
        u = [mpmath.mpc(complex(x)) for x in inputs.signal[:bins]]
        beta = [mpmath.mpc(complex(x)) for x in inputs.coherent[:bins]]
        # per bin: |u|^2, sqrt(overlap) conj(u) beta, |beta|^2
        per_bin = [(abs(x) ** 2, root * mpmath.conj(x) * y, abs(y) ** 2) for x, y in zip(u, beta)]
        total = [mpmath.fsum(p[k] for p in per_bin) for k in range(3)]

        def p0(a, z, e, h):
            if inputs.source == "tmsv":
                delta = mu * (a + h - a * h)
                kappa = mu * (1 - h) / (1 + delta)
            else:
                delta = mu * (a + h)
                kappa = mu / (1 + delta)
            return mpmath.exp(-e + kappa * abs(z) ** 2) / (1 + delta)

        scan = _SCANS[spec.kind]
        clicked = scan.clicked
        h_idler = mpmath.mpf(inputs.idler) if spec.heralded else 0
        if spec.heralded:
            clicked = ("APD1",) + clicked
        raw = []
        for slot in scan.slots(scan.labels(spec.walk.n_steps)):
            one, two = (per_bin[m - 1] if m else (0, 0, 0) for m in slot)  # 0: a dark gate
            joint = mpmath.mpf(0)
            for r in range(len(clicked) + 1):
                for subset in itertools.combinations(clicked, r):
                    sums = [
                        ("APD2" in subset) * (total[k] - eta * one[k] - eta * two[k])
                        + ("APD3" in subset) * eta * one[k]
                        + ("APD4" in subset) * eta * two[k]
                        for k in range(3)
                    ]
                    h = h_idler if "APD1" in subset else 0
                    joint += (-1) ** r * p0(*sums, h)
            raw.append(joint)
        if spec.heralded:
            raw = [x / (1 - p0(0, 0, 0, h_idler)) for x in raw]
        return raw


def relative_errors(spec: ExperimentSpec) -> np.ndarray:
    """|engine / reference - 1| at the points >= 1e-6 of the scan's peak."""
    reference = reference_raw(spec)
    peak = max(reference)
    with mpmath.workdps(50):
        return np.array(
            [
                float(abs(mpmath.mpf(x) / y - 1))
                for x, y in zip(run_experiment(spec).raw, reference)
                if y >= peak * mpmath.mpf("1e-6")
            ]
        )


@pytest.mark.parametrize("seed", (3, 4))
@pytest.mark.parametrize("kind, heralded", [("two-fold", True), ("three-fold", False)])
def test_paper_point_scans_match_50_digit_closed_form(seed, kind, heralded):
    errors = relative_errors(paper_spec(seed, kind, heralded))
    assert len(errors) > 100
    assert errors.max() <= 5e-8


@pytest.mark.parametrize("mu_xi", (1e12, 1e13))
@pytest.mark.parametrize("heralded", (True, False))
def test_bright_pair_scans_match_50_digit_closed_form(mu_xi, heralded):
    # the pair's 1 + delta grows with mu_xi but stays >= 1, so the closed form
    # keeps full precision however ill-conditioned cov + I/2 becomes
    spec = replace(paper_spec(1, "three-fold", heralded, n_steps=11), mu_xi=mu_xi)
    errors = relative_errors(spec)
    assert len(errors) > 50
    assert errors.max() <= 1e-9


@pytest.mark.parametrize("heralded", (True, False))
@pytest.mark.parametrize("pair_source", ("tmsv", "squashed"))
@pytest.mark.parametrize("mu_xi, rtol", [(1e12, 2e-3), (1e13, 1e-2), (1e15, 0.5), (1e16, None)])
def test_both_routes_match_50_digit_closed_form_at_bright_pair_sources(
    mu_xi, rtol, pair_source, heralded
):
    # scans of N <= 6 steps run on the dense route; here both routes are held
    # to the 50-digit value.  Most values lie within ~1/mu_xi of 1, a double
    # holds such a value's complement only to ~1e-16, so the complements are
    # held to `rtol` relative (worst seen: 1.1e-3, 6.4e-3, 0.25, both routes).
    # From mu_xi ~ 5e15 the dense route refuses some scans as SingularMatrix
    # (13 of 18 heralded at 1e16), but returns no value further off.
    refused = 0
    for n, kind in itertools.product(range(1, 7), ("one-fold", "two-fold", "three-fold")):
        spec = paper_spec(n, kind, heralded, n_steps=n)
        spec = replace(spec, mu_xi=mu_xi, pair_source=pair_source)
        scan = _SCANS[kind]
        routes = [_batched_raw(scan, spec, _stage(spec), scan.labels(n))]
        try:
            routes.append(run_experiment(spec).raw)
        except SingularMatrix:
            refused += 1
        reference = reference_raw(spec)
        with mpmath.workdps(50):
            for raw in routes:
                values = [mpmath.mpf(x) for x in raw]
                assert max(abs(x - y) for x, y in zip(values, reference)) <= 2e-15
                if rtol is not None:
                    complements = [abs((1 - x) / (1 - y) - 1) for x, y in zip(values, reference)]
                    assert max(complements) <= rtol
    assert refused == 0 or rtol is None


def test_gates_on_the_bin_without_h_light_give_exactly_zero():
    # N steps leave no H light on bin N + 1, so gate 2 there cannot click;
    # these points once came back as round-off of up to 2.2e-15
    for seed in (1, 2):
        for kind, heralded in [("two-fold", True), ("three-fold", True), ("three-fold", False)]:
            spec = paper_spec(seed, kind, heralded)
            inputs = _stage(spec).inputs
            assert inputs.signal[25] == inputs.coherent[25] == 0.0
            dist = run_experiment(spec)
            dark = [r for (_, m2), r in zip(dist.labels, dist.raw) if m2 == 26]
            assert dark == [0.0] * 25
            assert min(r for (_, m2), r in zip(dist.labels, dist.raw) if m2 < 26) > 0.0


# -- the ideal-herald photon alone: a closed form at any N ----------------------


def lone_photon_spec(n_steps: int, kind: str) -> ExperimentSpec:
    """The heralded photon alone (mu_alpha = 0) through a seeded random coin
    program with lossy crystals, system loss and lossy gates."""
    rng = np.random.default_rng(n_steps)
    layers = tuple(
        LayerParams(
            omega=float(rng.uniform(0.0, np.pi)),
            gamma=float(rng.uniform(0.0, 2 * np.pi)),
            transmission=float(rng.uniform(0.95, 1.0)),
        )
        for _ in range(n_steps)
    )
    return ExperimentSpec(
        walk=WalkConfig(n_steps, layers), kind=kind, mu_alpha=0.0, ideal_herald=True,
        eta_kerr=0.9, eta_sys=0.8,
    )


@pytest.mark.parametrize("n_steps", (101, 301))
def test_lone_photon_one_fold_is_its_walk_column(n_steps):
    # gate 2 on bin m routes eta_K of the photon's (H, t_m) share, eta_K T |u_m|^2
    spec = lone_photon_spec(n_steps, "one-fold")
    bins = spec.walk.bin_capacity
    photon = np.zeros((2 * bins, 1))
    photon[flat_index(ModeIndex(Pol.H, 1), bins)] = 1.0
    u = walk_columns(spec.walk, photon)[:bins, 0]
    transmission = aggregate_transmission(spec.walk) * spec.eta_sys
    expected = spec.eta_kerr * transmission * (u.real**2 + u.imag**2)
    raw = np.array(run_experiment(spec).raw)
    assert (np.abs(raw - expected) <= 1e-12 * expected).all()


@pytest.mark.parametrize("n_steps", (101, 301))
def test_lone_photon_two_fold_is_exactly_zero(n_steps):
    # one photon cannot click two gates
    dist = run_experiment(lone_photon_spec(n_steps, "two-fold"))
    assert set(dist.raw) == {0.0}
    assert dist.undefined


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: the bucket's H total minus both gates' shares leaves "
    "round-off, which is returned as a normalized distribution",
)
@pytest.mark.parametrize("n_steps", (101, 301))
def test_lone_photon_three_fold_is_exactly_zero(n_steps):
    # one photon cannot click three detectors
    dist = run_experiment(lone_photon_spec(n_steps, "three-fold"))
    assert set(dist.raw) == {0.0}
    assert dist.undefined
