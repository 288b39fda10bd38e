"""Relative accuracy of batched scans against 50-digit arithmetic.

The reference evaluates the same per-bin closed form as the engine
(detection._p0_excess) with mpmath, on the engine's own walk amplitudes, so
it measures the round-off of double precision and nothing else; the
physics is checked against the dense route and the Fock oracle elsewhere.
"""

import itertools

import mpmath
import numpy as np
import pytest

from qwalk.experiments import _SCANS, ExperimentSpec, _stage, run_experiment
from qwalk.walk import LayerParams, WalkConfig

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
    """Raw two- or three-fold scan values at 50 digits from the stage's amplitudes."""
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
        for m1, m2 in scan.labels(spec.walk.n_steps):
            one, two = per_bin[m1 - 1], per_bin[m2 - 1]
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
