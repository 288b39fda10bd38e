"""Experiment presets over the walk + detection pipeline.

Each preset assembles the same physical chain: sources at the t_1 input
(pair signal on H, attenuated coherent light on V), the sector-extended
walk, crystal and system loss, idler loss, Kerr routing, and one of the
APD click patterns.  Scans over gate positions return labeled
distributions; the HOM preset and the overlap fitter drive the same
chain with both gates off.

The mode-overlap between the coherent light and the heralded photon is
modeled by splitting the coherent amplitude over two internal sectors
that never interfere; `overlap` is the squared fraction riding in the
photon's sector.

With `ideal_herald` the pair source is replaced by its vanishing-gain
limit: probabilities are conditioned on exactly one signal photon
entering the walk, computed in closed form (see
detection.ClickCalculator.single_photon) instead of at small finite gain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .detection import (
    APD_NAMES,
    ClickCalculator,
    ClickPattern,
    Detector,
    DetectorLayout,
    GateSpec,
    build_layout,
    scan_patterns,
)
from .errors import ConfigInvalid
from .fock import OracleSettings, ThresholdOracle
from .gaussian import (
    GaussianState,
    LowRankState,
    SourceSpec,
    apply_loss,
    apply_passive,
    prepare,
)
from .modes import ModeIndex, Pol
from .walk import (
    WalkConfig,
    aggregate_transmission,
    sector_extend,
    step_unitary,
    walk_unitary,
)

__all__ = [
    "EXPERIMENT_KINDS",
    "ExperimentSpec",
    "Distribution",
    "run_one_fold",
    "run_two_fold",
    "run_three_fold_partial",
    "run_experiment",
    "hom_coincidence",
    "hom_visibility",
    "hom_scan",
    "fit_overlap",
    "step_evolution",
    "OracleReport",
    "verify_against_oracle",
]

EXPERIMENT_KINDS = ("one-fold", "two-fold", "three-fold", "hom", "step-evolution")
_PAIR_SOURCES = ("tmsv", "squashed")

NORMALIZED = "NormalizedOverOutcomes"
RAW_PATTERN = "RawPattern"


@dataclass(frozen=True)
class ExperimentSpec:
    """Physical parameters of one run; `kind` picks the preset."""

    walk: WalkConfig
    kind: str = "one-fold"
    mu_alpha: float = 0.1
    mu_xi: float = 0.026
    overlap: float = 1.0
    eta_kerr: float = 0.97
    eta_idler: float = 1.0
    eta_sys: float = 1.0
    heralded: bool = True
    pair_source: str = "tmsv"
    ideal_herald: bool = False

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigInvalid(f"unknown experiment kind {self.kind!r}")
        if self.pair_source not in _PAIR_SOURCES:
            raise ConfigInvalid(f"unknown pair source {self.pair_source!r}")
        for name in ("mu_alpha", "mu_xi"):
            if getattr(self, name) < 0:
                raise ConfigInvalid(f"{name} must be >= 0")
        if not 0.0 <= self.overlap <= 1.0:
            raise ConfigInvalid(f"overlap must lie in [0, 1], got {self.overlap}")
        for name in ("eta_kerr", "eta_idler", "eta_sys"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigInvalid(f"{name} must lie in [0, 1], got {value}")
        if self.ideal_herald and not self.heralded:
            raise ConfigInvalid("ideal_herald only makes sense for heralded runs")
        if self.kind == "three-fold" and self.walk.n_steps < 1:
            raise ConfigInvalid(
                "three-fold readout needs two distinct gate bins, so at least one step"
            )
        if self.kind == "hom" and self.walk.n_steps != 1:
            raise ConfigInvalid("the HOM preset runs on a single-step walk")


@dataclass(frozen=True)
class Distribution:
    """Labeled outcome probabilities of one scan.

    `raw` holds the pattern probabilities as computed (conditioned on
    the herald when the run is heralded); `probs` renormalizes them over
    the reported outcome set.  When every raw value is zero the
    normalization is undefined and `probs` stays all-zero with the flag
    set.
    """

    kind: str
    labels: tuple
    probs: tuple
    raw: tuple
    normalization: str = NORMALIZED
    undefined: bool = False
    step: int | None = None


def _normalize(raw) -> tuple:
    raw = tuple(float(x) for x in raw)
    total = sum(raw)
    if total <= 0.0:
        return tuple(0.0 for _ in raw), True
    return tuple(x / total for x in raw), False


def _sources(spec: ExperimentSpec) -> tuple:
    out = []
    if not spec.ideal_herald and spec.mu_xi > 0.0:
        out.append(
            SourceSpec(spec.pair_source, ModeIndex(Pol.H, 1, 0), spec.mu_xi)
        )
    if spec.mu_alpha > 0.0:
        out.append(
            SourceSpec(
                "coherent",
                ModeIndex(Pol.V, 1, 0),
                spec.mu_alpha,
                overlap=spec.overlap,
            )
        )
    return tuple(out)


@dataclass
class _Stage:
    """Register after the walk and all loss, before any routing.

    Holds the sources, the prepared states (theirs, then the ideal-herald
    probes) and the optics; each form is built on first use.  `state` and
    `probes` are dense, for the HOM preset and the per-point route;
    `low_rank` is the factor [V | d | probes] that batched scans use.
    """

    sources: tuple
    prepared: list
    unitary: np.ndarray
    losses: list  # (transmission, modes) pairs

    @cached_property
    def _dense(self) -> list:
        states = [apply_passive(s, self.unitary) for s in self.prepared]
        for eta, modes in self.losses:
            states = [apply_loss(s, eta, modes) for s in states]
        return states

    @property
    def state(self) -> GaussianState:
        return self._dense[0]

    @property
    def probes(self) -> tuple:
        return tuple(self._dense[1:])

    @cached_property
    def low_rank(self) -> LowRankState:
        registry = self.prepared[0].registry
        probes = [p.mean for p in self.prepared[1:]]
        state = LowRankState.of(self.sources, registry, probes)
        state = state.passive(self.unitary)
        for eta, modes in self.losses:
            state = state.loss(eta, modes)
        return state


# Registers of up to 7 time bins (walks of up to 6 steps by default) are
# scanned point by point on the dense route, with the walk unitary formed
# as a product of dense steps.  Their values then stay bit-identical to
# earlier releases and to the stored references in perfbench/, which
# carry that route's round-off: up to 1e-8 on tiny normalized three-fold
# rates, and a whole normalized distribution built from round-off on
# one-step coincidence scans that are exactly zero.
_DENSE_MAX_BINS = 7


def _walk_unitary(walk: WalkConfig) -> np.ndarray:
    """walk_unitary, but as the dense step product on the dense route's registers."""
    bins = walk.bin_capacity
    if bins > _DENSE_MAX_BINS:
        return walk_unitary(walk)
    u = np.eye(2 * bins, dtype=complex)
    for layer in walk.layers:
        u = step_unitary(layer, bins) @ u
    return u


def _stage(spec: ExperimentSpec) -> _Stage:
    bins = spec.walk.bin_capacity
    sources = _sources(spec)
    state = prepare(sources, bins=bins)
    registry = state.registry
    m = len(registry)

    states = [state]
    if spec.ideal_herald:
        # unit probes along the signal quadratures; their pushed-through
        # means are the columns of the injection map
        signal = registry.flatten(ModeIndex(Pol.H, 1, 0))
        for offset in (0, 1):
            mean = np.zeros(2 * m)
            mean[2 * signal + offset] = 1.0
            states.append(GaussianState(registry, mean, 0.5 * np.eye(2 * m)))

    u = np.eye(m, dtype=complex)
    u[: 4 * bins, : 4 * bins] = sector_extend(_walk_unitary(spec.walk))

    losses = []
    eta_walk = aggregate_transmission(spec.walk) * spec.eta_sys
    if eta_walk < 1.0:
        losses.append((eta_walk, range(4 * bins)))
    idler = registry.idler_index()
    if idler is not None and spec.eta_idler < 1.0:
        losses.append((spec.eta_idler, (idler,)))
    return _Stage(sources, states, u, losses)


def _gate_point(stage: _Stage, gates) -> tuple:
    state, layout = build_layout(stage.state, gates)
    injection = None
    if stage.probes:
        columns = [build_layout(p, gates)[0].mean for p in stage.probes]
        injection = np.column_stack(columns)
    return ClickCalculator(state, layout), injection


@dataclass(frozen=True)
class _Scan:
    """One gate scan: its outcome labels, their gate slots, the clicks."""

    labels: Callable[[int], tuple]  # walk steps -> outcome labels
    slots: Callable[[object], tuple]  # label -> (gate 1 bin, gate 2 bin), None = dark
    clicked: tuple

    @property
    def pattern(self) -> ClickPattern:
        return ClickPattern(tuple(True if n in self.clicked else None for n in APD_NAMES))

    def gates(self, label, efficiency: float) -> tuple:
        return tuple(None if b is None else GateSpec(b, efficiency) for b in self.slots(label))


def _bins(n_steps: int) -> tuple:
    return tuple(range(1, n_steps + 2))


def _pairs(n_steps: int) -> tuple:
    return tuple(itertools.combinations(_bins(n_steps), 2))


_SCANS = {
    "one-fold": _Scan(_bins, lambda m: (None, m), ("APD4",)),
    "two-fold": _Scan(_pairs, lambda pair: pair, ("APD3", "APD4")),
    "three-fold": _Scan(_pairs, lambda pair: pair, ("APD2", "APD3", "APD4")),
}

def _dense_raw(scan: _Scan, spec: ExperimentSpec, stage: _Stage, labels) -> list:
    raw = []
    for label in labels:
        calc, injection = _gate_point(stage, scan.gates(label, spec.eta_kerr))
        if spec.ideal_herald:
            raw.append(calc.single_photon(scan.pattern, injection))
        elif spec.heralded:
            raw.append(calc.heralded(scan.pattern))
        else:
            raw.append(calc.pattern(scan.pattern))
    return raw


def _batched_raw(scan: _Scan, spec: ExperimentSpec, stage: _Stage, labels) -> np.ndarray:
    slots = [[b or 0 for b in scan.slots(label)] for label in labels]
    return scan_patterns(
        stage.low_rank,
        slots,
        spec.eta_kerr,
        scan.clicked,
        heralded=spec.heralded and not spec.ideal_herald,
    )


def _run_scan(kind: str, spec: ExperimentSpec) -> Distribution:
    scan = _SCANS[kind]
    labels = scan.labels(spec.walk.n_steps)
    route = _dense_raw if spec.walk.bin_capacity <= _DENSE_MAX_BINS else _batched_raw
    raw = route(scan, spec, _stage(spec), labels)
    probs, undefined = _normalize(raw)
    return Distribution(kind, labels, probs, tuple(map(float, raw)), NORMALIZED, undefined)


def run_one_fold(spec: ExperimentSpec) -> Distribution:
    """Bin-by-bin readout: gate 2 scans the output, APD4 clicks."""
    return _run_scan("one-fold", spec)


def run_two_fold(spec: ExperimentSpec) -> Distribution:
    """Pair readout: gates at (m1, m2), coincidence of APD3 and APD4."""
    return _run_scan("two-fold", spec)


def run_three_fold_partial(spec: ExperimentSpec) -> Distribution:
    """Like two-fold, but additionally requiring a click in the bucket
    of all remaining bins (APD2), which also collects gate leakage."""
    return _run_scan("three-fold", spec)


def run_experiment(spec: ExperimentSpec) -> Distribution:
    if spec.kind in _SCANS:
        return _run_scan(spec.kind, spec)
    raise ConfigInvalid(f"run_experiment does not handle kind {spec.kind!r}")


# -- HOM ----------------------------------------------------------------------


def _hom_layout(state: GaussianState) -> DetectorLayout:
    """Both gates off; the two N=1 output arms go to their own detectors.

    APD4 watches the (H, t1) arm and APD2 the (V, t2) arm, in both
    sectors, with the herald on APD1 as always.  APD3 is unused.
    """
    registry = state.registry
    idler = registry.idler_index()
    arm_h = frozenset(
        registry.flatten(ModeIndex(Pol.H, 1, s)) for s in (0, 1)
    )
    arm_v = frozenset(
        registry.flatten(ModeIndex(Pol.V, 2, s)) for s in (0, 1)
    )
    return DetectorLayout(
        (
            Detector("APD1", frozenset(() if idler is None else (idler,))),
            Detector("APD2", arm_v),
            Detector("APD3", frozenset()),
            Detector("APD4", arm_h),
        )
    )


_HOM_PATTERN = ClickPattern.of(apd1=True, apd2=True, apd4=True)


def hom_coincidence(spec: ExperimentSpec, overlap: float) -> float:
    """Raw herald + two-arm coincidence probability at the given overlap."""
    probe = replace(spec, kind="hom", overlap=overlap)
    stage = _stage(probe)
    calc = ClickCalculator(stage.state, _hom_layout(stage.state))
    return calc.pattern(_HOM_PATTERN)


def hom_visibility(spec: ExperimentSpec, overlap: float | None = None) -> float:
    o = spec.overlap if overlap is None else overlap
    reference = hom_coincidence(spec, 0.0)
    if reference <= 0.0:
        raise ConfigInvalid(
            "distinguishable coincidence rate is zero; visibility is undefined"
        )
    return 1.0 - hom_coincidence(spec, o) / reference


def hom_scan(spec: ExperimentSpec, overlaps) -> Distribution:
    """Coincidence and visibility over a list of overlap values.

    Packaged as a Distribution for uniform serialization: labels are the
    overlap values, `raw` the coincidence probabilities, and `probs` the
    visibilities (not a normalized set of outcomes).
    """
    overlaps = tuple(float(o) for o in overlaps)
    reference = hom_coincidence(spec, 0.0)
    if reference <= 0.0:
        raise ConfigInvalid(
            "distinguishable coincidence rate is zero; visibility is undefined"
        )
    raw = tuple(hom_coincidence(spec, o) for o in overlaps)
    vis = tuple(1.0 - c / reference for c in raw)
    return Distribution("hom", overlaps, vis, raw, RAW_PATTERN, False)


def fit_overlap(
    spec: ExperimentSpec,
    target: float = 0.70,
    tol: float = 1e-4,
    max_iter: int = 100,
) -> tuple:
    """Bisection for the overlap reproducing a target HOM visibility.

    Visibility grows monotonically with overlap for physical settings,
    so plain bisection on [0, 1] converges; returns (overlap,
    visibility).
    """
    reference = hom_coincidence(spec, 0.0)
    if reference <= 0.0:
        raise ConfigInvalid(
            "distinguishable coincidence rate is zero; visibility is undefined"
        )

    def visibility(o: float) -> float:
        return 1.0 - hom_coincidence(spec, o) / reference

    lo, hi = 0.0, 1.0
    v_hi = visibility(hi)
    if v_hi < target - tol:
        raise ConfigInvalid(
            f"target visibility {target} unreachable; maximum is {v_hi:.4f}"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        v = visibility(mid)
        if abs(v - target) <= tol:
            return mid, v
        if v < target:
            lo = mid
        else:
            hi = mid
    raise ConfigInvalid(
        f"overlap fit did not converge to |V - {target}| <= {tol}"
    )


# -- step-by-step evolution ---------------------------------------------------


def step_evolution(
    spec: ExperimentSpec,
    n_max: int | None = None,
    inner_kind: str = "one-fold",
) -> tuple:
    """One Distribution per walk prefix N = 1..n_max of the inner preset."""
    if inner_kind not in ("one-fold", "two-fold", "three-fold"):
        raise ConfigInvalid(f"step evolution cannot wrap kind {inner_kind!r}")
    n_max = spec.walk.n_steps if n_max is None else n_max
    if not 1 <= n_max <= spec.walk.n_steps:
        raise ConfigInvalid(
            f"n_max must lie in [1, {spec.walk.n_steps}], got {n_max}"
        )
    series = []
    for n in range(1, n_max + 1):
        sub = replace(spec, kind=inner_kind, walk=spec.walk.truncated(n))
        series.append(replace(run_experiment(sub), step=n))
    return tuple(series)


# -- oracle bridge ------------------------------------------------------------


@dataclass(frozen=True)
class OracleReport:
    """Worst-case disagreement between the two computation routes."""

    max_abs_diff: float
    comparisons: int
    truncation_leak: float


def _oracle_sources(spec: ExperimentSpec) -> tuple:
    if not spec.ideal_herald:
        return _sources(spec)
    out = [SourceSpec("fock1", ModeIndex(Pol.H, 1, 0), 1.0)]
    if spec.mu_alpha > 0.0:
        out.append(
            SourceSpec(
                "coherent",
                ModeIndex(Pol.V, 1, 0),
                spec.mu_alpha,
                overlap=spec.overlap,
            )
        )
    return tuple(out)


def _oracle_value(spec, oracle: ThresholdOracle, pattern: ClickPattern) -> float:
    if spec.ideal_herald:
        # the fock1 stand-in needs no herald: exactly one photon went in
        return oracle.pattern_prob(pattern)
    if spec.heralded:
        return oracle.heralded_prob(pattern)
    return oracle.pattern_prob(pattern)


def verify_against_oracle(
    spec: ExperimentSpec,
    settings: OracleSettings = OracleSettings(),
    cutoff: int | None = None,
) -> OracleReport:
    """Recompute every raw pattern probability of the preset in Fock space.

    Returns the maximum absolute difference across scan points along
    with the oracle's truncation leak, so callers can judge both routes'
    agreement against their tolerance.
    """
    sources = _oracle_sources(spec)
    if spec.kind == "hom":
        gauss = hom_scan(spec, (0.0, spec.overlap))
        diffs = []
        leak = 0.0
        for overlap, value in zip(gauss.labels, gauss.raw):
            probe = replace(spec, overlap=overlap)
            oracle = ThresholdOracle(
                _oracle_sources(probe),
                spec.walk,
                (),
                eta_sys=spec.eta_sys,
                eta_idler=spec.eta_idler,
                detector_labels={
                    "APD1": ("idler",),
                    "APD2": ((Pol.V, 2),),
                    "APD3": (),
                    "APD4": ((Pol.H, 1),),
                },
                settings=settings,
                k_max=cutoff,
            )
            diffs.append(abs(oracle.pattern_prob(_HOM_PATTERN) - value))
            leak = max(leak, oracle.truncation_leak)
        return OracleReport(max(diffs), len(diffs), leak)

    stage_dist = run_experiment(spec)
    scan = _SCANS[spec.kind]
    diffs, leak = [], 0.0
    for label, value in zip(stage_dist.labels, stage_dist.raw):
        oracle = ThresholdOracle(
            sources,
            spec.walk,
            scan.gates(label, spec.eta_kerr),
            eta_sys=spec.eta_sys,
            eta_idler=spec.eta_idler,
            settings=settings,
            k_max=cutoff,
        )
        diffs.append(abs(_oracle_value(spec, oracle, scan.pattern) - value))
        leak = max(leak, oracle.truncation_leak)
    return OracleReport(max(diffs), len(diffs), leak)
