"""Experiment presets over the walk + detection pipeline.

Each preset assembles the same physical chain: the run's inputs at t_1
(listed once, by `_sources`: pair signal on H, attenuated coherent light
on V), the sector-extended walk, crystal and system loss, idler loss,
Kerr routing, and one of the APD click patterns.  Scans over gate
positions return labeled distributions; the HOM preset and the overlap
fitter drive the same chain with both gates off, with the overlaps as
the points.  Everything is scored in closed form from the two inputs'
walk columns (`_Stage.inputs`, detection.click_probabilities), except the
scans on registers of up to 7 time bins (_DENSE_MAX_BINS): those keep a
private dense route (`_Stage.dense`, `_gate_point`) that evolves the full
register's covariance, so that their values keep the round-off that the
stored references in perfbench/ hold.

The mode-overlap between the coherent light and the heralded photon is
modeled by splitting the coherent amplitude over two internal sectors
that never interfere; `overlap` is the squared fraction riding in the
photon's sector.

With `ideal_herald` the pair source is replaced by its vanishing-gain
limit, the heralded photon itself: a `fock1` source on the signal mode.
The Fock oracle takes it as it is; the Gaussian routes condition on
exactly one photon entering the walk, in closed form (see
detection.ClickCalculator.single_photon) instead of at small finite gain:
the dense route carries it as probe columns along its quadratures, batched
scans as the signal's amplitudes.
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
    WalkInputs,
    check_gate_points,
    click_probabilities,
    scan_patterns,
)
from .errors import ConfigInvalid
from .fock import OracleSettings, ThresholdOracle
from .gaussian import PAIR_KINDS, SourceSpec, prepare, symplectic_from_unitary
from .modes import IDLER, ModeIndex, Pol, flat_index
from .walk import WalkConfig, aggregate_transmission, step_unitary, walk_columns

__all__ = [
    "EXPERIMENT_KINDS",
    "ExperimentSpec",
    "Distribution",
    "run_experiment",
    "hom_scan",
    "fit_overlap",
    "step_evolution",
    "OracleReport",
    "verify_against_oracle",
]

EXPERIMENT_KINDS = ("one-fold", "two-fold", "three-fold", "hom", "step-evolution")

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
        if self.pair_source not in PAIR_KINDS:
            raise ConfigInvalid(f"unknown pair source {self.pair_source!r}")
        for name in ("mu_alpha", "mu_xi"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ConfigInvalid(f"{name} must be finite, got {value}")
            if value < 0:
                raise ConfigInvalid(f"{name} must be >= 0")
        if not 0.0 <= self.overlap <= 1.0:
            raise ConfigInvalid(f"overlap must lie in [0, 1], got {self.overlap}")
        for name in ("eta_kerr", "eta_idler", "eta_sys"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigInvalid(f"{name} must lie in [0, 1], got {value}")
        if self.ideal_herald and not self.heralded:
            raise ConfigInvalid("ideal_herald only makes sense for heralded runs")
        if self.kind == "hom" and (self.ideal_herald or not self.heralded):
            raise ConfigInvalid(
                "the HOM preset heralds on the pair source's idler, so it takes"
                " no ideal_herald and no heralded: false"
            )
        if self.kind == "three-fold" and self.walk.n_steps < 1:
            raise ConfigInvalid(
                "three-fold readout needs two distinct gate bins, so at least one step"
            )
        if self.kind == "step-evolution" and self.walk.n_steps < 1:
            raise ConfigInvalid("step evolution needs at least one walk step")
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
    """The floats of `raw`, the same over their sequential sum, and whether that sum is <= 0."""
    raw = np.asarray(raw, dtype=float)
    values = tuple(raw.tolist())
    total = sum(values)
    if total <= 0.0:
        return values, (0.0,) * len(values), True
    return values, tuple((raw / total).tolist()), False


def _sources(spec: ExperimentSpec) -> tuple:
    """The run's inputs: the pair source, or with `ideal_herald` the
    heralded photon itself, on (H, t1); coherent light on (V, t1)."""
    out = []
    if spec.ideal_herald:
        out.append(SourceSpec("fock1", ModeIndex(Pol.H, 1, 0), 1.0))
    elif spec.mu_xi > 0.0:
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

    Holds the run's inputs (`_sources`) and the optics; each form is built
    on first use.  `dense` is the full register, for small scans on the
    per-point route.  `inputs`, what all else reads, walks the two t1
    inputs' columns alone and scales them by the walk's transmission: no
    walk unitary, covariance or register-sized array is formed.
    """

    walk: WalkConfig
    sources: tuple
    eta_walk: float  # crystal and system transmission of every walk mode
    eta_idler: float

    @property
    def idler(self) -> bool:
        return any(s.kind in PAIR_KINDS for s in self.sources)

    @cached_property
    def dense(self) -> tuple:
        """The full register's mean and covariance, and the means of the
        probes: unit vectors along the ideal-herald photon's quadratures,
        which pushed through are its injection map.  The walk unitary is
        the product of dense steps, not `walk_unitary`, whose round-off
        differs and would move stored values past 1e-9; loss acts on the
        walk modes, then on the idler."""
        bins = self.walk.bin_capacity
        idler = flat_index(IDLER, bins)  # the walk modes come first, then the idler if present
        m = idler + self.idler
        photons = [flat_index(s.target, bins) for s in self.sources if s.kind == "fock1"]
        quads = [2 * i + o for i in photons for o in (0, 1)]
        probes = np.zeros((2 * m, len(quads)))
        probes[quads, range(len(quads))] = 1.0
        state = prepare(tuple(s for s in self.sources if s.kind != "fock1"), bins=bins)
        walk = np.eye(2 * bins, dtype=complex)
        for layer in self.walk.layers:
            walk = step_unitary(layer, bins) @ walk
        u = np.eye(m, dtype=complex)
        u[: 2 * bins, : 2 * bins] = u[2 * bins : 4 * bins, 2 * bins : 4 * bins] = walk
        cov, means = _passive(u, state.cov, [state.mean, *probes.T])
        for eta, first, stop in ((self.eta_walk, 0, idler), (self.eta_idler, idler, m)):
            if eta < 1.0 and first < stop:
                scale = np.ones(2 * m)
                scale[2 * first : 2 * stop] = np.sqrt(eta)
                cov = scale[:, None] * cov * scale[None, :]
                touched = np.arange(2 * first, 2 * stop)
                cov[touched, touched] += 0.5 * (1.0 - eta)
                means = [scale * x for x in means]
        return means[0], cov, tuple(means[1:])

    @cached_property
    def inputs(self) -> WalkInputs:
        bins = self.walk.bin_capacity
        signal = next((s for s in self.sources if s.kind != "coherent"), None)
        light = next((s for s in self.sources if s.kind == "coherent"), None)
        columns = np.zeros((2 * bins, 2), dtype=complex)
        for j, source in enumerate((signal, light)):
            if source is not None:
                columns[flat_index(source.target, bins), j] = 1.0
        u, beta = np.sqrt(self.eta_walk) * walk_columns(self.walk, columns).T
        return WalkInputs(
            u,
            np.sqrt(light.mean_photon) * beta if light else beta,
            light.overlap if light else 1.0,
            signal.kind if signal else None,
            signal.mean_photon if signal else 0.0,
            self.eta_idler if self.idler else None,
        )


# Registers of up to 7 time bins (walks of up to 6 steps by default) are
# scanned point by point on the dense route.  Their values then stay
# bit-identical to earlier releases and to the stored references in
# perfbench/, which carry that route's round-off: up to 1e-8 on tiny
# normalized three-fold rates, and a whole normalized distribution built
# from round-off on one-step coincidence scans that are exactly zero.
_DENSE_MAX_BINS = 7


def _stage(spec: ExperimentSpec) -> _Stage:
    eta_walk = aggregate_transmission(spec.walk) * spec.eta_sys
    return _Stage(spec.walk, _sources(spec), eta_walk, spec.eta_idler)


def _passive(u: np.ndarray, cov: np.ndarray, means) -> tuple:
    """A passive map u on a dense covariance and on mean vectors."""
    s = symplectic_from_unitary(u)
    cov = s @ cov @ s.T
    return 0.5 * (cov + cov.T), [s @ x for x in means]


def _gate_point(stage: _Stage, slots, efficiency: float) -> tuple:
    """The dense route at the gate point `slots`, one (gate 1 bin, gate 2
    bin) row of detection.check_gate_points: a ClickCalculator, and the
    ideal-herald photon's injection map (None without that photon).

    Each lit gate adds one vacuum routing mode per sector and couples it
    to its bin's (H, t_m) mode by a beam splitter of reflectivity
    `efficiency`.
    """
    bins = stage.walk.bin_capacity
    (point,) = check_gate_points([slots], bins, efficiency).tolist()
    mean, cov, probes = stage.dense
    means = [mean, *probes]
    routing = ([], [])
    r, t = np.sqrt(efficiency), np.sqrt(1.0 - efficiency)
    for k, b in enumerate(point):
        if not b:
            continue
        for sector in (0, 1):
            tap = flat_index(ModeIndex(Pol.H, b, sector), bins)
            new = len(cov) // 2
            grown = 0.5 * np.eye(len(cov) + 2)
            grown[:-2, :-2] = cov
            u = np.eye(new + 1, dtype=complex)
            u[new, tap], u[new, new], u[tap, tap], u[tap, new] = r, t, t, -r
            cov, means = _passive(u, grown, [np.append(x, (0.0, 0.0)) for x in means])
            routing[k].append(new)
    detectors = {
        "APD1": (flat_index(IDLER, bins),) if stage.idler else (),
        "APD2": [flat_index(ModeIndex(Pol.H, m, s), bins) for s in (0, 1) for m in range(1, bins + 1)],
        "APD3": routing[0],
        "APD4": routing[1],
    }
    injection = np.column_stack(means[1:]) if probes else None
    return ClickCalculator(means[0], cov, detectors), injection


@dataclass(frozen=True)
class _Scan:
    """One gate scan: its outcome labels, their gate slots, the clicks."""

    labels: Callable[[int], tuple]  # walk steps -> outcome labels
    slots: Callable[[tuple], np.ndarray]  # labels -> (gate 1 bin, gate 2 bin) each, 0 = dark
    clicked: tuple

    @property
    def pattern(self) -> ClickPattern:
        return ClickPattern(tuple(True if n in self.clicked else None for n in APD_NAMES))


def _bins(n_steps: int) -> tuple:
    return tuple(range(1, n_steps + 2))


def _pairs(n_steps: int) -> tuple:
    return tuple(itertools.combinations(_bins(n_steps), 2))


def _pair_slots(labels) -> np.ndarray:
    """Gates 1 and 2 on each label's two bins."""
    bins = itertools.chain.from_iterable(labels)
    return np.fromiter(bins, dtype=int, count=2 * len(labels)).reshape(-1, 2)


_SCANS = {
    "one-fold": _Scan(_bins, lambda m: np.multiply.outer(m, (0, 1)), ("APD4",)),  # (0, m)
    "two-fold": _Scan(_pairs, _pair_slots, ("APD3", "APD4")),
    "three-fold": _Scan(_pairs, _pair_slots, ("APD2", "APD3", "APD4")),
}

def _dense_raw(scan: _Scan, spec: ExperimentSpec, stage: _Stage, labels) -> list:
    raw = []
    for slots in scan.slots(labels):
        calc, injection = _gate_point(stage, slots, spec.eta_kerr)
        if spec.ideal_herald:
            raw.append(calc.single_photon(scan.pattern, injection))
        elif spec.heralded:
            raw.append(calc.heralded(scan.pattern))
        else:
            raw.append(calc.pattern(scan.pattern))
    return raw


def _batched_raw(scan: _Scan, spec: ExperimentSpec, stage: _Stage, labels) -> np.ndarray:
    return scan_patterns(
        stage.inputs,
        scan.slots(labels),
        spec.eta_kerr,
        scan.clicked,
        heralded=spec.heralded and not spec.ideal_herald,
    )


def _run_scan(kind: str, spec: ExperimentSpec) -> Distribution:
    scan = _SCANS[kind]
    labels = scan.labels(spec.walk.n_steps)
    route = _dense_raw if spec.walk.bin_capacity <= _DENSE_MAX_BINS else _batched_raw
    raw, probs, undefined = _normalize(route(scan, spec, _stage(spec), labels))
    return Distribution(kind, labels, probs, raw, NORMALIZED, undefined)


def run_experiment(spec: ExperimentSpec) -> Distribution:
    """The gate scan of `spec.kind`.

    one-fold: gate 2 scans the output bin by bin, APD4 clicks.  two-fold:
    gates at (m1, m2), coincidence of APD3 and APD4.  three-fold: like
    two-fold, but also requiring a click in the bucket of all remaining
    bins (APD2), which also collects gate leakage.
    """
    if spec.kind in _SCANS:
        return _run_scan(spec.kind, spec)
    raise ConfigInvalid(f"run_experiment does not handle kind {spec.kind!r}")


# -- HOM ----------------------------------------------------------------------

# both gates off; APD4 watches the (H, t1) arm and APD2 the (V, t2) arm, in
# both sectors, with the herald on APD1 as always; APD3 watches nothing
_HOM_ARMS = {"APD2": ModeIndex(Pol.V, 2), "APD4": ModeIndex(Pol.H, 1)}
_HOM_PATTERN = ClickPattern.of(apd1=True, apd2=True, apd4=True)


def _hom_clicks(inputs: WalkInputs, overlaps, clicked=("APD1", "APD2", "APD4")) -> np.ndarray:
    """P(every detector in `clicked` clicks), the others marginal, on the HOM
    arms at each of `overlaps`, which take the place of `inputs.overlap`.

    Only z depends on the overlap, as sqrt(overlap) times the overlap-1
    value, so the overlaps are the points of one evaluation.
    """
    arms = {d: flat_index(mode, len(inputs.signal) // 2) for d, mode in _HOM_ARMS.items()}
    root = np.sqrt(np.asarray(overlaps, dtype=float))

    u, beta = (x[list(arms.values())] for x in (inputs.signal, inputs.coherent))
    per_arm = (u.real**2 + u.imag**2, u.conj() * beta, beta.real**2 + beta.imag**2)

    def union(subsets, block):
        own = np.array([[d in s for d in arms] for s in subsets], dtype=float)
        a, z, e = (own @ x[:, None] for x in per_arm)
        h = np.array([[(inputs.idler or 0.0) if "APD1" in s else 0.0] for s in subsets])
        return a, z * root[block], e, h

    def sees(name):
        if name == "APD1":
            return bool(inputs.idler)
        return name in arms and bool(inputs.signal[arms[name]] or inputs.coherent[arms[name]])

    slots = np.zeros((len(root), 2), dtype=int)
    return click_probabilities(inputs, slots, clicked, union, sees)


def _hom_visibilities(inputs: WalkInputs, overlaps, reference=None) -> tuple:
    """The coincidence rates at `overlaps`, their visibilities against the
    rate at overlap 0, and that rate.  Without a `reference` rate, it is
    scored in the same evaluation as the others."""
    for o in overlaps:
        if not 0.0 <= o <= 1.0:
            raise ConfigInvalid(f"overlap must lie in [0, 1], got {o}")
    raw = _hom_clicks(inputs, overlaps if reference is not None else (*overlaps, 0.0)).tolist()
    if reference is None:
        reference = raw.pop()
        if reference <= 0.0:
            raise ConfigInvalid(
                "distinguishable coincidence rate is zero; visibility is undefined"
            )
    return raw, [1.0 - c / reference for c in raw], reference


def hom_scan(spec: ExperimentSpec, overlaps) -> Distribution:
    """Coincidence and visibility over a list of overlap values.

    Packaged as a Distribution for uniform serialization: labels are the
    overlap values, `raw` the coincidence probabilities, and `probs` the
    visibilities (not a normalized set of outcomes).
    """
    overlaps = tuple(float(o) for o in overlaps)
    raw, vis, _ = _hom_visibilities(_stage(replace(spec, kind="hom")).inputs, overlaps)
    return Distribution("hom", overlaps, tuple(vis), tuple(raw), RAW_PATTERN)


def fit_overlap(spec: ExperimentSpec, target: float = 0.70, tol: float = 1e-4) -> tuple:
    """Bisection for the overlap reproducing a target HOM visibility.

    Visibility grows monotonically with overlap for physical settings,
    so plain bisection on [0, 1] converges; returns (overlap,
    visibility).  100 halvings exhaust double precision, so a fit that
    has not met `tol` by then never will.  The rate at overlap 0 is
    scored once, before the first step.
    """
    inputs = _stage(replace(spec, kind="hom")).inputs
    reference = _hom_visibilities(inputs, ())[2]

    def visibility(o: float) -> float:
        return _hom_visibilities(inputs, (o,), reference)[1][0]

    lo, hi = 0.0, 1.0
    v_hi = visibility(hi)
    if v_hi < target - tol:
        raise ConfigInvalid(
            f"target visibility {target} unreachable; maximum is {v_hi:.4f}"
        )
    for _ in range(100):
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


def verify_against_oracle(
    spec: ExperimentSpec, settings: OracleSettings = OracleSettings()
) -> OracleReport:
    """Recompute every raw pattern probability of the preset in Fock space.

    Returns the maximum absolute difference across scan points along
    with the oracle's truncation leak, so callers can judge both routes'
    agreement against their tolerance.
    """

    def oracle(probe: ExperimentSpec, plan=None) -> ThresholdOracle:
        return ThresholdOracle(
            _sources(probe),
            spec.walk,
            eta_sys=spec.eta_sys,
            eta_idler=spec.eta_idler,
            detector_labels=plan,
            settings=settings,
        )

    if spec.kind == "hom":
        dist = hom_scan(spec, (0.0, spec.overlap))
        plan = {"APD1": ("idler",), **{d: ((m.pol, m.bin),) for d, m in _HOM_ARMS.items()}}
        oracles = [oracle(replace(spec, overlap=o), plan) for o in dist.labels]
        fock = [o.pattern_prob(_HOM_PATTERN)[0] for o in oracles]
    else:
        dist = run_experiment(spec)
        scan = _SCANS[spec.kind]
        oracles = [oracle(spec)]
        routed = oracles[0].scan(scan.slots(dist.labels), spec.eta_kerr)
        # the heralded photon itself needs no herald: exactly one went in
        if spec.heralded and not spec.ideal_herald:
            fock = routed.heralded_prob(scan.pattern)
        else:
            fock = routed.pattern_prob(scan.pattern)
    diffs = np.abs(np.subtract(fock, dist.raw))
    return OracleReport(float(diffs.max()), diffs.size, max(o.truncation_leak for o in oracles))
