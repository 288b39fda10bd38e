"""Threshold (click / no-click) detection behind the gate demultiplexer.

Detector plan, mirroring the four-APD readout of the experiment:

* APD1 watches the herald idler.
* APD2 is the bucket at the end of the delay fiber: every H-polarized
  walk output (both sectors), including whatever leaks past the gates.
* APD3 and APD4 watch the routing ports of gate 1 and gate 2.  A gate
  on bin m couples each sector's (H, t_m) mode through a beam splitter
  of intensity reflectivity eta_K into a fresh routing mode; the
  transmitted 1 - eta_K share stays on the bucket path.

V-polarized outputs are assigned to no detector.

A threshold detector covering a mode set S stays silent exactly when S
is vacuum; for a Gaussian state with mean d and covariance sigma reduced
to S, that probability is

    P0(S) = exp(-d^T (sigma + I/2)^{-1} d / 2) / sqrt(det(sigma + I/2))

and click patterns follow by inclusion-exclusion over the clicking
detectors.

Two routes evaluate it.  `build_layout` + `ClickCalculator` route one
dense state per gate point and factor each covariance block; HOM runs
and scans on registers of up to 7 time bins use them.  `scan_patterns`
evaluates every gate point of a scan at once from a `LowRankState`
(cov - I/2 of rank <= 4 after the walk and loss) through per-bin Gram
blocks, never building the routed register.  The bucket and both
routing ports together see every H output, so

    APD2 + APD3 = H total - APD4's routed share,

and an inclusion-exclusion term depends on gate 1's bin only when
exactly one of APD2 and APD3 is in its detector union (gate 2 likewise
with APD4).  `scan_patterns` scores terms that depend on no gate once
per scan, on one gate once per bin, and on both once per gate point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateGateBin,
    EtaOutOfRange,
    IndexOutOfRange,
    ModeCollision,
    NumericalInstability,
    SingularMatrix,
    ZeroHeraldRate,
)
from .gaussian import GaussianState, LowRankState, append_modes, apply_passive
from .modes import IDLER, ModeIndex, Pol, flat_index

__all__ = [
    "GateSpec",
    "Detector",
    "DetectorLayout",
    "ClickPattern",
    "resolve_gate_slots",
    "build_layout",
    "ClickCalculator",
    "scan_patterns",
    "APD_NAMES",
]

APD_NAMES = ("APD1", "APD2", "APD3", "APD4")

_NEGATIVE_CLAMP = 1e-12
_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class GateSpec:
    """One programmable gate: which bin it picks and how efficiently."""

    bin: int
    efficiency: float = 0.97

    def __post_init__(self):
        if self.bin < 1:
            raise IndexOutOfRange(f"gate bin must be >= 1, got {self.bin}")
        if not 0.0 <= self.efficiency <= 1.0:
            raise EtaOutOfRange(
                f"gate efficiency must lie in [0, 1], got {self.efficiency}"
            )


@dataclass(frozen=True)
class Detector:
    name: str
    modes: frozenset


@dataclass(frozen=True)
class DetectorLayout:
    """Ordered, pairwise-disjoint detector mode sets."""

    detectors: tuple

    def __post_init__(self):
        seen: set[int] = set()
        for det in self.detectors:
            if seen & det.modes:
                raise ModeCollision(f"detector {det.name} overlaps another detector")
            seen |= det.modes
        object.__setattr__(self, "_by_name", {d.name: d for d in self.detectors})

    def __len__(self) -> int:
        return len(self.detectors)

    @property
    def names(self) -> tuple:
        return tuple(d.name for d in self.detectors)

    def detector(self, name: str) -> Detector:
        try:
            return self._by_name[name]
        except KeyError:
            raise IndexOutOfRange(f"no detector named {name!r}") from None


@dataclass(frozen=True)
class ClickPattern:
    """Per-detector outcome: True = click, False = silent, None = ignore."""

    clicks: tuple

    @classmethod
    def of(cls, apd1=None, apd2=None, apd3=None, apd4=None) -> "ClickPattern":
        return cls((apd1, apd2, apd3, apd4))

    @classmethod
    def full_patterns(cls, n_detectors: int = 4):
        """All fully-specified patterns, lexicographic in (False, True)."""
        for bits in itertools.product((False, True), repeat=n_detectors):
            yield cls(bits)

    def with_click(self, position: int) -> "ClickPattern":
        clicks = list(self.clicks)
        clicks[position] = True
        return ClickPattern(tuple(clicks))


def resolve_gate_slots(gates) -> list:
    """Normalize a gate list to its two slots, None for a dark one."""
    gates = tuple(gates)
    if len(gates) > 2:
        raise IndexOutOfRange("at most two gates are supported")
    slots = list(gates) + [None] * (2 - len(gates))
    if slots[0] is not None and slots[1] is not None and slots[0].bin == slots[1].bin:
        raise DuplicateGateBin(f"both gates target bin {slots[0].bin}")
    return slots


def build_layout(state: GaussianState, gates=()) -> tuple[GaussianState, DetectorLayout]:
    """Install routing beam splitters and return the detector plan.

    `gates` holds at most two entries (gate 1 feeds APD3, gate 2 feeds
    APD4); use None to leave a slot dark.  The returned state is the
    input extended by one vacuum routing mode per gate and sector; taps,
    the bucket's H outputs and the idler are found by `flat_index`.
    """
    slots = resolve_gate_slots(gates)
    bins = state.bins
    routing: dict[int, list[int]] = {0: [], 1: []}
    for k, gate in enumerate(slots):
        if gate is None:
            continue
        for sector in (0, 1):
            tap = flat_index(ModeIndex(Pol.H, gate.bin, sector), bins)
            state = append_modes(state, 1)
            new = state.n_modes - 1
            u = np.eye(state.n_modes, dtype=complex)
            r = np.sqrt(gate.efficiency)
            t = np.sqrt(1.0 - gate.efficiency)
            u[new, tap] = r
            u[new, new] = t
            u[tap, tap] = t
            u[tap, new] = -r
            state = apply_passive(state, u)
            routing[k].append(new)

    bucket = [ModeIndex(Pol.H, m, s) for s in (0, 1) for m in range(1, bins + 1)]
    detectors = (
        Detector("APD1", frozenset((flat_index(IDLER, bins),) if state.idler else ())),
        Detector("APD2", frozenset(flat_index(label, bins) for label in bucket)),
        Detector("APD3", frozenset(routing[0])),
        Detector("APD4", frozenset(routing[1])),
    )
    return state, DetectorLayout(detectors)


class ClickCalculator:
    """Click-pattern probabilities for one state and detector plan.

    Caches vacuum-projection values across patterns, which matters when
    a scan asks for heralded and unheralded variants of the same layout.
    """

    def __init__(self, state: GaussianState, layout: DetectorLayout):
        self.state = state
        self.layout = layout
        self._p0_cache: dict[frozenset, float] = {}
        self._m_plus = state.cov + 0.5 * np.eye(2 * state.n_modes)

    def no_click(self, modes) -> float:
        """P(no photon anywhere in `modes`)."""
        modes = frozenset(modes)
        cached = self._p0_cache.get(modes)
        if cached is not None:
            return cached
        value = self._p0_with_factor(modes)[0]
        self._p0_cache[modes] = value
        return value

    def _quad(self, modes: frozenset) -> np.ndarray:
        flat = np.asarray(sorted(modes), dtype=int)
        return np.ravel(np.column_stack((2 * flat, 2 * flat + 1)))

    def _p0_with_factor(self, modes: frozenset, injection=None):
        """Vacuum projection on `modes`, plus the one-photon correction factor.

        The factor is d/dmu log P0 evaluated at mu = 0 for a thermal
        admixture entering along `injection` (see single_photon); it
        is only computed when an injection is supplied.
        """
        if not modes:
            return 1.0, 0.0
        idx = self._quad(modes)
        m = self._m_plus[np.ix_(idx, idx)]
        d = self.state.mean[idx]
        try:
            chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise SingularMatrix(
                f"covariance block on modes {sorted(modes)} is not positive definite"
            ) from None
        diag = np.diag(chol)
        if (diag.max() / diag.min()) ** 2 > _CONDITION_LIMIT:
            raise NumericalInstability(
                f"covariance block on modes {sorted(modes)} is too ill-conditioned"
            )
        half_logdet = np.log(diag).sum()
        y = np.linalg.solve(m, d)
        p0 = float(np.exp(-0.5 * d @ y - half_logdet))
        correction = 0.0
        if injection is not None:
            v = injection[idx, :]
            z = np.linalg.solve(m, v)
            a = v.T @ y
            correction = 0.5 * float(a @ a) - 0.5 * float(np.trace(v.T @ z))
        return p0, correction

    def _split_pattern(self, pattern: ClickPattern):
        if len(pattern.clicks) != len(self.layout):
            raise IndexOutOfRange(
                f"pattern has {len(pattern.clicks)} entries for "
                f"{len(self.layout)} detectors"
            )
        clicked, silent = [], []
        for det, outcome in zip(self.layout.detectors, pattern.clicks):
            if outcome is True:
                clicked.append(det)
            elif outcome is False:
                silent.append(det)
        return clicked, silent

    def _clamp(self, value: float) -> float:
        if value < 0.0:
            if value < -_NEGATIVE_CLAMP:
                raise NumericalInstability(
                    f"inclusion-exclusion produced {float(value)!r}"
                )
            return 0.0
        if value > 1.0:
            if value > 1.0 + _NEGATIVE_CLAMP:
                raise NumericalInstability(
                    f"inclusion-exclusion produced {float(value)!r}"
                )
            return 1.0
        return value

    def pattern(self, pattern: ClickPattern) -> float:
        """Probability of the pattern, marginal over `None` detectors."""
        return self._inclusion_exclusion(pattern, self.no_click)

    def _inclusion_exclusion(self, pattern: ClickPattern, term) -> float:
        """Signed sum of `term(modes)` over the pattern's detector unions."""
        clicked, silent = self._split_pattern(pattern)
        if any(not det.modes for det in clicked):
            return 0.0
        base: frozenset = frozenset()
        for det in silent:
            base |= det.modes
        total = 0.0
        for r in range(len(clicked) + 1):
            for subset in itertools.combinations(clicked, r):
                modes = base
                for det in subset:
                    modes |= det.modes
                total += (-1) ** r * term(modes)
        return self._clamp(total)

    def herald_rate(self) -> float:
        herald = self.layout.detector("APD1")
        if not herald.modes:
            raise ZeroHeraldRate("no idler mode is present to herald on")
        rate = 1.0 - self.no_click(herald.modes)
        if rate <= 0.0:
            raise ZeroHeraldRate("herald detector can never click")
        return rate

    def heralded(self, pattern: ClickPattern) -> float:
        """P(pattern | APD1 clicked); the pattern must leave APD1 free."""
        position = self.layout.names.index("APD1")
        if pattern.clicks[position] is not None:
            raise ValueError("heralded patterns must leave APD1 unconstrained")
        rate = self.herald_rate()
        joint = self.pattern(pattern.with_click(position))
        return joint / rate

    def single_photon(self, pattern: ClickPattern, injection: np.ndarray) -> float:
        """Pattern probability with exactly one photon down the injection map.

        This is the ideal-herald limit of a pair source: conditioned on
        a herald click as the pair emission rate goes to zero, precisely
        one photon enters the pipeline.  Writing the signal's thermal
        admixture as sigma(mu) = sigma + mu V V^T with V the pipeline
        image of the input quadratures, the limit of each
        inclusion-exclusion term is P0 (1 + d/dmu log P0 |_0), which is
        evaluated in closed form; no small-mu cancellation is involved.
        """
        if injection.shape != (2 * self.state.n_modes, 2):
            raise IndexOutOfRange(
                "injection must map the two input quadratures into the register"
            )

        def term(modes: frozenset) -> float:
            p0, correction = self._p0_with_factor(modes, injection)
            return p0 * (1.0 + correction)

        return self._inclusion_exclusion(pattern, term)


def _gate_point_name(slots) -> str:
    return "the gate point with gates on bins " + ", ".join(str(int(b)) for b in slots if b)


def _quads(mode: int) -> list:
    return [2 * mode, 2 * mode + 1]


def _no_click_excess(grams: np.ndarray, core: np.ndarray, where) -> np.ndarray:
    """P0 (1 + correction) - 1 for stacked Grams of the factor [V | d | probes].

    `grams` has shape (n, k, k) and holds F_S^T F_S for n detector unions
    S.  With A = V_S^T V_S, K = I + A C, M = cov_S + I/2
    and [b | P] = V_S^T [d_S | v_S], the Woodbury identity gives
    [d v]^T M^-1 [d v] = [d v]_S^T [d v]_S - [b P]^T C K^-1 [b P], and the
    determinant lemma det M = det K, with no C^-1 anywhere.  The
    correction is the ideal-herald factor of ClickCalculator.single_photon
    and is zero when the factor has no probe columns.

    Returning the excess over 1 (via expm1 and log1p) keeps small click
    probabilities to full relative precision: inclusion-exclusion signs
    sum to zero, so the 1s cancel exactly.  `where(i)` names term i in
    refusals; the first failing term in stack order is refused.
    """
    r = len(core)
    head = grams[..., :r, r:]
    schur = grams[..., r:, r:]
    logdet = 0.0
    if r:
        a = grams[..., :r, :r]
        # M's eigenvalues other than 1 are 1 + those of R C R^T, R^T R = A
        lam, w = np.linalg.eigh(a)
        root = np.sqrt(np.clip(lam, 0.0, None))[..., :, None] * np.swapaxes(w, -1, -2)
        shift = np.linalg.eigvalsh(root @ core @ np.swapaxes(root, -1, -2))
        lowest = 1.0 + np.minimum(shift.min(axis=-1), 0.0)
        highest = 1.0 + np.maximum(shift.max(axis=-1), 0.0)
        bad = np.flatnonzero(lowest <= 0.0)
        if bad.size:
            raise SingularMatrix(f"covariance block of {where(bad[0])} is not positive definite")
        bad = np.flatnonzero(highest > _CONDITION_LIMIT * lowest)
        if bad.size:
            raise NumericalInstability(f"covariance block of {where(bad[0])} is too ill-conditioned")
        logdet = np.log1p(shift).sum(axis=-1)
        k = np.eye(r) + a @ core
        schur = schur - np.swapaxes(head, -1, -2) @ (core @ np.linalg.solve(k, head))
    log_p0 = -0.5 * schur[..., 0, 0] - 0.5 * logdet
    excess = np.expm1(log_p0)
    if schur.shape[-1] > 1:
        cross = schur[..., 0, 1:]
        trace = np.trace(schur[..., 1:, 1:], axis1=-2, axis2=-1)
        excess += np.exp(log_p0) * (0.5 * (cross**2).sum(axis=-1) - 0.5 * trace)
    return excess


def _checked(values: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Clamp inclusion-exclusion round-off into [0, 1]; refuse anything larger."""
    bad = np.flatnonzero(
        (values < -_NEGATIVE_CLAMP) | (values > 1.0 + _NEGATIVE_CLAMP)
    )
    if bad.size:
        p = bad[0]
        raise NumericalInstability(
            f"inclusion-exclusion produced {float(values[p])!r} at "
            f"{_gate_point_name(slots[p])}"
        )
    return np.clip(values, 0.0, 1.0)


def scan_patterns(
    state: LowRankState,
    slots,
    efficiency: float,
    clicked,
    heralded: bool = False,
) -> np.ndarray:
    """Click-pattern probabilities at every gate point of a scan at once.

    `slots` lists one (gate 1 bin, gate 2 bin) pair per point, 0 for a
    dark slot; both gates route with `efficiency`.  `clicked` names the
    detectors that must click, the others are marginal.  With `heralded`
    the values are conditioned on an APD1 click.  When `state` carries
    probe columns they are the injection map of one ideal-herald photon,
    and the values are those of ClickCalculator.single_photon.

    Routing only touches the two tapped (H, t_m) modes per sector, found
    with the idler by `flat_index` on the state's `bins`, so each
    detector's Gram F_S^T F_S is a weighted sum of per-bin Grams G_m over
    both sectors: APD3 and APD4 get efficiency * G_m of their bin, APD2
    the H total minus those shares, APD1 the idler.  A union with APD2 is
    the H total minus the shares of the gates outside it, one without is
    the shares of the gates in it; so it depends on a gate's bin only when
    exactly one of APD2 and that gate's detector is in it.  Each term is
    scored once per distinct Gram: per scan, per bin or per point as it
    depends on no gate, one or both, all in one batched pass over
    (terms, k, k) arrays, k = rank + 1 + probes.  Values match
    ClickCalculator on the layout of build_layout, including its refusals,
    which name the first failing gate point in scan order.
    """
    slots = np.asarray(slots, dtype=int).reshape(-1, 2)
    if not len(slots):
        return np.zeros(0)
    f, bins = state.factor, state.bins
    k = f.shape[1]
    if slots.min() < 0 or slots.max() > bins:
        raise IndexOutOfRange(f"gate bins must lie in 1..{bins}")
    if np.any((slots[:, 0] == slots[:, 1]) & (slots[:, 0] > 0)):
        raise DuplicateGateBin("both gates target the same bin")
    if not 0.0 <= efficiency <= 1.0:
        raise EtaOutOfRange(f"gate efficiency must lie in [0, 1], got {efficiency}")
    taps = np.array(
        [
            [q for s in (0, 1) for q in _quads(flat_index(ModeIndex(Pol.H, m, s), bins))]
            for m in range(1, bins + 1)
        ]
    )
    rows = f[taps]
    per_bin = np.einsum("bik,bil->bkl", rows, rows)
    # index 0 is the dark slot
    routed = efficiency * np.concatenate((np.zeros((1, k, k)), per_bin))
    total = per_bin.sum(axis=0)
    herald = np.zeros((k, k))

    clicked = tuple(clicked)
    rate = 1.0
    if heralded:
        if not state.idler:
            raise ZeroHeraldRate("no idler mode is present to herald on")
        rows = f[_quads(flat_index(IDLER, bins))]
        herald = rows.T @ rows
        excess = _no_click_excess(herald[None], state.core, lambda i: "herald detector APD1")
        rate = -float(excess[0])
        if rate <= 0.0:
            raise ZeroHeraldRate("herald detector can never click")
        clicked = ("APD1",) + clicked

    names, grams, firsts, gathers = [], [], [], []
    for r in range(len(clicked) + 1):
        for subset in itertools.combinations(clicked, r):
            bucket = "APD2" in subset
            keys = slots * [("APD3" in subset) != bucket, ("APD4" in subset) != bucket]
            _, first, inverse = np.unique(
                keys[:, 0] * (bins + 1) + keys[:, 1], return_index=True, return_inverse=True
            )
            # distinct Grams in scan order, so a refusal names the first failing point
            order = np.argsort(first)
            gathers.append(sum(map(len, firsts)) + np.argsort(order)[inverse])
            firsts.append(first[order])
            one, two = routed[keys[first[order]].T]
            gram = total - one - two if bucket else one + two
            grams.append(gram + herald if "APD1" in subset else gram)
            names.append(subset)
    owner = np.repeat(np.arange(len(names)), [len(p) for p in firsts])
    firsts = np.concatenate(firsts)
    excess = _no_click_excess(
        np.concatenate(grams),
        state.core,
        lambda i: f"detectors {names[owner[i]]} at {_gate_point_name(slots[firsts[i]])}",
    )
    joint = np.full(len(slots), float(not clicked))
    for subset, gather in zip(names, gathers):
        joint += (-1.0) ** len(subset) * excess[gather]
    return _checked(joint, slots) / rate
