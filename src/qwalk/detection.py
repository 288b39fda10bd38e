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

Two routes evaluate it.  In closed form, `click_probabilities` evaluates
any detector plan and `scan_patterns` every gate point of a scan at once.
After a passive walk only two inputs reach the detectors, the (H, t1)
signal and the (V, t1) coherent light.  A detector union that collects a
share w_j of each walk output j sees the signal's share
a = sum_j w_j |u_j|^2 (its Gram block is a I_2), the coherent photons
e = sum_j w_j |beta_j|^2, their overlap
z = sqrt(overlap) sum_j w_j conj(u_j) beta_j, and the idler's
transmission h when APD1 is in the union; P0 is a closed form in these
four numbers (`_p0_excess`).  The bucket and both routing ports
together see every H output, so

    APD2 + APD3 = H total - APD4's routed share,

and each union's sums are the H totals minus the routed shares of the
gates outside it, or the shares of the gates inside it: a fixed {-1, 0, 1}
row times (H total, gate 1's share, gate 2's share), so all of a scan's
unions are scored as one stacked (unions x points) pass per block of points.

`ClickCalculator` is the dense route: it factors each union's block of one
full-register state routed at one gate point (`experiments._gate_point`).
Only scans on registers of up to 7 time bins still use it, since the
stored references in perfbench/ carry its round-off.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateGateBin,
    EtaOutOfRange,
    IndexOutOfRange,
    NumericalInstability,
    SingularMatrix,
    ZeroHeraldRate,
)
from .gaussian import PAIR_KINDS

__all__ = [
    "GateSpec",
    "ClickPattern",
    "resolve_gate_slots",
    "ClickCalculator",
    "WalkInputs",
    "scan_patterns",
    "click_probabilities",
    "APD_NAMES",
]

APD_NAMES = ("APD1", "APD2", "APD3", "APD4")

_NEGATIVE_CLAMP = 1e-12
_CONDITION_LIMIT = 1e12
# gate points per stacked pass, so the (unions x points) arrays stay small at any N
_BLOCK = 4096


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


class ClickCalculator:
    """Click-pattern probabilities of one dense state and detector plan.

    `detectors` maps each detector's name to the register modes it
    watches; patterns list one outcome per detector, in that order.
    Caches vacuum-projection values across patterns, which matters when
    a scan asks for heralded and unheralded variants of the same layout.
    """

    def __init__(self, mean: np.ndarray, cov: np.ndarray, detectors: dict):
        self.mean = mean
        self.cov = cov
        self.detectors = {name: frozenset(modes) for name, modes in detectors.items()}
        self._p0_cache: dict[frozenset, float] = {}
        self._m_plus = cov + 0.5 * np.eye(len(cov))

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
        d = self.mean[idx]
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
        if len(pattern.clicks) != len(self.detectors):
            raise IndexOutOfRange(
                f"pattern has {len(pattern.clicks)} entries for "
                f"{len(self.detectors)} detectors"
            )
        clicked, silent = [], []
        for modes, outcome in zip(self.detectors.values(), pattern.clicks):
            if outcome is True:
                clicked.append(modes)
            elif outcome is False:
                silent.append(modes)
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
        if not all(clicked):
            return 0.0
        base: frozenset = frozenset().union(*silent)
        total = 0.0
        for r in range(len(clicked) + 1):
            for subset in itertools.combinations(clicked, r):
                total += (-1) ** r * term(base.union(*subset))
        return self._clamp(total)

    def herald_rate(self) -> float:
        herald = self.detectors.get("APD1")
        if not herald:
            raise ZeroHeraldRate("no idler mode is present to herald on")
        rate = 1.0 - self.no_click(herald)
        if rate <= 0.0:
            raise ZeroHeraldRate("herald detector can never click")
        return rate

    def heralded(self, pattern: ClickPattern) -> float:
        """P(pattern | APD1 clicked); the pattern must leave APD1 free."""
        position = list(self.detectors).index("APD1")
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
        if injection.shape != (len(self.mean), 2):
            raise IndexOutOfRange(
                "injection must map the two input quadratures into the register"
            )

        def term(modes: frozenset) -> float:
            p0, correction = self._p0_with_factor(modes, injection)
            return p0 * (1.0 + correction)

        return self._inclusion_exclusion(pattern, term)


@dataclass(frozen=True)
class WalkInputs:
    """The run's two t1 inputs as the walk outputs receive them, after loss.

    `signal[j]` is the amplitude that the (H, t1) input, the pair's signal
    or the ideal-herald photon, puts on walk mode j of its sector (flat
    index: H bins, then V bins); `coherent[j]` that of the coherent light,
    sqrt(mu_alpha) included.  A fraction `overlap` of the coherent photons
    rides in the signal's sector, the rest in the other one.  `source` is
    the signal's kind ("tmsv", "squashed", "fock1" or None for no signal)
    and `mu` its mean photon number; `idler` is the idler's transmission,
    None when there is no idler.
    """

    signal: np.ndarray
    coherent: np.ndarray
    overlap: float
    source: str | None
    mu: float
    idler: float | None


def _p0_excess(inputs: WalkInputs, a, z, e, h) -> np.ndarray:
    """P0 (1 + correction) - 1 of detector unions with the sums a, z, e, h.

    For per-mode weights w_j of a union, a = sum w |u|^2 is the signal's
    share, e = sum w |beta|^2 the coherent photons, z = sqrt(overlap)
    sum w conj(u) beta their overlap, and h the idler's share.  The pair
    gives log P0 = -e + kappa |z|^2 - log1p(delta) with mu = mu_xi:
    delta = mu (a + h - a h) and kappa = mu (1 - h) / (1 + delta) for the
    TMSV, delta = mu (a + h) and kappa = mu / (1 + delta) for the squashed
    source (Quesada, Arrazola & Killoran, PRA 98, 062322 (2018)).  One
    photon gives P0 = e^-e (1 - a + |z|^2), the ideal-herald term of
    ClickCalculator.single_photon.  Returning the excess over 1 (via
    expm1 and log1p) keeps small click probabilities to full relative
    precision: inclusion-exclusion signs sum to zero, so the 1s cancel.
    """
    mu, z2 = inputs.mu, z.real**2 + z.imag**2
    if inputs.source == "fock1":
        return np.expm1(-e) + np.exp(-e) * (z2 - a)
    if inputs.source == "tmsv":
        delta = mu * (a + h * (1.0 - a))
        kappa = mu * (1.0 - h) / (1.0 + delta)
    elif inputs.source == "squashed":
        delta = mu * (a + h)
        kappa = mu / (1.0 + delta)
    else:
        return np.expm1(-e)
    return np.expm1(-e + kappa * z2 - np.log1p(delta))


def _spectrum(inputs: WalkInputs, a, h) -> tuple:
    """Lowest and highest eigenvalue of cov + I/2 on a union, vacuum's = 1.

    Only a pair moves them from 1: its signal and idler shares give the
    block mu [[a, sqrt(a h) c], [sqrt(a h) c, h]] with c^2 = mu (mu + 1)
    (TMSV) or mu^2 (squashed) over the identity.
    """
    mu = inputs.mu
    if inputs.source not in PAIR_KINDS:
        return 1.0, 1.0
    c2 = mu * (mu + 1.0) if inputs.source == "tmsv" else mu * mu
    mid = 1.0 + 0.5 * mu * (a + h)
    spread = np.sqrt((0.5 * mu * (a - h)) ** 2 + a * h * c2)
    return np.minimum(mid - spread, 1.0), np.maximum(mid + spread, 1.0)


def _gate_point_name(slots) -> str:
    bins = ", ".join(str(int(b)) for b in slots if b)
    return "the gate point with " + (f"gates on bins {bins}" if bins else "both gates dark")


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


_REFUSALS = (
    (SingularMatrix, "is not positive definite"),
    (NumericalInstability, "is too ill-conditioned"),
)


def _failures(lowest, highest) -> list:
    """The first failing (union, point) of each check of _REFUSALS on a
    (unions x points) stack, None where none fails; a value that no gate
    moves fails at the first point."""
    out = []
    for failing in (lowest <= 0.0, highest > _CONDITION_LIMIT * lowest):
        failing = np.atleast_2d(failing)  # row-major: the first union, then its first point
        out.append(divmod(int(np.argmax(failing)), failing.shape[1]) if failing.any() else None)
    return out


def scan_patterns(
    inputs: WalkInputs,
    slots,
    efficiency: float,
    clicked,
    heralded: bool = False,
) -> np.ndarray:
    """Click-pattern probabilities at every gate point of a scan at once.

    `slots` lists one (gate 1 bin, gate 2 bin) pair per point, 0 for a
    dark slot; both gates route with `efficiency`.  `clicked` names the
    detectors that must click, the others are marginal.  With `heralded`
    the values are conditioned on an APD1 click.  With an ideal-herald
    photon as the signal, the values are those of
    ClickCalculator.single_photon.

    APD3 and APD4 collect `efficiency` of their bin's H outputs in both
    sectors, APD2 the H totals minus those shares, APD1 the idler.  So
    the detector unions' sums a, z, e are (unions x points) stacks,
    gathered from three per-bin sums.  Values and refusals match
    ClickCalculator on the layout of experiments._gate_point.
    """
    slots = np.asarray(slots, dtype=int).reshape(-1, 2)
    if not len(slots):
        return np.zeros(0)
    bins = len(inputs.signal) // 2
    if slots.min() < 0 or slots.max() > bins:
        raise IndexOutOfRange(f"gate bins must lie in 1..{bins}")
    if np.any((slots[:, 0] == slots[:, 1]) & (slots[:, 0] > 0)):
        raise DuplicateGateBin("both gates target the same bin")
    if not 0.0 <= efficiency <= 1.0:
        raise EtaOutOfRange(f"gate efficiency must lie in [0, 1], got {efficiency}")
    # the H outputs of bins 1..B; a routed share's index 0 is the dark slot
    u, beta = inputs.signal[:bins], inputs.coherent[:bins]
    per_bin = (
        u.real**2 + u.imag**2,
        np.sqrt(inputs.overlap) * u.conj() * beta,
        beta.real**2 + beta.imag**2,
    )
    # per sum: its H total, and each bin's routed share, index 0 the dark slot
    sums = [(x.sum(), efficiency * np.concatenate(([0.0], x))) for x in per_bin]

    def union(subsets, block):
        # a {-1, 0, 1} row per union times (H total, gate 1's share, gate 2's): with
        # the bucket, the total less the outside gates' shares; else the inside ones'
        own = np.array([[d in s for d in ("APD2", "APD3", "APD4")] for s in subsets], dtype=float)
        c0, c1, c2 = (own - own[:, :1] * (0.0, 1.0, 1.0)).T[:, :, None]
        one, two = slots[block].T
        a, z, e = (c0 * total + c1 * share[one] + c2 * share[two] for total, share in sums)
        return a, z, e, np.array([[inputs.idler if "APD1" in s else 0.0] for s in subsets])

    # a bin is lit when either input reaches its H output; the bucket is judged
    # from these per-bin values, since total - shares can leave round-off
    lit = np.concatenate(([False], (per_bin[0] != 0.0) | (per_bin[2] != 0.0)))

    def sees(name):
        if name == "APD1":
            return bool(inputs.idler)
        if name == "APD2":  # only a gate of efficiency 1 takes all of its bin
            return bool(lit.any()) if efficiency < 1.0 else lit.sum() > lit[slots].sum(axis=1)
        return efficiency > 0.0 and lit[slots[:, int(name == "APD4")]]

    return click_probabilities(inputs, slots, clicked, union, sees, heralded)


def click_probabilities(
    inputs: WalkInputs, slots, clicked, union, sees, heralded=False
) -> np.ndarray:
    """P(every detector in `clicked` clicks), the others marginal, at each
    gate point of `slots`, conditioned on an APD1 click with `heralded`.

    `union(subsets, block)` gives the sums (a, z, e, h) of `_p0_excess` over
    what each subset's detectors watch at the points `slots[block]`, one row
    per subset and one column per point (or one for a sum no gate moves);
    each block of `_BLOCK` points is scored in one stacked pass.  `sees(name)`
    is False at the points where all of that detector's own sums a, e and h
    are exactly 0: a detector that sees no light cannot click, so a clicked
    one there gives exactly 0.  Refusals name the first failing union, at
    its first failing gate point in scan order.
    """
    clicked = tuple(clicked)
    rate = 1.0
    if heralded:
        if inputs.idler is None:
            raise ZeroHeraldRate("no idler mode is present to herald on")
        for (error, what), p in zip(_REFUSALS, _failures(*_spectrum(inputs, 0.0, inputs.idler))):
            if p is not None:
                raise error(f"covariance block of herald detector APD1 {what}")
        rate = -float(_p0_excess(inputs, 0.0, 0j, 0.0, inputs.idler))
        if rate <= 0.0:
            raise ZeroHeraldRate("herald detector can never click")
        clicked = ("APD1",) + clicked

    lit = True
    for name in clicked:
        lit = lit & sees(name)
    subsets = [s for r in range(1, len(clicked) + 1) for s in itertools.combinations(clicked, r)]
    found = [None, None]  # per check of _REFUSALS: the first failing (union, point)
    joint = np.full(len(slots), float(not clicked))
    for start in range(0, len(slots) if subsets else 0, _BLOCK):  # the empty union's P0 - 1 is 0
        block = slice(start, start + _BLOCK)
        a, z, e, h = union(subsets, block)
        for i, first in enumerate(_failures(*_spectrum(inputs, a, h))):
            if first is not None and (found[i] is None or first[0] < found[i][0]):
                found[i] = (first[0], start + first[1])
        if not any(found):  # else refused below, once every block is checked
            for s, excess in zip(subsets, _p0_excess(inputs, a, z, e, h)):
                joint[block] += (-1.0) ** len(s) * excess
    for (error, what), first in zip(_REFUSALS, found):
        if first:
            u, p = first
            raise error(
                f"covariance block of detectors {subsets[u]} at "
                f"{_gate_point_name(slots[p])} {what}"
            )
    return _checked(np.where(lit, joint, 0.0), slots) / rate
