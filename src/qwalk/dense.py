"""The frozen dense route: scans on registers of up to 7 time bins.

Scans on registers of up to `_DENSE_MAX_BINS` bins are scored here, not in
closed form, only because the stored references in perfbench/ carry this
route's round-off: up to 1e-8 on tiny normalized three-fold rates, and a
normalized distribution built from round-off on one-step coincidence scans
that are exactly zero.  A last-bit change here fails some of them, so every
operation keeps its order.  Once the references are rebuilt, this module
and the route switch in `experiments._run_scan` go (ROADMAP item 1).

`scan_raw` is the one entry.  `_register` evolves the full register: the
walk as a product of dense steps in both sector blocks, then walk and idler
loss.  `_gate_point` routes a block of `_DENSE_BLOCK` gate points in one
stacked pass, and `ClickCalculator` factors each detector union's block of
the stack; each point takes its own products, so it keeps the round-off it
has when scored alone.  The ideal-herald photon rides along as probe
columns on its quadratures, whose images are its injection map.
"""

from __future__ import annotations

import itertools

import numpy as np

from .detection import _checked, check_detectors, check_gate_points
from .errors import SingularMatrix, ZeroHeraldRate
from .gaussian import prepare
from .modes import IDLER, ModeIndex, Pol, flat_index
from .walk import LayerParams, coin_matrix

__all__ = ["scan_raw"]

_DENSE_MAX_BINS = 7
# gate points per stacked dense pass: a 7-bin scan's stacks stay near 1 MiB
_DENSE_BLOCK = 8


def symplectic_from_unitary(u: np.ndarray) -> np.ndarray:
    """S = [[Re U, -Im U], [Im U, Re U]], interleaved: the action of a passive unitary or a stack."""
    u = np.asarray(u)
    *stack, n, k = u.shape
    s = np.empty((*stack, 2 * n, 2 * k))
    s[..., 0::2, 0::2] = u.real
    s[..., 0::2, 1::2] = -u.imag
    s[..., 1::2, 0::2] = u.imag
    s[..., 1::2, 1::2] = u.real
    return s


def _shift_matrix(bins: int) -> np.ndarray:
    """V components move one bin later; H components stay put.  The last V
    bin wraps cyclically, as in `walk.walk_columns`, so the matrix remains
    unitary on the full register."""
    eye = np.eye(bins)
    roll = np.roll(eye, 1, axis=0)
    out = np.zeros((2 * bins, 2 * bins))
    out[:bins, :bins] = eye
    out[bins:, bins:] = roll
    return out


def step_unitary(layer: LayerParams, bins: int) -> np.ndarray:
    """Single walk step on a register of `bins` time bins: shift o coin."""
    coin = np.kron(coin_matrix(layer.omega, layer.gamma), np.eye(bins))
    return _shift_matrix(bins) @ coin


def _register(stage) -> tuple:
    """The full register of `stage` (an `experiments._Stage`) after the walk
    and all loss: its mean and covariance, and the means of the probes, unit
    vectors along the ideal-herald photon's quadratures.  The walk unitary
    is the product of dense steps, not `walk_unitary`, whose round-off
    differs and would move stored values past 1e-9; loss acts on the walk
    modes, then on the idler."""
    bins = stage.walk.bin_capacity
    idler = flat_index(IDLER, bins)  # the walk modes come first, then the idler if present
    m = idler + stage.idler
    photons = [flat_index(s.target, bins) for s in stage.sources if s.kind == "fock1"]
    quads = [2 * i + o for i in photons for o in (0, 1)]
    probes = np.zeros((2 * m, len(quads)))
    probes[quads, range(len(quads))] = 1.0
    state = prepare(tuple(s for s in stage.sources if s.kind != "fock1"), bins=bins)
    walk = np.eye(2 * bins, dtype=complex)
    for layer in stage.walk.layers:
        walk = step_unitary(layer, bins) @ walk
    u = np.eye(m, dtype=complex)
    u[: 2 * bins, : 2 * bins] = u[2 * bins : 4 * bins, 2 * bins : 4 * bins] = walk
    s = symplectic_from_unitary(u)
    cov, means = s @ state.cov @ s.T, [s @ x for x in (state.mean, *probes.T)]
    cov = 0.5 * (cov + cov.T)
    for eta, first, stop in ((stage.eta_walk, 0, idler), (stage.eta_idler, idler, m)):
        if eta < 1.0 and first < stop:
            scale = np.ones(2 * m)
            scale[2 * first : 2 * stop] = np.sqrt(eta)
            cov = scale[:, None] * cov * scale[None, :]
            touched = np.arange(2 * first, 2 * stop)
            cov[touched, touched] += 0.5 * (1.0 - eta)
            means = [scale * x for x in means]
    return means[0], cov, tuple(means[1:])


def _route(cov: np.ndarray, means: np.ndarray, taps, efficiency: float, bins: int) -> tuple:
    """The stacked states `cov` (states x 2M x 2M) and `means` (states x
    vectors x 2M), or their one state, gated on each bin of `taps`: per
    sector a fresh vacuum mode takes `efficiency` of the bin's (H, t_m) mode
    by a beam splitter, by the products of one state alone (two gemms, and
    one gemv per mean vector), so each keeps its round-off."""
    r, t, each = np.sqrt(efficiency), np.sqrt(1.0 - efficiency), np.arange(len(taps))
    for sector in (0, 1):
        new = cov.shape[-1] // 2
        tap = [flat_index(ModeIndex(Pol.H, int(b), sector), bins) for b in taps]
        u = np.repeat(np.eye(new + 1, dtype=complex)[None], len(taps), axis=0)
        u[each, new, tap], u[each, new, new], u[each, tap, tap], u[each, tap, new] = r, t, t, -r
        s = symplectic_from_unitary(u)
        grown = np.zeros((len(taps), 2 * new + 2, 2 * new + 2))
        padded = np.zeros((len(taps), means.shape[1], 2 * new + 2))
        grown[:, :-2, :-2], grown[:, [-2, -1], [-2, -1]], padded[..., :-2] = cov, 0.5, means
        del u, cov  # each sector holds at most three stacks of its size
        cov, means = s @ grown, (s[:, None] @ padded[..., None])[..., 0]
        np.matmul(cov, np.swapaxes(s, 1, 2), out=grown)
        np.add(grown, np.swapaxes(grown, 1, 2), out=cov)
        cov *= 0.5
        del s, grown
    return cov, means


def _gate_point(stage, register: tuple, slots, efficiency: float) -> tuple:
    """`register` (of `_register(stage)`) at a block of gate points `slots`,
    rows of detection.check_gate_points that all light the same gates: one
    ClickCalculator over the stack of the points' routed states, and the
    ideal-herald photon's injection maps (None without that photon).

    Each lit gate adds one vacuum routing mode per sector and couples it to
    its bin's (H, t_m) mode by a beam splitter of reflectivity `efficiency`
    (`_route`); gate 1 is routed once per distinct bin of the block.
    """
    bins = stage.walk.bin_capacity
    points = check_gate_points(slots, bins, efficiency)
    mean, cov, probes = register
    cov, means = cov[None], np.vstack((mean, *probes))[None]
    at = np.zeros(len(points), dtype=int)  # the state of the stack that each point reads
    one, two = points.T
    if one.any():
        taps, at = np.unique(one, return_inverse=True)
        cov, means = _route(cov, means, taps, efficiency, bins)
    if two.any():
        cov, means = _route(cov[at], means[at], two, efficiency, bins)
        at = slice(None)
    before, after = len(mean) // 2, cov.shape[-1] // 2  # modes before and after routing
    detectors = {
        "APD1": (flat_index(IDLER, bins),) if stage.idler else (),
        "APD2": [flat_index(ModeIndex(Pol.H, m, s), bins) for s in (0, 1) for m in range(1, bins + 1)],
        "APD3": range(before, before + 2) if one.any() else (),
        "APD4": range(after - 2, after) if two.any() else (),
    }
    injection = np.swapaxes(means[at, 1:], 1, 2) if probes else None
    return ClickCalculator(means[at, 0], cov[at], detectors, points), injection


def scan_raw(scan, spec, stage, labels) -> list:
    """The raw values of `spec`'s scan `scan` at its `labels` on the dense
    route, `_DENSE_BLOCK` gate points per stacked pass; `stage` is `spec`'s
    `experiments._Stage`.  The arguments and the values are those of
    `experiments._batched_raw`."""
    slots, register, raw = scan.slots(labels), _register(stage), []
    for start in range(0, len(slots), _DENSE_BLOCK):
        block = slots[start : start + _DENSE_BLOCK]
        calc, injection = _gate_point(stage, register, block, spec.eta_kerr)
        if spec.ideal_herald:
            raw.extend(calc.single_photon(scan.clicked, injection))
        else:
            raw.extend((calc.heralded if spec.heralded else calc.pattern)(scan.clicked))
    return raw


class ClickCalculator:
    """Click-pattern probabilities of a stack of dense states, one per gate
    point of `slots` (rows of `check_gate_points`, by default both gates
    dark), so each value is an array over the points.  `detectors` maps each
    detector's name to the register modes it watches; its keys are the plan
    that queries name (`check_detectors`), and a query also names the
    detectors that must stay silent.  A threshold detector on modes S stays
    silent with probability P0(S) = exp(-d^T (sigma + I/2)^-1 d / 2) /
    sqrt(det(sigma + I/2)) for the mean d and covariance sigma reduced to S.
    Each union is factored once per stack, and its vacuum-projection values
    are cached across patterns, as a scan may ask for heralded and
    unheralded variants of one layout.
    """

    def __init__(self, mean: np.ndarray, cov: np.ndarray, detectors: dict, slots=None):
        self.mean, self.cov = mean, cov
        self.slots = np.zeros((len(mean), 2), dtype=int) if slots is None else slots
        self.detectors = {name: frozenset(modes) for name, modes in detectors.items()}
        self._p0_cache: dict[frozenset, np.ndarray] = {}

    def no_click(self, modes) -> np.ndarray:
        """P(no photon anywhere in `modes`) at each point."""
        modes = frozenset(modes)
        if modes not in self._p0_cache:
            self._p0_cache[modes] = self._p0_with_factor(modes)[0]
        return self._p0_cache[modes]

    def _p0_with_factor(self, modes: frozenset, injection=None):
        """Vacuum projection on `modes`, plus the one-photon correction factor.

        The factor is d/dmu log P0 evaluated at mu = 0 for a thermal
        admixture entering along `injection` (see single_photon); it
        is only computed when an injection is supplied.  One stacked
        Cholesky and solve give each point its one-point result; the vector
        products stay per point, as BLAS dot and gemv results depend on
        their operands' layout.  A block is refused only if it cannot be
        factored (from mu_xi ~ 5e15); bright pair sources give condition
        numbers past 1e12, yet up to mu_xi = 1e15 every scan value stays
        within 2e-15 of the 50-digit closed form (tests/test_accuracy.py).
        """
        if not modes:
            return np.ones(len(self.mean)), 0.0
        idx = (2 * np.array(sorted(modes))[:, None] + (0, 1)).ravel()  # their quadratures
        m = self.cov[:, idx[:, None], idx] + 0.5 * np.eye(len(idx))
        d = np.take(self.mean, idx, axis=1)
        try:
            chol = np.linalg.cholesky(m)
            y = np.linalg.solve(m, d[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            message = f"covariance block on modes {sorted(modes)} is numerically singular"
            raise SingularMatrix(message) from None
        half_logdet = np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        p0 = np.exp(np.array([-0.5 * dp @ yp for dp, yp in zip(d, y)]) - half_logdet)
        correction = 0.0
        if injection is not None:
            v = np.take(injection, idx, axis=1)
            trace = np.trace(np.swapaxes(v, 1, 2) @ np.linalg.solve(m, v), axis1=1, axis2=2)
            a = [vp.T @ yp for vp, yp in zip(v, y)]
            correction = 0.5 * np.array([ap @ ap for ap in a]) - 0.5 * trace
        return p0, correction

    def pattern(self, clicked, silent=()) -> np.ndarray:
        """P(every detector in `clicked` clicks, none in `silent` does)."""
        query = check_detectors(tuple(self.detectors), clicked, silent)
        return self._inclusion_exclusion(*query, self.no_click)

    def _inclusion_exclusion(self, clicked, silent, term) -> np.ndarray:
        """Signed sum of `term(modes)` over the checked query's detector unions."""
        clicked = [self.detectors[name] for name in clicked]
        if not all(clicked):
            return np.zeros(len(self.mean))
        base: frozenset = frozenset().union(*(self.detectors[name] for name in silent))
        subsets = (s for r in range(len(clicked) + 1) for s in itertools.combinations(clicked, r))
        total = sum((-1) ** len(s) * term(base.union(*s)) for s in subsets)
        return _checked(total, self.slots)

    def herald_rate(self) -> np.ndarray:
        herald = self.detectors.get("APD1")
        if not herald:
            raise ZeroHeraldRate("no idler mode is present to herald on")
        rate = 1.0 - self.no_click(herald)
        if (rate <= 0.0).any():
            raise ZeroHeraldRate("herald detector can never click")
        return rate

    def heralded(self, clicked, silent=()) -> np.ndarray:
        """The same query conditioned on an APD1 click, which it leaves free."""
        clicked, silent = check_detectors(tuple(self.detectors), clicked, silent, heralded=True)
        rate = self.herald_rate()
        return self._inclusion_exclusion(("APD1",) + clicked, silent, self.no_click) / rate

    def single_photon(self, clicked, injection: np.ndarray, silent=()) -> np.ndarray:
        """The query's probability with exactly one photon down the injection map.

        This is the ideal-herald limit of a pair source: conditioned on
        a herald click as the pair emission rate goes to zero, precisely
        one photon enters the pipeline.  Writing the signal's thermal
        admixture as sigma(mu) = sigma + mu V V^T with V the pipeline
        image of the input quadratures, the limit of each
        inclusion-exclusion term is P0 (1 + d/dmu log P0 |_0), which is
        evaluated in closed form; no small-mu cancellation is involved.
        `injection` holds one (2M x 2) map per point.
        """
        query = check_detectors(tuple(self.detectors), clicked, silent)

        def term(modes: frozenset) -> np.ndarray:
            p0, correction = self._p0_with_factor(modes, injection)
            return p0 * (1.0 + correction)

        return self._inclusion_exclusion(*query, term)
