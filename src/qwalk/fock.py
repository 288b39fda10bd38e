"""Exact truncated-Fock reference simulator.

This module recomputes every click probability from first quantization:
each input is a weighted ensemble of Fock-basis amplitude arrays
(`_ensemble`, the one place that knows the source kinds' states),
pushed through the full mode unitary of the pipeline, and projected onto
threshold-detector outcomes.  It shares no covariance algebra with the
Gaussian engine, which is the point; agreement between the two routes is
the package's main correctness gate.  `OracleSettings` is the one
control of the truncation, which reads each source's photon-number
distribution off the same ensembles.

`ThresholdOracle` computes no-click projections from the identity
P0(S) = <psi| :exp(-sum_{i in S} b_i^dag b_i): |psi>, whose Fock matrix
elements are permanents of G = I - W_S^dag W_S with rows and columns
repeated by occupation.  Those matrix elements are filled by an exact
recursion over total photon number rather than one Ryser call per pair.
One query of a scan runs that recursion once per branch, stacked over
every detector set its inclusion-exclusion needs at every gate point,
and builds one photon-number block at a time, each contracted with the
input state as soon as it is made.  The tests check the recursion
against Ryser's formula element by element.  It runs over the coupled
axes only: on an axis no Gram term couples to another (the idler, which
bypasses the walk and APD1 alone watches, or a branch's lone input) G
is diagonal, and :exp((g - 1) a^dag a): is the weight g^n on occupation n.

W_S^dag W_S is a sum of per-mode Gram terms w^dag w, so the gates never
enter W: routing only decides which terms, at what weight, each detector
sums.  One oracle is built per scan, from the walk, the loss and the
inputs, and routed at all of the scan's gate points at once.

Loss never needs a channel here: every lossy element is a beam splitter
into a fresh ancilla mode that no detector watches, and leaving a mode
out of S is already the partial trace.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .detection import APD_NAMES, ClickPattern, check_gate_points
from .errors import (
    ConfigInvalid,
    CutoffTooSmall,
    EtaOutOfRange,
    IndexOutOfRange,
    ModeCollision,
    NumericalInstability,
    ResourceBound,
    ZeroHeraldRate,
)
from .gaussian import PAIR_KINDS, SourceSpec
from .modes import IDLER, ModeIndex, Pol, flat_index
from .walk import WalkConfig, aggregate_transmission, walk_columns

__all__ = [
    "OracleSettings",
    "ThresholdOracle",
]

_BOX_LIMIT = 2_000_000
# coupled blocks per recursion stack, and sets per weighing, so memory stays bounded
_BLOCK = 128


# --------------------------------------------------------------------------
# Threshold oracle internals


@dataclass(frozen=True)
class OracleSettings:
    """The oracle's truncation, its only control.

    Each branch keeps the inputs' occupations up to the smallest total
    photon number k_max whose tail of the inputs' joint photon-number
    distribution, summed from their ensembles at `max_total_photons`, is
    at most leak_target / 4.  Inputs that need more are refused with
    CutoffTooSmall, and so is a pair source left with room for fewer than
    two photons.  A leak target outside (0, 1) or a negative cap is
    refused with ConfigInvalid.
    """

    leak_target: float = 1e-9
    max_total_photons: int = 16

    def __post_init__(self):
        if not 0.0 < self.leak_target < 1.0:
            raise ConfigInvalid(f"leak_target must lie in (0, 1), got {self.leak_target!r}")
        if self.max_total_photons < 0:
            raise ConfigInvalid(f"max_total_photons must be >= 0, got {self.max_total_photons!r}")


# Gauss-Hermite nodes per axis of a squashed pair's P-function
_GRID_ORDER = 12


class _BoxGeometry:
    """Index bookkeeping for a dense occupation box, grouped by total photons.

    Block K lists the box tuples k with |k| = K.  For each of its rows,
    `row_first` is the first occupied axis i, `row_prev` the row of
    k - e_i in block K - 1, and `row_div` the occupation k_i.
    `gather[K][j]` holds, for each column k, the column of k - e_j in
    block K - 1, or the sentinel n_{K-1} where k_j = 0: it points at a
    zero column padded onto that block.  Everything here depends only
    on the caps, so instances are shared across detector sets and gate
    programs.
    """

    def __init__(self, caps: tuple, k_max: int):
        shape = tuple(c + 1 for c in caps)
        self.k_max = min(k_max, sum(caps))
        self.tuples = np.indices(shape).reshape(len(caps), math.prod(shape)).T
        self.totals = self.tuples.sum(axis=1)
        strides = np.cumprod((1,) + shape[:0:-1])[::-1]
        self.block_cols = [
            np.flatnonzero(self.totals == K) for K in range(self.k_max + 1)
        ]
        self.row_first = [None]
        self.row_prev = [None]
        self.row_div = [None]
        self.gather = [None]
        for prev_cols, cols in zip(self.block_cols, self.block_cols[1:]):
            occ = self.tuples[cols].T
            shifted = np.searchsorted(prev_cols, cols - strides[:, None])
            gather = np.where(occ > 0, shifted, prev_cols.size)
            fi = np.argmax(occ > 0, axis=0)
            rows = np.arange(cols.size)
            self.row_first.append(fi)
            self.row_prev.append(gather[fi, rows])
            self.row_div.append(occ[fi, rows].astype(float))
            self.gather.append(gather)
        fact = [
            np.sqrt(np.array([math.factorial(n) for n in range(c + 1)], float))
            for c in caps
        ]
        scale = np.ones(1)
        for vec in fact:
            scale = np.multiply.outer(scale, vec)
        self.sqrt_fact = scale.ravel()


@lru_cache(maxsize=64)
def _box_geometry(caps: tuple, k_max: int) -> _BoxGeometry:
    return _BoxGeometry(caps, k_max)


def _gamma_blocks(g: np.ndarray, geom: _BoxGeometry):
    """Fock matrix elements of :exp(a^dag (G - I) a): for a stack of G.

    Yields, for K = 0 .. k_max, the (b, n_K, n_K) block F[k', k] over box
    tuples with |k'| = |k| = K, for each of the b matrices G in `g`; the
    physical matrix element is F[k', k] * sqrt(k'! k!).  Filled by the
    recursion k'_i F[k', k] = sum_j G_ij F[k' - e_i, k - e_j], with i
    the first occupied axis of k', which is Ryser-equivalent but shares
    work across the whole block.  Each block is built in an array with
    one zero column more, the target of the sentinel in `geom.gather`;
    at most the previous block, the new one and one gathered term are
    alive at a time.
    """
    b = len(g)
    padded = np.zeros((b, 1, 2), dtype=complex)
    padded[:, :, 0] = 1.0
    yield padded[:, :, :1]
    for K in range(1, geom.k_max + 1):
        rows = geom.row_prev[K][:, None] * padded.shape[2]
        prev = padded.reshape(b, -1)
        coeff = g[:, geom.row_first[K], :, None]
        n = rows.size
        padded = np.zeros((b, n, n + 1), dtype=complex)
        f = padded[:, :, :n]
        term = np.empty((b, n, n), dtype=complex)
        for j, at in enumerate(geom.gather[K]):
            np.take(prev, rows + at, axis=1, out=term, mode="clip")
            term *= coeff[:, :, j]
            f += term
        del term
        f /= geom.row_div[K][:, None]
        yield f


@lru_cache(maxsize=64)
def _factored_box(shape: tuple, free: tuple, k_max: int):
    """The mask of a box's tuples within k_max photons, and its layout with
    the `free` axes split off; if all of several are free, the first stays
    coupled, so that a pair's members stay few."""
    free_axes = np.flatnonzero(free)[int(all(free) and len(shape) > 1):]
    coupled = np.setdiff1d(np.arange(len(shape)), free_axes)
    kept = np.indices(shape).sum(axis=0).ravel() <= k_max
    order = (0, *(1 + free_axes), *(1 + coupled))
    slices = np.array(list(np.ndindex(*(shape[j] for j in free_axes))), dtype=int)
    geom = _box_geometry(tuple(shape[j] - 1 for j in coupled), k_max)
    return kept, order, free_axes, slices, np.ix_(coupled, coupled), geom


@dataclass
class _BranchSource:
    kind: str
    mean_photon: float
    labels: tuple  # branch-local mode labels, one per occupied axis


class _Branch:
    """One distinguishability sector: its register's Gram terms, its input
    ensemble, and a P0 cache shared by every query of a scan.

    `grams[c]` is w^dag w for register column c (`ThresholdOracle`'s
    layout), with w that mode's row of the transfer matrix restricted to
    the inputs' columns.  The walk, the loss and the inputs fix it;
    routing never enters a branch.

    Axes no Gram term couples to another (the idler, or a lone input) are
    free: G is diagonal there, so their occupations n join the members,
    each member's contraction is weighed by prod_j G_jj^n_j, and the
    recursion runs on the other axes, cached by their block of G.
    """

    def __init__(self, grams, ensembles, k_max):
        self.grams = grams
        self._cache: dict = {}
        self.leak = 0.0
        self.trivial = not ensembles
        if self.trivial:
            return
        caps, ensembles = zip(*ensembles)
        shape = tuple(c + 1 for c in sum(caps, ()))
        box = math.prod(shape)
        if box > _BOX_LIMIT:
            raise ResourceBound(
                f"occupation box of {box} tuples exceeds the oracle limit"
            )
        weights = [1.0]
        arrays = [np.ones((), dtype=complex)]
        for ens in ensembles:
            weights = [w0 * w1 for w0 in weights for w1, _ in ens]
            arrays = [np.multiply.outer(a0, a1) for a0 in arrays for _, a1 in ens]
        psi = np.stack([a.ravel() for a in arrays])
        nonzero = grams != 0
        free = nonzero.sum(axis=(0, 1)) == nonzero.diagonal(axis1=1, axis2=2).sum(axis=0)
        layout = _factored_box(shape, tuple(free), k_max)
        kept, order, self.free, slices, self.block, self.geom = layout
        psi = psi * kept[None, :]
        kept_norms = np.sum(np.abs(psi) ** 2, axis=1)
        self.leak = max(0.0, 1.0 - float(np.asarray(weights) @ kept_norms))
        psi = psi.reshape((-1,) + shape).transpose(order).reshape(len(weights) * len(slices), -1)
        self.weights = np.repeat(weights, len(slices))
        self.occupations = np.tile(slices, (len(weights), 1))
        self.eye = np.eye(len(shape))
        phi = psi * self.geom.sqrt_fact[None, :]
        self.phi_blocks = [phi[:, cols] for cols in self.geom.block_cols]

    def p0(self, grams) -> np.ndarray:
        """No-click probability for each Gram sum B^dag B in the stack
        `grams`.  The coupled blocks of G = I - B^dag B not met before go
        through the recursion in stacks of at most `_BLOCK`; then each
        set's cached member totals are weighed by its free diagonal,
        `_BLOCK` sets at a time.  Gram entries of -0.0 and 0.0 give the
        same G, so the same cache key."""
        g = self.eye - grams
        blocks = g[(slice(None),) + self.block]
        keys = [blk.tobytes() for blk in blocks]
        todo = {k: blk for k, blk in zip(keys, blocks) if k not in self._cache}
        new = list(todo)
        for start in range(0, len(new), _BLOCK):
            chunk = new[start : start + _BLOCK]
            total = np.zeros((len(chunk), self.weights.size))
            stack = np.stack([todo[k] for k in chunk])
            for phi, f in zip(self.phi_blocks, _gamma_blocks(stack, self.geom)):
                total += np.real(np.einsum("mi,bij,mj->bm", phi.conj(), f, phi))
            self._cache.update(zip(chunk, total))
        diag = np.real(g[:, self.free, self.free])[:, None, :]
        values = np.empty(len(keys))
        for start in range(0, len(keys), _BLOCK):
            part = slice(start, start + _BLOCK)
            weights = self.weights * np.prod(diag[part] ** self.occupations, axis=2)
            values[part] = np.sum(np.stack([self._cache[k] for k in keys[part]]) * weights, axis=1)
        return values


def _coherent_amplitudes(alpha, cutoff: int) -> np.ndarray:
    """Fock amplitudes 0..cutoff of a coherent state, one row per alpha."""
    alpha = np.asarray(alpha, dtype=complex)[..., None]
    n = np.arange(cutoff + 1)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    return np.exp(-0.5 * np.abs(alpha) ** 2 + n * np.log(alpha) - 0.5 * log_fact)


def _ensemble(src: _BranchSource, k_max: int) -> tuple:
    """One branch source as occupation caps, one per axis, and a list of
    (weight, amplitudes) members, each a dense array over the caps' box.

    Coherent light and a lone photon are pure; a TMSV pair is the twin
    beam, room for k_max photons in all; a squashed pair is a
    Gauss-Hermite discretization of its positive P-function over
    correlated coherent pairs (alpha on the signal, conjugate alpha on
    the idler), occupations up to k_max in total.  A truncated tail is
    left as missing weight, not renormalized away.
    """
    mu = src.mean_photon
    if src.kind == "fock1":
        return (1,), [(1.0, np.array([0.0, 1.0], dtype=complex))]
    if src.kind == "coherent":
        return (k_max,), [(1.0, _coherent_amplitudes(math.sqrt(mu), k_max))]
    if src.kind == "tmsv":
        half = k_max // 2
        lam = math.sqrt(mu / (1.0 + mu))
        twin = np.diag([lam**n / math.sqrt(1.0 + mu) for n in range(half + 1)])
        return (half, half), [(1.0, twin.astype(complex))]
    nodes, gh_weights = np.polynomial.hermite.hermgauss(_GRID_ORDER)
    alpha = math.sqrt(mu) * (nodes[:, None] + 1j * nodes[None, :]).ravel()
    sig, idl = _coherent_amplitudes(np.stack((alpha, alpha.conj())), k_max)
    amps = sig[:, :, None] * idl[:, None, :]
    n = np.arange(k_max + 1)
    amps[:, n[:, None] + n[None, :] > k_max] = 0.0
    weights = np.outer(gh_weights, gh_weights).ravel() / math.pi
    return (k_max, k_max), list(zip(weights, amps))


def _cut(src: _BranchSource, ensemble: tuple, k_max: int) -> tuple:
    """`_ensemble(src, k_max)`, cut from that source's ensemble at a larger cap."""
    if src.kind in PAIR_KINDS and k_max < 2:
        raise CutoffTooSmall("pair sources need a total-photon cutoff of at least 2")
    caps = tuple(min(c, k_max // 2 if src.kind == "tmsv" else k_max) for c in ensemble[0])
    box = tuple(slice(c + 1) for c in caps)
    if src.kind != "squashed":
        return caps, [(w, amps[box]) for w, amps in ensemble[1]]
    n = np.arange(k_max + 1)  # the only box that holds totals beyond k_max
    return caps, [(w, np.where(n[:, None] + n > k_max, 0.0, amps[box])) for w, amps in ensemble[1]]


def _choose_k_max(sources, settings) -> tuple:
    """k_max, and the ensembles cut to it from one build each at the cap."""
    cap = settings.max_total_photons
    built = [_ensemble(src, cap) for src in sources]
    pmf = np.zeros(cap + 1)
    pmf[0] = 1.0
    for _, members in built:
        density = sum(w * np.abs(amps) ** 2 for w, amps in members)
        totals = np.indices(density.shape).sum(axis=0).ravel()
        counts = np.bincount(totals, density.ravel(), minlength=cap + 1)
        pmf = np.convolve(pmf, counts[: cap + 1])[: cap + 1]
    tails = 1.0 - np.cumsum(pmf)
    share = settings.leak_target / 4.0
    for k in range(cap + 1):
        if tails[k] <= share:
            return k, [_cut(src, ens, k) for src, ens in zip(sources, built)]
    raise CutoffTooSmall(
        f"cannot reach truncation leak {settings.leak_target:.1e} within "
        f"{cap} photons (best {tails[cap]:.2e})"
    )


class ThresholdOracle:
    """Click-pattern probabilities recomputed entirely in Fock space.

    Mirrors the Gaussian pipeline mode for mode: sector-extended walk,
    crystal/system loss, idler loss, Kerr routing, and the four-APD
    layout.  The two sectors never mix, so each is handled as its own
    branch and probabilities multiply.

    The walk, the loss and the inputs do not depend on the gates, so one
    oracle serves a whole scan: `scan(slots, efficiency)` routes it at
    every row of a (points x 2) bin array (detection.check_gate_points),
    and the oracle as built sits at one point with both gates dark.
    Every query returns an array of one value per gate point.  Routing
    acts at query time on the branches' Gram terms, one column per
    register mode and one routed share per gate: a gate of efficiency
    eta on bin m sends eta G_(H, m) to its detector and leaves
    (1 - eta) G_(H, m) on the bin.  A query scores every detector
    set at every point in one stacked pass per branch, and a coupled
    block of G met at several points (the herald's, or one that involves
    a single gate) goes through the recursion once.

    `detector_labels` overrides the default APD plan; entries per
    detector are "idler", "gate1", "gate2" (the routed share), or
    (pol, bin) pairs applied to both sectors (on a gated bin, the share
    left on it).  A detector with no mode in a branch contributes P0 = 1
    there, exactly.
    """

    def __init__(
        self,
        sources: tuple[SourceSpec, ...],
        walk: WalkConfig,
        eta_sys: float = 1.0,
        eta_idler: float = 1.0,
        detector_labels=None,
        settings: OracleSettings = OracleSettings(),
    ):
        if not 0.0 <= eta_sys <= 1.0:
            raise EtaOutOfRange(f"eta_sys must lie in [0, 1], got {eta_sys}")
        if not 0.0 <= eta_idler <= 1.0:
            raise EtaOutOfRange(f"eta_idler must lie in [0, 1], got {eta_idler}")
        self._bins = bins = walk.bin_capacity
        branch_sources: list = [[], []]
        for s in sources:
            if s.kind == "fock1" and s.overlap not in (0.0, 1.0):
                raise ValueError(
                    "fock1 photons cannot be split across sectors; use overlap 0 or 1"
                )
            # coherent light splits its intensity over the sectors by overlap
            # and a lone photon rides whole in one; other sources sit in sector 0
            split = s.kind in ("coherent", "fock1")
            shares = (s.overlap, 1.0 - s.overlap) if split else (1.0, 0.0)
            mean = 1.0 if s.kind == "fock1" else s.mean_photon
            for b, share in enumerate(shares):
                if mean * share > 0.0:
                    target = ModeIndex(s.target.pol, s.target.bin, b)
                    labels = (target, IDLER) if s.kind in PAIR_KINDS else (target,)
                    branch_sources[b].append(
                        _BranchSource(s.kind, mean * share, labels)
                    )

        eta_walk = aggregate_transmission(walk) * eta_sys
        inputs = [self._inputs(b, srcs, eta_walk, eta_idler) for b, srcs in enumerate(branch_sources)]
        # The inputs' walk columns (the idler bypasses the walk), one row per register
        # column, both sectors' in one walk: columns never mix.  Each lossy input first
        # meets a beam splitter into its own ancilla, which no detector watches: on the
        # register that scales its column by sqrt(eta).
        active, etas = (sum(part, []) for part in zip(*inputs))
        w = np.zeros((2 * bins + 2, len(active)), dtype=complex)
        w[active, range(len(active))] = 1.0
        w[1:-1] = walk_columns(walk, w[1:-1])
        w *= np.sqrt(etas)
        ends = np.cumsum([len(positions) for positions, _ in inputs])[:-1]
        self.branches = []
        for part, srcs in zip(np.split(w, ends, axis=1), branch_sources):
            k_max, ensembles = _choose_k_max(srcs, settings)
            grams = np.einsum("li,lj->lij", part.conj(), part)
            self.branches.append(_Branch(grams, ensembles, k_max))
        self.truncation_leak = sum(br.leak for br in self.branches)
        self._tolerance = max(1e-12, 8.0 * self.truncation_leak)
        # columns: the dark slot's (no mode), (H, 1..B), (V, 1..B), the idler, then gate 1's
        # and gate 2's routed shares; a 0/1 row per detector, per branch those it has a mode in
        idler = [any(IDLER in src.labels for src in srcs) for srcs in branch_sources]
        self._lit = np.array([[False] + [True] * 2 * bins + [has] for has in idler])
        named = {"idler": 2 * bins + 1, "gate1": 2 * bins + 2, "gate2": 2 * bins + 3}
        self._watch = np.zeros((len(APD_NAMES), 2 * bins + 4), dtype=bool)
        plan = detector_labels or _default_detector_labels(bins)
        for row, name in zip(self._watch, APD_NAMES):
            for e in plan.get(name, ()):
                row[named[e] if isinstance(e, str) else 1 + flat_index(ModeIndex(*e), bins)] = True
        self._gates = (np.zeros((1, 2), dtype=int), 0.0)

    def _inputs(self, b, srcs, eta_walk, eta_idler) -> tuple:
        """Branch b's input modes as `w` rows (see `__init__`), and each
        one's transmission."""
        bins = self._bins
        labels = [ModeIndex(pol, m, b) for pol in (Pol.H, Pol.V) for m in range(1, bins + 1)]
        positions = {label: 1 + i for i, label in enumerate(labels + [IDLER])}
        active = []
        etas = []
        for src in srcs:
            for label in src.labels:
                if label not in positions:
                    raise IndexOutOfRange(f"source mode {label!r} not in register")
                if positions[label] in active:
                    raise ModeCollision(f"two sources target mode {label!r}")
                active.append(positions[label])
                etas.append(eta_idler if label == IDLER else eta_walk)
        return active, etas

    def scan(self, slots, efficiency: float) -> ThresholdOracle:
        """This oracle routed at every gate point of the (points x 2) bin
        array `slots`, both gates with `efficiency`: a shallow copy that
        shares the branches and their P0 cache."""
        slots = check_gate_points(slots, self._bins, efficiency)
        routed = copy.copy(self)
        routed._gates = (slots, efficiency)
        return routed

    # -- probability machinery ------------------------------------------------

    def _seen(self, watch, lit) -> np.ndarray:
        """(points x sets): whether a set (row of `watch`) has a mode, in the
        register columns `lit` or a lit gate slot's routed column."""
        gated = (self._gates[0] > 0)[:, None, :] & watch[:, -2:]
        return gated.any(axis=2) | (watch[:, :-2] & lit).any(axis=1)

    def _p0(self, name_sets) -> np.ndarray:
        """P0 of each detector set (rows) at each gate point (columns).

        A set watches the OR of its detectors' columns, so a mode on two
        counts once, each at its share: eta on a routed column, 1 - eta on
        the gated bin's own H column, 1 elsewhere.  One contraction per
        branch gives every (point, set) Gram sum, and one `_Branch.p0` call
        scores those with a mode there; the others are exactly 1."""
        bins, eff = self._gates
        member = np.array([[name in names for name in APD_NAMES] for names in name_sets])
        watch = (member[:, :, None] & self._watch).any(axis=1)
        share = np.ones((len(bins), watch.shape[1]))
        share[np.arange(len(bins))[:, None], bins] = 1.0 - eff
        share[:, -2:] = eff
        coef = watch * share[:, None, :]
        # a routed share lands on its gate's H column; a dark slot's on column 0
        coef = coef[..., :-2] + coef[..., -2:] @ (bins[:, :, None] == np.arange(coef.shape[2] - 2))
        values = np.ones(coef.shape[:2])
        for branch, lit in zip(self.branches, self._lit):
            present = self._seen(watch, lit)
            if branch.trivial or not present.any():
                continue
            q = branch.grams.shape[1]
            grams = coef[present] @ branch.grams.reshape(len(branch.grams), -1)
            values[present] *= branch.p0(grams.reshape(-1, q, q))
        return values.T

    def _split(self, pattern: ClickPattern):
        if len(pattern.clicks) != len(APD_NAMES):
            raise IndexOutOfRange(
                f"pattern has {len(pattern.clicks)} entries for {len(APD_NAMES)} detectors"
            )
        clicked = [name for name, outcome in zip(APD_NAMES, pattern.clicks) if outcome is True]
        silent = [name for name, outcome in zip(APD_NAMES, pattern.clicks) if outcome is False]
        return clicked, silent

    def _covered(self, names) -> np.ndarray:
        """Whether every detector in `names` has a mode in some branch, at
        each gate point."""
        watch = self._watch[[APD_NAMES.index(name) for name in names]]
        return self._seen(watch, self._lit.any(axis=0)).all(axis=1)

    def pattern_prob(self, pattern: ClickPattern):
        return self._inclusion_exclusion(pattern, ())[0]

    def _inclusion_exclusion(self, pattern: ClickPattern, also) -> tuple:
        """P(pattern) at each gate point, and the P0 rows of the name sets
        in `also`, from one stacked P0 pass.  A point where a clicked
        detector has no mode gives exactly 0."""
        clicked, silent = self._split(pattern)
        subsets = [s for r in range(len(clicked) + 1) for s in itertools.combinations(clicked, r)]
        p0 = self._p0([tuple(silent) + s for s in subsets] + list(also))
        total = 0.0
        for subset, value in zip(subsets, p0):
            total = total + (-1) ** len(subset) * value
        total = np.where(self._covered(clicked), total, 0.0)
        inside = (-self._tolerance <= total) & (total <= 1.0 + self._tolerance)
        if not inside.all():  # the first refused point, as its one-point query says
            first = float(total[np.argmin(inside)])
            raise NumericalInstability(f"oracle inclusion-exclusion produced {first!r}")
        return np.clip(total, 0.0, 1.0), p0[len(subsets) :]

    def _rate(self, herald: np.ndarray) -> np.ndarray:
        """The herald rate at each gate point from APD1's P0 there."""
        if not self._covered(["APD1"]).all():
            raise ZeroHeraldRate("no idler mode is present to herald on")
        rate = 1.0 - herald
        if (rate <= 0.0).any():
            raise ZeroHeraldRate("herald detector can never click")
        return rate

    def herald_rate(self):
        return self._rate(self._p0([("APD1",)])[0])

    def heralded_prob(self, pattern: ClickPattern):
        position = APD_NAMES.index("APD1")
        if pattern.clicks[position] is not None:
            raise ValueError("heralded patterns must leave APD1 unconstrained")
        joint, (herald,) = self._inclusion_exclusion(pattern.with_click(position), [("APD1",)])
        return joint / self._rate(herald)


def _default_detector_labels(bins: int) -> dict:
    return {
        "APD1": ("idler",),
        "APD2": tuple((Pol.H, m) for m in range(1, bins + 1)),
        "APD3": ("gate1",),
        "APD4": ("gate2",),
    }
