"""Exact truncated-Fock reference simulator.

This module recomputes every click probability from first quantization:
inputs are decomposed into (mixtures of) Fock-basis superpositions,
pushed through the full mode unitary of the pipeline, and projected onto
threshold-detector outcomes.  It shares no covariance algebra with the
Gaussian engine, which is the point; agreement between the two routes is
the package's main correctness gate.

`ThresholdOracle` computes no-click projections from the identity
P0(S) = <psi| :exp(-sum_{i in S} b_i^dag b_i): |psi>, whose Fock matrix
elements are permanents of G = I - W_S^dag W_S with rows and columns
repeated by occupation.  Those matrix elements are filled by an exact
recursion over total photon number rather than one Ryser call per pair,
which keeps the acceptance sweeps fast; the recursion is tested against
`perm_reduced`, and that against `permanent`.

Loss never needs a channel here: every lossy element is a beam splitter
into a fresh ancilla mode that no detector watches, and leaving a mode
out of S is already the partial trace.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .detection import APD_NAMES, ClickPattern, resolve_gate_slots
from .errors import (
    CutoffTooSmall,
    DimensionMismatch,
    EtaOutOfRange,
    IndexOutOfRange,
    ModeCollision,
    NumericalInstability,
    ResourceBound,
    ZeroHeraldRate,
)
from .gaussian import PAIR_KINDS, SourceSpec
from .modes import IDLER, ExtraMode, ModeIndex, Pol
from .walk import WalkConfig, aggregate_transmission, walk_unitary

__all__ = [
    "permanent",
    "perm_reduced",
    "FockState",
    "MixedFockState",
    "input_decompose",
    "OracleSettings",
    "ThresholdOracle",
]

_BOX_LIMIT = 2_000_000


def permanent(a: np.ndarray) -> complex:
    """Permanent of a square matrix by Ryser's formula, vectorized.

    Cost is O(2^n n); fine up to n around 14.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise DimensionMismatch(f"permanent needs a square matrix, got {a.shape}")
    if n == 0:
        return complex(1.0)
    if n > 16:
        raise ResourceBound(f"refusing Ryser on a {n}x{n} matrix")
    masks = np.arange(1, 2**n, dtype=np.int64)
    subsets = ((masks[:, None] >> np.arange(n, dtype=np.int64)[None, :]) & 1).astype(
        float
    )
    row_sums = subsets @ a.T
    signs = np.where((n - subsets.sum(axis=1).astype(int)) % 2 == 0, 1.0, -1.0)
    return complex(signs @ np.prod(row_sums, axis=1))


def perm_reduced(g: np.ndarray, row_mults, col_mults) -> complex:
    """Permanent of `g` with row i repeated row_mults[i] times and
    column j repeated col_mults[j] times.

    Uses the multiplicity form of Ryser's sum: instead of subsets of the
    expanded columns, iterate over how many copies of each distinct
    column are taken.  Equal row and column totals are required.
    """
    g = np.asarray(g, dtype=complex)
    r = np.asarray(row_mults, dtype=int)
    c = np.asarray(col_mults, dtype=int)
    if g.shape != (r.size, c.size):
        raise DimensionMismatch(
            f"matrix {g.shape} does not match multiplicities {r.size}x{c.size}"
        )
    if (r < 0).any() or (c < 0).any():
        raise ValueError("multiplicities must be non-negative")
    total = int(r.sum())
    if total != int(c.sum()):
        raise DimensionMismatch(
            f"row total {total} differs from column total {int(c.sum())}"
        )
    if total == 0:
        return complex(1.0)
    keep_r = r > 0
    keep_c = c > 0
    g = g[np.ix_(keep_r, keep_c)]
    r = r[keep_r]
    c = c[keep_c]
    grid = np.indices(tuple(int(x) + 1 for x in c)).reshape(len(c), -1)
    weights = np.ones(grid.shape[1])
    for j, cj in enumerate(c):
        table = np.array([math.comb(int(cj), s) for s in range(int(cj) + 1)], float)
        weights *= table[grid[j]]
    sums = g @ grid
    prods = np.prod(sums ** r[:, None], axis=0)
    signs = np.where((total - grid.sum(axis=0)) % 2 == 0, 1.0, -1.0)
    return complex((signs * weights) @ prods)


@dataclass
class FockState:
    """Superposition over occupation tuples, truncated at a total-photon cutoff."""

    n_modes: int
    amplitudes: dict
    cutoff: int

    def __post_init__(self):
        for occ in self.amplitudes:
            if len(occ) != self.n_modes:
                raise DimensionMismatch(
                    f"occupation {occ} does not have {self.n_modes} entries"
                )
            if any(n < 0 for n in occ):
                raise ValueError(f"negative occupation in {occ}")
            if sum(occ) > self.cutoff:
                raise CutoffTooSmall(
                    f"occupation {occ} exceeds total-photon cutoff {self.cutoff}"
                )


@dataclass
class MixedFockState:
    """Weighted ensemble of Fock states (photon-number or P-function mixtures)."""

    ensemble: tuple

    @property
    def weight_leak(self) -> float:
        return max(0.0, 1.0 - sum(w for w, _ in self.ensemble))


def _coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    n = np.arange(cutoff + 1)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    if alpha == 0:
        amps = np.zeros(cutoff + 1, dtype=complex)
        amps[0] = 1.0
        return amps
    return np.exp(
        -0.5 * abs(alpha) ** 2 + n * np.log(complex(alpha)) - 0.5 * log_fact
    )


def input_decompose(source: SourceSpec, cutoff: int, grid_order: int = 12) -> MixedFockState:
    """Fock-space description of one source, truncated at `cutoff` total photons.

    Scalar kinds occupy one mode; pair kinds occupy (signal, idler).
    Thermal states come back as a photon-number mixture, squashed pairs
    as a Gauss-Hermite discretization of their positive P-function over
    correlated coherent pairs (alpha on the signal, conjugate alpha on
    the idler); both leave any truncated tail as missing weight rather
    than renormalizing it away.
    """
    if cutoff < 0:
        raise CutoffTooSmall("cutoff must be non-negative")
    mu = source.mean_photon
    if source.kind in PAIR_KINDS and cutoff < 2:
        raise CutoffTooSmall("pair sources need a total-photon cutoff of at least 2")

    if source.kind == "vacuum" or (mu == 0.0 and source.kind != "fock1"):
        width = 2 if source.kind in PAIR_KINDS else 1
        return MixedFockState(((1.0, FockState(width, {(0,) * width: 1.0}, cutoff)),))

    if source.kind == "fock1":
        if cutoff < 1:
            raise CutoffTooSmall("fock1 needs cutoff >= 1")
        return MixedFockState(((1.0, FockState(1, {(1,): 1.0}, cutoff)),))

    if source.kind == "coherent":
        alpha = math.sqrt(mu) * np.exp(1j * source.phase)
        amps = _coherent_amplitudes(alpha, cutoff)
        state = FockState(1, {(n,): amps[n] for n in range(cutoff + 1)}, cutoff)
        return MixedFockState(((1.0, state),))

    if source.kind == "thermal":
        members = []
        for n in range(cutoff + 1):
            weight = mu**n / (1.0 + mu) ** (n + 1)
            members.append((weight, FockState(1, {(n,): 1.0}, cutoff)))
        return MixedFockState(tuple(members))

    if source.kind == "tmsv":
        lam = math.sqrt(mu / (1.0 + mu))
        amps = {
            (n, n): lam**n / math.sqrt(1.0 + mu) for n in range(cutoff // 2 + 1)
        }
        return MixedFockState(((1.0, FockState(2, amps, cutoff)),))

    # squashed pair
    nodes, gh_weights = np.polynomial.hermite.hermgauss(grid_order)
    members = []
    for j in range(grid_order):
        for k in range(grid_order):
            alpha = math.sqrt(mu) * (nodes[j] + 1j * nodes[k])
            sig = _coherent_amplitudes(alpha, cutoff)
            idl = _coherent_amplitudes(np.conj(alpha), cutoff)
            amps = {}
            for n1 in range(cutoff + 1):
                for n2 in range(cutoff + 1 - n1):
                    amps[(n1, n2)] = sig[n1] * idl[n2]
            weight = gh_weights[j] * gh_weights[k] / math.pi
            members.append((weight, FockState(2, amps, cutoff)))
    return MixedFockState(tuple(members))


# --------------------------------------------------------------------------
# Threshold oracle internals


@dataclass(frozen=True)
class OracleSettings:
    leak_target: float = 1e-9
    max_total_photons: int = 16
    grid_order: int = 12


class _BoxGeometry:
    """Index bookkeeping for a dense occupation box, grouped by total photons.

    Everything here depends only on the per-axis caps and the total cap,
    so instances are shared across detector sets and gate programs.
    """

    def __init__(self, caps: tuple, k_max: int):
        shape = tuple(c + 1 for c in caps)
        q = len(caps)
        self.caps = caps
        self.k_max = min(k_max, sum(caps))
        self.tuples = np.indices(shape).reshape(q, -1).T
        self.totals = self.tuples.sum(axis=1)
        strides = np.ones(q, dtype=np.int64)
        for j in range(q - 2, -1, -1):
            strides[j] = strides[j + 1] * shape[j + 1]
        self.block_cols = [
            np.flatnonzero(self.totals == K) for K in range(self.k_max + 1)
        ]
        first_axis = np.argmax(self.tuples > 0, axis=1)
        self.row_first = []
        self.row_prev = []
        self.row_div = []
        self.shift_masks = []
        self.shift_pos = []
        for K in range(self.k_max + 1):
            cols = self.block_cols[K]
            if K == 0:
                self.row_first.append(None)
                self.row_prev.append(None)
                self.row_div.append(None)
                self.shift_masks.append(None)
                self.shift_pos.append(None)
                continue
            prev_cols = self.block_cols[K - 1]
            fi = first_axis[cols]
            self.row_first.append(fi)
            self.row_prev.append(
                np.searchsorted(prev_cols, cols - strides[fi])
            )
            self.row_div.append(self.tuples[cols, fi].astype(float))
            masks = []
            pos = []
            for j in range(q):
                mask = self.tuples[cols, j] > 0
                masks.append(mask)
                pos.append(np.searchsorted(prev_cols, cols[mask] - strides[j]))
            self.shift_masks.append(masks)
            self.shift_pos.append(pos)
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


def _gamma_blocks(g: np.ndarray, geom: _BoxGeometry) -> list:
    """Fock matrix elements of :exp(a^dag (G - I) a): in per-total blocks.

    Block K holds F[k', k] for all box tuples with |k'| = |k| = K, where
    the physical matrix element is F[k', k] * sqrt(k'! k!).  Filled by
    the recursion k'_i F[k', k] = sum_j G_ij F[k' - e_i, k - e_j], which
    is Ryser-equivalent but shares work across the whole block.
    """
    q = g.shape[0]
    blocks = [np.ones((1, 1), dtype=complex)]
    for K in range(1, geom.k_max + 1):
        cols = geom.block_cols[K]
        n = len(cols)
        prev = blocks[K - 1]
        f = np.zeros((n, n), dtype=complex)
        prev_rows = prev[geom.row_prev[K]]
        fi = geom.row_first[K]
        for i in range(q):
            rows_i = np.flatnonzero(fi == i)
            if rows_i.size == 0:
                continue
            sub = prev_rows[rows_i]
            for j in range(q):
                if g[i, j] == 0:
                    continue
                mask = geom.shift_masks[K][j]
                gathered = sub[:, geom.shift_pos[K][j]]
                f[np.ix_(rows_i, mask)] += g[i, j] * gathered
        f /= geom.row_div[K][:, None]
        blocks.append(f)
    return blocks


@dataclass
class _BranchSource:
    kind: str
    mean_photon: float
    phase: float
    labels: tuple  # branch-local mode labels, one per occupied axis


class _Branch:
    """One distinguishability sector's modes, transfer matrix, and input ensemble."""

    def __init__(self, labels, w, active, sources, k_max, settings):
        self.labels = tuple(labels)
        self.w = w
        self.active = np.asarray(active, dtype=int)
        self.k_max = k_max
        self._cache: dict = {}
        self.leak = 0.0
        if not sources:
            self.trivial = True
            return
        self.trivial = False
        caps = []
        ensembles = []
        for src in sources:
            spec = SourceSpec(
                kind=src.kind,
                target=ModeIndex(Pol.H, 1, 0),
                mean_photon=src.mean_photon,
                phase=src.phase,
            )
            if src.kind == "coherent":
                src_caps = (k_max,)
                cutoff = k_max
            elif src.kind == "thermal":
                cap = _thermal_member_cap(
                    src.mean_photon, settings.leak_target / 8.0, k_max
                )
                src_caps = (cap,)
                cutoff = cap
            elif src.kind == "tmsv":
                src_caps = (k_max // 2, k_max // 2)
                cutoff = 2 * (k_max // 2)
            elif src.kind == "squashed":
                src_caps = (k_max, k_max)
                cutoff = k_max
            else:  # fock1
                src_caps = (1,)
                cutoff = 1
            caps.extend(src_caps)
            mixture = input_decompose(spec, cutoff, settings.grid_order)
            ensembles.append(_dense_members(mixture, src_caps))
        caps = tuple(caps)
        box = 1
        for c in caps:
            box *= c + 1
        if box > _BOX_LIMIT:
            raise ResourceBound(
                f"occupation box of {box} tuples exceeds the oracle limit"
            )
        self.geom = _box_geometry(caps, k_max)
        weights = [1.0]
        arrays = [np.ones((), dtype=complex)]
        for ens in ensembles:
            weights = [w0 * w1 for w0 in weights for w1, _ in ens]
            arrays = [
                np.multiply.outer(a0, a1)
                for a0 in arrays
                for _, a1 in ens
            ]
        psi = np.stack([a.ravel() for a in arrays])
        self.weights = np.asarray(weights, float)
        kept = self.geom.totals <= self.geom.k_max
        psi = psi * kept[None, :]
        kept_norms = np.sum(np.abs(psi) ** 2, axis=1)
        self.leak = max(0.0, 1.0 - float(self.weights @ kept_norms))
        phi = psi * self.geom.sqrt_fact[None, :]
        self.phi_blocks = [phi[:, cols] for cols in self.geom.block_cols]

    def p0(self, positions: frozenset) -> float:
        if self.trivial or not positions:
            return 1.0
        cached = self._cache.get(positions)
        if cached is not None:
            return cached
        rows = sorted(positions)
        b = self.w[np.ix_(rows, self.active)]
        q = self.active.size
        g = np.eye(q, dtype=complex) - b.conj().T @ b
        blocks = _gamma_blocks(g, self.geom)
        total = np.zeros(self.weights.size)
        for K, f in enumerate(blocks):
            phi = self.phi_blocks[K]
            if phi.shape[1] == 0:
                continue
            total += np.real(np.einsum("mi,ij,mj->m", phi.conj(), f, phi))
        value = float(self.weights @ total)
        self._cache[positions] = value
        return value


def _dense_members(mixture: MixedFockState, caps: tuple) -> list:
    shape = tuple(c + 1 for c in caps)
    out = []
    for weight, state in mixture.ensemble:
        arr = np.zeros(shape, dtype=complex)
        for occ, amp in state.amplitudes.items():
            if all(n <= c for n, c in zip(occ, caps)):
                arr[occ] = amp
        out.append((weight, arr))
    return out


def _thermal_member_cap(mu: float, share: float, k_max: int) -> int:
    p = mu / (1.0 + mu)
    cap = 0
    while p ** (cap + 1) > share and cap < k_max:
        cap += 1
    return cap


def _poisson_pmf(mu: float, length: int) -> np.ndarray:
    pmf = np.zeros(length)
    pmf[0] = math.exp(-mu)
    for k in range(1, length):
        pmf[k] = pmf[k - 1] * mu / k
    return pmf


def _source_total_pmf(src: _BranchSource, length: int, grid_order: int) -> np.ndarray:
    mu = src.mean_photon
    if src.kind == "coherent":
        return _poisson_pmf(mu, length)
    if src.kind == "thermal":
        n = np.arange(length)
        return (mu / (1.0 + mu)) ** n / (1.0 + mu)
    if src.kind == "tmsv":
        pmf = np.zeros(length)
        lam2 = mu / (1.0 + mu)
        for n in range(0, length, 2):
            pmf[n] = (1.0 - lam2) * lam2 ** (n // 2)
        return pmf
    if src.kind == "squashed":
        nodes, gh_weights = np.polynomial.hermite.hermgauss(grid_order)
        pmf = np.zeros(length)
        for j in range(grid_order):
            for k in range(grid_order):
                inten = 2.0 * mu * (nodes[j] ** 2 + nodes[k] ** 2)
                pmf += (gh_weights[j] * gh_weights[k] / math.pi) * _poisson_pmf(
                    inten, length
                )
        return pmf
    pmf = np.zeros(length)
    pmf[1 if src.kind == "fock1" else 0] = 1.0
    return pmf


def _choose_k_max(sources, settings) -> int:
    length = settings.max_total_photons + 8
    pmf = np.zeros(length)
    pmf[0] = 1.0
    for src in sources:
        pmf = np.convolve(pmf, _source_total_pmf(src, length, settings.grid_order))[
            :length
        ]
    tails = 1.0 - np.cumsum(pmf)
    share = settings.leak_target / 4.0
    for k in range(settings.max_total_photons + 1):
        if tails[k] <= share:
            return k
    raise CutoffTooSmall(
        f"cannot reach truncation leak {settings.leak_target:.1e} within "
        f"{settings.max_total_photons} photons (best {tails[settings.max_total_photons]:.2e})"
    )


def _bs_embed(n: int, a: int, b: int, eta: float) -> np.ndarray:
    u = np.eye(n, dtype=complex)
    t = math.sqrt(eta)
    r = math.sqrt(1.0 - eta)
    u[a, a] = t
    u[b, a] = r
    u[a, b] = -r
    u[b, b] = t
    return u


class ThresholdOracle:
    """Click-pattern probabilities recomputed entirely in Fock space.

    Mirrors the Gaussian pipeline mode for mode: sector-extended walk,
    crystal/system loss, idler loss, Kerr routing beam splitters, and
    the four-APD layout.  The two sectors never mix, so each is handled
    as its own branch and probabilities multiply.

    `detector_labels` overrides the default APD plan; entries per
    detector are "idler", "gate1", "gate2", or (pol, bin) pairs applied
    to both sectors.
    """

    def __init__(
        self,
        sources,
        walk: WalkConfig,
        gates=(),
        eta_sys: float = 1.0,
        eta_idler: float = 1.0,
        detector_labels=None,
        settings: OracleSettings = OracleSettings(),
        k_max: int | None = None,
    ):
        if not 0.0 <= eta_sys <= 1.0:
            raise EtaOutOfRange(f"eta_sys must lie in [0, 1], got {eta_sys}")
        if not 0.0 <= eta_idler <= 1.0:
            raise EtaOutOfRange(f"eta_idler must lie in [0, 1], got {eta_idler}")
        self.settings = settings
        slots = resolve_gate_slots(gates)
        bins = walk.bin_capacity
        for slot in slots:
            if slot is not None and slot.bin > bins:
                raise IndexOutOfRange(
                    f"gate bin {slot.bin} exceeds register capacity {bins}"
                )
        sources = tuple(sources)
        pair_present = any(s.kind in PAIR_KINDS and s.mean_photon > 0 for s in sources)
        branch_sources: list = [[], []]
        for s in sources:
            if s.kind == "vacuum":
                continue
            if s.kind in PAIR_KINDS:
                if s.mean_photon == 0.0:
                    continue
                target = ModeIndex(s.target.pol, s.target.bin, 0)
                branch_sources[0].append(
                    _BranchSource(s.kind, s.mean_photon, s.phase, (target, IDLER))
                )
            elif s.kind == "coherent":
                for b, share in ((0, s.overlap), (1, 1.0 - s.overlap)):
                    mu_b = s.mean_photon * share
                    if mu_b > 0.0:
                        target = ModeIndex(s.target.pol, s.target.bin, b)
                        branch_sources[b].append(
                            _BranchSource("coherent", mu_b, s.phase, (target,))
                        )
            elif s.kind == "thermal":
                if s.mean_photon == 0.0:
                    continue
                target = ModeIndex(s.target.pol, s.target.bin, 0)
                branch_sources[0].append(
                    _BranchSource("thermal", s.mean_photon, s.phase, (target,))
                )
            elif s.kind == "fock1":
                if s.overlap not in (0.0, 1.0):
                    raise ValueError(
                        "fock1 photons cannot be split across sectors; use overlap 0 or 1"
                    )
                b = 0 if s.overlap == 1.0 else 1
                target = ModeIndex(s.target.pol, s.target.bin, b)
                branch_sources[b].append(
                    _BranchSource("fock1", 1.0, s.phase, (target,))
                )
            else:
                raise ValueError(f"unsupported source kind {s.kind!r}")

        eta_walk = aggregate_transmission(walk) * eta_sys
        u_walk = walk_unitary(walk)
        self.branches = []
        self._detector_positions = {name: [[], []] for name in APD_NAMES}
        labels_by_name = detector_labels or _default_detector_labels(bins)
        for b in (0, 1):
            branch = self._build_branch(
                b,
                branch_sources[b],
                u_walk,
                bins,
                slots,
                eta_walk,
                eta_idler,
                pair_present,
                labels_by_name,
                k_max,
            )
            self.branches.append(branch)
        self.truncation_leak = sum(br.leak for br in self.branches)
        self._tolerance = max(1e-12, 8.0 * self.truncation_leak)

    def _build_branch(
        self,
        b,
        srcs,
        u_walk,
        bins,
        slots,
        eta_walk,
        eta_idler,
        pair_present,
        labels_by_name,
        forced_k_max,
    ):
        labels = [ModeIndex(Pol.H, m, b) for m in range(1, bins + 1)]
        labels += [ModeIndex(Pol.V, m, b) for m in range(1, bins + 1)]
        has_idler = b == 0 and pair_present
        if has_idler:
            labels.append(IDLER)
        routing_pos = [None, None]
        for k, slot in enumerate(slots):
            if slot is not None:
                routing_pos[k] = len(labels)
                labels.append(ExtraMode(f"gate{k + 1}_s{b}"))

        positions = {label: i for i, label in enumerate(labels)}
        active = []
        seen = set()
        for src in srcs:
            for label in src.labels:
                if label in seen:
                    raise ModeCollision(f"two sources target mode {label!r}")
                seen.add(label)
                if label not in positions:
                    raise IndexOutOfRange(f"source mode {label!r} not in register")
                active.append(positions[label])

        # loss ancillae, one per occupied lossy input
        loss_plan = []
        for src in srcs:
            for label in src.labels:
                eta = eta_idler if label == IDLER else eta_walk
                if eta < 1.0:
                    loss_plan.append((positions[label], eta))
        n = len(labels) + len(loss_plan)
        w = np.eye(n, dtype=complex)
        for k, (pos, eta) in enumerate(loss_plan):
            w = _bs_embed(n, pos, len(labels) + k, eta) @ w
        u_ext = np.eye(n, dtype=complex)
        u_ext[: 2 * bins, : 2 * bins] = u_walk
        w = u_ext @ w
        for k, slot in enumerate(slots):
            if slot is None:
                continue
            # column `tap`: sqrt(1 - eta_K) leaks onward, sqrt(eta_K) routes out
            tap = positions[ModeIndex(Pol.H, slot.bin, b)]
            w = _bs_embed(n, tap, routing_pos[k], 1.0 - slot.efficiency) @ w

        for name in APD_NAMES:
            resolved = []
            for entry in labels_by_name.get(name, ()):
                if entry == "idler":
                    if has_idler:
                        resolved.append(positions[IDLER])
                elif entry in ("gate1", "gate2"):
                    k = 0 if entry == "gate1" else 1
                    if routing_pos[k] is not None:
                        resolved.append(routing_pos[k])
                else:
                    pol, m = entry
                    label = ModeIndex(Pol(pol), m, b)
                    if label not in positions:
                        raise IndexOutOfRange(f"detector mode {label!r} not in register")
                    resolved.append(positions[label])
            self._detector_positions[name][b] = tuple(sorted(resolved))

        if srcs and forced_k_max is not None:
            k_max = forced_k_max
        elif srcs:
            k_max = _choose_k_max(srcs, self.settings)
        else:
            k_max = 0
        return _Branch(labels, w, active, srcs, k_max, self.settings)

    # -- probability machinery ------------------------------------------------

    def _p0(self, names) -> float:
        value = 1.0
        for b in (0, 1):
            positions = frozenset(
                p for name in names for p in self._detector_positions[name][b]
            )
            value *= self.branches[b].p0(positions)
        return value

    def _split(self, pattern: ClickPattern):
        if len(pattern.clicks) != len(APD_NAMES):
            raise IndexOutOfRange(
                f"pattern has {len(pattern.clicks)} entries for {len(APD_NAMES)} detectors"
            )
        clicked, silent = [], []
        for name, outcome in zip(APD_NAMES, pattern.clicks):
            if outcome is True:
                clicked.append(name)
            elif outcome is False:
                silent.append(name)
        return clicked, silent

    def _covered(self, name: str) -> bool:
        return any(self._detector_positions[name][b] for b in (0, 1))

    def pattern_prob(self, pattern: ClickPattern) -> float:
        clicked, silent = self._split(pattern)
        if any(not self._covered(name) for name in clicked):
            return 0.0
        total = 0.0
        for r in range(len(clicked) + 1):
            for subset in itertools.combinations(clicked, r):
                total += (-1) ** r * self._p0(tuple(silent) + subset)
        if total < 0.0:
            if total < -self._tolerance:
                raise NumericalInstability(
                    f"oracle inclusion-exclusion produced {total:.3e}"
                )
            return 0.0
        return min(total, 1.0)

    def herald_rate(self) -> float:
        if not self._covered("APD1"):
            raise ZeroHeraldRate("no idler mode is present to herald on")
        rate = 1.0 - self._p0(("APD1",))
        if rate <= 0.0:
            raise ZeroHeraldRate("herald detector can never click")
        return rate

    def heralded_prob(self, pattern: ClickPattern) -> float:
        position = APD_NAMES.index("APD1")
        if pattern.clicks[position] is not None:
            raise ValueError("heralded patterns must leave APD1 unconstrained")
        return self.pattern_prob(pattern.with_click(position)) / self.herald_rate()


def _default_detector_labels(bins: int) -> dict:
    return {
        "APD1": ("idler",),
        "APD2": tuple((Pol.H, m) for m in range(1, bins + 1)),
        "APD3": ("gate1",),
        "APD4": ("gate2",),
    }
