import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwalk.fock as fock
from qwalk.detection import APD_NAMES
from qwalk.errors import (
    CutoffTooSmall,
    NumericalInstability,
    ResourceBound,
    ZeroHeraldRate,
)
from qwalk.fock import (
    OracleSettings,
    ThresholdOracle,
    _box_geometry,
    _GRID_ORDER,
    _BranchSource,
    _choose_k_max,
    _cut,
    _ensemble,
    _gamma_blocks,
)
from qwalk.experiments import _SCANS, ExperimentSpec, _sources, run_experiment, verify_against_oracle
from qwalk.gaussian import SourceSpec
from qwalk.modes import IDLER, ModeIndex, Pol
from qwalk.walk import LayerParams, WalkConfig

H1 = ModeIndex(Pol.H, 1, 0)
V1 = ModeIndex(Pol.V, 1, 0)


def full_patterns():
    """Every fully specified query of the four APDs: (clicked, silent) names."""
    for bits in itertools.product((False, True), repeat=len(APD_NAMES)):
        yield tuple(itertools.compress(APD_NAMES, bits)), tuple(n for n, b in zip(APD_NAMES, bits) if not b)


def branch_source(kind, mu):
    labels = (H1, IDLER) if kind in ("tmsv", "squashed") else (H1,)
    return _BranchSource(kind, mu, labels)


def ensemble(kind, mu, k_max):
    """Caps and members of one source, as a branch of the oracle holds it."""
    return _ensemble(branch_source(kind, mu), k_max)


def permanent(a: np.ndarray) -> complex:
    """Permanent of a square matrix by Ryser's formula, vectorized.

    Cost is O(2^n n); fine up to n around 14.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"permanent needs a square matrix, got {a.shape}")
    if n == 0:
        return complex(1.0)
    if n > 16:
        raise ResourceBound(f"refusing Ryser on a {n}x{n} matrix")
    masks = np.arange(1, 2**n, dtype=np.int64)
    subsets = ((masks[:, None] >> np.arange(n, dtype=np.int64)[None, :]) & 1).astype(float)
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
        raise ValueError(f"matrix {g.shape} does not match multiplicities {r.size}x{c.size}")
    if (r < 0).any() or (c < 0).any():
        raise ValueError("multiplicities must be non-negative")
    total = int(r.sum())
    if total != int(c.sum()):
        raise ValueError(f"row total {total} differs from column total {int(c.sum())}")
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


def permanent_brute(a):
    n = a.shape[0]
    return sum(
        np.prod([a[i, p[i]] for i in range(n)])
        for p in itertools.permutations(range(n))
    )


@given(
    n=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_permanent_matches_brute_force(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    assert permanent(a) == pytest.approx(permanent_brute(a), rel=1e-10, abs=1e-10)


def test_permanent_refuses_large_matrices():
    with pytest.raises(ResourceBound):
        permanent(np.eye(17))


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_perm_reduced_matches_expanded_permanent(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rows = tuple(rng.integers(0, 3, size=2))
    cols = list(rows)
    rng.shuffle(cols)
    cols = tuple(cols)
    expanded = g[np.repeat((0, 1), rows)][:, np.repeat((0, 1), cols)]
    assert perm_reduced(g, rows, cols) == pytest.approx(
        permanent(expanded), rel=1e-10, abs=1e-12
    )


def test_perm_reduced_requires_equal_totals():
    with pytest.raises(ValueError, match="row total"):
        perm_reduced(np.eye(2, dtype=complex), (1, 0), (1, 1))


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_gamma_blocks_match_perm_reduced(seed):
    # batched block recursion against the one-element Ryser formula, on an
    # uneven box; the second G holds exact zeros
    rng = np.random.default_rng(seed)
    q = 3
    g = rng.normal(size=(3, q, q)) + 1j * rng.normal(size=(3, q, q))
    g[1, [0, 0, 1, 2], [0, 1, 2, 0]] = 0.0
    geom = _box_geometry((1, 3, 2), 6)
    for total, f in enumerate(_gamma_blocks(g, geom)):
        cols = geom.block_cols[total]
        assert f.shape == (len(g), cols.size, cols.size)
        for a, ka in enumerate(cols):
            for b, kb in enumerate(cols):
                kr = tuple(geom.tuples[ka])
                kc = tuple(geom.tuples[kb])
                norm = np.prod([math.factorial(x) for x in kr + kc])
                for m in range(len(g)):
                    assert f[m, a, b] == pytest.approx(
                        perm_reduced(g[m], kr, kc) / norm, rel=1e-9, abs=1e-12
                    )
    assert total == 6


def two_branch_oracle():
    return ThresholdOracle(
        (
            SourceSpec("tmsv", H1, 0.026),
            SourceSpec("coherent", V1, 0.2, overlap=0.7),
        ),
        WalkConfig.uniform(2),
    ).scan([(1, 3)], 0.97)


def test_batched_branch_p0_matches_one_set_at_a_time():
    batched, single = two_branch_oracle().branches[0], two_branch_oracle().branches[0]
    g = list(batched.grams[1:])  # (H, 1..3), (V, 1..3), the idler
    sets = [g[:1], [g[1], g[3]], [g[2], g[4], g[-1]], g[:4]]
    grams = [sum(s) for s in sets]
    for gram, value in zip(grams, batched.p0(grams)):
        assert abs(single.p0([gram])[0] - value) <= 1e-14
        assert 0.0 < value <= 1.0


ONE_WALK_CASES = {
    # the coherent light's column at (V, t_1) feeds both sectors
    "split-coherent": (
        (SourceSpec("tmsv", H1, 0.026), SourceSpec("coherent", V1, 0.2, overlap=0.7)),
        (SourceSpec("tmsv", H1, 0.026), SourceSpec("coherent", V1, 0.2, overlap=1.0)),
        (SourceSpec("coherent", V1, 0.2, overlap=0.0),),
    ),
    # the sectors light different bins, so the joint light cone is wider
    # than either sector's own
    "distinct-bins": (
        (SourceSpec("tmsv", ModeIndex(Pol.H, 3, 0), 0.026), SourceSpec("fock1", H1, overlap=0.0)),
        (SourceSpec("tmsv", ModeIndex(Pol.H, 3, 0), 0.026),),
        (SourceSpec("fock1", H1, overlap=0.0),),
    ),
}


@pytest.mark.parametrize("case", sorted(ONE_WALK_CASES))
@pytest.mark.parametrize("seed", range(4))
def test_one_walk_gives_each_branch_the_grams_of_its_own_walk(monkeypatch, case, seed):
    # both sectors' input columns go through one walk; each branch's Gram
    # terms equal those of an oracle whose other branch is empty, which
    # walks that branch's columns alone
    rng = np.random.default_rng(seed)
    layers = tuple(
        LayerParams(omega=float(rng.uniform(0.0, np.pi)), gamma=float(rng.uniform(0.0, 2 * np.pi)))
        for _ in range(3)
    )
    walk = WalkConfig(3, layers, 6)
    walks = []
    walk_columns = fock.walk_columns
    monkeypatch.setattr(fock, "walk_columns", lambda *args: walks.append(args) or walk_columns(*args))
    joint, *alone = (ThresholdOracle(sources, walk, eta_sys=0.9, eta_idler=0.8) for sources in ONE_WALK_CASES[case])
    assert len(walks) == 3
    for b, reference in enumerate(alone):
        assert not reference.branches[1 - b].grams.size
        assert np.array_equal(joint.branches[b].grams, reference.branches[b].grams)


def full_box_p0(grams, ensembles, k_max):
    """P0 of each Gram sum, and the leak, by the recursion over the whole
    occupation box of a branch's inputs, idler included: `_Branch` before
    its free axes were factored out, kept as the reference."""
    caps, ensembles = zip(*ensembles)
    caps = sum(caps, ())
    geom = _box_geometry(caps, k_max)
    weights = [1.0]
    arrays = [np.ones((), dtype=complex)]
    for ens in ensembles:
        weights = [w0 * w1 for w0 in weights for w1, _ in ens]
        arrays = [np.multiply.outer(a0, a1) for a0 in arrays for _, a1 in ens]
    psi = np.stack([a.ravel() for a in arrays]) * (geom.totals <= geom.k_max)[None, :]
    leak = max(0.0, 1.0 - float(np.asarray(weights) @ np.sum(np.abs(psi) ** 2, axis=1)))
    phi = psi * geom.sqrt_fact[None, :]
    g = np.stack([np.eye(len(caps)) - gram for gram in grams])
    total = np.zeros((len(g), len(weights)))
    for cols, f in zip(geom.block_cols, _gamma_blocks(g, geom)):
        block = phi[:, cols]
        total += np.real(np.einsum("mi,bij,mj->bm", block.conj(), f, block))
    return total @ np.asarray(weights), leak


FACTORED_SOURCES = {
    "tmsv": lambda overlap: (
        SourceSpec("tmsv", H1, 0.026),
        SourceSpec("coherent", V1, 0.2, overlap=overlap),
    ),
    "squashed": lambda overlap: (
        SourceSpec("squashed", H1, 0.026),
        SourceSpec("coherent", V1, 0.2, overlap=overlap),
    ),
    "fock1": lambda overlap: (
        SourceSpec("fock1", H1, 1.0),
        SourceSpec("coherent", V1, 0.2, overlap=overlap),
    ),
    "coherent": lambda overlap: (SourceSpec("coherent", V1, 0.3, overlap=overlap),),
    # the two photons of `hom_oracle`, the V one in sector 1 at overlap 0
    "hom": lambda overlap: (
        SourceSpec("fock1", H1, 1.0),
        SourceSpec("fock1", V1, 1.0, overlap=float(overlap > 0.0)),
    ),
}


@given(
    kind=st.sampled_from(sorted(FACTORED_SOURCES)),
    eta_idler=st.sampled_from((0.5, 1.0)),
    overlap=st.sampled_from((0.0, 0.7, 1.0)),
    n_steps=st.integers(min_value=1, max_value=3),
    gates=st.sampled_from(((None, None), (1, None), (None, 2), (1, 2), (2, 4), (3, 4))),
    efficiency=st.floats(min_value=0.0, max_value=1.0),
    sets=st.lists(st.sets(st.sampled_from(APD_NAMES)), min_size=1, max_size=4),
)
@settings(max_examples=50, deadline=None)
def test_factored_branch_p0_matches_the_full_box(
    kind, eta_idler, overlap, n_steps, gates, efficiency, sets
):
    # every draw also asks the herald's own set, where G_jj = 0 at eta_idler = 1
    built = []
    build = fock._Branch.__init__

    def recorded(self, grams, ensembles, k_max):
        built.append((self, ensembles, k_max))
        build(self, grams, ensembles, k_max)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock._Branch, "__init__", recorded)
        oracle = ThresholdOracle(
            FACTORED_SOURCES[kind](overlap),
            WalkConfig.uniform(n_steps, omega=0.6, gamma=0.4),
            eta_sys=0.9,
            eta_idler=eta_idler,
        )
    bins = n_steps + 1
    routed = oracle.scan([[b if b and b <= bins else 0 for b in gates]], efficiency)
    name_sets = [("APD1",)] + [tuple(s) for s in sets]
    asked = {}  # the Gram sums each branch is asked for
    p0 = fock._Branch.p0

    def recorded_p0(self, grams):
        asked[id(self)] = grams
        return p0(self, grams)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock._Branch, "p0", recorded_p0)
        routed._p0(name_sets)
    for branch, ensembles, k_max in built:
        if branch.trivial:
            continue
        # and the empty sum, whose P0 is the kept norm 1 - leak
        lit = list(asked.get(id(branch), [])) + [0.0 * branch.grams[0]]
        reference, leak = full_box_p0(lit, ensembles, k_max)
        assert np.abs(np.subtract(branch.p0(lit), reference)).max() <= 1e-13
        assert branch.leak == leak
    assert oracle.truncation_leak == sum(branch.leak for branch, _, _ in built)


def test_heralded_query_runs_one_recursion_per_branch(monkeypatch):
    import qwalk.fock as fock

    calls = []
    recursion = fock._gamma_blocks

    def counted(g, geom):
        calls.append(len(g))
        return recursion(g, geom)

    monkeypatch.setattr(fock, "_gamma_blocks", counted)
    oracle = two_branch_oracle()
    branches = sum(not branch.trivial for branch in oracle.branches)
    assert branches == 2
    # APD2 silent: the herald's own set is not among the pattern's sets
    oracle.heralded_prob(("APD3", "APD4"), ("APD2",))
    assert 0 < len(calls) <= branches
    oracle.herald_rate()
    assert len(calls) <= branches


def test_absent_detectors_give_one_and_zero_rows_are_recursed(monkeypatch):
    import qwalk.fock as fock

    calls = []
    recursion = fock._gamma_blocks

    def counted(g, geom):
        calls.append(len(g))
        return recursion(g, geom)

    monkeypatch.setattr(fock, "_gamma_blocks", counted)
    # zero-step walk: no light reaches (V, 1), so APD4 watches a zero row;
    # a loose leak target (cutoff 2) leaves a visible truncation leak
    oracle = ThresholdOracle(
        (SourceSpec("coherent", H1, 0.1),),
        WalkConfig.uniform(0),
        detector_labels={"APD2": ((Pol.H, 1),), "APD4": ((Pol.V, 1),)},
        settings=OracleSettings(leak_target=1e-3),
    )
    assert oracle.truncation_leak > 1e-5
    assert oracle._p0([("APD3",), ()]).ravel().tolist() == [1.0, 1.0]
    assert calls == []
    (zero_row,) = oracle._p0([("APD4",)])
    assert calls == [1]
    assert zero_row == pytest.approx(1.0 - oracle.truncation_leak, abs=1e-15)
    assert oracle.pattern_prob(("APD3",)).tolist() == [0.0]
    # a dark slot leaves its detector uncovered
    dark = ThresholdOracle((SourceSpec("coherent", H1, 0.1),), WalkConfig.uniform(1))
    for slots in ((0, 2), (1, 0)):
        routed = dark.scan([slots], 0.97)
        dark_name = "APD3" if slots[0] == 0 else "APD4"
        assert routed.pattern_prob((dark_name,)).tolist() == [0.0]
        lit_name = "APD4" if slots[0] == 0 else "APD3"
        assert routed.pattern_prob((lit_name,))[0] > 0.0


def test_a_mode_on_two_detectors_counts_once_in_their_union():
    oracle = ThresholdOracle(
        (SourceSpec("coherent", H1, 0.3),),
        WalkConfig.uniform(1),
        detector_labels={"APD2": ((Pol.H, 1),), "APD4": ((Pol.H, 1), (Pol.V, 2))},
    )
    union, alone = oracle._p0([("APD2", "APD4"), ("APD4",)])
    assert union == alone < 1.0


def lone_photon_oracle(monkeypatch, total):
    """An oracle whose two P0 values for an APD2 click differ by `total`."""
    oracle = ThresholdOracle(
        (SourceSpec("fock1", H1, 1.0),), WalkConfig.uniform(0, transmission=1.0)
    )
    monkeypatch.setattr(oracle, "_p0", lambda name_sets: np.array([total, 0.0]))
    return oracle


@pytest.mark.parametrize(
    "outside, shown",
    [(-2e-12, "-2e-12"), (1.0 + 2e-12, "1.000000000002")],
    ids=["-2e-12", "1.000000000002"],
)
def test_oracle_refuses_totals_outside_the_unit_interval(monkeypatch, outside, shown):
    oracle = lone_photon_oracle(monkeypatch, outside)
    assert oracle._tolerance == 1e-12
    with pytest.raises(NumericalInstability, match=f"oracle inclusion-exclusion produced {shown}$"):
        oracle.pattern_prob(("APD2",))


def p0_by_gate_bin(rows):
    """A stand-in for ThresholdOracle._p0: at a gate point, the P0 of every
    detector set (one value) or of each in turn (a tuple) is rows[b], with
    b gate 1's bin there."""

    def _p0(self, name_sets):
        return np.array([np.broadcast_to(rows[b], len(name_sets)) for b in self._gates[0][:, 0]]).T

    return _p0


GATE_1_POINTS = [(m, 0) for m in (1, 2, 3)]


@pytest.mark.parametrize(
    "outside, shown",
    [(-2e-12, "-2e-12"), (1.0 + 2e-12, "1.000000000002")],
    ids=["-2e-12", "1.000000000002"],
)
def test_a_point_refused_mid_scan_raises_as_its_one_point_query(monkeypatch, outside, shown):
    # the setup of the test above, with the bad total at the middle one of three points
    monkeypatch.setattr(
        ThresholdOracle, "_p0", p0_by_gate_bin({1: (0.5, 0.0), 2: (outside, 0.0), 3: (0.25, 0.0)})
    )
    oracle = ThresholdOracle((SourceSpec("fock1", H1, 1.0),), WalkConfig.uniform(2))
    pattern = ("APD3",)
    assert [oracle.scan([GATE_1_POINTS[m]], 0.97).pattern_prob(pattern)[0] for m in (0, 2)] == [0.5, 0.25]
    for routed in (oracle.scan([GATE_1_POINTS[1]], 0.97), oracle.scan(GATE_1_POINTS, 0.97)):
        with pytest.raises(NumericalInstability, match=f"^oracle inclusion-exclusion produced {shown}$"):
            routed.pattern_prob(pattern)


def test_a_zero_herald_rate_mid_scan_raises_as_its_one_point_query(monkeypatch):
    pattern = ("APD3",)
    # APD1 on gate 1's routed share: the middle point leaves it dark
    plan = {"APD1": ("gate1",), "APD3": ("gate2",)}
    oracle = ThresholdOracle((SourceSpec("coherent", H1, 0.3),), WalkConfig.uniform(2), detector_labels=plan)
    points = [(1, 2), (0, 3), (3, 1)]
    assert oracle.scan([points[0]], 0.97).heralded_prob(pattern)[0] > 0.0
    for routed in (oracle.scan([points[1]], 0.97), oracle.scan(points, 0.97)):
        for query in (routed.herald_rate, lambda: routed.heralded_prob(pattern)):
            with pytest.raises(ZeroHeraldRate, match="^no idler mode is present to herald on$"):
                query()
    # a herald detector that can never click at the middle point
    monkeypatch.setattr(ThresholdOracle, "_p0", p0_by_gate_bin({1: 0.9, 2: 1.0, 3: 0.9}))
    oracle = ThresholdOracle((SourceSpec("tmsv", H1, 0.026),), WalkConfig.uniform(2))
    assert oracle.scan([GATE_1_POINTS[0]], 0.97).herald_rate()[0] == pytest.approx(0.1)
    for routed in (oracle.scan([GATE_1_POINTS[1]], 0.97), oracle.scan(GATE_1_POINTS, 0.97)):
        for query in (routed.herald_rate, lambda: routed.heralded_prob(pattern)):
            with pytest.raises(ZeroHeraldRate, match="^herald detector can never click$"):
                query()


def test_a_scan_split_at_the_recursion_block_boundary_is_bit_identical(monkeypatch):
    spec = ExperimentSpec(
        walk=WalkConfig.uniform(3, omega=0.6, gamma=0.4),
        kind="three-fold",
        pair_source="squashed",
        mu_alpha=0.2,
        mu_xi=0.026,
        overlap=0.7,
        eta_kerr=0.9,
        eta_sys=0.9,
        eta_idler=0.8,
    )
    scan = _SCANS[spec.kind]
    points = scan.slots(scan.labels(spec.walk.n_steps))
    passes = []
    recursion = fock._gamma_blocks

    def counted(g, geom):
        passes.append(len(g))
        return recursion(g, geom)

    def scored(block, point_block):
        monkeypatch.setattr(fock, "_BLOCK", block)
        monkeypatch.setattr(fock, "_POINTS", point_block)
        passes.clear()
        oracle = ThresholdOracle(_sources(spec), spec.walk, eta_sys=0.9, eta_idler=0.8)
        return oracle.scan(points, spec.eta_kerr).heralded_prob(scan.clicked), list(passes)

    monkeypatch.setattr(fock, "_gamma_blocks", counted)
    block, point_block = fock._BLOCK, fock._POINTS
    whole, one = scored(block, point_block)
    split, many = scored(3, point_block)
    routed, blocked = scored(block, 3)
    # one pass per branch; split, the same coupled blocks in passes of at most 3
    assert len(one) == 2 and len(many) > 4
    assert max(many) == 3 and sum(many) == sum(one)
    assert split.tobytes() == whole.tobytes()
    # the 6 points routed in two blocks of 3: each block's new coupled blocks in one pass
    assert len(points) == 6 and len(blocked) > len(one) and sum(blocked) == sum(one)
    assert routed.tobytes() == whole.tobytes()


def column_share_sums(routed, name_sets) -> list:
    """Per branch, the Gram sum of each (point, set) with a mode there, by
    the column-share algebra that routing once used, kept as the reference:
    each watched column at its share (eta on a routed column, 1 - eta on a
    gated bin's H column, 1 elsewhere), each routed share then folded onto
    its gate's H column, a dark slot's onto column 0."""
    bins, eff = routed._gates
    member = np.array([[name in names for name in APD_NAMES] for names in name_sets])
    watch = (member[:, :, None] & routed._watch).any(axis=1)
    share = np.ones((len(bins), watch.shape[1]))
    share[np.arange(len(bins))[:, None], bins] = 1.0 - eff
    share[:, -2:] = eff
    coef = watch * share[:, None, :]
    coef = coef[..., :-2] + coef[..., -2:] @ (bins[:, :, None] == np.arange(coef.shape[2] - 2))
    return [
        np.einsum("pc,cij->pij", coef[routed._seen(watch, lit)], branch.grams)
        for branch, lit in zip(routed.branches, routed._lit)
    ]


@given(
    kind=st.sampled_from(sorted(FACTORED_SOURCES)),
    overlap=st.sampled_from((0.0, 0.7, 1.0)),
    n_steps=st.integers(min_value=1, max_value=3),
    efficiency=st.floats(min_value=0.0, max_value=1.0),
    point_block=st.sampled_from((1, 2, fock._POINTS)),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_routed_gram_sums_match_the_column_share_algebra(
    kind, overlap, n_steps, efficiency, point_block, data
):
    # random plans, some detectors watching a gate's routed share and bins of H
    # and V at once, at gate points with dark slots, scored in blocks of points
    bins = n_steps + 1
    modes = ["idler", "gate1", "gate2"] + [(pol, m) for pol in (Pol.H, Pol.V) for m in range(1, bins + 1)]
    plan = {name: tuple(data.draw(st.lists(st.sampled_from(modes), unique=True, max_size=4))) for name in APD_NAMES}
    row = st.tuples(st.integers(0, bins), st.integers(0, bins)).filter(lambda r: r[0] != r[1] or not r[0])
    points = data.draw(st.lists(row, min_size=1, max_size=6))
    name_sets = [tuple(s) for s in data.draw(st.lists(st.sets(st.sampled_from(APD_NAMES)), min_size=1, max_size=4))]
    walk = WalkConfig.uniform(n_steps, omega=0.6, gamma=0.4)
    oracle = ThresholdOracle(FACTORED_SOURCES[kind](overlap), walk, 0.9, 0.8, detector_labels=plan)
    routed = oracle.scan(points, efficiency)
    asked = {id(branch): [] for branch in routed.branches}
    p0 = fock._Branch.p0

    def recorded(self, grams):
        asked[id(self)].append(grams)
        return p0(self, grams)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock._Branch, "p0", recorded)
        patch.setattr(fock, "_POINTS", point_block)
        routed._p0(name_sets)
    for branch, reference in zip(routed.branches, column_share_sums(routed, name_sets)):
        if branch.trivial:
            continue
        got = np.concatenate(asked[id(branch)] or [reference[:0]])
        assert got.shape == reference.shape
        assert np.abs(got - reference).max(initial=0.0) <= 1e-15


def test_an_n_61_oracle_check_stays_under_48_mib():
    # routing is O(q^2) per (point, set), in fixed blocks of points, and the
    # members enter through one density matrix per free occupation, so the
    # oracle's memory does not grow with the register; a (points x sets x
    # register columns) coefficient tensor peaked at 126 MiB here
    spec = ExperimentSpec(
        walk=WalkConfig.uniform(61),
        kind="three-fold",
        heralded=True,
        mu_alpha=0.24,
        mu_xi=0.026,
        overlap=0.897461,
        eta_kerr=0.97,
    )
    tracemalloc.start()
    try:
        report = verify_against_oracle(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.comparisons == 1891
    assert report.max_abs_diff <= 1e-6
    assert peak < 48 * 2**20, f"{peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("pair_source", ("tmsv", "squashed", None))
def test_a_photon_cap_past_the_box_limit_is_refused_before_allocating(pair_source):
    # each source's ensemble is built at the cap before k_max is chosen; a squashed
    # pair's holds 144 (cap + 1)^2 complex amplitudes, 2.3 GB at a cap of 1000.
    # Coherent light alone holds cap + 1, but the photon-number distribution
    # costs (cap + 1)^2 multiply-adds per source, some 1e10 here.
    sources = (SourceSpec("coherent", V1, 0.24, overlap=0.9),)
    if pair_source:
        sources += (SourceSpec(pair_source, H1, 0.026),)
    settings = OracleSettings(max_total_photons=100_000)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBound, match="max_total_photons = 100000"):
            ThresholdOracle(sources, WalkConfig.uniform(2), settings=settings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"{peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("kind, fits", [("squashed", 116), ("coherent", 1413)])
def test_the_photon_cap_bound_is_the_box_limit(kind, fits):
    # a squashed pair alone holds 144 (cap + 1)^2 amplitudes, and coherent light
    # alone takes (cap + 1)^2 multiply-adds; both fit the limit at `fits`
    source = [branch_source(kind, 0.026)]
    assert _choose_k_max(source, OracleSettings(max_total_photons=fits))[0] < fits
    with pytest.raises(ResourceBound):
        _choose_k_max(source, OracleSettings(max_total_photons=fits + 1))


@pytest.mark.parametrize("kind", ("one-fold", "two-fold", "three-fold"))
def test_n_6_dense_scans_stay_under_2_mib(kind):
    # the dense route stacks one block of gate points at a time, so its memory
    # does not grow with the scan; a stack of all 21 points peaked at 2.6 MiB
    for herald in ("heralded", "unheralded", "ideal"):
        spec = ExperimentSpec(
            walk=WalkConfig.uniform(6),
            kind=kind,
            mu_alpha=0.3,
            overlap=0.6,
            eta_sys=0.9,
            heralded=herald != "unheralded",
            ideal_herald=herald == "ideal",
        )
        run_experiment(spec)  # imports and module caches stay out of the peak
        tracemalloc.start()
        try:
            run_experiment(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, f"{herald}: {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("inside, clamped", [(-5e-13, 0.0), (1.0 + 5e-13, 1.0)])
def test_oracle_clamps_round_off_within_tolerance(monkeypatch, inside, clamped):
    oracle = lone_photon_oracle(monkeypatch, inside)
    assert oracle.pattern_prob(("APD2",)).tolist() == [clamped]


def hom_oracle():
    """One H and one V photon on a balanced one-step coin, each output arm on its own APD."""
    return ThresholdOracle(
        (SourceSpec("fock1", H1, 1.0), SourceSpec("fock1", V1, 1.0)),
        WalkConfig.uniform(1, transmission=1.0),
        detector_labels={"APD2": ((Pol.H, 1),), "APD4": ((Pol.V, 2),)},
    )


def test_two_photons_bunch_at_a_balanced_splitter():
    oracle = hom_oracle()
    assert oracle.pattern_prob(("APD2",), ("APD4",))[0] == pytest.approx(
        0.5, abs=1e-12
    )
    assert oracle.pattern_prob(("APD4",), ("APD2",))[0] == pytest.approx(
        0.5, abs=1e-12
    )


def test_hom_null_for_indistinguishable_photons():
    assert hom_oracle().pattern_prob(("APD2", "APD4"))[0] < 1e-14


def test_coherent_decomposition_matches_poisson():
    caps, members = ensemble("coherent", 0.1, 8)
    assert caps == (8,)
    assert len(members) == 1
    w, amps = members[0]
    assert w == 1.0
    assert abs(amps[0]) ** 2 == pytest.approx(math.exp(-0.1), abs=1e-12)
    assert abs(amps[2]) ** 2 == pytest.approx(math.exp(-0.1) * 0.1**2 / 2, abs=1e-12)


def test_tmsv_decomposition_is_twin_beam():
    caps, members = ensemble("tmsv", 0.026, 8)
    (w, amps), = members
    assert w == 1.0
    assert caps == (4, 4)
    lam = math.sqrt(0.026 / 1.026)
    for n in range(4):
        assert amps[n, n] == pytest.approx(lam**n / math.sqrt(1.026), rel=1e-12)
    assert not np.any(amps - np.diag(np.diag(amps)))


def test_pair_source_at_zero_gain_is_two_mode_vacuum():
    # a zero-gain pair adds no mode and no amplitude: the oracle beside it
    # is the coherent light's own, to the bit
    walk = WalkConfig.uniform(2)
    slots = [(1, 3)]
    coherent = SourceSpec("coherent", V1, 0.2, overlap=0.7)
    alone = ThresholdOracle((coherent,), walk).scan(slots, 0.97)
    beside = ThresholdOracle((SourceSpec("tmsv", H1, 0.0), coherent), walk).scan(slots, 0.97)
    assert beside.truncation_leak == alone.truncation_leak
    for pattern in full_patterns():
        assert beside.pattern_prob(*pattern).tobytes() == alone.pattern_prob(*pattern).tobytes()


def test_squashed_decomposition_reproduces_pair_moments():
    # the coherent-pair mixture must carry <n_sig> = mu and <a b> = mu
    mu = 0.026
    caps, members = ensemble("squashed", mu, 10)
    assert caps == (10, 10)
    assert sum(w for w, _ in members) == pytest.approx(1.0, abs=1e-12)
    raised = np.sqrt(np.arange(1, 11))

    def lowering_mean(amps, mode):
        amps = np.moveaxis(amps, mode, 0)
        return np.sum(np.conj(amps[:-1]) * amps[1:] * raised[:, None])

    n_sig = sum(w * np.arange(11) @ (abs(amps) ** 2).sum(axis=1) for w, amps in members)
    cross = sum(w * lowering_mean(amps, 0) * lowering_mean(amps, 1) for w, amps in members)
    assert n_sig == pytest.approx(mu, abs=1e-7)
    assert cross.real == pytest.approx(mu, abs=1e-7)
    assert abs(cross.imag) < 1e-9


def test_pair_kinds_need_room_for_two_photons():
    # at mu_xi = 1e-10 the leak target is met with no photon at all
    with pytest.raises(CutoffTooSmall, match="at least 2"):
        ThresholdOracle((SourceSpec("tmsv", H1, 1e-10),), WalkConfig.uniform(1))


def test_oracle_matches_gaussian_route_spot_check():
    sources = (
        SourceSpec("tmsv", H1, 0.026),
        SourceSpec("coherent", V1, 0.2, overlap=0.6),
    )
    walk = WalkConfig.uniform(2)
    slots = (1, 2)
    import qwalk.dense as dense
    import qwalk.experiments as exp

    spec = exp.ExperimentSpec(
        walk=walk, kind="two-fold", mu_alpha=0.2, mu_xi=0.026, overlap=0.6
    )
    stage = exp._stage(spec)
    calc, _ = dense._gate_point(stage, dense._register(stage), [slots], 0.97)
    pattern = ("APD1", "APD3", "APD4")
    gaussian_value = calc.pattern(pattern)[0]
    oracle = ThresholdOracle(sources, walk).scan([slots], 0.97)
    assert oracle.pattern_prob(pattern)[0] == pytest.approx(
        gaussian_value, abs=5e-9
    )
    assert oracle.truncation_leak < 1e-9


def test_oracle_single_photon_survival_under_loss():
    # a lone photon through a trivial walk with 50% system loss
    sources = (SourceSpec("fock1", H1, 1.0),)
    walk = WalkConfig.uniform(0, transmission=1.0)
    oracle = ThresholdOracle(sources, walk, eta_sys=0.5)
    silent = (), ("APD2",)
    assert oracle.pattern_prob(*silent)[0] == pytest.approx(0.5, abs=1e-12)
    click = ("APD2",)
    assert oracle.pattern_prob(click)[0] == pytest.approx(0.5, abs=1e-12)


def test_fock1_overlap_must_be_sharp():
    sources = (SourceSpec("fock1", H1, 1.0, overlap=0.5),)
    with pytest.raises(ValueError):
        ThresholdOracle(sources, WalkConfig.uniform(1))


def test_squashed_pair_heralds_fewer_signal_clicks_than_tmsv():
    values = {}
    for kind in ("tmsv", "squashed"):
        oracle = ThresholdOracle(
            (SourceSpec(kind, H1, 0.026),),
            WalkConfig.uniform(1, transmission=1.0),
        )
        (values[kind],) = oracle.heralded_prob(("APD2",))
    assert values["squashed"] < values["tmsv"]


def test_truncation_leak_shrinks_with_cutoff():
    sources = (
        SourceSpec("tmsv", H1, 0.026),
        SourceSpec("coherent", V1, 0.3),
    )
    walk = WalkConfig.uniform(1)
    leaks = [
        ThresholdOracle(
            sources, walk, settings=OracleSettings(leak_target=target)
        ).truncation_leak
        for target in (1e-4, 1e-7, 1e-10)
    ]
    assert leaks[0] > leaks[1] > leaks[2]


def test_oracle_cutoff_follows_the_leak_target(cutoffs):
    # zero-step walk: the coherent light never leaves its input mode
    oracle = ThresholdOracle(
        (SourceSpec("coherent", H1, 0.1),),
        WalkConfig.uniform(0),
        settings=OracleSettings(leak_target=1e-13),
    )
    assert cutoffs == [8, 0]
    (value,) = oracle.pattern_prob(("APD2",))
    assert value == pytest.approx(1.0 - math.exp(-0.1), abs=1e-9)


def test_oracle_pattern_space_sums_to_one():
    oracle = two_branch_oracle()
    total = sum(oracle.pattern_prob(*p)[0] for p in full_patterns())
    assert total == pytest.approx(1.0, abs=1e-9)


# A 1e-14 leak target needs a photon cap above the default 16 at the paper's
# point.  Below a target of 1e-12 `_choose_k_max` compares tails at round-off,
# so the tests below pin each branch's cutoff by value.
PAPER_SCALE = OracleSettings(leak_target=1e-14, max_total_photons=20)


@pytest.fixture
def cutoffs(monkeypatch):
    """The k_max of each branch built, in order."""
    recorded = []
    build = fock._Branch.__init__

    def recording(self, grams, ensembles, k_max):
        recorded.append(k_max)
        build(self, grams, ensembles, k_max)

    monkeypatch.setattr(fock._Branch, "__init__", recording)
    return recorded


@pytest.mark.parametrize(
    "kind, heralded, pair_source",
    [
        pytest.param("two-fold", True, "tmsv", id="two-fold-True"),
        pytest.param("three-fold", True, "tmsv", id="three-fold-True"),
        pytest.param("three-fold", False, "tmsv", id="three-fold-False"),
        pytest.param("three-fold", True, "squashed", id="three-fold-True-squashed"),
    ],
)
def test_oracle_agrees_to_1e_12_at_paper_scale(cutoffs, kind, heralded, pair_source):
    spec = ExperimentSpec(
        walk=WalkConfig.uniform(23),
        kind=kind,
        heralded=heralded,
        pair_source=pair_source,
        mu_alpha=0.24,
        mu_xi=0.026,
        overlap=0.897461,
        eta_kerr=0.97,
        eta_sys=0.9,
        eta_idler=0.8,
    )
    report = verify_against_oracle(spec, PAPER_SCALE)
    assert cutoffs == {"tmsv": [18, 6], "squashed": [12, 6]}[pair_source]
    assert report.comparisons == 276
    assert report.max_abs_diff <= 1e-12


@pytest.mark.parametrize("kind", ["one-fold", "two-fold", "three-fold"])
@pytest.mark.parametrize(
    "herald, pair_source",
    [
        ("heralded", "tmsv"),
        ("heralded", "squashed"),
        ("unheralded", "tmsv"),
        ("unheralded", "squashed"),
        ("ideal", "tmsv"),
    ],
)
def test_oracle_agrees_to_1e_12_at_n_11(cutoffs, kind, herald, pair_source):
    # A heralded value is a joint probability over the herald rate, ~0.02 here
    # (mu_xi 0.026 at eta_idler 0.8), so its round-off of about 1e-15 / rate
    # stays well under the bound.
    spec = ExperimentSpec(
        walk=WalkConfig.uniform(11),
        kind=kind,
        heralded=herald != "unheralded",
        ideal_herald=herald == "ideal",
        pair_source=pair_source,
        mu_alpha=0.24,
        mu_xi=0.026,
        overlap=0.897461,
        eta_kerr=0.97,
        eta_sys=0.9,
        eta_idler=0.8,
    )
    report = verify_against_oracle(spec, PAPER_SCALE)
    # k_max of the sector holding the pair (or the heralded photon) and of the other
    pinned = {"tmsv": [18, 6], "squashed": [12, 6], "ideal": [11, 6]}
    assert cutoffs == pinned["ideal" if herald == "ideal" else pair_source]
    assert report.comparisons == (12 if kind == "one-fold" else 66)
    assert report.max_abs_diff <= 1e-12


def test_acceptance_grid_agrees_to_1e_12_at_a_1e_14_leak(cutoffs):
    # the grid of test_02, whose own bound stays 1e-6 at the default leak
    pinned = {  # (mu_alpha, overlap) -> k_max of the pair's and the other sector
        (0.1, 0.0): [18, 9],
        (0.1, 0.7): [18, 7],
        (0.1, 1.0): [18, 0],
        (0.3, 0.0): [18, 11],
        (0.3, 0.7): [18, 8],
        (0.3, 1.0): [18, 0],
    }
    grid = itertools.product(
        (1, 2, 3),
        (0.1, 0.3),
        (0.0, 0.7, 1.0),
        (0.97, 1.0),
        ("one-fold", "two-fold", "three-fold"),
        (True, False),
    )
    for n, mu_alpha, overlap, eta_kerr, kind, heralded in grid:
        spec = ExperimentSpec(
            walk=WalkConfig.uniform(n),
            kind=kind,
            mu_alpha=mu_alpha,
            mu_xi=0.026,
            overlap=overlap,
            eta_kerr=eta_kerr,
            heralded=heralded,
        )
        cutoffs.clear()
        report = verify_against_oracle(spec, PAPER_SCALE)
        assert cutoffs == pinned[mu_alpha, overlap]
        assert report.max_abs_diff <= 1e-12, spec


def poisson_pmf(mean, cap):
    pmf = np.zeros(cap + 1)
    pmf[0] = math.exp(-mean)
    for k in range(1, cap + 1):
        pmf[k] = pmf[k - 1] * mean / k
    return pmf


def closed_form_pmf(kind, mu, cap):
    """P(k photons in all), k = 0..cap, of one source in closed form: Poisson
    light, the twin beam's geometric law on even totals, one photon, and the
    squashed pair as its Poisson mixture over the same Gauss-Hermite nodes."""
    if kind == "coherent":
        return poisson_pmf(mu, cap)
    if kind == "tmsv":
        lam2 = mu / (1.0 + mu)
        return np.array([(1.0 - lam2) * lam2 ** (k // 2) * (k % 2 == 0) for k in range(cap + 1)])
    if kind == "squashed":
        nodes, weights = np.polynomial.hermite.hermgauss(_GRID_ORDER)
        return sum(
            wj * wk / math.pi * poisson_pmf(2.0 * mu * (xj**2 + xk**2), cap)
            for xj, wj in zip(nodes, weights)
            for xk, wk in zip(nodes, weights)
        )
    return (np.arange(cap + 1) == 1).astype(float)


@pytest.mark.parametrize("kind", ["coherent", "tmsv", "squashed", "fock1"])
@pytest.mark.parametrize("mu", [1e-6, 1e-3, 0.026, 0.1, 0.24, 0.5, 1.0, 2.0])
def test_photon_pmf_from_the_ensemble_matches_the_closed_form(kind, mu):
    # the distribution `_choose_k_max` reads off each ensemble at the cap
    for cap in (2, 9, 16):
        _, members = ensemble(kind, mu, cap)
        density = sum(w * np.abs(amps) ** 2 for w, amps in members)
        totals = np.indices(density.shape).sum(axis=0).ravel()
        got = np.bincount(totals, density.ravel(), minlength=cap + 1)[: cap + 1]
        assert got.shape == (cap + 1,)
        assert np.abs(got - closed_form_pmf(kind, mu, cap)).max() <= 1e-15


@pytest.mark.parametrize("kind", ["coherent", "tmsv", "squashed", "fock1"])
def test_ensembles_cut_from_the_cap_equal_those_built_at_k_max(kind):
    # `_choose_k_max` builds each ensemble once, at the cap, and cuts it
    for mu, cap in itertools.product((1e-4, 0.026, 0.24, 1.3, 3.0), (16, 20, 30)):
        src = branch_source(kind, mu)
        at_cap = _ensemble(src, cap)
        for k_max in range(2, cap + 1):
            caps, members = _cut(src, at_cap, k_max)
            want_caps, want = _ensemble(src, k_max)
            assert caps == want_caps and len(members) == len(want)
            for (w, amps), (want_w, want_amps) in zip(members, want):
                assert w == want_w
                assert amps.shape == want_amps.shape and amps.dtype == want_amps.dtype
                assert amps.tobytes() == want_amps.tobytes()


def reference_k_max(sources, target, cap):
    """The truncation rule on the closed-form distributions; None where the
    cap is too small."""
    pmf = np.zeros(cap + 1)
    pmf[0] = 1.0
    for kind, mu in sources:
        pmf = np.convolve(pmf, closed_form_pmf(kind, mu, cap))[: cap + 1]
    tails = 1.0 - np.cumsum(pmf)
    return next((k for k in range(cap + 1) if tails[k] <= target / 4.0), None)


@pytest.mark.parametrize("signal", ["tmsv", "squashed", "fock1", None])
def test_k_max_matches_the_closed_form_reference(signal):
    # below a 1e-12 target the rule compares tails at round-off level, where
    # two pmfs equal in exact arithmetic can pick different cutoffs
    targets = (1e-2, 1e-4, 1e-6, 1e-9, 3e-11, 1e-12)
    for mu_xi, mu_alpha, target, cap in itertools.product(
        (1e-4, 0.026, 0.3), (0.0, 0.1, 0.24, 1.0), targets, (8, 16)
    ):
        sources = [(signal, 1.0 if signal == "fock1" else mu_xi)] if signal else []
        sources += [("coherent", mu_alpha)] if mu_alpha else []
        if not sources:
            continue
        settings = OracleSettings(leak_target=target, max_total_photons=cap)
        branch = [branch_source(kind, mu) for kind, mu in sources]
        expected = reference_k_max(sources, target, cap)
        if expected is None:
            with pytest.raises(CutoffTooSmall, match="cannot reach truncation leak"):
                _choose_k_max(branch, settings)
        elif expected < 2 and signal in ("tmsv", "squashed"):
            with pytest.raises(CutoffTooSmall, match="at least 2"):
                _choose_k_max(branch, settings)
        else:
            assert _choose_k_max(branch, settings)[0] == expected
