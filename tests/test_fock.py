import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.detection import ClickPattern, GateSpec
from qwalk.errors import (
    CutoffTooSmall,
    DimensionMismatch,
    NumericalInstability,
    ResourceBound,
)
from qwalk.fock import (
    OracleSettings,
    ThresholdOracle,
    _box_geometry,
    _GRID_ORDER,
    _BranchSource,
    _choose_k_max,
    _ensemble,
    _gamma_blocks,
    _photon_pmf,
    perm_reduced,
    permanent,
)
from qwalk.gaussian import SourceSpec
from qwalk.modes import IDLER, ModeIndex, Pol
from qwalk.walk import WalkConfig

H1 = ModeIndex(Pol.H, 1, 0)
V1 = ModeIndex(Pol.V, 1, 0)


def branch_source(kind, mu):
    labels = (H1, IDLER) if kind in ("tmsv", "squashed") else (H1,)
    return _BranchSource(kind, mu, labels)


def ensemble(kind, mu, k_max):
    """Caps and members of one source, as a branch of the oracle holds it."""
    return _ensemble(branch_source(kind, mu), k_max)


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
    with pytest.raises(DimensionMismatch):
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
    ).at((GateSpec(1), GateSpec(3)))


def test_batched_branch_p0_matches_one_set_at_a_time():
    batched, single = two_branch_oracle().branches[0], two_branch_oracle().branches[0]
    g = list(batched.grams.values())
    sets = [g[:1], [g[1], g[3]], [g[2], g[4], g[-1]], g[:4]]
    grams = [sum(s) for s in sets] + [None]
    for gram, value in zip(grams, batched.p0(grams)):
        assert abs(single.p0([gram])[0] - value) <= 1e-14
        assert 0.0 < value <= 1.0


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
    oracle.heralded_prob(ClickPattern.of(apd2=False, apd3=True, apd4=True))
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
    assert oracle._p0([("APD3",), ()]).tolist() == [1.0, 1.0]
    assert calls == []
    (zero_row,) = oracle._p0([("APD4",)])
    assert calls == [1]
    assert zero_row == pytest.approx(1.0 - oracle.truncation_leak, abs=1e-15)
    assert oracle.pattern_prob(ClickPattern.of(apd3=True)) == 0.0
    # a dark slot leaves its detector uncovered
    dark = ThresholdOracle((SourceSpec("coherent", H1, 0.1),), WalkConfig.uniform(1))
    for gates in ((None, GateSpec(2)), (GateSpec(1), None)):
        routed = dark.at(gates)
        dark_name = "apd3" if gates[0] is None else "apd4"
        assert routed.pattern_prob(ClickPattern.of(**{dark_name: True})) == 0.0
        lit_name = "apd4" if gates[0] is None else "apd3"
        assert routed.pattern_prob(ClickPattern.of(**{lit_name: True})) > 0.0


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
        oracle.pattern_prob(ClickPattern.of(apd2=True))


@pytest.mark.parametrize("inside, clamped", [(-5e-13, 0.0), (1.0 + 5e-13, 1.0)])
def test_oracle_clamps_round_off_within_tolerance(monkeypatch, inside, clamped):
    oracle = lone_photon_oracle(monkeypatch, inside)
    assert oracle.pattern_prob(ClickPattern.of(apd2=True)) == clamped


def hom_oracle():
    """One H and one V photon on a balanced one-step coin, each output arm on its own APD."""
    return ThresholdOracle(
        (SourceSpec("fock1", H1, 1.0), SourceSpec("fock1", V1, 1.0)),
        WalkConfig.uniform(1, transmission=1.0),
        detector_labels={"APD2": ((Pol.H, 1),), "APD4": ((Pol.V, 2),)},
    )


def test_two_photons_bunch_at_a_balanced_splitter():
    oracle = hom_oracle()
    assert oracle.pattern_prob(ClickPattern.of(apd2=True, apd4=False)) == pytest.approx(
        0.5, abs=1e-12
    )
    assert oracle.pattern_prob(ClickPattern.of(apd2=False, apd4=True)) == pytest.approx(
        0.5, abs=1e-12
    )


def test_hom_null_for_indistinguishable_photons():
    assert hom_oracle().pattern_prob(ClickPattern.of(apd2=True, apd4=True)) < 1e-14


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
    gates = (GateSpec(1), GateSpec(3))
    coherent = SourceSpec("coherent", V1, 0.2, overlap=0.7)
    alone = ThresholdOracle((coherent,), walk).at(gates)
    beside = ThresholdOracle((SourceSpec("tmsv", H1, 0.0), coherent), walk).at(gates)
    assert beside.truncation_leak == alone.truncation_leak
    for pattern in ClickPattern.full_patterns():
        assert beside.pattern_prob(pattern) == alone.pattern_prob(pattern)


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
    gates = (GateSpec(1), GateSpec(2))
    import qwalk.experiments as exp

    spec = exp.ExperimentSpec(
        walk=walk, kind="two-fold", mu_alpha=0.2, mu_xi=0.026, overlap=0.6
    )
    stage = exp._stage(spec)
    calc, _ = exp._gate_point(stage, gates)
    pattern = ClickPattern.of(apd1=True, apd3=True, apd4=True)
    gaussian_value = calc.pattern(pattern)
    oracle = ThresholdOracle(sources, walk).at(gates)
    assert oracle.pattern_prob(pattern) == pytest.approx(
        gaussian_value, abs=5e-9
    )
    assert oracle.truncation_leak < 1e-9


def test_oracle_single_photon_survival_under_loss():
    # a lone photon through a trivial walk with 50% system loss
    sources = (SourceSpec("fock1", H1, 1.0),)
    walk = WalkConfig.uniform(0, transmission=1.0)
    oracle = ThresholdOracle(sources, walk, eta_sys=0.5)
    silent = ClickPattern.of(apd2=False)
    assert oracle.pattern_prob(silent) == pytest.approx(0.5, abs=1e-12)
    click = ClickPattern.of(apd2=True)
    assert oracle.pattern_prob(click) == pytest.approx(0.5, abs=1e-12)


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
        values[kind] = oracle.heralded_prob(ClickPattern.of(apd2=True))
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


def test_oracle_cutoff_follows_the_leak_target():
    # zero-step walk: the coherent light never leaves its input mode
    oracle = ThresholdOracle(
        (SourceSpec("coherent", H1, 0.1),),
        WalkConfig.uniform(0),
        settings=OracleSettings(leak_target=1e-13),
    )
    assert oracle.branches[0].geom.k_max == 8
    value = oracle.pattern_prob(ClickPattern.of(apd2=True))
    assert value == pytest.approx(1.0 - math.exp(-0.1), abs=1e-9)


def test_oracle_pattern_space_sums_to_one():
    oracle = two_branch_oracle()
    total = sum(oracle.pattern_prob(p) for p in ClickPattern.full_patterns())
    assert total == pytest.approx(1.0, abs=1e-9)


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
    for cap in (2, 9, 16):
        got = _photon_pmf(branch_source(kind, mu), cap)
        assert got.shape == (cap + 1,)
        assert np.abs(got - closed_form_pmf(kind, mu, cap)).max() <= 1e-15


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
        else:
            assert _choose_k_max(branch, settings) == expected
