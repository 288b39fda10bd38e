import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.detection import ClickCalculator, ClickPattern, GateSpec, build_layout
from qwalk.errors import CutoffTooSmall, DimensionMismatch, ResourceBound
from qwalk.fock import (
    FockState,
    ThresholdOracle,
    _box_geometry,
    _gamma_blocks,
    input_decompose,
    perm_reduced,
    permanent,
)
from qwalk.gaussian import SourceSpec, prepare
from qwalk.modes import ModeIndex, Pol
from qwalk.walk import WalkConfig

H1 = ModeIndex(Pol.H, 1, 0)
V1 = ModeIndex(Pol.V, 1, 0)

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
    # block DP against the one-element Ryser formula
    rng = np.random.default_rng(seed)
    q = 3
    g = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
    geom = _box_geometry((2, 2, 2), 4)
    blocks = _gamma_blocks(g, geom)
    for total in range(1, 5):
        cols = geom.block_cols[total]
        f = blocks[total]
        for a, ka in enumerate(cols):
            for b, kb in enumerate(cols):
                kr = tuple(geom.tuples[ka])
                kc = tuple(geom.tuples[kb])
                norm = np.prod([math.factorial(x) for x in kr + kc])
                assert f[a, b] == pytest.approx(
                    perm_reduced(g, kr, kc) / norm, rel=1e-9, abs=1e-12
                )


def hom_oracle():
    """One H and one V photon on a balanced one-step coin, each output arm on its own APD."""
    return ThresholdOracle(
        (SourceSpec("fock1", H1, 1.0), SourceSpec("fock1", V1, 1.0)),
        WalkConfig.uniform(1, transmission=1.0),
        (),
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


def test_thermal_decomposition_weights():
    # geometric weights mu^n / (1+mu)^(n+1) for mu = 0.026
    mixed = input_decompose(SourceSpec("thermal", H1, 0.026), cutoff=6)
    weights = {state.amplitudes and next(iter(state.amplitudes))[0]: w
               for w, state in mixed.ensemble}
    assert weights[0] == pytest.approx(0.9746588693957115, abs=1e-12)  # 1/1.026
    assert weights[1] == pytest.approx(0.024698957703984892, abs=1e-12)  # 0.026/1.026^2
    assert mixed.weight_leak < 1e-9


def test_coherent_decomposition_matches_poisson():
    mixed = input_decompose(SourceSpec("coherent", H1, 0.1), cutoff=8)
    assert len(mixed.ensemble) == 1
    w, state = mixed.ensemble[0]
    assert w == 1.0
    assert abs(state.amplitudes[(0,)]) ** 2 == pytest.approx(
        math.exp(-0.1), abs=1e-12
    )
    assert abs(state.amplitudes[(2,)]) ** 2 == pytest.approx(
        math.exp(-0.1) * 0.1**2 / 2, abs=1e-12
    )


def test_tmsv_decomposition_is_twin_beam():
    mixed = input_decompose(SourceSpec("tmsv", H1, 0.026), cutoff=8)
    (w, state), = mixed.ensemble
    assert w == 1.0
    lam = math.sqrt(0.026 / 1.026)
    for n in range(4):
        assert state.amplitudes[(n, n)] == pytest.approx(
            lam**n / math.sqrt(1.026), rel=1e-12
        )
    assert all(occ[0] == occ[1] for occ in state.amplitudes)


def test_pair_source_at_zero_gain_is_two_mode_vacuum():
    mixed = input_decompose(SourceSpec("tmsv", H1, 0.0), cutoff=2)
    (w, state), = mixed.ensemble
    assert state.amplitudes == {(0, 0): 1.0}
    assert state.n_modes == 2


def test_squashed_decomposition_reproduces_pair_moments():
    # the coherent-pair mixture must carry <n_sig> = mu and <a b> = mu
    mu = 0.026
    mixed = input_decompose(SourceSpec("squashed", H1, mu), cutoff=10)
    assert sum(w for w, _ in mixed.ensemble) == pytest.approx(1.0, abs=1e-12)

    def lowering_mean(state, mode):
        total = 0.0j
        for occ, amp in state.amplitudes.items():
            raised = list(occ)
            raised[mode] += 1
            other = state.amplitudes.get(tuple(raised))
            if other is not None:
                total += np.conj(amp) * other * math.sqrt(occ[mode] + 1)
        return total

    n_sig = sum(
        w * occ[0] * abs(amp) ** 2
        for w, state in mixed.ensemble
        for occ, amp in state.amplitudes.items()
    )
    cross = sum(
        w * lowering_mean(state, 0) * lowering_mean(state, 1)
        for w, state in mixed.ensemble
    )
    assert n_sig == pytest.approx(mu, abs=1e-7)
    assert cross.real == pytest.approx(mu, abs=1e-7)
    assert abs(cross.imag) < 1e-9


def test_fock_state_rejects_overfull_occupations():
    with pytest.raises(CutoffTooSmall):
        FockState(2, {(2, 1): 1.0}, cutoff=2)
    with pytest.raises(DimensionMismatch):
        FockState(2, {(1, 0, 0): 1.0}, cutoff=2)


def test_pair_kinds_need_room_for_two_photons():
    with pytest.raises(CutoffTooSmall):
        input_decompose(SourceSpec("tmsv", H1, 0.026), cutoff=1)


def test_oracle_matches_gaussian_route_spot_check():
    sources = (
        SourceSpec("tmsv", H1, 0.026),
        SourceSpec("coherent", V1, 0.2, overlap=0.6),
    )
    walk = WalkConfig.uniform(2)
    gates = (GateSpec(1), GateSpec(2))
    state = prepare(sources, bins=walk.bin_capacity)
    import qwalk.experiments as exp

    spec = exp.ExperimentSpec(
        walk=walk, kind="two-fold", mu_alpha=0.2, mu_xi=0.026, overlap=0.6
    )
    stage = exp._stage(spec)
    routed, layout = build_layout(stage.state, gates)
    pattern = ClickPattern.of(apd1=True, apd3=True, apd4=True)
    gaussian_value = ClickCalculator(routed, layout).pattern(pattern)
    oracle = ThresholdOracle(sources, walk, gates)
    assert oracle.pattern_prob(pattern) == pytest.approx(
        gaussian_value, abs=5e-9
    )
    assert oracle.truncation_leak < 1e-9


def test_oracle_single_photon_survival_under_loss():
    # a lone photon through a trivial walk with 50% system loss
    sources = (SourceSpec("fock1", H1, 1.0),)
    walk = WalkConfig.uniform(0, transmission=1.0)
    oracle = ThresholdOracle(sources, walk, (), eta_sys=0.5)
    silent = ClickPattern.of(apd2=False)
    assert oracle.pattern_prob(silent) == pytest.approx(0.5, abs=1e-12)
    click = ClickPattern.of(apd2=True)
    assert oracle.pattern_prob(click) == pytest.approx(0.5, abs=1e-12)


def test_fock1_overlap_must_be_sharp():
    sources = (SourceSpec("fock1", H1, 1.0, overlap=0.5),)
    with pytest.raises(ValueError):
        ThresholdOracle(sources, WalkConfig.uniform(1), ())


def test_squashed_pair_heralds_fewer_signal_clicks_than_tmsv():
    values = {}
    for kind in ("tmsv", "squashed"):
        oracle = ThresholdOracle(
            (SourceSpec(kind, H1, 0.026),),
            WalkConfig.uniform(1, transmission=1.0),
            (),
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
        ThresholdOracle(sources, walk, (), k_max=k).truncation_leak
        for k in (4, 6, 8)
    ]
    assert leaks[0] > leaks[1] > leaks[2]


def test_oracle_wrapper_accepts_forced_cutoff():
    # zero-step walk: the coherent light never leaves its input mode
    oracle = ThresholdOracle(
        (SourceSpec("coherent", H1, 0.1),), WalkConfig.uniform(0), (), k_max=8
    )
    value = oracle.pattern_prob(ClickPattern.of(apd2=True))
    assert value == pytest.approx(1.0 - math.exp(-0.1), abs=1e-9)


def test_oracle_pattern_space_sums_to_one():
    oracle = ThresholdOracle(
        (
            SourceSpec("tmsv", H1, 0.026),
            SourceSpec("coherent", V1, 0.2, overlap=0.7),
        ),
        WalkConfig.uniform(2),
        (GateSpec(1), GateSpec(3)),
    )
    total = sum(oracle.pattern_prob(p) for p in ClickPattern.full_patterns())
    assert total == pytest.approx(1.0, abs=1e-9)
