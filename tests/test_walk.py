import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.dense import step_unitary
from qwalk.errors import EtaOutOfRange
from qwalk.modes import ModeIndex, Pol, flat_index
from qwalk.walk import (
    LayerParams,
    WalkConfig,
    aggregate_transmission,
    coin_matrix,
    walk_columns,
    walk_unitary,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def reference_walk(config, pol0, bin0):
    """Dict-based amplitude iteration, independent of any matrix algebra.

    Walks a single excitation through coin and shift layer by layer;
    used as the oracle for walk_unitary columns.
    """
    bins = config.bin_capacity
    state = {(pol0, bin0): 1.0 + 0.0j}
    for layer in config.layers:
        c = np.cos(layer.omega / 2)
        s = np.sin(layer.omega / 2)
        e = np.exp(1j * layer.gamma)
        coined = {}
        for (pol, b), amp in state.items():
            if pol == "H":
                coined[("H", b)] = coined.get(("H", b), 0.0) + c * amp
                coined[("V", b)] = coined.get(("V", b), 0.0) + np.conj(e) * s * amp
            else:
                coined[("H", b)] = coined.get(("H", b), 0.0) + e * s * amp
                coined[("V", b)] = coined.get(("V", b), 0.0) - c * amp
        state = {}
        for (pol, b), amp in coined.items():
            b2 = b + 1 if pol == "V" else b
            if b2 > bins:
                b2 = 1  # cyclic wrap, same convention as the matrix
            state[(pol, b2)] = state.get((pol, b2), 0.0) + amp
    return state


def column_from_reference(config, pol0, bin0):
    bins = config.bin_capacity
    out = np.zeros(2 * config.bin_capacity, dtype=complex)
    for (pol, b), amp in reference_walk(config, pol0, bin0).items():
        out[flat_index(ModeIndex(Pol(pol), b, 0), bins)] = amp
    return out


def test_coin_is_unitary_and_hermitian():
    for omega, gamma in [(np.pi / 2, 0.0), (1.1, 0.4), (2.9, -1.3)]:
        c = coin_matrix(omega, gamma)
        assert np.allclose(c @ c.conj().T, np.eye(2), atol=1e-14)
        assert np.allclose(c, c.conj().T, atol=1e-14)


def test_balanced_coin_matrix():
    c = coin_matrix(np.pi / 2)
    assert np.allclose(c, INV_SQRT2 * np.array([[1, 1], [1, -1]]), atol=1e-15)


def test_single_step_splits_h_input():
    # |H,t1> -> (|H,t1> + |V,t2>)/sqrt(2) under the balanced coin
    config = WalkConfig.uniform(1, transmission=1.0)
    u = walk_unitary(config)
    bins = 2
    col = u[:, flat_index(ModeIndex(Pol.H, 1, 0), bins)]
    expected = np.zeros(4, dtype=complex)
    expected[flat_index(ModeIndex(Pol.H, 1, 0), bins)] = INV_SQRT2
    expected[flat_index(ModeIndex(Pol.V, 2, 0), bins)] = INV_SQRT2
    assert np.allclose(col, expected, atol=1e-15)


def test_single_step_v_input_picks_up_sign():
    config = WalkConfig.uniform(1, transmission=1.0)
    u = walk_unitary(config)
    bins = 2
    col = u[:, flat_index(ModeIndex(Pol.V, 1, 0), bins)]
    expected = np.zeros(4, dtype=complex)
    expected[flat_index(ModeIndex(Pol.H, 1, 0), bins)] = INV_SQRT2
    expected[flat_index(ModeIndex(Pol.V, 2, 0), bins)] = -INV_SQRT2
    assert np.allclose(col, expected, atol=1e-15)


def test_two_step_column_frozen_values():
    # hand-expanded product of two balanced layers
    config = WalkConfig.uniform(2, transmission=1.0)
    u = walk_unitary(config)
    bins = 3
    col = u[:, flat_index(ModeIndex(Pol.H, 1, 0), bins)]
    expected = {
        ModeIndex(Pol.H, 1, 0): 0.5,
        ModeIndex(Pol.V, 2, 0): 0.5,
        ModeIndex(Pol.H, 2, 0): 0.5,
        ModeIndex(Pol.V, 3, 0): -0.5,
    }
    for label, amp in expected.items():
        assert col[flat_index(label, bins)] == pytest.approx(amp, abs=1e-15)
    assert np.sum(np.abs(col) ** 2) == pytest.approx(1.0, abs=1e-14)


@given(
    n_steps=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_walk_matches_amplitude_iteration(n_steps, seed):
    rng = np.random.default_rng(seed)
    layers = tuple(
        LayerParams(
            omega=rng.uniform(0, np.pi),
            gamma=rng.uniform(-np.pi, np.pi),
            transmission=1.0,
        )
        for _ in range(n_steps)
    )
    config = WalkConfig(n_steps, layers)
    u = walk_unitary(config)
    bins = config.bin_capacity
    for pol0, bin0 in [("H", 1), ("V", 1)]:
        col = u[:, flat_index(ModeIndex(Pol(pol0), bin0, 0), bins)]
        ref = column_from_reference(config, pol0, bin0)
        assert np.allclose(col, ref, atol=1e-12)


@given(
    n_steps=st.integers(min_value=0, max_value=11),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_walk_unitary_property(n_steps, seed):
    rng = np.random.default_rng(seed)
    layers = tuple(
        LayerParams(omega=rng.uniform(0, np.pi), gamma=rng.uniform(-np.pi, np.pi))
        for _ in range(n_steps)
    )
    u = walk_unitary(WalkConfig(n_steps, layers))
    gram = u.conj().T @ u
    assert np.max(np.abs(gram - np.eye(u.shape[0]))) < 1e-12


@given(
    n_steps=st.integers(min_value=0, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_step_unitary_composes_to_walk(n_steps, seed):
    rng = np.random.default_rng(seed)
    layers = tuple(
        LayerParams(omega=rng.uniform(0, 2 * np.pi), gamma=rng.uniform(0, 2 * np.pi))
        for _ in range(n_steps)
    )
    config = WalkConfig(n_steps, layers)
    u = np.eye(2 * config.bin_capacity, dtype=complex)
    for layer in config.layers:
        u = step_unitary(layer, config.bin_capacity) @ u
    assert np.abs(walk_unitary(config) - u).max() <= 1e-14


@given(
    n_steps=st.integers(min_value=0, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_t1_columns_never_reach_the_cyclic_wrap(n_steps, seed):
    # with input in t_1 the shift's wrap entry is never populated, so one
    # spare bin changes nothing: the t_1 columns at capacity N + 1 are the
    # first N + 1 bins of those at N + 2, exactly, and the spare bin is empty
    rng = np.random.default_rng(seed)
    layers = tuple(
        LayerParams(omega=rng.uniform(0, 2 * np.pi), gamma=rng.uniform(0, 2 * np.pi))
        for _ in range(n_steps)
    )
    tight = walk_unitary(WalkConfig(n_steps, layers, n_steps + 1))
    spare = walk_unitary(WalkConfig(n_steps, layers, n_steps + 2))
    b = n_steps + 1
    keep = np.r_[0:b, b + 1 : 2 * b + 1]  # H and V of bins 1..N+1 at capacity N + 2
    for pol in (0, 1):
        column = spare[:, pol * (b + 1)]
        assert np.array_equal(tight[:, pol * b], column[keep])
        assert not column[[b, 2 * b + 1]].any()


@given(
    n_steps=st.integers(min_value=0, max_value=60),
    spare=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_walk_columns_are_the_unitarys_columns(n_steps, spare, seed):
    # columns never mix, so walking any inputs alone gives exactly their
    # columns of the full unitary, also on registers with spare bins
    rng = np.random.default_rng(seed)
    layers = tuple(
        LayerParams(omega=rng.uniform(0, 2 * np.pi), gamma=rng.uniform(0, 2 * np.pi))
        for _ in range(n_steps)
    )
    for capacity in (n_steps + 1, n_steps + 1 + spare):
        config = WalkConfig(n_steps, layers, capacity)
        u = walk_unitary(config)
        picked = rng.choice(2 * capacity, size=min(3, 2 * capacity), replace=False)
        inputs = np.eye(2 * capacity)[:, picked]
        assert np.array_equal(walk_columns(config, inputs), u[:, picked])


def per_layer_walk(config, inputs):
    """walk_columns without the light cone: a fresh coin and every bin on
    each layer, and the V block rolled cyclically."""
    bins = config.bin_capacity
    h, v = np.split(np.asarray(inputs, dtype=complex), [bins])
    for layer in config.layers:
        c = coin_matrix(layer.omega, layer.gamma)
        h, v = c[0, 0] * h + c[0, 1] * v, c[1, 0] * h + c[1, 1] * v
        v = np.concatenate((v[-1:], v[:-1]))
    return np.concatenate((h, v))


@given(
    n_steps=st.integers(min_value=0, max_value=40),
    spare=st.integers(min_value=0, max_value=3),
    columns=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_light_cone_walk_matches_the_per_layer_loop(n_steps, spare, columns, seed):
    # inputs on any bins, the last H and V bins among them, where the V
    # block's cyclic wrap is reached; several columns, as the Fock oracle's
    rng = np.random.default_rng(seed)
    layers = tuple(
        LayerParams(omega=rng.uniform(0, 2 * np.pi), gamma=rng.uniform(0, 2 * np.pi))
        for _ in range(n_steps)
    )
    config = WalkConfig(n_steps, layers, n_steps + 1 + spare)
    bins = config.bin_capacity
    last = [bins - 1, 2 * bins - 1]
    for rows in (rng.choice(2 * bins, size=min(2, 2 * bins), replace=False), last, [0, bins]):
        inputs = np.zeros((2 * bins, columns), dtype=complex)
        shape = (len(rows), columns)
        inputs[rows] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert np.array_equal(walk_columns(config, inputs), per_layer_walk(config, inputs))
    unit = np.eye(2 * bins)[:, rng.choice(2 * bins, size=columns)]
    assert np.array_equal(walk_columns(config, unit), per_layer_walk(config, unit))


def test_aggregate_transmission_is_layer_product():
    layers = (
        LayerParams(transmission=0.9),
        LayerParams(transmission=0.8),
        LayerParams(transmission=0.99),
    )
    config = WalkConfig(3, layers)
    assert aggregate_transmission(config) == pytest.approx(0.9 * 0.8 * 0.99)


def test_default_transmission_matches_crystal_loss():
    # 0.045 dB per crystal
    assert LayerParams().transmission == pytest.approx(10 ** (-0.0045))


def test_layer_rejects_nonphysical_transmission():
    with pytest.raises(EtaOutOfRange):
        LayerParams(transmission=0.0)
    with pytest.raises(EtaOutOfRange):
        LayerParams(transmission=1.2)


def test_truncated_walk_is_prefix():
    config = WalkConfig.uniform(5)
    short = config.truncated(2)
    assert short.n_steps == 2
    assert short.layers == config.layers[:2]
    assert short.bin_capacity == config.bin_capacity


def test_gate_order_changes_nothing_in_the_walk():
    # the walk itself carries no gates; a config is a pure layer list
    a = WalkConfig.uniform(4)
    b = WalkConfig(4, a.layers)
    assert np.array_equal(walk_unitary(a), walk_unitary(b))
