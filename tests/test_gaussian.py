import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.dense import _register, symplectic_from_unitary
from qwalk.errors import ConfigInvalid, ModeCollision
from qwalk.experiments import ExperimentSpec, _Stage
from qwalk.gaussian import (
    SourceSpec,
    classicality_eigenvalues,
    prepare,
    vacuum_state,
)
from qwalk.modes import IDLER, ModeIndex, Pol, flat_index
from qwalk.walk import LayerParams, WalkConfig

H1 = ModeIndex(Pol.H, 1, 0)
V1 = ModeIndex(Pol.V, 1, 0)


def omega(n_modes):
    """Symplectic form in interleaved ordering: blocks [[0, 1], [-1, 0]]."""
    return np.kron(np.eye(n_modes), [[0.0, 1.0], [-1.0, 0.0]])


def mean_photons(mean, cov):
    """Expected photon number per mode: (tr block + |d|^2) / 2 - 1/2."""
    return 0.5 * (np.diag(cov) + mean**2).reshape(-1, 2).sum(axis=1) - 0.5


def assert_physical(cov):
    """Symmetric, and within the bosonic uncertainty bound cov + i omega / 2 >= 0."""
    assert np.abs(cov - cov.T).max() <= 1e-12
    assert np.linalg.eigvalsh(cov + 0.5j * omega(len(cov) // 2))[0] >= -1e-10


def dense(sources, eta_walk=1.0, eta_idler=1.0, walk=WalkConfig(0)):
    """The dense stage's mean and covariance after the walk and loss."""
    mean, cov, _ = _register(_Stage(walk, tuple(sources), eta_walk, eta_idler))
    return mean, cov


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_vacuum_is_half_identity():
    # two bins, two polarizations, two sectors: 8 modes
    st_ = vacuum_state(2)
    assert np.array_equal(st_.mean, np.zeros(16))
    assert np.array_equal(st_.cov, 0.5 * np.eye(16))


def test_coherent_mean_amplitude():
    # sqrt(2 * 0.1) in the x quadrature of the target mode
    state = prepare((SourceSpec("coherent", V1, 0.1),), bins=1)
    i = flat_index(V1, state.bins)
    assert state.mean[2 * i] == pytest.approx(0.4472135954999579, abs=1e-15)
    assert state.mean[2 * i + 1] == 0.0
    assert np.count_nonzero(np.delete(state.mean, 2 * i)) == 0


def test_overlap_splits_mean_energy_between_sectors():
    mu, o = 0.1, 0.7
    state = prepare((SourceSpec("coherent", V1, mu, overlap=o),), bins=1)
    photons = mean_photons(state.mean, state.cov)
    assert photons[flat_index(V1, state.bins)] == pytest.approx(o * mu, abs=1e-14)
    assert photons[flat_index(ModeIndex(Pol.V, 1, 1), state.bins)] == pytest.approx(
        (1 - o) * mu, abs=1e-14
    )
    assert photons.sum() == pytest.approx(mu, abs=1e-13)


def test_tmsv_state_is_pure():
    state = prepare((SourceSpec("tmsv", H1, 0.026),), bins=1)
    # purity of a Gaussian state: det(2 sigma) = 1
    assert np.linalg.det(2.0 * state.cov) == pytest.approx(1.0, rel=1e-10)
    assert_physical(state.cov)


def test_tmsv_photon_number_split():
    state = prepare((SourceSpec("tmsv", H1, 0.026),), bins=1)
    photons = mean_photons(state.mean, state.cov)
    assert photons[flat_index(H1, state.bins)] == pytest.approx(0.026, abs=1e-13)
    assert photons[flat_index(IDLER, state.bins)] == pytest.approx(0.026, abs=1e-13)


def test_squashed_pair_is_classical_tmsv_is_not():
    squashed = prepare((SourceSpec("squashed", H1, 0.026),), bins=1)
    tmsv = prepare((SourceSpec("tmsv", H1, 0.026),), bins=1)
    assert classicality_eigenvalues(squashed).min() >= -1e-10
    assert classicality_eigenvalues(tmsv).min() < -1e-3


def test_squashed_pair_keeps_thermal_marginals():
    state = prepare((SourceSpec("squashed", H1, 0.026),), bins=1)
    for i in (flat_index(H1, state.bins), flat_index(IDLER, state.bins)):
        block = state.cov[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]
        assert np.allclose(block, (0.5 + 0.026) * np.eye(2), atol=1e-14)


def test_two_sources_cannot_share_a_mode():
    with pytest.raises(ModeCollision):
        prepare(
            (SourceSpec("coherent", H1, 0.1), SourceSpec("tmsv", H1, 0.2)),
            bins=1,
        )


def test_fock1_is_not_a_gaussian_source():
    with pytest.raises(ValueError):
        prepare((SourceSpec("fock1", H1, 1.0),), bins=1)


def test_single_pair_source_limit():
    with pytest.raises(ValueError):
        prepare(
            (SourceSpec("tmsv", H1, 0.026), SourceSpec("tmsv", V1, 0.026)),
            bins=1,
        )


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_symplectic_from_unitary_is_symplectic(seed):
    u = random_unitary(4, seed)
    s = symplectic_from_unitary(u)
    assert np.allclose(s.T @ omega(4) @ s, omega(4), atol=1e-12)


def test_passive_transform_preserves_photon_number():
    sources = (SourceSpec("coherent", V1, 0.3), SourceSpec("tmsv", H1, 0.026))
    state = prepare(sources, bins=3)
    rng = np.random.default_rng(7)
    layers = tuple(LayerParams(*rng.uniform(0, 2 * np.pi, 2)) for _ in range(2))
    mean, cov = dense(sources, walk=WalkConfig(2, layers))
    assert mean_photons(mean, cov).sum() == pytest.approx(
        mean_photons(state.mean, state.cov).sum(), abs=1e-12
    )
    assert_physical(cov)


def test_loss_scales_mean_and_photon_number():
    mean, cov = dense((SourceSpec("coherent", V1, 0.4),), eta_walk=0.3)
    assert mean_photons(mean, cov).sum() == pytest.approx(0.3 * 0.4, abs=1e-13)
    assert_physical(cov)


def test_loss_composes_multiplicatively():
    sources = (SourceSpec("tmsv", H1, 0.026), SourceSpec("coherent", V1, 0.1))
    mean, cov = dense(sources, 0.8, 0.8)
    # a further pure loss of 0.7 on every mode, walk modes and idler alike
    twice = np.sqrt(0.7) * mean, 0.7 * cov + 0.15 * np.eye(len(cov))
    once = dense(sources, 0.56, 0.56)
    assert np.allclose(twice[0], once[0], atol=1e-14)
    assert np.allclose(twice[1], once[1], atol=1e-14)


def test_full_loss_returns_vacuum():
    mean, cov = dense((SourceSpec("tmsv", H1, 0.026),), 0.0, 0.0)
    assert np.allclose(mean, 0.0, atol=1e-15)
    assert np.allclose(cov, 0.5 * np.eye(cov.shape[0]), atol=1e-14)


def test_loss_rejects_bad_transmission():
    for eta in (-0.1, 1.5):
        for name in ("eta_sys", "eta_idler"):
            with pytest.raises(ConfigInvalid, match=name):
                ExperimentSpec(walk=WalkConfig(1), **{name: eta})


def test_selective_loss_touches_only_named_modes():
    sources = (SourceSpec("coherent", V1, 0.2), SourceSpec("tmsv", H1, 0.3))
    photons = mean_photons(*dense(sources, eta_idler=0.5))
    assert photons[flat_index(IDLER, 1)] == pytest.approx(0.15, abs=1e-14)
    assert photons[flat_index(V1, 1)] == pytest.approx(0.2, abs=1e-14)
    assert photons[flat_index(H1, 1)] == pytest.approx(0.3, abs=1e-14)


def test_pair_source_registers_idler():
    state = prepare((SourceSpec("tmsv", H1, 0.026),), bins=2)
    assert state.idler
    assert state.n_modes == flat_index(IDLER, 2) + 1 == 9
