import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.errors import (
    DimensionMismatch,
    EtaOutOfRange,
    ModeCollision,
    NonUnitary,
    UnphysicalState,
)
from qwalk.gaussian import (
    GaussianState,
    SourceSpec,
    apply_loss,
    apply_passive,
    classicality_eigenvalues,
    mean_photons,
    omega_matrix,
    prepare,
    symplectic_from_unitary,
    vacuum_state,
)
from qwalk.modes import IDLER, ModeIndex, Pol, flat_index

H1 = ModeIndex(Pol.H, 1, 0)
V1 = ModeIndex(Pol.V, 1, 0)


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
    photons = mean_photons(state)
    assert photons[flat_index(V1, state.bins)] == pytest.approx(o * mu, abs=1e-14)
    assert photons[flat_index(ModeIndex(Pol.V, 1, 1), state.bins)] == pytest.approx(
        (1 - o) * mu, abs=1e-14
    )
    assert photons.sum() == pytest.approx(mu, abs=1e-13)


def test_tmsv_state_is_pure():
    state = prepare((SourceSpec("tmsv", H1, 0.026),), bins=1)
    # purity of a Gaussian state: det(2 sigma) = 1
    assert np.linalg.det(2.0 * state.cov) == pytest.approx(1.0, rel=1e-10)
    state.validate()


def test_tmsv_photon_number_split():
    state = prepare((SourceSpec("tmsv", H1, 0.026),), bins=1)
    photons = mean_photons(state)
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
    omega = omega_matrix(4)
    assert np.allclose(s.T @ omega @ s, omega, atol=1e-12)


def test_passive_transform_preserves_photon_number():
    state = prepare(
        (SourceSpec("coherent", V1, 0.3), SourceSpec("tmsv", H1, 0.026)),
        bins=2,
    )
    n = state.n_modes
    u = np.eye(n, dtype=complex)
    u[:4, :4] = random_unitary(4, 7)
    out = apply_passive(state, u)
    assert mean_photons(out).sum() == pytest.approx(
        mean_photons(state).sum(), abs=1e-12
    )
    out.validate()


def test_passive_transform_rejects_nonunitary():
    state = vacuum_state(1)
    with pytest.raises(NonUnitary):
        apply_passive(state, 0.9 * np.eye(4, dtype=complex))
    with pytest.raises(DimensionMismatch):
        apply_passive(state, np.eye(3, dtype=complex))


def test_loss_scales_mean_and_photon_number():
    state = prepare((SourceSpec("coherent", V1, 0.4),), bins=1)
    out = apply_loss(state, 0.3)
    assert mean_photons(out).sum() == pytest.approx(0.3 * 0.4, abs=1e-13)
    out.validate()


def test_loss_composes_multiplicatively():
    state = prepare(
        (SourceSpec("tmsv", H1, 0.026), SourceSpec("coherent", V1, 0.1)),
        bins=1,
    )
    twice = apply_loss(apply_loss(state, 0.8), 0.7)
    once = apply_loss(state, 0.56)
    assert np.allclose(twice.mean, once.mean, atol=1e-14)
    assert np.allclose(twice.cov, once.cov, atol=1e-14)


def test_full_loss_returns_vacuum():
    state = prepare((SourceSpec("tmsv", H1, 0.026),), bins=1)
    out = apply_loss(state, 0.0)
    assert np.allclose(out.mean, 0.0, atol=1e-15)
    assert np.allclose(out.cov, 0.5 * np.eye(out.cov.shape[0]), atol=1e-14)


def test_loss_rejects_bad_transmission():
    state = vacuum_state(1)
    with pytest.raises(EtaOutOfRange):
        apply_loss(state, -0.1)
    with pytest.raises(EtaOutOfRange):
        apply_loss(state, 1.5)


def test_selective_loss_touches_only_named_modes():
    state = prepare(
        (SourceSpec("coherent", V1, 0.2), SourceSpec("coherent", H1, 0.3)),
        bins=1,
    )
    i, j = flat_index(V1, state.bins), flat_index(H1, state.bins)
    out = apply_loss(state, 0.5, (i,))
    photons = mean_photons(out)
    assert photons[i] == pytest.approx(0.1, abs=1e-14)
    assert photons[j] == pytest.approx(0.3, abs=1e-14)


def test_validate_rejects_tampered_covariance():
    # noise below the vacuum floor violates the uncertainty bound
    state = vacuum_state(1)
    bad = GaussianState(1, False, state.mean, 0.1 * np.eye(8))
    with pytest.raises(UnphysicalState):
        bad.validate()


def test_pair_source_registers_idler():
    state = prepare((SourceSpec("tmsv", H1, 0.026),), bins=2)
    assert state.idler
    assert state.n_modes == flat_index(IDLER, 2) + 1 == 9
