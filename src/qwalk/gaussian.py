"""Gaussian states under passive linear optics, loss, and preparation.

Conventions (fixed across the package):

* hbar = 1, quadratures x = (a + a')/sqrt(2), p = (a - a')/(i sqrt(2)),
  so the vacuum covariance is I/2.
* Quadratures interleave as (x_1, p_1, x_2, p_2, ...); a register of M
  modes has a mean vector of length 2M and a 2M x 2M covariance.
* A passive unitary with mode map alpha_out = U alpha_in acts through
  the orthogonal symplectic S = [[Re U, -Im U], [Im U, Re U]] written in
  the interleaved ordering: mean -> S mean, cov -> S cov S^T.
* Loss with transmission eta scales means by sqrt(eta) and mixes in
  (1 - eta)/2 of vacuum noise on the diagonal of each touched mode.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    EtaOutOfRange,
    IndexOutOfRange,
    ModeCollision,
    NonUnitary,
    UnphysicalState,
)
from .modes import IDLER, ModeIndex, flat_index

__all__ = [
    "GaussianState",
    "SourceSpec",
    "vacuum_state",
    "prepare",
    "apply_passive",
    "apply_loss",
    "append_modes",
    "symplectic_from_unitary",
    "omega_matrix",
    "mean_photons",
    "classicality_eigenvalues",
]

SOURCE_KINDS = ("coherent", "tmsv", "squashed", "fock1")
PAIR_KINDS = ("tmsv", "squashed")

_SYMMETRY_TOL = 1e-12
_PHYSICALITY_TOL = 1e-10
_UNITARITY_TOL = 1e-10


def _quad_indices(modes) -> np.ndarray:
    modes = np.asarray(tuple(modes), dtype=int)
    return np.ravel(np.column_stack((2 * modes, 2 * modes + 1)))


def omega_matrix(n_modes: int) -> np.ndarray:
    """Symplectic form in interleaved ordering: blocks [[0, 1], [-1, 0]]."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for i in range(n_modes):
        omega[2 * i, 2 * i + 1] = 1.0
        omega[2 * i + 1, 2 * i] = -1.0
    return omega


def symplectic_from_unitary(u: np.ndarray) -> np.ndarray:
    """Orthogonal symplectic action of a passive mode unitary."""
    u = np.asarray(u)
    n, k = u.shape
    s = np.empty((2 * n, 2 * k))
    s[0::2, 0::2] = u.real
    s[0::2, 1::2] = -u.imag
    s[1::2, 0::2] = u.imag
    s[1::2, 1::2] = u.real
    return s


@dataclass
class GaussianState:
    """Mean vector and covariance over the register of a `bins`-bin walk.

    The register holds the walk modes at their `modes.flat_index`, the
    herald idler when `idler` is set, then any vacuum modes that
    `append_modes` added; `n_modes` counts them all.
    """

    bins: int
    idler: bool
    mean: np.ndarray
    cov: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.mean) // 2

    def copy(self) -> "GaussianState":
        return GaussianState(self.bins, self.idler, self.mean.copy(), self.cov.copy())

    def validate(self, atol: float = _PHYSICALITY_TOL) -> None:
        """Check shapes, symmetry, and the bosonic uncertainty bound.

        Raises UnphysicalState; intended for tests and debugging rather
        than hot loops.
        """
        m = self.n_modes
        if self.mean.shape != (2 * m,) or self.cov.shape != (2 * m, 2 * m):
            raise UnphysicalState(
                f"mean/cov shapes {self.mean.shape}/{self.cov.shape} do not "
                f"match {m} modes"
            )
        asym = np.abs(self.cov - self.cov.T).max() if m else 0.0
        if asym > _SYMMETRY_TOL:
            raise UnphysicalState(f"covariance asymmetry {asym:.3e}")
        if m:
            herm = self.cov + 0.5j * omega_matrix(m)
            lowest = np.linalg.eigvalsh(herm)[0]
            if lowest < -atol:
                raise UnphysicalState(
                    f"uncertainty bound violated: min eig {lowest:.3e}"
                )


@dataclass(frozen=True)
class SourceSpec:
    """One input source aimed at a walk mode.

    `overlap` is the squared mode overlap of a coherent source with the
    heralded reference: a fraction `overlap` of its mean photon number
    lands in sector 0 and the rest in the sector-1 copy.  Pair sources
    define the reference, so their signal always sits in sector 0 and
    the conjugate on the idler.  A run has one coherent input, so its
    phase is the reference and not a parameter.

    `fock1` is the ideal-herald photon, one photon in its target mode:
    the Fock-space oracle takes it as a source, `prepare` refuses it, and
    the Gaussian route carries it as probe columns instead.
    """

    kind: str
    target: ModeIndex
    mean_photon: float = 0.0
    overlap: float = 1.0

    def __post_init__(self):
        if self.kind not in SOURCE_KINDS:
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.mean_photon < 0:
            raise ValueError(f"mean photon number must be >= 0, got {self.mean_photon}")
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError(f"overlap must lie in [0, 1], got {self.overlap}")
        if self.target.sector != 0:
            raise ValueError(
                "sources target the sector-0 label; sector splitting is handled internally"
            )


def vacuum_state(bins: int, idler: bool = False) -> GaussianState:
    m = flat_index(IDLER, bins) + idler  # the idler follows the walk modes
    return GaussianState(bins, idler, np.zeros(2 * m), 0.5 * np.eye(2 * m))


def _claimed_indices(source: SourceSpec, bins: int) -> tuple[int, ...]:
    """Flat indices a source occupies; both sector copies are claimed."""
    s0 = flat_index(source.target, bins)
    s1 = flat_index(replace(source.target, sector=1), bins)
    return (s0, s1)


def prepare(sources, bins: int) -> GaussianState:
    """Assemble the input state for a list of sources.

    Builds the walk register of `bins` time bins, with an idler when a
    pair source is present.  Raises ModeCollision when two sources claim
    the same bin and polarization, and IndexOutOfRange when a source's
    bin lies beyond `bins`.
    """
    sources = tuple(sources)
    for source in sources:
        if source.kind == "fock1":
            raise ValueError("fock1 sources exist only in the Fock-space oracle")
    pair_sources = [s for s in sources if s.kind in PAIR_KINDS]
    if len(pair_sources) > 1:
        raise ValueError("at most one pair source is supported per run")
    state = vacuum_state(bins, idler=bool(pair_sources))
    claimed: set[int] = set()
    for source in sources:
        indices = _claimed_indices(source, bins)
        if claimed.intersection(indices):
            raise ModeCollision(f"two sources target mode {source.target!r}")
        claimed.update(indices)
        _install_source(state.mean, state.cov, source, indices + (flat_index(IDLER, bins),))
    return state


def _install_source(mean: np.ndarray, cov: np.ndarray, source: SourceSpec, modes) -> None:
    """Add a source to a mean and covariance in place; `modes` are the
    positions of its target's sector-0 and sector-1 copies and the idler."""
    mu = source.mean_photon
    s0, s1, idler = modes
    if mu == 0.0:
        return
    if source.kind == "coherent":
        # real amplitude: the x quadrature carries it, p stays zero
        for mode, fraction in ((s0, source.overlap), (s1, 1.0 - source.overlap)):
            mean[2 * mode] = np.sqrt(2.0) * np.sqrt(fraction * mu)
        return
    # pair sources: signal in sector 0, conjugate on the idler
    cross = np.sqrt(mu * (mu + 1.0)) if source.kind == "tmsv" else mu
    block = cross * np.diag([1.0, -1.0])
    for mode in (s0, idler):
        cov[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] += mu * np.eye(2)
    cov[2 * s0 : 2 * s0 + 2, 2 * idler : 2 * idler + 2] = block
    cov[2 * idler : 2 * idler + 2, 2 * s0 : 2 * s0 + 2] = block.T


def apply_passive(state: GaussianState, u: np.ndarray) -> GaussianState:
    """Evolve through a passive mode unitary acting on the whole register."""
    u = np.asarray(u, dtype=complex)
    m = state.n_modes
    if u.shape != (m, m):
        raise DimensionMismatch(f"unitary shape {u.shape} does not match {m} modes")
    defect = np.abs(u.conj().T @ u - np.eye(m)).max()
    if defect > _UNITARITY_TOL:
        raise NonUnitary(f"mode map deviates from unitarity by {defect:.3e}")
    s = symplectic_from_unitary(u)
    cov = s @ state.cov @ s.T
    return GaussianState(state.bins, state.idler, s @ state.mean, 0.5 * (cov + cov.T))


def apply_loss(state: GaussianState, eta: float, modes=None) -> GaussianState:
    """Pure loss channel with transmission eta on the selected modes."""
    if not 0.0 <= eta <= 1.0:
        raise EtaOutOfRange(f"transmission must lie in [0, 1], got {eta}")
    m = state.n_modes
    if modes is None:
        modes = range(m)
    modes = tuple(modes)
    for i in modes:
        if not 0 <= i < m:
            raise IndexOutOfRange(f"mode index {i} out of range for {m} modes")
    if eta == 1.0 or not modes:
        return state.copy()
    scale = np.ones(2 * m)
    scale[_quad_indices(modes)] = np.sqrt(eta)
    cov = scale[:, None] * state.cov * scale[None, :]
    noise = np.zeros(2 * m)
    noise[_quad_indices(modes)] = 0.5 * (1.0 - eta)
    cov[np.diag_indices_from(cov)] += noise
    return GaussianState(state.bins, state.idler, scale * state.mean, cov)


def append_modes(state: GaussianState, count: int) -> GaussianState:
    """Extend the register with `count` fresh vacuum modes."""
    m_old, m_new = state.n_modes, state.n_modes + count
    mean = np.zeros(2 * m_new)
    mean[: 2 * m_old] = state.mean
    cov = 0.5 * np.eye(2 * m_new)
    cov[: 2 * m_old, : 2 * m_old] = state.cov
    return GaussianState(state.bins, state.idler, mean, cov)


def mean_photons(state: GaussianState) -> np.ndarray:
    """Expected photon number per mode."""
    m = state.n_modes
    out = np.empty(m)
    for i in range(m):
        block = state.cov[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]
        d = state.mean[2 * i : 2 * i + 2]
        out[i] = 0.5 * (np.trace(block) + d @ d) - 0.5
    return out


def classicality_eigenvalues(state: GaussianState) -> np.ndarray:
    """Eigenvalues of cov - I/2; all >= 0 for a classical (P >= 0) state."""
    return np.linalg.eigvalsh(state.cov - 0.5 * np.eye(2 * state.n_modes))
