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
from .modes import ModeIndex, ModeRegistry

__all__ = [
    "GaussianState",
    "LowRankState",
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

SOURCE_KINDS = ("coherent", "thermal", "tmsv", "squashed", "vacuum", "fock1")
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
    n = u.shape[0]
    s = np.empty((2 * n, 2 * n))
    s[0::2, 0::2] = u.real
    s[0::2, 1::2] = -u.imag
    s[1::2, 0::2] = u.imag
    s[1::2, 1::2] = u.real
    return s


@dataclass
class GaussianState:
    """Mean vector and covariance over a mode register."""

    registry: ModeRegistry
    mean: np.ndarray
    cov: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.registry)

    def copy(self) -> "GaussianState":
        return GaussianState(self.registry, self.mean.copy(), self.cov.copy())

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
    the conjugate idler is appended as an auxiliary mode.  `fock1` is
    accepted only by the Fock-space oracle.
    """

    kind: str
    target: ModeIndex
    mean_photon: float = 0.0
    phase: float = 0.0
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


def vacuum_state(registry: ModeRegistry) -> GaussianState:
    m = len(registry)
    return GaussianState(registry, np.zeros(2 * m), 0.5 * np.eye(2 * m))


def _claimed_indices(source: SourceSpec, registry: ModeRegistry) -> tuple[int, ...]:
    """Flat indices a source occupies; both sector copies are claimed."""
    s0 = registry.flatten(source.target)
    s1 = registry.flatten(replace(source.target, sector=1))
    return (s0, s1)


def prepare(sources, bins: int | None = None, registry: ModeRegistry | None = None) -> GaussianState:
    """Assemble the input state for a list of sources.

    Builds the canonical walk register (appending an idler when a pair
    source is present) unless an explicit registry is given.  Raises
    ModeCollision when two sources claim the same bin and polarization.
    """
    sources = tuple(sources)
    for source in sources:
        if source.kind == "fock1":
            raise ValueError("fock1 sources exist only in the Fock-space oracle")
    pair_sources = [s for s in sources if s.kind in PAIR_KINDS]
    if len(pair_sources) > 1:
        raise ValueError("at most one pair source is supported per run")
    if registry is None:
        if bins is None:
            raise ValueError("either bins or an explicit registry is required")
        registry = ModeRegistry.for_walk(bins, idler=bool(pair_sources))
    elif pair_sources and registry.idler_index() is None:
        raise IndexOutOfRange("pair source requires a register with an idler mode")

    state = vacuum_state(registry)
    claimed: set[int] = set()
    for source in sources:
        indices = _claimed_indices(source, registry)
        overlap_with_previous = claimed.intersection(indices)
        if overlap_with_previous:
            label = registry.unflatten(min(overlap_with_previous))
            raise ModeCollision(f"two sources target mode {label!r}")
        claimed.update(indices)
        _install_source(state, source, registry)
    return state


def _install_source(state: GaussianState, source: SourceSpec, registry: ModeRegistry) -> None:
    mu = source.mean_photon
    s0 = registry.flatten(source.target)
    s1 = registry.flatten(replace(source.target, sector=1))
    if source.kind == "vacuum" or mu == 0.0:
        return
    if source.kind == "coherent":
        for mode, fraction in ((s0, source.overlap), (s1, 1.0 - source.overlap)):
            amp = np.sqrt(fraction * mu) * np.exp(1j * source.phase)
            state.mean[2 * mode] = np.sqrt(2.0) * amp.real
            state.mean[2 * mode + 1] = np.sqrt(2.0) * amp.imag
        return
    if source.kind == "thermal":
        state.cov[2 * s0 : 2 * s0 + 2, 2 * s0 : 2 * s0 + 2] += mu * np.eye(2)
        return
    # pair sources: signal in sector 0, conjugate idler on the appended mode
    idler = registry.idler_index()
    cross = np.sqrt(mu * (mu + 1.0)) if source.kind == "tmsv" else mu
    block = cross * np.diag([1.0, -1.0])
    for mode in (s0, idler):
        state.cov[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] += mu * np.eye(2)
    state.cov[2 * s0 : 2 * s0 + 2, 2 * idler : 2 * idler + 2] = block
    state.cov[2 * idler : 2 * idler + 2, 2 * s0 : 2 * s0 + 2] = block.T


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
    return GaussianState(state.registry, s @ state.mean, 0.5 * (cov + cov.T))


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
    return GaussianState(state.registry, scale * state.mean, cov)


def append_modes(state: GaussianState, labels) -> GaussianState:
    """Extend the register with fresh vacuum modes."""
    labels = tuple(labels)
    registry = state.registry.with_appended(labels)
    m_old, m_new = state.n_modes, len(registry)
    mean = np.zeros(2 * m_new)
    mean[: 2 * m_old] = state.mean
    cov = 0.5 * np.eye(2 * m_new)
    cov[: 2 * m_old, : 2 * m_old] = state.cov
    return GaussianState(registry, mean, cov)


@dataclass(frozen=True)
class LowRankState:
    """Gaussian state stored as cov = I/2 + V C V^T with mean d.

    `factor` stacks the columns [V | d | probes] over the register's 2M
    quadratures: r columns of V, the mean, then any probe columns carried
    through the same optics (the ideal-herald injection map).  `core` is
    the r x r symmetric matrix C; it may be indefinite (nonclassical
    light) or singular (the squashed source).  Passive optics act on the
    factor as S @ factor and loss with transmission eta scales its rows by
    sqrt(eta), so the 2M x 2M covariance is never formed.
    """

    registry: ModeRegistry
    factor: np.ndarray
    core: np.ndarray

    @classmethod
    def of(cls, sources, registry: ModeRegistry, probes=()) -> "LowRankState":
        """Exact factor of the state `prepare` builds, with optional probe columns.

        Sources fill cov - I/2 only on the quadratures they occupy (at
        most four for a pair source).  Installing them on a zero
        covariance gives that block directly as C, with V the unit
        columns of its quadratures: no rank cutoff, and no I/2 to subtract
        again, which would cost the relative accuracy of small mu.
        """
        m = len(registry)
        excess = GaussianState(registry, np.zeros(2 * m), np.zeros((2 * m, 2 * m)))
        for source in sources:
            _install_source(excess, source, registry)
        support = np.flatnonzero(np.any(excess.cov != 0.0, axis=1))
        v = np.eye(2 * m)[:, support]
        columns = [v, excess.mean[:, None]] + [np.asarray(p)[:, None] for p in probes]
        return cls(registry, np.hstack(columns), excess.cov[np.ix_(support, support)])

    def passive(self, u: np.ndarray) -> "LowRankState":
        """Like apply_passive: the symplectic of `u` acts on every column."""
        return replace(self, factor=symplectic_from_unitary(u) @ self.factor)

    def loss(self, eta: float, modes) -> "LowRankState":
        """Like apply_loss: the rows of the lossy modes scale by sqrt(eta)."""
        factor = self.factor.copy()
        factor[_quad_indices(modes)] *= np.sqrt(eta)
        return replace(self, factor=factor)

    def dense(self) -> GaussianState:
        """The state with its covariance formed (probe columns dropped)."""
        r = len(self.core)
        v = self.factor[:, :r]
        cov = 0.5 * np.eye(v.shape[0]) + v @ self.core @ v.T
        return GaussianState(self.registry, self.factor[:, r].copy(), 0.5 * (cov + cov.T))


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
