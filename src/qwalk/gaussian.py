"""Gaussian input states: the run's sources on the walk register.

Conventions (fixed across the package):

* hbar = 1, quadratures x = (a + a')/sqrt(2), p = (a - a')/(i sqrt(2)),
  so the vacuum covariance is I/2.
* Quadratures interleave as (x_1, p_1, x_2, p_2, ...); a register of M
  modes has a mean vector of length 2M and a 2M x 2M covariance.

`SourceSpec` describes one source; `prepare` builds the sources' input state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ModeCollision
from .modes import IDLER, ModeIndex, flat_index

__all__ = [
    "GaussianState",
    "SourceSpec",
    "vacuum_state",
    "prepare",
    "classicality_eigenvalues",
]

SOURCE_KINDS = ("coherent", "tmsv", "squashed", "fock1")
PAIR_KINDS = ("tmsv", "squashed")


@dataclass
class GaussianState:
    """Mean vector and covariance over the register of a `bins`-bin walk.

    The register holds the walk modes at their `modes.flat_index` and
    the herald idler when `idler` is set; `n_modes` counts them all.
    """

    bins: int
    idler: bool
    mean: np.ndarray
    cov: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.mean) // 2


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


def classicality_eigenvalues(state: GaussianState) -> np.ndarray:
    """Eigenvalues of cov - I/2; all >= 0 for a classical (P >= 0) state."""
    return np.linalg.eigvalsh(state.cov - 0.5 * np.eye(2 * state.n_modes))
