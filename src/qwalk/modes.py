"""Mode labels and the flat index of the simulator register.

The walk register holds one optical mode per (polarization, time bin,
distinguishability sector).  Sector 0 carries light that interferes with
the heralded reference photon; sector 1 carries the orthogonal
component.  Threshold detectors cannot tell the sectors apart, so
detector mode sets always bundle both copies of a physical output.

A register of B time bins lays its modes out as

    index = sector * 2B + pol * B + (bin - 1),   pol: H = 0, V = 1

with the herald idler, when present, at 4B.  The sector is the outermost
index, so a sector-extended unitary is block diagonal in the flat basis.
`flat_index` is the one place that computes it; labels name modes only
where users do, in source targets and the Fock oracle's detector plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import IndexOutOfRange

__all__ = ["Pol", "ModeIndex", "IDLER", "flat_index"]


class Pol(str, Enum):
    """Coin basis of the walker: horizontal or vertical polarization."""

    H = "H"
    V = "V"


@dataclass(frozen=True)
class ModeIndex:
    """Label of one walk mode.  Time bins are 1-based (t_1 .. t_B)."""

    pol: Pol
    bin: int
    sector: int = 0

    def __post_init__(self):
        if not isinstance(self.pol, Pol):
            object.__setattr__(self, "pol", Pol(self.pol))
        if self.bin < 1:
            raise IndexOutOfRange(f"time bin must be >= 1, got {self.bin}")
        if self.sector not in (0, 1):
            raise IndexOutOfRange(f"sector must be 0 or 1, got {self.sector}")

    def __repr__(self):
        return f"({self.pol.value},t{self.bin},s{self.sector})"


IDLER = "idler"  # label of the herald idler, which bypasses the walk


def flat_index(label, bins: int) -> int:
    """Position of a walk mode, or of IDLER, in a register of `bins` bins."""
    if label == IDLER:
        return 4 * bins
    if label.bin > bins:
        raise IndexOutOfRange(f"mode {label!r} is not in a register of {bins} bins")
    return label.sector * 2 * bins + (bins if label.pol == Pol.V else 0) + label.bin - 1
