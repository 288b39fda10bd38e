"""Mode labels and flat-index bookkeeping for the simulator register.

The walk register holds one optical mode per (polarization, time bin,
distinguishability sector).  Sector 0 carries light that interferes with
the heralded reference photon; sector 1 carries the orthogonal
component.  Threshold detectors cannot tell the sectors apart, so
detector mode sets always bundle both copies of a physical output.

Flat layout for a fresh walk register with B bins:

    index = sector * 2B + pol * B + (bin - 1),   pol: H = 0, V = 1

i.e. the sector is the outermost index, so a sector-extended unitary is
block diagonal in the flat basis.  Auxiliary modes (herald idler, gate
routing ports) are appended after the walk block and addressed by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import IndexOutOfRange, ModeCollision

__all__ = ["Pol", "ModeIndex", "ExtraMode", "IDLER", "ModeRegistry"]


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


@dataclass(frozen=True)
class ExtraMode:
    """Auxiliary mode outside the walk register, addressed by name."""

    name: str

    def __repr__(self):
        return f"({self.name})"


IDLER = ExtraMode("idler")


@dataclass(frozen=True)
class ModeRegistry:
    """Ordered collection of mode labels defining the flat index."""

    labels: tuple

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ModeCollision("registry labels must be unique")

    @classmethod
    def for_walk(cls, bins: int, idler: bool = False) -> "ModeRegistry":
        """Canonical register: both sectors of a B-bin walk, idler optional."""
        if bins < 1:
            raise IndexOutOfRange(f"bin capacity must be >= 1, got {bins}")
        labels = [
            ModeIndex(pol, m, sector)
            for sector in (0, 1)
            for pol in (Pol.H, Pol.V)
            for m in range(1, bins + 1)
        ]
        if idler:
            labels.append(IDLER)
        return cls(tuple(labels))

    @cached_property
    def _positions(self) -> dict:
        return {label: i for i, label in enumerate(self.labels)}

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_modes(self) -> int:
        return len(self.labels)

    @property
    def bins(self) -> int:
        """Largest time bin present among walk labels (0 if none)."""
        return max((l.bin for l in self.labels if isinstance(l, ModeIndex)), default=0)

    def flatten(self, label) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise IndexOutOfRange(f"mode {label!r} is not in this register") from None

    def unflatten(self, index: int):
        if not 0 <= index < len(self.labels):
            raise IndexOutOfRange(f"flat index {index} out of range 0..{len(self.labels) - 1}")
        return self.labels[index]

    def __contains__(self, label) -> bool:
        return label in self._positions

    def walk_indices(self, pol: Pol | None = None, sector: int | None = None) -> tuple[int, ...]:
        """Flat indices of walk modes, optionally filtered by pol / sector."""
        out = []
        for i, label in enumerate(self.labels):
            if not isinstance(label, ModeIndex):
                continue
            if pol is not None and label.pol != pol:
                continue
            if sector is not None and label.sector != sector:
                continue
            out.append(i)
        return tuple(out)

    def idler_index(self) -> int | None:
        return self._positions.get(IDLER)

    def with_appended(self, labels) -> "ModeRegistry":
        labels = tuple(labels)
        for label in labels:
            if label in self._positions:
                raise ModeCollision(f"mode {label!r} already exists in the register")
        return ModeRegistry(self.labels + labels)
