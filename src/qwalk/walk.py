"""Programmable coin-walk unitaries on the polarization x time-bin register.

One step applies the polarization coin at every time bin and then delays
the V component by one bin.  The full walk is the ordered product of its
steps (first layer rightmost), acting on single-particle amplitudes.
Per-layer crystal transmissions ride along in the layer parameters but
are *not* folded into the unitary here; callers apply them as a separate
loss channel.

Matrix convention: columns are inputs, so ``walk_unitary(cfg)[:, j]``
holds the output amplitudes for a photon injected into flat mode ``j``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EtaOutOfRange

__all__ = [
    "DEFAULT_COIN_ANGLE",
    "DEFAULT_CRYSTAL_TRANSMISSION",
    "LayerParams",
    "WalkConfig",
    "coin_matrix",
    "step_unitary",
    "walk_columns",
    "walk_unitary",
    "aggregate_transmission",
]

DEFAULT_COIN_ANGLE = np.pi / 2

# Per-crystal power transmission corresponding to 0.045 dB of loss.
DEFAULT_CRYSTAL_TRANSMISSION = 10 ** (-0.045 / 10)


@dataclass(frozen=True)
class LayerParams:
    """Coin setting and crystal transmission of a single walk step."""

    omega: float = DEFAULT_COIN_ANGLE
    gamma: float = 0.0
    transmission: float = DEFAULT_CRYSTAL_TRANSMISSION

    def __post_init__(self):
        if not np.isfinite(self.omega) or not np.isfinite(self.gamma):
            raise ValueError("coin angles must be finite")
        if not 0.0 < self.transmission <= 1.0:
            raise EtaOutOfRange(
                f"layer transmission must lie in (0, 1], got {self.transmission}"
            )


@dataclass(frozen=True)
class WalkConfig:
    """Full walk program: layer list plus the time-bin capacity.

    bin_capacity defaults to n_steps + 1, the smallest register that
    holds every output of a walker injected into t_1.
    """

    n_steps: int
    layers: tuple = ()
    bin_capacity: int = 0

    def __post_init__(self):
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {self.n_steps}")
        layers = tuple(self.layers) if self.layers else tuple(
            LayerParams() for _ in range(self.n_steps)
        )
        object.__setattr__(self, "layers", layers)
        if len(layers) != self.n_steps:
            raise ValueError(
                f"expected {self.n_steps} layers, got {len(layers)}"
            )
        capacity = self.bin_capacity if self.bin_capacity else self.n_steps + 1
        object.__setattr__(self, "bin_capacity", capacity)
        if capacity < max(self.n_steps + 1, 1):
            raise ValueError(
                f"bin_capacity {capacity} cannot hold a {self.n_steps}-step walk"
            )

    @classmethod
    def uniform(
        cls,
        n_steps: int,
        omega: float = DEFAULT_COIN_ANGLE,
        gamma: float = 0.0,
        transmission: float = DEFAULT_CRYSTAL_TRANSMISSION,
        bin_capacity: int = 0,
    ) -> "WalkConfig":
        layer = LayerParams(omega=omega, gamma=gamma, transmission=transmission)
        return cls(n_steps, tuple(layer for _ in range(n_steps)), bin_capacity)

    def truncated(self, n_steps: int) -> "WalkConfig":
        """Prefix of the program with the same bin capacity."""
        if not 0 <= n_steps <= self.n_steps:
            raise ValueError(f"cannot truncate {self.n_steps} steps to {n_steps}")
        return WalkConfig(n_steps, self.layers[:n_steps], self.bin_capacity)


def coin_matrix(omega: float, gamma: float = 0.0) -> np.ndarray:
    """2x2 polarization coin in the (H, V) basis.

    Unitary and Hermitian, so it is its own inverse; omega = pi/2 with
    gamma = 0 gives the real balanced (Hadamard-form) coin.
    """
    c = np.cos(omega / 2)
    s = np.sin(omega / 2)
    phase = np.exp(1j * gamma)
    return np.array([[c, phase * s], [np.conj(phase) * s, -c]], dtype=complex)


def _shift_matrix(bins: int) -> np.ndarray:
    """V components move one bin later; H components stay put.

    The last V bin wraps cyclically so the matrix remains unitary on the
    full register.  Physical programs never populate it: with
    bin_capacity >= n_steps + 1 and input in t_1 the wrap entry is never
    reached, so the walk's columns for t_1 inputs do not depend on the
    capacity.
    """
    eye = np.eye(bins)
    roll = np.roll(eye, 1, axis=0)
    out = np.zeros((2 * bins, 2 * bins))
    out[:bins, :bins] = eye
    out[bins:, bins:] = roll
    return out


def step_unitary(layer: LayerParams, bins: int) -> np.ndarray:
    """Single walk step on a register of `bins` time bins: shift o coin."""
    coin = np.kron(coin_matrix(layer.omega, layer.gamma), np.eye(bins))
    return _shift_matrix(bins) @ coin


def walk_columns(config: WalkConfig, inputs: np.ndarray) -> np.ndarray:
    """The walk applied to input amplitude columns over its 2B modes.

    Each step acts on the rows directly, not as a dense step product: the
    coin mixes the H and V row blocks bin by bin, then the V block rolls
    one bin later, cyclically as in `_shift_matrix`.  Columns never mix, so
    each equals its column of `walk_unitary` bit for bit.  Crystal
    transmissions are not included; see `aggregate_transmission`.
    """
    bins = config.bin_capacity
    h, v = np.split(np.asarray(inputs, dtype=complex), [bins])
    for layer in config.layers:
        c = coin_matrix(layer.omega, layer.gamma)
        h, v = c[0, 0] * h + c[0, 1] * v, c[1, 0] * h + c[1, 1] * v
        v = np.concatenate((v[-1:], v[:-1]))
    return np.concatenate((h, v))


def walk_unitary(config: WalkConfig) -> np.ndarray:
    """Ordered product of all steps, first layer applied first.  Batched
    scans never form it: they walk their inputs' columns alone."""
    return walk_columns(config, np.eye(2 * config.bin_capacity, dtype=complex))


def aggregate_transmission(config: WalkConfig) -> float:
    """Product of the per-layer crystal transmissions.

    Uniform loss commutes with the passive walk, so the whole chain can
    be applied once, after the unitary, with this net transmission.
    """
    out = 1.0
    for layer in config.layers:
        out *= layer.transmission
    return out
