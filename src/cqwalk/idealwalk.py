"""Exact discrete-time quantum walk on a line with a hard left wall.

Reference dynamics for the hardware simulation: a walker on sites
1..N+1 with a two-level coin.  Each step applies the coin rotation

    C(theta) = [[cos t, sin t], [sin t, -cos t]]

to the coin register, then a conditional shift: coin 0 stays put,
coin 1 moves one site to the right.  Starting at site 1, N steps never
reach the wall, so the shift is exactly unitary on the stored range.
"""

from __future__ import annotations

import collections
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CoinState:
    """Normalized coin qubit amplitudes (c0, c1)."""

    c0: complex
    c1: complex

    def __post_init__(self):
        norm = abs(self.c0) ** 2 + abs(self.c1) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"coin state not normalized: |c|^2 = {norm}")

    def as_vector(self) -> np.ndarray:
        return np.array([self.c0, self.c1], dtype=complex)


COIN_PRESETS = {
    "zero": (1.0, 0.0),
    "one": (0.0, 1.0),
    "plus-i": (1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)),
}


def coin_preset(name: str) -> CoinState:
    """Named initial coin states: "zero", "one", "plus-i"."""
    try:
        c0, c1 = COIN_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown coin preset {name!r}; choose from {sorted(COIN_PRESETS)}"
        ) from None
    return CoinState(c0, c1)


def coin_matrix(theta: float) -> np.ndarray:
    if not 0.0 < theta < math.pi / 2:
        raise ValueError("theta must lie in (0, pi/2)")
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]])


def step(amps: np.ndarray, coin: np.ndarray) -> np.ndarray:
    """One walk step on an (n_sites, 2) amplitude array.

    Raises ValueError if coin-1 amplitude would be shifted off the
    stored site range (the array is too short for another step).
    """
    mixed = amps @ coin.T
    if abs(mixed[-1, 1]) > 1e-12:
        raise ValueError("walk overflow: amplitude shifted past the last "
                         "stored site; allocate more sites")
    out = np.zeros_like(mixed)
    out[:, 0] = mixed[:, 0]
    out[1:, 1] = mixed[:-1, 1]
    return out


def walk(n_steps: int, theta: float, coin: CoinState) -> Iterator[np.ndarray]:
    """The amplitudes after each step n = 0..n_steps of one n_steps-step
    walk from site 1, as (n+1, 2) arrays on sites 1..n+1.

    Up to step n the walker never leaves sites 1..n+1, so each is, bit
    for bit, the final amplitudes of an n-step walk.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    amps = np.zeros((n_steps + 1, 2), dtype=complex)
    amps[0] = coin.as_vector()
    c = coin_matrix(theta)
    yield amps[:1]
    for n in range(1, n_steps + 1):
        amps = step(amps, c)
        yield amps[:n + 1]


def walk_amplitudes(n_steps: int, theta: float, coin: CoinState) -> np.ndarray:
    """Final (n_steps+1, 2) amplitudes for a walker started at site 1."""
    return collections.deque(walk(n_steps, theta, coin), maxlen=1)[0]


def site_probabilities(amps: np.ndarray) -> np.ndarray:
    """Site occupation probabilities of (n_sites, 2) amplitudes."""
    return np.abs(amps[:, 0]) ** 2 + np.abs(amps[:, 1]) ** 2


def run_ideal(n_steps: int, theta: float, coin: CoinState) -> np.ndarray:
    """Site occupation probabilities after n_steps ideal walk steps."""
    return site_probabilities(walk_amplitudes(n_steps, theta, coin))
