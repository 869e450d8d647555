"""Exact discrete-time quantum walk on a line.

Reference dynamics for the hardware simulation: a walker on sites
1, 2, ... with a two-level coin.  Each step applies the coin rotation

    C(theta) = [[cos t, sin t], [sin t, -cos t]]

to the coin register, then a conditional shift: coin 0 stays put,
coin 1 moves one site to the right.  Started at site 1, the walker is
on sites 1..n+1 after n steps, and the walk stores just those sites.
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


def walk(n_steps: int, theta: float, coin: CoinState) -> Iterator[np.ndarray]:
    """The amplitudes after each step n = 0..n_steps of one n_steps-step
    walk from site 1, as new (n+1, 2) arrays on sites 1..n+1.

    Each is, bit for bit, the final amplitudes of an n-step walk.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    c_t = coin_matrix(theta).T.astype(complex)    # cast once, not per step
    amps = coin.as_vector()[np.newaxis]
    yield amps
    for n in range(1, n_steps + 1):
        mixed = amps @ c_t
        amps = np.zeros((n + 1, 2), dtype=complex)
        amps[:-1, 0] = mixed[:, 0]
        amps[1:, 1] = mixed[:, 1]
        yield amps


def site_probabilities(amps: np.ndarray) -> np.ndarray:
    """Site occupation probabilities of (n_sites, 2) amplitudes."""
    return np.abs(amps[:, 0]) ** 2 + np.abs(amps[:, 1]) ** 2


def run_ideal(n_steps: int, theta: float, coin: CoinState) -> np.ndarray:
    """Site occupation probabilities after n_steps ideal walk steps."""
    return site_probabilities(
        collections.deque(walk(n_steps, theta, coin), maxlen=1)[0])
