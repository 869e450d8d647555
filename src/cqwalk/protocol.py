"""Pulse schedule realizing one walk step as three global segments.

Each step applies, to every site in parallel:

1. "coin"      drive Omega (e^{i phi}|e><f| + h.c.) on every qutrit for
               t = theta / Omega.  With phi = -pi/2 this rotates the
               {f, e} coin manifold by the walk coin C(theta), up to a
               sigma_z that cancels against the transfer phases below.
2. "store"     coupling g (a_j |e>_j<g| + h.c.) for t = pi / 2g: swaps
               an e excitation of qutrit j into a photon of cavity j
               (amplitude picks up -i).
3. "retrieve"  coupling mu (a_j |e>_{j+1}<g| + h.c.) for t = pi / 2mu:
               swaps the cavity-j photon into an e excitation of
               qutrit j+1 (another -i; the pair contributes -1, which
               together with the sigma_z reproduces the ideal step
               exactly).

The f level never moves: coin-0 population stays on its qutrit, which
is the walk's "stay" branch, while coin-1 (e) hops one site right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statespace import E, F, DeviceParams, StateSpace

SEG_COIN = "coin"
SEG_STORE = "store"
SEG_RETRIEVE = "retrieve"


@dataclass(frozen=True)
class Segment:
    """One piecewise-constant pulse: H applied for `duration` (us)."""

    label: str
    step: int                 # 1-based walk step this segment belongs to
    hamiltonian: np.ndarray
    duration: float


@dataclass(frozen=True)
class Schedule:
    segments: tuple[Segment, ...]

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.segments)

    def __iter__(self):
        return iter(self.segments)

    def __len__(self):
        return len(self.segments)


def h_coin(space: StateSpace, params: DeviceParams) -> np.ndarray:
    """Global coin drive: sum_j Omega (e^{i phi} |e>_j<f| + h.c.)."""
    phase = np.exp(1j * params.phi)
    h = np.zeros((space.dim, space.dim), dtype=complex)
    # one-body terms stay in the sector: |e><f| on qutrit j links exactly
    # its f state to its e state
    for j in range(1, space.n_qutrits + 1):
        row, col = space.qutrit_index(j, E), space.qutrit_index(j, F)
        h[row, col] += params.omega * phase
        h[col, row] += params.omega * np.conj(phase)
    return h


def h_store(space: StateSpace, params: DeviceParams) -> np.ndarray:
    """Qutrit-to-cavity transfer: sum_j g (a_j |e>_j<g| + h.c.)."""
    h = np.zeros((space.dim, space.dim), dtype=complex)
    # Two-body terms are written directly in the sector basis: a_j |e>_j<g|
    # sends the one-photon state of cavity j to the e state of qutrit j
    # and annihilates everything else.
    for j in range(1, space.n_cavities + 1):
        row, col = space.qutrit_index(j, E), space.cavity_index(j)
        h[row, col] += params.g
        h[col, row] += params.g
    return h


def h_retrieve(space: StateSpace, params: DeviceParams) -> np.ndarray:
    """Cavity-to-next-qutrit transfer: sum_j mu (a_j |e>_{j+1}<g| + h.c.)."""
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for j in range(1, space.n_cavities + 1):
        row, col = space.qutrit_index(j + 1, E), space.cavity_index(j)
        h[row, col] += params.mu
        h[col, row] += params.mu
    return h


def segment_durations(params: DeviceParams) -> dict[str, float]:
    """Durations (us) of the three segments of one step."""
    return {
        SEG_COIN: params.theta / params.omega,
        SEG_STORE: math.pi / (2.0 * params.g),
        SEG_RETRIEVE: math.pi / (2.0 * params.mu),
    }


def build_schedule(space: StateSpace, params: DeviceParams) -> Schedule:
    """Full pulse program: n_steps repetitions of coin/store/retrieve.

    The three Hamiltonians are shared across steps (the drive is
    global and steps are identical), so evolution compiles three
    segment maps regardless of n_steps.
    """
    if space.n_steps != params.n_steps:
        raise ValueError("state space and params disagree on n_steps")
    hs = {
        SEG_COIN: h_coin(space, params),
        SEG_STORE: h_store(space, params),
        SEG_RETRIEVE: h_retrieve(space, params),
    }
    durs = segment_durations(params)
    segments = []
    for step in range(1, params.n_steps + 1):
        for label in (SEG_COIN, SEG_STORE, SEG_RETRIEVE):
            segments.append(Segment(label, step, hs[label], durs[label]))
    return Schedule(tuple(segments))

