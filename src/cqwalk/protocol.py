"""Pulse schedule of one walk step: three global segments.

A walk of N steps repeats the same step N times.  Each step applies, to
every site in parallel:

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

The device is a 1D array of N+1 transmon-style qutrits (levels g, e, f)
with N cavities between neighbours.  The walk dynamics conserve the
total excitation number (non-ground qutrits plus photons), and every
pulse and collapse channel of the protocol keeps the system in the
single-excitation sector.  That sector has dimension 3N+3: the joint
vacuum, then one triplet per site j, (e_j, f_j, c_j): qutrit j in e,
qutrit j in f, one photon in cavity j.  The last site has no cavity.
So the n-step sector is exactly the first 3n+3 states of the N-step
sector for every n < N.  Each Hamiltonian term and collapse operator
compresses to one transition |a><b| between sector states, so pulses
and collapse channels (lindblad) are written by this slot arithmetic.

Basis ordering (index: state):

    0                : vacuum (all qutrits g, no photons)
    3j - 2           : qutrit j in e          (j = 1..N+1)
    3j - 1           : qutrit j in f
    3j               : one photon in cavity j (j = 1..N)

In this basis each pulse is a direct sum of 2x2
swaps, one per site: coin e_j<->f_j, store e_j<->c_j, retrieve
c_{j-1}<->e_j.  So a segment carries its Hamiltonian in site form, one
3x3 block per site and the offset of the site layout it fits (Segment),
written by index; no dim x dim matrix is formed.  The tests check each
kind against the compression of its tensor-product counterpart.

Units convention for the whole package: times in microseconds, angular
frequencies in rad/us.  ExperimentConfig gives frequencies in MHz
(f = omega / 2pi); _angular converts them, the one place that does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .config import ExperimentConfig


@dataclass(frozen=True)
class Segment:
    """One piecewise-constant pulse, applied for `duration` (us), in site
    form.

    hamiltonian[j] is the pulse's 3x3 Hamiltonian on site j (0-based) of
    the sector basis (module docstring) shifted by offset: site j covers
    basis slots offset + 3j .. offset + 3j + 2.  Offset 1 gives the triplets
    (e_j, f_j, c_j), where coin and store act; offset 0 gives
    (c_{j-1}, e_j, f_j), with the vacuum in place of c_0, where retrieve
    acts.  An N-step chain has N+1 sites either way, so the stack has
    shape (N+1, 3, 3); at offset 1 its last slot, c_{N+1}, does not
    exist.
    """

    hamiltonian: np.ndarray
    offset: int
    duration: float


def mu_over_2pi_mhz(cfg: ExperimentConfig) -> float:
    """The cavity-to-next-qutrit coupling in MHz: mu = auto (None)
    tracks g."""
    mu = cfg.mu_over_2pi_mhz
    return cfg.g_over_2pi_mhz if mu is None else mu


def _angular(cfg: ExperimentConfig) -> tuple[float, float, float]:
    """(g, omega, mu) of cfg in rad/us."""
    two_pi = 2.0 * math.pi
    return (two_pi * cfg.g_over_2pi_mhz, two_pi * cfg.omega_over_2pi_mhz,
            two_pi * mu_over_2pi_mhz(cfg))


def segment_durations(cfg: ExperimentConfig) -> tuple[float, float, float]:
    """Durations (us) of one step of cfg: (coin, store, retrieve)."""
    g, omega, mu = _angular(cfg)
    return (cfg.theta_rad / omega, math.pi / (2.0 * g),
            math.pi / (2.0 * mu))


def build_schedule(cfg: ExperimentConfig) -> tuple[Segment, ...]:
    """One walk step, (coin, store, retrieve), on the chain of
    cfg.n_steps steps; a walk repeats it n_steps times.

    Each kind's per-site Hamiltonians are written by index, one stack of
    shape (n_steps + 1, 3, 3).
    """
    g, omega, mu = _angular(cfg)
    sites = cfg.n_steps + 1
    coin, store, retrieve = (np.zeros((sites, 3, 3), dtype=complex)
                             for _ in range(3))
    phase = np.exp(1j * cfg.phi_rad)
    # (e_j, f_j, c_j) at offset 1; the last site has no cavity
    coin[:, 0, 1] = omega * phase
    coin[:, 1, 0] = omega * np.conj(phase)
    store[:-1, 0, 2] = store[:-1, 2, 0] = g
    # (c_{j-1}, e_j, f_j) at offset 0; the first site's c_0 is the vacuum
    retrieve[1:, 0, 1] = retrieve[1:, 1, 0] = mu
    return tuple(map(Segment, (coin, store, retrieve), (1, 1, 0),
                     segment_durations(cfg)))
