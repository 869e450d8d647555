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

In the single-excitation sector each pulse is a direct sum of 2x2
swaps, one per site: coin e_j<->f_j, store e_j<->c_j, retrieve
c_{j-1}<->e_j.  So a segment carries its Hamiltonian in site form, one
3x3 block per site and the offset of the site layout it fits (Segment),
written by index; no dim x dim matrix is formed.  The tests check each
kind against the compression of its tensor-product counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statespace import DeviceParams

SEG_COIN = "coin"
SEG_STORE = "store"
SEG_RETRIEVE = "retrieve"


@dataclass(frozen=True)
class Segment:
    """One piecewise-constant pulse, applied for `duration` (us), in site
    form.

    hamiltonian[j] is the pulse's 3x3 Hamiltonian on site j (0-based) of
    the sector basis shifted by offset (statespace): site j covers basis
    slots offset + 3j .. offset + 3j + 2.  Offset 1 gives the triplets
    (e_j, f_j, c_j), where coin and store act; offset 0 gives
    (c_{j-1}, e_j, f_j), with the vacuum in place of c_0, where retrieve
    acts.  An N-step chain has N+1 sites either way, so the stack has
    shape (N+1, 3, 3); at offset 1 its last slot, c_{N+1}, does not
    exist.
    """

    label: str
    hamiltonian: np.ndarray
    offset: int
    duration: float


def segment_durations(params: DeviceParams) -> dict[str, float]:
    """Durations (us) of the three segments of one step."""
    return {
        SEG_COIN: params.theta / params.omega,
        SEG_STORE: math.pi / (2.0 * params.g),
        SEG_RETRIEVE: math.pi / (2.0 * params.mu),
    }


def build_schedule(params: DeviceParams) -> tuple[Segment, ...]:
    """One walk step, (coin, store, retrieve), on the chain of
    params.n_steps steps; a walk repeats it n_steps times.

    Each kind's per-site Hamiltonians are written by index, one stack of
    shape (n_steps + 1, 3, 3).
    """
    sites = params.n_steps + 1
    coin, store, retrieve = (np.zeros((sites, 3, 3), dtype=complex)
                             for _ in range(3))
    phase = np.exp(1j * params.phi)
    # (e_j, f_j, c_j) at offset 1; the last site has no cavity
    coin[:, 0, 1] = params.omega * phase
    coin[:, 1, 0] = params.omega * np.conj(phase)
    store[:-1, 0, 2] = store[:-1, 2, 0] = params.g
    # (c_{j-1}, e_j, f_j) at offset 0; the first site's c_0 is the vacuum
    retrieve[1:, 0, 1] = retrieve[1:, 1, 0] = params.mu
    durs = segment_durations(params)
    return (Segment(SEG_COIN, coin, 1, durs[SEG_COIN]),
            Segment(SEG_STORE, store, 1, durs[SEG_STORE]),
            Segment(SEG_RETRIEVE, retrieve, 0, durs[SEG_RETRIEVE]))
