"""Similarity scoring of the walker distribution.

The measured observable is the position distribution: P(j) is the
population with qutrit j excited (e or f), the walker "being at site
j", read out with the leaked population by lindblad.EvolutionResult.
Population that decayed to the joint ground state or is stuck in a
cavity at readout time is missing from P and counts against the
non-renormalized similarity.
"""

from __future__ import annotations

import numpy as np


def similarity_report(p_measured: np.ndarray,
                      p_ideal: np.ndarray) -> tuple[float, float]:
    """(s, s_renorm): the similarity, the squared Bhattacharyya overlap
    (sum_j sqrt(Pm(j) Pi(j)))^2, and the same with the measured
    distribution renormalized to unit walker population (leakage
    discarded); s_renorm is 0.0 for a measured total of 0 and NaN for a
    NaN total.  s equals 1 iff the distributions match including total
    weight, so population lost from the walker manifold lowers it.

    Tiny negative entries from floating-point readout are clipped;
    anything below -1e-9, or distributions of different lengths, are
    treated as corrupt input (ValueError).
    """
    pm = np.asarray(p_measured, dtype=float)
    pi = np.asarray(p_ideal, dtype=float)
    if pm.shape != pi.shape:
        raise ValueError("distributions have different lengths")
    if pm.min(initial=0.0) < -1e-9 or pi.min(initial=0.0) < -1e-9:
        raise ValueError("negative probability in distribution")
    pm = np.clip(pm, 0.0, None)
    pi = np.clip(pi, 0.0, None)
    total = float(np.sum(pm))
    if total > 0.0:
        s_renorm = float(np.sum(np.sqrt(pm / total * pi)) ** 2)
    else:
        s_renorm = 0.0 if total == 0.0 else float("nan")   # NaN total
    return float(np.sum(np.sqrt(pm * pi)) ** 2), s_renorm
