"""Walker readout and similarity scoring.

The measured observable is the position distribution: P(j) is the
population with qutrit j excited (e or f), the walker "being at site
j".  Population that decayed to the joint ground state or is stuck in
a cavity at readout time is reported separately and counts against the
non-renormalized similarity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Distribution:
    """Walker position probabilities plus leaked population.

    p[j-1] is the probability of finding the walker at qutrit j;
    residual_vacuum is the fully relaxed population and residual_cavity
    the photons still in flight.
    """

    p: np.ndarray
    residual_vacuum: float
    residual_cavity: float


def extract_distribution(populations: np.ndarray) -> Distribution:
    """Walker position readout from the populations of the sector basis
    states, in its order (protocol): the diagonal of the density
    matrix, |psi_i|^2 for a pure state
    (lindblad.EvolutionResult.populations).  Site j's e and f are slots
    3j - 2 and 3j - 1, its cavity slot 3j; the cavities are summed in
    site order."""
    pop = np.asarray(populations)
    return Distribution(pop[1::3] + pop[2::3], float(pop[0]),
                        float(sum(pop[3::3])))


def similarity(p_measured: np.ndarray, p_ideal: np.ndarray) -> float:
    """Squared Bhattacharyya overlap (sum_j sqrt(Pm(j) Pi(j)))^2.

    Equals 1 iff the distributions match including total weight, so
    population lost from the walker manifold lowers the score.  Tiny
    negative entries from floating-point readout are clipped; anything
    below -1e-9 is treated as corrupt input.
    """
    pm = np.asarray(p_measured, dtype=float)
    pi = np.asarray(p_ideal, dtype=float)
    if pm.shape != pi.shape:
        raise ValueError("distributions have different lengths")
    if pm.min(initial=0.0) < -1e-9 or pi.min(initial=0.0) < -1e-9:
        raise ValueError("negative probability in distribution")
    pm = np.clip(pm, 0.0, None)
    pi = np.clip(pi, 0.0, None)
    return float(np.sum(np.sqrt(pm * pi)) ** 2)


@dataclass(frozen=True)
class SimilarityResult:
    s: float
    s_renorm: float


def similarity_report(p_measured: np.ndarray,
                      p_ideal: np.ndarray) -> SimilarityResult:
    """Similarity plus the variant with the measured distribution
    renormalized to unit walker population (leakage discarded)."""
    s = similarity(p_measured, p_ideal)
    total = float(np.sum(np.clip(p_measured, 0.0, None)))
    if total > 0.0:
        s_renorm = similarity(np.clip(p_measured, 0.0, None) / total, p_ideal)
    else:
        s_renorm = 0.0 if total == 0.0 else float("nan")   # NaN total
    return SimilarityResult(s=s, s_renorm=s_renorm)
