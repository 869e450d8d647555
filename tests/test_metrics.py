import math

import fullspace
import numpy as np
import pytest
from fullspace import E, F, G, VACUUM, cavity_slot, sector_dim, slot
from hypothesis import given, settings
from hypothesis import strategies as st

from cqwalk.metrics import extract_distribution, similarity, similarity_report


def test_extract_truncated_by_hand():
    dim = sector_dim(1)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[slot(1, E), slot(1, E)] = 0.30
    rho[slot(1, F), slot(1, F)] = 0.25
    rho[slot(2, E), slot(2, E)] = 0.20
    rho[VACUUM, VACUUM] = 0.15
    rho[cavity_slot(1), cavity_slot(1)] = 0.10
    dist = extract_distribution(np.diagonal(rho).real)
    assert np.allclose(dist.p, [0.55, 0.20])
    assert dist.residual_vacuum == pytest.approx(0.15)
    assert dist.residual_cavity == pytest.approx(0.10)
    total = dist.p.sum() + dist.residual_vacuum + dist.residual_cavity
    assert total == pytest.approx(1.0)


def test_extract_full_mode_classification():
    # the full-space oracle's readout sorts leakage out of the sector
    space = fullspace.FullSpace(1, fock_cutoff=2)
    rho = np.zeros((space.dim, space.dim), dtype=complex)

    def put(levels, photons, w):
        i = space.index(levels, photons)
        rho[i, i] = w

    put((E, G), (0,), 0.4)      # walker at site 1
    put((G, F), (0,), 0.3)      # walker at site 2
    put((G, G), (0,), 0.1)      # vacuum
    put((G, G), (1,), 0.1)      # photon in flight
    put((E, E), (0,), 0.06)     # double excitation -> leakage bucket
    put((E, G), (1,), 0.04)     # excitation plus photon -> leakage
    dist = fullspace.extract_distribution(rho, space)
    assert np.allclose(dist.p, [0.4, 0.3])
    assert dist.residual_vacuum == pytest.approx(0.1)
    assert dist.residual_cavity == pytest.approx(0.2)


def test_similarity_identity_and_disjoint():
    p = np.array([0.25, 0.5, 0.25])
    assert similarity(p, p) == pytest.approx(1.0, abs=1e-15)
    assert similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_similarity_penalizes_lost_weight():
    p_id = np.array([0.5, 0.5])
    lossy = np.array([0.4, 0.4])
    # S = (sum sqrt(0.8) * sqrt(...)) ... = 0.8 exactly
    assert similarity(lossy, p_id) == pytest.approx(0.8, abs=1e-12)
    rep = similarity_report(lossy, p_id)
    assert rep.s == pytest.approx(0.8, abs=1e-12)
    assert rep.s_renorm == pytest.approx(1.0, abs=1e-12)


def test_similarity_clips_float_noise():
    p = np.array([1.0 - 1e-16, -1e-17])
    q = np.array([1.0, 0.0])
    s = similarity(p, q)
    assert 0.0 <= s <= 1.0 + 1e-12


def test_similarity_shape_mismatch():
    with pytest.raises(ValueError):
        similarity(np.ones(3) / 3, np.ones(4) / 4)


def test_similarity_rejects_real_negatives():
    with pytest.raises(ValueError, match="negative"):
        similarity(np.array([0.7, -0.3]), np.array([0.5, 0.5]))


def test_similarity_report_zero_measured():
    rep = similarity_report(np.zeros(3), np.array([0.2, 0.3, 0.5]))
    assert rep.s == 0.0
    assert rep.s_renorm == 0.0
    # a NaN readout must not turn into a score of 0
    rep = similarity_report(np.array([np.nan, 0.5]), np.array([0.5, 0.5]))
    assert math.isnan(rep.s) and math.isnan(rep.s_renorm)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_similarity_bounded(a, b):
    n = max(len(a), len(b))
    p = np.zeros(n)
    q = np.zeros(n)
    p[:len(a)] = a
    q[:len(b)] = b
    sp, sq = p.sum(), q.sum()
    if sp > 0:
        p /= sp
    if sq > 0:
        q /= sq
    s = similarity(p, q)
    assert -1e-12 <= s <= 1.0 + 1e-9
