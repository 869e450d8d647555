import math

import numpy as np
import pytest
from conftest import dense_operators, sector_channels
from fullspace import (VACUUM, E, F, FullSpace, G, cavity_slot,
                       collapse_operators, embedding_matrix, sector_dim,
                       sector_states, slot)
from hypothesis import given, settings
from hypothesis import strategies as st

from cqwalk.lindblad import DecoherenceRates


def test_truncated_dimension_and_ordering():
    assert sector_dim(2) == 9
    # vac, then by site: q1:e, q1:f, c1:1, q2:e, q2:f, c2:1, q3:e, q3:f
    lookups = [VACUUM]
    for j in (1, 2, 3):
        lookups += [slot(j, E), slot(j, F)]
        if j < 3:
            lookups.append(cavity_slot(j))
    assert lookups == list(range(9))


def test_index_lookups_match_label_order():
    # the documented order: 3j - 2 and 3j - 1 for qutrit j, 3j for
    # cavity j
    for j in range(1, 5):
        assert (slot(j, E), slot(j, F)) == (3 * j - 2, 3 * j - 1)
    for j in range(1, 4):
        assert cavity_slot(j) == 3 * j
    assert VACUUM == 0


@pytest.mark.parametrize("n_steps", [1, 2, 5])
def test_shorter_sector_is_a_prefix(n_steps):
    # every state of the n-step sector keeps its index and its
    # tensor-product labels in the 8-step one (padded with ground
    # qutrits and empty cavities), and those indices are its first 3n+3
    pad_q, pad_c = (G,) * (8 - n_steps), (0,) * (8 - n_steps)
    short = sector_states(n_steps)
    long = {index: (levels, photons)
            for index, levels, photons in sector_states(8)}
    for index, levels, photons in short:
        assert long[index] == (levels + pad_q, photons + pad_c)
    assert sorted(index for index, _, _ in short) == list(
        range(sector_dim(n_steps)))


def test_full_mode_dimension_and_guard():
    sp = FullSpace(2, fock_cutoff=2)
    assert sp.dim == 3 ** 3 * 2 ** 2
    assert sp.labels[sp.vacuum_index] == ((G, G, G), (0, 0))
    assert FullSpace(1, fock_cutoff=3).dim == 3 ** 2 * 3
    with pytest.raises(ValueError):
        FullSpace(4)


def test_bad_constructor_args():
    with pytest.raises(ValueError):
        FullSpace(0)
    with pytest.raises(ValueError):
        FullSpace(1, fock_cutoff=1)


def test_transition_is_adjoint_of_reverse():
    sp = FullSpace(1)
    for j in (1, 2):
        for a, b in ((G, E), (E, F), (G, F), (E, E)):
            assert np.array_equal(sp.qutrit_transition(j, a, b),
                                  sp.qutrit_transition(j, b, a).T)


@pytest.mark.parametrize("cutoff", [2, 3])
def test_truncated_operators_are_full_space_compressions(cutoff):
    # Each channel sqrt(rate) |target><source| of the dense oracle, built
    # by index, must equal V^T L V, where L is the full-space channel with
    # the same label.
    # Distinct rates tell channels apart.
    rates = DecoherenceRates(kappa=0.11, gamma_ge=0.13, gamma_ef=0.17,
                             gamma_gf=0.19, gamma_phi_e=0.23,
                             gamma_phi_f=0.29)
    dim = sector_dim(2)
    full = FullSpace(2, fock_cutoff=cutoff)
    v = embedding_matrix(full)
    channels = sector_channels(rates, dim)
    full_ops = collapse_operators(full, rates)
    assert ([label for label, *_ in channels]
            == [label for label, _ in full_ops])
    assert len(channels) == 5 * 3 + 2
    for (_, op), sector_op in zip(full_ops,
                                  dense_operators(rates, dim)):
        assert np.array_equal(v.T @ op @ v, sector_op)


def test_embedding_is_isometry():
    full = FullSpace(2)
    v = embedding_matrix(full)
    assert np.allclose(v.T @ v, np.eye(sector_dim(2)))


def test_excitation_number_consistency():
    # sector states all carry exactly one excitation except the vacuum,
    # and no other full-space state carries fewer than two
    full = FullSpace(2)
    v = embedding_matrix(full)
    want = np.eye(sector_dim(2))
    want[VACUUM, VACUUM] = 0.0
    assert np.array_equal(v.T @ full.excitation_number() @ v, want)
    assert np.sum(np.diag(full.excitation_number()) <= 1.0) == sector_dim(2)


def test_cavity_annihilation_full_matrix_elements():
    full = FullSpace(1, fock_cutoff=3)
    a = full.cavity_annihilation(1)
    lo = full.index((G, G), (1,))
    hi = full.index((G, G), (2,))
    vac = full.vacuum_index
    assert a[vac, lo] == pytest.approx(1.0)
    assert a[lo, hi] == pytest.approx(math.sqrt(2.0))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=6))
def test_truncated_enumeration_properties(n):
    # 3n+3 distinct indices, each state with exactly one excitation
    # (none for the vacuum), on n+1 qutrits and n cavities
    states = sector_states(n)
    assert len(states) == sector_dim(n) == 3 * n + 3
    assert sorted(index for index, _, _ in states) == list(range(3 * n + 3))
    for index, levels, photons in states:
        assert (len(levels), len(photons)) == (n + 1, n)
        excitations = sum(lv != G for lv in levels) + sum(photons)
        assert excitations == (0 if index == VACUUM else 1)
