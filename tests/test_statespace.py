import math

import numpy as np
import pytest
from conftest import dense_operators, sector_channels
from fullspace import (FullSpace, collapse_operators, embedding_matrix,
                       sector_states)
from hypothesis import given, settings
from hypothesis import strategies as st

from cqwalk.lindblad import DecoherenceRates
from cqwalk.statespace import E, F, G, DeviceParams, StateSpace


def test_truncated_dimension_and_ordering():
    sp = StateSpace(2)
    assert sp.dim == 9
    # vac, then by site: q1:e, q1:f, c1:1, q2:e, q2:f, c2:1, q3:e, q3:f
    lookups = [sp.vacuum_index]
    for j in (1, 2, 3):
        lookups += [sp.qutrit_index(j, E), sp.qutrit_index(j, F)]
        if j < 3:
            lookups.append(sp.cavity_index(j))
    assert lookups == list(range(9))


def test_index_lookups_match_label_order():
    # the documented order: 3j - 2 and 3j - 1 for qutrit j, 3j for
    # cavity j
    sp = StateSpace(3)
    for j in range(1, 5):
        assert (sp.qutrit_index(j, E), sp.qutrit_index(j, F)) == (3 * j - 2,
                                                                   3 * j - 1)
    for j in range(1, 4):
        assert sp.cavity_index(j) == 3 * j
    assert sp.vacuum_index == 0


@pytest.mark.parametrize("n_steps", [1, 2, 5])
def test_shorter_sector_is_a_prefix(n_steps):
    # every state of the n-step sector keeps its index in the 8-step one,
    # and those indices are its first 3n+3
    short, long = StateSpace(n_steps), StateSpace(8)
    lookups = [(short.vacuum_index, long.vacuum_index)]
    for j in range(1, short.n_qutrits + 1):
        lookups += [(short.qutrit_index(j, level), long.qutrit_index(j, level))
                    for level in (E, F)]
    for j in range(1, short.n_cavities + 1):
        lookups.append((short.cavity_index(j), long.cavity_index(j)))
    assert all(a == b for a, b in lookups)
    assert sorted(a for a, _ in lookups) == list(range(short.dim))


def test_index_bounds_checked():
    sp = StateSpace(2)
    with pytest.raises(ValueError):
        sp.qutrit_index(4, E)
    with pytest.raises(ValueError):
        sp.qutrit_index(1, G)   # vacuum is not a qutrit label
    with pytest.raises(ValueError):
        sp.cavity_index(3)
    with pytest.raises(ValueError):
        sp.cavity_index(0)


def test_full_mode_dimension_and_guard():
    sp = FullSpace(2, fock_cutoff=2)
    assert sp.dim == 3 ** 3 * 2 ** 2
    assert sp.labels[sp.vacuum_index] == ((G, G, G), (0, 0))
    assert FullSpace(1, fock_cutoff=3).dim == 3 ** 2 * 3
    with pytest.raises(ValueError):
        FullSpace(4)


def test_bad_constructor_args():
    with pytest.raises(ValueError):
        StateSpace(0)
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
    trunc = StateSpace(2)
    full = FullSpace(2, fock_cutoff=cutoff)
    v = embedding_matrix(trunc, full)
    channels = sector_channels(rates, trunc.dim)
    full_ops = collapse_operators(full, rates)
    assert ([label for label, *_ in channels]
            == [label for label, _ in full_ops])
    assert len(channels) == 5 * 3 + 2
    for (_, op), sector_op in zip(full_ops,
                                  dense_operators(rates, trunc.dim)):
        assert np.array_equal(v.T @ op @ v, sector_op)


def test_embedding_is_isometry():
    trunc = StateSpace(2)
    full = FullSpace(2)
    v = embedding_matrix(trunc, full)
    assert np.allclose(v.T @ v, np.eye(trunc.dim))


def test_excitation_number_consistency():
    # sector states all carry exactly one excitation except the vacuum,
    # and no other full-space state carries fewer than two
    trunc = StateSpace(2)
    full = FullSpace(2)
    v = embedding_matrix(trunc, full)
    want = np.eye(trunc.dim)
    want[trunc.vacuum_index, trunc.vacuum_index] = 0.0
    assert np.array_equal(v.T @ full.excitation_number() @ v, want)
    assert np.sum(np.diag(full.excitation_number()) <= 1.0) == trunc.dim


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
    sp = StateSpace(n)
    assert sp.dim == 3 * n + 3
    indices = [index for index, _, _ in sector_states(sp)]
    assert sorted(indices) == list(range(sp.dim))


def test_device_params_from_mhz():
    p = DeviceParams.from_mhz(10, 50.0, 100.0)
    assert p.g == pytest.approx(2 * math.pi * 50.0)
    assert p.omega == pytest.approx(2 * math.pi * 100.0)
    assert p.mu == p.g        # tracks g when omitted
    assert p.theta == pytest.approx(math.pi / 4)
    explicit = DeviceParams.from_mhz(10, 50.0, 100.0, mu_over_2pi_mhz=30.0)
    assert explicit.g == p.g
    assert explicit.mu == pytest.approx(2 * math.pi * 30.0)


def test_device_params_validation():
    with pytest.raises(ValueError):
        DeviceParams.from_mhz(0, 50.0, 100.0)
    with pytest.raises(ValueError):
        DeviceParams.from_mhz(5, -1.0, 100.0)
    with pytest.raises(ValueError):
        DeviceParams.from_mhz(5, 50.0, 100.0, theta_rad=0.0)
