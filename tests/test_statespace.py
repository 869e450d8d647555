import math

import numpy as np
import pytest
from conftest import dense_operators
from hypothesis import given, settings
from hypothesis import strategies as st

from cqwalk.lindblad import DecoherenceRates, build_collapse_set
from cqwalk.statespace import (E, F, G, BasisLabel, DeviceParams, StateSpace,
                               embedding_matrix)


def test_truncated_dimension_and_ordering():
    sp = StateSpace(2)
    assert sp.dim == 9
    expected = ["vac", "q1:e", "q1:f", "q2:e", "q2:f", "q3:e", "q3:f",
                "c1:1", "c2:1"]
    assert [str(lab) for lab in sp.labels] == expected


def test_index_lookups_match_label_order():
    sp = StateSpace(3)
    for idx, lab in enumerate(sp.labels):
        if lab.kind == "vacuum":
            assert sp.vacuum_index == idx
        elif lab.kind == "qutrit":
            assert sp.qutrit_index(lab.site, lab.level) == idx
        else:
            assert sp.cavity_index(lab.site) == idx


def test_index_bounds_checked():
    sp = StateSpace(2)
    with pytest.raises(ValueError):
        sp.qutrit_index(4, E)
    with pytest.raises(ValueError):
        sp.qutrit_index(1, G)   # vacuum is not a qutrit label
    with pytest.raises(ValueError):
        sp.cavity_index(3)
    with pytest.raises(ValueError):
        sp.full_index((G, G, G), (0, 0))  # wrong mode


def test_full_mode_dimension_and_guard():
    sp = StateSpace(2, mode="full", fock_cutoff=2)
    assert sp.dim == 3 ** 3 * 2 ** 2
    assert sp.labels[sp.vacuum_index] == ((G, G, G), (0, 0))
    with pytest.raises(ValueError):
        StateSpace(4, mode="full")
    big = StateSpace(4, mode="full", allow_large=True)
    assert big.dim == 3 ** 5 * 2 ** 4


def test_bad_constructor_args():
    with pytest.raises(ValueError):
        StateSpace(0)
    with pytest.raises(ValueError):
        StateSpace(1, mode="sideways")
    with pytest.raises(ValueError):
        StateSpace(1, mode="full", fock_cutoff=1)


def test_transition_is_adjoint_of_reverse():
    sp = StateSpace(1, mode="full")
    for j in (1, 2):
        for a, b in ((G, E), (E, F), (G, F), (E, E)):
            assert np.array_equal(sp.qutrit_transition(j, a, b),
                                  sp.qutrit_transition(j, b, a).T)
    # truncated-mode operators are built by index, not by these factories
    with pytest.raises(ValueError):
        StateSpace(1).qutrit_transition(1, E, F)
    with pytest.raises(ValueError):
        StateSpace(1).cavity_annihilation(1)


@pytest.mark.parametrize("cutoff", [2, 3])
def test_truncated_operators_are_full_space_compressions(cutoff):
    # Each index-built truncated channel sqrt(rate) |target><source| must
    # be the single nonzero entry of V^T L V, where L is the full-space
    # channel with the same label.  Distinct rates tell channels apart.
    rates = DecoherenceRates(kappa=0.11, gamma_ge=0.13, gamma_ef=0.17,
                             gamma_gf=0.19, gamma_phi_e=0.23,
                             gamma_phi_f=0.29)
    trunc = StateSpace(2)
    full = StateSpace(2, mode="full", fock_cutoff=cutoff)
    v = embedding_matrix(trunc, full)
    t_set = build_collapse_set(trunc, rates)
    f_set = build_collapse_set(full, rates)
    assert t_set.labels == f_set.labels
    assert len(t_set) == 5 * 3 + 2
    full_ops = dict(zip(f_set.labels, dense_operators(f_set, full.dim)))
    for label, (rows, cols, values) in zip(t_set.labels, t_set.channels):
        compressed = v.T @ full_ops[label] @ v
        (target,), (source,) = np.nonzero(compressed)
        assert (list(rows), list(cols)) == ([target], [source])
        assert values[0] == compressed[target, source]


def test_embedding_is_isometry():
    trunc = StateSpace(2)
    full = StateSpace(2, mode="full")
    v = embedding_matrix(trunc, full)
    assert np.allclose(v.T @ v, np.eye(trunc.dim))


def test_excitation_number_consistency():
    trunc = StateSpace(2)
    full = StateSpace(2, mode="full")
    v = embedding_matrix(trunc, full)
    assert np.allclose(v.T @ full.excitation_number() @ v,
                       trunc.excitation_number())
    # sector states all carry exactly one excitation except the vacuum
    diag = np.diag(trunc.excitation_number())
    assert diag[0] == 0.0
    assert np.all(diag[1:] == 1.0)


def test_cavity_annihilation_full_matrix_elements():
    full = StateSpace(1, mode="full", fock_cutoff=3)
    a = full.cavity_annihilation(1)
    lo = full.full_index((G, G), (1,))
    hi = full.full_index((G, G), (2,))
    vac = full.vacuum_index
    assert a[vac, lo] == pytest.approx(1.0)
    assert a[lo, hi] == pytest.approx(math.sqrt(2.0))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=6))
def test_truncated_enumeration_properties(n):
    sp = StateSpace(n)
    assert sp.dim == 3 * n + 3
    assert len(set(map(str, sp.labels))) == sp.dim


def test_basis_label_validation():
    with pytest.raises(ValueError):
        BasisLabel.qutrit(1, G)


def test_device_params_from_mhz():
    p = DeviceParams.from_mhz(10, 50.0, 100.0)
    assert p.g == pytest.approx(2 * math.pi * 50.0)
    assert p.omega == pytest.approx(2 * math.pi * 100.0)
    assert p.mu == p.g        # tracks g when omitted
    assert p.theta == pytest.approx(math.pi / 4)
    assert p.g_over_2pi_mhz == pytest.approx(50.0)
    explicit = DeviceParams.from_mhz(10, 50.0, 100.0, mu_over_2pi_mhz=30.0)
    assert explicit.mu_over_2pi_mhz == pytest.approx(30.0)


def test_device_params_validation():
    with pytest.raises(ValueError):
        DeviceParams.from_mhz(0, 50.0, 100.0)
    with pytest.raises(ValueError):
        DeviceParams.from_mhz(5, -1.0, 100.0)
    with pytest.raises(ValueError):
        DeviceParams.from_mhz(5, 50.0, 100.0, theta_rad=0.0)


def test_device_params_resonance_check():
    base = dict(n_steps=5, g=1.0, omega=2.0, mu=1.0)
    # Documentation fields are optional and unchecked individually.
    DeviceParams(**base, omega_c=6000.0)
    DeviceParams(**base, omega_eg=6000.0, omega_fe=5800.0)
    # The swap Hamiltonians assume cavity/e-g resonance, so supplying both
    # frequencies with a mismatch is rejected.
    DeviceParams(**base, omega_c=6000.0, omega_eg=6000.0)
    with pytest.raises(ValueError):
        DeviceParams(**base, omega_c=6000.0, omega_eg=5999.0)
