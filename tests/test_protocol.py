import math

import fullspace
import numpy as np
import pytest
from conftest import dense_hamiltonian
from scipy.linalg import expm

from cqwalk.idealwalk import coin_preset, run_ideal
from cqwalk.protocol import (SEG_COIN, SEG_RETRIEVE, SEG_STORE,
                             build_schedule, segment_durations)
from cqwalk.statespace import E, F, DeviceParams, StateSpace

REF = DeviceParams.from_mhz(2, 50.0, 100.0)


def test_reference_segment_durations():
    durs = segment_durations(REF)
    # theta/Omega = (pi/4)/(2pi*100 /us) = 1.25 ns; pi/2g = 5 ns
    assert durs[SEG_COIN] == pytest.approx(1.25e-3)
    assert durs[SEG_STORE] == pytest.approx(5.0e-3)
    assert durs[SEG_RETRIEVE] == pytest.approx(5.0e-3)


def test_schedule_structure():
    # the schedule is one walk step, whatever the chain's length
    sched = build_schedule(REF)
    assert len(sched) == 3
    assert [s.label for s in sched] == [SEG_COIN, SEG_STORE, SEG_RETRIEVE]
    assert [s.offset for s in sched] == [1, 1, 0]
    assert sum(s.duration for s in sched) == pytest.approx(11.25e-3)
    # one 3x3 block per site of the 2-step chain
    assert all(s.hamiltonian.shape == (3, 3, 3) for s in sched)


def test_hamiltonians_hermitian():
    params = DeviceParams.from_mhz(3, 40.0, 80.0, mu_over_2pi_mhz=35.0,
                                   phi_rad=0.7)
    for seg in build_schedule(params):
        h = dense_hamiltonian(seg)
        assert np.allclose(h, h.conj().T)


@pytest.mark.parametrize("builder", ["h_coin", "h_store", "h_retrieve"])
def test_truncated_hamiltonians_match_full_space(builder):
    # Couplings are two-body; each segment's site-form Hamiltonian, laid
    # out densely, must equal the compression of the exact tensor-product
    # operator.
    params = DeviceParams.from_mhz(2, 47.0, 93.0, mu_over_2pi_mhz=21.0,
                                   phi_rad=-0.4)
    trunc = StateSpace(2)
    full = fullspace.FullSpace(2, fock_cutoff=3)
    v = fullspace.embedding_matrix(trunc, full)
    kind = ("h_coin", "h_store", "h_retrieve").index(builder)
    seg = build_schedule(params)[kind]
    assert np.allclose(v.T @ getattr(fullspace, builder)(full, params) @ v,
                       dense_hamiltonian(seg), atol=1e-12)


def _unitary_step(params):
    """Exact propagator of one walk step (three segments, no noise)."""
    coin, store, retrieve = (
        expm(-1j * seg.duration * dense_hamiltonian(seg))
        for seg in build_schedule(params))
    return retrieve @ store @ coin


@pytest.mark.parametrize("coin_name", ["zero", "one", "plus-i"])
@pytest.mark.parametrize("theta", [math.pi / 4, 1.1])
def test_composite_step_reproduces_ideal_walk(coin_name, theta):
    # Apply the three-segment step N times to the encoded start state
    # and compare site populations with the exact walk.
    n = 3
    params = DeviceParams.from_mhz(n, 50.0, 100.0, theta_rad=theta)
    space = StateSpace(n)
    u = _unitary_step(params)
    coin = coin_preset(coin_name)
    psi = np.zeros(space.dim, dtype=complex)
    psi[space.qutrit_index(1, F)] = coin.c0
    psi[space.qutrit_index(1, E)] = coin.c1
    for _ in range(n):
        psi = u @ psi
    p = np.array([abs(psi[space.qutrit_index(j, E)]) ** 2
                  + abs(psi[space.qutrit_index(j, F)]) ** 2
                  for j in range(1, space.n_qutrits + 1)])
    assert np.allclose(p, run_ideal(n, theta, coin), atol=1e-12)
    # nothing left behind in cavities or vacuum
    assert abs(psi[space.vacuum_index]) < 1e-12
    for j in range(1, space.n_cavities + 1):
        assert abs(psi[space.cavity_index(j)]) < 1e-12


def test_store_segment_swaps_excitation_into_cavity():
    # After the store pulse alone, an e excitation sits in the cavity
    # with amplitude -i (a perfect half swap of the resonant pair).
    params = DeviceParams.from_mhz(1, 50.0, 100.0)
    space = StateSpace(1)
    store = build_schedule(params)[1]
    u = expm(-1j * store.duration * dense_hamiltonian(store))
    psi = np.zeros(space.dim, dtype=complex)
    psi[space.qutrit_index(1, E)] = 1.0
    out = u @ psi
    assert out[space.cavity_index(1)] == pytest.approx(-1j, abs=1e-12)
    # f population is untouched by the store coupling
    psi_f = np.zeros(space.dim, dtype=complex)
    psi_f[space.qutrit_index(1, F)] = 1.0
    assert np.allclose(u @ psi_f, psi_f, atol=1e-12)
