import math

import fullspace
import numpy as np
import pytest
from scipy.linalg import expm

from cqwalk import protocol
from cqwalk.idealwalk import coin_preset, run_ideal
from cqwalk.protocol import (SEG_COIN, SEG_RETRIEVE, SEG_STORE,
                             build_schedule, h_coin, h_retrieve, h_store,
                             segment_durations)
from cqwalk.statespace import E, F, DeviceParams, StateSpace

REF = DeviceParams.from_mhz(2, 50.0, 100.0)


def test_reference_segment_durations():
    durs = segment_durations(REF)
    # theta/Omega = (pi/4)/(2pi*100 /us) = 1.25 ns; pi/2g = 5 ns
    assert durs[SEG_COIN] == pytest.approx(1.25e-3)
    assert durs[SEG_STORE] == pytest.approx(5.0e-3)
    assert durs[SEG_RETRIEVE] == pytest.approx(5.0e-3)


def test_schedule_structure():
    space = StateSpace(2)
    sched = build_schedule(space, REF)
    assert len(sched) == 6
    assert [s.label for s in sched] == [SEG_COIN, SEG_STORE, SEG_RETRIEVE] * 2
    assert [s.step for s in sched] == [1, 1, 1, 2, 2, 2]
    assert sched.total_duration == pytest.approx(2 * 11.25e-3)
    # identical pulses share one matrix -> one compiled map per kind
    assert sched.segments[0].hamiltonian is sched.segments[3].hamiltonian


def test_schedule_size_mismatch_rejected():
    with pytest.raises(ValueError):
        build_schedule(StateSpace(3), REF)


def test_hamiltonians_hermitian():
    space = StateSpace(3)
    params = DeviceParams.from_mhz(3, 40.0, 80.0, mu_over_2pi_mhz=35.0,
                                   phi_rad=0.7)
    for h in (h_coin(space, params), h_store(space, params),
              h_retrieve(space, params)):
        assert np.allclose(h, h.conj().T)


@pytest.mark.parametrize("builder", ["h_coin", "h_store", "h_retrieve"])
def test_truncated_hamiltonians_match_full_space(builder):
    # Couplings are two-body; the truncated matrices must equal the
    # compression of the exact tensor-product operators.
    params = DeviceParams.from_mhz(2, 47.0, 93.0, mu_over_2pi_mhz=21.0,
                                   phi_rad=-0.4)
    trunc = StateSpace(2)
    full = fullspace.FullSpace(2, fock_cutoff=3)
    v = fullspace.embedding_matrix(trunc, full)
    assert np.allclose(v.T @ getattr(fullspace, builder)(full, params) @ v,
                       getattr(protocol, builder)(trunc, params), atol=1e-12)


def _unitary_step(space, params):
    """Exact propagator of one walk step (three segments, no noise)."""
    durs = segment_durations(params)
    u = np.eye(space.dim, dtype=complex)
    for label, h in ((SEG_COIN, h_coin(space, params)),
                     (SEG_STORE, h_store(space, params)),
                     (SEG_RETRIEVE, h_retrieve(space, params))):
        u = expm(-1j * durs[label] * h) @ u
    return u


@pytest.mark.parametrize("coin_name", ["zero", "one", "plus-i"])
@pytest.mark.parametrize("theta", [math.pi / 4, 1.1])
def test_composite_step_reproduces_ideal_walk(coin_name, theta):
    # Apply the three-segment step N times to the encoded start state
    # and compare site populations with the exact walk.
    n = 3
    params = DeviceParams.from_mhz(n, 50.0, 100.0, theta_rad=theta)
    space = StateSpace(n)
    u = _unitary_step(space, params)
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
    u = expm(-1j * segment_durations(params)[SEG_STORE]
             * h_store(space, params))
    psi = np.zeros(space.dim, dtype=complex)
    psi[space.qutrit_index(1, E)] = 1.0
    out = u @ psi
    assert out[space.cavity_index(1)] == pytest.approx(-1j, abs=1e-12)
    # f population is untouched by the store coupling
    psi_f = np.zeros(space.dim, dtype=complex)
    psi_f[space.qutrit_index(1, F)] = 1.0
    assert np.allclose(u @ psi_f, psi_f, atol=1e-12)
