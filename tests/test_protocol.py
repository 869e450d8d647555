import math

import fullspace
import numpy as np
import pytest
from conftest import dense_hamiltonian
from fullspace import VACUUM, E, F, cavity_slot, sector_dim, slot
from scipy.linalg import expm

from cqwalk import ExperimentConfig
from cqwalk.idealwalk import coin_preset, run_ideal
from cqwalk.protocol import build_schedule, segment_durations

REF = ExperimentConfig(n_steps=2)


def test_reference_segment_durations():
    # (coin, store, retrieve): theta/Omega = (pi/4)/(2pi*100 /us) =
    # 1.25 ns; pi/2g = pi/2mu = 5 ns
    assert segment_durations(REF) == pytest.approx((1.25e-3, 5.0e-3, 5.0e-3))


def test_schedule_structure():
    # the schedule is one walk step, whatever the chain's length
    sched = build_schedule(REF)
    assert len(sched) == 3
    # coin, store, retrieve, in step order
    assert [s.offset for s in sched] == [1, 1, 0]
    assert sum(s.duration for s in sched) == pytest.approx(11.25e-3)
    # one 3x3 block per site of the 2-step chain
    assert all(s.hamiltonian.shape == (3, 3, 3) for s in sched)


def test_schedule_entries_are_two_pi_times_mhz():
    # the only nonzero entries are 2 pi Omega e^{i phi} (and its
    # conjugate), 2 pi g and 2 pi mu: the config's MHz times 2 pi
    cfg = ExperimentConfig(n_steps=3, g_over_2pi_mhz=40.0,
                           omega_over_2pi_mhz=80.0, mu_over_2pi_mhz=35.0,
                           phi_rad=0.7)
    drive = 2 * math.pi * 80.0 * np.exp(0.7j)
    want = np.zeros((3, 4, 3, 3), dtype=complex)
    want[0, :, 0, 1], want[0, :, 1, 0] = drive, np.conj(drive)
    want[1, :-1, 0, 2] = want[1, :-1, 2, 0] = 2 * math.pi * 40.0
    want[2, 1:, 0, 1] = want[2, 1:, 1, 0] = 2 * math.pi * 35.0
    sched = build_schedule(cfg)
    for k, (seg, stack) in enumerate(zip(sched, want)):
        assert np.array_equal(seg.hamiltonian, stack), k
    # coin, store, retrieve last theta/Omega, pi/2g and pi/2mu (us)
    assert ([s.duration for s in sched]
            == pytest.approx([1 / 640, 1 / 160, 1 / 140]))


def test_mu_auto_is_mu_equal_to_g():
    # mu = auto (None) gives bit for bit the schedule of mu = g
    auto = ExperimentConfig(n_steps=2, g_over_2pi_mhz=37.0)
    assert auto.mu_over_2pi_mhz is None
    explicit = ExperimentConfig(n_steps=2, g_over_2pi_mhz=37.0,
                                mu_over_2pi_mhz=37.0)
    assert segment_durations(auto) == segment_durations(explicit)
    for a, b in zip(build_schedule(auto), build_schedule(explicit)):
        assert a.duration == b.duration
        assert np.array_equal(a.hamiltonian, b.hamiltonian)


def test_hamiltonians_hermitian():
    cfg = ExperimentConfig(n_steps=3, g_over_2pi_mhz=40.0,
                           omega_over_2pi_mhz=80.0, mu_over_2pi_mhz=35.0,
                           phi_rad=0.7)
    for seg in build_schedule(cfg):
        h = dense_hamiltonian(seg)
        assert np.allclose(h, h.conj().T)


@pytest.mark.parametrize("builder", ["h_coin", "h_store", "h_retrieve"])
def test_truncated_hamiltonians_match_full_space(builder):
    # Couplings are two-body; each segment's site-form Hamiltonian, laid
    # out densely, must equal the compression of the exact tensor-product
    # operator.
    cfg = ExperimentConfig(n_steps=2, g_over_2pi_mhz=47.0,
                           omega_over_2pi_mhz=93.0, mu_over_2pi_mhz=21.0,
                           phi_rad=-0.4)
    full = fullspace.FullSpace(2, fock_cutoff=3)
    v = fullspace.embedding_matrix(full)
    kind = ("h_coin", "h_store", "h_retrieve").index(builder)
    seg = build_schedule(cfg)[kind]
    assert np.allclose(v.T @ getattr(fullspace, builder)(full, cfg) @ v,
                       dense_hamiltonian(seg), atol=1e-12)


def _unitary_step(cfg):
    """Exact propagator of one walk step (three segments, no noise)."""
    coin, store, retrieve = (
        expm(-1j * seg.duration * dense_hamiltonian(seg))
        for seg in build_schedule(cfg))
    return retrieve @ store @ coin


@pytest.mark.parametrize("coin_name", ["zero", "one", "plus-i"])
@pytest.mark.parametrize("theta", [math.pi / 4, 1.1])
def test_composite_step_reproduces_ideal_walk(coin_name, theta):
    # Apply the three-segment step N times to the encoded start state
    # and compare site populations with the exact walk.
    n = 3
    dim = sector_dim(n)
    u = _unitary_step(ExperimentConfig(n_steps=n, theta_rad=theta))
    coin = coin_preset(coin_name)
    psi = np.zeros(dim, dtype=complex)
    psi[slot(1, F)] = coin.c0
    psi[slot(1, E)] = coin.c1
    for _ in range(n):
        psi = u @ psi
    p = np.array([abs(psi[slot(j, E)]) ** 2 + abs(psi[slot(j, F)]) ** 2
                  for j in range(1, n + 2)])
    assert np.allclose(p, run_ideal(n, theta, coin), atol=1e-12)
    # nothing left behind in cavities or vacuum
    assert abs(psi[VACUUM]) < 1e-12
    for j in range(1, n + 1):
        assert abs(psi[cavity_slot(j)]) < 1e-12


def test_store_segment_swaps_excitation_into_cavity():
    # After the store pulse alone, an e excitation sits in the cavity
    # with amplitude -i (a perfect half swap of the resonant pair).
    dim = sector_dim(1)
    store = build_schedule(ExperimentConfig(n_steps=1))[1]
    u = expm(-1j * store.duration * dense_hamiltonian(store))
    psi = np.zeros(dim, dtype=complex)
    psi[slot(1, E)] = 1.0
    out = u @ psi
    assert out[cavity_slot(1)] == pytest.approx(-1j, abs=1e-12)
    # f population is untouched by the store coupling
    psi_f = np.zeros(dim, dtype=complex)
    psi_f[slot(1, F)] = 1.0
    assert np.allclose(u @ psi_f, psi_f, atol=1e-12)
