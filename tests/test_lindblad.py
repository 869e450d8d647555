import math
import tracemalloc

import numpy as np
import pytest
import fullspace
from conftest import (dense_expm_evolve, dense_expm_states,
                      dense_hamiltonian, dense_operators, lindblad_apply)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cqwalk.lindblad import (CollapseSet, DecoherenceRates, IntegrationError,
                             _expm_small, build_collapse_set,
                             density_matrix_checks, evolve_schedule)
from cqwalk.protocol import Schedule, Segment, build_schedule
from cqwalk.statespace import E, F, DeviceParams, StateSpace

REF = DeviceParams.from_mhz(2, 50.0, 100.0)
REF_1 = DeviceParams.from_mhz(1, 50.0, 100.0)


def _random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _run_with_readouts(rho0, schedule, collapse, steps):
    """evolve_schedule's final result and its step readouts, as the
    (n, result) pairs on_step got, in call order."""
    readouts = []
    res = evolve_schedule(rho0, schedule, collapse, steps,
                          lambda n, r: readouts.append((n, r)))
    return res, readouts


def _random_density_on(rng, dim, support):
    """Random mixed state with support only on the given basis states."""
    rho = np.zeros((dim, dim), dtype=complex)
    rho[np.ix_(support, support)] = _random_density(rng, len(support))
    return rho


# all six channels on, each at its own rate, fast enough to matter within
# a few steps
DISTINCT_RATES = DecoherenceRates(kappa=0.9, gamma_ge=1.3, gamma_ef=1.7,
                                  gamma_gf=2.3, gamma_phi_e=3.1,
                                  gamma_phi_f=3.7)
ZERO_RATES = DecoherenceRates.zero()


def test_t0_preset_rates():
    r = DecoherenceRates.t0()
    assert r.kappa == pytest.approx(0.1)
    assert r.gamma_ge == pytest.approx(0.1)
    assert r.gamma_ef == pytest.approx(0.1)
    assert r.gamma_gf == pytest.approx(0.1)
    assert r.gamma_phi_e == pytest.approx(0.2)
    assert r.gamma_phi_f == pytest.approx(0.2)


def test_rate_scaling_divides_rates():
    r = DecoherenceRates.t0(scale=5.0)
    assert r.kappa == pytest.approx(0.02)
    assert r.gamma_phi_e == pytest.approx(0.04)
    with pytest.raises(ValueError):
        DecoherenceRates.t0().scaled(0.0)
    with pytest.raises(ValueError):
        DecoherenceRates(kappa=-1.0)
    with pytest.raises(ValueError):
        DecoherenceRates(kappa=math.nan)


def test_collapse_set_counts():
    space = StateSpace(1)
    full = build_collapse_set(space, DecoherenceRates.t0())
    # five channels per qutrit, one per cavity: 5*2 + 1
    assert len(full) == 11
    none = build_collapse_set(space, DecoherenceRates.zero())
    assert len(none) == 0
    only_kappa = build_collapse_set(space, DecoherenceRates(kappa=0.3))
    assert len(only_kappa) == 1
    assert only_kappa.labels == ("loss_c1",)
    assert only_kappa.channels == ((0, space.cavity_index(1), 0.3),)


def test_collapse_set_of_long_chain_is_small():
    # 485 one-entry channels at N=80; dense 243x243 operators would take
    # about 460 MB
    tracemalloc.start()
    try:
        collapse = build_collapse_set(StateSpace(80), DecoherenceRates.t0())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(collapse) == 5 * 81 + 80
    assert peak < 1_000_000


def test_schedule_of_long_chain_is_small():
    # three (321, 3, 3) site stacks at N=320; dense 963x963 Hamiltonians
    # would take about 45 MB
    tracemalloc.start()
    try:
        schedule = build_schedule(DeviceParams.from_mhz(320, 50.0, 100.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(schedule) == 3 * 320
    assert peak < 2_000_000


def test_liouvillian_matches_direct_application():
    rng = np.random.default_rng(3)
    space = StateSpace(1)
    collapse = build_collapse_set(space, DecoherenceRates.t0())
    h = rng.normal(size=(space.dim, space.dim))
    h = h + h.T
    rho = _random_density(rng, space.dim)
    direct = lindblad_apply(rho, h, collapse)
    liou = fullspace.liouvillian_matrix(h, dense_operators(collapse,
                                                           space.dim))
    via_super = (liou @ rho.reshape(-1)).reshape(space.dim, space.dim)
    assert np.allclose(direct, via_super, atol=1e-12)


def test_noisy_run_matches_dense_oracle():
    # the production (block) path against the dense superoperator oracle
    space = StateSpace(2)
    params = DeviceParams.from_mhz(2, 50.0, 100.0)
    schedule = build_schedule(params)
    collapse = build_collapse_set(space, DecoherenceRates.t0())
    rng = np.random.default_rng(5)
    rho0 = _random_density(rng, space.dim)
    out = evolve_schedule(rho0, schedule, collapse).rho
    oracle = dense_expm_evolve(rho0, schedule, collapse)
    assert np.max(np.abs(out - oracle)) < 1e-12


def test_noise_free_run_is_unitary_conjugation():
    # without collapse channels the block path is U rho U+ exactly
    space = StateSpace(1)
    params = DeviceParams.from_mhz(1, 50.0, 100.0)
    schedule = build_schedule(params)
    empty = CollapseSet((), ())
    rng = np.random.default_rng(11)
    rho0 = _random_density(rng, space.dim)
    out = evolve_schedule(rho0, schedule, empty).rho
    want = rho0
    for seg in schedule:
        u = expm(-1j * seg.duration * dense_hamiltonian(seg))
        want = u @ want @ u.conj().T
    assert np.max(np.abs(out - want)) < 1e-12
    # purity preserved without collapse channels
    assert np.trace(out @ out).real == pytest.approx(
        np.trace(rho0 @ rho0).real, abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 5), scale=st.floats(0.2, 5.0),
       theta=st.floats(0.1, 1.4), seed=st.integers(0, 10_000))
def test_block_propagator_matches_dense_oracle(n, scale, theta, seed):
    space = StateSpace(n)
    schedule = build_schedule(
        DeviceParams.from_mhz(n, 50.0, 100.0, theta_rad=theta))
    collapse = build_collapse_set(space, DecoherenceRates.t0(scale))
    assert len(collapse) == 5 * space.n_qutrits + space.n_cavities
    rho0 = _random_density(np.random.default_rng(seed), space.dim)
    out = evolve_schedule(rho0, schedule, collapse).rho
    oracle = dense_expm_evolve(rho0, schedule, collapse)
    assert np.max(np.abs(out - oracle)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_light_cone_matches_dense_oracle(n):
    # the walker starts on site 1, with coherences to the vacuum
    space = StateSpace(n)
    schedule = build_schedule(DeviceParams.from_mhz(n, 50.0, 100.0))
    collapse = build_collapse_set(space, DISTINCT_RATES)
    assert len(collapse) == 5 * space.n_qutrits + space.n_cavities
    site_1 = [space.vacuum_index, space.qutrit_index(1, E),
              space.qutrit_index(1, F)]
    rho0 = _random_density_on(np.random.default_rng(n), space.dim, site_1)
    res = evolve_schedule(rho0, schedule, collapse)
    oracle = dense_expm_evolve(rho0, schedule, collapse)
    assert np.max(np.abs(res.rho - oracle)) <= 1e-12
    assert res.max_trace_error < 1e-12


@pytest.mark.parametrize("start", ["site 1", "random"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_noise_free_columns_match_dense_oracle(n, start):
    # with zero rates the run propagates rho0's light-cone columns and
    # forms rho only at readouts; every prefix of the schedule and every
    # step readout must give the dense oracle's state, from a site-1
    # state with vacuum coherences (three columns) and from a random
    # state on the whole sector
    space = StateSpace(n)
    params = DeviceParams.from_mhz(n, 50.0, 100.0)
    schedule = build_schedule(params)
    empty = build_collapse_set(space, ZERO_RATES)
    site_1 = [space.vacuum_index, space.qutrit_index(1, E),
              space.qutrit_index(1, F)]
    rng = np.random.default_rng(n)
    rho0 = (_random_density_on(rng, space.dim, site_1) if start == "site 1"
            else _random_density(rng, space.dim))
    want = dense_expm_states(rho0, schedule, empty)

    def close(got, oracle):
        return np.max(np.abs(got - oracle)) <= 1e-12

    res = evolve_schedule(rho0, schedule, empty)
    assert close(res.rho, want[-1])
    assert res.max_trace_error < 1e-12
    assert res.max_hermiticity_drift < 1e-12
    for i, oracle in enumerate(want):
        prefix = Schedule(schedule.segments[:i])
        assert close(evolve_schedule(rho0, prefix, empty).rho, oracle), i
    # step numbers: the m-step chain's own run from rho0's leading block,
    # which holds the whole site-1 state; a random state spreads over
    # the whole chain, so only step n
    steps = range(1, n + 1) if start == "site 1" else [n]
    _, readouts = _run_with_readouts(rho0, schedule, empty, steps)
    assert [m for m, _ in readouts] == list(steps)
    for m, snap in readouts:
        sub = StateSpace(m)
        oracle = dense_expm_evolve(
            rho0[:sub.dim, :sub.dim],
            build_schedule(DeviceParams.from_mhz(m, 50.0, 100.0)),
            build_collapse_set(sub, ZERO_RATES))
        assert close(snap.rho, oracle)
        assert snap.max_trace_error < 1e-12
        assert snap.max_hermiticity_drift < 1e-12


@pytest.mark.parametrize("where", ["site 2", "last sites"])
def test_support_beyond_site_1_matches_dense_oracle(where):
    # rho0 outside the light cone's start: the run begins on a larger
    # block (the whole chain for the last sites) and must stay exact
    space = StateSpace(3)
    schedule = build_schedule(DeviceParams.from_mhz(3, 50.0, 100.0))
    collapse = build_collapse_set(space, DISTINCT_RATES)
    if where == "site 2":
        support = [space.qutrit_index(2, E), space.qutrit_index(2, F)]
    else:
        support = [space.vacuum_index, space.qutrit_index(4, E),
                   space.qutrit_index(4, F), space.cavity_index(3)]
    rho0 = _random_density_on(np.random.default_rng(9), space.dim, support)
    res = evolve_schedule(rho0, schedule, collapse)
    oracle = dense_expm_evolve(rho0, schedule, collapse)
    assert np.max(np.abs(res.rho - oracle)) <= 1e-12


def test_hamiltonian_outside_the_sites_is_refused():
    # a term on the vacuum of an offset-0 stack, on the missing c_2 of an
    # offset-1 stack, or a stack at an offset that fits no site layout
    space = StateSpace(1)
    collapse = build_collapse_set(space, DISTINCT_RATES)
    rho0 = _random_density(np.random.default_rng(2), space.dim)
    vacuum, beyond = (np.zeros((2, 3, 3), dtype=complex) for _ in range(2))
    vacuum[0, 0, 1] = vacuum[0, 1, 0] = 300.0          # vacuum <-> e_1
    beyond[1, 0, 2] = beyond[1, 2, 0] = 300.0          # e_2 <-> c_2
    store = build_schedule(REF_1).segments[1]
    for h, offset, match in ((vacuum, 0, "outside the sector's sites"),
                             (beyond, 1, "outside the sector's sites"),
                             (store.hamiltonian, 2, "fits no site layout")):
        schedule = Schedule((Segment("store", 1, h, offset, 4e-3),))
        with pytest.raises(ValueError, match=match):
            evolve_schedule(rho0, schedule, collapse)


def test_collapse_channel_between_sites_is_refused():
    # |e_2><e_1| ends neither in the vacuum nor in its source's triplet
    space = StateSpace(1)
    schedule = build_schedule(REF_1)
    hop = CollapseSet(((space.qutrit_index(2, E), space.qutrit_index(1, E),
                        0.5),), ("hop",))
    rho0 = _random_density(np.random.default_rng(3), space.dim)
    with pytest.raises(ValueError, match="site layout"):
        evolve_schedule(rho0, schedule, hop)


@pytest.mark.parametrize("rates", [ZERO_RATES, DISTINCT_RATES],
                         ids=["zero rates", "distinct rates"])
def test_vacuum_stays_put(rates):
    # the vacuum has no dynamics: a one-slot light cone meets no site of
    # the coin and store maps, and stays the vacuum through every pulse
    space = StateSpace(2)
    schedule = build_schedule(REF)
    rho0 = np.zeros((space.dim, space.dim), dtype=complex)
    rho0[space.vacuum_index, space.vacuum_index] = 1.0
    collapse = build_collapse_set(space, rates)
    for i in range(len(schedule) + 1):
        res = evolve_schedule(rho0, Schedule(schedule.segments[:i]),
                              collapse)
        assert np.array_equal(res.rho, rho0), i
        assert res.max_trace_error == 0.0
        assert res.max_hermiticity_drift == 0.0


def test_schedule_of_another_chain_is_refused():
    # an N=2 schedule (three sites per stack) on an N=1 state
    rho0 = np.zeros((6, 6), dtype=complex)
    rho0[1, 1] = 1.0
    schedule = build_schedule(REF)
    with pytest.raises(ValueError, match="sector of dimension 6"):
        evolve_schedule(rho0, schedule, CollapseSet((), ()))


def test_collapse_set_of_another_chain_is_refused():
    # an N=2 collapse set holds channels on slots an N=1 state lacks
    space = StateSpace(1)
    rho0 = np.zeros((space.dim, space.dim), dtype=complex)
    rho0[1, 1] = 1.0
    collapse = build_collapse_set(StateSpace(2), DISTINCT_RATES)
    with pytest.raises(ValueError, match="sector of dimension 6"):
        evolve_schedule(rho0, build_schedule(REF_1), collapse)


@pytest.mark.parametrize("dim", [3, 7, 8])
def test_state_outside_the_sector_is_refused(dim):
    # only 3N+3 with N >= 1 is a sector dimension
    h = np.zeros(((dim + 1) // 3, 3, 3), dtype=complex)
    schedule = Schedule((Segment("coin", 1, h, 1, 1e-3),))
    with pytest.raises(ValueError, match="single-excitation sector"):
        evolve_schedule(np.eye(dim) / dim, schedule, CollapseSet((), ()))


def test_small_exponentials_reject_non_finite_input():
    with pytest.raises(IntegrationError):
        _expm_small([np.array([[math.nan]]), np.eye(2)])
    with pytest.raises(IntegrationError):
        _expm_small([np.array([[math.inf]])])
    # a finite norm near the float limit needs 1025 squarings
    assert _expm_small([np.array([[-1e308]])])[0][0, 0] == 0.0


def test_small_exponentials_match_scipy():
    # sizes repeat so matrices share a stack; 1-norms from 0 to ~300 need
    # from none to ten squarings within one stack
    rng = np.random.default_rng(7)
    mats = [s * (rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
            for k in (1, 2, 2, 5, 6) for s in (0.0, 0.01, 1.0, 30.0)]
    for got, m in zip(_expm_small(mats), mats):
        want = expm(m)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.abs(want).max())


def test_fullspace_oracle_matches_dense_expm():
    # the full-space oracle's expm_multiply run, whose embedded jumps are
    # not single transitions, against a dense expm of the same
    # Liouvillian
    full = fullspace.FullSpace(1)
    schedule = fullspace.build_schedule(full, REF_1)
    ops = [op for _, op in fullspace.collapse_operators(
        full, DecoherenceRates.t0())]
    rho0 = _random_density(np.random.default_rng(4), full.dim)
    rho, trace_error, _ = fullspace.evolve(rho0, schedule, ops)
    vec = rho0.reshape(-1)
    for h, duration in schedule:
        liou = fullspace.liouvillian_matrix(h, ops).toarray()
        vec = expm(duration * liou) @ vec
    assert np.max(np.abs(rho - vec.reshape(rho.shape))) < 1e-12
    assert trace_error < 1e-12


def test_one_segment_run_keeps_trace_and_hermiticity():
    # a one-segment run: the exact store map keeps the trace
    space = StateSpace(1)
    collapse = build_collapse_set(space, DecoherenceRates.t0())
    store = build_schedule(REF_1).segments[1]
    rho0 = np.zeros((space.dim, space.dim), dtype=complex)
    rho0[1, 1] = 1.0
    res = evolve_schedule(rho0, Schedule((store,)), collapse)
    assert res.max_trace_error < 1e-14
    assert res.max_hermiticity_drift < 1e-14


def test_diagnostics_keep_nan():
    space = StateSpace(1)
    schedule = build_schedule(REF_1)
    rho0 = np.full((space.dim, space.dim), np.nan, dtype=complex)
    res = evolve_schedule(rho0, schedule, CollapseSet((), ()))
    assert math.isnan(res.max_trace_error)
    assert math.isnan(res.max_hermiticity_drift)


def test_trace_and_hermiticity_tracked():
    space = StateSpace(2)
    schedule = build_schedule(REF)
    collapse = build_collapse_set(space, DecoherenceRates.t0(0.2))
    rng = np.random.default_rng(7)
    rho0 = _random_density(rng, space.dim)
    res = evolve_schedule(rho0, schedule, collapse)
    assert res.max_trace_error < 1e-10
    assert res.max_hermiticity_drift < 1e-12
    checks = density_matrix_checks(res.rho)
    assert checks["trace_error"] < 1e-10
    assert checks["hermiticity"] == 0.0
    assert checks["min_eigenvalue"] > -1e-12


def test_snapshots_are_sector_states():
    # each step readout is, bit for bit, the leading block of the final
    # state of the matching prefix of the schedule, which is zero outside
    # that block, with the prefix's diagnostics; the last one is the
    # run without readouts.  With zero rates the states are formed from
    # propagated columns
    space = StateSpace(3)
    schedule = build_schedule(DeviceParams.from_mhz(3, 50.0, 100.0))
    site_1 = [space.qutrit_index(1, E), space.qutrit_index(1, F)]
    rho0 = _random_density_on(np.random.default_rng(6), space.dim, site_1)
    for rates in (ZERO_RATES, DISTINCT_RATES):
        collapse = build_collapse_set(space, rates)
        final = evolve_schedule(rho0, schedule, collapse).rho
        by_step, readouts = _run_with_readouts(rho0, schedule, collapse,
                                               (1, 2, 3))
        assert np.array_equal(by_step.rho, final)
        assert np.array_equal(readouts[-1][1].rho, final)
        assert [n for n, _ in readouts] == [1, 2, 3]
        for n, snap in readouts:
            prefix = Schedule(schedule.segments[:3 * n])
            alone = evolve_schedule(rho0, prefix, collapse)
            end = StateSpace(n).dim
            assert np.array_equal(snap.rho, alone.rho[:end, :end])
            outside = alone.rho.copy()
            outside[:end, :end] = 0.0
            assert not outside.any()
            assert snap.max_trace_error == alone.max_trace_error
            assert snap.max_hermiticity_drift == alone.max_hermiticity_drift
            if n == 1:
                assert np.max(np.abs(alone.rho - dense_expm_evolve(
                    rho0, prefix, collapse))) <= 1e-12, rates


def test_step_readout_is_each_shorter_run():
    # reading an 8-step run out after steps 2 and 5 gives, bit for bit,
    # the 2- and 5-step runs on their own sectors from the same site-1
    # state (vacuum coherences included), diagnostics up to that step,
    # with and without decoherence
    block = _random_density(np.random.default_rng(5), 3)

    def run(n, rates, steps=()):
        space = StateSpace(n)
        schedule = build_schedule(DeviceParams.from_mhz(n, 50.0, 100.0))
        site_1 = [space.vacuum_index, space.qutrit_index(1, E),
                  space.qutrit_index(1, F)]
        rho0 = np.zeros((space.dim, space.dim), dtype=complex)
        rho0[np.ix_(site_1, site_1)] = block
        return _run_with_readouts(rho0, schedule,
                                  build_collapse_set(space, rates), steps)

    for rates in (ZERO_RATES, DISTINCT_RATES):
        long, readouts = run(8, rates, steps=[8, 5, 2, 5])
        assert [n for n, _ in readouts] == [2, 5, 8]
        for n, snap in readouts:
            alone, _ = run(n, rates)
            assert np.array_equal(snap.rho, alone.rho)
            assert snap.max_trace_error == alone.max_trace_error
            assert snap.max_hermiticity_drift == alone.max_hermiticity_drift
        assert np.array_equal(long.rho, readouts[-1][1].rho)


def test_step_readout_refusals():
    space = StateSpace(3)
    schedule = build_schedule(DeviceParams.from_mhz(3, 50.0, 100.0))
    collapse = build_collapse_set(space, DISTINCT_RATES)
    rho0 = np.zeros((space.dim, space.dim), dtype=complex)
    rho0[space.qutrit_index(2, E), space.qutrit_index(2, E)] = 1.0
    with pytest.raises(ValueError, match="not all in the schedule"):
        _run_with_readouts(rho0, schedule, collapse, (4,))
    # a walker started on site 2 may be on site 3 after one step, which
    # a one-step chain does not have
    with pytest.raises(ValueError, match="beyond site 2"):
        _run_with_readouts(rho0, schedule, collapse, (1, 3))


def test_record_modes():
    # steps takes step numbers only, each read out through on_step; by
    # default nothing is read out
    space = StateSpace(2)
    schedule = build_schedule(REF)
    collapse = build_collapse_set(space, DecoherenceRates.t0())
    rho0 = np.zeros((space.dim, space.dim), dtype=complex)
    rho0[space.qutrit_index(1, F), space.qutrit_index(1, F)] = 1.0
    plain = evolve_schedule(rho0, schedule, collapse,
                            on_step=pytest.fail)
    by_step, readouts = _run_with_readouts(rho0, schedule, collapse,
                                           range(1, 3))
    assert [n for n, _ in readouts] == [1, 2]
    assert np.array_equal(by_step.rho, plain.rho)
    for mode in ("steps", "segments", "none"):
        with pytest.raises(ValueError):
            _run_with_readouts(rho0, schedule, collapse, mode)
    with pytest.raises(ValueError, match="on_step"):
        evolve_schedule(rho0, schedule, collapse, steps=(1,))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.floats(0.2, 5.0))
def test_evolution_preserves_trace_property(seed, scale):
    space = StateSpace(1)
    collapse = build_collapse_set(space, DecoherenceRates.t0(scale))
    rng = np.random.default_rng(seed)
    rho0 = _random_density(rng, space.dim)
    coin = build_schedule(REF_1).segments[0]
    longer = Segment("coin", 1, coin.hamiltonian, coin.offset, 2e-3)
    res = evolve_schedule(rho0, Schedule((longer,)), collapse)
    assert res.max_trace_error < 1e-10
    assert np.trace(res.rho).real == pytest.approx(1.0, abs=1e-10)
