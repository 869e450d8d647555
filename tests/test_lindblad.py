import math
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest
import fullspace
from conftest import (dense_expm_evolve, dense_expm_states,
                      dense_hamiltonian, dense_operators, evolve_final,
                      lindblad_apply, walk_schedule, zero_noise_config)
from fullspace import E, F, VACUUM, cavity_slot, sector_dim, slot
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cqwalk import ExperimentConfig, harness, lindblad, run_experiment
from cqwalk.lindblad import (POSITIVITY_SHIFT, DecoherenceRates,
                             IntegrationError, _expm_small, _SiteMaps,
                             _symmetrize, _triplets, compile_step,
                             min_eigenvalue, walk_steps)
from cqwalk.protocol import Segment, build_schedule

REF = ExperimentConfig(n_steps=2)
REF_1 = ExperimentConfig(n_steps=1)


def _random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _run_with_readouts(psi0, schedule, rates, steps):
    """The walk's final result and the readouts of the steps in steps,
    as (n, result) pairs in increasing order of n."""
    last = len(psi0) // 3 - 1
    readouts = [(n, read()) for n, read in
                enumerate(walk_schedule(psi0, schedule, rates), start=1)
                if n in steps or n == last]
    return readouts[-1][1], [(n, r) for n, r in readouts if n in steps]


def _random_state(rng, dim, support=None):
    """Random normalized state vector, with support only on the given
    basis states (on all of them by default)."""
    support = np.arange(dim) if support is None else support
    psi = np.zeros(dim, dtype=complex)
    psi[support] = (rng.normal(size=len(support))
                    + 1j * rng.normal(size=len(support)))
    return psi / np.linalg.norm(psi)


def _basis_state(dim, index):
    psi = np.zeros(dim, dtype=complex)
    psi[index] = 1.0
    return psi


def _density(psi):
    """psi psi+, the density matrix the dense oracle starts from."""
    return np.outer(psi, psi.conj())


def _rho(res):
    """The density matrix of a result: its state, or psi psi+ formed
    here from the psi a noise-free run reads out."""
    return _density(res.state) if res.state.ndim == 1 else res.state


# all six channels on, each at its own rate, fast enough to matter within
# a few steps
DISTINCT_RATES = DecoherenceRates(kappa=0.9, gamma_ge=1.3, gamma_ef=1.7,
                                  gamma_gf=2.3, gamma_phi_e=3.1,
                                  gamma_phi_f=3.7)
ZERO_RATES = DecoherenceRates()
# the default device: 10 us loss and relaxation, 5 us dephasing
T0_RATES = ExperimentConfig().rates()


def test_t0_preset_rates():
    r = T0_RATES
    assert r.kappa == pytest.approx(0.1)
    assert r.gamma_ge == pytest.approx(0.1)
    assert r.gamma_ef == pytest.approx(0.1)
    assert r.gamma_gf == pytest.approx(0.1)
    assert r.gamma_phi_e == pytest.approx(0.2)
    assert r.gamma_phi_f == pytest.approx(0.2)


def test_each_lifetime_gives_its_own_channel_rate():
    # distinct lifetimes, so that two channels swapped show
    lifetimes = dict(t1_cavity_us=1.0, t1_ge_us=2.0, t1_ef_us=4.0,
                     t1_gf_us=8.0, tphi_e_us=16.0, tphi_f_us=32.0)
    r = ExperimentConfig(scale=2.0, **lifetimes).rates()
    assert r.kappa == 1 / (1.0 * 2.0)
    assert r.gamma_ge == 1 / (2.0 * 2.0)
    assert r.gamma_ef == 1 / (4.0 * 2.0)
    assert r.gamma_gf == 1 / (8.0 * 2.0)
    assert r.gamma_phi_e == 1 / (16.0 * 2.0)
    assert r.gamma_phi_f == 1 / (32.0 * 2.0)


def test_rate_scaling_divides_rates():
    r = ExperimentConfig(scale=5.0).rates()
    assert r.kappa == pytest.approx(0.02)
    assert r.gamma_phi_e == pytest.approx(0.04)
    with pytest.raises(ValueError):
        DecoherenceRates(kappa=-1.0)
    with pytest.raises(ValueError):
        DecoherenceRates(kappa=math.nan)


def test_schedule_of_long_chain_is_small():
    # three (321, 3, 3) site stacks at N=320; dense 963x963 Hamiltonians
    # would take about 45 MB
    tracemalloc.start()
    try:
        schedule = build_schedule(ExperimentConfig(n_steps=320))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(schedule) == 3
    assert peak < 2_000_000


def test_liouvillian_matches_direct_application():
    rng = np.random.default_rng(3)
    dim = sector_dim(1)
    h = rng.normal(size=(dim, dim))
    h = h + h.T
    rho = _random_density(rng, dim)
    direct = lindblad_apply(rho, h, T0_RATES)
    liou = fullspace.liouvillian_matrix(h, dense_operators(T0_RATES, dim))
    via_super = (liou @ rho.reshape(-1)).reshape(dim, dim)
    assert np.allclose(direct, via_super, atol=1e-12)


def test_noisy_run_matches_dense_oracle():
    # the production (block) path against the dense superoperator oracle
    dim = sector_dim(2)
    schedule = build_schedule(ExperimentConfig(n_steps=2))
    rng = np.random.default_rng(5)
    psi0 = _random_state(rng, dim)
    out = evolve_final(psi0, schedule, T0_RATES).state
    oracle = dense_expm_evolve(_density(psi0), schedule * 2, T0_RATES)
    assert np.max(np.abs(out - oracle)) < 1e-12


def test_noise_free_run_is_unitary_conjugation():
    # without collapse channels the run reads out psi = U psi0, whose
    # psi psi+ is U rho0 U+ exactly
    dim = sector_dim(1)
    schedule = build_schedule(ExperimentConfig(n_steps=1))
    rng = np.random.default_rng(11)
    psi0 = _random_state(rng, dim)
    rho0 = _density(psi0)
    out = _density(evolve_final(psi0, schedule, ZERO_RATES).state)
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
    dim = sector_dim(n)
    schedule = build_schedule(ExperimentConfig(n_steps=n, theta_rad=theta))
    rates = ExperimentConfig(scale=scale).rates()
    psi0 = _random_state(np.random.default_rng(seed), dim)
    out = evolve_final(psi0, schedule, rates).state
    oracle = dense_expm_evolve(_density(psi0), schedule * n, rates)
    assert np.max(np.abs(out - oracle)) <= 1e-12


# each channel alone at its own rate: a rate put on the wrong slot of a
# site (e, f and c sit at other slots at offsets 0 and 1), on the vacuum
# or on the missing c_{N+1} shows here
_ONE_CHANNEL = [pytest.param(n, DecoherenceRates(**{name: rate}),
                             id=f"{name}-{n}")
                for name, rate in vars(DISTINCT_RATES).items()
                for n in (1, 2, 3)]


@pytest.mark.parametrize("n, rates",
                         [pytest.param(n, DISTINCT_RATES, id=str(n))
                          for n in range(1, 6)] + _ONE_CHANNEL)
def test_light_cone_matches_dense_oracle(n, rates):
    # the walker starts on site 1, with coherences to the vacuum
    dim = sector_dim(n)
    schedule = build_schedule(ExperimentConfig(n_steps=n))
    site_1 = [VACUUM, slot(1, E), slot(1, F)]
    psi0 = _random_state(np.random.default_rng(n), dim, site_1)
    res = evolve_final(psi0, schedule, rates)
    oracle = dense_expm_evolve(_density(psi0), schedule * n, rates)
    assert np.max(np.abs(res.state - oracle)) <= 1e-12
    assert res.max_trace_error < 1e-12


@pytest.mark.parametrize("start", ["site 1", "random"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_noise_free_columns_match_dense_oracle(n, start):
    # with zero rates the run propagates psi as one column and reads it
    # out; psi psi+, formed here, of the final state and of every step
    # readout must give the dense oracle's state, from a site-1 state
    # with vacuum amplitude and from a random state on the whole sector
    dim = sector_dim(n)
    schedule = build_schedule(ExperimentConfig(n_steps=n))
    site_1 = [VACUUM, slot(1, E), slot(1, F)]
    rng = np.random.default_rng(n)
    psi0 = _random_state(rng, dim,
                         site_1 if start == "site 1" else None)
    want = dense_expm_states(_density(psi0), schedule * n, ZERO_RATES)

    def close(got, oracle):
        return np.max(np.abs(got - oracle)) <= 1e-12

    res = evolve_final(psi0, schedule, ZERO_RATES)
    assert close(_density(res.state), want[-1])
    assert res.max_trace_error < 1e-12
    assert res.max_hermiticity_drift < 1e-12
    # step numbers: the m-step chain's own run from psi0's leading entries,
    # which holds the whole site-1 state; a random state spreads over
    # the whole chain, so only step n.  Step m ends at the oracle's state
    # 3m, whose leading block the readout is
    steps = range(1, n + 1) if start == "site 1" else [n]
    _, readouts = _run_with_readouts(psi0, schedule, ZERO_RATES, steps)
    assert [m for m, _ in readouts] == list(steps)
    for m, snap in readouts:
        sub_dim = sector_dim(m)
        boundary = want[3 * m].copy()
        assert close(_density(snap.state), boundary[:sub_dim, :sub_dim]), m
        boundary[:sub_dim, :sub_dim] = 0.0
        assert close(boundary, 0.0), m
        oracle = dense_expm_evolve(
            _density(psi0[:sub_dim]),
            build_schedule(ExperimentConfig(n_steps=m)) * m,
            ZERO_RATES)
        assert close(_density(snap.state), oracle)
        assert snap.max_trace_error < 1e-12
        assert snap.max_hermiticity_drift < 1e-12


@pytest.mark.parametrize("where", ["site 2", "last sites"])
def test_support_beyond_site_1_matches_dense_oracle(where):
    # psi0 outside the light cone's start: the run begins on a larger
    # block (the whole chain for the last sites) and must stay exact
    dim = sector_dim(3)
    schedule = build_schedule(ExperimentConfig(n_steps=3))
    if where == "site 2":
        support = [slot(2, E), slot(2, F)]
    else:
        support = [VACUUM, slot(4, E), slot(4, F), cavity_slot(3)]
    psi0 = _random_state(np.random.default_rng(9), dim, support)
    res = evolve_final(psi0, schedule, DISTINCT_RATES)
    oracle = dense_expm_evolve(_density(psi0), schedule * 3, DISTINCT_RATES)
    assert np.max(np.abs(res.state - oracle)) <= 1e-12


@pytest.mark.parametrize("rates", [ZERO_RATES, DISTINCT_RATES],
                         ids=["zero rates", "distinct rates"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_composed_map_is_the_maps_in_sequence(n, rates):
    # coin then store (offset 1, with the empty c_{N+1} slot) and two
    # retrieves (offset 0, with the vacuum as site 0's inert slot), each
    # composed into one map, against the two maps applied one after the
    # other to a random state on the whole sector, the last site and the
    # vacuum sink included; noise-free also to random columns
    dim = sector_dim(n)
    coin, store, retrieve = build_schedule(ExperimentConfig(n_steps=n))
    rng = np.random.default_rng(n)

    def apply(maps, rho):
        return maps.apply(rho, dim + 1,
                          _triplets(rho, maps.offset, n + 1))

    for first, second in ((coin, store), (retrieve, retrieve)):
        (a,), (b,) = (compile_step((seg,), rates) for seg in (first, second))
        (both,) = compile_step((first, second), rates)
        assert both.offset == first.offset
        assert (both.blocks is None) == (rates == ZERO_RATES)
        rho = np.zeros((dim + 1, dim + 1), dtype=complex)
        rho[:-1, :-1] = _random_density(rng, dim)
        want, got = rho.copy(), rho.copy()
        apply(a, want)
        apply(b, want)
        assert apply(both, got) == dim + first.offset
        assert np.max(np.abs(got - want)) <= 1e-14
        if rates == ZERO_RATES:
            shape = (dim + 1, 4)
            y = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            y[-1] = 0.0
            want, got = y.copy(), y.copy()
            a.apply_rows(want, dim + 1)
            b.apply_rows(want, dim + 1)
            both.apply_rows(got, dim + 1)
            assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("rates, method", [(ZERO_RATES, "apply_rows"),
                                           (DISTINCT_RATES, "apply")],
                         ids=["zero rates", "distinct rates"])
@pytest.mark.parametrize("n", [1, 4])
def test_each_step_applies_two_maps(monkeypatch, n, rates, method):
    # coin and store are one composed map, made once per run; retrieve is
    # the other, with or without step readouts
    applied, composed = [], []
    original, then = getattr(_SiteMaps, method), _SiteMaps.then

    def counted(self, *args, **kwargs):
        applied.append(self.offset)
        return original(self, *args, **kwargs)

    def counted_then(self, later):
        composed.append(self.offset)
        return then(self, later)

    monkeypatch.setattr(_SiteMaps, method, counted)
    monkeypatch.setattr(_SiteMaps, "then", counted_then)
    dim = sector_dim(n)
    schedule = build_schedule(ExperimentConfig(n_steps=n))
    psi0 = _basis_state(dim, slot(1, E))
    for steps in ((), range(1, n + 1)):
        applied.clear()
        composed.clear()
        _run_with_readouts(psi0, schedule, rates, steps)
        assert applied == [1, 0] * n
        assert composed == [1]


@pytest.mark.parametrize("rates", [ZERO_RATES, DISTINCT_RATES],
                         ids=["zero rates", "distinct rates"])
def test_one_compile_pass_and_fixed_views_per_run(monkeypatch, rates):
    # a run exponentiates its step's generators in one _expm_small pass,
    # and a noisy one views rho's diagonal blocks twice, once per site
    # layout, before its first step: none of it happens in the step loop
    calls = []
    expm_small, as_strided = lindblad._expm_small, lindblad.as_strided
    monkeypatch.setattr(lindblad, "_expm_small", lambda stacks: calls.append(
        "expm") or expm_small(stacks))
    monkeypatch.setattr(lindblad, "as_strided", lambda *args, **kwargs:
                        calls.append("view") or as_strided(*args, **kwargs))
    for n in (1, 2, 6):
        dim = sector_dim(n)
        schedule = build_schedule(ExperimentConfig(n_steps=n))
        psi0 = _basis_state(dim, slot(1, F))
        calls.clear()
        _run_with_readouts(psi0, schedule, rates, range(1, n + 1))
        views = [] if rates == ZERO_RATES else ["view"] * 2
        assert sorted(calls) == ["expm"] + views, n


# a device point whose rates are DISTINCT_RATES, up to rounding
DISTINCT_CONFIG = ExperimentConfig(
    n_steps=2, t1_cavity_us=1 / 0.9, t1_ge_us=1 / 1.3, t1_ef_us=1 / 1.7,
    t1_gf_us=1 / 2.3, tphi_e_us=1 / 3.1, tphi_f_us=1 / 3.7)


def _kept_step(cfg):
    """The compiled step the harness keeps for cfg's device point, by a
    compile of its own if it is not kept."""
    return harness._compiled_step(harness._device_point(cfg))


@pytest.mark.parametrize("cfg", [zero_noise_config(n_steps=2),
                                 DISTINCT_CONFIG],
                         ids=["zero rates", "distinct rates"])
def test_kept_step_is_read_only(cfg):
    # the harness keeps a step by its device point, not by the config's
    # identity, and every run at that point shares its maps: none of
    # them can be written
    run_experiment(cfg)
    maps = _kept_step(cfg)
    run_experiment(replace(cfg, coin0="zero"))
    assert _kept_step(replace(cfg, coin0="one")) is maps
    arrays = [a for m in maps for a in (m.v, m.v_conj, m.blocks, m.sink)
              if a is not None]
    assert len(arrays) == (4 if cfg.rates() == ZERO_RATES else 8)
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


def test_failed_compile_is_not_kept():
    # a compile that raises keeps nothing: the same point raises again,
    # by a compile of its own (a miss), and the step kept before stays
    # kept; the three f rates of 1e308 / us sum to inf
    failing = replace(REF_1, t1_ef_us=1e-308, t1_gf_us=1e-308,
                      tphi_f_us=1e-308)
    kept = _kept_step(REF_1)
    for _ in range(2):
        with pytest.raises(IntegrationError, match="1-norm"):
            _kept_step(failing)
        assert _kept_step(REF_1) is kept
    info = harness._compiled_step.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 3, 1)


def _map_bits(maps) -> list:
    return [(m.offset, *(None if a is None else a.tobytes()
                         for a in (m.v, m.blocks, m.sink))) for m in maps]


@pytest.mark.parametrize("value", [1, np.float32(1.0)],
                         ids=["int", "float32"])
def test_rates_are_compiled_as_their_float64_values(value):
    # rates given as other numbers than Python floats compile to the
    # maps, and run to the state, of the same values as floats, bit for
    # bit
    dim = sector_dim(2)
    schedule = build_schedule(REF)
    psi0 = _basis_state(dim, slot(1, F))
    runs = []
    for rates in (DecoherenceRates(*[1.0] * 6), DecoherenceRates(*[value] * 6)):
        res = evolve_final(psi0, schedule, rates)
        runs.append((_map_bits(compile_step(schedule, rates)),
                     res.state.tobytes(), res.populations.tobytes(),
                     res.max_trace_error, res.max_hermiticity_drift))
        assert res.state.ndim == 2          # a noisy run, of rho
    assert runs[1] == runs[0]


@dataclass(frozen=True)
class _ReversedRates:
    """DecoherenceRates' six fields, declared in reverse order."""

    gamma_phi_f: float
    gamma_phi_e: float
    gamma_gf: float
    gamma_ef: float
    gamma_ge: float
    kappa: float


def test_compile_step_reads_rates_by_name():
    # a rates object whose fields come in another order compiles to the
    # maps of the same rates, bit for bit: each channel is read by name
    schedule = build_schedule(REF)
    reordered = _ReversedRates(**vars(DISTINCT_RATES))
    assert list(vars(reordered).values()) != list(
        vars(DISTINCT_RATES).values())
    assert (_map_bits(compile_step(schedule, reordered))
            == _map_bits(compile_step(schedule, DISTINCT_RATES)))


@pytest.mark.parametrize("rates", [ZERO_RATES, DISTINCT_RATES],
                         ids=["zero rates", "distinct rates"])
def test_one_segment_schedule_repeats_per_step(rates):
    # a schedule of the coin alone is the step: an N-chain run applies
    # it N times, as the oracle of (coin,) * N does
    for n in (1, 2, 3):
        dim = sector_dim(n)
        coin = build_schedule(ExperimentConfig(n_steps=n))[0]
        psi0 = _random_state(np.random.default_rng(8), dim)
        res = evolve_final(psi0, (coin,), rates)
        oracle = dense_expm_evolve(_density(psi0), (coin,) * n, rates)
        assert np.max(np.abs(_rho(res) - oracle)) <= 1e-12, n
        assert res.max_trace_error < 1e-12


def test_hamiltonian_outside_the_sites_is_refused():
    # a term on the vacuum of an offset-0 stack, on the missing c_2 of an
    # offset-1 stack, or a stack at an offset that fits no site layout
    dim = sector_dim(1)
    psi0 = _random_state(np.random.default_rng(2), dim)
    vacuum, beyond = (np.zeros((2, 3, 3), dtype=complex) for _ in range(2))
    vacuum[0, 0, 1] = vacuum[0, 1, 0] = 300.0          # vacuum <-> e_1
    beyond[1, 0, 2] = beyond[1, 2, 0] = 300.0          # e_2 <-> c_2
    store = build_schedule(REF_1)[1]
    for h, offset, match in ((vacuum, 0, "outside the sector's sites"),
                             (beyond, 1, "outside the sector's sites"),
                             (store.hamiltonian, 2, "fits no site layout")):
        schedule = (Segment(h, offset, 4e-3),)
        with pytest.raises(ValueError, match=match):
            evolve_final(psi0, schedule, DISTINCT_RATES)


@pytest.mark.parametrize("rates", [ZERO_RATES, DISTINCT_RATES],
                         ids=["zero rates", "distinct rates"])
def test_vacuum_stays_put(rates):
    # the vacuum has no dynamics: a one-slot light cone meets no site of
    # the coin and store maps, and stays the vacuum through every pulse
    dim = sector_dim(2)
    schedule = build_schedule(REF)
    psi0 = _basis_state(dim, VACUUM)
    for i in range(len(schedule) + 1):
        res = evolve_final(psi0, schedule[:i], rates)
        assert np.array_equal(_rho(res), _density(psi0)), i
        assert res.max_trace_error == 0.0
        assert res.max_hermiticity_drift == 0.0


def test_schedule_of_another_chain_is_refused():
    # an N=2 schedule (three sites per stack) on an N=1 state
    psi0 = _basis_state(6, 1)
    schedule = build_schedule(REF)
    with pytest.raises(ValueError, match="chain of 3 sites cannot walk a"
                                         " state of 2"):
        evolve_final(psi0, schedule, ZERO_RATES)


@pytest.mark.parametrize("rates", [ZERO_RATES, T0_RATES],
                         ids=["zero rates", "t0 rates"])
def test_step_of_a_shorter_chain_is_refused(rates):
    # the N=5 step walked from an N=10 walker would never touch sites 7
    # to 11, and its readout would look like a run with half the
    # walker lost, at a trace error of 4e-15
    step = compile_step(build_schedule(ExperimentConfig(n_steps=5)), rates)
    psi0 = harness.initial_state(10, ExperimentConfig().coin())
    with pytest.raises(ValueError, match="chain of 6 sites cannot walk a"
                                         " state of 11"):
        next(walk_steps(psi0, step))


def test_schedule_of_two_chains_is_refused():
    # the chain is read off the first stack; a stack of another chain
    # after it is refused, not compiled into a map of its own length
    coin = build_schedule(ExperimentConfig(n_steps=2))[0]
    store = build_schedule(ExperimentConfig(n_steps=3))[1]
    with pytest.raises(ValueError, match=r"shape \(4, 3, 3\) does not fit"
                                         " the chain of 3 sites"):
        compile_step((coin, store), DISTINCT_RATES)


@pytest.mark.parametrize("rates", [ZERO_RATES, DISTINCT_RATES],
                         ids=["zero rates", "distinct rates"])
def test_walk_steps_refuses_a_density_matrix(rates):
    # a 6x6 rho0 is of the N=1 sector's dimension, but the walk starts
    # from a vector
    step = compile_step(build_schedule(REF_1), rates)
    rho0 = _density(_basis_state(sector_dim(1), slot(1, F)))
    with pytest.raises(ValueError,
                       match=r"single-excitation sector.*\(3N\+3,\)"):
        next(walk_steps(rho0, step))


@pytest.mark.parametrize("shape", [pytest.param((dim,), id=str(dim))
                                   for dim in (3, 7, 8)]
                         + [pytest.param((6, 6), id="6x6")])
def test_state_outside_the_sector_is_refused(shape):
    # only a vector of length 3N+3 with N >= 1 is a sector state; a
    # density matrix is not, even of a sector's dimension
    dim = shape[0]
    h = np.zeros(((dim + 1) // 3, 3, 3), dtype=complex)
    schedule = (Segment(h, 1, 1e-3),)
    with pytest.raises(ValueError,
                       match=r"single-excitation sector.*\(3N\+3,\)"):
        evolve_final(np.full(shape, dim ** -0.5), schedule, ZERO_RATES)


def test_small_exponentials_reject_non_finite_input():
    with pytest.raises(IntegrationError):
        _expm_small([np.full((1, 2, 2), math.nan), np.eye(2)[None]])
    with pytest.raises(IntegrationError):
        _expm_small([np.eye(2)[None], np.full((1, 2, 2), math.inf)])
    # a finite norm near the float limit needs 1025 squarings
    assert _expm_small([np.array([[[-1e308]]])])[0][0, 0, 0] == 0.0


def test_small_exponentials_match_scipy():
    # sizes repeat; per size, a stack per scale and one of all four
    # share a call: 1-norms from 0 to ~300 need from none to ten
    # squarings, also within one stack
    rng = np.random.default_rng(7)
    for k in (1, 2, 2, 5, 6):
        stacks = [s * (rng.normal(size=(2, k, k))
                       + 1j * rng.normal(size=(2, k, k)))
                  for s in (0.0, 0.01, 1.0, 30.0)]
        stacks.append(np.concatenate(stacks))
        exps = _expm_small(stacks)
        assert [e.shape for e in exps] == [m.shape for m in stacks]
        for got, m in zip(np.concatenate(exps), np.concatenate(stacks)):
            want = expm(m)
            assert (np.max(np.abs(got - want))
                    <= 1e-12 * max(1.0, np.abs(want).max()))


def test_small_exponentials_scale_each_stack_by_its_own_norm():
    # one stack needs no squaring, the other at least ten: exponentiated
    # in one call, each comes out bit for bit as from a call of its own
    rng = np.random.default_rng(1)
    small, large = (s * (rng.normal(size=(3, 10, 10))
                         + 1j * rng.normal(size=(3, 10, 10)))
                    for s in (0.005, 30.0))
    assert np.abs(small).sum(axis=1).max() <= 0.5
    assert np.abs(large).sum(axis=1).max() > 2.0**8    # over 2**9 * 1/2
    together = _expm_small([small, large])
    for got, stack in zip(together, (small, large)):
        (alone,) = _expm_small([stack])
        assert got.tobytes() == alone.tobytes()


def test_fullspace_oracle_matches_dense_expm():
    # the full-space oracle's expm_multiply run, whose embedded jumps are
    # not single transitions, against a dense expm of the same
    # Liouvillian
    full = fullspace.FullSpace(1)
    schedule = fullspace.build_schedule(full, REF_1)
    ops = [op for _, op in fullspace.collapse_operators(
        full, T0_RATES)]
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
    dim = sector_dim(1)
    store = build_schedule(REF_1)[1]
    res = evolve_final(_basis_state(dim, 1), (store,), T0_RATES)
    assert res.max_trace_error < 1e-14
    assert res.max_hermiticity_drift < 1e-14


@pytest.mark.parametrize("rates", [ZERO_RATES, DISTINCT_RATES],
                         ids=["zero rates", "distinct rates"])
def test_readout_carries_its_populations(rates):
    # every readout's populations are, bit for bit, the real diagonal of
    # its density matrix; a noise-free run reads out psi itself, with no
    # drift, and psi psi+ has the exact smallest eigenvalue 0
    dim = sector_dim(3)
    schedule = build_schedule(ExperimentConfig(n_steps=3))
    psi0 = _random_state(np.random.default_rng(4), dim,
                         [slot(1, E), slot(1, F)])
    res, readouts = _run_with_readouts(psi0, schedule, rates, (1, 2))
    for snap in [res] + [snap for _, snap in readouts]:
        assert (snap.populations.tobytes()
                == _rho(snap).diagonal().real.tobytes())
    if rates == ZERO_RATES:
        assert res.state.shape == (dim,)
        assert res.max_hermiticity_drift == 0.0
        assert min_eigenvalue(res.state) == 0.0
        assert abs(np.linalg.eigvalsh(_density(res.state))[0]) < 1e-15
    else:
        assert res.state.shape == (dim, dim)


def test_min_eigenvalue_of_a_state_vector():
    # psi psi+ has rank 1 below its dimension: the smallest eigenvalue is
    # 0.0, or NaN when psi is not finite
    psi = _random_state(np.random.default_rng(2), 6)
    assert min_eigenvalue(psi) == 0.0
    for bad in (math.nan, math.inf):
        psi[3] = bad
        assert math.isnan(min_eigenvalue(psi))


def test_diagnostics_keep_nan():
    dim = sector_dim(1)
    schedule = build_schedule(REF_1)
    psi0 = np.full(dim, np.nan, dtype=complex)
    res = evolve_final(psi0, schedule, ZERO_RATES)
    assert math.isnan(res.max_trace_error)
    assert math.isnan(res.max_hermiticity_drift)


def test_trace_and_hermiticity_tracked():
    dim = sector_dim(2)
    schedule = build_schedule(REF)
    rng = np.random.default_rng(7)
    psi0 = _random_state(rng, dim)
    res = evolve_final(psi0, schedule, ExperimentConfig(scale=0.2).rates())
    assert res.max_trace_error < 1e-10
    assert res.max_hermiticity_drift < 1e-12
    assert abs(np.trace(res.state).real - 1.0) < 1e-10
    assert np.max(np.abs(res.state - res.state.conj().T)) == 0.0
    # positivity certified at -1e-12, the state left as it was
    state = res.state.copy()
    assert min_eigenvalue(res.state) == -POSITIVITY_SHIFT == -1e-12
    assert res.state.tobytes() == state.tobytes()


@pytest.mark.parametrize("dim", [31, 244, 964])
def test_min_eigenvalue_takes_the_hermitian_part(monkeypatch, dim):
    # a matrix that fails the certificate: the Hermitian part eigvalsh
    # gets is, bit for bit, 0.5 (rho + rho+), and the error gives its
    # smallest eigenvalue
    rng = np.random.default_rng(dim)
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    seen = []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda h: seen.append(h.copy()) or np.array([-0.25]))
    with pytest.raises(IntegrationError, match="eigenvalue is -0.25"):
        min_eigenvalue(rho)
    want = 0.5 * (rho + rho.conj().T)
    assert seen[0].tobytes() == want.tobytes()


def test_negative_state_fails_the_certificate():
    # a Hermitian state with smallest eigenvalue -1e-9, below the
    # certified -1e-12: an IntegrationError names eigvalsh's value, and
    # the state comes back bit for bit
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.normal(size=(12, 12))
                        + 1j * rng.normal(size=(12, 12)))
    weights = np.linspace(0.1, 1.0, 11)
    eigenvalues = np.append(-1e-9, (1.0 + 1e-9) * weights / weights.sum())
    rho = (q * eigenvalues) @ q.conj().T           # unit trace
    _symmetrize(rho)
    assert np.linalg.eigvalsh(rho)[0] == pytest.approx(-1e-9, rel=1e-6)
    before = rho.copy()
    with pytest.raises(IntegrationError,
                       match=r"no Cholesky factor.* eigenvalue is -1e-09"):
        min_eigenvalue(rho)
    assert rho.tobytes() == before.tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
def test_symmetrize_is_the_strided_form(order):
    # drift and result, bit for bit, as a - (a - a+) / 2 taken on the
    # strided adjoint; an F-ordered input is no special case
    rng = np.random.default_rng(3)
    rho = rng.normal(size=(244, 244)) + 1j * rng.normal(size=(244, 244))
    a = np.array(rho, order=order)
    skew = rho - rho.conj().T
    assert _symmetrize(a) == np.abs(skew).max()
    assert a.tobytes(order="C") == (rho - 0.5 * skew).tobytes()
    f = np.asfortranarray(rho)
    with pytest.raises(IntegrationError):       # not positive semidefinite
        min_eigenvalue(f)
    assert f.tobytes(order="C") == rho.tobytes()       # left untouched


def test_step_readouts_are_sector_states():
    # each step readout is the leading block of the run's state after
    # that step, the dense oracle's 3-chain state after n steps, which is
    # zero outside that block; the last one is the run without readouts.
    # With zero rates the states are the propagated psi
    dim = sector_dim(3)
    schedule = build_schedule(ExperimentConfig(n_steps=3))
    site_1 = [slot(1, E), slot(1, F)]
    psi0 = _random_state(np.random.default_rng(6), dim, site_1)
    for rates in (ZERO_RATES, DISTINCT_RATES):
        final = evolve_final(psi0, schedule, rates).state
        by_step, readouts = _run_with_readouts(psi0, schedule, rates,
                                               (1, 2, 3))
        assert np.array_equal(by_step.state, final)
        assert np.array_equal(readouts[-1][1].state, final)
        assert [n for n, _ in readouts] == [1, 2, 3]
        oracle = dense_expm_states(_density(psi0), schedule * 3, rates)
        for n, snap in readouts:
            end = sector_dim(n)
            want = oracle[3 * n].copy()
            dev = np.max(np.abs(_rho(snap) - want[:end, :end]))
            assert dev <= 1e-12, (n, rates)
            want[:end, :end] = 0.0
            assert np.max(np.abs(want)) < 1e-12, (n, rates)


def test_step_readout_is_each_shorter_run():
    # reading an 8-step run out after steps 2 and 5 gives, bit for bit,
    # the 2- and 5-step runs on their own sectors from the same site-1
    # state (vacuum amplitude included), diagnostics up to that step,
    # with and without decoherence
    amplitudes = _random_state(np.random.default_rng(5), 3)

    def run(n, rates, steps=()):
        dim = sector_dim(n)
        schedule = build_schedule(ExperimentConfig(n_steps=n))
        site_1 = [VACUUM, slot(1, E), slot(1, F)]
        psi0 = np.zeros(dim, dtype=complex)
        psi0[site_1] = amplitudes
        return _run_with_readouts(psi0, schedule, rates, steps)

    for rates in (ZERO_RATES, DISTINCT_RATES):
        long, readouts = run(8, rates, steps=[8, 5, 2, 5])
        assert [n for n, _ in readouts] == [2, 5, 8]
        for n, snap in readouts:
            alone, _ = run(n, rates)
            assert np.array_equal(snap.state, alone.state)
            assert snap.max_trace_error == alone.max_trace_error
            assert snap.max_hermiticity_drift == alone.max_hermiticity_drift
        assert np.array_equal(long.state, readouts[-1][1].state)


def test_step_readout_refusals():
    dim = sector_dim(3)
    schedule = build_schedule(ExperimentConfig(n_steps=3))
    psi0 = _basis_state(dim, slot(2, E))
    # a walker started on site 2 may be on site 3 after one step, which
    # a one-step chain does not have
    with pytest.raises(ValueError, match="beyond site 2"):
        _run_with_readouts(psi0, schedule, DISTINCT_RATES, (1, 3))


def test_reading_every_step_leaves_the_final_state():
    # the run yields one readout per step; reading the steps on the way
    # leaves the final state as reading the last step alone does
    dim = sector_dim(2)
    schedule = build_schedule(REF)
    psi0 = _basis_state(dim, slot(1, F))
    plain = evolve_final(psi0, schedule, T0_RATES)
    by_step, readouts = _run_with_readouts(psi0, schedule, T0_RATES,
                                           range(1, 3))
    assert [n for n, _ in readouts] == [1, 2]
    assert np.array_equal(by_step.state, plain.state)
    assert len(list(walk_schedule(psi0, schedule, T0_RATES))) == 2


@pytest.mark.parametrize("rates", [ZERO_RATES, DISTINCT_RATES],
                         ids=["zero rates", "distinct rates"])
def test_stale_readout_is_refused(rates):
    # a step's readout holds no state of its own: read after the run has
    # gone on it would hand back a later state, so it is refused, as is
    # a second read of the final step, which gave its state away
    dim = sector_dim(3)
    schedule = build_schedule(ExperimentConfig(n_steps=3))
    psi0 = _basis_state(dim, slot(1, F))
    reads = list(walk_schedule(psi0, schedule, rates))
    for read in reads[:-1]:
        with pytest.raises(ValueError, match="can no longer be read"):
            read()
    reads[-1]()
    with pytest.raises(ValueError, match="can no longer be read"):
        reads[-1]()


def test_unread_steps_are_not_symmetrized(monkeypatch):
    # readouts are lazy: a noisy run whose step readouts are never called
    # copies and symmetrizes only its final state
    calls = []
    symmetrize = lindblad._symmetrize
    monkeypatch.setattr(lindblad, "_symmetrize",
                        lambda a: calls.append(a.shape) or symmetrize(a))
    dim = sector_dim(4)
    schedule = build_schedule(ExperimentConfig(n_steps=4))
    psi0 = _basis_state(dim, slot(1, F))
    evolve_final(psi0, schedule, DISTINCT_RATES)
    assert calls == [(dim, dim)]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.floats(0.2, 5.0))
def test_evolution_preserves_trace_property(seed, scale):
    dim = sector_dim(1)
    rates = ExperimentConfig(scale=scale).rates()
    rng = np.random.default_rng(seed)
    psi0 = _random_state(rng, dim)
    coin = build_schedule(REF_1)[0]
    longer = Segment(coin.hamiltonian, coin.offset, 2e-3)
    res = evolve_final(psi0, (longer,), rates)
    assert res.max_trace_error < 1e-10
    assert np.trace(res.state).real == pytest.approx(1.0, abs=1e-10)
