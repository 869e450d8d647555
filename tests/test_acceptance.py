"""End-to-end acceptance suite.

Eight numbered criteria cover decoherence-free exactness, the full
tensor-product truncation oracle, the published similarity benchmarks,
drive insensitivity, the exact-walk oracle, propagator invariants, and
ordering properties: similarity falls as the walk grows, rises with the
coupling strength, and is lowest for the coin whose branch carries more
of the noise (coin 0 stays on f, coin 1 hops through e and the cavity),
checked with each branch's channels switched on alone.  Each test prints
a single

    ACCEPTANCE <n>: PASS|FAIL -- <detail>

line (run pytest with -rA to see the lines for passing tests) and then
asserts, so a failing benchmark is reported with its measured values.
"""

import math
import time

import fullspace
import numpy as np
import pytest
from conftest import (brute_force_walk, dense_expm_evolve, dense_hamiltonian,
                      dense_operators, evolve_final, zero_noise_config)
from fullspace import E, F, liouvillian_matrix, sector_dim, slot
from scipy.sparse.linalg import expm_multiply

from cqwalk import ExperimentConfig, SweepSpec, run_experiment, run_sweep
from cqwalk.harness import Report, initial_state
from cqwalk.idealwalk import coin_preset, run_ideal
from cqwalk.protocol import build_schedule

COINS = ("zero", "one", "plus-i")

# every run from criteria 1-5 lands here for the criterion-7 invariant sweep
_RUN_LOG: list[tuple[str, Report]] = []


def _check(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared runs


@pytest.fixture(scope="module")
def zero_noise_runs():
    start = time.perf_counter()
    reports = {}
    for n in range(1, 6):
        for coin in COINS:
            rep = run_experiment(zero_noise_config(n_steps=n, coin0=coin))
            reports[(n, coin)] = rep
            _RUN_LOG.append((f"c1[n={n},{coin}]", rep))
    return reports, time.perf_counter() - start


@pytest.fixture(scope="module")
def truncation_check():
    # the same experiment in the sector and in the full tensor space
    cfg = ExperimentConfig(n_steps=2)
    start = time.perf_counter()
    truncated = run_experiment(cfg)
    full = fullspace.run_experiment(cfg)
    elapsed = time.perf_counter() - start
    _RUN_LOG.append(("c2[truncated]", truncated))
    _RUN_LOG.append(("c2[full]", full))
    return float(np.max(np.abs(truncated.p_me - full.p_me))), elapsed


@pytest.fixture(scope="module")
def n10_coin_runs():
    start = time.perf_counter()
    reports = {}
    for coin in COINS:
        rep = run_experiment(ExperimentConfig(n_steps=10, coin0=coin))
        reports[coin] = rep
        _RUN_LOG.append((f"c3[{coin}]", rep))
    return reports, time.perf_counter() - start


@pytest.fixture(scope="module")
def n20_runs():
    start = time.perf_counter()
    reports = {}
    for scale in (5.0, 1.0, 0.2):
        rep = run_experiment(ExperimentConfig(n_steps=20, scale=scale))
        reports[scale] = rep
        _RUN_LOG.append((f"c4[scale={scale}]", rep))
    return reports, time.perf_counter() - start


@pytest.fixture(scope="module")
def omega_runs(n10_coin_runs):
    reports = {100.0: n10_coin_runs[0]["plus-i"]}
    for omega in (50.0, 150.0):
        rep = run_experiment(ExperimentConfig(n_steps=10,
                                              omega_over_2pi_mhz=omega))
        reports[omega] = rep
        _RUN_LOG.append((f"c5[omega={omega}]", rep))
    return reports


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_decoherence_free_exactness(zero_noise_runs):
    reports, elapsed = zero_noise_runs
    worst = max(abs(rep.s - 1.0) for rep in reports.values())
    ok = worst <= 1e-6 and elapsed < 1.0
    _check(1, ok, f"15 closed runs: max|S-1| = {worst:.2e} (tol 1e-6), "
                  f"runtime {elapsed:.3f} s (budget 1 s)")


def test_criterion_2_truncation_oracle(truncation_check):
    dev, elapsed = truncation_check
    ok = dev <= 1e-6 and elapsed < 30.0
    _check(2, ok, f"N=2 baseline noise: max per-site deviation vs full "
                  f"tensor space = {dev:.2e} (tol 1e-6), runtime "
                  f"{elapsed:.1f} s (budget 30 s)")


def test_criterion_3_ten_step_similarity(n10_coin_runs):
    reports, elapsed = n10_coin_runs
    detail = ", ".join(f"S({coin}) = {reports[coin].s:.4f}"
                       for coin in COINS)
    ok = all(reports[coin].s > 0.97 for coin in COINS) and elapsed < 60.0
    _check(3, ok, f"N=10 baseline noise: {detail} (all > 0.97), runtime "
                  f"{elapsed:.1f} s (budget 60 s)")


def test_criterion_4_twenty_step_benchmarks(n20_runs):
    reports, elapsed = n20_runs
    anchors = ((5.0, 0.993), (1.0, 0.968), (0.2, 0.852))
    parts = []
    ok = elapsed < 300.0
    for scale, ref in anchors:
        rep = reports[scale]
        hit = abs(rep.s - ref) <= 0.015
        ok = ok and hit
        parts.append(f"scale {scale}: S = {rep.s:.4f} vs {ref} "
                     f"({'ok' if hit else 'OUTSIDE +/-0.015'}; "
                     f"S_renorm = {rep.s_renorm:.4f})")
    _check(4, ok, "N=20: " + "; ".join(parts)
                  + f"; runtime {elapsed:.1f} s (budget 300 s)")


def test_criterion_4_rows_match_the_sparse_liouvillian(n20_runs):
    # criterion 4's three rows against an oracle that shares only the
    # schedule's site blocks (build_schedule) and the rates
    # (ExperimentConfig.rates) with the run: no site maps, block
    # exponentials, composed coin and store, light cone or readout of
    # the production path.  Each segment's dense sector H and channel
    # list (conftest, by index) form the sparse Liouvillian
    # (fullspace), scipy's expm_multiply carries vec(rho) through all
    # 60 segments, and P_me and S are read off here against the brute-
    # force walk.
    reports, _ = n20_runs
    n = 20
    dim = sector_dim(n)
    for scale, rep in reports.items():
        cfg = ExperimentConfig(n_steps=n, scale=scale)
        coin = cfg.coin()
        ops = dense_operators(cfg.rates(), dim)
        generators = [seg.duration * liouvillian_matrix(
            dense_hamiltonian(seg), ops) for seg in build_schedule(cfg)]
        psi0 = np.zeros(dim, dtype=complex)
        psi0[slot(1, F)], psi0[slot(1, E)] = coin.c0, coin.c1
        vec = np.outer(psi0, psi0.conj()).reshape(-1)
        for generator in generators * n:
            vec = expm_multiply(generator, vec)
        populations = vec.reshape(dim, dim).diagonal().real
        p_me = np.array([populations[slot(j, E)] + populations[slot(j, F)]
                         for j in range(1, n + 2)])
        p_id = brute_force_walk(n, cfg.theta_rad, coin)
        s = float(np.sum(np.sqrt(np.clip(p_me, 0.0, None) * p_id)) ** 2)
        assert np.max(np.abs(rep.p_me - p_me)) <= 1e-12, scale
        assert abs(rep.s - s) <= 1e-12, scale


def test_criterion_5_drive_insensitivity(omega_runs):
    svals = {omega: rep.s for omega, rep in omega_runs.items()}
    spread = max(svals.values()) - min(svals.values())
    detail = ", ".join(f"S(Omega/2pi = {omega:.0f} MHz) = {s:.4f}"
                       for omega, s in sorted(svals.items()))
    _check(5, spread < 0.01,
           f"{detail}; spread = {spread:.4f} (tol 0.01)")


def test_criterion_6_ideal_oracle():
    got = run_ideal(2, math.pi / 4, coin_preset("one"))
    dev2 = float(np.max(np.abs(got - np.array([0.25, 0.5, 0.25]))))
    # cross-check the fast amplitude implementation against a dense
    # 21-site one-shot matrix product
    coin = coin_preset("plus-i")
    dev20 = float(np.max(np.abs(run_ideal(20, math.pi / 4, coin)
                                - brute_force_walk(20, math.pi / 4, coin))))
    ok = dev2 <= 1e-12 and dev20 <= 1e-12
    _check(6, ok, f"run_ideal(2, pi/4, one) vs (0.25, 0.5, 0.25): "
                  f"max dev {dev2:.1e}; 20-step dense brute force: "
                  f"max dev {dev20:.1e} (tol 1e-12)")


def test_criterion_7_invariant_suite(zero_noise_runs, truncation_check,
                                     n10_coin_runs, n20_runs, omega_runs):
    worst_trace = max(rep.trace_error for _, rep in _RUN_LOG)
    worst_herm = max(rep.max_hermiticity_drift for _, rep in _RUN_LOG)
    # backend agreement at N=5, baseline noise
    cfg = ExperimentConfig(n_steps=5)
    schedule = build_schedule(cfg)
    psi0 = initial_state(cfg.n_steps, cfg.coin())
    rho_block = evolve_final(psi0, schedule, cfg.rates()).state
    rho_dense = dense_expm_evolve(np.outer(psi0, psi0.conj()), schedule * 5,
                                  cfg.rates())
    backend_dev = float(np.max(np.abs(rho_block - rho_dense)))
    ok = (worst_trace <= 1e-8 and worst_herm <= 1e-10
          and backend_dev <= 1e-7)
    _check(7, ok, f"{len(_RUN_LOG)} logged runs: max trace error "
                  f"{worst_trace:.2e} (tol 1e-8), max hermiticity drift "
                  f"{worst_herm:.2e} (tol 1e-10); block vs dense expm at "
                  f"N=5: max elementwise dev {backend_dev:.2e} (tol 1e-7)")


def test_criterion_8_monotonicity(n10_coin_runs, n20_runs):
    # similarity falls as the walk grows; one sweep reads the shorter
    # walks out of a single N=14 run
    sweep = run_sweep(ExperimentConfig(),
                      SweepSpec(axis="n_steps", values=(1, 2, 3, 4, 6, 8, 14)))
    s_by_n = {rep.n_steps: rep.s for rep in sweep}
    s_by_n[10] = n10_coin_runs[0]["plus-i"].s
    s_by_n[20] = n20_runs[0][1.0].s
    ns = sorted(s_by_n)
    drops = all(s_by_n[b] <= s_by_n[a] + 1e-3
                for a, b in zip(ns, ns[1:]))
    # stronger coupling shortens the step and helps
    s_g20 = run_experiment(ExperimentConfig(n_steps=10,
                                            g_over_2pi_mhz=20.0)).s
    s_g50 = n10_coin_runs[0]["plus-i"].s
    # the coin whose branch carries more of the noise is the most fragile:
    # coin 0 (zero) stays on f, coin 1 (one) hops e -> cavity -> e.  Each
    # branch's channels are switched on alone, at their baseline lifetimes.
    # At the baseline itself the hop branch carries more: both branches
    # lose the walker to the vacuum at 1/(10 us), and e dephasing leaves
    # part of every swap behind as a stranded photon, which outweighs f->e
    # relaxation.  So `one`, not `zero`, is lowest there; printed only.
    baseline = ExperimentConfig()
    coin_parts = []
    coin_min = True
    for label, fragile, channels in (
            ("f-level channels", "zero",
             ("t1_ef_us", "t1_gf_us", "tphi_f_us")),
            ("hop-path channels", "one",
             ("t1_cavity_us", "t1_ge_us", "tphi_e_us"))):
        lifetimes = {ch: getattr(baseline, ch) for ch in channels}
        s = {coin: run_experiment(zero_noise_config(
                 n_steps=10, coin0=coin, **lifetimes)).s for coin in COINS}
        hit = s[fragile] <= min(s.values()) + 1e-12
        coin_min = coin_min and hit
        runner_up = min((c for c in COINS if c != fragile), key=s.get)
        coin_parts.append(f"{label} only: S({fragile}) = {s[fragile]:.5f}, "
                          f"gap {s[runner_up] - s[fragile]:.2e} to "
                          f"{runner_up}, minimal: {hit}")
    s_coins = {coin: rep.s for coin, rep in n10_coin_runs[0].items()}
    ok = drops and (s_g50 > s_g20) and coin_min
    seq = ", ".join(f"S({n}) = {s_by_n[n]:.4f}" for n in ns)
    _check(8, ok, f"{seq}; non-increasing within 1e-3: {drops}; "
                  f"S(g = 50 MHz) = {s_g50:.4f} > S(g = 20 MHz) = "
                  f"{s_g20:.4f}: {s_g50 > s_g20}; "
                  + "; ".join(coin_parts)
                  + "; baseline coins: "
                  f"zero = {s_coins['zero']:.5f}, one = "
                  f"{s_coins['one']:.5f}, plus-i = {s_coins['plus-i']:.5f}")
