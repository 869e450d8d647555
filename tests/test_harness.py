import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import fullspace
import numpy as np
import pytest
from conftest import dense_hamiltonian, zero_noise_config
from fullspace import E, F, sector_dim, slot

import cqwalk
from cqwalk import config, harness, lindblad
from cqwalk.config import ConfigError, ExperimentConfig
from cqwalk.harness import (REPORT_COLUMNS, SWEEP_AXES, Report, SweepSpec,
                            emit_distribution, emit_plot_script, emit_report,
                            initial_state, report_to_json_obj,
                            run_experiment, run_sweep, sweep_grid)
from cqwalk.idealwalk import coin_preset, run_ideal
from cqwalk.lindblad import IntegrationError, walk_steps
from cqwalk.protocol import build_schedule


def test_initial_state_puts_the_coin_on_site_1():
    # psi0 psi0+ of the walker's state vector
    dim = sector_dim(2)
    coin = coin_preset("plus-i")
    psi = initial_state(2, coin)
    assert psi.shape == (dim,)
    rho = np.outer(psi, psi.conj())
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.trace(rho @ rho).real == pytest.approx(1.0)  # pure
    e, f = slot(1, E), slot(1, F)
    assert rho[f, f] == pytest.approx(0.5)
    assert rho[e, e] == pytest.approx(0.5)
    assert rho[f, e] == pytest.approx(-0.5j)  # c0 * conj(c1)


def test_initial_state_embeds_as_the_full_space_rho0():
    # the sector's psi0 psi0+, embedded, is the full-space oracle's rho0
    full = fullspace.FullSpace(1)
    v = fullspace.embedding_matrix(full)
    for name in ("zero", "one", "plus-i"):
        coin = coin_preset(name)
        psi = initial_state(1, coin)
        assert np.array_equal(v @ np.outer(psi, psi.conj()) @ v.T,
                              fullspace.initial_density_matrix(full, coin))


def test_zero_noise_run_matches_ideal_oracle():
    for n in (4, 80):
        cfg = zero_noise_config(n_steps=n)
        rep = run_experiment(cfg)
        p_id = run_ideal(n, cfg.theta_rad, coin_preset(cfg.coin0))
        assert np.max(np.abs(rep.p_me - p_id)) < 1e-8, n
        assert rep.s == pytest.approx(1.0, abs=1e-9)
        assert rep.residual_vacuum == pytest.approx(0.0, abs=1e-10)
        assert rep.residual_cavity == pytest.approx(0.0, abs=1e-10)


def _first_order_vacuum(cfg: ExperimentConfig) -> float:
    """The limit of scale * residual_vacuum of cfg's walk as scale grows:
    the outflow into the vacuum, sum_b sink_b |psi_b(t)|^2 at the rates
    of scale 1, integrated along the noise-free trajectory psi(t).

    psi(t) is propagated by eigh of each segment's dense Hamiltonian and
    integrated by 12-node Gauss-Legendre per segment, so no code of the
    compiled site maps takes part."""
    rates = replace(cfg, scale=1.0).rates()
    sink = np.zeros(sector_dim(cfg.n_steps))
    sink[1::3], sink[2::3] = rates.gamma_ge, rates.gamma_gf   # e_j, f_j
    sink[3::3] = rates.kappa                                   # c_1..c_N
    nodes, weights = np.polynomial.legendre.leggauss(12)
    step = [(*np.linalg.eigh(dense_hamiltonian(seg)), seg.duration)
            for seg in build_schedule(cfg)]
    psi = initial_state(cfg.n_steps, cfg.coin())
    delta = 0.0
    for _ in range(cfg.n_steps):
        for w, v, t in step:
            c = v.conj().T @ psi
            at_nodes = v @ (np.exp(-0.5j * t * np.outer(w, nodes + 1))
                            * c[:, None])
            delta += t / 2 * sink @ np.abs(at_nodes) ** 2 @ weights
            psi = v @ (np.exp(-1j * t * w) * c)
    return delta


@pytest.mark.parametrize("n", [20, 80])
def test_noisy_run_tends_to_first_order_theory(n):
    # at lifetime scale s the rates are O(1/s), so s residual_vacuum
    # tends to the first-order vacuum with a gap of order 1/s; the
    # lifetimes differ, since equal sinks would make the first-order
    # vacuum rate x time whatever the walk does
    cfg = ExperimentConfig(n_steps=n, t1_cavity_us=10.0, t1_ge_us=33.0,
                           t1_gf_us=7.0, t1_ef_us=50.0, tphi_e_us=5.0,
                           tphi_f_us=8.0)
    delta = _first_order_vacuum(cfg)
    gaps = [abs(s * run_experiment(replace(cfg, scale=s)).residual_vacuum
                - delta) / delta for s in (100.0, 1e4)]
    assert gaps[0] < 1e-3 and gaps[1] < 1e-5, gaps
    assert 50 < gaps[0] / gaps[1] < 200, gaps


def test_noise_decides_the_propagation_path(monkeypatch):
    # a noise-free run propagates psi0 as one column and never applies
    # the site maps to rho; a noisy one never propagates a column
    def refuse(*args):
        raise AssertionError("wrong propagation path")

    apply_rows = lindblad._SiteMaps.apply_rows

    def rows_of_rho(self, y, size, conj=False):
        if y.shape[1] == 1:
            refuse()
        return apply_rows(self, y, size, conj)

    with monkeypatch.context() as patch:
        patch.setattr(lindblad._SiteMaps, "apply", refuse)
        rep = run_experiment(zero_noise_config(n_steps=20))
        assert rep.s == pytest.approx(1.0, abs=1e-9)
        spec = SweepSpec(axis="n_steps", values=(1, 4, 7))
        rows = run_sweep(zero_noise_config(), spec)
        assert [r.error for r in rows] == [None] * 3
    monkeypatch.setattr(lindblad._SiteMaps, "apply_rows", rows_of_rho)
    assert run_experiment(ExperimentConfig(n_steps=20)).error is None
    rows = run_sweep(ExperimentConfig(), spec)
    assert [r.error for r in rows] == [None] * 3


def test_noisy_run_reports_positive_final_state():
    rep = run_experiment(ExperimentConfig(n_steps=5, scale=0.2))
    assert rep.min_eigenvalue >= -1e-12
    assert report_to_json_obj(rep)["min_eigenvalue"] == rep.min_eigenvalue
    assert "min_eigenvalue" not in REPORT_COLUMNS      # CSV stays pinned


def test_trace_error_above_bound_is_a_numerical_failure():
    # a 1e-14 us lifetime makes the segment maps so stiff that the state
    # stays finite but its trace is off by ~1e-5
    with pytest.raises(IntegrationError, match="trace error"):
        run_experiment(ExperimentConfig(n_steps=1, t1_ge_us=1e-14))


def test_single_point_sweep_equals_run_experiment():
    cfg = zero_noise_config(n_steps=2)
    spec = SweepSpec(axis="g", values=(50.0,))
    reports = run_sweep(cfg, spec)
    direct = run_experiment(cfg)
    assert len(reports) == 1
    assert reports[0].s == pytest.approx(direct.s, abs=1e-12)
    assert reports[0].error is None


def test_sweep_grid_order_primary_major():
    cfg = ExperimentConfig()
    spec = SweepSpec(axis="n_steps", values=(1, 2),
                     cross_axis="scale", cross_values=(5.0, 1.0))
    grid = sweep_grid(cfg, spec)
    assert [(c.n_steps, c.scale) for c in grid] == \
        [(1, 5.0), (1, 1.0), (2, 5.0), (2, 1.0)]


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        SweepSpec(axis="voltage", values=(1.0,))
    with pytest.raises(ConfigError):
        SweepSpec(axis="g", values=())
    with pytest.raises(ConfigError):
        SweepSpec(axis="g", values=(0.0,))
    with pytest.raises(ConfigError):
        SweepSpec(axis="g", values=(1.0,), cross_axis="g",
                  cross_values=(1.0,))
    with pytest.raises(ConfigError):
        SweepSpec(axis="g", values=(1.0,), cross_values=(2.0,))


def test_sweep_records_failures_per_row():
    # a 1e-300 us lifetime makes the segment maps so stiff that the trace
    # error is far above its bound
    cfg = ExperimentConfig(n_steps=1, t1_ge_us=1e-300)
    reports = run_sweep(cfg, SweepSpec(axis="scale", values=(1.0, 0.5)))
    assert len(reports) == 2
    for rep in reports:
        assert rep.error is not None and "IntegrationError" in rep.error
        assert math.isnan(rep.s)
        assert rep.scale in (1.0, 0.5)   # config still echoed


def _bits(value):
    """A Report field in a form where equal means bit-identical."""
    if isinstance(value, (float, np.ndarray)):
        return np.asarray(value, dtype=float).tobytes()
    return value


def _assert_rows_are_separate_runs(rows, grid):
    names = [f.name for f in fields(Report) if f.name != "wall_ms"]
    assert len(rows) == len(grid)
    for row, cfg in zip(rows, grid):
        alone = run_experiment(cfg)
        assert row.error is None and row.wall_ms > 0
        assert [_bits(getattr(row, n)) for n in names] == \
            [_bits(getattr(alone, n)) for n in names], cfg


@pytest.mark.parametrize("scale", [0.2, 1.0, pytest.param(None,
                                                          id="noise-free")])
@pytest.mark.parametrize("coin", ["zero", "one", "plus-i"])
def test_n_steps_sweep_rows_equal_separate_runs(coin, scale):
    base = (zero_noise_config(coin0=coin) if scale is None
            else ExperimentConfig(coin0=coin, scale=scale))
    spec = SweepSpec(axis="n_steps", values=tuple(range(1, 9)))
    _assert_rows_are_separate_runs(run_sweep(base, spec),
                                   sweep_grid(base, spec))


@pytest.mark.parametrize("spec", [
    SweepSpec(axis="n_steps", values=(1, 2, 4), cross_axis="scale",
              cross_values=(5.0, 0.2)),
    SweepSpec(axis="scale", values=(1.0, 0.2), cross_axis="n_steps",
              cross_values=(3, 1, 5)),
    SweepSpec(axis="n_steps", values=(8, 3, 3, 1)),
], ids=["n_steps x scale", "scale x n_steps", "unsorted with duplicate"])
def test_cross_and_unsorted_sweeps_equal_separate_runs(spec):
    base = ExperimentConfig()
    grid = sweep_grid(base, spec)
    rows = run_sweep(base, spec)
    assert [(r.n_steps, r.scale) for r in rows] == \
        [(c.n_steps, c.scale) for c in grid]          # grid order, both 3s
    _assert_rows_are_separate_runs(rows, grid)


def test_sweep_propagates_once_per_group(monkeypatch):
    calls = []

    def counting(psi0, step_maps):
        calls.append(len(psi0) // 3 - 1)
        return walk_steps(psi0, step_maps)

    monkeypatch.setattr(harness, "walk_steps", counting)
    spec = SweepSpec(axis="n_steps", values=(2, 6, 1, 4),
                     cross_axis="scale", cross_values=(5.0, 1.0, 0.2))
    rows = run_sweep(ExperimentConfig(), spec)
    assert len(rows) == 12 and all(r.error is None for r in rows)
    assert calls == [6, 6, 6]                  # one N=6 run per scale


def _count_compiles(monkeypatch) -> list:
    """The stack counts of every _expm_small pass from here on."""
    calls = []
    expm_small = lindblad._expm_small
    monkeypatch.setattr(lindblad, "_expm_small", lambda stacks: calls.append(
        len(stacks)) or expm_small(stacks))
    return calls


def _all_but_wall_ms(rep: Report) -> dict:
    """rep's fields but wall_ms, arrays by their bytes, others by repr."""
    return {f.name: (value.tobytes() if isinstance(value, np.ndarray)
                     else repr(value))
            for f in fields(Report) if f.name != "wall_ms"
            for value in [getattr(rep, f.name)]}


def test_sweep_compiles_once_per_group(monkeypatch):
    # each run, and each sweep group, exponentiates its step's site
    # generators in one _expm_small pass
    calls = _count_compiles(monkeypatch)
    run_experiment(ExperimentConfig())
    run_experiment(zero_noise_config())
    assert calls == [3, 3]                     # one stack per segment
    calls.clear()
    spec = SweepSpec(axis="n_steps", values=(2, 6, 1, 4),
                     cross_axis="scale", cross_values=(5.0, 0.2))
    rows = run_sweep(ExperimentConfig(), spec)
    assert len(rows) == 8 and all(r.error is None for r in rows)
    assert calls == [3, 3]


def test_a_device_point_compiles_once(monkeypatch):
    # a run at the device point of the run before, whatever its coin,
    # compiles nothing, and reports bit for bit what a compile of its
    # own gives
    calls = _count_compiles(monkeypatch)
    cfg = ExperimentConfig()
    first = run_experiment(cfg)
    again = run_experiment(cfg)
    other_coin = run_experiment(replace(cfg, coin0="zero"))
    assert calls == [3]
    harness._compiled_step.cache_clear()
    compiled = run_experiment(replace(cfg, coin0="zero"))
    assert calls == [3, 3]
    assert _all_but_wall_ms(again) == _all_but_wall_ms(first)
    assert _all_but_wall_ms(other_coin) == _all_but_wall_ms(compiled)


def test_every_field_the_step_reads_recompiles(monkeypatch):
    # a new value of any field but the coin and the output settings is
    # a new walk step; mu = auto is mu = g, the same step
    calls = _count_compiles(monkeypatch)
    base = ExperimentConfig()
    run_experiment(base)
    run_experiment(replace(base, mu_over_2pi_mhz=base.g_over_2pi_mhz))
    assert calls == [3]
    for f in fields(ExperimentConfig):
        if f.name in ("coin0", "output", "format"):
            continue
        value = getattr(base, f.name)
        value = (2 * base.g_over_2pi_mhz if value is None
                 else value + 1 if isinstance(value, int) else 1.25 * value)
        calls.clear()
        run_experiment(replace(base, **{f.name: value}))
        run_experiment(base)
        assert calls == [3, 3], f.name


def test_configs_of_one_device_point_share_its_step(monkeypatch):
    # the step is built from the device point, which spells each value
    # one way: phi = -0.0 as 0.0 and an integer g as a float, so a kept
    # step is bit for bit the step a compile of either config gives
    calls = _count_compiles(monkeypatch)
    base = ExperimentConfig(phi_rad=0.0)
    variants = [replace(base, phi_rad=-0.0),
                replace(base, g_over_2pi_mhz=50, coin0="one")]
    for cfg in (base, *variants):
        run_experiment(cfg)
    assert calls == [3]
    for cfg in variants:
        assert (repr(harness._device_point(cfg))
                == repr(harness._device_point(base)))


def test_sweep_walks_the_ideal_walk_once_per_group(monkeypatch):
    # each group's rows take P_id from one ideal walk of its largest
    # n_steps, not one walk per row
    walks = []
    walk = harness.walk

    def counting(n_steps, theta, coin):
        walks.append(n_steps)
        return walk(n_steps, theta, coin)

    monkeypatch.setattr(harness, "walk", counting)
    spec = SweepSpec(axis="n_steps", values=(2, 6, 1, 4),
                     cross_axis="scale", cross_values=(5.0, 0.2))
    rows = run_sweep(ExperimentConfig(), spec)
    assert len(rows) == 8 and all(r.error is None for r in rows)
    assert walks == [6, 6]                  # one N=6 walk per scale


def test_noise_free_readouts_form_no_spectrum(monkeypatch):
    # a pure state's diagnostics come from psi: no readout of a
    # noise-free run or sweep calls eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", pytest.fail)
    rows = run_sweep(zero_noise_config(),
                     SweepSpec(axis="n_steps", values=(3, 1, 2)))
    for row in rows:
        assert row.error is None and row.s == pytest.approx(1.0)
        assert row.min_eigenvalue == 0.0
        assert row.max_hermiticity_drift == 0.0


def test_noisy_readouts_certify_positivity_without_a_spectrum(monkeypatch):
    # a passing certificate needs no eigvalsh, in a run or a sweep; every
    # noisy row reports the certified bound -1e-12
    monkeypatch.setattr(np.linalg, "eigvalsh", pytest.fail)
    rows = [run_experiment(ExperimentConfig(n_steps=5, scale=0.2)),
            *run_sweep(ExperimentConfig(scale=0.2),
                       SweepSpec(axis="n_steps", values=(3, 1, 2)))]
    for row in rows:
        assert row.error is None
        assert row.min_eigenvalue == -lindblad.POSITIVITY_SHIFT == -1e-12


def test_sweep_checks_each_row_up_to_its_step(monkeypatch):
    # the trace-error bound applies to each row's worst value up to its
    # own step: with the bound between two of those, the shorter rows
    # pass and the longer ones fail, as their separate runs do
    base = ExperimentConfig(scale=0.2)
    spec = SweepSpec(axis="n_steps", values=tuple(range(1, 9)))
    errors = sorted({run_experiment(cfg).trace_error
                     for cfg in sweep_grid(base, spec)})
    assert len(errors) > 1
    monkeypatch.setattr(harness, "TRACE_ERROR_BOUND", errors[0])
    rows = run_sweep(base, spec)
    failed = []
    for row, cfg in zip(rows, sweep_grid(base, spec)):
        try:
            alone = run_experiment(cfg)
        except IntegrationError as exc:
            assert row.error == f"IntegrationError: {exc}"
            assert math.isnan(row.s) and math.isnan(row.wall_ms)
            failed.append(cfg.n_steps)
        else:
            assert row.error is None and row.s == alone.s
    assert 0 < len(failed) < len(rows)
    assert failed == list(range(failed[0], 9))      # the longer ones


@pytest.mark.parametrize("overrides", [
    # pulse duration times rate overflows: the group's one run fails
    {"omega_over_2pi_mhz": 1e-300, "t1_ge_us": 1e-10},
    # finite but so stiff that each row's own trace error is too large
    {"t1_ge_us": 1e-300},
], ids=["generator overflow", "trace error"])
def test_sweep_failures_give_one_error_row_per_point(overrides):
    cfg = ExperimentConfig(**overrides)
    rows = run_sweep(cfg, SweepSpec(axis="n_steps", values=(3, 1, 2)))
    assert [r.n_steps for r in rows] == [3, 1, 2]
    for row in rows:
        with pytest.raises(IntegrationError) as alone:
            run_experiment(replace(cfg, n_steps=row.n_steps))
        assert row.error == f"IntegrationError: {alone.value}"
        assert math.isnan(row.s)


def test_group_failure_keeps_rows_already_written(monkeypatch):
    # rows scored before the group's run fails keep their results; only
    # the rows not yet written become error rows
    def failing_at_the_end(psi0, step_maps):
        n_steps = len(psi0) // 3 - 1
        steps = walk_steps(psi0, step_maps)
        yield from itertools.islice(steps, n_steps - 1)
        raise IntegrationError("failed after the last step readout")

    monkeypatch.setattr(harness, "walk_steps", failing_at_the_end)
    rows = run_sweep(ExperimentConfig(),
                     SweepSpec(axis="n_steps", values=(3, 1, 2)))
    assert [r.error for r in rows] == [
        "IntegrationError: failed after the last step readout", None, None]
    monkeypatch.undo()
    for row in rows[1:]:
        assert row.s == run_experiment(ExperimentConfig(n_steps=row.n_steps)).s


def test_long_noisy_run_keeps_hermiticity():
    # diagnostics are taken only at readouts, and rho is re-symmetrized
    # only there: hundreds of segments must not build up drift
    rep = run_experiment(ExperimentConfig(n_steps=160))
    assert rep.max_hermiticity_drift < 1e-14
    assert rep.trace_error < 1e-12


def test_noisy_run_builds_no_dense_initial_state():
    # the run writes psi0 psi0+ straight into its state's light-cone
    # block, so no dense rho0 is alive beside it, and lets the state go
    # before its final readout is scored: a noisy N=160 run peaks below
    # 2.85 dense (3N+4)^2 states (about 2.5; 3.8 with a dense rho0, 3.0
    # with the state kept through scoring)
    n = 160
    tracemalloc.start()
    try:
        rep = run_experiment(ExperimentConfig(n_steps=n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.error is None
    assert peak < 2.85 * 16 * (3 * n + 4) ** 2


def test_noise_free_run_forms_no_dense_state():
    # a noise-free run propagates and reads out psi, so an N=320 run
    # peaks far below one dense (3N+4)^2 state (about 0.06 of one; 2.5
    # with psi psi+ formed at the readout)
    n = 320
    tracemalloc.start()
    try:
        rep = run_experiment(zero_noise_config(n_steps=n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.error is None and rep.s == pytest.approx(1.0)
    assert peak < 0.5 * 16 * (3 * n + 4) ** 2


def test_sweep_group_holds_one_state_at_a_time():
    # a group scores each step's readout and drops it before it
    # propagates further, so an n_steps 1..40 sweep peaks below 4.8 dense
    # (3N+4)^2 states (about 4.3; 5.2 with a readout kept), within the
    # memory bound that check_memory assumes for one N=40 run
    spec = SweepSpec(axis="n_steps", values=tuple(range(1, 41)))
    tracemalloc.start()
    try:
        rows = run_sweep(ExperimentConfig(), spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.error is None for r in rows)
    assert peak < 4.8 * 16 * (3 * 40 + 4) ** 2
    assert 4.8 <= config._STATE_COPIES


def test_validate_truncation_zero_noise_exact():
    cfg = zero_noise_config(n_steps=1, coin0="one")
    sector, full = run_experiment(cfg), fullspace.run_experiment(cfg)
    assert np.max(np.abs(sector.p_me - full.p_me)) < 1e-9
    assert abs(sector.s - full.s) < 1e-9


def _tiny_report():
    return run_experiment(zero_noise_config(n_steps=1))


def test_csv_header_and_determinism():
    rep1, rep2 = _tiny_report(), _tiny_report()
    buf1, buf2 = io.StringIO(), io.StringIO()
    emit_report([rep1], buf1, "csv")
    emit_report([rep2], buf2, "csv")
    lines1 = buf1.getvalue().splitlines()
    lines2 = buf2.getvalue().splitlines()
    assert lines1[0] == ",".join(REPORT_COLUMNS)
    assert len(lines1) == 2
    # identical configs -> identical bytes apart from the wall clock
    strip = lambda line: line.rsplit(",", 1)[0]
    assert strip(lines1[1]) == strip(lines2[1])


def test_json_round_trip():
    rep = _tiny_report()
    buf = io.StringIO()
    emit_report([rep], buf, "json")
    loaded = json.loads(buf.getvalue())
    assert loaded == [report_to_json_obj(rep)]
    assert loaded[0]["n_steps"] == 1
    assert len(loaded[0]["P_me"]) == 2
    assert loaded[0]["S"] == rep.s


def test_json_rows_are_written_one_at_a_time_as_one_dump():
    # the rows are written one by one, error rows and all, as the bytes
    # of one json.dump of the whole list
    spec = SweepSpec(axis="scale", values=(1e300, 1.0, 0.5))
    rows = run_sweep(ExperimentConfig(n_steps=2, t1_ge_us=1e-300), spec)
    assert [r.error is None for r in rows] == [True, False, False]
    for reports in (rows[:1], rows[1:2], rows):
        got = io.StringIO()
        emit_report(reports, got, "json")
        want = json.dumps([report_to_json_obj(r) for r in reports], indent=2)
        assert got.getvalue() == want + "\n"


class _Sink:
    """A text file that keeps nothing of what is written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


def test_json_emit_holds_one_row_at_a_time():
    # one row's dict and text at a time: 2000 rows at n_steps 40 peak
    # at about 7 kB under json.dump (about 150 kB when each row went
    # through its own json.dumps, 6.8 MB when every row's dict was built
    # before the first was written)
    rng = np.random.default_rng(7)
    base = _tiny_report()
    reports = [replace(base, n_steps=40, p_me=rng.random(41),
                       p_id=rng.random(41)) for _ in range(2000)]
    sink = _Sink()
    tracemalloc.start()
    try:
        emit_report(reports, sink, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars > 2000 * 2000
    assert peak < 64 * 1024


@pytest.mark.parametrize("numbers", [{"n_steps": np.int64(3)},
                                     {"g_over_2pi_mhz": np.float32(50.0)}],
                         ids=["int64 n_steps", "float32 g"])
@pytest.mark.parametrize("reports", [
    lambda cfg: [run_experiment(cfg)],
    lambda cfg: run_sweep(cfg, SweepSpec("scale", (1.0, 0.5)))],
    ids=["run_experiment", "run_sweep"])
def test_numpy_numbers_are_reported_as_their_fields_type(numbers, reports):
    # a row echoes each number as its field's type, so a config given
    # numpy numbers writes the JSON and CSV of its Python-number twin
    base = ExperimentConfig(n_steps=3)
    twin = {name: config.field_type(name)(v) for name, v in numbers.items()}
    for fmt in ("json", "csv"):
        got, want = io.StringIO(), io.StringIO()
        emit_report(reports(replace(base, **numbers)), got, fmt)
        emit_report(reports(replace(base, **twin)), want, fmt)
        if fmt == "json":
            rows = [json.loads(buf.getvalue()) for buf in (got, want)]
            for row in itertools.chain(*rows):
                del row["wall_ms"]
        else:
            rows = [[line.rsplit(",", 1)[0] for line in
                     buf.getvalue().splitlines()] for buf in (got, want)]
        assert rows[0] == rows[1]


def test_emit_report_validation(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], tmp_path / "x.csv", "csv")
    with pytest.raises(ValueError):
        emit_report([_tiny_report()], tmp_path / "x.csv", "yaml")


def test_emit_distribution_file(tmp_path):
    rep = _tiny_report()
    path = tmp_path / "dist.csv"
    emit_distribution({"P_me": rep.p_me, "P_id": rep.p_id}, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "site,P_me,P_id"
    assert len(lines) == 3
    assert lines[1].startswith("1,")
    buf = io.StringIO()
    emit_distribution({"P_id": rep.p_id}, buf)
    assert buf.getvalue().splitlines() == [
        "site,P_id", *(f"{i},{p:.12g}" for i, p in enumerate(rep.p_id, 1))]
    for columns in ({"P_me": rep.p_me, "P_id": rep.p_id[:1]}, {}):
        with pytest.raises(ValueError, match="equal length"):
            emit_distribution(columns, io.StringIO())


def test_plot_scripts():
    # each sweep axis plots S against the CSV column of the field it sets
    csv_buf = io.StringIO()
    emit_report([_tiny_report()], csv_buf, "csv")
    header = csv_buf.getvalue().splitlines()[0].split(",")
    axis_columns = {"g": "g_over_2pi_MHz", "omega_rabi": "omega_over_2pi_MHz",
                    "n_steps": "n_steps", "scale": "scale"}
    assert set(axis_columns) == set(SWEEP_AXES)
    for axis, column in axis_columns.items():
        buf = io.StringIO()
        emit_plot_script("sweep.csv", buf, kind="sweep",
                         spec=SweepSpec(axis, (1,)))
        text = buf.getvalue()
        assert "plot 'sweep.csv'" in text
        x, y = re.search(r"using (\d+):(\d+) ", text).groups()
        assert (header[int(x) - 1], header[int(y) - 1]) == (column, "S")
    buf2 = io.StringIO()
    emit_plot_script("dist.csv", buf2, kind="dist")
    assert "boxes" in buf2.getvalue()
    with pytest.raises(ValueError):
        emit_plot_script("x.csv", io.StringIO(), kind="pie")
    # a run's one-row file is plotted against n_steps
    run, steps = io.StringIO(), io.StringIO()
    emit_plot_script("sweep.csv", run, kind="sweep")
    emit_plot_script("sweep.csv", steps, kind="sweep",
                     spec=SweepSpec("n_steps", (1,)))
    assert run.getvalue() == steps.getvalue()


def test_two_axis_plot_script_draws_one_curve_per_cross_value():
    # the rows are primary-major, so cross value c is every 2nd row from c
    spec = SweepSpec("n_steps", (2, 3), cross_axis="scale",
                     cross_values=(1.0, 2.0))
    buf = io.StringIO()
    emit_plot_script("s.csv", buf, kind="sweep", spec=spec)
    plot = buf.getvalue().split("plot ", 1)[1].splitlines()
    assert plot == [
        "'s.csv' skip 1 every 2::0 using 1:8 with linespoints"
        " title 'S (scale = 1)', \\",
        "     's.csv' skip 1 every 2::1 using 1:8 with linespoints"
        " title 'S (scale = 2)'"]
    rows = [(cfg.n_steps, cfg.scale) for cfg in
            sweep_grid(ExperimentConfig(), spec)]
    assert rows[0::2] == [(2, 1.0), (3, 1.0)]
    assert rows[1::2] == [(2, 2.0), (3, 2.0)]


def test_report_column_values_align_with_columns():
    rep = _tiny_report()
    vals = rep.column_values()
    assert len(vals) == len(REPORT_COLUMNS)
    assert vals[REPORT_COLUMNS.index("coin0")] == "plus-i"
    assert vals[REPORT_COLUMNS.index("S")] == rep.s


def test_sector_run_does_not_import_scipy():
    # scipy only serves the sparse form; a fresh interpreter running a
    # noisy sector experiment must never load it
    code = ("import sys\n"
            "from cqwalk import ExperimentConfig, run_experiment\n"
            "run_experiment(ExperimentConfig(n_steps=3))\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "assert not loaded, loaded\n")
    src = str(Path(cqwalk.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
