import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import fullspace
import numpy as np
import pytest
from conftest import zero_noise_config

import cqwalk
from cqwalk import config, harness, lindblad
from cqwalk.config import ConfigError, ExperimentConfig
from cqwalk.harness import (REPORT_COLUMNS, Report, SweepSpec,
                            emit_distribution, emit_plot_script, emit_report,
                            initial_density_matrix, report_to_json_obj,
                            run_experiment, run_sweep, sweep_grid)
from cqwalk.idealwalk import coin_preset, run_ideal
from cqwalk.lindblad import IntegrationError, evolve_schedule
from cqwalk.statespace import E, F, StateSpace


def test_initial_density_matrix_truncated():
    space = StateSpace(2)
    coin = coin_preset("plus-i")
    rho = initial_density_matrix(space, coin)
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.trace(rho @ rho).real == pytest.approx(1.0)  # pure
    e, f = space.qutrit_index(1, E), space.qutrit_index(1, F)
    assert rho[f, f] == pytest.approx(0.5)
    assert rho[e, e] == pytest.approx(0.5)
    assert rho[f, e] == pytest.approx(-0.5j)  # c0 * conj(c1)


def test_initial_density_matrix_full_mode():
    # the sector's rho0, embedded, is the full-space oracle's rho0
    space, full = StateSpace(1), fullspace.FullSpace(1)
    v = fullspace.embedding_matrix(space, full)
    for name in ("zero", "one", "plus-i"):
        coin = coin_preset(name)
        assert np.array_equal(v @ initial_density_matrix(space, coin) @ v.T,
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


def test_noise_decides_the_propagation_path(monkeypatch):
    # a noise-free run propagates rho0's columns and never applies the
    # site maps to rho; a noisy one never forms rho from columns
    def refuse(*args):
        raise AssertionError("wrong propagation path")

    with monkeypatch.context() as patch:
        patch.setattr(lindblad._SiteMaps, "apply", refuse)
        rep = run_experiment(zero_noise_config(n_steps=20))
        assert rep.s == pytest.approx(1.0, abs=1e-9)
        spec = SweepSpec(axis="n_steps", values=(1, 4, 7))
        rows = run_sweep(zero_noise_config(), spec)
        assert [r.error for r in rows] == [None] * 3
    monkeypatch.setattr(lindblad, "_form", refuse)
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

    def counting(rho0, schedule, rates, steps=(), on_step=None):
        calls.append(len(schedule) // 3)
        return evolve_schedule(rho0, schedule, rates, steps, on_step)

    monkeypatch.setattr(harness, "evolve_schedule", counting)
    spec = SweepSpec(axis="n_steps", values=(2, 6, 1, 4),
                     cross_axis="scale", cross_values=(5.0, 1.0, 0.2))
    rows = run_sweep(ExperimentConfig(), spec)
    assert len(rows) == 12 and all(r.error is None for r in rows)
    assert calls == [6, 6, 6]                  # one N=6 run per scale


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
    def failing_at_the_end(rho0, schedule, rates, steps, on_step):
        evolve_schedule(rho0, schedule, rates, steps, on_step)
        raise IntegrationError("failed after the last step readout")

    monkeypatch.setattr(harness, "evolve_schedule", failing_at_the_end)
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


def test_sweep_group_holds_one_state_at_a_time():
    # a group scores each step's readout before it propagates further,
    # so an n_steps 1..40 sweep stays within the memory bound that
    # validate_config assumes for one N=40 run
    spec = SweepSpec(axis="n_steps", values=tuple(range(1, 41)))
    tracemalloc.start()
    try:
        rows = run_sweep(ExperimentConfig(), spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.error is None for r in rows)
    assert peak < config._STATE_COPIES * 16 * (3 * 40 + 4) ** 2


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


def test_emit_report_validation(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], tmp_path / "x.csv", "csv")
    with pytest.raises(ValueError):
        emit_report([_tiny_report()], tmp_path / "x.csv", "yaml")


def test_emit_distribution_file(tmp_path):
    rep = _tiny_report()
    path = tmp_path / "dist.csv"
    emit_distribution(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "site,P_me,P_id"
    assert len(lines) == 3
    assert lines[1].startswith("1,")


def test_plot_scripts():
    buf = io.StringIO()
    emit_plot_script("sweep.csv", buf, kind="sweep", axis="scale")
    text = buf.getvalue()
    assert "plot 'sweep.csv'" in text and "using 7:8" in text
    buf2 = io.StringIO()
    emit_plot_script("dist.csv", buf2, kind="dist")
    assert "boxes" in buf2.getvalue()
    with pytest.raises(ValueError):
        emit_plot_script("x.csv", io.StringIO(), kind="pie")
    with pytest.raises(ValueError):
        emit_plot_script("x.csv", io.StringIO(), kind="sweep", axis="phase")


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
