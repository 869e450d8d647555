"""Experiment orchestration and reporting.

Single runs, parameter sweeps (coupling, drive, step count,
decoherence scale) and CSV/JSON report emission.  Every report row
echoes the full parameter point so result files are self-describing;
identical configs produce identical rows apart from the wall-clock
column.

A sweep runs each group of points that differ only in n_steps as one
propagation of its largest n_steps, scoring each shorter point as soon
as the run reaches its step: an n-step run is exactly the first n steps
of a longer one, restricted to sites 1..n+1.  Every readout, at a step
or at the end, is made the same way, so a sweep row equals the point's
separate run in every field but wall_ms.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .config import ConfigError, ExperimentConfig, validate_config
from .idealwalk import CoinState, run_ideal
from .lindblad import (EvolutionResult, IntegrationError, evolve_schedule,
                       min_eigenvalue)
from .metrics import extract_distribution, similarity_report
from .protocol import build_schedule
from .statespace import E, F, StateSpace

REPORT_COLUMNS = (
    "n_steps", "g_over_2pi_MHz", "omega_over_2pi_MHz", "mu_over_2pi_MHz",
    "theta_rad", "coin0", "scale", "S", "S_renorm", "residual_vacuum",
    "residual_cavity", "trace_error", "wall_ms",
)

# Worst per-segment trace error a reported run may have (criterion 7).
TRACE_ERROR_BOUND = 1e-8


@dataclass
class Report:
    """Self-describing record of one experiment run."""

    n_steps: int
    g_over_2pi_mhz: float
    omega_over_2pi_mhz: float
    mu_over_2pi_mhz: float
    theta_rad: float
    coin0: str
    scale: float
    s: float
    s_renorm: float
    residual_vacuum: float
    residual_cavity: float
    trace_error: float
    wall_ms: float
    p_me: np.ndarray = field(default_factory=lambda: np.zeros(0))
    p_id: np.ndarray = field(default_factory=lambda: np.zeros(0))
    max_hermiticity_drift: float = 0.0
    min_eigenvalue: float = math.nan       # of the final state; JSON only
    error: str | None = None

    def column_values(self) -> list:
        return [self.n_steps, self.g_over_2pi_mhz, self.omega_over_2pi_mhz,
                self.mu_over_2pi_mhz, self.theta_rad, self.coin0, self.scale,
                self.s, self.s_renorm, self.residual_vacuum,
                self.residual_cavity, self.trace_error, self.wall_ms]


def initial_density_matrix(space: StateSpace, coin: CoinState) -> np.ndarray:
    """Walker on qutrit 1 with coin (c0 -> f, c1 -> e), rest in vacuum."""
    psi = np.zeros(space.dim, dtype=complex)
    psi[space.qutrit_index(1, F)] = coin.c0
    psi[space.qutrit_index(1, E)] = coin.c1
    return np.outer(psi, psi.conj())


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Build the schedule, evolve, read out and score one experiment."""
    cfg = validate_config(cfg)
    start = time.perf_counter()
    return _report(cfg, _evolve(cfg), start)


def _evolve(cfg: ExperimentConfig, steps=(), on_step=None) -> EvolutionResult:
    """The final state of cfg's run; on_step(n, result) gets the run of
    cfg with n_steps = n for each n in steps (see evolve_schedule)."""
    space = cfg.space()
    schedule = build_schedule(cfg.device_params())
    rho0 = initial_density_matrix(space, cfg.coin())
    return evolve_schedule(rho0, schedule, cfg.rates(), steps, on_step)


def _echo(cfg: ExperimentConfig) -> dict:
    """The Report fields that echo cfg's parameter point (mu = auto is
    reported as g)."""
    mu = cfg.mu_over_2pi_mhz
    return dict(n_steps=cfg.n_steps, g_over_2pi_mhz=cfg.g_over_2pi_mhz,
                omega_over_2pi_mhz=cfg.omega_over_2pi_mhz,
                mu_over_2pi_mhz=cfg.g_over_2pi_mhz if mu is None else mu,
                theta_rad=cfg.theta_rad, coin0=cfg.coin0, scale=cfg.scale)


def _report(cfg: ExperimentConfig, evolution: EvolutionResult,
            start: float) -> Report:
    """Check and score evolution, the state read out of cfg's run (at
    its end or at its step of a longer one); wall_ms counts from start.

    Raises IntegrationError when the state, its distribution or its
    diagnostics are not finite, or its trace error is above
    TRACE_ERROR_BOUND.
    """
    space = cfg.space()
    dist = extract_distribution(evolution.rho, space)
    diagnostics = (evolution.max_trace_error, evolution.max_hermiticity_drift,
                   dist.residual_vacuum, dist.residual_cavity, *dist.p)
    if not np.all(np.isfinite(diagnostics)):
        raise IntegrationError("non-finite state or readout")
    if evolution.max_trace_error > TRACE_ERROR_BOUND:
        raise IntegrationError(f"trace error {evolution.max_trace_error:.3g}"
                               f" above {TRACE_ERROR_BOUND:g}")
    min_eig = min_eigenvalue(evolution.rho)
    p_id = run_ideal(cfg.n_steps, cfg.theta_rad, cfg.coin())
    sim = similarity_report(dist.p, p_id)
    wall_ms = 1e3 * (time.perf_counter() - start)
    return Report(
        **_echo(cfg),
        s=sim.s,
        s_renorm=sim.s_renorm,
        residual_vacuum=dist.residual_vacuum,
        residual_cavity=dist.residual_cavity,
        trace_error=evolution.max_trace_error,
        wall_ms=wall_ms,
        p_me=dist.p,
        p_id=p_id,
        max_hermiticity_drift=evolution.max_hermiticity_drift,
        min_eigenvalue=min_eig,
    )


# ---------------------------------------------------------------------------
# sweeps

_AXIS_TO_FIELD = {
    "g": "g_over_2pi_mhz",
    "omega_rabi": "omega_over_2pi_mhz",
    "n_steps": "n_steps",
    "scale": "scale",
}


@dataclass(frozen=True)
class SweepSpec:
    """One or two swept axes with ordered value lists.

    axis names: "g", "omega_rabi" (both MHz), "n_steps", "scale".
    """

    axis: str
    values: tuple
    cross_axis: str | None = None
    cross_values: tuple = ()

    def __post_init__(self):
        self._check_axis(self.axis, self.values)
        if self.cross_axis is not None:
            if self.cross_axis == self.axis:
                raise ConfigError("cross axis must differ from primary axis")
            self._check_axis(self.cross_axis, self.cross_values)
        elif self.cross_values:
            raise ConfigError("cross values given without a cross axis")

    @staticmethod
    def _check_axis(axis, values):
        if axis not in _AXIS_TO_FIELD:
            raise ConfigError(f"unknown sweep axis {axis!r}; choose from "
                              f"{sorted(_AXIS_TO_FIELD)}")
        if not values:
            raise ConfigError(f"axis {axis!r} has no values")
        for v in values:
            if not v > 0:
                raise ConfigError(f"axis {axis!r} values must be positive")
            if axis == "n_steps" and not float(v).is_integer():
                raise ConfigError(f"axis 'n_steps' values must be whole"
                                  f" numbers, not {v!r}")


def sweep_grid(base: ExperimentConfig, spec: SweepSpec) -> list[ExperimentConfig]:
    """Config per grid point, primary axis outermost (row-major)."""
    def apply(cfg, axis, value):
        name = _AXIS_TO_FIELD[axis]
        value = int(value) if name == "n_steps" else float(value)
        return replace(cfg, **{name: value})

    grid = []
    for v in spec.values:
        point = apply(base, spec.axis, v)
        if spec.cross_axis is None:
            grid.append(validate_config(point))
        else:
            for w in spec.cross_values:
                grid.append(validate_config(apply(point, spec.cross_axis, w)))
    return grid


def _error_report(cfg: ExperimentConfig, exc: Exception) -> Report:
    nan = float("nan")
    return Report(
        **_echo(cfg), s=nan, s_renorm=nan, residual_vacuum=nan,
        residual_cavity=nan, trace_error=nan, wall_ms=nan,
        error=f"{type(exc).__name__}: {exc}")


def run_sweep(base: ExperimentConfig, spec: SweepSpec) -> list[Report]:
    """One Report per grid point, in grid order.

    Points equal in every field but n_steps form a group, whose largest
    n_steps runs once, from whose final state the largest point's row
    comes.  Each shorter row is read out, checked and scored as that run
    reaches its step, which is exactly the point's separate run (see
    evolve_schedule), so a group holds one state at a time.  Every row
    has the diagnostics up to its step, and its wall_ms runs from the
    start of the group to its own readout.  Failures are recorded on
    their rows (if the group's run fails, on every row not yet written)
    and do not abort the sweep.
    """
    grid = sweep_grid(base, spec)
    groups: dict = {}
    for i, cfg in enumerate(grid):
        groups.setdefault(replace(cfg, n_steps=1), []).append(i)
    rows: list = [None] * len(grid)
    for members in groups.values():
        top = max((grid[i] for i in members), key=lambda cfg: cfg.n_steps)
        start = time.perf_counter()

        def write(n, evolution):
            for i in members:
                if grid[i].n_steps == n:
                    try:
                        rows[i] = _report(grid[i], evolution, start)
                    except Exception as exc:  # recorded per-row
                        rows[i] = _error_report(grid[i], exc)

        try:
            write(top.n_steps, _evolve(top, {grid[i].n_steps for i in members}
                                       - {top.n_steps}, write))
        except Exception as exc:  # the group's run failed; sweep continues
            for i in members:
                if rows[i] is None:
                    rows[i] = _error_report(grid[i], exc)
    return rows


# ---------------------------------------------------------------------------
# report emission


@contextlib.contextmanager
def _opened(destination):
    """destination as a text file: a path is opened for writing and
    closed afterwards, a file object is used as it is."""
    if isinstance(destination, (str, bytes)) or hasattr(destination,
                                                        "__fspath__"):
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield destination


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def emit_report(reports, destination, fmt: str = "csv") -> None:
    """Write reports as CSV (pinned column set) or JSON.

    destination is a path or a text file object.  JSON mirrors the CSV
    columns and adds the nested P_me / P_id arrays, the final state's
    min_eigenvalue, the run's max_hermiticity_drift (and the error
    message for failed sweep points).
    """
    if not reports:
        raise ValueError("no reports to emit")
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    with _opened(destination) as fh:
        if fmt == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(REPORT_COLUMNS)
            for rep in reports:
                writer.writerow([_cell(v) for v in rep.column_values()])
        else:
            json.dump([report_to_json_obj(rep) for rep in reports], fh,
                      indent=2)
            fh.write("\n")


def report_to_json_obj(rep: Report) -> dict:
    obj = dict(zip(REPORT_COLUMNS, rep.column_values()))
    obj["P_me"] = [float(x) for x in np.asarray(rep.p_me)]
    obj["P_id"] = [float(x) for x in np.asarray(rep.p_id)]
    obj["min_eigenvalue"] = rep.min_eigenvalue
    obj["max_hermiticity_drift"] = rep.max_hermiticity_drift
    if rep.error is not None:
        obj["error"] = rep.error
    return obj


def emit_distribution(report: Report, destination) -> None:
    """Per-site paired columns: site, P_me, P_id (one row per site)."""
    if len(report.p_me) != len(report.p_id):
        raise ValueError("report has no paired distributions")
    with _opened(destination) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("site", "P_me", "P_id"))
        for site, (pm, pi) in enumerate(zip(report.p_me, report.p_id), start=1):
            writer.writerow((site, _cell(pm), _cell(pi)))


_PLOT_KINDS = ("sweep", "dist")

# column index (1-based) of each sweep axis in the CSV layout
_AXIS_TO_COLUMN = {"n_steps": 1, "g": 2, "omega_rabi": 3, "scale": 7}
_S_COLUMN = 8


def emit_plot_script(data_path: str, destination,
                     kind: str = "sweep", axis: str = "n_steps") -> None:
    """Companion gnuplot-style script for a report or distribution file.

    Plain text, tool-agnostic commands: similarity against the swept
    axis for "sweep" files, paired measured/ideal bars for "dist"
    files.  The data path goes between single quotes, each ' in it
    doubled (gnuplot's escape there).
    """
    if kind not in _PLOT_KINDS:
        raise ValueError(f"unknown plot kind {kind!r}")
    data = "'" + str(data_path).replace("'", "''") + "'"
    lines = ["set datafile separator ','", "set key top right"]
    if kind == "sweep":
        if axis not in _AXIS_TO_COLUMN:
            raise ValueError(f"unknown sweep axis {axis!r}")
        col = _AXIS_TO_COLUMN[axis]
        lines += [
            f"set xlabel '{axis}'",
            "set ylabel 'similarity S'",
            "set yrange [0:1.05]",
            f"plot {data} skip 1 using {col}:{_S_COLUMN} "
            "with linespoints title 'S'",
        ]
    else:
        lines += [
            "set xlabel 'site'",
            "set ylabel 'probability'",
            "set style fill solid 0.4",
            "set boxwidth 0.35",
            f"plot {data} skip 1 using ($1-0.18):2 with boxes "
            "title 'simulated', \\",
            f"     {data} skip 1 using ($1+0.18):3 with boxes "
            "title 'ideal'",
        ]
    with _opened(destination) as fh:
        fh.write("\n".join(lines) + "\n")
