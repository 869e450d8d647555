"""Experiment orchestration and reporting.

Single runs, parameter sweeps (coupling, drive, step count,
decoherence scale) and CSV/JSON report emission.  A row echoes n_steps,
g, omega, mu (auto as g), theta_rad, coin0 and scale, not phi_rad or the
six lifetimes: configs that differ only in those echo the same point.
Identical configs give identical rows apart from the wall-clock column.

A run is a walk of steps: an n-step run is exactly the first n steps of
a longer one, restricted to sites 1..n+1, so a sweep runs each group of
points that differ only in n_steps as one propagation of its largest
n_steps and scores each point at its step.  A single run scores the
last step of the same walk, so a sweep row equals the point's separate
run in every field but wall_ms.

The walk step compiled for the last device point is kept: a run at the
device point of the run before, whatever its coin (the paper's three
initial coins on one device), compiles nothing and walks the kept maps,
which are read-only.  A device point is a config with mu resolved, the
coin and the output settings fixed and -0.0 as 0.0 (_device_point), and
the step is built from the point alone, so a kept step is bit for bit
the step compiled anew; a compile that raises keeps nothing.  Only a
later call in the same process at the same device point gains: a CLI
run is one run, and the groups of a sweep differ in what the step reads.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import math
import time
from collections.abc import Container, Iterator, Mapping
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .config import (REPORT_FORMATS, ConfigError, ExperimentConfig,
                     check_memory, field_type, validate_config)
from .idealwalk import CoinState, site_probabilities, walk
from .lindblad import (EvolutionResult, IntegrationError, compile_step,
                       min_eigenvalue, walk_steps)
from .metrics import similarity_report
from .protocol import build_schedule, mu_over_2pi_mhz

# A column's Report field is its name lower-cased.
REPORT_COLUMNS = (
    "n_steps", "g_over_2pi_MHz", "omega_over_2pi_MHz", "mu_over_2pi_MHz",
    "theta_rad", "coin0", "scale", "S", "S_renorm", "residual_vacuum",
    "residual_cavity", "trace_error", "wall_ms",
)

# Worst trace error, taken after every applied map (a step's coin and
# store are one map), that a reported run may have (criterion 7).
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
    s: float = math.nan                    # the scores: NaN on a failed row
    s_renorm: float = math.nan
    residual_vacuum: float = math.nan
    residual_cavity: float = math.nan
    trace_error: float = math.nan
    wall_ms: float = math.nan
    p_me: np.ndarray = field(default_factory=lambda: np.zeros(0))
    p_id: np.ndarray = field(default_factory=lambda: np.zeros(0))
    max_hermiticity_drift: float = 0.0
    min_eigenvalue: float = math.nan       # certified bound; JSON only
    error: str | None = None

    def column_values(self) -> list:
        return [getattr(self, column.lower()) for column in REPORT_COLUMNS]


def initial_state(n_steps: int, coin: CoinState) -> np.ndarray:
    """psi0 of an n_steps chain: the walker on qutrit 1 with coin
    (c0 -> f_1, slot 2; c1 -> e_1, slot 1)."""
    psi = np.zeros(3 * n_steps + 3, dtype=complex)
    psi[2] = coin.c0
    psi[1] = coin.c1
    return psi


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Build the schedule, evolve, read out and score one experiment."""
    cfg = validate_config(cfg)
    check_memory(cfg)
    start = time.perf_counter()
    # unpacking the one item runs the walk to its end, freeing its state
    ((_, evolution, amps),) = _walk(cfg, {cfg.n_steps})
    return _report(cfg, evolution, start, amps)


def _walk(cfg: ExperimentConfig, reads: Container[int]) -> Iterator[tuple]:
    """(n, evolution, amps) for each step n = 1..cfg.n_steps of cfg's run
    in reads, in increasing order: evolution is the EvolutionResult of
    cfg's run with n_steps = n (lindblad.walk_steps), and amps are the
    final amplitudes of that run's ideal walk (idealwalk.walk), from
    the coin the drive walks (ExperimentConfig.walked_coin)."""
    psi0 = initial_state(cfg.n_steps, cfg.coin())
    results = walk_steps(psi0, _compiled_step(_device_point(cfg)), reads)
    ideal = itertools.islice(
        walk(cfg.n_steps, cfg.theta_rad, cfg.walked_coin()), 1, None)
    return ((n, next(results), amps)
            for n, amps in enumerate(ideal, start=1) if n in reads)


def _device_point(cfg: ExperimentConfig) -> ExperimentConfig:
    """What cfg's walk step is built from: cfg with mu resolved, coin0,
    output and format at their defaults, and every number as its field's
    type, -0.0 as 0.0, so that configs equal as points build one step."""
    point = replace(cfg, mu_over_2pi_mhz=mu_over_2pi_mhz(cfg))
    return ExperimentConfig(**{
        f.name: field_type(f.name)(getattr(point, f.name)) + 0
        for f in fields(point) if f.name not in ("coin0", "output", "format")})


@functools.lru_cache(maxsize=1)
def _compiled_step(point: ExperimentConfig) -> tuple:
    """The walk step of a device point (_device_point), compiled; the
    last one is kept (module docstring)."""
    return compile_step(build_schedule(point), point.rates())


def _echo(cfg: ExperimentConfig) -> dict:
    """The Report fields that echo cfg's parameter point, each as its
    field's type (mu = auto is reported as g)."""
    echo = dict(n_steps=cfg.n_steps, g_over_2pi_mhz=cfg.g_over_2pi_mhz,
                omega_over_2pi_mhz=cfg.omega_over_2pi_mhz,
                mu_over_2pi_mhz=mu_over_2pi_mhz(cfg),
                theta_rad=cfg.theta_rad, coin0=cfg.coin0, scale=cfg.scale)
    return {name: field_type(name)(value) for name, value in echo.items()}


def _report(cfg: ExperimentConfig, evolution: EvolutionResult,
            start: float, amps: np.ndarray) -> Report:
    """Check and score evolution, the state read out of cfg's run (at
    its end or at its step of a longer one), against the site
    distribution of amps, the final amplitudes of cfg's ideal walk;
    wall_ms counts from start.

    Raises IntegrationError when the state, its distribution or its
    diagnostics are not finite, its trace error is above
    TRACE_ERROR_BOUND, or its positivity is not certified.
    """
    diagnostics = np.append(evolution.p_me, (
        evolution.max_trace_error, evolution.max_hermiticity_drift,
        evolution.residual_vacuum, evolution.residual_cavity))
    if not np.isfinite(diagnostics).all():
        raise IntegrationError("non-finite state or readout")
    if evolution.max_trace_error > TRACE_ERROR_BOUND:
        raise IntegrationError(f"trace error {evolution.max_trace_error:.3g}"
                               f" above {TRACE_ERROR_BOUND:g}")
    min_eig = min_eigenvalue(evolution.state)
    p_id = site_probabilities(amps)
    s, s_renorm = similarity_report(evolution.p_me, p_id)
    wall_ms = 1e3 * (time.perf_counter() - start)
    return Report(
        **_echo(cfg),
        s=s,
        s_renorm=s_renorm,
        residual_vacuum=evolution.residual_vacuum,
        residual_cavity=evolution.residual_cavity,
        trace_error=evolution.max_trace_error,
        wall_ms=wall_ms,
        p_me=evolution.p_me,
        p_id=p_id,
        max_hermiticity_drift=evolution.max_hermiticity_drift,
        min_eigenvalue=min_eig,
    )


# ---------------------------------------------------------------------------
# sweeps

# sweep axis -> the ExperimentConfig field it sets
SWEEP_AXES = {
    "g": "g_over_2pi_mhz",
    "omega_rabi": "omega_over_2pi_mhz",
    "n_steps": "n_steps",
    "scale": "scale",
}


@dataclass(frozen=True)
class SweepSpec:
    """One or two swept axes with ordered value lists.

    axis names: the keys of SWEEP_AXES.
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
        if axis not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {axis!r}; choose from "
                              f"{sorted(SWEEP_AXES)}")
        if not values:
            raise ConfigError(f"axis {axis!r} has no values")
        for v in values:
            if not v > 0:
                raise ConfigError(f"axis {axis!r} values must be positive")
            if (field_type(SWEEP_AXES[axis]) is int
                    and not float(v).is_integer()):
                raise ConfigError(f"axis {axis!r} values must be whole"
                                  f" numbers, not {v!r}")


def sweep_grid(base: ExperimentConfig, spec: SweepSpec) -> list[ExperimentConfig]:
    """Config per grid point, primary axis outermost (row-major).  Before
    the grid is built, its first point at the largest n_steps is charged
    with every row (check_memory): groups run one at a time, but every
    row is kept."""
    cross = spec.cross_values or (None,)

    def point(*values):
        axes = zip((spec.axis, spec.cross_axis), values)
        return validate_config(replace(base, **{
            SWEEP_AXES[a]: field_type(SWEEP_AXES[a])(x) for a, x in axes if a}))

    top = point(spec.values[0], cross[0])
    steps = {spec.axis: spec.values, spec.cross_axis: spec.cross_values}
    if "n_steps" in steps:
        top = replace(top, n_steps=int(max(steps["n_steps"])))
    check_memory(top, rows=len(spec.values) * len(cross))
    return [point(v, w) for v, w in itertools.product(spec.values, cross)]


def _error_report(cfg: ExperimentConfig, exc: Exception) -> Report:
    return Report(**_echo(cfg), error=f"{type(exc).__name__}: {exc}")


def run_sweep(base: ExperimentConfig, spec: SweepSpec) -> list[Report]:
    """One Report per grid point, in grid order.

    Points equal in every field but n_steps form a group, whose largest
    n_steps runs once, along with one ideal walk.  Each row is read out,
    checked and scored when that walk reaches its step, which is
    exactly the point's separate run (see lindblad.walk_steps); the result
    is dropped before the walk goes on, so a group holds one state at a
    time.  Every row has the diagnostics up to its step, and its wall_ms
    runs from the start of the group to its own readout.  Failures are
    recorded on their rows (if the group's run fails, on every row not
    yet written) and do not abort the sweep.
    """
    grid = sweep_grid(base, spec)
    groups: dict = {}                      # group -> n_steps -> grid rows
    for i, cfg in enumerate(grid):
        groups.setdefault(replace(cfg, n_steps=1), {}).setdefault(
            cfg.n_steps, []).append(i)
    rows: list = [None] * len(grid)
    for by_step in groups.values():
        top = grid[by_step[max(by_step)][0]]
        start = time.perf_counter()
        try:
            for n, evolution, amps in _walk(top, by_step):
                for i in by_step[n]:
                    try:
                        rows[i] = _report(grid[i], evolution, start, amps)
                    except Exception as exc:  # recorded per-row
                        rows[i] = _error_report(grid[i], exc)
                del evolution          # before the walk goes on
        except Exception as exc:  # the group's run failed; sweep continues
            for i in itertools.chain(*by_step.values()):
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
    if isinstance(value, (str, int)):
        return str(value)
    return f"{float(value):.12g}"


def emit_report(reports, destination, fmt: str = "csv") -> None:
    """Write reports as CSV (pinned column set) or JSON.

    destination is a path or a text file object.  JSON mirrors the CSV
    columns and adds the nested P_me / P_id arrays, the final state's
    min_eigenvalue, the run's max_hermiticity_drift (and the error
    message for failed sweep points); a value that is not finite, as in
    a failed row, is null.
    """
    if not reports:
        raise ValueError("no reports to emit")
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    with _opened(destination) as fh:
        if fmt == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(REPORT_COLUMNS)
            for rep in reports:
                writer.writerow([_cell(v) for v in rep.column_values()])
        else:        # json.dump encodes and writes one row at a time
            json.dump(reports, fh, indent=2, default=report_to_json_obj,
                      allow_nan=False)
            fh.write("\n")


def _json_float(x) -> float | None:
    """x as a float, or None (null) if it is not finite: JSON has no NaN."""
    x = float(x)
    return x if math.isfinite(x) else None


def report_to_json_obj(rep: Report) -> dict:
    obj = {column: v if isinstance(v, (str, int)) else _json_float(v)
           for column, v in zip(REPORT_COLUMNS, rep.column_values())}
    obj["P_me"] = [_json_float(x) for x in np.asarray(rep.p_me)]
    obj["P_id"] = [_json_float(x) for x in np.asarray(rep.p_id)]
    obj["min_eigenvalue"] = _json_float(rep.min_eigenvalue)
    obj["max_hermiticity_drift"] = _json_float(rep.max_hermiticity_drift)
    if rep.error is not None:
        obj["error"] = rep.error
    return obj


def emit_distribution(columns: Mapping[str, np.ndarray], destination) -> None:
    """Per-site CSV: site, then each named column (one row per site)."""
    if len({len(values) for values in columns.values()}) != 1:
        raise ValueError("need one or more columns of equal length")
    with _opened(destination) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("site", *columns))
        for site, row in enumerate(zip(*columns.values()), start=1):
            writer.writerow((site, *map(_cell, row)))


def emit_plot_script(data_path: str, destination, kind: str = "sweep",
                     spec: SweepSpec | None = None) -> None:
    """Companion gnuplot-style script for a report or distribution file.

    Plain text, tool-agnostic commands: for "sweep" files, S against
    spec's axis (n_steps if None), a curve per cross value; for "dist"
    files, paired measured/ideal bars.  The data path goes between
    single quotes, each ' in it doubled (gnuplot's escape there).
    """
    if kind not in ("sweep", "dist"):
        raise ValueError(f"unknown plot kind {kind!r}")
    data = "'" + str(data_path).replace("'", "''") + "'"
    lines = ["set datafile separator ','", "set key top right"]
    if kind == "sweep":
        axis = spec.axis if spec else "n_steps"
        columns = [c.lower() for c in REPORT_COLUMNS]   # 1-based in gnuplot
        x, y = 1 + columns.index(SWEEP_AXES[axis]), 1 + columns.index("s")
        line = f"using {x}:{y} with linespoints title"
        curves = [f"{data} skip 1 {line} 'S'"]
        if spec and spec.cross_axis:     # rows are primary-major
            k = len(spec.cross_values)
            curves = [f"{data} skip 1 every {k}::{c} {line}"
                      f" 'S ({spec.cross_axis} = {_cell(w)})'"
                      for c, w in enumerate(spec.cross_values)]
        lines += [
            f"set xlabel '{axis}'",
            "set ylabel 'similarity S'",
            "set yrange [0:1.05]",
            "plot " + ", \\\n     ".join(curves),
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
