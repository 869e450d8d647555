"""Command-line interface.

Subcommands:

    run       one experiment, report to CSV/JSON
    sweep     grid of experiments over one or two axes
    dist      one experiment, per-site measured/ideal distribution
    ideal     exact walk oracle only, no master equation

Every ExperimentConfig field is available as a flag (key spelling with
dashes, e.g. --g-over-2pi-mhz); a --config file supplies defaults that
flags override.  Exit codes: 0 ok, 1 configuration error, 2 numerical
failure (for a sweep: after every row is written, if any row failed),
3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from .config import (ConfigError, ExperimentConfig, check_memory,
                     config_from_mapping, config_keys, load_config,
                     parse_field_value)
from .harness import (SWEEP_AXES, Report, SweepSpec, emit_distribution,
                      emit_plot_script, emit_report, run_experiment,
                      run_sweep)
from .idealwalk import run_ideal
from .lindblad import IntegrationError


# The g axis's stock grid (MHz), swept when --values is not given.
_G_GRID = "10:60:5"


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="config file (key = value lines)")
    for key, field_name in config_keys().items():
        flag = "--" + key.lower().replace("_", "-")
        parser.add_argument(flag, dest=f"cfg_{field_name}", metavar="VALUE",
                            help=f"override config key {key}")


def _config_from_args(args) -> ExperimentConfig:
    base = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    for field_name in config_keys().values():
        raw = getattr(args, f"cfg_{field_name}", None)
        if raw is not None:
            overrides[field_name] = parse_field_value(
                field_name, raw, where=f"--{field_name.replace('_', '-')}")
    return config_from_mapping(overrides, base)


def _parse_value_list(text: str | None, where: str,
                      base: ExperimentConfig) -> tuple[float, ...]:
    """Comma list of numbers; a:b[:c] tokens expand to inclusive ranges.
    The values are counted, and charged as sweep rows of base
    (config.check_memory), before any range is expanded."""
    spans = []
    for token in filter(None, map(str.strip, (text or "").split(","))):
        parts = token.split(":")
        if len(parts) == 1:                  # a number n is the range n:n
            parts *= 2
        if len(parts) > 3:
            raise ConfigError(f"{where}: bad range {token!r}")
        try:
            start, stop = float(parts[0]), float(parts[1])
            step = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise ConfigError(f"{where}: bad value {token!r}") from None
        if not all(map(math.isfinite, (start, stop, step))):
            raise ConfigError(f"{where}: {token!r} is not finite")
        if step <= 0 or stop < start:
            raise ConfigError(f"{where}: empty range {token!r}")
        spans.append((start, stop, step))
    # before any range is expanded; a count that overflows is inf rows
    check_memory(base, rows=sum((stop - start) / step + 1
                                for start, stop, step in spans))
    return tuple(start + i * step for start, stop, step in spans
                 for i in range(round((stop - start) / step) + 1)
                 if start + i * step <= stop + 1e-9 * step)


def _summary(rep: Report) -> str:
    return (f"S = {rep.s:.6f} (S_renorm = {rep.s_renorm:.6f}), "
            f"residual vacuum {rep.residual_vacuum:.3e},"
            f" cavity {rep.residual_cavity:.3e}")


def _cmd_run(args, cfg: ExperimentConfig) -> int:
    rep = run_experiment(cfg)
    emit_report([rep], cfg.output or sys.stdout, cfg.format)
    print(_summary(rep), file=sys.stderr)
    if args.plot_script:
        emit_plot_script(cfg.output, args.plot_script, kind="sweep")
    return 0


def _cmd_sweep(args, cfg: ExperimentConfig) -> int:
    # a value list is charged as rows of the base run, of one step where
    # the sweep sets n_steps; SweepSpec checks the axes and their values
    base = (replace(cfg, n_steps=1)
            if "n_steps" in (args.axis, args.cross_axis) else cfg)
    values = (_G_GRID if args.values is None and args.axis == "g"
              else args.values)
    spec = SweepSpec(
        axis=args.axis, values=_parse_value_list(values, "--values", base),
        cross_axis=args.cross_axis, cross_values=_parse_value_list(
            args.cross_values, "--cross-values", base))
    reports = run_sweep(cfg, spec)
    emit_report(reports, cfg.output or sys.stdout, cfg.format)
    failures = [r for r in reports if r.error]
    if failures:
        print(f"{len(failures)}/{len(reports)} sweep points failed",
              file=sys.stderr)
    if args.plot_script:
        emit_plot_script(cfg.output, args.plot_script, kind="sweep",
                         spec=spec)
    return 2 if failures else 0


def _cmd_dist(args, cfg: ExperimentConfig) -> int:
    rep = run_experiment(cfg)
    emit_distribution({"P_me": rep.p_me, "P_id": rep.p_id},
                      cfg.output or sys.stdout)
    print(_summary(rep), file=sys.stderr)
    if args.plot_script:
        emit_plot_script(cfg.output, args.plot_script, kind="dist")
    return 0


def _cmd_ideal(args, cfg: ExperimentConfig) -> int:
    check_memory(cfg, noise_free=True)      # no master-equation run
    p = run_ideal(cfg.n_steps, cfg.theta_rad, cfg.walked_coin())
    emit_distribution({"P_id": p}, cfg.output or sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cqwalk",
                     description="circuit-QED discrete-time quantum walk "
                                 "simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single experiment")
    p_sweep = sub.add_parser("sweep", help="grid of experiments")
    p_dist = sub.add_parser("dist", help="per-site distribution of one run")
    p_ideal = sub.add_parser("ideal", help="exact walk oracle only")

    for p in (p_run, p_sweep, p_dist, p_ideal):
        _add_config_flags(p)
    for p in (p_run, p_sweep, p_dist):
        p.add_argument("--plot-script", metavar="PATH",
                       help="write a gnuplot-style companion script")

    axes = "one of " + ", ".join(SWEEP_AXES)
    p_sweep.add_argument("--axis", required=True, help=axes)
    p_sweep.add_argument("--values", help="comma list; a:b[:c] expands to "
                                          f"a range (g defaults to {_G_GRID})")
    p_sweep.add_argument("--cross-axis", help=axes)
    p_sweep.add_argument("--cross-values")

    p_run.set_defaults(func=_cmd_run)
    p_sweep.set_defaults(func=_cmd_sweep)
    p_dist.set_defaults(func=_cmd_dist)
    p_ideal.set_defaults(func=_cmd_ideal)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        plot_script = getattr(args, "plot_script", None)
        if plot_script and not cfg.output:
            raise ConfigError("--plot-script needs --output to reference")
        if plot_script and cfg.format != "csv":
            raise ConfigError("--plot-script plots CSV columns, not format"
                              f" {cfg.format!r}")
        if args.command in ("dist", "ideal") and cfg.format != "csv":
            raise ConfigError(f"{args.command} writes CSV only, not"
                              f" format {cfg.format!r}")
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"cqwalk: config error: {exc}", file=sys.stderr)
        return 1
    except (IntegrationError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"cqwalk: numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cqwalk: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
