"""cqwalk benchmark: cold-start workloads, checked against an oracle.

    python3 perfbench/run.py --workload coins-n10 --seed 1 --seconds 25 --trace 0

Run from the root of an uninstalled checkout; the workers import cqwalk
from its `src` directory.  Every repetition runs in a fresh interpreter,
so no compiled operator survives from an earlier one, and
OPENBLAS_NUM_THREADS is fixed to the number of usable cores.  Whole
repetitions run one after another while they fit in --seconds (at
least one).  Untimed, every report row then passes the correctness gate
of oracle.py.

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced repetitions and prints the per-layer
metrics derived from the spans of tracer.py.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

Exit status: 0 when every row passes, 1 when the correctness gate
fails, 2 when the benchmark cannot run (no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Interpreters started only to time `import cqwalk`, per untraced run.
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150
NPROC = len(os.sched_getaffinity(0))

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "pass_ratio": "ratio"}

PER_LAYER = {
    "lindblad.evolve_segment_ms.coin": "ms",
    "lindblad.evolve_segment_ms.store": "ms",
    "lindblad.evolve_segment_ms.retrieve": "ms",
    "lindblad.evolve_segment.calls": "count",
    "lindblad.evolve_segment.share": "ratio",
    "lindblad.substeps": "count",
    "lindblad.compile_est_ms": "ms",
    "statespace.build_ms": "ms",
    "statespace.dim": "count",
    "protocol.build_schedule_ms": "ms",
    "protocol.segments": "count",
    "lindblad.build_collapse_set_ms": "ms",
    "lindblad.collapse_ops": "count",
    "lindblad.evolve_schedule.self_ms": "ms",
    "lindblad.state_bytes": "bytes",
    "harness.run_sweep.self_ms": "ms",
    "harness.run_experiment.self_ms": "ms",
    "harness.initial_density_matrix_ms": "ms",
    "metrics.extract_distribution_ms": "ms",
    "metrics.similarity_report_ms": "ms",
    "idealwalk.run_ideal_ms": "ms",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = str(NPROC)
    return env


def _spawn(flags: list[str], plan: list | None = None) -> dict:
    """Run one worker to completion and add its setup time to its output."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *flags],
            input=json.dumps(plan), capture_output=True, text=True,
            env=_worker_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ran past {WORKER_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["imported_at"] - started
    return out


def _run_reps(plan: list, seconds: float, trace: bool) -> list[dict]:
    """Whole rounds (untraced, then traced if asked) while they fit."""
    reps = []
    started = time.monotonic()
    longest = 0.0
    while True:
        round_start = time.monotonic()
        reps.append(_spawn([], plan))
        if trace:
            reps.append({**_spawn(["--trace"], plan), "traced": True})
        now = time.monotonic()
        longest = max(longest, now - round_start)
        if now - started + longest > seconds:
            return reps


def _gate(plan: list, reps: list[dict]) -> tuple[int, list[str]]:
    """(rows attempted, one message per failed row) over all repetitions."""
    configs = workloads.expected_rows(plan)
    wants = [oracle.expected(cfg) for cfg in configs]
    attempted, failures = 0, []
    for rep_no, rep in enumerate(reps):
        attempted += len(configs)
        rows = rep["rows"]
        if len(rows) != len(configs):
            failures += [f"rep {rep_no}: {len(rows)} rows for "
                         f"{len(configs)} configs"] * len(configs)
            continue
        for row_no, (row, cfg, want) in enumerate(zip(rows, configs, wants)):
            problems = (oracle.invariant_problems(row, cfg)
                        or oracle.oracle_problems(row, want))
            if problems:
                failures.append(f"rep {rep_no} row {row_no}: "
                                + "; ".join(problems))
    return attempted, failures


def _layer_metrics(spans: list, wall_s: float) -> dict[str, float]:
    """Per-layer totals over one traced repetition, from its spans.

    Times are summed over the repetition; a span's self time is its
    duration minus that of its direct children.  compile_est_ms sums,
    over experiments and segment kinds, the first segment of a kind
    minus the median of its later ones (kinds run once are skipped).
    """
    dur = [end - start for _, start, end, _, _ in spans]
    inner = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            inner[span[3]] += dur[i]

    def total_ms(name):
        return 1e3 * sum(d for s, d in zip(spans, dur) if s[0] == name)

    def self_ms(name):
        return 1e3 * sum(d - c for s, d, c in zip(spans, dur, inner)
                         if s[0] == name)

    def attrs(name, key):
        return [s[4][key] for s in spans if s[0] == name]

    by_kind = defaultdict(float)
    runs = defaultdict(list)
    for i, span in enumerate(spans):
        if span[0] != "lindblad.evolve_segment":
            continue
        parent = spans[span[3]] if span[3] >= 0 else None
        kinds = parent[4]["kinds"] if parent and parent[4] else {}
        kind = kinds.get(span[4]["h"], "other")
        by_kind[kind] += dur[i]
        runs[(span[3], kind)].append(dur[i])
    compile_s = sum(d[0] - statistics.median(d[1:])
                    for d in runs.values() if len(d) > 1)
    dim = max(attrs("statespace.build", "dim"), default=0)
    segment_ms = total_ms("lindblad.evolve_segment")
    return {
        "lindblad.evolve_segment_ms.coin": 1e3 * by_kind["coin"],
        "lindblad.evolve_segment_ms.store": 1e3 * by_kind["store"],
        "lindblad.evolve_segment_ms.retrieve": 1e3 * by_kind["retrieve"],
        "lindblad.evolve_segment.calls":
            sum(s[0] == "lindblad.evolve_segment" for s in spans),
        "lindblad.evolve_segment.share": segment_ms / (1e3 * wall_s),
        "lindblad.substeps": sum(attrs("lindblad.evolve_segment",
                                       "substeps")),
        "lindblad.compile_est_ms": 1e3 * compile_s,
        "statespace.build_ms": total_ms("statespace.build"),
        "statespace.dim": dim,
        "protocol.build_schedule_ms": total_ms("protocol.build_schedule"),
        "protocol.segments": sum(attrs("protocol.build_schedule", "segments")),
        "lindblad.build_collapse_set_ms":
            total_ms("lindblad.build_collapse_set"),
        "lindblad.collapse_ops": sum(attrs("lindblad.build_collapse_set",
                                           "ops")),
        "lindblad.evolve_schedule.self_ms":
            self_ms("lindblad.evolve_schedule"),
        # computed, not measured: one dense complex128 state of the largest dim
        "lindblad.state_bytes": 16 * dim * dim,
        "harness.run_sweep.self_ms": self_ms("harness.run_sweep"),
        "harness.run_experiment.self_ms": self_ms("harness.run_experiment"),
        "harness.initial_density_matrix_ms":
            total_ms("harness.initial_density_matrix"),
        "metrics.extract_distribution_ms":
            total_ms("metrics.extract_distribution"),
        "metrics.similarity_report_ms": total_ms("metrics.similarity_report"),
        "idealwalk.run_ideal_ms": total_ms("idealwalk.run_ideal"),
    }


def _provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {"workload": workload, "seed": seed, "git_sha": sha,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": openblas, "nproc": NPROC,
            "openblas_num_threads": NPROC}


def _median_of(reps: list[dict], key: str) -> float:
    return statistics.median(rep[key] for rep in reps)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cqwalk" / "__init__.py").is_file():
        print(f"benchmark: no cqwalk package under {SRC}", file=sys.stderr)
        return 2

    plan = workloads.make_plan(args.workload, args.seed)
    trace = bool(args.trace)
    run_start = time.monotonic()
    try:
        setups = [] if trace else [_spawn(["--setup-only"])["setup_s"]
                                   for _ in range(SETUP_SAMPLES)]
        reps = _run_reps(plan, args.seconds, trace)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    run_s = time.monotonic() - run_start
    attempted, failures = _gate(plan, reps)
    plain = [rep for rep in reps if not rep.get("traced")]
    traced = [rep for rep in reps if rep.get("traced")]

    print(f"cqwalk benchmark: {args.workload}, seed {args.seed}, "
          f"{len(plain)} untraced + {len(traced)} traced cold repetitions "
          f"in {run_s:.1f} s")
    print("provenance " + json.dumps(_provenance(args.workload, args.seed)))
    for msg in failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"  failed_ratio = {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} rows)")

    walls = [rep["wall_s"] for rep in plain]
    if trace:
        per_rep = [_layer_metrics(rep["spans"], rep["wall_s"])
                   for rep in traced]
        values = {name: statistics.median(m[name] for m in per_rep)
                  for name in PER_LAYER if name in per_rep[0]}
        values["trace.wall_s"] = _median_of(traced, "wall_s")
        values["trace.overhead_ratio"] = (values["trace.wall_s"]
                                          / statistics.median(walls) - 1.0)
        units = PER_LAYER
    else:
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(
                      setups + [rep["setup_s"] for rep in plain]),
                  "cpu_s": _median_of(plain, "cpu_s"),
                  "peak_rss_mb": _median_of(plain, "peak_rss_mb"),
                  "pass_ratio": 1.0 - len(failures) / attempted}
        units = END_TO_END
        # No tail percentile: a run holds far fewer than the 20 repetitions
        # that would leave ten samples beyond one.
        print(f"  wall_s: median {values['wall_s']:.4f} s, max "
              f"{max(walls):.4f} s, n = {len(walls)} repetitions")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")

    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
