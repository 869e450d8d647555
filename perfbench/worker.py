"""One cold repetition of a workload, in a fresh interpreter.

Reads a plan (see workloads.py) as JSON on stdin, runs it through the
public entry points and prints one JSON line on stdout: the monotonic
time at which `import cqwalk` finished, wall and CPU time of the plan,
peak RSS, the report rows and, with --trace, the recorded spans.

    python3 perfbench/worker.py [--trace] [--setup-only] < plan.json

The checkout's `src` must be on PYTHONPATH.
"""

import json
import resource
import sys
import time

from cqwalk import ExperimentConfig, SweepSpec, harness

IMPORTED_AT = time.monotonic()


def _row(rep) -> dict:
    return {"n_steps": rep.n_steps, "coin0": rep.coin0, "s": rep.s,
            "s_renorm": rep.s_renorm, "residual_vacuum": rep.residual_vacuum,
            "residual_cavity": rep.residual_cavity,
            "trace_error": rep.trace_error,
            "p_me": [float(x) for x in rep.p_me], "error": rep.error}


def _run_call(call: dict) -> list:
    cfg = ExperimentConfig(**call["config"])
    # Looked up on the module at call time, so a traced run sees the wrapper.
    if call["call"] == "run_sweep":
        spec = SweepSpec("n_steps", tuple(call["n_steps"]))
        return harness.run_sweep(cfg, spec)
    return [harness.run_experiment(cfg)]


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv: list[str]) -> int:
    out = {"imported_at": IMPORTED_AT}
    if "--setup-only" in argv:
        print(json.dumps(out))
        return 0
    plan = json.loads(sys.stdin.read())
    tracer = None
    if "--trace" in argv:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    rows = []
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for call in plan:
        try:
            rows += [_row(rep) for rep in _run_call(call)]
        except Exception as exc:  # one error row per row the call owed
            owed = len(call.get("n_steps", [None]))
            rows += [{"error": f"{type(exc).__name__}: {exc}"}] * owed
    out["wall_s"] = time.perf_counter() - t0
    out["cpu_s"] = _cpu_s() - cpu0
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    out["rows"] = rows
    if tracer is not None:
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
