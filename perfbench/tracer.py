"""Outside-in span tracing of the cqwalk layers.

The program looks up these module-level names at call time, so
replacing them with timing wrappers traces each layer boundary without
editing the package.  A name that no longer exists is skipped; its time
then shows up as its caller's self time.

A span is [name, start, end, parent, attrs]: perf_counter seconds, the
index of the enclosing span (-1 at top level) and counts taken from the
return value.
"""

from __future__ import annotations

import functools
import time

from cqwalk import config, harness, lindblad


def _space_attrs(args, kwargs, space):
    return {"dim": space.dim}


def _schedule_attrs(args, kwargs, schedule):
    return {"segments": len(schedule)}


def _collapse_attrs(args, kwargs, collapse):
    return {"ops": len(collapse)}


def _evolve_schedule_attrs(args, kwargs, result):
    # Segment kinds by Hamiltonian identity: the schedule shares one matrix
    # per kind across steps and is still alive here.
    schedule = args[1] if len(args) > 1 else kwargs["schedule"]
    return {"kinds": {str(id(seg.hamiltonian)): seg.label
                      for seg in schedule}}


def _evolve_segment_attrs(args, kwargs, result):
    h = args[1] if len(args) > 1 else kwargs["h"]
    return {"substeps": result[1].substeps, "h": str(id(h))}


# (owner, attribute, span name, attrs from the call and its result)
TRACED = (
    (harness, "run_sweep", "harness.run_sweep", None),
    (harness, "run_experiment", "harness.run_experiment", None),
    (config.ExperimentConfig, "space", "statespace.build", _space_attrs),
    (harness, "build_schedule", "protocol.build_schedule", _schedule_attrs),
    (harness, "build_collapse_set", "lindblad.build_collapse_set",
     _collapse_attrs),
    (harness, "initial_density_matrix", "harness.initial_density_matrix",
     None),
    (harness, "evolve_schedule", "lindblad.evolve_schedule",
     _evolve_schedule_attrs),
    (lindblad, "evolve_segment", "lindblad.evolve_segment",
     _evolve_segment_attrs),
    (harness, "extract_distribution", "metrics.extract_distribution", None),
    (harness, "run_ideal", "idealwalk.run_ideal", None),
    (harness, "similarity_report", "metrics.similarity_report", None),
)


class Tracer:
    """Records spans in memory; install() wraps every name in TRACED."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def install(self) -> None:
        for owner, attr, name, attrs in TRACED:
            if hasattr(owner, attr):
                setattr(owner, attr, self._wrap(getattr(owner, attr),
                                                name, attrs))

    def _wrap(self, fn, name, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1,
                    None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result
        return traced
