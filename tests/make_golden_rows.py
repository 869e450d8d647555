"""Regenerate tests/golden_rows.json, the committed comparison rows.

    PYTHONPATH=src python tests/make_golden_rows.py

Each case is one run or sweep through the public entry points; its rows
are stored as their JSON report objects without wall_ms.  Python's json
writes floats by repr, which round-trips float64 exactly, so a change
that moves no number leaves the file byte-identical (check with
git diff --exit-code after regenerating).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from cqwalk import ExperimentConfig, SweepSpec, run_experiment, run_sweep
from cqwalk.harness import report_to_json_obj

PATH = Path(__file__).resolve().parent / "golden_rows.json"

NOISY = ExperimentConfig()
NOISE_FREE = replace(NOISY, t1_cavity_us=math.inf, t1_ge_us=math.inf,
                     t1_ef_us=math.inf, t1_gf_us=math.inf,
                     tphi_e_us=math.inf, tphi_f_us=math.inf)
N_STEPS = SweepSpec("n_steps", tuple(range(1, 9)))
G_SWEEP = SweepSpec("g", tuple(10.0 + 5.0 * i for i in range(11)))


def cases() -> dict[str, tuple]:
    """Case name -> (base config, SweepSpec or None for a single run);
    38 rows in all."""
    out = {}
    for coin in ("zero", "one", "plus-i"):
        for kind, base in (("noisy", NOISY), ("noise-free", NOISE_FREE)):
            out[f"run n10 {coin} {kind}"] = (
                replace(base, n_steps=10, coin0=coin), None)
    for scale in (5.0, 1.0, 0.2):
        out[f"run n20 scale {scale:g}"] = (
            replace(NOISY, n_steps=20, scale=scale), None)
    for kind, base in (("noisy", NOISY), ("noise-free", NOISE_FREE)):
        out[f"run n80 {kind}"] = (replace(base, n_steps=80), None)
    out["sweep n_steps 1..8 noisy scale 0.2"] = (
        replace(NOISY, scale=0.2), N_STEPS)
    out["sweep n_steps 1..8 noise-free"] = (NOISE_FREE, N_STEPS)
    out["sweep g 10:60:5 n10"] = (replace(NOISY, n_steps=10), G_SWEEP)
    return out


def rows(cfg: ExperimentConfig, spec: SweepSpec | None) -> list[dict]:
    """The case's report rows as JSON objects, wall_ms left out."""
    reports = [run_experiment(cfg)] if spec is None else run_sweep(cfg, spec)
    objs = [report_to_json_obj(rep) for rep in reports]
    for obj in objs:
        del obj["wall_ms"]
    return objs


def golden_rows() -> dict[str, list[dict]]:
    return {name: rows(*case) for name, case in cases().items()}


def main() -> int:
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(golden_rows(), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
