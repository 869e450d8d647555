"""Seeded workload plans.

A plan is a JSON-serialisable list of calls into the program's public
entry points.  Every config spells out each physics field, so the
oracle never depends on the package's defaults.  The seed draws only
the device point (g/2pi, Omega/2pi, theta), within DEVICE_SPREAD of the
paper's defaults; the call structure, and therefore the amount of work,
is the same for every seed.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("coins-n10", "nsweep-strong", "ideal-n80")

COINS = ("zero", "one", "plus-i")
SWEEP_N = tuple(range(1, 9))

# Relative half-width of the seeded device point.  Small enough that the
# RK4 step-doubling check settles at the same substep count for every
# seed (the store/retrieve pulse areas g*t are fixed by the protocol).
DEVICE_SPREAD = 0.02

# Paper lifetimes T0 in us, before `scale`.
T0_LIFETIMES = {
    "t1_cavity_us": 10.0, "t1_ge_us": 10.0, "t1_ef_us": 10.0,
    "t1_gf_us": 10.0, "tphi_e_us": 5.0, "tphi_f_us": 5.0,
}
NO_NOISE = {key: math.inf for key in T0_LIFETIMES}


def _device_point(rng: random.Random) -> dict:
    def near(value):
        return value * (1.0 + rng.uniform(-DEVICE_SPREAD, DEVICE_SPREAD))

    return {"g_over_2pi_mhz": near(50.0),
            "omega_over_2pi_mhz": near(100.0),
            "mu_over_2pi_mhz": None,
            "theta_rad": near(math.pi / 4),
            "phi_rad": -math.pi / 2}


def _config(n_steps, point, lifetimes, scale=1.0, coin0="plus-i") -> dict:
    return {"n_steps": n_steps, "coin0": coin0, "scale": scale,
            **point, **lifetimes}


def make_plan(workload: str, seed: int) -> list[dict]:
    """Calls for one repetition of `workload`, drawn from `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "coins-n10":
        point = _device_point(rng)
        return [{"call": "run_experiment",
                 "config": _config(10, point, T0_LIFETIMES, coin0=coin)}
                for coin in COINS]
    if workload == "nsweep-strong":
        base = _config(max(SWEEP_N), _device_point(rng), T0_LIFETIMES,
                       scale=0.2)
        return [{"call": "run_sweep", "config": base,
                 "n_steps": list(SWEEP_N)}]
    if workload == "ideal-n80":
        return [{"call": "run_experiment",
                 "config": _config(80, _device_point(rng), NO_NOISE)}
                for _ in range(3)]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def expected_rows(plan: list[dict]) -> list[dict]:
    """The config behind each report row the plan should produce."""
    rows = []
    for call in plan:
        if call["call"] == "run_sweep":
            rows += [{**call["config"], "n_steps": n} for n in call["n_steps"]]
        else:
            rows.append(call["config"])
    return rows
