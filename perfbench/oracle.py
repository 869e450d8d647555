"""Correctness gate: invariants on every row, and a dense oracle.

The oracle is independent of the package's operator builders and of its
integrator.  It works from the documented physics alone:

* the truncated basis of the `statespace` docstring, dim = 3N + 3:
  0 vacuum, 2j - 1 qutrit j in e, 2j qutrit j in f (j = 1..N+1),
  2(N+1) + j one photon in cavity j (j = 1..N);
* the three pulses of the `protocol` docstring: coin
  Omega (e^{i phi} |e><f| + h.c.) on every qutrit for theta / Omega,
  store g (|e_j><c_j| + h.c.) for pi / 2g, retrieve
  mu (|e_{j+1}><c_j| + h.c.) for pi / 2mu;
* rank-one jumps sqrt(rate) |a><b| for e->g, f->e, f->g relaxation,
  e and f dephasing and cavity loss, with rate = 1 / (scale * lifetime).

Each segment kind is propagated exactly by expm of its dense,
column-stacked Liouvillian.  Without collapse channels that
superoperator factorises as U (x) conj(U), so the state vector is
propagated with U = expm(-i H t) instead.  The ideal walk is a dense
(shift . coin)^N product.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg import expm

# Criterion 7's backend-agreement tolerance, applied to every reported
# probability, residual and score.
ORACLE_TOL = 1e-7
# Invariants on every row.
TOTAL_TOL = 1e-8
TRACE_TOL = 1e-8
# Rounding allowance above 1 for S and S_renorm: a noise-free N = 80 run
# reports S = 1 + 4.4e-15.
SCORE_SLACK = 1e-12

TWO_PI = 2.0 * math.pi
_COINS = {"zero": (1.0, 0.0), "one": (0.0, 1.0),
          "plus-i": (1 / math.sqrt(2.0), 1j / math.sqrt(2.0))}
_LIFETIMES = ("t1_ge_us", "t1_ef_us", "t1_gf_us", "tphi_e_us", "tphi_f_us",
              "t1_cavity_us")


def _e(j): return 2 * j - 1
def _f(j): return 2 * j
def _c(n, j): return 2 * (n + 1) + j


def _segments(cfg: dict) -> list[tuple[np.ndarray, float]]:
    """(H, duration) of the coin, store and retrieve pulses, rad/us and us."""
    n = cfg["n_steps"]
    dim = 3 * n + 3
    g = TWO_PI * cfg["g_over_2pi_mhz"]
    mu = g if cfg["mu_over_2pi_mhz"] is None else TWO_PI * cfg["mu_over_2pi_mhz"]
    omega = TWO_PI * cfg["omega_over_2pi_mhz"]
    phase = np.exp(1j * cfg["phi_rad"])
    coin = np.zeros((dim, dim), complex)
    store = np.zeros((dim, dim), complex)
    retrieve = np.zeros((dim, dim), complex)
    for j in range(1, n + 2):
        coin[_e(j), _f(j)] = omega * phase
        coin[_f(j), _e(j)] = omega * np.conj(phase)
    for j in range(1, n + 1):
        store[_e(j), _c(n, j)] = store[_c(n, j), _e(j)] = g
        retrieve[_e(j + 1), _c(n, j)] = retrieve[_c(n, j), _e(j + 1)] = mu
    return [(coin, cfg["theta_rad"] / omega), (store, math.pi / (2 * g)),
            (retrieve, math.pi / (2 * mu))]


def _jumps(cfg: dict) -> list[tuple[float, int, int]]:
    """(rate, target, source) of every open channel."""
    n = cfg["n_steps"]
    rates = {}
    for key in _LIFETIMES:
        life = cfg[key] * cfg["scale"]
        rates[key] = 0.0 if math.isinf(life) else 1.0 / life
    out = []
    for j in range(1, n + 2):
        out += [(rates["t1_ge_us"], 0, _e(j)), (rates["t1_ef_us"], _e(j), _f(j)),
                (rates["t1_gf_us"], 0, _f(j)),
                (rates["tphi_e_us"], _e(j), _e(j)),
                (rates["tphi_f_us"], _f(j), _f(j))]
    out += [(rates["t1_cavity_us"], 0, _c(n, j)) for j in range(1, n + 1)]
    return [jump for jump in out if jump[0] > 0.0]


def _liouvillian(h: np.ndarray, jumps) -> np.ndarray:
    """Dense superoperator on column-stacked vec: rho[i, j] sits at i + j*dim."""
    dim = h.shape[0]
    eye = np.eye(dim)
    liou = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    # Jump rate |a><b|: rho[b, b] feeds rho[a, a], and every rho[i, j] with
    # i == b or j == b decays at rate / 2 per matching index.
    decay = np.zeros((dim, dim))
    for rate, a, b in jumps:
        liou[a + a * dim, b + b * dim] += rate
        decay[b, :] += rate / 2
        decay[:, b] += rate / 2
    liou[np.diag_indices(dim * dim)] -= decay.reshape(-1, order="F")
    return liou


@functools.lru_cache(maxsize=4)
def _step_maps(physics: tuple) -> tuple[bool, list[np.ndarray]]:
    """(noisy, per-pulse maps): superoperators if any channel is open,
    else unitaries.  Keyed without the coin, which only sets rho0."""
    cfg = dict(physics)
    jumps = _jumps(cfg)
    if not jumps:
        return False, [expm(-1j * t * h) for h, t in _segments(cfg)]
    return True, [expm(t * _liouvillian(h, jumps)) for h, t in _segments(cfg)]


def _final_state(cfg: dict) -> np.ndarray:
    n = cfg["n_steps"]
    dim = 3 * n + 3
    c0, c1 = _COINS[cfg["coin0"]]
    psi = np.zeros(dim, complex)
    psi[_f(1)], psi[_e(1)] = c0, c1
    noisy, maps = _step_maps(tuple(sorted(
        (k, v) for k, v in cfg.items() if k != "coin0")))
    if not noisy:
        for _ in range(n):
            for u in maps:
                psi = u @ psi
        return np.outer(psi, psi.conj())
    vec = np.outer(psi, psi.conj()).reshape(-1, order="F")
    for _ in range(n):
        for prop in maps:
            vec = prop @ vec
    return vec.reshape(dim, dim, order="F")


def _ideal_walk(n: int, theta: float, coin0: str) -> np.ndarray:
    """Site probabilities of the ideal walk: coin 0 stays, coin 1 hops right."""
    sites = n + 1
    c, s = math.cos(theta), math.sin(theta)
    step = np.zeros((2 * sites, 2 * sites))
    for x in range(sites):
        # amplitude index 2x + k is site x with coin k
        step[2 * x, 2 * x], step[2 * x, 2 * x + 1] = c, s
        if x + 1 < sites:
            step[2 * x + 3, 2 * x], step[2 * x + 3, 2 * x + 1] = s, -c
    amps = np.zeros(2 * sites, complex)
    amps[0], amps[1] = _COINS[coin0]
    amps = np.linalg.matrix_power(step, n) @ amps
    return np.abs(amps[0::2]) ** 2 + np.abs(amps[1::2]) ** 2


def _score(p: np.ndarray, p_ideal: np.ndarray) -> float:
    return float(np.sum(np.sqrt(np.clip(p, 0, None) * p_ideal)) ** 2)


def expected(cfg: dict) -> dict:
    """Oracle values of the checked report fields for one config."""
    n = cfg["n_steps"]
    diag = np.real(np.diagonal(_final_state(cfg)))
    p = np.array([diag[_e(j)] + diag[_f(j)] for j in range(1, n + 2)])
    p_ideal = _ideal_walk(n, cfg["theta_rad"], cfg["coin0"])
    return {"p_me": p, "residual_vacuum": diag[0],
            "residual_cavity": float(np.sum(diag[_c(n, 1):])),
            "s": _score(p, p_ideal), "s_renorm": _score(p / p.sum(), p_ideal)}


def invariant_problems(row: dict, cfg: dict) -> list[str]:
    """Every failed invariant of one report row (empty when it passes)."""
    if row.get("error") is not None:
        return [f"error row: {row['error']}"]
    problems = []
    if (row["n_steps"], row["coin0"]) != (cfg["n_steps"], cfg["coin0"]):
        problems.append("row does not echo its config")
    values = [row[k] for k in ("s", "s_renorm", "residual_vacuum",
                               "residual_cavity", "trace_error")]
    if not np.all(np.isfinite(values + row["p_me"])):
        return problems + ["non-finite value"]
    for key in ("s", "s_renorm"):
        if not 0.0 <= row[key] <= 1.0 + SCORE_SLACK:
            problems.append(f"{key} = {row[key]!r} outside [0, 1]")
    total = sum(row["p_me"]) + row["residual_vacuum"] + row["residual_cavity"]
    if abs(total - 1.0) > TOTAL_TOL:
        problems.append(f"population total {total!r} off 1 by > {TOTAL_TOL}")
    if row["trace_error"] > TRACE_TOL:
        problems.append(f"trace_error {row['trace_error']!r} > {TRACE_TOL}")
    return problems


def oracle_problems(row: dict, want: dict) -> list[str]:
    """Fields of a row that differ from the oracle by more than ORACLE_TOL."""
    if len(row["p_me"]) != len(want["p_me"]):
        return ["P_me has the wrong length"]
    problems = []
    for key, value in want.items():
        dev = float(np.max(np.abs(np.asarray(row[key]) - value)))
        if not dev <= ORACLE_TOL:
            problems.append(f"{key} off the oracle by {dev:.3g}")
    return problems
