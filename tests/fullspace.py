"""Full tensor-product oracle for the single-excitation sector.

cqwalk works only in the 3N+3-dimensional single-excitation sector.
This module rebuilds the same experiment in the exact tensor product of
N+1 qutrits (g, e, f) and N cavities with fock_cutoff photon levels
each, dimension 3^(N+1) * cutoff^N, from embedded dense operators: the
three pulse Hamiltonians, the collapse operators (photon loss is the
cavity annihilation operator, not a single transition once the cutoff
exceeds 2), the initial state, and a readout that puts every state
outside the sector into the leakage bucket.  Each segment is propagated
by scipy's expm_multiply on the sparse Liouvillian.  It converts the
config's MHz to rad/us and numbers the sector's states itself (slot,
cavity_slot); from cqwalk it takes only the rates, pulse durations, the
ideal walk and the similarity score.

The N=2 space has dimension 108; a dense superoperator there would be
11664 x 11664 complex (about 2 GB), hence expm_multiply.  Chains above
N=3 are refused.
"""

import itertools
import math
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from cqwalk.harness import Report
from cqwalk.idealwalk import run_ideal
from cqwalk.metrics import similarity_report
from cqwalk.protocol import segment_durations

# Qutrit level codes.
G, E, F = 0, 1, 2

# Index of the sector's vacuum (cqwalk.protocol's basis ordering).
VACUUM = 0


def sector_dim(n_steps: int) -> int:
    """Dimension of the single-excitation sector of an n_steps chain."""
    return 3 * n_steps + 3


def slot(site: int, level: int) -> int:
    """Sector index of the state with qutrit `site` in E (3j - 2) or F
    (3j - 1)."""
    assert level in (E, F)
    return 3 * site - 3 + level


def cavity_slot(site: int) -> int:
    """Sector index of the one-photon state of cavity `site` (3j)."""
    return 3 * site


def device(cfg) -> tuple[float, float, float]:
    """(g, omega, mu) of an ExperimentConfig in rad/us, mu = auto as g."""
    mu = cfg.mu_over_2pi_mhz
    return tuple(2 * math.pi * f for f in (
        cfg.g_over_2pi_mhz, cfg.omega_over_2pi_mhz,
        cfg.g_over_2pi_mhz if mu is None else mu))


class FullSpace:
    """Tensor-product basis of an n_steps chain.

    labels[i] = (levels, photons) names basis state i: one level per
    qutrit and one photon number per cavity, in itertools.product order
    (qutrit 1 slowest, cavity N fastest).
    """

    def __init__(self, n_steps: int, fock_cutoff: int = 2):
        if not 1 <= n_steps <= 3:
            raise ValueError("the full space is built for n_steps 1..3 only")
        if fock_cutoff < 2:
            raise ValueError("fock_cutoff must be >= 2")
        self.n_steps = n_steps
        self.n_qutrits = n_steps + 1
        self.n_cavities = n_steps
        self.fock_cutoff = fock_cutoff
        self.labels = list(itertools.product(
            itertools.product(range(3), repeat=self.n_qutrits),
            itertools.product(range(fock_cutoff), repeat=self.n_cavities)))
        self.dim = len(self.labels)
        self._index = {label: i for i, label in enumerate(self.labels)}

    def index(self, levels, photons) -> int:
        return self._index[(tuple(levels), tuple(photons))]

    @property
    def vacuum_index(self) -> int:
        return self.index((G,) * self.n_qutrits, (0,) * self.n_cavities)

    def qutrit_transition(self, site: int, to_level: int,
                          from_level: int) -> np.ndarray:
        """|to><from| on qutrit `site`, identity elsewhere."""
        local = np.zeros((3, 3))
        local[to_level, from_level] = 1.0
        return self._embed(3 ** (site - 1), local)

    def cavity_annihilation(self, site: int) -> np.ndarray:
        """Photon annihilation operator of cavity `site`."""
        local = np.diag(np.sqrt(np.arange(1.0, self.fock_cutoff)), k=1)
        return self._embed(3 ** self.n_qutrits
                           * self.fock_cutoff ** (site - 1), local)

    def _embed(self, before: int, local: np.ndarray) -> np.ndarray:
        after = self.dim // (before * len(local))
        return np.kron(np.kron(np.eye(before), local), np.eye(after))

    def excitation_number(self) -> np.ndarray:
        """Diagonal operator counting non-ground qutrits plus photons."""
        return np.diag([float(sum(lv != G for lv in levels) + sum(photons))
                        for levels, photons in self.labels])


def sector_states(n_steps: int) -> list:
    """(index, levels, photons) of every state of the single-excitation
    sector of an n_steps chain."""
    nq, nc = n_steps + 1, n_steps
    ground, empty = (G,) * nq, (0,) * nc
    states = [(VACUUM, ground, empty)]
    for j in range(1, nq + 1):
        for level in (E, F):
            levels = ground[:j - 1] + (level,) + ground[j:]
            states.append((slot(j, level), levels, empty))
    for j in range(1, nc + 1):
        photons = empty[:j - 1] + (1,) + empty[j:]
        states.append((cavity_slot(j), ground, photons))
    return states


def embedding_matrix(full: FullSpace) -> np.ndarray:
    """Isometry (full.dim x sector dim) sending each state of the sector
    of full's chain to its tensor-product state."""
    v = np.zeros((full.dim, sector_dim(full.n_steps)))
    for col, levels, photons in sector_states(full.n_steps):
        v[full.index(levels, photons), col] = 1.0
    return v


# ---------------------------------------------------------------------------
# the experiment


def h_coin(full: FullSpace, cfg) -> np.ndarray:
    """sum_j Omega (e^{i phi} |e>_j<f| + h.c.)."""
    _, omega, _ = device(cfg)
    phase = np.exp(1j * cfg.phi_rad)
    h = np.zeros((full.dim, full.dim), dtype=complex)
    for j in range(1, full.n_qutrits + 1):
        ef = full.qutrit_transition(j, E, F)
        h += omega * (phase * ef + np.conj(phase) * ef.conj().T)
    return h


def _swaps(full: FullSpace, coupling: float, shift: int) -> np.ndarray:
    """sum_j coupling (a_j |e>_{j+shift}<g| + h.c.)."""
    h = np.zeros((full.dim, full.dim), dtype=complex)
    for j in range(1, full.n_cavities + 1):
        term = coupling * (full.cavity_annihilation(j)
                           @ full.qutrit_transition(j + shift, E, G))
        h += term + term.conj().T
    return h


def h_store(full: FullSpace, cfg) -> np.ndarray:
    g, _, _ = device(cfg)
    return _swaps(full, g, 0)


def h_retrieve(full: FullSpace, cfg) -> np.ndarray:
    _, _, mu = device(cfg)
    return _swaps(full, mu, 1)


def build_schedule(full: FullSpace, cfg) -> list:
    """(H, duration) of every segment of the ExperimentConfig cfg's run
    on full's chain: cfg.n_steps repetitions of coin, store, retrieve,
    one matrix per kind."""
    step = list(zip((h_coin(full, cfg), h_store(full, cfg),
                     h_retrieve(full, cfg)), segment_durations(cfg)))
    return step * cfg.n_steps


# (label prefix, DecoherenceRates field, to level, from level) per qutrit
_QUTRIT_CHANNELS = (
    ("relax_ge", "gamma_ge", G, E),
    ("relax_ef", "gamma_ef", E, F),
    ("relax_gf", "gamma_gf", G, F),
    ("dephase_e", "gamma_phi_e", E, E),
    ("dephase_f", "gamma_phi_f", F, F),
)


def collapse_operators(full: FullSpace, rates) -> list:
    """(label, sqrt(rate) L) of every open channel, labelled and ordered
    as conftest.sector_channels."""
    ops = []
    for j in range(1, full.n_qutrits + 1):
        for name, field_name, to_level, from_level in _QUTRIT_CHANNELS:
            rate = getattr(rates, field_name)
            if rate > 0.0:
                ops.append((f"{name}_q{j}", math.sqrt(rate)
                            * full.qutrit_transition(j, to_level, from_level)))
    if rates.kappa > 0.0:
        for j in range(1, full.n_cavities + 1):
            ops.append((f"loss_c{j}", math.sqrt(rates.kappa)
                        * full.cavity_annihilation(j)))
    return ops


def initial_density_matrix(full: FullSpace, coin) -> np.ndarray:
    """Walker on qutrit 1 with coin (c0 -> f, c1 -> e), rest in vacuum."""
    rest, photons = (G,) * full.n_steps, (0,) * full.n_cavities
    psi = np.zeros(full.dim, dtype=complex)
    psi[full.index((F,) + rest, photons)] = coin.c0
    psi[full.index((E,) + rest, photons)] = coin.c1
    return np.outer(psi, psi.conj())


def extract_distribution(rho: np.ndarray, full: FullSpace) -> tuple:
    """Walker readout (p_me, residual_vacuum, residual_cavity): one
    excited qutrit and no photon is the walker at that site, the joint
    ground state is the vacuum, and everything else (photons in flight,
    several excitations) is residual_cavity."""
    diag = np.real(np.diagonal(rho))
    p = np.zeros(full.n_qutrits)
    vac = cav = 0.0
    for idx, (levels, photons) in enumerate(full.labels):
        excited = [j for j, lv in enumerate(levels) if lv != G]
        if not excited and not any(photons):
            vac += diag[idx]
        elif len(excited) == 1 and not any(photons):
            p[excited[0]] += diag[idx]
        else:
            cav += diag[idx]
    return p, float(vac), float(cav)


# ---------------------------------------------------------------------------
# propagation


def liouvillian_matrix(h: np.ndarray, ops) -> sp.csr_matrix:
    """Sparse Liouvillian of H and the (dense or sparse) collapse
    operators ops, with vec(A rho B) = (A kron B^T) vec(rho), row-major."""
    dim = h.shape[0]
    eye = sp.identity(dim, format="csr")
    hs = sp.csr_matrix(h)
    liou = -1j * (sp.kron(hs, eye) - sp.kron(eye, hs.T))
    for op in ops:
        op = sp.csr_matrix(op)
        anti = op.conj().T @ op
        liou = liou + sp.kron(op, op.conj()) \
            - 0.5 * sp.kron(anti, eye) - 0.5 * sp.kron(eye, anti.T)
    return sp.csr_matrix(liou)


def evolve(rho0: np.ndarray, schedule, ops):
    """(rho, max trace error, max Hermiticity drift) of the (H, duration)
    schedule run by expm_multiply, re-symmetrizing rho after every
    segment; the drift is taken before that."""
    generators = {}
    rho = np.array(rho0, dtype=complex)
    trace_errors, drifts = [0.0], [0.0]
    for h, duration in schedule:
        key = (id(h), duration)
        if key not in generators:
            generators[key] = duration * liouvillian_matrix(h, ops)
        rho = expm_multiply(generators[key], rho.reshape(-1)).reshape(rho.shape)
        skew = rho - rho.conj().T
        drifts.append(float(np.abs(skew).max()))
        rho -= 0.5 * skew
        trace_errors.append(abs(float(rho.trace().real) - 1.0))
    return rho, float(np.max(trace_errors)), float(np.max(drifts))


def run_experiment(cfg, fock_cutoff: int = 2) -> Report:
    """cqwalk.run_experiment's Report of cfg, computed in the full space."""
    start = time.perf_counter()
    full = FullSpace(cfg.n_steps, fock_cutoff)
    ops = [op for _, op in collapse_operators(full, cfg.rates())]
    rho, trace_error, drift = evolve(
        initial_density_matrix(full, cfg.coin()),
        build_schedule(full, cfg), ops)
    p_me, vacuum, cavity = extract_distribution(rho, full)
    p_id = run_ideal(cfg.n_steps, cfg.theta_rad, cfg.walked_coin())
    s, s_renorm = similarity_report(p_me, p_id)
    mu = cfg.mu_over_2pi_mhz
    return Report(
        n_steps=cfg.n_steps, g_over_2pi_mhz=cfg.g_over_2pi_mhz,
        omega_over_2pi_mhz=cfg.omega_over_2pi_mhz,
        mu_over_2pi_mhz=cfg.g_over_2pi_mhz if mu is None else mu,
        theta_rad=cfg.theta_rad, coin0=cfg.coin0, scale=cfg.scale,
        s=s, s_renorm=s_renorm, residual_vacuum=vacuum,
        residual_cavity=cavity, trace_error=trace_error,
        wall_ms=1e3 * (time.perf_counter() - start), p_me=p_me, p_id=p_id,
        max_hermiticity_drift=drift,
        min_eigenvalue=float(np.linalg.eigvalsh(rho)[0]))
