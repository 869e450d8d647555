"""Lindblad master-equation evolution of the pulse schedule.

The density matrix evolves under

    drho/dt = -i [H, rho] + sum_k ( L_k rho L_k+ - 1/2 {L_k+ L_k, rho} )

with piecewise-constant H given by the schedule segments.  Collapse
operators cover cavity photon loss, the three qutrit relaxation
channels e->g, f->e, f->g, and pure dephasing of the e and f levels
(L = sqrt(gamma_phi) |l><l|, so the bare coherences to the ground state
decay at gamma_phi / 2).  A CollapseSet stores each operator as its
nonzero entries; in the truncated sector every operator is one basis
transition, so build_collapse_set writes that single entry by index and
no dim x dim matrix is formed.

Each segment is propagated exactly; the map is compiled once per
distinct (H, duration) of a schedule.  The input picks the form:

block form (every L_k is one basis transition sqrt(gamma_k) |a_k><b_k|)
    The generator splits as -i (H_eff rho - rho H_eff+) + J(rho) with
    H_eff = H - i Gamma / 2, Gamma = sum_k gamma_k |b_k><b_k|, and
    J(rho) = sum_k gamma_k rho_bb |a_k><a_k|.  J reads and writes only
    diagonal entries, and H_eff is block diagonal on the connected
    components of H.  So every entry outside the diagonal blocks of rho
    evolves exactly as V rho V+ with V = expm(-i t H_eff), computed per
    block, and the diagonal blocks form a closed linear system whose
    propagator P = expm(t L_diag) then overwrites them.  L_diag is
    exponentiated per group of blocks linked by jumps; a decay-free 1x1
    block (the vacuum) only collects inflow and is shared by the groups
    that feed it.  In the truncated sector the blocks are 2x2 (coin
    e_j<->f_j, store e_j<->c_j, retrieve c_j<->e_{j+1}), so both maps
    cost O(dim) to build and V rho V+ costs O(dim^2) to apply.
sparse form (anything else: the full tensor-product oracle)
    scipy.sparse.linalg.expm_multiply on the sparse Liouvillian, built
    from the operators' entries as csr, with
    vec(A rho B) = (A kron B^T) vec(rho) in row-major order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .protocol import SEG_RETRIEVE, Schedule
from .statespace import E, F, G, StateSpace


class IntegrationError(RuntimeError):
    """Raised when a run's numerical diagnostics rule its result out."""


# ---------------------------------------------------------------------------
# decoherence channels


@dataclass(frozen=True)
class DecoherenceRates:
    """Channel rates in 1/us (inverse lifetimes).

    kappa         cavity photon loss
    gamma_ge      qutrit e -> g relaxation
    gamma_ef      qutrit f -> e relaxation
    gamma_gf      qutrit f -> g relaxation
    gamma_phi_e   pure dephasing of e
    gamma_phi_f   pure dephasing of f
    """

    kappa: float = 0.0
    gamma_ge: float = 0.0
    gamma_ef: float = 0.0
    gamma_gf: float = 0.0
    gamma_phi_e: float = 0.0
    gamma_phi_f: float = 0.0

    def __post_init__(self):
        for name, val in self.as_dict().items():
            if val < 0 or not math.isfinite(val):
                raise ValueError(f"rate {name} must be finite and >= 0")

    def as_dict(self) -> dict[str, float]:
        return {
            "kappa": self.kappa,
            "gamma_ge": self.gamma_ge,
            "gamma_ef": self.gamma_ef,
            "gamma_gf": self.gamma_gf,
            "gamma_phi_e": self.gamma_phi_e,
            "gamma_phi_f": self.gamma_phi_f,
        }

    @classmethod
    def zero(cls) -> "DecoherenceRates":
        return cls()

    @classmethod
    def from_lifetimes_us(cls, t_cavity: float = math.inf,
                          t_ge: float = math.inf, t_ef: float = math.inf,
                          t_gf: float = math.inf, t_phi_e: float = math.inf,
                          t_phi_f: float = math.inf) -> "DecoherenceRates":
        """Rates from lifetimes in us; math.inf switches a channel off."""
        inv = lambda t: 0.0 if math.isinf(t) else 1.0 / t
        return cls(kappa=inv(t_cavity), gamma_ge=inv(t_ge),
                   gamma_ef=inv(t_ef), gamma_gf=inv(t_gf),
                   gamma_phi_e=inv(t_phi_e), gamma_phi_f=inv(t_phi_f))

    @classmethod
    def t0(cls, scale: float = 1.0) -> "DecoherenceRates":
        """Baseline device: 10 us loss/relaxation, 5 us dephasing.

        scale multiplies every lifetime, so scale=5 is a five-fold
        better device and scale=0.2 a five-fold worse one.
        """
        return cls.from_lifetimes_us(
            t_cavity=10.0, t_ge=10.0, t_ef=10.0, t_gf=10.0,
            t_phi_e=5.0, t_phi_f=5.0).scaled(scale)

    def scaled(self, lifetime_factor: float) -> "DecoherenceRates":
        """New rates with every lifetime multiplied by lifetime_factor."""
        if lifetime_factor <= 0:
            raise ValueError("lifetime factor must be positive")
        return DecoherenceRates(
            **{k: v / lifetime_factor for k, v in self.as_dict().items()})


@dataclass(frozen=True)
class CollapseSet:
    """Collapse operators as their nonzero entries, sqrt(rate) folded in.

    channels[k] = (rows, cols, values) says that operator k has entries
    values at (rows, cols) and zeros elsewhere.  A truncated-sector
    channel is one basis transition, a single entry.
    """

    channels: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    labels: tuple[str, ...]

    def __len__(self):
        return len(self.channels)


# (label prefix, DecoherenceRates field, to level, from level) per qutrit
_QUTRIT_CHANNELS = (
    ("relax_ge", "gamma_ge", G, E),
    ("relax_ef", "gamma_ef", E, F),
    ("relax_gf", "gamma_gf", G, F),
    ("dephase_e", "gamma_phi_e", E, E),
    ("dephase_f", "gamma_phi_f", F, F),
)


def _entries(op: np.ndarray):
    rows, cols = np.nonzero(op)
    return rows, cols, op[rows, cols]


def build_collapse_set(space: StateSpace, rates: DecoherenceRates) -> CollapseSet:
    """All collapse operators of the chain; zero-rate channels dropped.

    Five channels per qutrit plus one per cavity, so a chain with q
    qutrits and c cavities has 5q + c operators when every rate is
    nonzero.  A zero-rate channel is skipped before anything is built.
    In truncated mode each channel is one transition |a><b| of the
    sector basis, found by index arithmetic (|g>_j<l| on qutrit j in l
    leaves the vacuum); in full mode the entries are read off the
    embedded tensor-product operator.
    """
    truncated = space.mode == "truncated"
    channels, labels = [], []

    def add(rate, label, rows, cols, values):
        channels.append((np.asarray(rows), np.asarray(cols),
                         math.sqrt(rate) * np.asarray(values, dtype=complex)))
        labels.append(label)

    def index(j, level):
        return space.vacuum_index if level == G else space.qutrit_index(j, level)

    for j in range(1, space.n_qutrits + 1):
        for name, field_name, to_level, from_level in _QUTRIT_CHANNELS:
            rate = getattr(rates, field_name)
            if rate <= 0.0:
                continue
            if truncated:
                add(rate, f"{name}_q{j}", [index(j, to_level)],
                    [index(j, from_level)], [1.0])
            else:
                add(rate, f"{name}_q{j}", *_entries(
                    space.qutrit_transition(j, to_level, from_level)))
    if rates.kappa > 0.0:
        for j in range(1, space.n_cavities + 1):
            if truncated:
                add(rates.kappa, f"loss_c{j}", [space.vacuum_index],
                    [space.cavity_index(j)], [1.0])
            else:
                add(rates.kappa, f"loss_c{j}",
                    *_entries(space.cavity_annihilation(j)))
    return CollapseSet(tuple(channels), tuple(labels))


# ---------------------------------------------------------------------------
# superoperators


def liouvillian_matrix(h: np.ndarray, collapse: CollapseSet) -> sp.csr_matrix:
    """Sparse Liouvillian with vec(A rho B) = (A kron B^T) vec(rho)."""
    dim = h.shape[0]
    eye = sp.identity(dim, format="csr")
    hs = sp.csr_matrix(h)
    liou = -1j * (sp.kron(hs, eye) - sp.kron(eye, hs.T))
    for rows, cols, values in collapse.channels:
        op = sp.csr_matrix((values, (rows, cols)), shape=(dim, dim))
        anti = op.conj().T @ op
        liou = liou + sp.kron(op, op.conj()) \
            - 0.5 * sp.kron(anti, eye) - 0.5 * sp.kron(eye, anti.T)
    return sp.csr_matrix(liou)


# ---------------------------------------------------------------------------
# segment propagators


def _components(n: int, edges) -> list[list[int]]:
    """Connected components of nodes 0..n-1, each in ascending order."""
    root = list(range(n))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i, j in edges:
        root[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _expm_small(mats: list[np.ndarray]) -> list[np.ndarray]:
    """Matrix exponential of each of many small square matrices.

    The matrices are zero-padded to one size (the exponential of a padded
    block is the block's exponential padded by I) and exponentiated as
    one stack, by scaling and squaring around a degree-16 Taylor
    polynomial (remainder below 1e-19 once the 1-norm is at most 1/2), in
    plain numpy.  scipy.linalg.expm runs its Pade step through a threaded
    BLAS, whose thread pool costs far more than these few-by-few products
    and ties the runtime to the host's load.
    """
    if not mats:
        return []
    size = max(len(m) for m in mats)
    a = np.zeros((len(mats), size, size), dtype=complex)
    for k, m in enumerate(mats):
        a[k, :len(m), :len(m)] = m
    norm = float(np.abs(a).sum(axis=1).max())
    if not math.isfinite(norm):
        raise IntegrationError(f"segment generator has 1-norm {norm}")
    # least squarings with norm / 2**squarings <= 1/2: norm = m 2**e with
    # m in [1/2, 1), read exactly from the float
    mantissa, exponent = math.frexp(norm)
    squarings = max(0, exponent + (mantissa > 0.5))
    a *= 2.0 ** -squarings             # exact; 2.0 ** 1025 would overflow
    eye = np.eye(size)
    exp_a = eye + a / 16
    for k in range(15, 0, -1):                # Horner: I + a/k (I + ...)
        exp_a = eye + (a @ exp_a) / k
    for _ in range(squarings):
        exp_a = exp_a @ exp_a
    return [e[:len(m), :len(m)] for e, m in zip(exp_a, mats)]


def _block_propagator(h: np.ndarray, duration: float,
                      jumps: list[tuple[int, int, float]]):
    """Exact segment map for rank-one jumps (see the module docstring)."""
    dim = h.shape[0]
    gamma = np.zeros(dim)
    for _, b, rate in jumps:
        gamma[b] += rate
    h_eff = h - 0.5j * np.diag(gamma)

    # V = expm(-i t H_eff), one block at a time
    blocks = _components(dim, zip(*np.nonzero(h)))
    v = np.zeros((dim, dim), dtype=complex)
    for blk, vb in zip(blocks, _expm_small(
            [-1j * duration * h_eff[np.ix_(blk, blk)] for blk in blocks])):
        v[np.ix_(blk, blk)] = vb
    v = sp.csr_matrix(v)
    v_conj = v.conj()

    # Diagonal blocks: one closed system per group of blocks linked by
    # jumps.  A decay-free 1x1 block (the vacuum) only collects inflow,
    # so it joins every group that feeds it instead of merging them.
    block_of = np.empty(dim, dtype=int)
    for k, blk in enumerate(blocks):
        block_of[blk] = k
    jumps_from = [[] for _ in blocks]
    for jump in jumps:
        jumps_from[block_of[jump[1]]].append(jump)

    def is_sink(i):
        k = block_of[i]
        return len(blocks[k]) == 1 and not jumps_from[k]

    links = [(block_of[a], block_of[b]) for a, b, _ in jumps if not is_sink(a)]
    parts, gens = [], []
    for group in _components(len(blocks), links):
        own = [jump for k in group for jump in jumps_from[k]]
        if not own:
            continue                      # untouched by jumps: V is exact
        entries = [(p, q) for k in group for p in blocks[k] for q in blocks[k]]
        sinks = sorted({a for a, _, _ in own if is_sink(a)})
        pos = {pq: n for n, pq in enumerate(entries + [(s, s) for s in sinks])}
        gen = np.zeros((len(pos), len(pos)), dtype=complex)
        off = 0
        for k in group:
            he = h_eff[np.ix_(blocks[k], blocks[k])]
            eye = np.eye(len(he))
            n = len(he) ** 2
            # -i kron(he, eye) + i kron(eye, he*), without np.kron's overhead
            gen[off:off + n, off:off + n] = (
                -1j * he[:, None, :, None] * eye[None, :, None, :]
                + 1j * eye[:, None, :, None] * he.conj()[None, :, None, :]
            ).reshape(n, n)
            off += n
        for a, b, rate in own:
            gen[pos[a, a], pos[b, b]] += rate
        parts.append((tuple(np.array(entries).T), (sinks, sinks)))
        gens.append(duration * gen)
    # columns of the main entries only: a sink starts each group at 0 and
    # collects that group's inflow
    parts = [(entries, sinks, prop[:, :len(entries[0])])
             for (entries, sinks), prop in zip(parts, _expm_small(gens))]

    def propagate(rho):
        before = [rho[entries] for entries, _, _ in parts]
        out = (v_conj @ (v @ rho).T).T          # V rho V+
        for (entries, sinks, prop), x in zip(parts, before):
            y = prop @ x
            out[entries] = y[:len(x)]
            out[sinks] += y[len(x):]
        return out

    return propagate


def _sparse_propagator(h: np.ndarray, duration: float,
                       collapse: CollapseSet):
    """Action of expm(t L) on vec(rho) for general collapse operators."""
    from scipy.sparse.linalg import expm_multiply

    liou = duration * liouvillian_matrix(h, collapse)
    return lambda rho: expm_multiply(liou, rho.reshape(-1)).reshape(rho.shape)


def compile_segment(h: np.ndarray, duration: float, collapse: CollapseSet):
    """Exact propagator rho -> rho(duration) of one constant-H segment.

    The block form is used whenever every collapse operator has one
    entry, a single basis transition (the whole truncated sector, with
    or without noise); anything else falls back to the sparse
    Liouvillian.
    """
    if any(len(rows) != 1 for rows, _, _ in collapse.channels):
        return _sparse_propagator(h, duration, collapse)
    jumps = [(int(rows[0]), int(cols[0]), float(abs(values[0]) ** 2))
             for rows, cols, values in collapse.channels]
    return _block_propagator(h, duration, jumps)


# ---------------------------------------------------------------------------
# evolution


@dataclass
class SegmentStats:
    substeps: int                 # time steps taken; 0, every map is exact
    trace_error: float
    hermiticity_drift: float


def evolve_segment(rho: np.ndarray, h: np.ndarray, duration: float,
                   collapse: CollapseSet, propagator=None
                   ) -> tuple[np.ndarray, SegmentStats]:
    """Propagate rho through one constant-H segment.

    propagator is the segment's compile_segment result, compiled here
    when not given.  Returns the re-symmetrized state and per-segment
    diagnostics (the hermiticity drift is measured before the
    symmetrization that removes it).
    """
    if propagator is None:
        propagator = compile_segment(h, duration, collapse)
    out = propagator(rho)
    drift = float(np.max(np.abs(out - out.conj().T)))
    out = 0.5 * (out + out.conj().T)
    trace_error = abs(float(np.trace(out).real) - 1.0)
    return out, SegmentStats(0, trace_error, drift)


@dataclass
class EvolutionResult:
    """Final state plus accumulated diagnostics of one schedule run.

    snapshots/times hold the recorded states (always including t=0 when
    recording is on); max_trace_error and max_hermiticity_drift are the
    worst values seen across all segments, NaN if any segment gave NaN.
    """

    rho: np.ndarray
    times: np.ndarray
    snapshots: list[np.ndarray] = field(default_factory=list)
    max_trace_error: float = 0.0
    max_hermiticity_drift: float = 0.0


def evolve_schedule(rho0: np.ndarray, schedule: Schedule,
                    collapse: CollapseSet,
                    record: str = "none") -> EvolutionResult:
    """Run the whole pulse program.

    Each distinct (H, duration) is compiled once; the schedule shares
    one Hamiltonian per segment kind, so that is three compilations.
    record: "none", "steps" (snapshot after each walk step) or
    "segments" (after every pulse).
    """
    if record not in ("none", "steps", "segments"):
        raise ValueError(f"unknown record mode {record!r}")
    rho = np.array(rho0, dtype=complex)
    t = 0.0
    times, snaps = [], []
    if record != "none":
        times.append(0.0)
        snaps.append(rho.copy())
    propagators = {}
    trace_errors, drifts = [0.0], [0.0]
    for seg in schedule:
        key = (id(seg.hamiltonian), seg.duration)
        if key not in propagators:
            propagators[key] = compile_segment(seg.hamiltonian, seg.duration,
                                               collapse)
        rho, stats = evolve_segment(rho, seg.hamiltonian, seg.duration,
                                    collapse, propagators[key])
        t += seg.duration
        trace_errors.append(stats.trace_error)
        drifts.append(stats.hermiticity_drift)
        if record == "segments" or (record == "steps"
                                    and seg.label == SEG_RETRIEVE):
            times.append(t)
            snaps.append(rho.copy())
    # np.max, unlike max(), keeps a NaN from any segment
    return EvolutionResult(rho=rho, times=np.asarray(times), snapshots=snaps,
                           max_trace_error=float(np.max(trace_errors)),
                           max_hermiticity_drift=float(np.max(drifts)))


# ---------------------------------------------------------------------------
# state checks


def density_matrix_checks(rho: np.ndarray) -> dict[str, float]:
    """trace_error, hermiticity, min_eigenvalue of a candidate state."""
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    tr = abs(float(np.trace(rho).real) - 1.0)
    sym = 0.5 * (rho + rho.conj().T)
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    return {"trace_error": tr, "hermiticity": herm, "min_eigenvalue": min_eig}
