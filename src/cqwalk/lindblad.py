"""Lindblad master-equation evolution of the pulse schedule.

The density matrix evolves under

    drho/dt = -i [H, rho] + sum_k ( L_k rho L_k+ - 1/2 {L_k+ L_k, rho} )

with piecewise-constant H given by the schedule segments.  Collapse
operators cover cavity photon loss, the three qutrit relaxation
channels e->g, f->e, f->g, and pure dephasing of the e and f levels
(L = sqrt(gamma_phi) |l><l|, so the bare coherences to the ground state
decay at gamma_phi / 2).

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
    scipy.sparse.linalg.expm_multiply on the sparse Liouvillian, with
    vec(A rho B) = (A kron B^T) vec(rho) in row-major order.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm

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
    """Collapse operators with the sqrt(rate) already folded in."""

    ops: tuple[np.ndarray, ...]
    labels: tuple[str, ...]

    def __len__(self):
        return len(self.ops)


def build_collapse_set(space: StateSpace, rates: DecoherenceRates) -> CollapseSet:
    """All collapse operators of the chain; zero-rate channels dropped.

    Five channels per qutrit plus one per cavity, so a chain with q
    qutrits and c cavities has 5q + c operators when every rate is
    nonzero.
    """
    ops, labels = [], []

    def add(rate, op, label):
        if rate > 0.0:
            ops.append(math.sqrt(rate) * op)
            labels.append(label)

    for j in range(1, space.n_qutrits + 1):
        add(rates.gamma_ge, space.qutrit_transition(j, G, E), f"relax_ge_q{j}")
        add(rates.gamma_ef, space.qutrit_transition(j, E, F), f"relax_ef_q{j}")
        add(rates.gamma_gf, space.qutrit_transition(j, G, F), f"relax_gf_q{j}")
        add(rates.gamma_phi_e, space.qutrit_transition(j, E, E), f"dephase_e_q{j}")
        add(rates.gamma_phi_f, space.qutrit_transition(j, F, F), f"dephase_f_q{j}")
    for j in range(1, space.n_cavities + 1):
        add(rates.kappa, space.cavity_annihilation(j), f"loss_c{j}")
    return CollapseSet(tuple(np.asarray(o, dtype=complex) for o in ops),
                       tuple(labels))


# ---------------------------------------------------------------------------
# superoperators


def lindblad_apply(rho: np.ndarray, h: np.ndarray,
                   collapse: CollapseSet) -> np.ndarray:
    """Right-hand side of the master equation, applied densely.

    Reference implementation used to cross-check the sparse
    Liouvillian; O(dim^3) per call.
    """
    out = -1j * (h @ rho - rho @ h)
    for op in collapse.ops:
        opd = op.conj().T
        anti = opd @ op
        out += op @ rho @ opd - 0.5 * (anti @ rho + rho @ anti)
    return out


def liouvillian_matrix(h: np.ndarray, collapse: CollapseSet) -> sp.csr_matrix:
    """Sparse Liouvillian with vec(A rho B) = (A kron B^T) vec(rho)."""
    dim = h.shape[0]
    eye = sp.identity(dim, format="csr")
    hs = sp.csr_matrix(h)
    liou = -1j * (sp.kron(hs, eye) - sp.kron(eye, hs.T))
    for op in collapse.ops:
        ops = sp.csr_matrix(op)
        anti = sp.csr_matrix(op.conj().T @ op)
        liou = liou + sp.kron(ops, ops.conj()) \
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


def _basis_jumps(collapse: CollapseSet,
                 dim: int) -> list[tuple[int, int, float]] | None:
    """(target, source, rate) of each operator sqrt(rate) |a><b|, or None
    when some operator is not a single basis transition."""
    jumps = []
    for op in collapse.ops:
        nz = np.flatnonzero(op)
        if len(nz) != 1:
            return None
        a, b = divmod(int(nz[0]), dim)
        jumps.append((a, b, float(abs(op[a, b]) ** 2)))
    return jumps


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
    for blk in blocks:
        sub = np.ix_(blk, blk)
        v[sub] = expm(-1j * duration * h_eff[sub])
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
    parts = []
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
            gen[off:off + n, off:off + n] = (-1j * np.kron(he, eye)
                                             + 1j * np.kron(eye, he.conj()))
            off += n
        for a, b, rate in own:
            gen[pos[a, a], pos[b, b]] += rate
        # columns of the main entries only: a sink starts each group at 0
        # and collects that group's inflow
        prop = expm(duration * gen)[:, :len(entries)]
        parts.append((tuple(np.array(entries).T), (sinks, sinks), prop))

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

    The block form is used whenever every collapse operator is a single
    basis transition (the whole truncated sector, with or without
    noise); anything else falls back to the sparse Liouvillian.
    """
    jumps = _basis_jumps(collapse, h.shape[0])
    if jumps is None:
        return _sparse_propagator(h, duration, collapse)
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
# state checks and snapshot files


def density_matrix_checks(rho: np.ndarray) -> dict[str, float]:
    """trace_error, hermiticity, min_eigenvalue of a candidate state."""
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    tr = abs(float(np.trace(rho).real) - 1.0)
    sym = 0.5 * (rho + rho.conj().T)
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    return {"trace_error": tr, "hermiticity": herm, "min_eigenvalue": min_eig}


_SNAP_MAGIC = b"CQWS"


def save_snapshots(path, times, snapshots) -> None:
    """Binary snapshot file.

    Layout: magic "CQWS", then uint64 count, uint64 dim (little
    endian), then count records of one float64 time followed by
    dim*dim complex128 entries in row-major order.
    """
    times = np.asarray(times, dtype=float)
    if len(times) != len(snapshots):
        raise ValueError("times and snapshots length mismatch")
    dim = snapshots[0].shape[0] if snapshots else 0
    with open(path, "wb") as fh:
        fh.write(_SNAP_MAGIC)
        fh.write(struct.pack("<QQ", len(times), dim))
        for t, rho in zip(times, snapshots):
            if rho.shape != (dim, dim):
                raise ValueError("inconsistent snapshot shapes")
            fh.write(struct.pack("<d", float(t)))
            fh.write(np.ascontiguousarray(rho, dtype=complex).tobytes())


def load_snapshots(path) -> tuple[np.ndarray, list[np.ndarray]]:
    with open(path, "rb") as fh:
        if fh.read(4) != _SNAP_MAGIC:
            raise ValueError("not a snapshot file")
        count, dim = struct.unpack("<QQ", fh.read(16))
        times = np.empty(count)
        snaps = []
        for i in range(count):
            times[i] = struct.unpack("<d", fh.read(8))[0]
            buf = fh.read(16 * dim * dim)
            snaps.append(np.frombuffer(buf, dtype=complex).reshape(dim, dim).copy())
    return times, snaps
