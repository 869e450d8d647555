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

site-local form (the single-excitation sector)
    The sector basis is reordered by site: the vacuum, then the
    triplets (e_j, f_j, c_j), then one empty slot where c_{N+1} would
    be.  Coin (e_j<->f_j) and store (e_j<->c_j) act within the
    triplets; retrieve (c_{j-1}<->e_j) acts within the same array
    shifted by one slot, on (c_{j-1}, e_j, f_j), with the vacuum in
    place of c_0.  Every collapse operator is one transition
    sqrt(gamma_k) |a_k><b_k| whose target a_k lies in the triplet of
    b_k or is the vacuum.  The generator splits as
    -i (H_eff rho - rho H_eff+) + J(rho) with H_eff = H - i Gamma / 2,
    Gamma = sum_k gamma_k |b_k><b_k|, and
    J(rho) = sum_k gamma_k rho_bb |a_k><a_k|.  H_eff is block diagonal
    on the triplets and J writes only diagonal entries, so every entry
    outside the triplets' diagonal blocks evolves as V rho V+ with
    V = expm(-i t H_eff), one 3x3 map per site.  Each diagonal block
    follows its own closed 9-dimensional system, and a tenth row of that
    system sums the block's outflow into the vacuum; the vacuum has no
    dynamics of its own, so its population just collects these sums.
    Compiling a segment exponentiates these few-by-few generators of
    every site as one numpy stack.  Each map is applied as a batched
    matmul on reshaped views of rho.  Since the walker moves at most one
    site per retrieve, only a leading block of the reordered rho is
    nonzero: evolve_schedule reads that block's size off rho0 and grows
    it segment by segment, so a walk from site 1 touches at most
    (3n+4)^2 entries at step n.  Up to step n such a walk never meets a
    site map beyond site n+1, so its leading 3n+3 slots then hold, bit
    for bit, the final state of an n-step chain; evolve_schedule can
    read every shorter run out of one longer one.
sparse form (anything else: the full tensor-product oracle)
    scipy.sparse.linalg.expm_multiply on the sparse Liouvillian, built
    from the operators' entries as csr, with
    vec(A rho B) = (A kron B^T) vec(rho) in row-major order.  scipy is
    imported only here, so a sector run never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .protocol import SEG_RETRIEVE, Schedule, Segment
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


def liouvillian_matrix(h: np.ndarray, collapse: CollapseSet):
    """Sparse (csr) Liouvillian with vec(A rho B) = (A kron B^T) vec(rho)."""
    import scipy.sparse as sp

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
    # most sites share their generator: exponentiate each distinct one once
    keys = [(len(m), np.asarray(m, dtype=complex).tobytes()) for m in mats]
    distinct = dict(zip(keys, mats))
    size = max(len(m) for m in mats)
    a = np.zeros((len(distinct), size, size), dtype=complex)
    for k, m in enumerate(distinct.values()):
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
    exps = {key: e[:key[0], :key[0]] for key, e in zip(distinct, exp_a)}
    return [exps[key] for key in keys]


def _site_order(n_steps: int) -> np.ndarray:
    """Sector index of each slot of the site layout of an n_steps chain
    (the trailing empty slot has none)."""
    space = StateSpace(n_steps)
    order = [space.vacuum_index]
    for j in range(1, space.n_qutrits + 1):
        order += [space.qutrit_index(j, E), space.qutrit_index(j, F)]
        if j <= space.n_cavities:
            order.append(space.cavity_index(j))
    return np.array(order)


def _site_frame(dim: int, collapse: CollapseSet):
    """The site layout of a sector of dimension dim, or None.

    Returns (order, slot, jumps): order[s] is the sector index held by
    layout slot s (the trailing empty slot has none), slot inverts it,
    and jumps holds the collapse channels as (target slot, source slot,
    rate) arrays.  None unless dim = 3N+3 for some N >= 1 and every
    channel is one entry.
    """
    if dim % 3 or dim < 6 or any(
            len(rows) != 1 for rows, _, _ in collapse.channels):
        return None
    order = _site_order(dim // 3 - 1)
    slot = np.empty(dim, dtype=int)
    slot[order] = np.arange(dim)
    channels = collapse.channels
    jumps = (np.array([slot[rows[0]] for rows, _, _ in channels], dtype=int),
             np.array([slot[cols[0]] for _, cols, _ in channels], dtype=int),
             np.array([abs(values[0]) ** 2 for _, _, values in channels]))
    return order, slot, jumps


def _triplets(a: np.ndarray, offset: int, count: int) -> np.ndarray:
    """Writable (count, 3, 3) view of the 3x3 diagonal blocks of the
    square array a, the first starting at slot offset."""
    s0, s1 = a.strides
    return as_strided(a[offset:, offset:], shape=(count, 3, 3),
                      strides=(3 * (s0 + s1), s0, s1))


@dataclass(frozen=True)
class _SiteMaps:
    """Exact map of one segment in the site layout (module docstring).

    Site j (0-based) covers slots offset + 3j .. offset + 3j + 2; slot 0
    is the vacuum either way.  v[j] is expm(-i t H_eff) on site j,
    blocks[j] maps its diagonal block, read row-major, and sink[j] gives
    that block's outflow into the vacuum.  blocks and sink are None when
    nothing decays.
    """

    offset: int
    v: np.ndarray
    blocks: np.ndarray | None
    sink: np.ndarray | None

    def apply(self, rho: np.ndarray, size: int) -> int:
        """Propagate rho in place, given that only its leading size x size
        block is nonzero; return the size of that block afterwards."""
        sites = min(len(self.v), max(0, -(-(size - self.offset) // 3)))
        end = self.offset + 3 * sites
        a = rho[:end, :end]
        if self.blocks is not None:
            triplets = _triplets(a, self.offset, sites)
            before = triplets.copy().reshape(sites, 9)
        rows = a[self.offset:]                               # V rho
        rows[...] = np.matmul(self.v[:sites], rows.reshape(sites, 3, end)
                              ).reshape(rows.shape)
        cols = a.T[self.offset:]                             # (rho V+)^T
        cols[...] = np.matmul(self.v[:sites].conj(),
                              cols.reshape(sites, 3, end)).reshape(cols.shape)
        if self.blocks is not None:
            triplets[...] = np.matmul(self.blocks[:sites], before[:, :, None]
                                      ).reshape(sites, 3, 3)
            a[0, 0] += (self.sink[:sites] * before).sum()
        return end


def _site_maps(h: np.ndarray, duration: float, slot: np.ndarray,
               jumps) -> _SiteMaps | None:
    """Compile one segment into per-site maps, or None when a term of h
    or a jump does not fit the site structure.

    Coin and store fit the triplets from slot 1 and retrieve those from
    slot 0.  The vacuum (slot 0) must have no terms and no decay.
    """
    sites = (len(slot) + 1) // 3
    rows, cols = np.nonzero(h)
    values = h[rows, cols]
    row, col = slot[rows], slot[cols]
    target, source, rate = jumps
    for offset in (1, 0):
        if (np.all(row > 0) and np.all(col > 0) and np.all(source > 0)
                and np.array_equal((row - offset) // 3, (col - offset) // 3)
                and np.all((target == 0) | ((target - offset) // 3
                                            == (source - offset) // 3))):
            break
    else:
        return None

    h_eff = np.zeros((sites, 3, 3), dtype=complex)
    h_eff[(row - offset) // 3, (row - offset) % 3, (col - offset) % 3] = values
    site, pos = np.divmod(source - offset, 3)
    np.add.at(h_eff, (site, pos, pos), -0.5j * rate)
    inflow = np.zeros((sites, 3, 3))       # [j, a, b]: rate of b -> a
    sink = np.zeros((sites, 3))            # [j, b]: rate of b -> vacuum
    inner = target > 0
    np.add.at(inflow, (site[inner], (target[inner] - offset) % 3, pos[inner]),
              rate[inner])
    np.add.at(sink, (site[~inner], pos[~inner]), rate[~inner])

    # a duration times a rate may overflow; _expm_small then reports the
    # non-finite generator, so numpy need not warn first
    with np.errstate(over="ignore"):
        mats = list(-1j * duration * h_eff)
        if rate.size:
            # diagonal block B of a site, read row-major (index 3p + q),
            # plus an accumulator for its outflow into the vacuum (index
            # 9): -i kron(h_eff, I) + i kron(I, h_eff*), then the jumps
            eye = np.eye(3)
            gen = np.zeros((sites, 10, 10), dtype=complex)
            gen[:, :9, :9] = (
                -1j * h_eff[:, :, None, :, None] * eye[None, None, :, None, :]
                + 1j * eye[None, :, None, :, None]
                * h_eff.conj()[:, None, :, None, :]).reshape(-1, 9, 9)
            gen[:, :9:4, :9:4] += inflow         # B_aa gains from B_bb
            gen[:, 9, :9:4] = sink
            mats += list(duration * gen)
    exps = _expm_small(mats)
    v = np.array(exps[:sites])
    if not rate.size:
        return _SiteMaps(offset, v, None, None)
    props = np.array(exps[sites:])
    return _SiteMaps(offset, v, props[:, :9, :9], props[:, 9, :9])


def _sparse_propagator(h: np.ndarray, duration: float,
                       collapse: CollapseSet):
    """Action of expm(t L) on vec(rho) for general collapse operators."""
    from scipy.sparse.linalg import expm_multiply

    liou = duration * liouvillian_matrix(h, collapse)
    return lambda rho: expm_multiply(liou, rho.reshape(-1)).reshape(rho.shape)


# ---------------------------------------------------------------------------
# evolution


def _symmetrize(a: np.ndarray) -> tuple[float, float]:
    """Re-symmetrize a in place; return its trace error and the
    Hermiticity drift it had before."""
    skew = a - a.conj().T
    drift = float(np.abs(skew).max())
    skew *= 0.5
    a -= skew                                  # (a + a+) / 2
    return abs(float(a.trace().real) - 1.0), drift


@dataclass
class SegmentStats:
    substeps: int                 # time steps taken; 0, every map is exact
    trace_error: float
    hermiticity_drift: float


@dataclass
class EvolutionResult:
    """Final state plus accumulated diagnostics of one schedule run.

    snapshots/times hold the recorded states (always including t=0 when
    recording is on; with chosen steps, one EvolutionResult per step and
    no t=0 entry, see evolve_schedule); max_trace_error and
    max_hermiticity_drift are the worst values seen across all segments,
    NaN if any segment gave NaN.
    """

    rho: np.ndarray
    times: np.ndarray
    snapshots: list = field(default_factory=list)
    max_trace_error: float = 0.0
    max_hermiticity_drift: float = 0.0


def _compile_key(seg) -> tuple[int, float]:
    return id(seg.hamiltonian), seg.duration


def _site_stepper(rho: np.ndarray, order: np.ndarray, maps: dict):
    """step(segment) and public(n_steps) of a run in the site layout.

    step propagates and re-symmetrizes the leading block of the layout
    that can be nonzero and returns that block's trace error and
    Hermiticity drift; everything outside it is exactly 0.  The block
    starts at rho0's support (a NaN counts) and grows by at most one
    site per segment.  public() is the state in the sector basis;
    public(n) is the leading 3n+3 slots in the order of the n-step
    sector, which must hold the whole block.
    """
    dim = len(order)
    state = np.zeros((dim + 1, dim + 1), dtype=complex)
    state[:dim, :dim] = rho[np.ix_(order, order)]
    nonzero = state != 0
    support = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    size = int(support[-1]) + 1 if support.size else 1

    def step(seg):
        nonlocal size
        size = maps[_compile_key(seg)].apply(state, size)
        return _symmetrize(state[:size, :size])

    def public(n_steps=None):
        sub = order if n_steps is None else _site_order(n_steps)
        if n_steps is not None and size > len(sub):
            raise ValueError(f"the state after step {n_steps} reaches beyond"
                             f" site {n_steps + 1}")
        out = np.empty((len(sub), len(sub)), dtype=complex)
        out[np.ix_(sub, sub)] = state[:len(sub), :len(sub)]
        return out

    return step, public


def _sparse_stepper(rho: np.ndarray, kinds: dict, collapse: CollapseSet):
    """step(segment) and public() of a run in the sparse form."""
    props = {key: _sparse_propagator(seg.hamiltonian, seg.duration, collapse)
             for key, seg in kinds.items()}

    def step(seg):
        nonlocal rho
        rho = props[_compile_key(seg)](rho)
        return _symmetrize(rho)

    return step, lambda: rho.copy()


def evolve_schedule(rho0: np.ndarray, schedule: Schedule,
                    collapse: CollapseSet,
                    record="none") -> EvolutionResult:
    """Run the whole pulse program.

    Each distinct (H, duration) is compiled once; the schedule shares
    one Hamiltonian per segment kind, so that is three compilations.
    The site-local form runs when every segment fits it, the sparse
    form otherwise.  record: "none", "steps" (snapshot after each walk
    step), "segments" (after every pulse), both in the basis of rho0,
    or a collection of step numbers.  For step numbers, snapshots holds
    one EvolutionResult per distinct step n, in increasing order: the
    n-step chain's own run from rho0's n-step counterpart, read off the
    leading 3n+3 slots of the site layout, with the diagnostics up to
    step n; times holds each step's end.  That is exact while the state
    stays on sites 1..n+1 up to step n, as a walker started on site 1
    does; a state that leaves them, or the sparse form, is a ValueError.
    """
    steps = None
    if not isinstance(record, str):
        steps = {int(n) for n in record}
        if not steps <= {seg.step for seg in schedule
                         if seg.label == SEG_RETRIEVE}:
            raise ValueError(f"steps {sorted(steps)} not all in the schedule")
    elif record not in ("none", "steps", "segments"):
        raise ValueError(f"unknown record mode {record!r}")
    rho = np.array(rho0, dtype=complex)
    kinds = {_compile_key(seg): seg for seg in schedule}
    frame = _site_frame(len(rho), collapse)
    maps = {} if frame is None else {
        key: _site_maps(seg.hamiltonian, seg.duration, *frame[1:])
        for key, seg in kinds.items()}
    if frame is not None and all(m is not None for m in maps.values()):
        step, public = _site_stepper(rho, frame[0], maps)
    elif steps is not None:
        raise ValueError("a readout after chosen steps needs the site-local"
                         " form")
    else:
        step, public = _sparse_stepper(rho, kinds, collapse)
    t = 0.0
    times, snaps = [], []
    if steps is None and record != "none":
        times.append(0.0)
        snaps.append(public())
    trace_errors, drifts = [0.0], [0.0]
    for seg in schedule:
        trace_error, drift = step(seg)
        t += seg.duration
        trace_errors.append(trace_error)
        drifts.append(drift)
        if steps is not None:
            if seg.label == SEG_RETRIEVE and seg.step in steps:
                times.append(t)
                snaps.append(EvolutionResult(
                    public(seg.step), np.zeros(0),
                    max_trace_error=float(np.max(trace_errors)),
                    max_hermiticity_drift=float(np.max(drifts))))
        elif record == "segments" or (record == "steps"
                                      and seg.label == SEG_RETRIEVE):
            times.append(t)
            snaps.append(public())
    # np.max, unlike max(), keeps a NaN from any segment
    return EvolutionResult(rho=public(), times=np.asarray(times),
                           snapshots=snaps,
                           max_trace_error=float(np.max(trace_errors)),
                           max_hermiticity_drift=float(np.max(drifts)))


def evolve_segment(rho: np.ndarray, h: np.ndarray, duration: float,
                   collapse: CollapseSet) -> tuple[np.ndarray, SegmentStats]:
    """Propagate rho through one constant-H segment, run as a one-segment
    evolve_schedule.

    Returns the re-symmetrized state and per-segment diagnostics (the
    hermiticity drift is measured before the symmetrization that
    removes it).
    """
    segment = Schedule((Segment("segment", 1, h, duration),))
    res = evolve_schedule(rho, segment, collapse)
    return res.rho, SegmentStats(0, res.max_trace_error,
                                 res.max_hermiticity_drift)


# ---------------------------------------------------------------------------
# state checks


def density_matrix_checks(rho: np.ndarray) -> dict[str, float]:
    """trace_error, hermiticity, min_eigenvalue of a candidate state."""
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    tr = abs(float(np.trace(rho).real) - 1.0)
    sym = 0.5 * (rho + rho.conj().T)
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    return {"trace_error": tr, "hermiticity": herm, "min_eigenvalue": min_eig}
