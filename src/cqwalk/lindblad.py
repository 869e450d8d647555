"""Lindblad master-equation evolution of the pulse schedule.

The density matrix evolves under

    drho/dt = -i [H, rho] + sum_k ( L_k rho L_k+ - 1/2 {L_k+ L_k, rho} )

with piecewise-constant H given by the schedule segments.  Every site
has the same six collapse channels (DecoherenceRates): cavity photon
loss, the three qutrit relaxation channels e->g, f->e, f->g, and pure
dephasing of the e and f levels (L = sqrt(gamma_phi) |l><l|, so the
bare coherences to the ground state decay at gamma_phi / 2).  In the
single-excitation sector each is one basis transition sqrt(gamma)
|a><b| that stays in its site or ends in the vacuum, so the rates are
written straight into each site's data; no channel list or dim x dim
matrix is formed.

Each segment is propagated exactly; the map is compiled once per
distinct (H, offset, duration) of a schedule.  The sector basis is
ordered by site (statespace): the vacuum, then the triplets
(e_j, f_j, c_j), and the propagator adds one empty slot where c_{N+1}
would be.  A segment's H comes in site form (protocol.Segment), one 3x3
block per site of its layout: coin (e_j<->f_j) and store (e_j<->c_j)
act within the triplets (offset 1); retrieve (c_{j-1}<->e_j) acts within
the same array shifted by one slot (offset 0), on (c_{j-1}, e_j, f_j),
with the vacuum in place of c_0, which has no decay.  The generator
splits as -i (H_eff rho - rho H_eff+) + J(rho) with H_eff = H - i Gamma
/ 2, Gamma = sum_k gamma_k |b_k><b_k|, and J(rho) = sum_k gamma_k
rho_bb |a_k><a_k|.  Per site that is a total decay of each slot, an
inflow within the site (f->e and the two dephasing channels) and a sink
into the vacuum (e->g, f->g and photon loss).  H_eff is block diagonal
on the sites and J writes only diagonal entries, so every entry outside
the sites' diagonal blocks evolves as V rho V+ with V = expm(-i t
H_eff), one 3x3 map per site.
Each diagonal block follows its own closed 9-dimensional system, and a
tenth row of that system sums the block's outflow into the vacuum; the
vacuum has no dynamics of its own, so its population just collects
these sums.  Compiling a segment exponentiates these few-by-few
generators of every site as one numpy stack.  Each map is applied as a
batched matmul on reshaped views of rho.  A Hamiltonian stack of
another chain than the state's, an offset other than 0 or 1, a term on
the vacuum or on the empty slot, or a state whose dimension is not
3N+3, is a ValueError.

Since the walker moves at most one site per retrieve, only a leading
block of rho is nonzero: evolve_schedule reads that block's size off
rho0 and grows it segment by segment, so a walk from site 1 touches at
most (3n+4)^2 entries at step n.  Up to step n such a walk never meets
a site map beyond site n+1, so its leading 3n+3 x 3n+3 block then
holds, bit for bit, the final state of an n-step chain, whose sector is
the first 3n+3 states of this one; evolve_schedule hands each shorter
run to its caller as soon as it reaches that step.

When every rate is 0, rho = U rho0 U+ = M C M+ with C rho0's
leading k x k block (k = 3 on site 1) and M the first k columns of U.
evolve_schedule then applies each site's V to the rows of
y = [M | M C] alone, in the same light cone, and forms rho = (M C) M+
only for a readout.  After each segment a run tracks only its trace
error (for columns |Re vdot(M, M C) - 1|, O(dim k)).  A readout
measures the Hermiticity drift of its rho, a copy of the state or the
rho just formed (the state itself at the end), then re-symmetrizes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .protocol import SEG_RETRIEVE, Schedule
from .statespace import StateSpace


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
    def from_lifetimes_us(cls, t_cavity: float = math.inf,
                          t_ge: float = math.inf, t_ef: float = math.inf,
                          t_gf: float = math.inf, t_phi_e: float = math.inf,
                          t_phi_f: float = math.inf) -> "DecoherenceRates":
        """Rates from lifetimes in us; math.inf switches a channel off."""
        inv = lambda t: 0.0 if math.isinf(t) else 1.0 / t
        return cls(kappa=inv(t_cavity), gamma_ge=inv(t_ge),
                   gamma_ef=inv(t_ef), gamma_gf=inv(t_gf),
                   gamma_phi_e=inv(t_phi_e), gamma_phi_f=inv(t_phi_f))

    def scaled(self, lifetime_factor: float) -> "DecoherenceRates":
        """New rates with every lifetime multiplied by lifetime_factor."""
        if lifetime_factor <= 0:
            raise ValueError("lifetime factor must be positive")
        return DecoherenceRates(
            **{k: v / lifetime_factor for k, v in self.as_dict().items()})


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

    def _sites(self, size: int) -> int:
        """Sites reached when only the leading size slots are nonzero."""
        return min(len(self.v), max(0, -(-(size - self.offset) // 3)))

    def apply_rows(self, y: np.ndarray, size: int, conj=False) -> int:
        """y <- V y (V* y if conj) in place, given that only the leading
        size rows of y are nonzero; return that count afterwards."""
        sites = self._sites(size)
        end = self.offset + 3 * sites
        v = self.v[:sites].conj() if conj else self.v[:sites]
        rows = y[self.offset:end]
        rows[...] = np.matmul(v, rows.reshape(sites, 3, y.shape[1])
                              ).reshape(rows.shape)
        return end

    def apply(self, rho: np.ndarray, size: int) -> int:
        """Propagate rho in place, given that only its leading size x size
        block is nonzero; return the size of that block afterwards."""
        sites = self._sites(size)
        end = self.offset + 3 * sites
        a = rho[:end, :end]
        if self.blocks is not None:
            triplets = _triplets(a, self.offset, sites)
            before = triplets.copy().reshape(sites, 9)
        self.apply_rows(a, size)                             # V rho
        self.apply_rows(a.T, size, conj=True)                # (rho V+)^T
        if self.blocks is not None:
            triplets[...] = np.matmul(self.blocks[:sites], before[:, :, None]
                                      ).reshape(sites, 3, 3)
            a[0, 0] += (self.sink[:sites] * before).sum()
        return end


def _site_maps(seg, dim: int, rates: DecoherenceRates) -> _SiteMaps:
    """Compile one segment of a sector of dimension dim into per-site maps.

    seg.hamiltonian must hold one 3x3 block per site of the sector, at
    offset 0 or 1 (protocol.Segment), with no term on the slot outside
    the sector: the vacuum at offset 0 (it has no dynamics) and the empty
    slot c_{N+1} at offset 1.  Anything else is a ValueError.  Each site
    decays by the six rates, by level slot: (e, f, c) at offset 1 and
    (c_{j-1}, e, f) at offset 0; the slot outside the sector has none.
    """
    h, offset, duration = seg.hamiltonian, seg.offset, seg.duration
    sites = (dim + 1) // 3
    if np.shape(h) != (sites, 3, 3):
        raise ValueError(f"a segment Hamiltonian of shape {np.shape(h)} does"
                         f" not act on the sector of dimension {dim}")
    if offset not in (0, 1):
        raise ValueError(f"a segment offset of {offset!r} fits no site"
                         " layout")
    edge, c = (0, 0) if offset == 0 else (-1, 2)
    if np.any(h[edge, c]) or np.any(h[edge, :, c]):
        raise ValueError("a Hamiltonian term acts outside the sector's"
                         " sites")
    e, f = (1, 2) if offset == 0 else (0, 1)
    r, noisy = rates, rates != DecoherenceRates()
    decay = np.zeros((sites, 3))           # [j, b]: total rate out of b
    inflow = np.zeros((sites, 3, 3))       # [j, a, b]: rate of b -> a
    sink = np.zeros((sites, 3))            # [j, b]: rate of b -> vacuum
    decay[:, e] = r.gamma_ge + r.gamma_phi_e
    decay[:, f] = r.gamma_ef + r.gamma_gf + r.gamma_phi_f
    decay[:, c] = sink[:, c] = r.kappa
    decay[edge, c] = sink[edge, c] = 0.0
    sink[:, e], sink[:, f] = r.gamma_ge, r.gamma_gf
    inflow[:, e, f] = r.gamma_ef
    inflow[:, e, e], inflow[:, f, f] = r.gamma_phi_e, r.gamma_phi_f

    # a sum of rates, or a duration times one, may overflow; _expm_small
    # then reports the non-finite generator, so numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        h_eff = np.array(h, dtype=complex)
        slots = np.arange(3)
        h_eff[:, slots, slots] -= 0.5j * decay
        mats = list(-1j * duration * h_eff)
        if noisy:
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
    if not noisy:
        return _SiteMaps(offset, v, None, None)
    props = np.array(exps[sites:])
    return _SiteMaps(offset, v, props[:, :9, :9], props[:, 9, :9])


# ---------------------------------------------------------------------------
# evolution


def _symmetrize(a: np.ndarray) -> float:
    """Re-symmetrize a in place; return its Hermiticity drift before."""
    skew = a.conj().T
    np.subtract(a, skew, out=skew)             # a - a+, one temporary
    drift = float(np.abs(skew).max())
    skew *= 0.5
    a -= skew                                  # (a + a+) / 2
    return drift


def _form(y: np.ndarray, k: int, rows: int, end: int) -> np.ndarray:
    """rho = (M C) M+, end x end, from the leading rows of y = [M | M C]."""
    rho = np.zeros((end, end), dtype=complex)
    block = rho[:rows, :rows]
    for j in range(k):             # a fixed order, whatever the BLAS
        block += np.outer(y[:rows, k + j], y[:rows, j].conj())
    return rho


@dataclass
class EvolutionResult:
    """A state read out of a schedule run, with its diagnostics.

    max_trace_error is the worst trace error after any segment up to
    the readout, NaN if any segment gave NaN; max_hermiticity_drift is
    the largest |rho - rho+| entry of rho as read out, before rho was
    re-symmetrized.
    """

    rho: np.ndarray
    max_trace_error: float = 0.0
    max_hermiticity_drift: float = 0.0


def _compile_key(seg) -> tuple[int, int, float]:
    return id(seg.hamiltonian), seg.offset, seg.duration


def evolve_schedule(rho0: np.ndarray, schedule: Schedule,
                    rates: DecoherenceRates, steps=(),
                    on_step=None) -> EvolutionResult:
    """Run the whole pulse program on a sector state; return the final
    state.

    Each distinct (H, offset, duration) is compiled once; the schedule
    shares one Hamiltonian stack per segment kind, so that is three
    compilations.  Every site of the chain decays by the six rates; the
    run is noise-free exactly when all of them are 0.  rho0 must have
    dimension 3N+3, and every segment must carry one 3x3 block per site
    of that chain, with no term outside the site layout (module
    docstring); anything else is a ValueError.
    steps is a collection of step numbers, which needs on_step.  Once
    the run reaches step n of them, on_step(n, result) gets the n-step
    chain's own run from rho0's leading 3n+3 x 3n+3 block, read off the
    same block after step n, in increasing order of n.  That is exact
    while the state stays on sites 1..n+1 up to step n, as a walker
    started on site 1 does; a state that leaves them is a ValueError.
    """
    if isinstance(steps, str):
        raise ValueError(f"steps takes step numbers, not {steps!r}")
    steps = {int(n) for n in steps}
    if steps and on_step is None:
        raise ValueError("steps need an on_step callback")
    if not steps <= {seg.step for seg in schedule
                     if seg.label == SEG_RETRIEVE}:
        raise ValueError(f"steps {sorted(steps)} not all in the schedule")
    rho0 = np.asarray(rho0)
    dim = len(rho0)
    if dim % 3 or dim < 6:
        raise ValueError(f"a state of dimension {dim} is no single-excitation"
                         " sector (3N+3, N >= 1)")
    kinds = {_compile_key(seg): seg for seg in schedule}
    maps = {key: _site_maps(seg, dim, rates) for key, seg in kinds.items()}
    # Only the leading size x size block can be nonzero: it starts at
    # rho0's support (a NaN counts) and grows by at most one site per
    # segment.  Everything outside it is exactly 0.
    nonzero = rho0 != 0
    support = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    size = int(support[-1]) + 1 if support.size else 1
    if rates != DecoherenceRates():
        y, state = None, np.zeros((dim + 1, dim + 1), dtype=complex)
        state[:dim, :dim] = rho0
    else:               # propagate y = [M | M C], not rho (module docstring)
        k = size
        y = np.zeros((dim + 1, 2 * k), dtype=complex)
        y[:k] = np.hstack([np.eye(k), rho0[:k, :k]])

    def readout(end, final=False):
        """rho's leading end x end block, re-symmetrized after its drift
        is taken.  A step readout never touches the state; the final one
        works on it in place and copies only then, so no copy is alive
        beside the temporaries of _symmetrize."""
        if y is not None:
            rho = _form(y, k, min(size, end), end)
        else:
            rho = state[:end, :end] if final else state[:end, :end].copy()
        drift = _symmetrize(rho)
        return EvolutionResult(np.ascontiguousarray(rho),
                               float(max_trace_error), drift)

    max_trace_error = np.float64(0.0)
    for seg in schedule:
        seg_maps = maps[_compile_key(seg)]
        if y is None:
            size = seg_maps.apply(state, size)
            trace_error = abs(state[:size, :size].trace().real - 1.0)
        else:
            size = seg_maps.apply_rows(y, size)
            trace_error = abs(np.vdot(y[:size, :k], y[:size, k:]).real - 1.0)
        max_trace_error = np.maximum(max_trace_error, trace_error)  # NaN stays
        if seg.label == SEG_RETRIEVE and seg.step in steps:
            end = StateSpace(seg.step).dim
            if size > end:
                raise ValueError(f"the state after step {seg.step} reaches"
                                 f" beyond site {seg.step + 1}")
            on_step(seg.step, readout(end))
    return readout(dim, final=True)


# ---------------------------------------------------------------------------
# state checks


def min_eigenvalue(rho: np.ndarray) -> float:
    """The smallest eigenvalue of rho's Hermitian part."""
    return float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
