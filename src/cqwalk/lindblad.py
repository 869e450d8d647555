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

The schedule is one walk step, which a run of an N-step chain applies
N times; each of its segments is propagated exactly by a map compiled
once (below).  The sector basis is ordered by site (protocol):
the vacuum, then the triplets (e_j, f_j, c_j), and the propagator adds
one empty slot where c_{N+1} would be.  A segment's H comes in site form
(protocol.Segment), one 3x3 block per site of its layout: coin
(e_j<->f_j) and store (e_j<->c_j) act within the triplets (offset 1);
retrieve (c_{j-1}<->e_j) acts within the same array shifted by one slot
(offset 0), on (c_{j-1}, e_j, f_j), with the vacuum in place of c_0,
which has no decay.  The generator
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
these sums.  compile_step compiles a step in one batch: each segment's
distinct few-by-few site generators are exponentiated in one numpy
stack, and consecutive segments of the step on one layout compose into
one exact map of the same per-site form, so a walk step applies two
maps: coin then store, and retrieve.  The maps are read-only, so one
compiled step can serve any number of walks (walk_steps).  Each map is
a batched matmul on reshaped views of rho, whose diagonal blocks two
strided views, made once per run, reach.  compile_step refuses Hamiltonian
stacks of two chains, an offset other than 0 or 1 and a term on the
vacuum or on the empty slot; walk_steps refuses a state that is not a
vector of length 3N+3 and a step compiled for another chain than the
state's.  Each refusal is a ValueError.

The walker starts as a state vector psi0.  Since it moves at most one
site per retrieve, only a leading block of rho is nonzero:
walk_steps reads that block's size off psi0 and grows it map by
map, so a walk from site 1 touches at most (3n+4)^2 entries at step n.
Up to step n such a walk never meets a site map beyond site n+1, so its
leading 3n+3 x 3n+3 block then holds, bit for bit, the final state of
an n-step chain, whose sector is the first 3n+3 states of this one.
So walk_steps is a walk of steps: it yields one readout per step n,
which reads out the n-step chain's run when called, as idealwalk.walk
yields each step's amplitudes.

When every rate is 0, rho = psi psi+ with psi = U psi0: walk_steps
then applies each site's V to the single column psi, in the same light
cone, and reads out psi itself, so a noise-free run never forms a dim x
dim array; otherwise it writes psi0 psi0+ into the light-cone block of
rho.  After each applied map a run tracks only its trace error
(|Re vdot(psi, psi) - 1| for psi).  A readout of rho measures its
Hermiticity drift, on a copy of the state (the state itself at the
end), then re-symmetrizes it; psi has no drift to measure.  Only this
module tells the two forms apart: a readout carries its populations,
and min_eigenvalue takes either form, certifying a read-out rho positive
down to -POSITIVITY_SHIFT by one Cholesky factorization.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .protocol import Segment


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
        for name, val in vars(self).items():
            if val < 0 or not math.isfinite(val):
                raise ValueError(f"rate {name} must be finite and >= 0")


# ---------------------------------------------------------------------------
# segment propagators


def _expm_small(stacks: list[np.ndarray]) -> list[np.ndarray]:
    """Matrix exponentials of stacks (k, n, n) of small matrices, one n.

    The stacks are exponentiated as one, by scaling and squaring around a
    degree-16 Taylor polynomial (remainder below 1e-19 once the 1-norm is
    at most 1/2) in plain numpy, each scaled by its own 1-norm, so bit for
    bit as in a call of its own.  scipy.linalg.expm runs its Pade step
    through a threaded BLAS, whose thread pool costs far more than these
    few-by-few products and ties the runtime to the host's load.
    """
    a = np.concatenate(stacks, dtype=complex)
    bounds = np.cumsum([0, *map(len, stacks)])
    squarings = []
    for start, end in zip(bounds, bounds[1:]):
        norm = float(np.abs(a[start:end]).sum(axis=1).max(initial=0.0))
        if not math.isfinite(norm):
            raise IntegrationError(f"segment generator has 1-norm {norm}")
        # least squarings with norm / 2**squarings <= 1/2: norm = m 2**e
        # with m in [1/2, 1), read exactly from the float
        mantissa, exponent = math.frexp(norm)
        squarings.append(max(0, exponent + (mantissa > 0.5)))
        a[start:end] *= 2.0 ** -squarings[-1]   # exact; 2.0 ** 1025 overflows
    eye = np.eye(a.shape[-1])
    exp_a = eye + a / 16
    for k in range(15, 0, -1):                # Horner: I + a/k (I + ...)
        exp_a = a @ exp_a
        exp_a *= 1 / k           # what numpy's / k computes, in place
        exp_a += eye
    exps = np.split(exp_a, bounds[1:-1])
    for i, count in enumerate(squarings):
        for _ in range(count):
            exps[i] = exps[i] @ exps[i]
    return exps


def _triplets(a: np.ndarray, offset: int, count: int) -> np.ndarray:
    """Writable (count, 3, 3) view of the 3x3 diagonal blocks of the
    square array a, the first starting at slot offset."""
    s0, s1 = a.strides
    return as_strided(a[offset:, offset:], shape=(count, 3, 3),
                      strides=(3 * (s0 + s1), s0, s1))


@dataclass(frozen=True)
class _SiteMaps:
    """Exact map of one segment, or of consecutive segments on one site
    layout, in that layout (module docstring).

    Site j (0-based) covers slots offset + 3j .. offset + 3j + 2; slot 0
    is the vacuum either way.  v[j] is expm(-i t H_eff) on site j (v_conj
    its conjugate), blocks[j] maps its diagonal block, read row-major,
    and sink[j] gives that block's outflow into the vacuum.  blocks and
    sink are None when nothing decays.
    """

    offset: int
    v: np.ndarray
    blocks: np.ndarray | None
    sink: np.ndarray | None
    v_conj: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "v_conj", self.v.conj())
        for a in (self.v, self.v_conj, self.blocks, self.sink):
            if a is not None:     # one compiled step may serve many runs
                a.flags.writeable = False

    def then(self, later: "_SiteMaps") -> "_SiteMaps":
        """This map followed by later, on the same layout, as one map.

        Per site, V = V_later V_this; the diagonal block and its vacuum
        accumulator evolve by [[B, 0], [s, 1]], so B = B_later B_this and
        s = s_this + s_later B_this.  Exact, since the vacuum itself has
        no dynamics (at offset 0 it is an inert slot of site 0).
        """
        v = later.v @ self.v
        if self.blocks is None:
            return _SiteMaps(self.offset, v, None, None)
        return _SiteMaps(self.offset, v, later.blocks @ self.blocks,
                         self.sink + (later.sink[:, None] @ self.blocks)[:, 0])

    def _sites(self, size: int) -> int:
        """Sites reached when only the leading size slots are nonzero."""
        return min(len(self.v), max(0, -(-(size - self.offset) // 3)))

    def apply_rows(self, y: np.ndarray, size: int, conj=False) -> int:
        """y <- V y (V* y if conj) in place, given that only the leading
        size rows of y are nonzero; return that count afterwards."""
        sites = self._sites(size)
        end = self.offset + 3 * sites
        v = (self.v_conj if conj else self.v)[:sites]
        rows = y[self.offset:end]
        rows[...] = np.matmul(v, rows.reshape(sites, 3, y.shape[1])
                              ).reshape(rows.shape)
        return end

    def apply(self, rho: np.ndarray, size: int, triplets: np.ndarray) -> int:
        """Propagate rho, through its _triplets view at this offset, in
        place, given that only its leading size x size block is nonzero;
        return the size of that block afterwards."""
        sites = self._sites(size)
        end = self.offset + 3 * sites
        a = rho[:end, :end]
        if self.blocks is not None:
            triplets = triplets[:sites]
            before = triplets.copy().reshape(sites, 9)
        self.apply_rows(a, size)                             # V rho
        self.apply_rows(a.T, size, conj=True)                # (rho V+)^T
        if self.blocks is not None:
            triplets[...] = np.matmul(self.blocks[:sites], before[:, :, None]
                                      ).reshape(sites, 3, 3)
            a[0, 0] += (self.sink[:sites] * before).sum()
        return end


def compile_step(schedule: tuple[Segment, ...],
                 rates: DecoherenceRates) -> tuple[_SiteMaps, ...]:
    """Compile one walk step into the maps it applies, consecutive
    segments on one site layout as one map.

    The chain is that of the first hamiltonian, one 3x3 block per site
    (protocol.Segment); every hamiltonian must have its shape, an offset
    of 0 or 1, and no term on the slot outside the sector: the vacuum at
    offset 0 (it has no dynamics) and the empty slot c_{N+1} at offset
    1.  Anything else is a ValueError.  Each site
    decays by the six rates, read as floats, by level slot: (e, f, c) at
    offset 1 and (c_{j-1}, e, f) at offset 0; the slot outside the sector
    has none.  The maps' arrays are read-only.
    """
    if not schedule:
        return ()
    sites, count = len(schedule[0].hamiltonian), len(schedule)
    offsets = [operator.index(seg.offset) for seg in schedule]
    kappa, ge, ef, gf, phi_e, phi_f = map(float, (
        rates.kappa, rates.gamma_ge, rates.gamma_ef, rates.gamma_gf,
        rates.gamma_phi_e, rates.gamma_phi_f))
    h_eff = np.zeros((count, sites, 3, 3), dtype=complex)
    decay = np.zeros((count, sites, 3))       # [s, j, b]: rate out of b
    inflow = np.zeros((count, sites, 3, 3))   # [s, j, a, b]: rate b -> a
    sink = np.zeros((count, sites, 3))        # [s, j, b]: rate b -> vacuum
    for s, (seg, offset) in enumerate(zip(schedule, offsets)):
        h = np.asarray(seg.hamiltonian, dtype=complex)
        if h.shape != (sites, 3, 3):
            raise ValueError(f"a segment Hamiltonian of shape {h.shape}"
                             f" does not fit the chain of {sites} sites")
        if offset not in (0, 1):
            raise ValueError(f"a segment offset of {offset!r} fits no site"
                             " layout")
        edge, c = (0, 0) if offset == 0 else (-1, 2)
        if np.any(h[edge, c]) or np.any(h[edge, :, c]):
            raise ValueError("a Hamiltonian term acts outside the sector's"
                             " sites")
        e, f = (1, 2) if offset == 0 else (0, 1)
        h_eff[s] = h
        decay[s, :, e] = ge + phi_e
        decay[s, :, f] = ef + gf + phi_f
        decay[s, :, c] = sink[s, :, c] = kappa
        decay[s, edge, c] = sink[s, edge, c] = 0.0
        sink[s, :, e], sink[s, :, f] = ge, gf
        inflow[s, :, e, f] = ef
        inflow[s, :, e, e], inflow[s, :, f, f] = phi_e, phi_f
    noisy = any((kappa, ge, ef, gf, phi_e, phi_f))
    # a sum of rates, or a duration times one, may overflow; _expm_small
    # then reports the non-finite generator, so numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        slots = np.arange(3)
        h_eff[..., slots, slots] -= 0.5j * decay
        # most sites share their generator: each segment's distinct sites,
        # told apart by the bytes of their H_eff and rates, are compiled
        # once, those of all segments in one stack
        keys = np.concatenate([h_eff.view(float).reshape(count, sites, 18),
                               inflow.reshape(count, sites, 9), sink], axis=2)
        keys = keys.view(np.dtype((np.void, 30 * keys.itemsize)))[..., 0]
        distinct = [np.unique(k, return_index=True, return_inverse=True)[1:]
                    for k in keys]
        bounds = np.cumsum([0] + [len(first) for first, _ in distinct])
        at = (np.repeat(np.arange(count), np.diff(bounds)),
              np.concatenate([first for first, _ in distinct]))
        h = h_eff[at]
        t = np.array([float(seg.duration) for seg in schedule]
                     )[at[0], None, None]
        mats = (-1j * t * h)[:, None]           # the generators of V
        if noisy:
            # and of each site's diagonal block B, read row-major (index
            # 3p + q), plus an accumulator for its outflow into the vacuum
            # (index 9): -i kron(h_eff, I) + i kron(I, h_eff*), then the
            # jumps; V's are padded (the exponential of a padded block is
            # the block's exponential padded by I)
            eye = np.eye(3)
            gen = np.zeros((len(h), 10, 10), dtype=complex)
            gen[:, :9, :9] = (
                -1j * h[:, :, None, :, None] * eye[None, None, :, None, :]
                + 1j * eye[None, :, None, :, None]
                * h.conj()[:, None, :, None, :]).reshape(-1, 9, 9)
            gen[:, :9:4, :9:4] += inflow[at]     # B_aa gains from B_bb
            gen[:, 9, :9:4] = sink[at]
            v_gen, mats = mats, np.zeros((len(h), 2, 10, 10), dtype=complex)
            mats[:, :1, :3, :3], mats[:, 1] = v_gen, t * gen
    exps = _expm_small([mats[start:end].reshape(-1, *mats.shape[-2:])
                        for start, end in zip(bounds, bounds[1:])])
    maps = []
    for offset, exp, (_, site) in zip(offsets, exps, distinct):
        exp = exp.reshape(-1, *mats.shape[1:])        # [distinct, V | B]
        decay_maps = ((exp[site, 1, :9, :9], exp[site, 1, 9, :9]) if noisy
                      else (None, None))
        maps.append(_SiteMaps(offset, exp[site, 0, :3, :3], *decay_maps))
    return tuple(functools.reduce(_SiteMaps.then, run) for _, run in
                 itertools.groupby(maps, operator.attrgetter("offset")))


# ---------------------------------------------------------------------------
# evolution


def _adjoint(a: np.ndarray) -> np.ndarray:
    """a+ as a new C-ordered array: one transposed copy, conjugated in
    place, so that every pass over it after that is contiguous."""
    h = a.T.copy()
    np.conjugate(h, out=h)
    return h


def _symmetrize(a: np.ndarray) -> float:
    """Re-symmetrize a in place; return its Hermiticity drift before."""
    skew = _adjoint(a)
    np.subtract(a, skew, out=skew)             # a - a+, one temporary
    drift = float(np.abs(skew).max())
    skew *= 0.5
    a -= skew                                  # (a + a+) / 2
    return drift


@dataclass
class EvolutionResult:
    """The state of an N-step chain's run, read out at step N of it or of
    a longer run (walk_steps), with its diagnostics.

    state is the state vector psi (length 3N+3) of a noise-free run and
    the density matrix rho (3N+3 x 3N+3) of a noisy one; populations is
    its real diagonal, |psi_i|^2 or rho_ii.  max_trace_error is the worst
    of the trace errors taken after every applied map (a step's coin and
    store are one map) up to step N, of rho or of psi; NaN if any
    map gave NaN.  max_hermiticity_drift is the largest |rho - rho+|
    entry of rho as read out, before rho was re-symmetrized; for psi,
    which forms no rho, it is 0.0, or NaN if psi is not finite.
    """

    state: np.ndarray
    populations: np.ndarray
    max_trace_error: float = 0.0
    max_hermiticity_drift: float = 0.0


def walk_steps(psi0: np.ndarray, step_maps: tuple[_SiteMaps, ...]
               ) -> Iterator[Callable[[], EvolutionResult]]:
    """Apply step_maps, the compiled walk step (compile_step) of psi0's
    chain, N times to the sector state vector psi0, of length 3N+3,
    N >= 1; yield a readout after each step n = 1..N.

    Consecutive segments on one site layout are one map, so a protocol
    step applies two maps: coin then store, and retrieve.  The run is
    noise-free exactly when no map decays (every rate 0).  A psi0 of
    another shape, or a map of other than N+1 sites, is a ValueError
    when the first step is taken.
    Step n's readout, called before the run goes on, returns the n-step
    chain's own run from psi0's leading 3n+3 entries: psi when every
    rate is 0, else rho, read off the state's leading entries.  That is
    exact while the state stays on sites 1..n+1 up to step n, as a
    walker started on site 1 does; a state that leaves them is a
    ValueError when read.  Step N's readout is the run's final state; it
    works on the state in place and then lets it go.  A readout called
    after the run has gone on, or a second time at step N, is a
    ValueError.  Steps that are not read cost and check nothing.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.ndim != 1 or len(psi0) % 3 or len(psi0) < 6:
        raise ValueError(f"a state of shape {psi0.shape} is no single-"
                         "excitation sector vector of shape (3N+3,), N >= 1")
    dim, n_steps = len(psi0), len(psi0) // 3 - 1
    for maps in step_maps:
        if len(maps.v) != n_steps + 1:
            raise ValueError(f"a step compiled for a chain of {len(maps.v)}"
                             f" sites cannot walk a state of {n_steps + 1}")
    # Only the leading size entries of psi, and the leading size x size
    # block of rho, can be nonzero: size starts at psi0's support (a NaN
    # counts) and grows by at most one site per map.
    support = np.flatnonzero(psi0)
    size = int(support[-1]) + 1 if support.size else 1
    if any(maps.blocks is not None for maps in step_maps):
        psi, state = None, np.zeros((dim + 1, dim + 1), dtype=complex)
        np.multiply(psi0[:size, None], psi0[:size].conj(),
                    out=state[:size, :size])
        triplets = [_triplets(state, offset, dim // 3) for offset in (0, 1)]
    else:   # propagate psi as one column, not rho (module docstring)
        psi = np.append(psi0, 0.0)[:, None]

    def readout(n, size, trace_error):
        """psi's leading 3n+3 entries, or rho's leading block of that
        size, re-symmetrized after its drift is taken: on a copy before
        step N, and at step N on rho in place, which is then let go, so
        no copy is alive beside the temporaries of _symmetrize."""
        nonlocal psi, state, triplets, current
        if n != current:
            raise ValueError(f"step {n} can no longer be read: the run has"
                             " gone on")
        end = 3 * n + 3
        final = n == n_steps
        if size > end and not final:
            raise ValueError(f"the state after step {n} reaches beyond"
                             f" site {n + 1}")
        if psi is not None:
            out = psi[:end, 0].copy()
            populations = (out * out.conj()).real
            drift = 0.0 if np.isfinite(out).all() else math.nan
        else:
            rho = state[:end, :end] if final else state[:end, :end].copy()
            drift = _symmetrize(rho)
            out = np.ascontiguousarray(rho)
            populations = out.diagonal().real.copy()
        if final:
            psi = state = triplets = current = None
        return EvolutionResult(out, populations, float(trace_error), drift)

    max_trace_error = np.float64(0.0)
    for step in range(1, n_steps + 1):
        current = 0                    # the step whose readout is valid
        for site_maps in step_maps:
            if psi is None:
                size = site_maps.apply(state, size,
                                       triplets[site_maps.offset])
                trace_error = abs(state[:size, :size].trace().real - 1.0)
            else:
                size = site_maps.apply_rows(psi, size)
                trace_error = abs(np.vdot(psi[:size], psi[:size]).real - 1.0)
            # NaN stays
            max_trace_error = np.maximum(max_trace_error, trace_error)
        current = step
        yield functools.partial(readout, step, size, max_trace_error)


# ---------------------------------------------------------------------------
# state checks


# the positivity certified for a density matrix (min_eigenvalue)
POSITIVITY_SHIFT = 1e-12


def min_eigenvalue(state: np.ndarray) -> float:
    """A lower bound on the smallest eigenvalue of a state as read out:
    for psi, exactly that of psi psi+, 0.0 (rank 1 below a dimension of at
    least 6) or NaN if psi is not finite; for rho, exactly Hermitian as
    read out, -POSITIVITY_SHIFT if rho + POSITIVITY_SHIFT I (shifted in
    place, restored bit for bit) has a Cholesky factor, else an
    IntegrationError with eigvalsh's value for rho's Hermitian part."""
    if state.ndim == 1:
        return 0.0 if np.isfinite(state).all() else math.nan
    diagonal = state.diagonal().copy()
    np.fill_diagonal(state, diagonal + POSITIVITY_SHIFT)
    try:
        np.linalg.cholesky(state)
        return -POSITIVITY_SHIFT
    except np.linalg.LinAlgError:
        pass
    finally:
        np.fill_diagonal(state, diagonal)
    h = _adjoint(state)
    h += state
    h *= 0.5                 # the bits of 0.5 * (rho + rho.conj().T)
    raise IntegrationError(
        f"positivity not certified: rho + {POSITIVITY_SHIFT:g} I has no"
        f" Cholesky factor; its smallest eigenvalue is"
        f" {np.linalg.eigvalsh(h)[0]:.3g}")
