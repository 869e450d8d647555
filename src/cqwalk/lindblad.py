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
rho_bb |a_k><a_k|.  Per site the channels are one array of jump rates
by slot: a row into the vacuum (e->g, f->g and photon loss) and a 3x3
block within the site (f->e, and the two dephasing channels on its
diagonal).  Each slot's Gamma is the sum of its column, so every
channel is written once and J puts back what Gamma takes.  H_eff is
block diagonal on the sites and J writes only diagonal entries, so
every entry outside the sites' diagonal blocks evolves as V rho V+ with
V = expm(-i t H_eff), one 3x3 map per site.
Each diagonal block follows its own closed 9-dimensional system, and a
tenth row of that system sums the block's outflow into the vacuum; the
vacuum has no dynamics of its own, so its population just collects
these sums.  compile_step compiles a step in one batch: the distinct
few-by-few site generators of all its segments, of V and of that
10-dimensional system, are exponentiated in one numpy stack, and
consecutive segments of the step on one layout compose into one exact
map of the same per-site form, by one matrix product per site of each
exponential, so a walk step applies two maps: coin then store, and
retrieve.  The maps are read-only, so one
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
So walk_steps is a walk of steps, as idealwalk.walk is: given the
steps to read, it yields the n-step chain's run after each of them.

When every rate is 0, rho = psi psi+ with psi = U psi0: walk_steps
then applies each site's V to the single column psi, in the same light
cone, and reads out psi itself, so a noise-free run never forms a dim x
dim array; otherwise it writes psi0 psi0+ into the light-cone block of
rho.  After each applied map a run tracks only its trace error
(|Re vdot(psi, psi) - 1| for psi).  Reading rho out measures its
Hermiticity drift, on a copy of the state (the state itself at the
end), then re-symmetrizes it; psi has no drift to measure.  Only this
module tells the two forms apart, or reads a state by slot: a result
carries its populations and the walker read off them (EvolutionResult),
and min_eigenvalue takes either form, certifying a read-out rho positive
down to -POSITIVITY_SHIFT by one Cholesky factorization.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Container, Iterator
from dataclasses import dataclass

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


def _expm_small(a: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Matrix exponentials of a stack a (k, n, n) of small matrices, each
    scaled by the 1-norm of its stack: the matrices of one stack index.

    All are exponentiated as one, by scaling and squaring around a
    degree-16 Taylor polynomial (remainder below 1e-19 once the 1-norm is
    at most 1/2) in plain numpy, each squared as often as its stack
    needs, so every stack comes out bit for bit as in a call of its own.
    scipy.linalg.expm runs its Pade step through a threaded BLAS, whose
    thread pool costs far more than these few-by-few products and ties
    the runtime to the host's load.
    """
    a = np.array(a, dtype=complex)
    norms = np.abs(a).sum(axis=1).max(axis=1)
    if not np.isfinite(norms).all():   # before maximum.at warns of a NaN
        raise IntegrationError(f"segment generator has 1-norm {norms.max()}")
    norm = np.zeros(stack.max() + 1)
    np.maximum.at(norm, stack, norms)
    # least squarings with norm / 2**squarings <= 1/2: norm = m 2**e
    # with m in [1/2, 1), read exactly from the float
    mantissa, exponent = np.frexp(norm)
    squarings = np.maximum(0, exponent + (mantissa > 0.5))[stack]
    a *= np.ldexp(1.0, -squarings)[:, None, None]   # exact; no overflow
    eye = np.eye(a.shape[-1])
    exp_a = eye + a / 16
    for k in range(15, 0, -1):                # Horner: I + a/k (I + ...)
        exp_a = a @ exp_a
        exp_a *= 1 / k           # what numpy's / k computes, in place
        exp_a += eye
    # hundreds of squarings can amplify rounding errors into an overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(squarings.max()):
            more = squarings > i
            exp_a[more] = exp_a[more] @ exp_a[more]
    if not np.isfinite(exp_a).all():
        raise IntegrationError("segment map overflows in its squarings")
    return exp_a


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
    is the vacuum either way.  v[j] is expm(-i t H_eff) on site j and
    decay[j] the exponential of its diagonal block's closed system:
    decay[j, :9, :9] maps the block, read row-major, and decay[j, 9, :9]
    gives its outflow into the vacuum.  decay is None when nothing
    decays; such a map propagates psi only (apply_rows).
    """

    offset: int
    v: np.ndarray
    decay: np.ndarray | None

    def __post_init__(self):
        for a in (self.v, self.decay):
            if a is not None:     # one compiled step may serve many runs
                a.flags.writeable = False

    def then(self, later: "_SiteMaps") -> "_SiteMaps":
        """This map followed by later, on the same layout, as one map:
        per site, the product of the later maps by these.  Exact, since
        the vacuum itself has no dynamics (at offset 0 it is an inert
        slot of site 0) and decay's vacuum row only accumulates."""
        return _SiteMaps(self.offset, later.v @ self.v,
                         None if self.decay is None
                         else later.decay @ self.decay)

    def _sites(self, size: int) -> int:
        """Sites reached when only the leading size slots are nonzero."""
        return min(len(self.v), max(0, -(-(size - self.offset) // 3)))

    def apply_rows(self, y: np.ndarray, size: int, conj=False) -> int:
        """y <- V y (V* y if conj, V* formed for the sites reached) in
        place, given that only the leading size rows of y are nonzero;
        return that count afterwards."""
        sites = self._sites(size)
        end = self.offset + 3 * sites
        v = self.v[:sites].conj() if conj else self.v[:sites]
        rows = y[self.offset:end]
        rows[...] = np.matmul(v, rows.reshape(sites, 3, y.shape[1])
                              ).reshape(rows.shape)
        return end

    def apply(self, rho: np.ndarray, size: int, triplets: np.ndarray) -> int:
        """Propagate rho, through its _triplets view at this offset, in
        place, given that only its leading size x size block is nonzero;
        return the size of that block afterwards.  Only a map that decays
        propagates rho (walk_steps)."""
        sites = self._sites(size)
        end = self.offset + 3 * sites
        a = rho[:end, :end]
        triplets = triplets[:sites]
        before = triplets.copy().reshape(sites, 9)
        self.apply_rows(a, size)                             # V rho
        self.apply_rows(a.T, size, conj=True)                # (rho V+)^T
        decay = self.decay[:sites]
        triplets[...] = np.matmul(decay[:, :9, :9], before[:, :, None]
                                  ).reshape(sites, 3, 3)
        a[0, 0] += (decay[:, 9, :9] * before).sum()
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
    has none.  A step's channels are one array jump of shape (segments,
    sites, 4, 3): jump[s, j, 0, b] is slot b's rate into the vacuum (e->g,
    f->g, photon loss) and jump[s, j, 1 + a, b] the rate from slot b to
    slot a of the site (f->e, and each dephasing on the diagonal), so
    slot b's total decay Gamma_b is the column sum jump[s, j, :, b].  The
    maps' arrays are read-only.
    """
    if not schedule:
        return ()
    sites, count = len(schedule[0].hamiltonian), len(schedule)
    offsets = [operator.index(seg.offset) for seg in schedule]
    h_eff = np.zeros((count, sites, 3, 3), dtype=complex)
    jump = np.zeros((count, sites, 4, 3))
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
        to = jump[s]         # [j, 0, b]: b -> vacuum; [j, 1 + a, b]: b -> a
        to[:, 0, [e, f, c]] = rates.gamma_ge, rates.gamma_gf, rates.kappa
        to[:, 1 + e, [e, f]] = rates.gamma_phi_e, rates.gamma_ef
        to[:, 1 + f, f] = rates.gamma_phi_f
        to[edge, 0, c] = 0.0
    noisy = jump.any()
    # a sum of rates, or a duration times one, may overflow; _expm_small
    # then reports the non-finite generator, so numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        slots = np.arange(3)
        h_eff[..., slots, slots] -= 0.5j * jump.sum(axis=2)
        # most sites share their generator: the distinct sites of all
        # segments, told apart by their segment's index and the bytes of
        # their H_eff and rates, are compiled once, in one stack
        segment = np.broadcast_to(np.arange(count)[:, None, None],
                                  (count, sites, 1))
        keys = np.concatenate([segment,
                               h_eff.view(float).reshape(count, sites, 18),
                               jump.reshape(count, sites, 12)], axis=2)
        keys = keys.view(np.dtype((np.void, 31 * keys.itemsize))).ravel()
        _, first, site = np.unique(keys, return_index=True,
                                   return_inverse=True)
        at = np.divmod(first, sites)            # (segment, site)
        h = h_eff[at]
        t = np.array([float(seg.duration) for seg in schedule]
                     )[at[0], None, None]
        # the generators of V, and when noisy of each site's diagonal
        # block B, read row-major (index 3p + q), plus an accumulator for
        # its outflow into the vacuum (index 9); V's are padded (the
        # exponential of a padded block is the block's exponential padded
        # by I)
        n = 10 if noisy else 3
        mats = np.zeros((len(h), 1 + noisy, n, n), dtype=complex)
        mats[:, 0, :3, :3] = -1j * t * h
        if noisy:
            # -i kron(h_eff, I) + i kron(I, h_eff*), then the jumps: B_aa
            # gains from B_bb, and the vacuum from each B_bb
            eye = np.eye(3)
            mats[:, 1, :9, :9] = (
                -1j * h[:, :, None, :, None] * eye[None, None, :, None, :]
                + 1j * eye[None, :, None, :, None]
                * h.conj()[:, None, :, None, :]).reshape(-1, 9, 9)
            mats[:, 1, [9, 0, 4, 8], :9:4] += jump[at]
            mats[:, 1] *= t
    exp = _expm_small(mats.reshape(-1, n, n),
                      at[0].repeat(1 + noisy)).reshape(mats.shape)
    maps = [_SiteMaps(offset, exp[i, 0, :3, :3], exp[i, 1] if noisy else None)
            for offset, i in zip(offsets, site.reshape(count, sites))]
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
    which forms no rho, it is 0.0, or NaN if psi is not finite.  Read
    off populations by slot (protocol), p_me[j-1] is the walker's
    probability at qutrit j (e_j plus f_j), residual_vacuum that of the
    vacuum and residual_cavity that of the photons, in site order.
    """

    state: np.ndarray
    populations: np.ndarray
    max_trace_error: float
    max_hermiticity_drift: float
    p_me: np.ndarray
    residual_vacuum: float
    residual_cavity: float


def _read(psi, state, n: int, size: int, trace_error, final: bool
          ) -> EvolutionResult:
    """The n-step chain's result off a walk's psi, or its rho when psi is
    None, whose leading size entries alone are nonzero: psi's leading
    3n+3 entries, or rho's leading block of that size, re-symmetrized
    after its drift is taken, on a copy, or, when final, on rho in place,
    so no copy is alive beside the temporaries of _symmetrize."""
    end = 3 * n + 3
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
    return EvolutionResult(
        out, populations, float(trace_error), drift,
        populations[1::3] + populations[2::3], float(populations[0]),
        float(sum(populations[3::3])))


def walk_steps(psi0: np.ndarray, step_maps: tuple[_SiteMaps, ...],
               reads: Container[int]) -> Iterator[EvolutionResult]:
    """Apply step_maps, the compiled walk step (compile_step) of psi0's
    chain, N times to the sector state vector psi0, of length 3N+3,
    N >= 1; yield, after each step n = 1..N in reads, in increasing
    order, the n-step chain's own run from psi0's leading 3n+3 entries.

    Consecutive segments on one site layout are one map, so a protocol
    step applies two maps: coin then store, and retrieve.  compile_step
    gives every map of a step a decay or none of them, none exactly when
    every rate is 0; the run then propagates psi (apply_rows), and rho
    (apply) otherwise.  A psi0 of another shape, or a map of other than
    N+1 sites, is a ValueError when the first step is taken.
    Step n's result holds psi when every rate is 0, else rho, read off
    the state's leading entries.  That is exact while the state stays on
    sites 1..n+1 up to step n, as a walker started on site 1 does; a
    state that leaves them is a ValueError at step n.  A result before
    step N is a copy; step N's is the run's final state, read in place,
    which the walk lets go as it ends.  Steps not in reads cost and
    check nothing.
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
    if any(maps.decay is not None for maps in step_maps):
        psi, state = None, np.zeros((dim + 1, dim + 1), dtype=complex)
        np.multiply(psi0[:size, None], psi0[:size].conj(),
                    out=state[:size, :size])
        triplets = [_triplets(state, offset, dim // 3) for offset in (0, 1)]
    else:   # propagate psi as one column, not rho (module docstring)
        psi, state = np.append(psi0, 0.0)[:, None], None

    max_trace_error = np.float64(0.0)
    for step in range(1, n_steps + 1):
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
        if step in reads:    # unbound here: a result the caller drops is freed
            yield _read(psi, state, step, size, max_trace_error,
                        final=step == n_steps)


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
