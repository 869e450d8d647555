import collections
import math

import numpy as np
import pytest
from fullspace import liouvillian_matrix
from scipy.linalg import expm

from cqwalk import ExperimentConfig, harness
from cqwalk.idealwalk import coin_matrix
from cqwalk.lindblad import compile_step, walk_steps

INF = math.inf


@pytest.fixture(autouse=True)
def no_kept_step():
    """Every test starts with no compiled walk step kept (the harness's
    one-entry memo), so a count of compiles does not depend on which
    test ran before."""
    harness._compiled_step.cache_clear()


def zero_noise_config(**overrides) -> ExperimentConfig:
    """Config with every decoherence channel switched off."""
    base = dict(t1_cavity_us=INF, t1_ge_us=INF, t1_ef_us=INF,
                t1_gf_us=INF, tphi_e_us=INF, tphi_f_us=INF)
    base.update(overrides)
    return ExperimentConfig(**base)


def walk_schedule(psi0, schedule, rates):
    """The readouts of the walk of schedule, one step, from psi0, as a
    run takes it: the step compiled once, then walked."""
    return walk_steps(psi0, compile_step(schedule, rates))


def evolve_final(psi0, schedule, rates):
    """The final state of the walk: its last step's readout."""
    steps = walk_schedule(psi0, schedule, rates)
    return collections.deque(steps, maxlen=1)[0]()


def brute_force_walk(n, theta, coin):
    """Independent walk oracle: dense (shift @ (I x C))^n product.

    Sites and coin live in one 2(n+1)-dim vector; no amplitude-array
    shortcuts shared with the package implementation.
    """
    sites = n + 1
    dim = 2 * sites
    c = coin_matrix(theta)
    coin_op = np.kron(np.eye(sites), c)
    shift = np.zeros((dim, dim))
    for x in range(sites):
        shift[2 * x, 2 * x] = 1.0                    # coin 0 stays
        if x + 1 < sites:
            shift[2 * (x + 1) + 1, 2 * x + 1] = 1.0  # coin 1 hops right
    u = np.linalg.matrix_power(shift @ coin_op, n)
    psi = np.zeros(dim, dtype=complex)
    psi[0], psi[1] = coin.c0, coin.c1
    out = u @ psi
    return np.abs(out[0::2]) ** 2 + np.abs(out[1::2]) ** 2


def dense_expm_evolve(rho0, schedule, rates):
    """Small-N oracle: dense expm(t L) of the Liouvillian per segment.

    No block structure and no rank-one assumption; the superoperator
    has dim^2 rows, so keep dim below ~30.
    """
    return dense_expm_states(rho0, schedule, rates)[-1]


def dense_expm_states(rho0, schedule, rates):
    """The states of dense_expm_evolve at t=0 and after every segment."""
    dim = rho0.shape[0]
    ops = dense_operators(rates, dim)
    vec = np.asarray(rho0, dtype=complex).reshape(-1)
    states = [vec.reshape(dim, dim)]
    props = {}
    for seg in schedule:
        key = (id(seg.hamiltonian), seg.offset, seg.duration)
        if key not in props:
            liou = liouvillian_matrix(dense_hamiltonian(seg), ops).toarray()
            props[key] = expm(seg.duration * liou)
        vec = props[key] @ vec
        states.append(vec.reshape(dim, dim))
    return states


def dense_hamiltonian(seg):
    """A site-form segment's Hamiltonian as a dense matrix on the sector of
    its chain: site j's 3x3 block on basis slots seg.offset + 3j ..
    seg.offset + 3j + 2 (protocol.Segment)."""
    dim = 3 * len(seg.hamiltonian)
    h = np.zeros((dim + 1, dim + 1), dtype=complex)
    for j, block in enumerate(seg.hamiltonian):
        start = seg.offset + 3 * j
        h[start:start + 3, start:start + 3] = block
    # the slot after the sector (c_{N+1} at offset 1) must stay empty
    assert not h[dim].any() and not h[:, dim].any()
    return h[:dim, :dim]


def sector_channels(rates, dim):
    """(label, target, source, rate) of every open collapse channel of the
    sector of dimension dim = 3N+3, each the transition sqrt(rate)
    |target><source|, found by the index arithmetic of the basis in the
    protocol docstring (vacuum 0, e_j 3j - 2, f_j 3j - 1, c_j 3j).  Labels and
    order are those of fullspace.collapse_operators."""
    n = dim // 3 - 1
    channels = []
    for j in range(1, n + 2):
        e, f = 3 * j - 2, 3 * j - 1
        for name, rate, target, source in (
                ("relax_ge", rates.gamma_ge, 0, e),
                ("relax_ef", rates.gamma_ef, e, f),
                ("relax_gf", rates.gamma_gf, 0, f),
                ("dephase_e", rates.gamma_phi_e, e, e),
                ("dephase_f", rates.gamma_phi_f, f, f)):
            if rate > 0.0:
                channels.append((f"{name}_q{j}", target, source, rate))
    if rates.kappa > 0.0:
        for j in range(1, n + 1):
            channels.append((f"loss_c{j}", 0, 3 * j, rates.kappa))
    return channels


def dense_operators(rates, dim):
    """The sector_channels of rates as dense dim x dim operators
    sqrt(rate) |target><source|."""
    ops = []
    for _, target, source, rate in sector_channels(rates, dim):
        op = np.zeros((dim, dim), dtype=complex)
        op[target, source] = math.sqrt(rate)
        ops.append(op)
    return ops


def lindblad_apply(rho, h, rates):
    """Right-hand side of the master equation, applied densely.

    Reference for the sparse Liouvillian of fullspace; O(dim^3) per call.
    """
    out = -1j * (h @ rho - rho @ h)
    for op in dense_operators(rates, h.shape[0]):
        opd = op.conj().T
        anti = opd @ op
        out += op @ rho @ opd - 0.5 * (anti @ rho + rho @ anti)
    return out
