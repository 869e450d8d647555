import math

import numpy as np
from fullspace import liouvillian_matrix
from scipy.linalg import expm

from cqwalk import ExperimentConfig
from cqwalk.idealwalk import coin_matrix

INF = math.inf


def zero_noise_config(**overrides) -> ExperimentConfig:
    """Config with every decoherence channel switched off."""
    base = dict(t1_cavity_us=INF, t1_ge_us=INF, t1_ef_us=INF,
                t1_gf_us=INF, tphi_e_us=INF, tphi_f_us=INF)
    base.update(overrides)
    return ExperimentConfig(**base)


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


def dense_expm_evolve(rho0, schedule, collapse):
    """Small-N oracle: dense expm(t L) of the Liouvillian per segment.

    No block structure and no rank-one assumption; the superoperator
    has dim^2 rows, so keep dim below ~30.
    """
    return dense_expm_states(rho0, schedule, collapse)[-1]


def dense_expm_states(rho0, schedule, collapse):
    """The states of dense_expm_evolve at t=0 and after every segment."""
    dim = rho0.shape[0]
    ops = dense_operators(collapse, dim)
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


def dense_operators(collapse, dim):
    """The channels (target, source, rate) of a CollapseSet as dense
    dim x dim operators sqrt(rate) |target><source|."""
    ops = []
    for target, source, rate in collapse.channels:
        op = np.zeros((dim, dim), dtype=complex)
        op[target, source] = math.sqrt(rate)
        ops.append(op)
    return ops


def lindblad_apply(rho, h, collapse):
    """Right-hand side of the master equation, applied densely.

    Reference for the sparse Liouvillian of fullspace; O(dim^3) per call.
    """
    out = -1j * (h @ rho - rho @ h)
    for op in dense_operators(collapse, h.shape[0]):
        opd = op.conj().T
        anti = opd @ op
        out += op @ rho @ opd - 0.5 * (anti @ rho + rho @ anti)
    return out
