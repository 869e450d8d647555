"""Hilbert-space bookkeeping for a chain of qutrits coupled by cavities.

The device is a 1D array of N+1 transmon-style qutrits (levels g, e, f)
with N cavities between neighbours.  Two representations are supported:

``truncated``
    The walk dynamics conserve the total excitation number
    (non-ground qutrits plus photons) and the protocol keeps the system
    in the single-excitation sector.  That sector has dimension 3N+3:
    the joint vacuum, then (e, f) for each qutrit, then one photon in
    each cavity.  Operators in this mode are the compressions P F P of
    the full-space operators F onto that sector.  Each Hamiltonian term
    and collapse operator of the protocol compresses to one transition
    |a><b| between sector states, so they are built by index (from
    qutrit_index and cavity_index), never as embedded dense operators.

``full``
    The exact tensor product of N+1 qutrits and N Fock-truncated
    cavities, dimension 3^(N+1) * cutoff^N.  Exponentially large; used
    to validate the truncated representation at small N.  Only this mode
    builds dense embedded operators (qutrit_transition,
    cavity_annihilation).

Basis ordering in truncated mode (index: state):

    0                : vacuum (all qutrits g, no photons)
    2j - 1           : qutrit j in e          (j = 1..N+1)
    2j               : qutrit j in f
    2(N+1) + j       : one photon in cavity j (j = 1..N)

Units convention for the whole package: times in microseconds, angular
frequencies in rad/us.  Interface helpers take laboratory-style
frequency inputs in MHz (f = omega / 2pi) and convert exactly once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# Qutrit level codes.
G, E, F = 0, 1, 2

_LEVEL_NAMES = {G: "g", E: "e", F: "f"}


@dataclass(frozen=True)
class BasisLabel:
    """Label of one truncated-sector basis state.

    kind is "vacuum", "qutrit" or "cavity"; site is the 1-based qutrit
    or cavity index; level is G/E/F for qutrit labels and ignored
    otherwise.
    """

    kind: str
    site: int = 0
    level: int = G

    @classmethod
    def vacuum(cls) -> "BasisLabel":
        return cls("vacuum")

    @classmethod
    def qutrit(cls, site: int, level: int) -> "BasisLabel":
        if level not in (E, F):
            raise ValueError("excited qutrit label must have level e or f")
        return cls("qutrit", site, level)

    @classmethod
    def cavity(cls, site: int) -> "BasisLabel":
        return cls("cavity", site)

    def __str__(self) -> str:
        if self.kind == "vacuum":
            return "vac"
        if self.kind == "qutrit":
            return f"q{self.site}:{_LEVEL_NAMES[self.level]}"
        return f"c{self.site}:1"


class StateSpace:
    """Basis enumeration and index lookups for one chain size.

    Parameters
    ----------
    n_steps : int
        Number of walk steps N.  The chain has N+1 qutrits, N cavities.
    mode : str
        "truncated" (single-excitation sector) or "full" (tensor
        product with a Fock cutoff).
    fock_cutoff : int
        Photon levels kept per cavity in full mode (>= 2).
    allow_large : bool
        Full mode refuses n_steps > 3 unless this is set; the dimension
        grows as 3^(N+1) * cutoff^N and the Liouvillian squares it.
    """

    def __init__(self, n_steps: int, mode: str = "truncated",
                 fock_cutoff: int = 2, allow_large: bool = False):
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if mode not in ("truncated", "full"):
            raise ValueError(f"unknown mode {mode!r}")
        self.n_steps = int(n_steps)
        self.n_qutrits = self.n_steps + 1
        self.n_cavities = self.n_steps
        self.mode = mode
        self.fock_cutoff = int(fock_cutoff)
        if mode == "truncated":
            self.dim = 3 * self.n_steps + 3
        else:
            if self.fock_cutoff < 2:
                raise ValueError("fock_cutoff must be >= 2")
            if self.n_steps > 3 and not allow_large:
                raise ValueError(
                    "full mode with n_steps > 3 is very large; "
                    "pass allow_large=True if you mean it")
            self.dim = 3 ** self.n_qutrits * self.fock_cutoff ** self.n_cavities
            self._full_index = {}
            self._labels = []
            for levels in itertools.product(range(3), repeat=self.n_qutrits):
                for photons in itertools.product(range(self.fock_cutoff),
                                                 repeat=self.n_cavities):
                    self._full_index[(levels, photons)] = len(self._labels)
                    self._labels.append((levels, photons))

    def _enumerate_truncated(self) -> list[BasisLabel]:
        labels = [BasisLabel.vacuum()]
        for j in range(1, self.n_qutrits + 1):
            labels.append(BasisLabel.qutrit(j, E))
            labels.append(BasisLabel.qutrit(j, F))
        for j in range(1, self.n_cavities + 1):
            labels.append(BasisLabel.cavity(j))
        return labels

    # -- index lookups ------------------------------------------------

    @property
    def labels(self):
        if self.mode == "truncated":    # built on demand; runs never read them
            return self._enumerate_truncated()
        return list(self._labels)

    @property
    def vacuum_index(self) -> int:
        if self.mode == "truncated":
            return 0
        return self.full_index((G,) * self.n_qutrits, (0,) * self.n_cavities)

    def qutrit_index(self, site: int, level: int) -> int:
        """Truncated index of the state with qutrit `site` in e/f."""
        self._require("truncated")
        self._check_qutrit(site)
        if level == E:
            return 2 * site - 1
        if level == F:
            return 2 * site
        raise ValueError("level must be E or F")

    def cavity_index(self, site: int) -> int:
        """Truncated index of the one-photon state of cavity `site`."""
        self._require("truncated")
        self._check_cavity(site)
        return 2 * self.n_qutrits + site

    def full_index(self, levels, photons) -> int:
        self._require("full")
        return self._full_index[(tuple(levels), tuple(photons))]

    def _require(self, mode: str) -> None:
        if self.mode != mode:
            raise ValueError(f"operation requires {mode} mode, not {self.mode}")

    def _check_qutrit(self, site: int) -> None:
        if not 1 <= site <= self.n_qutrits:
            raise ValueError(f"qutrit site {site} outside 1..{self.n_qutrits}")

    def _check_cavity(self, site: int) -> None:
        if not 1 <= site <= self.n_cavities:
            raise ValueError(f"cavity site {site} outside 1..{self.n_cavities}")

    # -- operators ----------------------------------------------------

    def qutrit_transition(self, site: int, to_level: int, from_level: int) -> np.ndarray:
        """Full-mode matrix of |to><from| on qutrit `site` (identity elsewhere).

        Truncated-mode operators are built by index instead, from
        qutrit_index/cavity_index (see protocol and lindblad).
        """
        self._require("full")
        self._check_qutrit(site)
        if to_level not in (G, E, F) or from_level not in (G, E, F):
            raise ValueError("levels must be G, E or F")
        local = np.zeros((3, 3))
        local[to_level, from_level] = 1.0
        return self._embed_qutrit(site, local)

    def cavity_annihilation(self, site: int) -> np.ndarray:
        """Full-mode photon annihilation operator of cavity `site`."""
        self._require("full")
        self._check_cavity(site)
        c = self.fock_cutoff
        local = np.diag(np.sqrt(np.arange(1.0, c)), k=1)
        return self._embed_cavity(site, local)

    def excitation_number(self) -> np.ndarray:
        """Diagonal operator counting non-ground qutrits plus photons."""
        if self.mode == "truncated":
            d = np.ones(self.dim)
            d[0] = 0.0
            return np.diag(d)
        d = np.array([sum(1 for lv in levels if lv != G) + sum(photons)
                      for levels, photons in self._labels], dtype=float)
        return np.diag(d)

    def _embed_qutrit(self, site: int, local: np.ndarray) -> np.ndarray:
        before = 3 ** (site - 1)
        after = (3 ** (self.n_qutrits - site)
                 * self.fock_cutoff ** self.n_cavities)
        return np.kron(np.kron(np.eye(before), local), np.eye(after))

    def _embed_cavity(self, site: int, local: np.ndarray) -> np.ndarray:
        before = 3 ** self.n_qutrits * self.fock_cutoff ** (site - 1)
        after = self.fock_cutoff ** (self.n_cavities - site)
        return np.kron(np.kron(np.eye(before), local), np.eye(after))


def embedding_matrix(trunc: StateSpace, full: StateSpace) -> np.ndarray:
    """Isometry (full.dim x trunc.dim) sending sector states into the
    tensor-product space.  Columns follow the truncated basis order."""
    if trunc.mode != "truncated" or full.mode != "full":
        raise ValueError("expected (truncated, full) spaces")
    if trunc.n_steps != full.n_steps:
        raise ValueError("chain sizes differ")
    nq, nc = full.n_qutrits, full.n_cavities
    v = np.zeros((full.dim, trunc.dim))
    for col, lab in enumerate(trunc.labels):
        levels = [G] * nq
        photons = [0] * nc
        if lab.kind == "qutrit":
            levels[lab.site - 1] = lab.level
        elif lab.kind == "cavity":
            photons[lab.site - 1] = 1
        v[full.full_index(levels, photons), col] = 1.0
    return v


TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DeviceParams:
    """Drive and coupling parameters of one experiment.

    All angular frequencies in rad/us, angles in rad.  Use `from_mhz`
    to build from laboratory frequencies (omega = 2pi f).
    """

    n_steps: int
    g: float                      # qutrit-cavity coupling, rad/us
    omega: float                  # coin drive amplitude, rad/us
    mu: float                     # cavity-to-next-qutrit coupling, rad/us
    theta: float = math.pi / 4    # coin rotation angle
    phi: float = -math.pi / 2     # coin drive phase
    # Documentation-only transition frequencies (rad/us).  They never enter
    # the interaction-picture dynamics; omega_c == omega_eg is the resonance
    # assumption baked into the swap Hamiltonians, so it is checked when both
    # are given.
    omega_c: float | None = None
    omega_eg: float | None = None
    omega_fe: float | None = None

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        for name in ("g", "omega", "mu"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.theta < math.pi / 2:
            raise ValueError("theta must lie in (0, pi/2)")
        if self.omega_c is not None and self.omega_eg is not None:
            if not math.isclose(self.omega_c, self.omega_eg,
                                rel_tol=1e-12, abs_tol=0.0):
                raise ValueError(
                    "cavities must be resonant with the e-g transition "
                    "(omega_c != omega_eg)")

    @classmethod
    def from_mhz(cls, n_steps: int, g_over_2pi_mhz: float,
                 omega_over_2pi_mhz: float, mu_over_2pi_mhz: float | None = None,
                 theta_rad: float = math.pi / 4,
                 phi_rad: float = -math.pi / 2) -> "DeviceParams":
        """Build from f = omega/2pi values in MHz (1 MHz = 1 cycle/us).

        mu defaults to g when omitted, matching a symmetric chain.
        """
        if mu_over_2pi_mhz is None:
            mu_over_2pi_mhz = g_over_2pi_mhz
        return cls(n_steps=n_steps,
                   g=TWO_PI * g_over_2pi_mhz,
                   omega=TWO_PI * omega_over_2pi_mhz,
                   mu=TWO_PI * mu_over_2pi_mhz,
                   theta=theta_rad, phi=phi_rad)

    @property
    def g_over_2pi_mhz(self) -> float:
        return self.g / TWO_PI

    @property
    def omega_over_2pi_mhz(self) -> float:
        return self.omega / TWO_PI

    @property
    def mu_over_2pi_mhz(self) -> float:
        return self.mu / TWO_PI
