"""Basis bookkeeping for a chain of qutrits coupled by cavities.

The device is a 1D array of N+1 transmon-style qutrits (levels g, e, f)
with N cavities between neighbours.  The walk dynamics conserve the
total excitation number (non-ground qutrits plus photons), and every
pulse and collapse channel of the protocol keeps the system in the
single-excitation sector.  That sector has dimension 3N+3: the joint
vacuum, then one triplet per site j, (e_j, f_j, c_j): qutrit j in e,
qutrit j in f, one photon in cavity j.  The last site has no cavity.
So the n-step sector is exactly the first 3n+3 states of the N-step
sector for every n < N.  Each Hamiltonian term and collapse operator
compresses to one transition |a><b| between sector states.  So a
collapse channel is built by index (from qutrit_index and
cavity_index), and a pulse Hamiltonian as one 3x3 block per site
(protocol), never as an embedded dense operator.  The tests check both
against the full tensor-product space at small N.

Basis ordering (index: state):

    0                : vacuum (all qutrits g, no photons)
    3j - 2           : qutrit j in e          (j = 1..N+1)
    3j - 1           : qutrit j in f
    3j               : one photon in cavity j (j = 1..N)

Units convention for the whole package: times in microseconds, angular
frequencies in rad/us.  Interface helpers take laboratory-style
frequency inputs in MHz (f = omega / 2pi) and convert exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Qutrit level codes.
G, E, F = 0, 1, 2


class StateSpace:
    """Index lookups of the single-excitation sector of one chain size.

    n_steps is the number of walk steps N: the chain has N+1 qutrits
    and N cavities.
    """

    vacuum_index = 0

    def __init__(self, n_steps: int):
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        self.n_steps = int(n_steps)
        self.n_qutrits = self.n_steps + 1
        self.n_cavities = self.n_steps
        self.dim = 3 * self.n_steps + 3

    def qutrit_index(self, site: int, level: int) -> int:
        """Index of the state with qutrit `site` in e/f."""
        if not 1 <= site <= self.n_qutrits:
            raise ValueError(f"qutrit site {site} outside 1..{self.n_qutrits}")
        if level == E:
            return 3 * site - 2
        if level == F:
            return 3 * site - 1
        raise ValueError("level must be E or F")

    def cavity_index(self, site: int) -> int:
        """Index of the one-photon state of cavity `site`."""
        if not 1 <= site <= self.n_cavities:
            raise ValueError(f"cavity site {site} outside 1..{self.n_cavities}")
        return 3 * site


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

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        for name in ("g", "omega", "mu"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.theta < math.pi / 2:
            raise ValueError("theta must lie in (0, pi/2)")

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
