"""The paper's three maps from a rotating ring to the effective hopping.

A Bose gas on a ring lattice of N sites rotating at angular velocity
Omega acquires a site-independent Peierls phase on every bond.  Rotation
enters the model through three maps, each with its home here:

    (m, R, N)      -> gamma = 2 pi m R^2 / (N hbar) [s]  scale_factor
    (gamma, Omega) -> theta = gamma * Omega              peierls_phase
    (t/U, theta)   -> D = (t/U) cos(theta)               effective_hopping

All model energies are measured in units of the on-site repulsion U, so
the couplings reduce to t/U and mu/U, and in mean-field theory rotation
enters the problem only through D.  Callers that work purely in
dimensionless terms can skip RingFrame and supply gamma or theta
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

HBAR = 1.054571817e-34  # J s (CODATA 2018)
ATOMIC_MASS = 1.66053906660e-27  # kg


@dataclass(frozen=True)
class RingFrame:
    """Physical ring: mass [kg], radius [m], site count.

    ConfigError unless mass and radius are finite and > 0, sites is an
    integer >= 3 that a float can hold, and the gamma they give is finite
    and > 0.
    """

    mass: float
    radius: float
    sites: int

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0.0):
            raise ConfigError("mass must be finite and positive")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ConfigError("radius must be finite and positive")
        try:
            sites = float(self.sites)
        except OverflowError:  # an int beyond the float range
            sites = math.inf
        if not (sites.is_integer() and sites >= 3.0):
            raise ConfigError("sites must be an integer >= 3 within the "
                              "float range")
        try:
            gamma = scale_factor(self)
        except OverflowError:  # radius ** 2 raises where a product gives inf
            gamma = math.inf
        if not (math.isfinite(gamma) and gamma > 0.0):
            raise ConfigError("gamma = 2 pi m R^2 / (N hbar) = %g is not "
                              "finite and > 0" % gamma)

    @classmethod
    def from_lab_units(cls, mass_amu, radius_um, sites):
        """Build a frame from atomic mass units and micrometers."""
        return cls(mass=mass_amu * ATOMIC_MASS, radius=radius_um * 1e-6,
                   sites=sites)

    @property
    def gamma(self) -> float:
        return scale_factor(self)


def scale_factor(frame: RingFrame) -> float:
    """gamma = 2 pi m R^2 / (N hbar), the rotation-to-phase scale [s]."""
    return 2.0 * math.pi * frame.mass * frame.radius ** 2 / (frame.sites * HBAR)


def peierls_phase(gamma: float, omega: float) -> float:
    """theta = gamma * omega; signed, linear in omega."""
    return gamma * omega


def effective_hopping(t: float, theta: float) -> float:
    """D = (t/U) cos(theta); even and 2 pi periodic in theta."""
    return t * math.cos(theta)
