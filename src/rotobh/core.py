"""The paper's three maps from a rotating ring to the effective hopping.

A Bose gas on a ring lattice of N sites rotating at angular velocity
Omega acquires a site-independent Peierls phase on every bond.  Rotation
enters the model through three maps, each with its home here:

    (m, R, N)      -> gamma = 2 pi m R^2 / (N hbar) [s]  ring_gamma
    (gamma, Omega) -> theta = gamma * Omega              peierls_phase
    (t/U, theta)   -> D = (t/U) cos(theta)               effective_hopping

All model energies are measured in units of the on-site repulsion U, so
the couplings reduce to t/U and mu/U, and in mean-field theory rotation
enters the problem only through D.  Callers that work purely in
dimensionless terms can skip ring_gamma and supply gamma or theta
directly.
"""

from __future__ import annotations

import math

from .errors import ConfigError

HBAR = 1.054571817e-34  # J s (CODATA 2018)
ATOMIC_MASS = 1.66053906660e-27  # kg


def ring_gamma(mass_amu: float, radius_um: float, sites: int) -> float:
    """gamma = 2 pi m R^2 / (N hbar) [s], with m in amu and R in um.

    ConfigError unless mass and radius are finite and > 0, sites is an
    integer >= 3 that a float can hold, and the gamma they give is finite
    and > 0.
    """
    mass = mass_amu * ATOMIC_MASS
    radius = radius_um * 1e-6
    if not (math.isfinite(mass) and mass > 0.0):
        raise ConfigError("mass must be finite and positive")
    if not (math.isfinite(radius) and radius > 0.0):
        raise ConfigError("radius must be finite and positive")
    try:
        n = float(sites)
    except OverflowError:  # an int beyond the float range
        n = math.inf
    if not (n.is_integer() and n >= 3.0):
        raise ConfigError("sites must be an integer >= 3 within the "
                          "float range")
    try:
        gamma = 2.0 * math.pi * mass * radius ** 2 / (sites * HBAR)
    except OverflowError:  # radius ** 2 raises where a product gives inf
        gamma = math.inf
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ConfigError("gamma = 2 pi m R^2 / (N hbar) = %g is not "
                          "finite and > 0" % gamma)
    return gamma


def peierls_phase(gamma: float, omega: float) -> float:
    """theta = gamma * omega; signed, linear in omega."""
    return gamma * omega


def effective_hopping(t: float, theta: float) -> float:
    """D = (t/U) cos(theta); even and 2 pi periodic in theta."""
    return t * math.cos(theta)
