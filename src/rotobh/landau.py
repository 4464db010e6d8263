"""Landau expansion of the single-site mean-field ground energy.

In units of U the local (zero-hopping) levels are E_n = -mu*n + n(n-1)
for occupation n, so the Mott lobe with filling n >= 1 spans
2(n-1) < mu < 2n and the vacuum lobe n = 0 spans mu < 0.  Near the lobe
the ground energy in the order parameter psi expands as

    E(psi) = E_n + a2 psi^2 + a4 psi^4 + ...

with the second-order susceptibility sum

    chi(mu, n) = (n+1)/(mu - 2n) + n/(2(n-1) - mu)      (< 0 in-lobe)

Three conventions for a2 are exposed because they disagree in the
literature-facing constant while sharing the same chi:

  literal      4 D^2 chi         the bare second-order sum; strictly
                                 negative inside every lobe, so on its
                                 own it never vanishes and defines no
                                 boundary
  consistent   4 D (1 + D chi)   root in D at D_c = -1/chi, the closed
                                 form used by the phase-diagram module
                                 (package default)
  variational  2 D (1 + 2 D chi) quadratic coefficient of the exact
                                 mean-field ground energy; its root sits
                                 at D_c/2 and matches the numeric oracle

The boundary of lobe n in the effective hopping D is the root of a2 in
the consistent or the variational variant, which gives the two boundary
conventions

    D_c(mu, n)  = -1/chi(mu, n)       paper
    D_cv(mu, n) = D_c(mu, n) / 2      variational

(boundary_hopping); the numeric oracle sides with the variational one.
lobe_index names the lobe whose interval holds mu.

a4 = 16 D^4 B where B is a six-term fourth-order bracket; terms whose
prefactor n or n(n-1) vanishes are dropped outright so fillings 0 and 1
never evaluate gaps to negative occupations.

The sensitivity prefactor kappa(mu, n) is the on-boundary coefficient in
Delta = kappa * delta: evaluating psi = sqrt(-a2/(2 a4)) just above the
variant's boundary gives kappa = (8 D_c^3 B)^(-1/2) for the consistent
variant and exactly twice that for the variational one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, DegenerateGapError, DomainError, InvalidExpansionError

A2_VARIANTS = ("literal", "consistent", "variational")
CONVENTIONS = ("paper", "variational")

# Landau a2 variant whose root reproduces each boundary convention.
VARIANT_FOR_CONVENTION = {"paper": "consistent", "variational": "variational"}

LOBE_TIP_TOL = 1e-10  # published bound on |d mu| of lobe_tip (meets ~1 ulp)


def local_energy(n: int, mu: float) -> float:
    """E_n = -mu*n + n(n-1), the zero-hopping level of occupation n."""
    if n < 0:
        raise DomainError("occupation must be >= 0")
    return -mu * n + n * (n - 1)


def energy_gap(n: int, m: int, mu: float) -> float:
    """E_n - E_m between local levels."""
    return local_energy(n, mu) - local_energy(m, mu)


def lobe_interval(n: int):
    """Open mu interval of lobe n: (2(n-1), 2n) for n >= 1, (-inf, 0) for n = 0."""
    if n < 0:
        raise DomainError("lobe index must be >= 0")
    if n == 0:
        return (-math.inf, 0.0)
    return (2.0 * (n - 1), 2.0 * n)


def lobe_index(mu: float) -> int:
    """Lobe containing mu: 0 for mu < 0, else floor(mu/2) + 1."""
    if not math.isfinite(mu):
        raise DomainError("mu/U must be finite")
    if mu < 0.0:
        return 0
    return int(mu // 2.0) + 1


def _require_interior(mu: float, n: int) -> None:
    lo, hi = lobe_interval(n)
    if mu == lo or mu == hi:
        raise DegenerateGapError(
            "mu/U = %g is a corner of lobe %d; perturbative gap vanishes" % (mu, n))
    if not (lo < mu < hi):
        raise DomainError("mu/U = %g lies outside lobe %d" % (mu, n))


def chi_susceptibility(mu: float, n: int) -> float:
    """chi(mu, n); negative throughout every lobe interior."""
    _require_interior(mu, n)
    if n == 0:
        return 1.0 / mu
    return (n + 1) / (mu - 2 * n) + n / (2 * (n - 1) - mu)


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise ConfigError("unknown convention %r" % (convention,))


def boundary_hopping(mu: float, n: int, convention: str = "paper") -> float:
    """Critical effective hopping of lobe n at chemical potential mu."""
    _check_convention(convention)
    D_c = -1.0 / chi_susceptibility(mu, n)
    return D_c if convention == "paper" else 0.5 * D_c


def a2(D: float, mu: float, n: int, variant: str = "consistent") -> float:
    """Quadratic Landau coefficient in the requested convention."""
    if variant not in A2_VARIANTS:
        raise ConfigError("unknown a2 variant %r" % (variant,))
    if D < 0.0:
        raise DomainError("effective hopping must be >= 0")
    chi = chi_susceptibility(mu, n)
    if variant == "literal":
        return 4.0 * D * D * chi
    if variant == "consistent":
        return 4.0 * D * (1.0 + D * chi)
    return 2.0 * D * (1.0 + 2.0 * D * chi)


def a4_bracket(mu: float, n: int) -> float:
    """The six-term fourth-order bracket B with a4 = 16 D^4 B.

    Gap shorthand (all relative to level n): up1 = E_n - E_{n+1},
    dn1 = E_n - E_{n-1}, up2 = E_n - E_{n+2}, dn2 = E_n - E_{n-2}.
    """
    _require_interior(mu, n)
    up1 = mu - 2.0 * n
    dn1 = 2.0 * (n - 1) - mu
    up2 = 2.0 * (mu - 2.0 * n - 1.0)
    dn2 = 2.0 * (2.0 * (n - 1) - mu - 1.0)
    terms = [(n + 1) * (n + 2) / (up1 ** 2 * up2),
             -(n + 1) ** 2 / up1 ** 3]
    if n > 0:
        terms.append(-n ** 2 / dn1 ** 3)
        terms.append(-n * (n + 1) / (up1 * dn1 ** 2))
        terms.append(-n * (n + 1) / (up1 ** 2 * dn1))
    if n * (n - 1) > 0:
        terms.append(n * (n - 1) / (dn1 ** 2 * dn2))
    return math.fsum(terms)


def _positive_bracket(mu: float, n: int) -> float:
    """a4_bracket(mu, n), which the quartic expansion needs to be > 0."""
    B = a4_bracket(mu, n)
    if B <= 0.0:
        raise InvalidExpansionError(
            "fourth-order bracket B = %g is not positive at mu/U = %g, n = %d"
            % (B, mu, n))
    return B


def _check_boundary_variant(variant: str, what: str) -> None:
    if variant not in ("consistent", "variational"):
        raise ConfigError("%s needs variant 'consistent' or "
                          "'variational', got %r" % (what, variant))


def a4(D: float, mu: float, n: int) -> float:
    """Quartic Landau coefficient 16 D^4 B; requires B > 0."""
    if D < 0.0:
        raise DomainError("effective hopping must be >= 0")
    return 16.0 * D ** 4 * _positive_bracket(mu, n)


def order_parameter_landau(D: float, mu: float, n: int,
                           variant: str = "consistent") -> float:
    """psi = sqrt(-a2/(2 a4)) when a2 < 0, else 0 (Mott side)."""
    _check_boundary_variant(variant, "order parameter")
    a2_val = a2(D, mu, n, variant)
    if a2_val >= 0.0:
        return 0.0
    return math.sqrt(-a2_val / (2.0 * a4(D, mu, n)))


def kappa(mu: float, n: int, variant: str = "consistent") -> float:
    """On-boundary sensitivity prefactor in Delta = kappa * delta.

    consistent  -> (8 D_c^3 B)^(-1/2), D_c = -1/chi
    variational -> (16 D_cv^3 B)^(-1/2), D_cv = D_c/2; equals twice the
                   consistent value.
    Independent of t/U and of the rotation state by construction.
    """
    _check_boundary_variant(variant, "kappa")
    D_c = boundary_hopping(mu, n, "paper")
    B = _positive_bracket(mu, n)
    if variant == "consistent":
        return 1.0 / math.sqrt(8.0 * D_c ** 3 * B)
    return 1.0 / math.sqrt(16.0 * (0.5 * D_c) ** 3 * B)


@dataclass(frozen=True)
class LandauCoefficients:
    """All Landau data at one (D, mu, n) point.

    valid is set when mu is strictly inside the lobe and a4 > 0, i.e.
    when the quartic expansion actually bounds the energy from below.
    """

    a2_literal: float
    a2_consistent: float
    a2_variational: float
    a4: float
    bracket_B: float
    lobe_n: int
    valid: bool


def landau_coefficients(D: float, mu: float, n: int) -> LandauCoefficients:
    B = a4_bracket(mu, n)  # raises at corners / outside the lobe
    a4_val = 16.0 * D ** 4 * B
    return LandauCoefficients(
        a2_literal=a2(D, mu, n, "literal"),
        a2_consistent=a2(D, mu, n, "consistent"),
        a2_variational=a2(D, mu, n, "variational"),
        a4=a4_val,
        bracket_B=B,
        lobe_n=n,
        valid=a4_val > 0.0,
    )
