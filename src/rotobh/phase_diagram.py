"""Closed-form phase boundaries, lobe tips, classification, and sweeps.

The boundary of lobe n in the effective hopping D = (t/U) cos(theta) is

    D_c(mu, n) = -1/chi(mu, n)        (paper convention)
    D_cv(mu, n) = D_c(mu, n) / 2      (variational convention)

Both conventions are carried everywhere because they differ by an exact
factor of two (see the landau module); the numeric oracle sides with the
variational one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from . import landau
from .errors import ConfigError, DomainError, OutOfReachError, RotobhError
from .numerics import bisect_root, golden_min

CONVENTIONS = ("paper", "variational")

# Landau a2 variant whose root reproduces each boundary convention.
VARIANT_FOR_CONVENTION = {"paper": "consistent", "variational": "variational"}

LOBE_TIP_TOL = 1e-10  # golden-section |d mu| before the stationarity polish


def lobe_index(mu: float) -> int:
    """Lobe containing mu: 0 for mu < 0, else floor(mu/2) + 1."""
    if not math.isfinite(mu):
        raise DomainError("mu/U must be finite")
    if mu < 0.0:
        return 0
    return int(mu // 2.0) + 1


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise ConfigError("unknown convention %r" % (convention,))


def boundary_hopping(mu: float, n: int, convention: str = "paper") -> float:
    """Critical effective hopping of lobe n at chemical potential mu."""
    _check_convention(convention)
    D_c = -1.0 / landau.chi_susceptibility(mu, n)
    return D_c if convention == "paper" else 0.5 * D_c


def lobe_tip(n: int, convention: str = "paper"):
    """(mu*, D*) maximizing the lobe-n boundary over the lobe interior.

    Located by golden-section search to |d mu| <= LOBE_TIP_TOL, then sharpened
    against the stationarity condition d chi/d mu = 0, since direct
    value comparisons lose the tip in rounding noise once the boundary
    flattens out (|D_c(mu) - D*| < eps for |mu - mu*| of order 1e-8).
    chi_slope is strictly decreasing across the lobe, so its sign change
    pins the tip to full precision.  Agrees with the closed form
    mu* = 2(n-1) + 2 sqrt(n)/(sqrt(n) + sqrt(n+1)),
    D* = 2/(sqrt(n) + sqrt(n+1))^2 in the paper convention.
    """
    _check_convention(convention)
    if n < 1:
        raise DomainError("lobe tips exist for n >= 1")
    lo, hi = landau.lobe_interval(n)
    mu_star = golden_min(lambda mu: -boundary_hopping(mu, n, convention),
                         lo, hi, tol=LOBE_TIP_TOL)
    slope = lambda mu: landau.chi_slope(mu, n)
    a = max(mu_star - 1e-6, lo + 1e-9)
    b = min(mu_star + 1e-6, hi - 1e-9)
    if slope(a) > 0.0 > slope(b):
        mu_star = bisect_root(slope, a, b, tol=1e-14)
    return mu_star, boundary_hopping(mu_star, n, convention)


@dataclass(frozen=True)
class BoundaryPoint:
    mu_over_U: float
    lobe_n: int
    D_c: float
    convention: str


def boundary_curve(n: int, count: int, convention: str = "paper"):
    """count boundary samples across the open interior of lobe n."""
    if count < 1:
        raise ConfigError("count must be >= 1")
    lo, hi = landau.lobe_interval(n)
    if n == 0:
        lo = hi - 2.0  # one-corner lobe; sample a 2-wide window
    step = (hi - lo) / (count + 1)
    points = []
    for i in range(1, count + 1):
        mu = lo + i * step
        points.append(BoundaryPoint(mu, n, boundary_hopping(mu, n, convention),
                                    convention))
    return tuple(points)


def classify(mu: float, t: float, theta: float, convention: str = "paper") -> str:
    """Phase label at (mu, t cos theta): vacuum, mott:<n>, or superfluid.

    Lobe corners (mu a nonnegative even integer) classify as superfluid
    for any positive effective hopping, since the boundary closes there.
    On the boundary itself the superfluid label wins.
    """
    _check_convention(convention)
    if t < 0.0:
        raise DomainError("t/U must be >= 0")
    n = lobe_index(mu)
    D = t * math.cos(theta)
    lo, hi = landau.lobe_interval(n)
    if mu == lo or mu == hi:
        if D > 0.0:
            return "superfluid"
        return "vacuum" if n == 0 else "mott:%d" % n
    if D < boundary_hopping(mu, n, convention):
        return "vacuum" if n == 0 else "mott:%d" % n
    return "superfluid"


def critical_costheta(t: float, mu: float, n: int, convention: str = "paper") -> float:
    """cos(theta) at which rotation drives (t, mu) onto the boundary."""
    if t <= 0.0:
        raise DomainError("t/U must be > 0")
    ratio = boundary_hopping(mu, n, convention) / t
    if ratio > 1.0:
        raise OutOfReachError(
            "boundary needs cos(theta) = %g > 1 at t/U = %g" % (ratio, t))
    return ratio


@dataclass(frozen=True)
class SweepSpec:
    """Grid request for sweep(); axes must be finite and increasing.

    kind 'diagram' fills (mu_values x D_values); 'sensing-loop' fixes mu
    and fills (t_values x theta_values); 'costheta-curve' fills
    (lobes x t_values) with the critical cos(theta), defaulting each
    lobe's mu to its tip when lobe_mu is empty.  workers must be >= 1;
    cells are evaluated in order in one thread whatever its value.
    """

    kind: str
    convention: str = "paper"
    psi_method: str = "landau"
    mu_values: tuple = ()
    D_values: tuple = ()
    t_values: tuple = ()
    theta_values: tuple = ()
    lobes: tuple = (1, 2, 3)
    lobe_mu: tuple = ()
    n_max: Optional[int] = None
    workers: int = 1


@dataclass(frozen=True)
class PhaseGrid:
    """Row-major sweep output; rows match columns positionally."""

    kind: str
    convention: str
    psi_method: str
    columns: tuple
    rows: tuple
    fixed: tuple = field(default_factory=tuple)  # (name, value) pairs


def _axis(name, values, allow_any_sign=False):
    vals = tuple(float(v) for v in values)
    if not vals:
        raise ConfigError("%s axis is empty" % name)
    if any(not math.isfinite(v) for v in vals):
        raise ConfigError("%s axis contains non-finite values" % name)
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ConfigError("%s axis must be strictly increasing" % name)
    if not allow_any_sign and vals[0] < 0.0:
        raise ConfigError("%s axis must be nonnegative" % name)
    return vals


def _psi_variational(D, mu, n, n_max):
    from .oracle import MeanFieldProblem, converged_psi
    return converged_psi(MeanFieldProblem.for_lobe(mu, D, n_max=n_max))


def _phase_cell(mu, D_raw, t, theta, spec):
    """One sweep cell: (mu, D, lobe, label, psi); errors become sentinels."""
    n = lobe_index(mu)
    try:
        label = classify(mu, t, theta, spec.convention)
        if label == "superfluid":
            if spec.psi_method == "landau":
                psi = landau.order_parameter_landau(
                    D_raw, mu, n, VARIANT_FOR_CONVENTION[spec.convention])
            else:
                psi = _psi_variational(D_raw, mu, n, spec.n_max)
        else:
            psi = 0.0  # exact zero on Mott/vacuum cells by contract
    except RotobhError as exc:
        return n, "error:%s" % exc.code, math.nan
    return n, label, psi


def sweep(spec: SweepSpec) -> PhaseGrid:
    """Evaluate a deterministic row-major grid per the spec's kind."""
    if spec.kind not in ("diagram", "sensing-loop", "costheta-curve"):
        raise ConfigError("unknown sweep kind %r" % (spec.kind,))
    _check_convention(spec.convention)
    if spec.psi_method not in ("landau", "variational"):
        raise ConfigError("unknown psi method %r" % (spec.psi_method,))
    if spec.workers < 1:
        raise ConfigError("workers must be >= 1")

    if spec.kind == "diagram":
        mus = _axis("mu", spec.mu_values, allow_any_sign=True)
        Ds = _axis("D", spec.D_values)
        # theta = 0 and t = D: the diagram axis is the effective hopping
        rows = []
        for mu in mus:
            for D in Ds:
                n, label, psi = _phase_cell(mu, D, D, 0.0, spec)
                rows.append((mu, D, n, label, psi))
        return PhaseGrid(spec.kind, spec.convention, spec.psi_method,
                         ("mu_over_U", "D_eff", "lobe_n", "phase", "psi"),
                         tuple(rows))

    if spec.kind == "sensing-loop":
        if len(spec.mu_values) != 1:
            raise ConfigError("sensing-loop needs exactly one mu value")
        mu = float(spec.mu_values[0])
        ts = _axis("t", spec.t_values)
        thetas = _axis("theta", spec.theta_values, allow_any_sign=True)
        rows = []
        for t in ts:
            for theta in thetas:
                D = t * math.cos(theta)
                n, label, psi = _phase_cell(mu, D, t, theta, spec)
                rows.append((t, theta, D, n, label, psi))
        return PhaseGrid(spec.kind, spec.convention, spec.psi_method,
                         ("t_over_U", "theta", "D_eff", "lobe_n", "phase", "psi"),
                         tuple(rows), fixed=(("mu_over_U", mu),))

    # costheta-curve
    ts = _axis("t", spec.t_values)
    lobes = tuple(int(n) for n in spec.lobes)
    if any(n < 1 for n in lobes):
        raise ConfigError("costheta-curve lobes must be >= 1")
    if spec.lobe_mu:
        if len(spec.lobe_mu) != len(lobes):
            raise ConfigError("lobe_mu must match lobes in length")
        mus = tuple(float(m) for m in spec.lobe_mu)
    else:
        mus = tuple(lobe_tip(n, spec.convention)[0] for n in lobes)
    rows = []
    for n, mu in zip(lobes, mus):
        for t in ts:
            try:
                c, status = critical_costheta(t, mu, n, spec.convention), "ok"
            except RotobhError as exc:
                c, status = math.nan, "error:%s" % exc.code
            rows.append((n, mu, t, c, status))
    return PhaseGrid(spec.kind, spec.convention, spec.psi_method,
                     ("lobe_n", "mu_over_U", "t_over_U", "costheta_c", "status"),
                     tuple(rows))
