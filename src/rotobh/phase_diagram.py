"""Closed-form phase boundaries, lobe tips, classification, and sweeps.

The boundary of lobe n in the effective hopping D = (t/U) cos(theta) is
landau.boundary_hopping, D_c = -1/chi in the paper convention and D_c/2
in the variational one.  Both conventions are carried everywhere because
they differ by an exact factor of two; the numeric oracle sides with the
variational one.  The lobe theory (lobe_index, boundary_hopping, the
convention tables and LOBE_TIP_TOL) lives in landau and is re-exported
here.

Each lobe n >= 1 peaks where d chi/d mu = 0, at the mean-field tip

    mu* = 2(n-1) + 2 sqrt(n) / (sqrt(n) + sqrt(n+1)),
    D_c(mu*, n) = 2 / (sqrt(n) + sqrt(n+1))^2

(Fisher et al., PRB 40, 546 (1989)); lobe_tip evaluates it in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from . import landau
from .errors import ConfigError, ConvergenceError, DomainError, OutOfReachError
from .landau import (CONVENTIONS, LOBE_TIP_TOL, VARIANT_FOR_CONVENTION,
                     _check_convention, boundary_hopping, lobe_index)
from .oracle import MIN_N_MAX, MeanFieldProblem, converged_psi

PSI_METHODS = ("landau", "variational")

# Errors that belong to one cell; any other error is the request's and
# escapes the sweep.
_CELL_ERRORS = (DomainError, ConvergenceError)


def lobe_tip(n: int, convention: str = "paper"):
    """(mu*, D*) maximizing the lobe-n boundary over the lobe interior.

    mu* is the closed-form tip of the module docstring; D* is
    boundary_hopping(mu*, n, convention), so the tip lies on the boundary
    exactly.
    """
    _check_convention(convention)
    if n < 1:
        raise DomainError("lobe tips exist for n >= 1")
    rn, rn1 = math.sqrt(n), math.sqrt(n + 1.0)
    mu_star = 2.0 * (n - 1) + 2.0 * rn / (rn + rn1)
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
    lobe's mu to its tip when lobe_mu is empty; lobes must be integral.
    n_max, when given, must be at least the oracle's MIN_N_MAX.  workers
    must be >= 1; cells are evaluated in order in one thread whatever its
    value.
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


def _phase_cell(mu, D_raw, t, theta, spec):
    """One sweep cell: (mu, D, lobe, label, psi); a cell error is a sentinel."""
    n = lobe_index(mu)
    try:
        label = classify(mu, t, theta, spec.convention)
        if label == "superfluid":
            if spec.psi_method == "landau":
                psi = landau.order_parameter_landau(
                    D_raw, mu, n, VARIANT_FOR_CONVENTION[spec.convention])
            else:
                psi = converged_psi(MeanFieldProblem.for_lobe(
                    mu, D_raw, n_max=spec.n_max))
        else:
            psi = 0.0  # exact zero on Mott/vacuum cells by contract
    except _CELL_ERRORS as exc:
        return n, "error:%s" % exc.code, math.nan
    return n, label, psi


def sweep(spec: SweepSpec) -> PhaseGrid:
    """Evaluate a deterministic row-major grid per the spec's kind."""
    if spec.kind not in ("diagram", "sensing-loop", "costheta-curve"):
        raise ConfigError("unknown sweep kind %r" % (spec.kind,))
    _check_convention(spec.convention)
    if spec.psi_method not in PSI_METHODS:
        raise ConfigError("unknown psi method %r" % (spec.psi_method,))
    if spec.n_max is not None and spec.n_max < MIN_N_MAX:
        raise ConfigError("n_max must be >= %d" % MIN_N_MAX)
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
    if not all(float(n).is_integer() for n in spec.lobes):
        raise ConfigError("costheta-curve lobes must be integers, got %r"
                          % (spec.lobes,))
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
            except _CELL_ERRORS as exc:
                c, status = math.nan, "error:%s" % exc.code
            rows.append((n, mu, t, c, status))
    return PhaseGrid(spec.kind, spec.convention, spec.psi_method,
                     ("lobe_n", "mu_over_U", "t_over_U", "costheta_c", "status"),
                     tuple(rows))
