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
from dataclasses import dataclass
from typing import Optional

from . import landau
from .core import effective_hopping
from .errors import (ConfigError, ConvergenceError, DomainError,
                     OutOfReachError, check_choice)
from .landau import (CONVENTIONS, LOBE_TIP_TOL, VARIANT_FOR_CONVENTION,
                     boundary_hopping, lobe_index)
from .oracle import MeanFieldProblem, check_n_max, converged_psi

PSI_METHODS = ("landau", "variational")
SWEEP_KINDS = ("diagram", "sensing-loop", "costheta-curve")

# Errors that belong to one cell; any other error is the request's and
# escapes the sweep.
_CELL_ERRORS = (DomainError, ConvergenceError)


def lobe_tip(n: int, convention: str = "paper"):
    """(mu*, D*) maximizing the lobe-n boundary over the lobe interior.

    mu* is the closed-form tip of the module docstring; D* is
    boundary_hopping(mu*, n, convention), so the tip lies on the boundary
    exactly.
    """
    check_choice("convention", convention, CONVENTIONS)
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


def _label(mu: float, D: float, convention: str) -> str:
    """The label rule on the effective hopping D, of any sign."""
    n = lobe_index(mu)
    if mu == landau.lobe_interval(n)[0]:  # the boundary closes at a corner
        superfluid = D > 0.0
    else:
        superfluid = D >= boundary_hopping(mu, n, convention)
    if superfluid:
        return "superfluid"
    return "vacuum" if n == 0 else "mott:%d" % n


def classify(mu: float, t: float, theta: float, convention: str = "paper") -> str:
    """Phase label at (mu, t cos theta): vacuum, mott:<n>, or superfluid.

    Lobe corners (mu a nonnegative even integer) classify as superfluid
    for any positive effective hopping, since the boundary closes there.
    On the boundary itself the superfluid label wins.
    """
    check_choice("convention", convention, CONVENTIONS)
    if not t >= 0.0:
        raise DomainError("t/U must be >= 0")
    return _label(mu, effective_hopping(t, theta), convention)


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
    The sensing loop's one mu and every lobe_mu must be finite.
    n_max, when given, must be an integer in the oracle's
    [MIN_N_MAX, MAX_N_MAX].
    workers must be >= 1; cells are evaluated in order in one thread
    whatever its value.
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

    columns: tuple
    rows: tuple


def _finite(name, values):
    vals = tuple(float(v) for v in values)
    if not all(map(math.isfinite, vals)):
        raise ConfigError("%s axis contains non-finite values" % name)
    return vals


def _axis(name, values, allow_any_sign=False):
    vals = _finite(name, values)
    if not vals:
        raise ConfigError("%s axis is empty" % name)
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ConfigError("%s axis must be strictly increasing" % name)
    if not allow_any_sign and vals[0] < 0.0:
        raise ConfigError("%s axis must be nonnegative" % name)
    return vals


def _phase_cell(mu, D, spec):
    """One sweep cell: (lobe, label, psi); a cell error is a sentinel."""
    n = lobe_index(mu)
    try:
        label = _label(mu, D, spec.convention)
        if label == "superfluid":
            if spec.psi_method == "landau":
                psi = landau.order_parameter_landau(
                    D, mu, n, VARIANT_FOR_CONVENTION[spec.convention])
            else:
                psi = converged_psi(MeanFieldProblem(mu, D, spec.n_max))
        else:
            psi = 0.0  # exact zero on Mott/vacuum cells by contract
    except _CELL_ERRORS as exc:
        return n, "error:%s" % exc.code, math.nan
    return n, label, psi


def sweep(spec: SweepSpec) -> PhaseGrid:
    """Evaluate a deterministic row-major grid per the spec's kind."""
    check_choice("sweep kind", spec.kind, SWEEP_KINDS)
    check_choice("convention", spec.convention, CONVENTIONS)
    check_choice("psi method", spec.psi_method, PSI_METHODS)
    if spec.n_max is not None:
        check_n_max(spec.n_max)
    if spec.workers < 1:
        raise ConfigError("workers must be >= 1")

    if spec.kind == "diagram":
        mus = _axis("mu", spec.mu_values, allow_any_sign=True)
        Ds = _axis("D", spec.D_values)
        rows = []
        for mu in mus:
            for D in Ds:
                n, label, psi = _phase_cell(mu, D, spec)
                rows.append((mu, D, n, label, psi))
        return PhaseGrid(("mu_over_U", "D_eff", "lobe_n", "phase", "psi"),
                         tuple(rows))

    if spec.kind == "sensing-loop":
        if len(spec.mu_values) != 1:
            raise ConfigError("sensing-loop needs exactly one mu value")
        (mu,) = _finite("mu", spec.mu_values)
        ts = _axis("t", spec.t_values)
        thetas = _axis("theta", spec.theta_values, allow_any_sign=True)
        rows = []
        for t in ts:
            for theta in thetas:
                D = effective_hopping(t, theta)
                n, label, psi = _phase_cell(mu, D, spec)
                rows.append((t, theta, D, n, label, psi))
        return PhaseGrid(("t_over_U", "theta", "D_eff", "lobe_n", "phase",
                          "psi"), tuple(rows))

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
        mus = _finite("lobe_mu", spec.lobe_mu)
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
    return PhaseGrid(("lobe_n", "mu_over_U", "t_over_U", "costheta_c",
                      "status"), tuple(rows))
