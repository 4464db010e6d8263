"""Closed-form phase boundaries, lobe tips, classification, and sweeps.

The boundary of lobe n in the effective hopping D = (t/U) cos(theta) is
landau.boundary_hopping, D_c = -1/chi in the paper convention and D_c/2
in the variational one.  Both conventions are carried everywhere because
they differ by an exact factor of two; the numeric oracle sides with the
variational one.  The lobe theory (lobe_index, boundary_hopping, the
convention tables and LOBE_TIP_TOL) lives in landau.

Each lobe n >= 1 peaks where d chi/d mu = 0, at the mean-field tip

    mu* = 2(n-1) + 2 sqrt(n) / (sqrt(n) + sqrt(n+1)),
    D_c(mu*, n) = 2 / (sqrt(n) + sqrt(n+1))^2

(Fisher et al., PRB 40, 546 (1989)); lobe_tip evaluates it in closed form.

Labels and Landau psi follow one row rule (_row_rule): what depends on mu
alone (the lobe, whether mu is a corner, D_c, chi, and the bracket B on
the first superfluid cell with a2 < 0) is worked out once per mu, and a
cell is a function of D.  A diagram takes one per mu row, a sensing loop
one for its single mu, and classify is its one-cell case; a
costheta-curve lobe takes its D_c once (_costheta_rule), and
critical_costheta is that rule's one-cell case.  The a2 and psi
expressions stay in landau, shared with order_parameter_landau, so every
cell is bit for bit the per-cell value, error sentinels included.  A
variational sweep labels every cell first and then hands all of its
superfluid cells, across rows and truncations, to one
oracle.converged_psis call, which minimizes them in lockstep; each cell
still gets the bits, or the error sentinel, of its own one-cell
minimization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

from . import landau
from .core import effective_hopping
from .errors import (ConfigError, ConvergenceError, DomainError,
                     OutOfReachError, check_choice, check_count)
from .landau import (CONVENTIONS, VARIANT_FOR_CONVENTION, boundary_hopping,
                     lobe_index)
from .oracle import MeanFieldProblem, check_n_max, converged_psis

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


def _row_rule(mu: float, convention: str, psi_method=None, n_max=None):
    """The rule of one mu row: cell(D) -> (label, psi), for D of any sign.

    What depends on mu alone is worked out once, here: the lobe n, whether
    mu is a lobe corner, where the boundary closes (superfluid for any
    D > 0), and otherwise D_c, for which superfluid means D >= D_c, so the
    superfluid label wins on the boundary.  A Mott or vacuum cell has psi
    exactly 0.  A superfluid cell's psi follows psi_method: 'landau' takes
    chi once per row and the bracket B on the row's first cell with
    a2 < 0, a corner raising DegenerateGapError as order_parameter_landau
    does; 'variational' gives the cell's MeanFieldProblem, which the
    sweep hands to the oracle with all the others; None (classify) gives
    None.  A row error (chi overflowing near mu = 0) raises here, a cell
    error from cell(D).
    """
    n = lobe_index(mu)
    insulator = "vacuum" if n == 0 else "mott:%d" % n
    corner = mu == landau.lobe_interval(n)[0]
    D_c = None if corner else boundary_hopping(mu, n, convention)
    variant = VARIANT_FOR_CONVENTION[convention]
    if psi_method is None:
        def psi_of(D):
            return None
    elif psi_method == "variational":
        def psi_of(D):
            return MeanFieldProblem(mu, D, n_max)
    elif corner:
        def psi_of(D):
            return landau.order_parameter_landau(D, mu, n, variant)
    else:
        psi_of = functools.partial(
            landau._psi, chi=landau.chi_susceptibility(mu, n), variant=variant,
            bracket=functools.cache(lambda: landau._positive_bracket(mu, n)))

    def cell(D):
        if (D > 0.0) if corner else (D >= D_c):
            return "superfluid", psi_of(D)
        return insulator, 0.0

    return cell


def classify(mu: float, t: float, theta: float, convention: str = "paper") -> str:
    """Phase label at (mu, t cos theta): vacuum, mott:<n>, or superfluid.

    Lobe corners (mu a nonnegative even integer) classify as superfluid
    for any positive effective hopping, since the boundary closes there.
    On the boundary itself the superfluid label wins.  The one-cell case
    of the sweeps' row rule.
    """
    check_choice("convention", convention, CONVENTIONS)
    if not t >= 0.0:
        raise DomainError("t/U must be >= 0")
    return _row_rule(mu, convention)(effective_hopping(t, theta))[0]


def _costheta_rule(mu: float, n: int, convention: str):
    """t -> the critical cos(theta) of lobe n at mu.

    D_c is worked out on the first t > 0 and kept, so a costheta-curve
    lobe takes it once; a D_c error is raised again by every such t.
    """
    D_c = functools.cache(lambda: boundary_hopping(mu, n, convention))

    def at(t):
        if t <= 0.0:
            raise DomainError("t/U must be > 0")
        ratio = D_c() / t
        if ratio > 1.0:
            raise OutOfReachError(
                "boundary needs cos(theta) = %g > 1 at t/U = %g" % (ratio, t))
        return ratio

    return at


def critical_costheta(t: float, mu: float, n: int, convention: str = "paper") -> float:
    """cos(theta) at which rotation drives (t, mu) onto the boundary."""
    return _costheta_rule(mu, n, convention)(t)


@dataclass(frozen=True)
class SweepSpec:
    """Grid request for sweep(); axes must be finite and increasing.

    kind 'diagram' fills (mu_values x D_values); 'sensing-loop' fixes mu
    and fills (t_values x theta_values); 'costheta-curve' fills
    (lobes x t_values) with the critical cos(theta), defaulting each
    lobe's mu to its tip when lobe_mu is empty; lobes must be integral.
    The sensing loop's one mu and every lobe_mu must be finite, and the
    grid may have at most MAX_COUNT rows.
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


def _sweep_cell(mu, spec):
    """The sweep's cell D -> (lobe, label, psi) in the row at mu.

    A cell error, or the row's, comes back as its error:<code> sentinel
    with psi NaN.  A variational superfluid cell's psi is its
    MeanFieldProblem until _minimize_cells replaces it.
    """
    n = lobe_index(mu)
    try:
        rule = _row_rule(mu, spec.convention, spec.psi_method, spec.n_max)
    except _CELL_ERRORS as exc:
        failed = (n, "error:%s" % exc.code, math.nan)
        return lambda D: failed

    def cell(D):
        try:
            label, psi = rule(D)
        except _CELL_ERRORS as exc:
            return n, "error:%s" % exc.code, math.nan
        return n, label, psi

    return cell


def _minimize_cells(rows):
    """rows with each MeanFieldProblem psi (the last column) replaced by
    its converged psi*, from one converged_psis call over all of them:
    across rows and truncations, the cells are minimized in lockstep.  A
    cell whose minimization fails becomes its error:<code> sentinel with
    psi NaN."""
    cells = [i for i, row in enumerate(rows)
             if isinstance(row[-1], MeanFieldProblem)]
    for i, psi in zip(cells, converged_psis([rows[i][-1] for i in cells])):
        if isinstance(psi, _CELL_ERRORS):
            rows[i] = rows[i][:-2] + ("error:%s" % psi.code, math.nan)
        else:
            rows[i] = rows[i][:-1] + (psi,)
    return rows


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
        check_count("diagram rows (mu x D)", len(mus) * len(Ds))
        rows = []
        for mu in mus:
            cell = _sweep_cell(mu, spec)
            rows.extend((mu, D) + cell(D) for D in Ds)
        if spec.psi_method == "variational":
            rows = _minimize_cells(rows)
        return PhaseGrid(("mu_over_U", "D_eff", "lobe_n", "phase", "psi"),
                         tuple(rows))

    if spec.kind == "sensing-loop":
        if len(spec.mu_values) != 1:
            raise ConfigError("sensing-loop needs exactly one mu value")
        (mu,) = _finite("mu", spec.mu_values)
        ts = _axis("t", spec.t_values)
        thetas = _axis("theta", spec.theta_values, allow_any_sign=True)
        check_count("sensing-loop rows (t x theta)", len(ts) * len(thetas))
        cell = _sweep_cell(mu, spec)
        rows = []
        for t in ts:
            for theta in thetas:
                D = effective_hopping(t, theta)
                rows.append((t, theta, D) + cell(D))
        if spec.psi_method == "variational":
            rows = _minimize_cells(rows)
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
    check_count("costheta-curve rows (lobes x t)", len(lobes) * len(ts))
    if spec.lobe_mu:
        if len(spec.lobe_mu) != len(lobes):
            raise ConfigError("lobe_mu must match lobes in length")
        mus = _finite("lobe_mu", spec.lobe_mu)
    else:
        mus = tuple(lobe_tip(n, spec.convention)[0] for n in lobes)
    rows = []
    for n, mu in zip(lobes, mus):
        costheta = _costheta_rule(mu, n, spec.convention)
        for t in ts:
            try:
                c, status = costheta(t), "ok"
            except _CELL_ERRORS as exc:
                c, status = math.nan, "error:%s" % exc.code
            rows.append((n, mu, t, c, status))
    return PhaseGrid(("lobe_n", "mu_over_U", "t_over_U", "costheta_c",
                      "status"), tuple(rows))
