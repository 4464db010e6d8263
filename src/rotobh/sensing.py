"""Rotation-velocity sensing at the Mott transition edge.

Operating on the phase boundary at Peierls phase theta = gamma * Omega,
a rotation change Delta-theta moves the effective hopping off-critical
and switches on an order parameter

    Delta = kappa(mu, n) * delta(theta, Delta-theta)
    delta = u sqrt(1 - u),  u = cos(theta) / cos(theta - Delta-theta)

kappa carries every Bose-Hubbard parameter; delta depends on rotation
alone.  delta grows from 0, peaks at u = 2/3 when that is reachable
(cos(theta) <= 2/3, i.e. theta >= arccos(2/3) ~ 0.841), and otherwise
peaks at the edge Delta-theta = theta.

The one-parameter surrogate

    delta_fit(Delta-theta) = sqrt(a Delta-theta) exp(-sqrt(a Delta-theta))

is least-squares fitted on a uniform grid: the target delta and a coarse
log10 a scan are whole-array evaluations, and a golden-section search
inside the scan's bracket refines log10 a.  fit_grid fits every theta of
a grid at once: its search runs one lane per theta, and each step
evaluates the rms of all of them as one array operation.  Its peak
value is e^-1 once the peak location 1/a falls inside the domain, i.e.
a(theta) * theta >= 1.
The crossover angle where that first happens is computed, not assumed,
and is reported alongside the exact-curve threshold arccos(2/3).  It
takes no fit: at a = 1/theta the fit's stationarity in log a is one
scalar equation in theta, whose root Brent's method finds to rounding for
the grid_points problem, and the coarse log10 a scan at that root must
bracket log10(1/theta), since a stationary point need not be the fit's
minimum (theta_crossover).

Resolution is the full width at half maximum read on the rising branch.
Both modes solve it in closed form: exact mode takes the root of the cubic
delta^2 = u^2 (1 - u) = (delta_max/2)^2 in Viete's trigonometric form (see
_crossings), fit mode solves the surrogate with the principal Lambert W
branch,

    epsilon_theta = W0(-delta_m / 2)^2 / a(theta)

The surrogate's peak on [0, theta] is delta_m = x e^-x with
x = sqrt(a theta), or exactly e^-1 once a theta >= 1 (_fit_peak), so
0 < delta_m <= e^-1 and W0's argument lies in [-1/(2e), 0), the only range
numerics.lambert_w accepts.  A theta so small that delta_m underflows to
0 takes W0(0) = 0 without a call.

(The a^-2 variant of that prefactor is dimensionally inconsistent with
the fit form and is kept only behind literal_exponent=True for
comparison.)  epsilon_omega = epsilon_theta / gamma converts to rotation
units; neither depends on t/U, mu/U, or the lobe index.  epsilon_theta
is not monotone in theta: it grows as (1 - sqrt(3)/2) theta ~ 0.134 theta
for small theta, peaks near theta ~ 0.58, and decreases beyond.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numerics
from .errors import (ConfigError, ConvergenceError, DomainError,
                     FitQualityWarning, OutOfRangeError, check_choice,
                     check_count)
from .landau import kappa
from .numerics import brent_root, golden_min

MODES = ("exact", "fit")
THETA_EXACT_CROSSOVER = math.acos(2.0 / 3.0)  # ~0.8410687
DELTA_GLOBAL_MAX = 2.0 / (3.0 * math.sqrt(3.0))  # ~0.3849002

FIT_GRID_POINTS = 200
FIT_LOG_RANGE = (-3.0, 3.0)  # log10 a
FIT_COARSE_POINTS = 61
FIT_LOG_TOL = 1e-10  # golden-section width in log10 a
FIT_RMS_THRESHOLD = 0.02
FIT_PROTOCOL = {
    "form": "sqrt(a*dtheta)*exp(-sqrt(a*dtheta))",
    "grid": "uniform dtheta grid on [0, theta]",
    "search": "golden-section over log10(a) in [%g, %g], %d-point coarse scan"
              % (FIT_LOG_RANGE + (FIT_COARSE_POINTS,)),
}

# Published |d dtheta| bound for the half-maximum and inversion roots, for
# the level as given.  Those roots are closed forms (_crossings) and meet it
# to about 1e-15.  Near the peak delta is flat, so a reading off by a few
# ulps can have its true inverse far further away (see
# invert_rotation_change).
BISECTION_TOL = 1e-10


def _check_theta(theta: float) -> None:
    if not (0.0 < theta < 0.5 * math.pi):
        raise DomainError("theta = %g outside (0, pi/2)" % theta)


def _check_gamma(gamma: float) -> None:
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise DomainError("gamma must be finite and > 0")


def delta_exact(theta: float, dtheta: float) -> float:
    """delta = u sqrt(1-u) with u = cos(theta)/cos(theta - dtheta).

    The one-element case of delta_on.
    """
    return float(delta_on(theta, (dtheta,))[0])


def delta_on(theta: float, dthetas) -> np.ndarray:
    """delta(theta, d) for every d in dthetas, as one array.

    DomainError unless 0 < theta < pi/2 and every d lies in [0, theta].
    Elementwise these are the bits of the scalar formula in math.cos:
    every other operation is correctly rounded, and numpy's float64 cos
    matches math.cos (tests/test_sensing.py checks this).
    """
    _check_theta(theta)
    dts = np.asarray(dthetas, dtype=float)
    inside = (dts >= 0.0) & (dts <= theta)
    if not inside.all():
        raise DomainError("dtheta = %g outside [0, theta]"
                          % dts[~inside].flat[0])
    u = math.cos(theta) / np.cos(theta - dts)
    return u * np.sqrt(np.maximum(1.0 - u, 0.0))


def dtheta_steps(theta: float, points: int) -> list:
    """points >= 2 offsets from 0 to theta, as Python floats.

    Cell i is theta * i / (points - 1), rounded as that scalar expression
    rounds it; the min keeps rounding off the edge.  theta is checked
    first, so an out-of-domain theta raises DomainError before any array
    arithmetic could overflow.
    """
    return _dtheta_grid(theta, points).tolist()


def _dtheta_grid(theta: float, points: int) -> np.ndarray:
    """dtheta_steps as one array."""
    _check_theta(theta)
    return np.minimum(theta * np.arange(points, dtype=float) / (points - 1),
                      theta)


def fit_deviation(theta: float, a: float, points: int) -> float:
    """max |fit_form(a, d) - delta(theta, d)| over dtheta_steps(theta,
    points), with the grid built once as an array: the bits of the same
    expression on the list."""
    steps = _dtheta_grid(theta, points)
    return float(abs(fit_form(a, steps) - delta_on(theta, steps)).max())


def _crossings(theta: float, level: float):
    """Offsets where delta(theta, .) = level: (rising, falling or None).

    level must lie in [0, delta_max(theta)].  delta^2 = u^2 (1 - u) =
    level^2 is a cubic in u = cos(theta) / cos(theta - dtheta).  Its root
    on the rising branch, u in [2/3, 1], is Viete's trigonometric one,
    1 - u = (4/3) sin^2(phi / 6) with sin(phi / 2) = level /
    DELTA_GLOBAL_MAX; deflating it out leaves a quadratic whose positive
    root v in [0, 2/3] is the falling branch, reachable only when
    v >= cos(theta).  Both offsets lie in [0, theta], and are exact to
    about 1e-15 except where delta is flat: near its peak and, for the
    falling branch, near the edge dtheta = theta.
    """
    c, s = math.cos(theta), math.sin(theta)

    def offset(u, w):
        # theta - acos(c / u) as one atan2, without its cancellation;
        # w = 1 - u, and s - r = (1 - u)(1 + u) / (s + r).  At u ~ c
        # rounding can land a few ulps past the edge, hence the min.
        r = math.sqrt(max((u - c) * (u + c), 0.0))
        return min(math.atan2(c * w * (1.0 + u) / (s + r), c * c + s * r),
                   theta)

    phi = 2.0 * math.asin(min(1.0, level / DELTA_GLOBAL_MAX))
    w = 4.0 / 3.0 * math.sin(phi / 6.0) ** 2
    u = 1.0 - w
    v = 0.5 * (w + math.sqrt(w * (w + 4.0 * u)))
    return offset(u, w), (offset(v, 1.0 - v) if v >= c else None)


def peak_offset(theta: float) -> float:
    """dtheta maximizing delta: where u = 2/3, or the edge theta."""
    _check_theta(theta)
    c = math.cos(theta)
    if c <= 2.0 / 3.0:
        return theta - math.acos(1.5 * c)
    return theta


def fit_form(a, dtheta):
    """sqrt(a dtheta) exp(-sqrt(a dtheta)); peaks at e^-1 when a dtheta = 1."""
    x = np.sqrt(np.maximum(np.multiply(a, dtheta), 0.0))
    return x * np.exp(-x)


def _check_grid_points(grid_points: int) -> None:
    if grid_points < 50:
        raise ConfigError("grid_points must be >= 50")
    check_count("grid_points", grid_points)


def _fit_target(theta: float, grid_points: int):
    """The fit's dtheta grid on [0, theta] and the target delta on it."""
    dts = np.linspace(0.0, theta, grid_points)
    return dts, delta_on(theta, dts)


def _rms_rows(scale, dts, target, x, resid):
    """Per row, the rms of fit_form(scale, dts) - target, run in place.

    x and resid are buffers of the broadcast shape, overwritten; every
    operation writes through out=.  fit_form's clamp is left out, since
    scale > 0 and dts >= 0.  A row's bits do not depend on the other rows:
    every operation is elementwise and correctly rounded, and each row
    sums pairwise alone, so the bits are those of a fresh array per step.
    """
    np.multiply(scale, dts, out=x)
    np.sqrt(x, out=x)
    np.negative(x, out=resid)
    np.exp(resid, out=resid)
    np.multiply(x, resid, out=resid)
    np.subtract(resid, target, out=resid)
    np.square(resid, out=resid)
    return np.sqrt(np.add.reduce(resid, axis=1) / resid.shape[1])


def _coarse_brackets(dts, target):
    """Per row of (dts, target), the log10 a bracket around the argmin of
    the coarse scan.

    Each row's scan is one (FIT_COARSE_POINTS, grid_points) _rms_rows, in
    two buffers that every row reuses.  The rms is formed before the
    argmin, as rms_of forms it, so that ties break as in a per-point scan.
    """
    coarse = np.linspace(FIT_LOG_RANGE[0], FIT_LOG_RANGE[1], FIT_COARSE_POINTS)
    scale = 10.0 ** coarse[:, None]
    x = np.empty((FIT_COARSE_POINTS, dts.shape[1]))
    resid = np.empty_like(x)
    brackets = []
    for row_dts, row_target in zip(dts, target):
        i = int(np.argmin(_rms_rows(scale, row_dts, row_target, x, resid)))
        brackets.append((coarse[max(i - 1, 0)],
                         coarse[min(i + 1, FIT_COARSE_POINTS - 1)]))
    return brackets


def fit_grid(thetas, grid_points: int = FIT_GRID_POINTS):
    """Least-squares a(theta) for the surrogate at every theta of a grid.

    Returns [(a, rms), ...] in grid order.  Protocol: FIT_PROTOCOL
    (recorded in CLI metadata), sampled at grid_points dtheta values.  The
    target and the coarse log10 a scan are array evaluations per theta
    (the scan is one (FIT_COARSE_POINTS, grid_points) evaluation whose
    argmin picks the bracket).  One lockstep golden search then refines
    every theta at once: each of its steps is one (thetas, grid_points)
    rms evaluation, so thetas x grid_points is at most MAX_COUNT.  The
    scan and the search each run in place in two buffers allocated once
    per call; the bits and golden_min's evaluation sequence are those of
    a fresh array per step.  Warns once per theta whose
    rms > FIT_RMS_THRESHOLD, in grid order.
    """
    thetas = list(thetas)
    for theta in thetas:
        _check_theta(theta)
    _check_grid_points(grid_points)
    if not thetas:
        return []
    check_count("fit samples (thetas x grid_points)",
                len(thetas) * grid_points)
    dts = np.empty((len(thetas), grid_points))
    target = np.empty_like(dts)
    for k, theta in enumerate(thetas):
        dts[k], target[k] = _fit_target(theta, grid_points)
    brackets = _coarse_brackets(dts, target)

    x = np.empty_like(dts)
    resid = np.empty_like(dts)

    def rms_of(log_as):
        # 10 ** log_a is Python's scalar power: numpy's vector power may
        # round differently
        scale = np.array([10.0 ** log_a for log_a in log_as])
        return _rms_rows(scale[:, None], dts, target, x, resid).tolist()

    log_as = golden_min(rms_of, brackets, tol=FIT_LOG_TOL)
    fits = [(10.0 ** log_a, rms) for log_a, rms in zip(log_as, rms_of(log_as))]
    for theta, (_, rms) in zip(thetas, fits):
        if rms > FIT_RMS_THRESHOLD:
            warnings.warn("fit rms %.4f exceeds %.2f at theta = %g"
                          % (rms, FIT_RMS_THRESHOLD, theta),
                          FitQualityWarning, stacklevel=2)
    return fits


def fit_a(theta: float, grid_points: int = FIT_GRID_POINTS):
    """Least-squares a(theta) for the surrogate; returns (a, rms).

    The one-theta case of fit_grid.
    """
    return fit_grid((theta,), grid_points)[0]


def _fit_peak(a: float, theta: float) -> float:
    """Surrogate peak on [0, theta]: e^-1 once 1/a is inside, else the edge."""
    if a * theta >= 1.0:
        return math.exp(-1.0)
    return float(fit_form(a, theta))


def delta_max(theta: float, mode: str = "exact") -> float:
    """Peak of delta over dtheta in [0, theta] for the given mode."""
    _check_theta(theta)
    check_choice("mode", mode, MODES)
    if mode == "fit":
        return _fit_peak(fit_a(theta)[0], theta)
    if theta >= THETA_EXACT_CROSSOVER:
        return DELTA_GLOBAL_MAX
    return delta_exact(theta, theta)


def theta_crossover(mode: str = "exact",
                    grid_points: int = FIT_GRID_POINTS) -> float:
    """Angle beyond which delta_max saturates in the given mode.

    exact: arccos(2/3).  fit: the root of a(theta) * theta = 1 for the
    grid_points-point fit, without a fit.  At a = 1/theta the fit's grid
    dtheta_i gives x_i = sqrt(dtheta_i / theta), and a = 1/theta is
    stationary in log a exactly when

        G(theta) = sum_i x_i (1 - x_i) e^-x_i (x_i e^-x_i - delta_i) = 0,

    delta_i = delta(theta, dtheta_i) on the grid fit_grid builds; G is the
    rms gradient in log a times a positive factor.  Brent's method takes
    the root of G on [0.3, 1.2] to rounding, one delta_on per step, so
    the value is exact to rounding for the grid_points problem (the fit's
    golden search meets a theta = 1 only to about 2e-9 there).  A
    stationary point need not be the fit's minimum: the coarse log10 a
    scan at the root must bracket log10(1/theta), else ConvergenceError.
    """
    check_choice("mode", mode, MODES)
    if mode == "exact":
        return THETA_EXACT_CROSSOVER
    _check_grid_points(grid_points)

    def stationarity(theta):
        dts, target = _fit_target(theta, grid_points)
        x = np.sqrt(dts / theta)
        ex = np.exp(-x)
        return float(np.sum(x * (1.0 - x) * ex * (x * ex - target)))

    root = brent_root(stationarity, 0.3, 1.2, tol=1e-15)
    dts, target = _fit_target(root, grid_points)
    ((lo, hi),) = _coarse_brackets(dts[None], target[None])
    log_a = math.log10(1.0 / root)
    if not lo <= log_a <= hi:
        raise ConvergenceError(
            "the fit crossover's stationary point theta = %r is not "
            "confirmed as the fit's minimum: the coarse scan's bracket "
            "[%g, %g] in log10 a misses %g" % (root, lo, hi, log_a))
    return root


@dataclass(frozen=True)
class SensingProfile:
    """Resolution analysis of delta(theta, .) at one operating angle."""

    theta: float
    mode: str
    a_fit: float
    fit_rms: float
    delta_max: float
    epsilon_theta: float
    omega: Optional[float] = None  # theta/gamma when gamma given
    epsilon_omega: Optional[float] = None


def resolution_grid(thetas, mode: str = "exact",
                    gamma: Optional[float] = None,
                    grid_points: int = FIT_GRID_POINTS,
                    literal_exponent: bool = False):
    """resolution at every theta of a grid, as a list of SensingProfile.

    The fits come from one fit_grid call, which checks every theta before
    any work; the rest is per theta, as in resolution.
    """
    thetas = list(thetas)
    check_choice("mode", mode, MODES)
    if gamma is not None:
        _check_gamma(gamma)
    fits = fit_grid(thetas, grid_points)
    return [_profile(theta, mode, a, rms, gamma, literal_exponent)
            for theta, (a, rms) in zip(thetas, fits)]


def resolution(theta: float, mode: str = "exact", gamma: Optional[float] = None,
               grid_points: int = FIT_GRID_POINTS,
               literal_exponent: bool = False) -> SensingProfile:
    """Half-maximum resolution of the sensing profile at angle theta.

    Exact mode solves delta(theta, .) = delta_max/2 in closed form on
    the rising branch; fit mode evaluates the closed Lambert-W form.
    The fitted a(theta) is computed in both modes because the profile, and
    so every CLI resolution row, carries it as a_fit (under 1 ms per
    call).  In exact mode the FitQualityWarning raised past theta ~ 1.35
    concerns that emitted a_fit only; the exact resolution never uses it.
    The one-theta case of resolution_grid.
    """
    return resolution_grid((theta,), mode, gamma, grid_points,
                           literal_exponent)[0]


def _profile(theta, mode, a, rms, gamma, literal_exponent):
    """The SensingProfile at theta, given its fit (a, rms)."""
    if mode == "exact":
        dm_out = delta_max(theta, "exact")
        eps = _crossings(theta, 0.5 * dm_out)[0]
    else:
        dm_out = _fit_peak(a, theta)
        # a subnormal theta can underflow the peak to 0, where W0 is 0
        w = numerics.lambert_w(-0.5 * dm_out) if dm_out > 0.0 else 0.0
        eps = w * w / (a * a if literal_exponent else a)

    return SensingProfile(
        theta=theta,
        mode=mode,
        a_fit=a,
        fit_rms=rms,
        delta_max=dm_out,
        epsilon_theta=eps,
        omega=None if gamma is None else theta / gamma,
        epsilon_omega=None if gamma is None else eps / gamma,
    )


@dataclass(frozen=True)
class InversionResult:
    """Recovered rotation change; ambiguous marks a second crossing."""

    delta_theta: float
    delta_omega: float
    ambiguous: bool


def invert_rotation_change(delta_measured: float, mu: float, n: int,
                           theta: float, gamma: float,
                           variant: str = "consistent") -> InversionResult:
    """Smallest dtheta with kappa * delta = delta_measured, as dOmega.

    The closed-form root on the rising branch [0, peak] (see _crossings),
    within BISECTION_TOL in dtheta of the root for the reading as given.
    Near the peak delta is flat, so the inverse is ill-conditioned: a
    reading rounded by a few ulps moves it by up to about 1e-7, and by
    more near theta = arccos(2/3), where the peak meets the edge and delta
    is flatter still (about 1e-6 within 1e-2 of it, 1.5e-4 within 1e-6).
    The returned dtheta then reproduces the reading to rounding rather
    than lying within BISECTION_TOL of the offset that produced it.  A
    measurement that also admits a solution beyond the peak is flagged
    ambiguous rather than rejected.
    """
    _check_theta(theta)
    _check_gamma(gamma)
    if not (math.isfinite(delta_measured) and delta_measured >= 0.0):
        raise OutOfRangeError("measured change must be finite and >= 0")
    kap = kappa(mu, n, variant)
    target = delta_measured / kap
    dm = delta_max(theta, "exact")
    if target > dm * (1.0 + 1e-12):
        raise OutOfRangeError(
            "measured change %g exceeds attainable maximum %g"
            % (delta_measured, kap * dm))
    dtheta, beyond = _crossings(theta, min(target, dm))
    ambiguous = beyond is not None and target < dm
    return InversionResult(delta_theta=dtheta, delta_omega=dtheta / gamma,
                           ambiguous=ambiguous)
