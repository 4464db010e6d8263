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
inside the scan's bracket refines log10 a one rms at a time.  Its peak
value is e^-1 once the peak location 1/a falls inside the domain, i.e.
a(theta) * theta >= 1.
The crossover angle where that first happens is computed, not assumed,
and is reported alongside the exact-curve threshold arccos(2/3); see
theta_crossover.

Resolution is the full width at half maximum read on the rising branch:
exact mode solves delta = delta_max/2 by bisection, fit mode solves the
surrogate in closed form with the principal Lambert W branch,

    epsilon_theta = W0(-delta_m / 2)^2 / a(theta)

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
from .errors import ConfigError, DomainError, FitQualityWarning, OutOfRangeError
from .landau import kappa
from .numerics import bisect_root, false_position_root, golden_min

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

BISECTION_TOL = 1e-10  # |d dtheta| for the half-maximum and inversion roots


def _check_theta(theta: float) -> None:
    if not (0.0 < theta < 0.5 * math.pi):
        raise DomainError("theta = %g outside (0, pi/2)" % theta)


def delta_exact(theta: float, dtheta: float) -> float:
    """delta = u sqrt(1-u) with u = cos(theta)/cos(theta - dtheta)."""
    _check_theta(theta)
    if not (0.0 <= dtheta <= theta):
        raise DomainError("dtheta = %g outside [0, theta]" % dtheta)
    u = math.cos(theta) / math.cos(theta - dtheta)
    return u * math.sqrt(max(1.0 - u, 0.0))


def delta_on(theta: float, dthetas) -> np.ndarray:
    """delta_exact(theta, d) for every d in dthetas, as one array.

    Same domain checks as delta_exact, and elementwise the same bits:
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


def peak_offset(theta: float) -> float:
    """dtheta maximizing delta: where u = 2/3, or the edge theta."""
    _check_theta(theta)
    c = math.cos(theta)
    if c <= 2.0 / 3.0:
        return theta - math.acos(1.5 * c)
    return theta


def delta_change(mu: float, n: int, theta: float, dtheta: float,
                 variant: str = "consistent") -> float:
    """Delta = kappa(mu, n) * delta(theta, dtheta) on the boundary."""
    return kappa(mu, n, variant) * delta_exact(theta, dtheta)


def fit_form(a, dtheta):
    """sqrt(a dtheta) exp(-sqrt(a dtheta)); peaks at e^-1 when a dtheta = 1."""
    x = np.sqrt(np.maximum(np.multiply(a, dtheta), 0.0))
    return x * np.exp(-x)


def fit_a(theta: float, grid_points: int = FIT_GRID_POINTS):
    """Least-squares a(theta) for the surrogate; returns (a, rms).

    Protocol: FIT_PROTOCOL (recorded in CLI metadata), sampled at
    grid_points dtheta values.  The target and the coarse log10 a scan
    are array evaluations (the scan is one (FIT_COARSE_POINTS,
    grid_points) broadcast whose argmin picks the bracket); the golden
    search then evaluates one rms per step.  Warns when
    rms > FIT_RMS_THRESHOLD.
    """
    _check_theta(theta)
    if grid_points < 50:
        raise ConfigError("grid_points must be >= 50")
    dts = np.linspace(0.0, theta, grid_points)
    target = delta_on(theta, dts)

    def rms_of(log_a):
        # fit_form without its clamp: a > 0 and dts >= 0 already
        x = np.sqrt(10.0 ** log_a * dts)
        resid = x * np.exp(-x) - target
        return math.sqrt(float(np.add.reduce(resid * resid)) / grid_points)

    coarse = np.linspace(FIT_LOG_RANGE[0], FIT_LOG_RANGE[1], FIT_COARSE_POINTS)
    resid = fit_form(10.0 ** coarse[:, None], dts) - target
    # rms as rms_of forms it, so that ties break as in a per-point scan
    i = int(np.argmin(np.sqrt(np.add.reduce(resid * resid, axis=1)
                              / grid_points)))
    lo = coarse[max(i - 1, 0)]
    hi = coarse[min(i + 1, FIT_COARSE_POINTS - 1)]
    log_a = golden_min(rms_of, lo, hi, tol=FIT_LOG_TOL)
    a = 10.0 ** log_a
    rms = rms_of(log_a)
    if rms > FIT_RMS_THRESHOLD:
        warnings.warn("fit rms %.4f exceeds %.2f at theta = %g"
                      % (rms, FIT_RMS_THRESHOLD, theta),
                      FitQualityWarning, stacklevel=2)
    return a, rms


def _fit_peak(a: float, theta: float) -> float:
    """Surrogate peak on [0, theta]: e^-1 once 1/a is inside, else the edge."""
    if a * theta >= 1.0:
        return math.exp(-1.0)
    return float(fit_form(a, theta))


def delta_max(theta: float, mode: str = "exact") -> float:
    """Peak of delta over dtheta in [0, theta] for the given mode."""
    _check_theta(theta)
    if mode == "exact":
        if theta >= THETA_EXACT_CROSSOVER:
            return DELTA_GLOBAL_MAX
        return delta_exact(theta, theta)
    if mode == "fit":
        return _fit_peak(fit_a(theta)[0], theta)
    raise ConfigError("mode must be 'exact' or 'fit', got %r" % (mode,))


def theta_crossover(mode: str = "exact") -> float:
    """Angle beyond which delta_max saturates in the given mode.

    exact: arccos(2/3); fit: the self-consistent root of
    a(theta) * theta = 1, located by false position.
    """
    if mode == "exact":
        return THETA_EXACT_CROSSOVER
    if mode == "fit":
        return false_position_root(lambda t: fit_a(t)[0] * t - 1.0, 0.3, 1.2,
                                   tol=1e-6)
    raise ConfigError("mode must be 'exact' or 'fit', got %r" % (mode,))


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
    fwhm_theta: Optional[float] = None  # two-sided width, exact mode only


def resolution(theta: float, mode: str = "exact", gamma: Optional[float] = None,
               grid_points: int = FIT_GRID_POINTS,
               literal_exponent: bool = False) -> SensingProfile:
    """Half-maximum resolution of the sensing profile at angle theta.

    Exact mode bisects delta(theta, .) = delta_max/2 on the rising
    branch (and reports the two-sided width when the falling branch
    also crosses); fit mode evaluates the closed Lambert-W form.  The
    fitted a(theta) is computed in both modes because the profile, and
    so every CLI resolution row, carries it as a_fit (under 1 ms per
    call).  In exact mode the FitQualityWarning raised past theta ~ 1.35
    concerns that emitted a_fit only; the exact resolution never uses it.
    """
    _check_theta(theta)
    if mode not in ("exact", "fit"):
        raise ConfigError("mode must be 'exact' or 'fit', got %r" % (mode,))
    if gamma is not None and not (math.isfinite(gamma) and gamma > 0.0):
        raise DomainError("gamma must be finite and > 0")

    a, rms = fit_a(theta, grid_points)

    fwhm = None
    if mode == "exact":
        dm = delta_max(theta, "exact")
        pk = peak_offset(theta)
        eps = bisect_root(lambda d: delta_exact(theta, d) - 0.5 * dm,
                          0.0, pk, tol=BISECTION_TOL)
        if pk < theta and delta_exact(theta, theta) <= 0.5 * dm:
            right = bisect_root(lambda d: delta_exact(theta, d) - 0.5 * dm,
                                pk, theta, tol=BISECTION_TOL)
            fwhm = right - eps
        dm_out = dm
    else:
        dm_out = _fit_peak(a, theta)
        w = numerics.lambert_w(-0.5 * dm_out, 0)
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
        fwhm_theta=fwhm,
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

    Bisection on the rising branch [0, peak].  A measurement that also
    admits a solution beyond the peak is flagged ambiguous rather than
    rejected.
    """
    _check_theta(theta)
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise DomainError("gamma must be finite and > 0")
    if not (math.isfinite(delta_measured) and delta_measured >= 0.0):
        raise OutOfRangeError("measured change must be finite and >= 0")
    kap = kappa(mu, n, variant)
    target = delta_measured / kap
    dm = delta_max(theta, "exact")
    if target > dm:
        if target > dm * (1.0 + 1e-12):
            raise OutOfRangeError(
                "measured change %g exceeds attainable maximum %g"
                % (delta_measured, kap * dm))
        target = dm
    pk = peak_offset(theta)
    if target == 0.0:
        dtheta = 0.0
    elif target == dm:
        dtheta = pk
    else:
        dtheta = bisect_root(lambda d: delta_exact(theta, d) - target,
                             0.0, pk, tol=BISECTION_TOL)
    ambiguous = pk < theta and delta_exact(theta, theta) <= target < dm
    return InversionResult(delta_theta=dtheta, delta_omega=dtheta / gamma,
                           ambiguous=ambiguous)
