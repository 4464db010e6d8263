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

is least-squares fitted on a uniform grid: a coarse log10 a scan brackets
the minimum, and a golden-section search inside the bracket refines
log10 a.  fit_grid fits every theta of a grid at once.  The targets of
all thetas are one (thetas, grid_points) array, each row dtheta_steps'
grid of its theta.  The coarse scan first
sums every row's squared residuals over every 8th grid point, a lower
bound of the row's full sum, and then evaluates in full only the rows
whose bound, less a margin for the rounding of the two sums (Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 4), can
still reach the best full rms found; so every bracket is the full
scan's bit for bit (_pruned_argmin).  The search runs one lane per theta,
and each step evaluates the rms of all of them as one array operation.
Its peak
value is e^-1 once the peak location 1/a falls inside the domain, i.e.
a(theta) * theta >= 1.
The crossover angle where that first happens is computed, not assumed,
and is reported alongside the exact-curve threshold arccos(2/3).  It
takes no fit: at a = 1/theta the fit's stationarity in log a is one
scalar equation in theta, whose root a secant lane of
numerics.newton_root finds to rounding for the grid_points problem, and
the coarse log10 a scan at that root must bracket log10(1/theta), since
a stationary point need not be the fit's minimum (theta_crossover).

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
from .numerics import golden_min, newton_root

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


def delta_on(theta, dthetas) -> np.ndarray:
    """delta(theta, d) for every d in dthetas, as one array.

    theta is one angle, or an ndarray of angles that broadcasts against
    dthetas (a (K, 1) column for K rows of offsets).  DomainError unless
    every theta lies in (0, pi/2) and every d in [0, its theta].
    Elementwise these are the bits of the scalar formula in math.cos:
    cos(theta) is math.cos, every other operation is correctly rounded,
    and numpy's float64 cos matches math.cos (tests/test_sensing.py checks
    this).
    """
    column = isinstance(theta, np.ndarray)
    angles = theta.ravel().tolist() if column else [theta]
    for t in angles:
        _check_theta(t)
    dts = np.asarray(dthetas, dtype=float)
    inside = (dts >= 0.0) & (dts <= theta)
    if not inside.all():
        raise DomainError("dtheta = %g outside [0, theta]"
                          % dts[~inside].flat[0])
    cosines = list(map(math.cos, angles))
    cos_theta = np.reshape(cosines, theta.shape) if column else cosines[0]
    u = cos_theta / np.cos(theta - dts)
    return u * np.sqrt(np.maximum(1.0 - u, 0.0))


def dtheta_steps(theta, points: int) -> np.ndarray:
    """points >= 2 offsets from 0 to theta, as one array.

    theta is one angle, or a (K, 1) ndarray column of angles for K rows of
    offsets, as in delta_on.  Cell i is theta * i / (points - 1), rounded
    as that scalar expression rounds it; the min keeps rounding off the
    edge.  Every theta is checked first, so an out-of-domain theta raises
    DomainError before any array arithmetic could overflow.
    """
    for t in np.ravel(theta).tolist():
        _check_theta(t)
    return np.minimum(theta * np.arange(points, dtype=float) / (points - 1),
                      theta)


def fit_deviation(theta: float, a: float, points: int) -> float:
    """max |fit_form(a, d) - delta(theta, d)| over dtheta_steps(theta,
    points): one array expression, with the bits of the scalar one at
    each d."""
    steps = dtheta_steps(theta, points)
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


def _fit_targets(thetas, grid_points: int):
    """The fit's dtheta grids on [0, theta] and the target delta on them,
    as two C-contiguous (thetas, grid_points) arrays: row k is
    dtheta_steps(thetas[k], grid_points), bit for bit."""
    column = np.array(thetas, dtype=float)[:, None]
    dts = dtheta_steps(column, grid_points)
    return dts, delta_on(column, dts)


def _squared_residuals(scale, dts, target, x, resid):
    """(fit_form(scale, dts) - target)^2 into resid, run in place.

    x and resid are buffers of the broadcast shape, overwritten; every
    operation writes through out=.  fit_form's clamp is left out, since
    scale > 0 and dts >= 0.  Each cell's bits depend only on its own
    scale, dts and target: every operation is elementwise, and exp, the
    one that is not correctly rounded, always runs on a contiguous buffer.
    """
    np.multiply(scale, dts, out=x)
    np.sqrt(x, out=x)
    np.negative(x, out=resid)
    np.exp(resid, out=resid)
    np.multiply(x, resid, out=resid)
    np.subtract(resid, target, out=resid)
    np.square(resid, out=resid)
    return resid


def _rms_rows(scale, dts, target, x, resid):
    """Per row, the rms of fit_form(scale, dts) - target, run in place.

    The squares come from _squared_residuals, and each row sums pairwise
    alone, so a row's bits do not depend on the other rows: they are those
    of a fresh array per step.
    """
    resid = _squared_residuals(scale, dts, target, x, resid)
    return np.sqrt(np.add.reduce(resid, axis=1) / resid.shape[1])


# The coarse scan bounds each row's sum by every _BOUND_STRIDE-th term.
_BOUND_STRIDE = 8


def _pruned_argmin(bounds, full_rms, grid_points: int):
    """Per lane, the earliest row of least full rms, evaluating only the
    rows that can still win.

    bounds[k, r] is a float sum of some of the nonnegative float terms
    whose float sum s gives the rms sqrt(s / grid_points) of row r in
    lane k; full_rms(ks, rs) returns that rms for the rows (ks[i], rs[i]).
    Each lane's row of least bound is evaluated first, and its rms is the
    lane's incumbent.  A row is evaluated next only if the rms of
    L = bounds * (1 - 4 grid_points u), u = 2^-53, is no more than the
    incumbent; every other row keeps +inf, and the argmin takes the
    earliest of the least.

    L is at most the row's full float sum s (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 4: summing k
    nonnegative terms in any order errs by at most gamma_(k-1) =
    (k-1)u / (1 - (k-1)u) relative, so s >= T (1 - gamma) for the exact
    sum T of all terms, and bounds <= T (1 + gamma)).  Where L is
    subnormal every partial sum of bounds lies below 2^-1021, so that sum
    is exact, and s is then at least bounds.  Since sqrt(fl(s / n)) never
    falls as s grows, a skipped row's rms exceeds the incumbent's, which
    is at least the lane's least rms: no skipped row can win or tie, and
    the result is the argmin of a full scan.
    """
    lanes = np.arange(len(bounds))
    first = np.argmin(bounds, axis=1)
    incumbent = full_rms(lanes, first)
    margin = 1.0 - 4.0 * grid_points * 2.0 ** -53
    floor = np.sqrt(bounds * margin / grid_points)
    can_win = floor <= incumbent[:, None]
    can_win[lanes, first] = False
    ks, rs = np.nonzero(can_win)
    rms = np.full(bounds.shape, np.inf)
    rms[lanes, first] = incumbent
    rms[ks, rs] = full_rms(ks, rs)
    return np.argmin(rms, axis=1)


def _coarse_brackets(dts, target):
    """Per row of (dts, target), the log10 a bracket around the argmin of
    the coarse scan.

    The scan works on every row at once, in two stages (_pruned_argmin).
    First, each (row, coarse point) sums its squared residuals over every
    _BOUND_STRIDE-th grid point: a lower bound of its full sum.  Then
    _rms_rows evaluates in full only the coarse points that can still
    win.  The rms is formed before the argmin, as rms_of forms it, so
    that ties break as in a per-point scan, and every bracket is the full
    scan's bit for bit.  Both stages run _squared_residuals, so a bound
    sums the very terms of the full sum.  They work in two flat buffers of
    FIT_COARSE_POINTS x grid_points, the size of one row's full scan: a
    bound pass takes as many rows as fit, and a full pass at most
    FIT_COARSE_POINTS // 2 (row, point) pairs, whose gathered dts and
    target take the other half of the buffers.
    """
    coarse = np.linspace(FIT_LOG_RANGE[0], FIT_LOG_RANGE[1], FIT_COARSE_POINTS)
    scale = 10.0 ** coarse[:, None]
    rows, n = dts.shape
    work_a = np.empty(FIT_COARSE_POINTS * n)
    work_b = np.empty_like(work_a)

    def views(shape):
        size = math.prod(shape)
        return work_a[:size].reshape(shape), work_b[:size].reshape(shape)

    sub_dts = dts[:, ::_BOUND_STRIDE]
    sub_target = target[:, ::_BOUND_STRIDE]
    m = sub_dts.shape[1]
    chunk = n // m
    bounds = np.empty((rows, FIT_COARSE_POINTS))
    for k in range(0, rows, chunk):
        d, t = sub_dts[k:k + chunk, None], sub_target[k:k + chunk, None]
        sq = _squared_residuals(scale, d, t,
                                *views((len(d), FIT_COARSE_POINTS, m)))
        np.add.reduce(sq, axis=2, out=bounds[k:k + chunk])

    piece = FIT_COARSE_POINTS // 2

    def full_rms(ks, rs):
        out = np.empty(len(ks))
        for i in range(0, len(ks), piece):
            k, r = ks[i:i + piece], rs[i:i + piece]
            gathered, work = views((2, len(k), n))
            # every index is in range; "clip" spares take a temporary copy
            d = np.take(dts, k, axis=0, out=gathered[0], mode="clip")
            t = np.take(target, k, axis=0, out=work[0], mode="clip")
            out[i:i + len(k)] = _rms_rows(scale[r], d, t, gathered[1], work[1])
        return out

    return [(coarse[max(i - 1, 0)], coarse[min(i + 1, FIT_COARSE_POINTS - 1)])
            for i in _pruned_argmin(bounds, full_rms, n).tolist()]


def fit_grid(thetas, grid_points: int = FIT_GRID_POINTS):
    """Least-squares a(theta) for the surrogate at every theta of a grid.

    Returns [(a, rms), ...] in grid order.  Protocol: FIT_PROTOCOL
    (recorded in CLI metadata), sampled at grid_points dtheta values.  The
    targets of all thetas are one (thetas, grid_points) array
    (_fit_targets), so thetas x grid_points is at most MAX_COUNT.  The
    coarse log10 a scan runs on all thetas together and prunes the points
    that provably cannot be a theta's argmin (_coarse_brackets), so each
    bracket is the full scan's.  One lockstep golden search then refines
    every theta at once: each of its steps is one (thetas, grid_points)
    rms evaluation.  The scan and the search each run in place in two
    buffers allocated once per call, the scan's no larger than one
    theta's full (FIT_COARSE_POINTS, grid_points) scan; the bits and
    golden_min's evaluation sequence are those of a fresh array per step
    and a full scan per theta.  Warns, in grid order, once per theta whose
    rms > FIT_RMS_THRESHOLD and once per theta whose log10 a ends within
    FIT_LOG_TOL of an end of FIT_LOG_RANGE.
    """
    thetas = list(thetas)
    for theta in thetas:
        _check_theta(theta)
    _check_grid_points(grid_points)
    if not thetas:
        return []
    check_count("fit samples (thetas x grid_points)",
                len(thetas) * grid_points)
    dts, target = _fit_targets(thetas, grid_points)
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
    lo, hi = FIT_LOG_RANGE
    for theta, log_a, (a, rms) in zip(thetas, log_as, fits):
        if rms > FIT_RMS_THRESHOLD:
            warnings.warn("fit rms %.4f exceeds %.2f at theta = %g"
                          % (rms, FIT_RMS_THRESHOLD, theta),
                          FitQualityWarning, stacklevel=2)
        if min(log_a - lo, hi - log_a) <= FIT_LOG_TOL:
            warnings.warn("fit a = %.6g is pinned at an end of its range "
                          "10^[%g, %g] at theta = %g" % (a, lo, hi, theta),
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


def delta_max(theta: float) -> float:
    """Peak of the exact delta over dtheta in [0, theta] (fit: _fit_peak)."""
    _check_theta(theta)
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
    rms gradient in log a times a positive factor.  newton_root takes the
    root of G on [0.3, 1.2] to rounding as a lane with no slope, so its
    steps take the secant slope, one delta_on each (at most 11
    evaluations of G for grid_points from 50 to 100000), and the value is
    exact to rounding for the grid_points problem (the fit's golden search
    meets a theta = 1 only to about 2e-9 there).  A lane error is raised
    as a ConvergenceError.  A stationary point need not be the fit's minimum:
    the coarse log10 a scan at the root must bracket log10(1/theta), else
    ConvergenceError.
    """
    check_choice("mode", mode, MODES)
    if mode == "exact":
        return THETA_EXACT_CROSSOVER
    _check_grid_points(grid_points)

    def stationarity(ids, thetas):
        (theta,) = thetas
        dts = dtheta_steps(theta, grid_points)
        target = delta_on(theta, dts)
        x = np.sqrt(dts / theta)
        ex = np.exp(-x)
        return [(float(np.sum(x * (1.0 - x) * ex * (x * ex - target))), None)]

    root = newton_root(stationarity, {0: (0.3, 1.2)}, tol=1e-15)[0]
    if isinstance(root, Exception):
        raise ConvergenceError("the fit crossover's stationarity root on "
                               "[0.3, 1.2] failed: %s" % root) from root
    ((lo, hi),) = _coarse_brackets(*_fit_targets((root,), grid_points))
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
        dm_out = delta_max(theta)
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
    dm = delta_max(theta)
    if target > dm * (1.0 + 1e-12):
        raise OutOfRangeError(
            "measured change %g exceeds attainable maximum %g"
            % (delta_measured, kap * dm))
    dtheta, beyond = _crossings(theta, min(target, dm))
    ambiguous = beyond is not None and target < dm
    return InversionResult(delta_theta=dtheta, delta_omega=dtheta / gamma,
                           ambiguous=ambiguous)
