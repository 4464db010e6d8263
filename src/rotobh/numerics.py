"""Small numerical toolkit: golden-section search, bracketed roots, Lambert W.

Deliberately dependency-free so the physics modules stay auditable.  The
golden-section search and newton_root run many brackets in lockstep, so
that a caller can evaluate all of them in one call per step (the
surrogate fit does, one lane per theta, and the oracle's minimizer, one
lane per cell, keyed by the cell's kernel row); bisect_root and Lambert W
work on one scalar at a time.  newton_root is the package's one root
finder, and its docstring states the contract every lane keeps.  A lane
whose f hands back a slope takes safeguarded Newton steps: the oracle's
minimizer, each of whose evaluations is an eigensolve that yields the
slope too.  A lane that hands back None in its place takes secant steps:
the fit crossover, each of whose evaluations is a delta array with no
slope.  bisect_root, which nothing in the package calls, stays as the
independent reference of acceptance 6 and because the benchmark's tracer
(perfbench/tracer.py) binds it by name.  A root finder that runs out of
iterations, or meets a NaN inside its bracket, raises ConvergenceError,
and lambert_w raises it when its residual check fails; none returns an
unverified point.
"""

import math
import sys

from .errors import ConvergenceError

EPS = sys.float_info.epsilon
SQRT_EPS = math.sqrt(EPS)  # longest Newton step that can stall, over |x|
INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi


def golden_min(f, brackets, tol=1e-10):
    """Minima of unimodal functions, one per bracket, searched in lockstep.

    Each (lo, hi) in brackets is a lane.  f maps a list of abscissae, one
    per lane, to a sequence of values, one per lane, so that one call can
    evaluate every lane at once.  A lane takes exactly the comparisons and
    steps of a scalar golden-section search on its own bracket: ties move
    the bracket left, so a flat function collapses onto lo, and the lane
    stops once hi - lo <= tol.  A stopped lane keeps handing f its last
    abscissa, and that value is ignored.  Returns the midpoints of the
    final brackets, one float per lane.
    """
    a = [float(lo) for lo, _ in brackets]
    b = [float(hi) for _, hi in brackets]
    c = [hi - INVPHI * (hi - lo) for lo, hi in zip(a, b)]
    d = [lo + INVPHI * (hi - lo) for lo, hi in zip(a, b)]
    fc, fd = list(f(c[:])), list(f(d[:]))
    x = list(d)
    left = [False] * len(a)
    live = [k for k in range(len(a)) if b[k] - a[k] > tol]
    while live:
        for k in live:
            lo, hi = a[k], b[k]
            if fc[k] <= fd[k]:
                b[k] = hi = d[k]
                d[k], fd[k] = c[k], fc[k]
                x[k] = c[k] = hi - INVPHI * (hi - lo)
                left[k] = True
            else:
                a[k] = lo = c[k]
                c[k], fc[k] = d[k], fd[k]
                x[k] = d[k] = lo + INVPHI * (hi - lo)
                left[k] = False
        fx = f(x[:])
        still = []
        for k in live:
            if left[k]:
                fc[k] = fx[k]
            else:
                fd[k] = fx[k]
            if b[k] - a[k] > tol:
                still.append(k)
        live = still
    return [0.5 * (lo + hi) for lo, hi in zip(a, b)]


def _check_bracket(lo, hi, flo, fhi):
    """ValueError unless the values flo at lo and fhi at hi bracket a root.

    Signs are compared, not multiplied (a product of tiny values underflows
    to zero), and a NaN end is no bracket.
    """
    if math.isnan(flo) or math.isnan(fhi):
        raise ValueError("f is NaN at an end of [%g, %g]" % (lo, hi))
    if flo != 0.0 and fhi != 0.0 and (flo < 0.0) == (fhi < 0.0):
        raise ValueError("root not bracketed on [%g, %g]" % (lo, hi))


def _value_at(x, fx):
    """fx = f(x), or ConvergenceError if it is NaN: a NaN cannot move a
    bracket."""
    if math.isnan(fx):
        raise ConvergenceError("f is NaN at %r inside the bracket" % x)
    return fx


def bisect_root(f, lo, hi, tol=1e-10, max_iter=200):
    """Root of f on [lo, hi]; endpoints must straddle zero.

    No module of the package calls it: acceptance 6 uses it as a reference
    that shares no code with the closed-form half-maximum, and
    perfbench/tracer.py binds it by name.

    Returns the midpoint once the bracket is no wider than tol, or as soon
    as the midpoint equals an endpoint, which is the best a double can
    give.  ConvergenceError if max_iter halvings do not get there, or as
    soon as f is NaN at a midpoint.
    """
    lo, hi = float(lo), float(hi)
    flo, fhi = f(lo), f(hi)
    _check_bracket(lo, hi, flo, fhi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        fmid = _value_at(mid, f(mid))
        if fmid == 0.0 or hi - lo <= tol:
            return mid
        if (fmid < 0.0) != (flo < 0.0):
            hi = mid
        else:
            lo, flo = mid, fmid
    raise ConvergenceError("bisection on [%r, %r] did not reach tol = %g in "
                           "%d steps" % (lo, hi, tol, max_iter))


def newton_root(f, brackets, tol=1e-10, max_iter=100, model=None, flo=None):
    """Roots of functions, one per bracket, by Newton's method guarded by
    bisection, searched in lockstep; a lane given no slope takes secant
    steps.

    brackets maps each lane's id to its (lo, hi).  f(ids, xs) takes a list
    of the open lanes' ids, in bracket order, and one abscissa per listed
    lane and returns one pair (f(x), f'(x)) per listed lane, or
    (f(x), None) for a lane without a slope, so that one call evaluates
    every open lane; in place of a pair it may return an exception, which
    ends that lane with it.  A lane takes exactly the steps of the scalar
    search below on its own bracket, whatever the other lanes do: a round
    hands f the lanes still open, and a lane leaves once it has its root
    or its error; until one leaves, f is handed the same list of ids, the
    same object, from round to round.  flo, if given, maps every lane's id
    to its f(lo), which f is then not asked for.  Returns a dict from each
    id, in bracket order, to its root, or the ValueError or
    ConvergenceError its search met.

    The slope at lo is never read.  The Newton/bisection hybrid follows
    rtsafe (Press et al., Numerical Recipes, 3rd ed., sec. 9.4): the
    iterate x starts at hi and stays an end of a sign bracket whose other
    end is the last point evaluated on the far side of the root.  Each
    step goes to the Newton point x - f(x)/s when the slope s has the sign
    of f(hi) (the way f runs across [lo, hi]) and the point lies inside
    the open bracket or rounds onto x, and to the bracket's midpoint
    otherwise, so a NaN, infinite, zero or wrong-signed slope bisects.  s
    is f'(x), or on a lane without one the secant slope through x and the
    point evaluated before it (sec. 9.2), which before the first step is
    lo, so that step goes to the regula falsi point.  rtsafe's further
    rule, which bisects wherever a step is over half the step before
    last, is left out: on the oracle's minimizer it cost more evaluations
    than it saved.  So the steps are only as good as the slope: one k
    times too steep shrinks the distance to the root by a factor 1 - 1/k
    per step, and a slope handed back must be the derivative of f, not an
    estimate of it.  model, if given, is a root estimate model(id, x, f(x))
    that caps the Newton steps taken before f first changes sign, all of
    which run down from hi: such a step goes to the smaller of model's
    point and the Newton point (a NaN model point is ignored) and then
    meets the same bracket test.  A step shorter than
    tol1 = 2 eps |x| + tol / 2 is lengthened to tol1 toward the other end:
    that probe ends the search if f changes sign across it.  Once the
    other end lies within 2 tol1 of x, that is, once the sign bracket is
    no wider than tol plus 4 ulps of x, the root is whichever of its two
    ends has the smaller |f|.  A lane handed f'(x) also stops at a stall:
    a Newton step no longer than sqrt(eps) |x| that changes the sign of f
    but fails to halve |f|.  There f's rounding, not its slope, decides
    its sign, and further steps would only walk at random until two
    points tol apart happened to show opposite signs (Kelley, Solving
    Nonlinear Equations with Newton's Method, SIAM (2003); as
    LAPACK's xGERFS stops refining once the backward error fails to
    halve).  The root is then whichever end of that step has the smaller
    |f|, and the step spans a sign change.  A bisection, a probe and a
    secant step never stall.  No point is evaluated twice.  A lane's
    error is a ValueError unless f(lo) and f(hi) bracket a root (signs
    are compared, and a NaN end is no bracket), and a ConvergenceError if
    max_iter steps do not get there, or as soon as f is NaN inside the
    bracket.
    """
    lanes = {k: _rtsafe(float(lo), float(hi), tol, max_iter,
                        None if flo is None else flo[k], model, k)
             for k, (lo, hi) in brackets.items()}
    out = dict.fromkeys(lanes)
    ids = list(lanes)
    xs = [next(lanes[k]) for k in ids]
    while ids:
        ended = False
        for i, (k, value) in enumerate(zip(ids, f(ids, xs))):
            try:
                xs[i] = (lanes[k].throw(value) if isinstance(value, Exception)
                         else lanes[k].send(value))
            except StopIteration as stop:
                out[k], xs[i], ended = stop.value, None, True
            except (ValueError, ConvergenceError) as exc:
                out[k], xs[i], ended = exc, None, True
        if ended:  # else ids stays the list f was handed
            keep = [i for i, x in enumerate(xs) if x is not None]
            ids = [ids[i] for i in keep]
            xs = [xs[i] for i in keep]
    return out


def _rtsafe(lo, hi, tol, max_iter, flo, model, lane):
    """The lane of newton_root with id lane: yields each abscissa to
    evaluate, is sent (f(x), f'(x)) or (f(x), None) for it, and returns
    the root or raises the lane's error.  flo, if not None, is f(lo), which
    it then does not ask for."""
    if flo is None:
        flo = (yield lo)[0]
    fhi, slope = yield hi
    _check_bracket(lo, hi, flo, fhi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    rising = fhi > 0.0
    x, fx, other, fother = hi, fhi, lo, flo
    prev, fprev = lo, flo
    for _ in range(max_iter):
        tol1 = 2.0 * EPS * abs(x) + 0.5 * tol
        if abs(other - x) <= 2.0 * tol1:
            return x if abs(fx) <= abs(fother) else other
        newton = slope is not None  # f'(x) was handed, not a secant lane
        if not newton:
            slope = (fx - fprev) / (x - prev)
        t = math.nan  # no Newton point: bisect
        if 0.0 < slope < math.inf if rising else -math.inf < slope < 0.0:
            t = x - fx / slope
            if model is not None and other == lo:
                cap = model(lane, x, fx)
                if cap < t:
                    t = cap
        if t != x and not min(x, other) < t < max(x, other):
            t, newton = 0.5 * (x + other), False
        if abs(t - x) < tol1:  # t lies between x and other, or is x
            t, newton = x + math.copysign(tol1, other - x), False
        ft, slope = yield t
        if _value_at(t, ft) == 0.0:
            return t
        if (ft > 0.0) != (fx > 0.0):
            if (newton and abs(t - x) <= SQRT_EPS * abs(x)
                    and abs(ft) > 0.5 * abs(fx)):
                return t if abs(ft) <= abs(fx) else x  # a stall
            other, fother = x, fx
        prev, fprev, x, fx = x, fx, t, ft
    raise ConvergenceError("Newton's method did not reach tol = %g in %d "
                           "steps; the bracket is [%r, %r]"
                           % (tol, max_iter, min(x, other), max(x, other)))


# lambert_w's domain: the resolution formula sends it z = -delta_max / 2
# with 0 < delta_max <= e^-1, and exactly this z when the fit saturates.
LAMBERT_Z_MIN = -0.5 * math.exp(-1.0)


def _halley_w(w, z, max_iter=80):
    # Halley iteration on f(w) = w e^w - z (Corless et al., below).  On
    # lambert_w's domain every iterate stays in [-0.24, 0), where
    # w + 1 >= 0.76, so no step divides by a small or non-finite number.
    for _ in range(max_iter):
        ew = math.exp(w)
        err = w * ew - z
        if err == 0.0:
            return w
        wp1 = w + 1.0
        step = err / (ew * wp1 - (w + 2.0) * err / (2.0 * wp1))
        w -= step
        if abs(step) <= 1e-15:
            return w
    return w


def lambert_w(z):
    """Principal real Lambert W on the fit's range LAMBERT_Z_MIN <= z < 0.

    The fit-mode resolution is W0(-delta_max / 2)^2 / a with
    0 < delta_max <= e^-1 (sensing._fit_peak), so z = -delta_max / 2 lies
    in [-1/(2e), 0), where W0 lies in [-0.232, 0); any other z, NaN
    included, is a ValueError.  Halley steps from z exp(-z) refine w
    (Corless, Gonnet, Hare, Jeffrey & Knuth, Adv. Comput. Math. 5, 329
    (1996)).  Returns w only once |w e^w - z| <= 1e-12 |z|;
    ConvergenceError otherwise.
    """
    z = float(z)
    if not LAMBERT_Z_MIN <= z < 0.0:
        raise ValueError("lambert_w needs -1/(2e) <= z < 0, got %r" % z)
    w = _halley_w(z * math.exp(-z), z)
    residual = abs(w * math.exp(w) - z)
    if residual <= 1e-12 * abs(z):
        return w
    raise ConvergenceError("Lambert W at z = %r: Halley stopped at w = %r "
                           "with residual %g" % (z, w, residual))
