"""Small numerical toolkit: golden-section search, bracketed roots, Lambert W.

Deliberately dependency-free so the physics modules stay auditable.  The
golden-section search and newton_root run many brackets in lockstep, so
that a caller can evaluate all of them in one call per step (the
surrogate fit does, one lane per theta, and the oracle's minimizer, one
lane per cell); brent_root, bisect_root and Lambert W work on one scalar
at a time.  There are three root finders, all with one contract:
newton_root (Newton guarded by bisection), which the oracle's minimizer
uses because each of its evaluations is an eigensolve that yields the
slope too; brent_root (Brent-Dekker), which the oracle's boundary and the
fit crossover use because each of their evaluations costs an eigensolve
or a delta array and gives no slope; and bisect_root, which nothing in the
package calls any more: it stays as the independent reference of
acceptance 6 and because the benchmark's tracer (perfbench/tracer.py)
binds it by name.  A root finder that runs out of iterations, or meets a
NaN inside its bracket, raises ConvergenceError, and lambert_w raises it
when its residual check fails; none returns an unverified point.
"""

import math
import sys

from .errors import ConvergenceError

EPS = sys.float_info.epsilon
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


def _bracket_values(f, lo, hi):
    """(f(lo), f(hi)); ValueError unless they bracket a root."""
    flo, fhi = f(lo), f(hi)
    _check_bracket(lo, hi, flo, fhi)
    return flo, fhi


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
    flo, fhi = _bracket_values(f, lo, hi)
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


def brent_root(f, lo, hi, tol=1e-10, max_iter=100):
    """Root of f on [lo, hi] by Brent-Dekker, contract of bisect_root.

    Brent, Algorithms for Minimization without Derivatives (1973), ch. 4:
    b is the best point so far and [b, c] a sign bracket.  Each step takes
    the inverse quadratic (or secant) point through the last three values
    when it lies in the three quarters of [b, c] nearest b and the step is
    under half the step before last, and the midpoint of [b, c] otherwise;
    a step is never shorter than tol1 = 2 eps |b| + tol / 2, so no step is
    lost to rounding.  Returns b once |c - b| <= 2 tol1, that is, once the
    bracket is no wider than tol plus 4 ulps of b.  ConvergenceError if
    max_iter steps do not get there.
    """
    a, b = float(lo), float(hi)
    fa, fb = _bracket_values(f, a, b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if (fb < 0.0) == (fc < 0.0):  # the new b is on c's side: c = a
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):  # keep the smaller |f| at b
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * EPS * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p = 2.0 * xm * s
                q = 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = _value_at(b, f(b))
        if fb == 0.0:
            return b
    raise ConvergenceError("Brent's method did not reach tol = %g in %d steps; "
                           "the bracket is [%r, %r]" % (tol, max_iter,
                                                        min(b, c), max(b, c)))


def newton_root(f, brackets, tol=1e-10, max_iter=100, model=None, flo=None):
    """Roots of functions, one per bracket, by Newton's method guarded by
    bisection, searched in lockstep; each lane keeps brent_root's contract.

    Each (lo, hi) in brackets is a lane.  f(lanes, xs) takes a list of
    lane indices and one abscissa per listed lane and returns one pair
    (f(x), f'(x)) per listed lane, so that one call evaluates every open
    lane; in place of a pair it may return an exception, which ends that
    lane with it.  A lane takes exactly the steps of the scalar search
    below on its own bracket, whatever the other lanes do: a round hands f
    the lanes still open, and a lane leaves once it has its root or its
    error; until one leaves, f is handed the same list of lanes, the same
    object, from round to round.  flo, if given, holds every lane's f(lo),
    which f is then not asked for.  Returns one entry per lane: the root,
    or the ValueError or ConvergenceError its search met.

    The slope at lo is never read.  The Newton/bisection hybrid follows
    rtsafe (Press et al., Numerical Recipes, 3rd ed., sec. 9.4): the
    iterate x starts at hi and stays an end of a sign bracket whose other
    end is the last point evaluated on the far side of the root.  Each
    step goes to the Newton point x - f(x)/f'(x) when f'(x) has the sign
    of f(hi) (the way f runs across [lo, hi]) and the point lies inside
    the open bracket, and to the bracket's midpoint otherwise, so a NaN,
    infinite, zero or wrong-signed slope bisects.  rtsafe's further rule,
    which bisects wherever a step is over half the step before last, is
    left out: on the oracle's minimizer it cost more evaluations than it
    saved.  So the steps are only as good as the slope: one k times too
    steep shrinks the distance to the root by a factor 1 - 1/k per step,
    and f' must be the derivative of f, not an estimate of it.  model, if
    given, is a root estimate model(lane, x, f(x)) that caps the Newton
    steps taken before f first changes sign, all of which run down from
    hi: such a step goes to the smaller of model's point and the Newton
    point (a NaN model point is ignored) and then meets the same bracket
    test.  A step shorter than tol1 = 2 eps |x| + tol / 2 is lengthened to
    tol1 toward the other end: that probe ends the search if f changes
    sign across it.  Once the other end lies within 2 tol1 of x, that is,
    once the sign bracket is no wider than tol plus 4 ulps of x, the root
    is whichever of its two ends has the smaller |f|.  No point is
    evaluated twice.  A lane's error is a ValueError unless f(lo) and
    f(hi) bracket a root, and a ConvergenceError if max_iter steps do not
    get there, or as soon as f is NaN inside the bracket.
    """
    lanes = [_rtsafe(float(lo), float(hi), tol, max_iter,
                     None if flo is None else flo[k], model, k)
             for k, (lo, hi) in enumerate(brackets)]
    out = [None] * len(lanes)
    idx = list(range(len(lanes)))
    xs = [next(lane) for lane in lanes]
    while idx:
        ended = False
        for i, value in enumerate(f(idx, xs)):
            try:
                xs[i] = (lanes[i].throw(value) if isinstance(value, Exception)
                         else lanes[i].send(value))
            except StopIteration as stop:
                out[idx[i]], xs[i], ended = stop.value, None, True
            except (ValueError, ConvergenceError) as exc:
                out[idx[i]], xs[i], ended = exc, None, True
        if ended:  # else idx stays the list f was handed
            keep = [i for i, x in enumerate(xs) if x is not None]
            idx = [idx[i] for i in keep]
            lanes = [lanes[i] for i in keep]
            xs = [xs[i] for i in keep]
    return out


def _rtsafe(lo, hi, tol, max_iter, flo, model, lane):
    """Lane lane of newton_root: yields each abscissa to evaluate, is sent
    (f(x), f'(x)) for it, and returns the root or raises the lane's
    error.  flo, if not None, is f(lo), which it then does not ask for."""
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
    for _ in range(max_iter):
        tol1 = 2.0 * EPS * abs(x) + 0.5 * tol
        if abs(other - x) <= 2.0 * tol1:
            return x if abs(fx) <= abs(fother) else other
        t = math.nan  # no Newton point: bisect
        if slope > 0.0 if rising else slope < 0.0:
            t = x - fx / slope
            if model is not None and other == lo:
                cap = model(lane, x, fx)
                if cap < t:
                    t = cap
        if not min(x, other) < t < max(x, other):
            t = 0.5 * (x + other)
        if abs(t - x) < tol1:  # t lies between x and other
            t = x + math.copysign(tol1, other - x)
        ft, slope = yield t
        if _value_at(t, ft) == 0.0:
            return t
        if (ft > 0.0) != (fx > 0.0):
            other, fother = x, fx
        x, fx = t, ft
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
