"""Small numerical toolkit: golden-section search, bracketed roots, Lambert W.

Deliberately dependency-free so the physics modules stay auditable.  The
golden-section search runs many brackets in lockstep, so that a caller
can evaluate all of them with one array operation per step (the surrogate
fit does, one lane per theta); the root finders and Lambert W work on one
scalar at a time.  There are two root finders: bisect_root,
which the closed-form sensing roots and Lambert W's fallback use, and
brent_root (Brent-Dekker), which the oracle and the fit crossover use
because each of their evaluations costs an eigensolve or a fit.  A root finder that runs out of
iterations, or meets a NaN inside its bracket, raises ConvergenceError; it
never returns an unverified point.
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


def _bracket_values(f, lo, hi):
    """(f(lo), f(hi)); ValueError unless they bracket a root.

    Signs are compared, not multiplied (a product of tiny values underflows
    to zero), and a NaN end is no bracket.
    """
    flo, fhi = f(lo), f(hi)
    if math.isnan(flo) or math.isnan(fhi):
        raise ValueError("f is NaN at an end of [%g, %g]" % (lo, hi))
    if flo != 0.0 and fhi != 0.0 and (flo < 0.0) == (fhi < 0.0):
        raise ValueError("root not bracketed on [%g, %g]" % (lo, hi))
    return flo, fhi


def _value_at(f, x):
    """f(x), or ConvergenceError if it is NaN: a NaN cannot move a bracket."""
    fx = f(x)
    if math.isnan(fx):
        raise ConvergenceError("f is NaN at %r inside the bracket" % x)
    return fx


def bisect_root(f, lo, hi, tol=1e-10, max_iter=200):
    """Root of f on [lo, hi]; endpoints must straddle zero.

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
        fmid = _value_at(f, mid)
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
        fb = _value_at(f, b)
        if fb == 0.0:
            return b
    raise ConvergenceError("Brent's method did not reach tol = %g in %d steps; "
                           "the bracket is [%r, %r]" % (tol, max_iter,
                                                        min(b, c), max(b, c)))


_BRANCH_POINT = -1.0 / math.e


def _halley_w(w, z, max_iter=80):
    # Halley iteration on f(w) = w e^w - z; quadratic-plus convergence
    # from any reasonable starting guess on the correct branch.
    for _ in range(max_iter):
        ew = math.exp(w)
        err = w * ew - z
        if err == 0.0:
            return w
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * err / (2.0 * wp1)
        if denom == 0.0 or not math.isfinite(denom):
            return w
        step = err / denom
        w_next = w - step
        if not math.isfinite(w_next):
            return w
        if abs(step) <= 1e-15 * max(1.0, abs(w_next)):
            return w_next
        w = w_next
    return w


def lambert_w(z, branch=0):
    """Real Lambert W: the solution w of w*exp(w) = z.

    branch 0 is the principal branch (w >= -1, defined for z >= -1/e);
    branch -1 is the lower branch (w <= -1, defined for -1/e <= z < 0).
    Initial guesses come from the series at the branch point z = -1/e
    and from log asymptotics, refined by guarded Halley steps with a
    bisection fallback.  Relative residual |w e^w - z| <= 1e-12 |z|.
    """
    z = float(z)
    if branch not in (0, -1):
        raise ValueError("branch must be 0 or -1")
    if z < _BRANCH_POINT:
        # tolerate rounding at the branch point itself
        if z < _BRANCH_POINT * (1.0 + 1e-12) - 1e-300:
            raise ValueError("lambert_w requires z >= -1/e")
        z = _BRANCH_POINT
    if branch == -1 and z >= 0.0:
        raise ValueError("branch -1 requires z < 0")

    if z == 0.0:
        return 0.0

    # branch-point series w = -1 + p - p^2/3 + 11 p^3/72, p = +-sqrt(2(ez+1))
    p2 = 2.0 * (math.e * z + 1.0)
    p = math.sqrt(max(p2, 0.0))
    if branch == -1:
        p = -p

    if branch == 0:
        if p2 < 0.5:
            w = -1.0 + p - p2 / 3.0 + 11.0 / 72.0 * p * p2
        elif z < math.e:
            w = z * math.exp(-min(z, 1.0))  # crude but in-basin
        else:
            lz = math.log(z)
            w = lz - math.log(lz)
    else:
        if p2 < 0.5:
            w = -1.0 + p - p2 / 3.0 + 11.0 / 72.0 * p * p2
        else:
            ln = math.log(-z)
            w = ln - math.log(-ln)

    w = _halley_w(w, z)
    if abs(w * math.exp(w) - z) <= 1e-12 * max(abs(z), 1e-300):
        return w

    # fallback: f is monotone on each branch; bracket and bisect
    if branch == 0:
        lo, hi = -1.0, max(1.0, w + 1.0)
        while hi * math.exp(hi) < z:
            hi *= 2.0
    else:
        hi = -1.0
        lo = min(w - 1.0, -2.0)
        while lo * math.exp(lo) < z:
            lo *= 2.0
    w = bisect_root(lambda x: x * math.exp(x) - z, lo, hi, tol=1e-15)
    return _halley_w(w, z)
