"""Small numerical toolkit: golden-section search, bracketed roots, Lambert W.

Deliberately dependency-free so the physics modules stay auditable;
nothing here needs vectorization.  A root finder that runs out of
iterations raises ConvergenceError; it never returns an unverified point.
"""

import math

from .errors import ConvergenceError

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi


def golden_min(f, lo, hi, tol=1e-10):
    """Locate the minimum of a unimodal f on [lo, hi].

    Ties move the bracket left, so a flat function collapses onto lo.
    Returns the midpoint of the final bracket once hi - lo <= tol.
    """
    a, b = float(lo), float(hi)
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


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


def bisect_root(f, lo, hi, tol=1e-10, max_iter=200):
    """Root of f on [lo, hi]; endpoints must straddle zero.

    Returns the midpoint once the bracket is no wider than tol, or as soon
    as the midpoint equals an endpoint, which is the best a double can
    give.  ConvergenceError if max_iter halvings do not get there.
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
        fmid = f(mid)
        if fmid == 0.0 or hi - lo <= tol:
            return mid
        if (fmid < 0.0) != (flo < 0.0):
            hi = mid
        else:
            lo, flo = mid, fmid
    raise ConvergenceError("bisection on [%r, %r] did not reach tol = %g in "
                           "%d steps" % (lo, hi, tol, max_iter))


def false_position_root(f, lo, hi, tol=1e-10, max_iter=100):
    """Root of f on [lo, hi] by Illinois false position, contract of bisect_root.

    Each step takes the secant point of the bracket; when one end is kept
    twice in a row its f is halved, so both ends close in superlinearly
    (Dowell & Jarratt, BIT 11, 168 (1971)).  Returns the latest point once
    the bracket is no wider than tol, or as soon as the point equals an
    endpoint.  ConvergenceError if max_iter steps do not get there.
    """
    lo, hi = float(lo), float(hi)
    flo, fhi = _bracket_values(f, lo, hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    kept = 0  # -1: lo was kept last step, +1: hi was
    for _ in range(max_iter):
        x = hi - fhi * (hi - lo) / (fhi - flo)
        if x <= lo or x >= hi:
            return x
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (flo < 0.0):
            lo, flo = x, fx
            if kept == 1:
                fhi *= 0.5
            kept = 1
        else:
            hi, fhi = x, fx
            if kept == -1:
                flo *= 0.5
            kept = -1
        if hi - lo <= tol:
            return x
    raise ConvergenceError("false position on [%r, %r] did not reach tol = %g "
                           "in %d steps" % (lo, hi, tol, max_iter))


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
