import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotobh import numerics
from rotobh.errors import ConvergenceError
from rotobh.numerics import (EPS, bisect_root, brent_root, golden_min,
                             lambert_w, newton_root)


def golden_min_scalar(f, lo, hi, tol=1e-10):
    """Reference: the one-bracket golden-section search that every lane of
    golden_min must reproduce, comparison for comparison."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _lanes(*fs):
    """f for golden_min: lane k is evaluated by fs[k]."""
    return lambda xs: [fk(x) for fk, x in zip(fs, xs)]


def test_golden_quadratic():
    [x] = golden_min(_lanes(lambda x: (x - 2.0) ** 2), [(0.0, 5.0)],
                     tol=1e-12)
    assert abs(x - 2.0) < 1e-10


def test_golden_endpoint_minimum():
    lo, hi = golden_min(_lanes(lambda x: x, lambda x: -x),
                        [(0.0, 1.0), (0.0, 1.0)])
    assert abs(lo - 0.0) < 1e-9
    assert abs(hi - 1.0) < 1e-9


def test_golden_flat_collapses_left():
    # tie-breaking keeps the left interval, so a constant lands on lo, in
    # each lane and beside a lane that is not flat
    flat, quad = golden_min(_lanes(lambda x: 1.0, lambda x: (x - 2.0) ** 2),
                            [(3.0, 4.0), (0.0, 5.0)])
    assert abs(flat - 3.0) < 1e-9
    assert abs(quad - 2.0) < 1e-9


# The coarse log10 a grid of the surrogate fit: its edge brackets are half
# as wide as the inner ones, so their lanes stop a step or two earlier.
_COARSE = np.linspace(-3.0, 3.0, 61)
_SHAPES = {
    "quad": lambda m: lambda x: (x - m) ** 2,
    "abs": lambda m: lambda x: abs(x - m),
    "flat": lambda m: lambda x: 1.0,
    "step": lambda m: lambda x: 0.0 if x < m else 1.0,
}
_bracket = st.one_of(
    st.integers(0, 60).map(lambda i: (float(_COARSE[max(i - 1, 0)]),
                                      float(_COARSE[min(i + 1, 60)]))),
    st.tuples(st.floats(-5.0, 5.0), st.floats(1e-6, 3.0)).map(
        lambda t: (t[0], t[0] + t[1])))
_lane = st.tuples(_bracket, st.floats(-6.0, 6.0), st.sampled_from(sorted(_SHAPES)))


def _check_lanes_against_scalar(lanes, tol):
    fs = [_SHAPES[shape](m) for _, m, shape in lanes]
    calls = []

    def f(xs):
        calls.append(list(xs))
        return [fk(x) for fk, x in zip(fs, xs)]
    got = golden_min(f, [bracket for bracket, _, _ in lanes], tol=tol)
    assert len(got) == len(lanes)
    evals = []
    for k, ((lo, hi), _, _) in enumerate(lanes):
        seen = []

        def fk(x, fk=fs[k], seen=seen):
            seen.append(x)
            return fk(x)
        want = golden_min_scalar(fk, lo, hi, tol=tol)
        assert type(got[k]) is float
        assert got[k] == want, "lane %d" % k
        assert [xs[k] for xs in calls[:len(seen)]] == seen, "lane %d" % k
        evals.append(len(seen))
    assert len(calls) == max(evals)
    return evals


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lanes=st.lists(_lane, min_size=1, max_size=8),
       tol=st.sampled_from([1e-10, 1e-6, 1e-2]))
def test_golden_lanes_match_the_scalar_search(lanes, tol):
    _check_lanes_against_scalar(lanes, tol)


def test_golden_lanes_of_unequal_width_stop_apart():
    # a 0.1-wide edge bracket beside 0.2-wide inner ones, as in the fit
    lanes = [((-3.0, -2.9), -3.5, "quad"), ((0.1, 0.3), 0.2, "quad"),
             ((2.9, 3.0), 0.0, "flat"), ((-0.3, -0.1), -0.25, "abs")]
    evals = _check_lanes_against_scalar(lanes, 1e-10)
    assert evals[0] < evals[1] and evals[2] < evals[3]
    # a bracket already within tol never moves
    assert _check_lanes_against_scalar([((1.0, 1.0 + 1e-12), 0.0, "quad"),
                                        ((0.0, 1.0), 0.5, "quad")],
                                       1e-10)[0] == 2


def test_bisect_cos_fixed_point():
    x = bisect_root(lambda x: math.cos(x) - x, 0.0, 1.0, tol=1e-12)
    assert abs(x - 0.7390851332151607) < 1e-10


def test_bisect_endpoint_roots():
    assert bisect_root(lambda x: x, 0.0, 1.0) == 0.0
    assert bisect_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_bisect_requires_bracket():
    with pytest.raises(ValueError):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_bisect_keeps_a_tiny_step_from_underflowing():
    # flo * fmid is about 1e-640, which underflows to -0.0: a product
    # test would keep moving lo and return about 1.0
    x = bisect_root(lambda x: math.copysign(1e-320, x - 0.3), 0.0, 1.0,
                    tol=1e-12)
    assert abs(x - 0.3) <= 1e-12


@pytest.mark.parametrize("finder", [bisect_root, brent_root])
def test_nan_end_is_not_a_bracket(finder):
    with pytest.raises(ValueError):
        finder(lambda x: math.nan if x == 0.0 else x - 0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        finder(lambda x: math.nan if x == 1.0 else x - 0.5, 0.0, 1.0)


@pytest.mark.parametrize("finder", [bisect_root, brent_root])
def test_nan_inside_the_bracket_is_an_error(finder):
    # a NaN compares as neither sign; taken as one, it moves the bracket
    # and bisection used to return 0.44999999998 here
    f = _counted(lambda x: math.nan if 0.45 < x < 0.55 else x - 0.5)
    with pytest.raises(ConvergenceError, match="NaN at 0.5"):
        finder(f, 0.0, 1.0)
    assert f.evals == 3  # both ends, then the first inner point

def _counted(f):
    def g(x):
        g.evals += 1
        return f(x)
    g.evals = 0
    return g


def test_bisect_stops_at_float_spacing():
    # tol is below the spacing of doubles near 40 (7e-15): the bracket
    # collapses onto adjacent doubles, where the midpoint is an endpoint
    f = _counted(lambda x: x * x - 1601.0)
    x = bisect_root(f, 0.0, 50.0, tol=1e-15)
    assert abs(x - math.sqrt(1601.0)) <= math.ulp(40.0)
    assert f.evals < 100


def test_bisect_out_of_iterations_is_an_error():
    with pytest.raises(ConvergenceError):
        bisect_root(lambda x: math.cos(x) - x, 0.0, 1.0, tol=1e-12, max_iter=5)


def test_brent_cos_fixed_point():
    f = _counted(lambda x: math.cos(x) - x)
    x = brent_root(f, 0.0, 1.0, tol=1e-12)
    assert abs(x - 0.7390851332151607) < 1e-12
    assert f.evals < 20
    assert abs(brent_root(lambda x: x ** 3 - 2.0, 0.0, 4.0,
                          tol=1e-13) - 2.0 ** (1.0 / 3.0)) < 1e-12


def test_brent_endpoints_and_bracket():
    assert brent_root(lambda x: x, 0.0, 1.0) == 0.0
    assert brent_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        brent_root(lambda x: x * x + 1.0, -1.0, 1.0)


@pytest.mark.parametrize("scale", [1e-320, 1e-300])
def test_brent_survives_a_lost_secant_step(scale):
    # subnormal f can round an interpolated step away onto a bracket end;
    # accepting that point returns about 0.2998 at scale 1e-320
    x = brent_root(lambda x: math.copysign(scale, x - 0.3), 0.0, 1.0,
                   tol=1e-12)
    assert abs(x - 0.3) <= 1e-12


def test_brent_out_of_iterations_is_an_error():
    with pytest.raises(ConvergenceError):
        brent_root(lambda x: x ** 3 - 2.0, 0.0, 4.0, tol=1e-13, max_iter=3)


def _with_slope(f, df, seen=None):
    """f and df as the pair newton_root takes, counting evaluations; each
    abscissa goes into seen when it is given."""
    def g(x):
        g.evals += 1
        if seen is not None:
            seen.append(x)
        return f(x), df(x)
    g.evals = 0
    return g


def _newton(g, lo, hi, **kwargs):
    """newton_root on the one lane [lo, hi] with id 0: its root, or its
    error raised."""
    out = newton_root(lambda ids, xs: [g(x) for x in xs], {0: (lo, hi)},
                      **kwargs)
    assert list(out) == [0]
    x = out[0]
    if isinstance(x, Exception):
        raise x
    return x


def _sign_bracket_holds(f, x, tol):
    # a sign change of f lies within tol plus 4 ulps of x
    w = tol + 4.0 * EPS * abs(x)
    return f(x) == 0.0 or (f(x - w) < 0.0) != (f(x + w) < 0.0)


_NEWTON_CASES = (
    (lambda x: math.cos(x) - x, lambda x: -math.sin(x) - 1.0, 0.0, 1.0),
    (lambda x: x ** 3 - 2.0, lambda x: 3.0 * x * x, 0.0, 4.0),
    (lambda x: 1.0 - x * x, lambda x: -2.0 * x, 0.5, 3.0),  # falling
    (lambda x: math.exp(x) - 1e3, math.exp, -5.0, 8.0),
    (lambda x: math.atan(x - 0.3), lambda x: 1.0 / (1.0 + (x - 0.3) ** 2),
     -10.0, 40.0))


@pytest.mark.parametrize("case", range(len(_NEWTON_CASES)))
@pytest.mark.parametrize("tol", [1e-14, 1e-10])
def test_newton_returns_a_sign_bracket(case, tol):
    f, df, lo, hi = _NEWTON_CASES[case]
    seen = []
    x = _newton(_with_slope(f, df, seen), lo, hi, tol=tol)
    assert lo <= x <= hi
    assert _sign_bracket_holds(f, x, tol)
    assert x in seen  # an end of the final bracket, not a new point
    assert len(set(seen)) == len(seen) <= 20  # no point twice


@pytest.mark.parametrize("slope", [math.nan, 0.0, 1.0, math.inf, -math.inf])
def test_newton_bisects_on_an_unusable_slope(slope):
    # f falls across [0, 1]: a NaN, zero, rising or infinite slope gives
    # no Newton point, so each step bisects and still meets the contract
    f = lambda x: math.cos(x) - x  # noqa: E731
    g = _with_slope(f, lambda x: slope)
    x = _newton(g, 0.0, 1.0, tol=1e-12)
    assert _sign_bracket_holds(f, x, 1e-12)
    assert g.evals <= math.ceil(math.log2(1.0 / 1e-12)) + 3


def test_newton_bisects_a_point_outside_the_bracket():
    # a slope ten times too shallow leaves the bracket and bisects; one
    # twice too steep steps short and converges linearly
    f = lambda x: x ** 3 - 2.0  # noqa: E731
    for factor in (0.1, 2.0):
        g = _with_slope(f, lambda x: factor * 3.0 * x * x)
        x = _newton(g, 0.0, 4.0, tol=1e-13)
        assert _sign_bracket_holds(f, x, 1e-13)


def test_newton_model_caps_the_steps_before_a_sign_change():
    # f = x (x^2 - 1e-4) from hi = 2: plain Newton creeps down a cubic,
    # while the model's point (the root here) lands on it at once
    f = lambda x: x * (x * x - 1e-4)  # noqa: E731
    df = lambda x: 3.0 * x * x - 1e-4  # noqa: E731
    plain = _with_slope(f, df)
    assert _sign_bracket_holds(f, _newton(plain, 1e-6, 2.0, tol=1e-14),
                               1e-14)
    assert plain.evals > 10
    calls = []

    def model(lane, p, fp):
        calls.append((lane, p, fp))
        return 0.01

    capped = _with_slope(f, df)
    assert _newton(capped, 1e-6, 2.0, tol=1e-14, model=model) == 0.01
    assert capped.evals == 3 and calls == [(0, 2.0, f(2.0))]
    # each lane asks the model with its own id: a second lane whose
    # model point is no cap runs the plain search next to the capped one
    del calls[:]
    roots = newton_root(lambda ids, xs: [(f(x), df(x)) for x in xs],
                        {5: (1e-6, 2.0), 3: (1e-6, 2.0)}, tol=1e-14,
                        model=lambda k, p, fp: {5: 0.01, 3: 3.0}[k])
    assert roots == {5: 0.01,
                     3: _newton(_with_slope(f, df), 1e-6, 2.0, tol=1e-14)}
    # a NaN model point is ignored, a model point past the Newton point
    # does not hold the step back, and the model caps no bisection
    for point in (math.nan, 3.0):
        ignored = _with_slope(f, df)
        _newton(ignored, 1e-6, 2.0, tol=1e-14, model=lambda k, p, fp: point)
        assert ignored.evals == plain.evals

    def bisections(model):
        g = _with_slope(f, lambda x: math.nan)
        _newton(g, 1e-6, 2.0, tol=1e-14, model=model)
        return g.evals
    assert bisections(lambda k, p, fp: 0.01) == bisections(None) > 40


def test_newton_endpoints_and_bracket():
    g = _with_slope(lambda x: x - 0.5, lambda x: 1.0)
    assert _newton(_with_slope(lambda x: x, lambda x: 1.0), 0.0, 1.0) \
        == 0.0
    assert _newton(_with_slope(lambda x: x - 1.0, lambda x: 1.0),
                       0.0, 1.0) == 1.0
    assert _newton(g, 0.0, 1.0) == 0.5 and g.evals == 3
    for f in (lambda x: x * x + 1.0,  # no sign change
              lambda x: math.nan if x == 0.0 else x - 0.5,  # NaN ends
              lambda x: math.nan if x == 1.0 else x - 0.5):
        with pytest.raises(ValueError):
            _newton(_with_slope(f, lambda x: 1.0), 0.0, 1.0)


def test_newton_nan_inside_the_bracket_is_an_error():
    f = lambda x: math.nan if 0.45 < x < 0.55 else x - 0.5  # noqa: E731
    g = _with_slope(f, lambda x: 1.0)
    with pytest.raises(ConvergenceError, match="NaN at 0.5"):
        _newton(g, 0.0, 1.0)
    assert g.evals == 3  # both ends, then the Newton point 0.5


def test_newton_out_of_iterations_is_an_error():
    with pytest.raises(ConvergenceError, match="Newton"):
        _newton(_with_slope(lambda x: x ** 3 - 2.0, lambda x: 3 * x * x),
                    0.0, 4.0, tol=1e-13, max_iter=3)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(root=st.floats(0.01, 0.99), steep=st.floats(1e-3, 1e3),
       log_tol=st.floats(-12.0, -2.0),
       finder=st.sampled_from(["newton", "newton-bisect", "brent"]))
def test_root_is_the_final_bracket_end_with_the_smaller_value(
        root, steep, log_tol, finder):
    # f rises across [0, 1] with slope 1 below the root and steep above it,
    # so the two ends of the final bracket carry very different |f|.  For a
    # rising f those ends are the largest point evaluated below zero and
    # the smallest above it; the contract returns the one with the smaller
    # |f|, and the bracket is no wider than tol plus 4 ulps
    def f(x):
        return (x - root) * (steep if x > root else 1.0)
    tol = 10.0 ** log_tol
    seen = []
    if finder == "brent":
        x = brent_root(lambda p: seen.append(p) or f(p), 0.0, 1.0, tol=tol)
    else:
        slope = ((lambda p: steep if p > root else 1.0) if finder == "newton"
                 else (lambda p: math.nan))
        x = _newton(_with_slope(f, slope, seen), 0.0, 1.0, tol=tol)
        _lanes_match_their_one_lane_calls(_with_slope(f, slope), tol)
    if f(x) == 0.0:
        return
    below = max(p for p in seen if f(p) < 0.0)
    above = min(p for p in seen if f(p) > 0.0)
    assert x in (below, above)
    assert abs(f(x)) == min(abs(f(below)), abs(f(above)))
    assert above - below <= tol + 4.0 * EPS * abs(x)


def _outcome(lane):
    """A lane's root, or its error as (type, message)."""
    if isinstance(lane, Exception):
        return type(lane), str(lane)
    return lane


def _lanes_match_their_one_lane_calls(g, tol):
    # g on [0, 1] between neighbours that stop at once (a root at an end),
    # take one probe, raise ValueError (no sign change) or meet a NaN
    # inside the bracket, in three orders, under sparse, unsorted ids:
    # each lane returns, after the same evaluations, what its one-lane
    # call returns.  f gets the open ids in bracket order, as one list
    # object until a lane leaves
    lanes = [
        (g, 0.0, 1.0),
        (_with_slope(lambda x: x - 1.0, lambda x: 1.0), 0.0, 1.0),
        (_with_slope(lambda x: x - 0.5, lambda x: 1.0), 0.0, 1.0),
        (_with_slope(lambda x: x * x + 1.0, lambda x: 2.0 * x), 0.0, 1.0),
        (_with_slope(lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5,
                     lambda x: 1.0), 0.0, 1.0)]
    alone = []
    for h, lo, hi in lanes:
        seen = []
        try:
            x = _newton(lambda p: seen.append(p) or h(p), lo, hi, tol=tol)
        except (ValueError, ConvergenceError) as exc:
            x = exc
        alone.append((_outcome(x), seen))
    lane_of = {7: 0, 2: 1, 11: 2, 30: 3, 4: 4}  # id -> index in lanes
    for order in ((7, 2, 11, 30, 4), (4, 30, 11, 2, 7), (11, 7, 4, 2, 30)):
        seen = {k: [] for k in order}
        handed = []  # per round, the ids list f got and a copy of it

        def batch(ids, xs):
            handed.append((ids, list(ids)))
            for k, x in zip(ids, xs):
                seen[k].append(x)
            return [lanes[lane_of[k]][0](x) for k, x in zip(ids, xs)]
        out = newton_root(batch, {k: lanes[lane_of[k]][1:] for k in order},
                          tol=tol)
        assert list(out) == list(order)
        for k in order:
            assert (_outcome(out[k]), seen[k]) == alone[lane_of[k]]
        assert handed[0][1] == list(order)
        for (before, was), (now, ids) in zip(handed, handed[1:]):
            assert ids == [k for k in order if k in ids]
            assert (now is before) == (ids == was)


Z_MIN = -0.5 * math.exp(-1.0)  # the z a saturated fit sends lambert_w


def test_lambert_w_residuals():
    for z in (Z_MIN, -0.15, -0.05, -1e-8, -1e-300, -5e-324):
        w = lambert_w(z)
        assert abs(w * math.exp(w) - z) <= 1e-12 * abs(z)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z=st.floats(Z_MIN, Z_MIN + 0.01))
def test_lambert_w_residual_near_the_branch_point(z):
    # the lower end of the domain, the closest it comes to the branch
    # point -1/e; there w + 1 >= 0.76
    w = lambert_w(z)
    assert -0.232 < w < 0.0
    assert abs(w * math.exp(w) - z) <= 1e-12 * abs(z)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(z=st.one_of(st.floats(Z_MIN, 0.0, exclude_max=True),
                   st.floats(-322.0, -0.74).map(lambda e: -10.0 ** e)))
def test_lambert_w_residual_property(z):
    # the whole domain [-1/(2e), 0), down to subnormal |z|
    w = lambert_w(z)
    assert -0.232 < w < 0.0
    assert abs(w * math.exp(w) - z) <= 1e-12 * abs(z)


def test_lambert_w_known_values():
    # the value used by the resolution formula when the fit saturates
    assert abs(lambert_w(Z_MIN) + 0.23196095298653444) < 1e-12
    # W0(w e^w) = w for w >= -1
    for w in (-0.2, -0.1, -1e-3):
        assert abs(lambert_w(w * math.exp(w)) - w) < 1e-15
    assert lambert_w(-1e-300) == -1e-300  # W0(z) ~ z - z^2 near 0


def test_lambert_w_unverified_halley_is_an_error(monkeypatch):
    # a Halley refinement that stalls at its start must not be returned
    monkeypatch.setattr(numerics, "_halley_w", lambda w, z: w)
    with pytest.raises(ConvergenceError):
        lambert_w(-0.15)


def test_lambert_w_domain():
    # the fit's range [-1/(2e), 0) exactly: both ends and NaN
    lambert_w(Z_MIN)
    for z in (math.nextafter(Z_MIN, -1.0), -1.0 / math.e, -1.0, 0.0, -0.0,
              5e-324, 1.0, math.nan, -math.inf, math.inf):
        with pytest.raises(ValueError):
            lambert_w(z)
