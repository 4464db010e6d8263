import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotobh import numerics
from rotobh.errors import ConvergenceError
from rotobh.numerics import bisect_root, brent_root, golden_min, lambert_w


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


def test_lambert_w_residuals():
    for z in (-1.0 / math.e, -0.3, -0.2319, -0.05, -1e-8, 1e-8, 0.5, 1.0,
              10.0, 1e6, 1e100):
        w = lambert_w(z)
        assert abs(w * math.exp(w) - z) <= 1e-12 * max(abs(z), 1e-300)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z=st.floats(-1.0 / math.e, -1.0 / math.e + 0.1))
def test_lambert_w_residual_near_the_branch_point(z):
    # W0 meets the lower branch at z = -1/e, where w is a sqrt-type root
    w = lambert_w(z)
    assert w > -1.0 - 1e-7
    assert abs(w * math.exp(w) - z) <= 1e-12 * abs(z)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(z=st.one_of(st.floats(-1.0 / math.e, 1.0),
                   st.floats(-30.0, 300.0).map(lambda e: 10.0 ** e)))
def test_lambert_w_residual_property(z):
    # the whole domain [-1/e, 1e300]: the branch-point series, the in-basin
    # start below e and the log asymptotics beyond it
    w = lambert_w(z)
    assert w >= -1.0 - 1e-7
    assert abs(w * math.exp(w) - z) <= 1e-12 * max(abs(z), 1e-300)


def test_lambert_w_known_values():
    assert lambert_w(0.0) == 0.0
    assert abs(lambert_w(-1.0 / math.e) + 1.0) < 1e-7  # sqrt-type root
    assert abs(lambert_w(1.0) - 0.5671432904097838) < 1e-12
    assert abs(lambert_w(math.e) - 1.0) < 1e-12
    # the value used by the resolution formula
    assert abs(lambert_w(-0.5 * math.exp(-1.0)) + 0.23196095298653444) < 1e-12


def test_lambert_w_unverified_halley_is_an_error(monkeypatch):
    # a Halley refinement that stalls at its start must not be returned
    monkeypatch.setattr(numerics, "_halley_w", lambda w, z: w)
    with pytest.raises(ConvergenceError):
        lambert_w(1.0)


def test_lambert_w_domain():
    with pytest.raises(ValueError):
        lambert_w(-1.0)
