import math

import pytest

from rotobh.errors import ConvergenceError
from rotobh.numerics import (bisect_root, false_position_root, golden_min,
                             lambert_w)


def test_golden_quadratic():
    x = golden_min(lambda x: (x - 2.0) ** 2, 0.0, 5.0, tol=1e-12)
    assert abs(x - 2.0) < 1e-10


def test_golden_endpoint_minimum():
    assert abs(golden_min(lambda x: x, 0.0, 1.0) - 0.0) < 1e-9
    assert abs(golden_min(lambda x: -x, 0.0, 1.0) - 1.0) < 1e-9


def test_golden_flat_collapses_left():
    # tie-breaking keeps the left interval, so a constant lands on lo
    assert abs(golden_min(lambda x: 1.0, 3.0, 4.0) - 3.0) < 1e-9


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


@pytest.mark.parametrize("finder", [bisect_root, false_position_root])
def test_nan_end_is_not_a_bracket(finder):
    with pytest.raises(ValueError):
        finder(lambda x: math.nan if x == 0.0 else x - 0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        finder(lambda x: math.nan if x == 1.0 else x - 0.5, 0.0, 1.0)


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


def test_false_position_cos_fixed_point():
    f = _counted(lambda x: math.cos(x) - x)
    x = false_position_root(f, 0.0, 1.0, tol=1e-12)
    assert abs(x - 0.7390851332151607) < 1e-12
    assert f.evals < 20
    assert abs(false_position_root(lambda x: x ** 3 - 2.0, 0.0, 4.0,
                                   tol=1e-13) - 2.0 ** (1.0 / 3.0)) < 1e-12


def test_false_position_endpoints_and_bracket():
    assert false_position_root(lambda x: x, 0.0, 1.0) == 0.0
    assert false_position_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        false_position_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_false_position_out_of_iterations_is_an_error():
    with pytest.raises(ConvergenceError):
        false_position_root(lambda x: x ** 3 - 2.0, 0.0, 4.0, tol=1e-13,
                            max_iter=3)


def test_lambert_w_residuals():
    for z in (-1.0 / math.e, -0.3, -0.2319, -0.05, -1e-8, 1e-8, 0.5, 1.0,
              10.0, 1e6, 1e100):
        w = lambert_w(z, 0)
        assert abs(w * math.exp(w) - z) <= 1e-12 * max(abs(z), 1e-300)
    for z in (-1.0 / math.e, -0.3, -0.2319, -0.05, -1e-8, -1e-100):
        w = lambert_w(z, -1)
        # far down the branch one ulp of w moves w e^w by (1+|w|) ulps,
        # so the tight residual check only makes sense at moderate w
        if w > -100.0:
            assert abs(w * math.exp(w) - z) <= 1e-12 * abs(z)
        else:
            assert abs(w + math.log(-w) - math.log(-z)) <= 1e-10


def test_lambert_w_known_values():
    assert lambert_w(0.0, 0) == 0.0
    assert abs(lambert_w(-1.0 / math.e, 0) + 1.0) < 1e-7  # sqrt-type root
    assert abs(lambert_w(-1.0 / math.e, -1) + 1.0) < 1e-7
    assert abs(lambert_w(1.0, 0) - 0.5671432904097838) < 1e-12
    assert abs(lambert_w(math.e, 0) - 1.0) < 1e-12
    assert abs(lambert_w(-2.0 * math.exp(-2.0), -1) + 2.0) < 1e-10
    # the pair used by the resolution formula
    z = -0.5 * math.exp(-1.0)
    assert abs(lambert_w(z, 0) + 0.23196095298653444) < 1e-12
    assert abs(lambert_w(z, -1) + 2.6783469900166605) < 1e-12


def test_lambert_w_branch_ordering():
    for z in (-0.35, -0.2, -0.01):
        assert lambert_w(z, -1) < -1.0 < lambert_w(z, 0) + 1.0e-15
        assert lambert_w(z, 0) > -1.0 - 1e-12


def test_lambert_w_domain():
    with pytest.raises(ValueError):
        lambert_w(-1.0, 0)
    with pytest.raises(ValueError):
        lambert_w(0.5, -1)
    with pytest.raises(ValueError):
        lambert_w(0.5, 2)
