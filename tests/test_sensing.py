import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotobh import sensing
from rotobh.errors import (ConfigError, ConvergenceError, DomainError,
                           FitQualityWarning, OutOfRangeError)
from rotobh.landau import kappa
from rotobh.numerics import golden_min, lambert_w
from rotobh.sensing import (BISECTION_TOL, DELTA_GLOBAL_MAX, FIT_COARSE_POINTS,
                            FIT_LOG_RANGE, FIT_LOG_TOL, THETA_EXACT_CROSSOVER,
                            _crossings, _fit_peak, delta_exact,
                            delta_max, delta_on, dtheta_steps, fit_a,
                            fit_form, fit_grid, invert_rotation_change,
                            peak_offset, resolution, resolution_grid,
                            theta_crossover)
from test_numerics import golden_min_scalar


def test_delta_exact_values():
    assert delta_exact(0.5, 0.0) == 0.0
    assert abs(delta_exact(0.5, 0.1) - 0.2070104817540616) < 1e-14
    assert abs(delta_exact(0.6, 0.6) - 0.3449314275756122) < 1e-14
    # u = 2/3 is the global maximum of u sqrt(1-u)
    theta = 1.0
    dt = theta - math.acos(1.5 * math.cos(theta))
    assert abs(delta_exact(theta, dt) - DELTA_GLOBAL_MAX) < 1e-12


def test_delta_exact_domain():
    with pytest.raises(DomainError):
        delta_exact(0.0, 0.0)
    with pytest.raises(DomainError):
        delta_exact(math.pi / 2.0, 0.1)
    with pytest.raises(DomainError):
        delta_exact(0.5, -0.01)
    with pytest.raises(DomainError):
        delta_exact(0.5, 0.51)


def _delta_scalar(theta, dtheta):
    """Reference delta, one point at a time in math.cos."""
    u = math.cos(theta) / math.cos(theta - dtheta)
    return u * math.sqrt(max(1.0 - u, 0.0))


def test_delta_on_matches_scalar_bit_for_bit():
    for theta in (0.01, 0.3, 0.7008, 1.0, 1.5, 1.5707):
        for dts in (np.linspace(0.0, theta, 200), dtheta_steps(theta, 401),
                    dtheta_steps(theta, 200)):
            want = [_delta_scalar(theta, d) for d in dts]
            assert delta_on(theta, dts).tolist() == want, theta
            assert [delta_exact(theta, d) for d in dts] == want, theta


def test_delta_on_domain():
    with pytest.raises(DomainError):
        delta_on(0.5, [0.0, -1e-12, 0.2])
    with pytest.raises(DomainError):
        delta_on(0.5, np.array([0.1, 0.5000000001]))
    with pytest.raises(DomainError):
        delta_on(0.0, [0.0])
    with pytest.raises(DomainError):
        delta_on(math.pi / 2.0, [0.1])


_OUTSIDE_THETA = st.one_of(st.floats(max_value=0.0),
                          st.floats(min_value=0.5 * math.pi),
                          st.just(math.nan))


@settings(max_examples=100, deadline=None, derandomize=True)
@example(theta=1e308)
@example(theta=-1e308)
@given(theta=_OUTSIDE_THETA)
def test_theta_outside_the_open_quadrant_is_a_domain_error(theta):
    # theta <= 0 and theta >= pi/2 (nan and +-inf included)
    with pytest.raises(DomainError):
        delta_on(theta, [0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # raised before theta * i can overflow
        with pytest.raises(DomainError):
            dtheta_steps(theta, 401)
        with pytest.raises(DomainError):  # in any row of a column
            dtheta_steps(np.array([[0.5], [theta]]), 401)
    for mode in ("exact", "fit"):
        with pytest.raises(DomainError):
            resolution(theta, mode, gamma=0.043)
    with pytest.raises(DomainError):
        invert_rotation_change(0.05, 1.0, 1, theta, 0.043)


@settings(max_examples=300, deadline=None, derandomize=True)
@example(theta=5e-324, points=2)
@example(theta=0.5 * math.pi - 2e-16, points=401)
@given(theta=st.floats(5e-324, 0.5 * math.pi, exclude_max=True),
       points=st.integers(2, 5000))
def test_dtheta_steps_match_the_scalar_grid(theta, points):
    # cell for cell the bits and the Python float type of the scalar list
    want = [min(theta * i / (points - 1), theta) for i in range(points)]
    got = dtheta_steps(theta, points).tolist()
    assert all(type(d) is float for d in got)
    assert list(map(float.hex, got)) == list(map(float.hex, want))


@settings(max_examples=100, deadline=None, derandomize=True)
@example(thetas=[5e-324, 1e-320, 2.0 ** -1022, 1e-3, 0.7, 1.5707],
         grid_points=50)
@example(thetas=[5e-324, 5e-324, 1e-323], grid_points=1000)
@given(thetas=st.lists(st.one_of(st.floats(5e-324, 2.0 ** -1022),
                                 st.floats(5e-324, 0.5 * math.pi,
                                           exclude_max=True)),
                       min_size=1, max_size=8),
       grid_points=st.integers(50, 1000))
def test_fit_targets_sample_the_dtheta_steps_grid(thetas, grid_points):
    # every row of the fit's targets is dtheta_steps' grid of its theta,
    # and delta_on on it, bit for bit, subnormal thetas included
    dts, target = sensing._fit_targets(thetas, grid_points)
    assert dts.flags.c_contiguous and target.flags.c_contiguous
    for theta, row, row_target in zip(thetas, dts, target):
        steps = dtheta_steps(theta, grid_points)
        assert row.tobytes() == steps.tobytes()
        assert row_target.tobytes() == delta_on(theta, steps).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@example(theta=5e-324, a=1.0, points=2)
@example(theta=0.8, a=1.25, points=401)
@given(theta=st.floats(5e-324, 0.5 * math.pi, exclude_max=True),
       a=st.floats(1e-3, 1e8), points=st.integers(2, 2000))
def test_fit_deviation_matches_the_list_grid(theta, a, points):
    # the grid as one array gives the bits of the same expression on
    # dtheta_steps' cells as a list of Python floats
    steps = dtheta_steps(theta, points).tolist()
    want = float(abs(fit_form(a, steps) - delta_on(theta, steps)).max())
    assert sensing.fit_deviation(theta, a, points).hex() == want.hex()


def test_peak_offset():
    # cos(theta) > 2/3: the maximum sits on the edge dtheta = theta
    assert peak_offset(0.5) == 0.5
    assert abs(peak_offset(1.0) - 0.37412945505418205) < 1e-12
    pk = peak_offset(0.9)
    u = math.cos(0.9) / math.cos(0.9 - pk)
    assert abs(u - 2.0 / 3.0) < 1e-12
    assert abs(peak_offset(THETA_EXACT_CROSSOVER) - THETA_EXACT_CROSSOVER) < 1e-6


def _crosses_within(theta, d, level, rising):
    """delta_exact passes level within 1e-12 of d, upward if rising, on
    d's own branch: [0, peak] if rising, else [peak, theta].  Within
    1e-12 of pi/2 a branch is narrower than 1e-12, and a window past its
    end would read the other branch."""
    pk = peak_offset(theta)
    lo, hi = (0.0, pk) if rising else (pk, theta)
    below = delta_exact(theta, max(d - 1e-12, lo))
    above = delta_exact(theta, min(d + 1e-12, hi))
    return below <= level <= above if rising else above <= level <= below


@settings(max_examples=400, deadline=None, derandomize=True)
@given(theta=st.floats(0.01, 0.5 * math.pi, exclude_max=True),
       frac=st.one_of(st.floats(0.0, 1.0), st.just(1.0)))
def test_crossings_bracket_the_level(theta, frac):
    level = frac * 0.99 * delta_max(theta)
    rising, falling = _crossings(theta, level)
    pk = peak_offset(theta)
    assert 0.0 <= rising <= pk
    assert _crosses_within(theta, rising, level, True)
    assert (falling is not None) == (delta_exact(theta, theta) <= level)
    if falling is not None:
        assert pk <= falling <= theta
        assert _crosses_within(theta, falling, level, False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(theta=st.one_of(st.floats(0.01, 0.5 * math.pi, exclude_max=True),
                       st.floats(THETA_EXACT_CROSSOVER - 1e-6,
                                 THETA_EXACT_CROSSOVER + 1e-6)))
def test_crossings_at_zero_and_at_the_peak(theta):
    assert _crossings(theta, 0.0) == (0.0, None)
    dm = delta_max(theta)
    rising, falling = _crossings(theta, dm)
    assert (falling is None) == (theta < THETA_EXACT_CROSSOVER)
    # delta is flat at its peak (on the edge as well: cos(theta - dtheta)
    # is stationary there), so a peak offset off by more than BISECTION_TOL
    # must lie in the band where delta equals delta_max to rounding
    pk = peak_offset(theta)
    for d in (rising, falling or pk):
        assert 0.0 <= d <= theta
        err = d - pk
        if abs(err) > BISECTION_TOL:
            inner = d - math.copysign(BISECTION_TOL, err)
            assert abs(delta_exact(theta, inner) - dm) <= 8e-16 * dm, err


def test_fit_form_peak():
    assert fit_form(2.0, 0.0) == 0.0
    assert abs(float(fit_form(2.0, 0.5)) - math.exp(-1.0)) < 1e-15
    xs = np.linspace(0.0, 3.0, 301)
    ys = fit_form(1.0, xs)
    assert abs(xs[int(np.argmax(ys))] - 1.0) < 0.02


def test_fit_a_frozen_values():
    # grid protocol: 200 uniform samples of delta on [0, theta]
    a, rms = fit_a(1.0)
    assert abs(a - 2.154801087790805) < 1e-6
    assert abs(rms - 0.019091499126111473) < 1e-9
    a, rms = fit_a(0.6)
    assert abs(a - 0.977745) < 1e-5
    assert abs(rms - 0.00478) < 1e-4
    a, rms = fit_a(0.3)
    assert abs(a - 0.299935) < 1e-5
    with pytest.raises(DomainError):
        fit_a(0.0)
    with pytest.raises(ConfigError):
        fit_a(0.8, grid_points=10)


def _fit_a_scalar(theta, grid_points):
    """Reference fit, point by point: a scalar delta_exact target, a
    61-step coarse loop and np.mean, then the scalar golden search."""
    dts = dtheta_steps(theta, grid_points)
    target = np.array([delta_exact(theta, d) for d in dts])

    def rms_of(log_a):
        resid = fit_form(10.0 ** log_a, dts) - target
        return math.sqrt(float(np.mean(resid * resid)))

    coarse = np.linspace(FIT_LOG_RANGE[0], FIT_LOG_RANGE[1], FIT_COARSE_POINTS)
    values = [rms_of(la) for la in coarse]
    i = int(np.argmin(values))
    lo = coarse[max(i - 1, 0)]
    hi = coarse[min(i + 1, FIT_COARSE_POINTS - 1)]
    log_a = golden_min_scalar(rms_of, lo, hi, tol=FIT_LOG_TOL)
    return 10.0 ** log_a, rms_of(log_a)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(theta=st.floats(0.01, 1.56), grid_points=st.sampled_from([50, 200, 1000]))
def test_fit_a_equals_scalar_fit_bit_for_bit(theta, grid_points):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FitQualityWarning)
        assert fit_a(theta, grid_points) == _fit_a_scalar(theta, grid_points)


# Below about theta = 0.0015 and above about 1.567 the coarse argmin sits
# on the first or last of the 61 log10 a points, so that lane gets the
# 0.1-wide edge bracket and stops before the 0.2-wide inner ones.
_GRID_THETA = st.one_of(st.floats(0.01, 1.56), st.floats(0.0095, 0.0105),
                        st.floats(1.555, 1.5605), st.floats(1e-4, 1.5e-3),
                        st.floats(1.567, 1.5707))


_SPREAD = [0.0005, 0.0095] + [0.01 + 0.0775 * k for k in range(21)] + [1.5605,
                                                                      1.5706]


@settings(max_examples=40, deadline=None, derandomize=True)
@example(thetas=_SPREAD, grid_points=200)
@example(thetas=_SPREAD[::-1] + _SPREAD[:2] + _SPREAD[-2:], grid_points=1000)
@example(thetas=[0.7, 0.7, 0.7], grid_points=50)
@given(thetas=st.lists(_GRID_THETA, min_size=1, max_size=25).flatmap(
           lambda ts: st.lists(st.sampled_from(ts), max_size=5).map(
               lambda dups: ts + dups)),
       grid_points=st.sampled_from([50, 200, 1000]))
def test_fit_grid_equals_scalar_fits_bit_for_bit(thetas, grid_points):
    want = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FitQualityWarning)
        got = fit_grid(thetas, grid_points)
        for theta in thetas:
            if theta not in want:
                want[theta] = _fit_a_scalar(theta, grid_points)
        profiles = resolution_grid(thetas, "fit", grid_points=grid_points)
    assert got == [want[theta] for theta in thetas]
    assert [(p.a_fit, p.fit_rms) for p in profiles] == got


def _fit_grid_allocating(thetas, grid_points, search):
    """fit_grid with a fresh array for every scan and rms evaluation: the
    coarse scan through fit_form, rms_of with a nested-list scale and a
    per-lane math.sqrt.  search is the golden search to run."""
    dts = np.array([dtheta_steps(t, grid_points) for t in thetas])
    target = np.array([delta_on(t, row) for t, row in zip(thetas, dts)])
    coarse = np.linspace(FIT_LOG_RANGE[0], FIT_LOG_RANGE[1], FIT_COARSE_POINTS)
    scale = 10.0 ** coarse[:, None]
    brackets = []
    for row_dts, row_target in zip(dts, target):
        resid = fit_form(scale, row_dts) - row_target
        i = int(np.argmin(np.sqrt(np.add.reduce(resid * resid, axis=1)
                                  / grid_points)))
        brackets.append((coarse[max(i - 1, 0)],
                         coarse[min(i + 1, FIT_COARSE_POINTS - 1)]))

    def rms_of(log_as):
        x = np.array([[10.0 ** log_a] for log_a in log_as]) * dts
        np.sqrt(x, out=x)
        resid = np.negative(x)
        np.exp(resid, out=resid)
        resid *= x
        resid -= target
        resid *= resid
        return [math.sqrt(s / grid_points)
                for s in np.add.reduce(resid, axis=1).tolist()]

    log_as = search(rms_of, brackets, tol=FIT_LOG_TOL)
    return brackets, [(10.0 ** log_a, rms)
                      for log_a, rms in zip(log_as, rms_of(log_as))]


def _recorded(calls):
    """golden_min that logs every evaluation: (abscissae, values)."""
    def search(f, brackets, tol):
        def logged(xs):
            values = f(xs)
            calls.append((list(xs), list(values)))
            return values
        return golden_min(logged, brackets, tol=tol)
    return search


@settings(max_examples=60, deadline=None, derandomize=True)
@example(thetas=[5e-324, 1e-3, 0.7, 1.569], grid_points=50)
@example(thetas=_SPREAD, grid_points=1000)
# more thetas than one pass of the scan's bounds and of its full rows
@example(thetas=[0.01 + 0.06 * k for k in range(26)], grid_points=50)
# where the rms curve is flattest and the most coarse points survive
@example(thetas=[1.5692, 1.5693, 1.5694, 1.5694, 1.5695, 1.5696],
         grid_points=200)
# the coarse rms ties across many points, at 0 or in subnormal sums
@example(thetas=[5e-324, 5e-324, 1e-323, 5e-324, 1e-320, 1e-320],
         grid_points=1000)
@given(thetas=st.lists(st.floats(5e-324, 1.569), min_size=1, max_size=25),
       grid_points=st.integers(50, 1000))
def test_fit_grid_matches_the_allocating_scan_bit_for_bit(thetas,
                                                          grid_points):
    # the in-place scan and rms_of give the allocating brackets, the same
    # golden evaluations in the same order, and the same fits
    want_calls, got_calls = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FitQualityWarning)
        brackets, want = _fit_grid_allocating(thetas, grid_points,
                                              _recorded(want_calls))
        with mock.patch.object(sensing, "golden_min", _recorded(got_calls)):
            got = fit_grid(thetas, grid_points)
    dts = np.array([dtheta_steps(t, grid_points) for t in thetas])
    target = np.array([delta_on(t, row) for t, row in zip(thetas, dts)])
    assert sensing._coarse_brackets(dts, target) == brackets
    assert got_calls == want_calls
    assert all(type(v) is float for _, values in got_calls for v in values)
    assert got == want


def test_pruned_argmin_evaluates_every_row_that_can_win():
    # synthetic sums: bounds[k, r] may exceed row r's full sum only by
    # rounding, which the margin allows for
    n, u = 200, 2.0 ** -53
    sums = np.array([[0.5, 0.5, 0.5, 0.9],
                     [0.3, 0.2, 0.2, 0.2]])
    bounds = np.array([[0.5 * (1.0 + 2.0 * n * u), 0.5, 0.25, 0.9],
                       [0.3, 0.1, 0.05, 0.2]])
    evaluated = []

    def full_rms(ks, rs):
        evaluated.extend(zip(ks.tolist(), rs.tolist()))
        return np.sqrt(sums[ks, rs] / n)

    got = sensing._pruned_argmin(bounds, full_rms, n)
    # lane 0: row 2 has the least bound; row 1's bound equals the best sum
    # and row 0's exceeds it within rounding, so both are evaluated, and
    # the three-way tie keeps row 0.  Row 3 cannot win.  Lane 1: row 2 has
    # the least bound, but the tie keeps the earlier row 1.
    assert got.tolist() == [0, 1]
    assert sorted(evaluated) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2),
                                 (1, 3)]
    assert got.tolist() == np.argmin(np.sqrt(sums / n), axis=1).tolist()


def test_fit_grid_reaches_the_scan_edges():
    # the edge cases that _GRID_THETA draws really are edge brackets
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FitQualityWarning)
        (a_lo, _), (a_hi, _) = fit_grid([1e-3, 1.57])
    assert abs(math.log10(a_lo) - FIT_LOG_RANGE[0]) < 0.05
    assert abs(math.log10(a_hi) - FIT_LOG_RANGE[1]) < 0.05


def test_fit_grid_warns_once_per_poor_theta_in_grid_order():
    thetas = [1.45, 0.8, 1.5, 0.6, 1.4]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fits = fit_grid(thetas)
    poor = [(theta, rms) for theta, (_, rms) in zip(thetas, fits)
            if rms > 0.02]
    assert [t for t, _ in poor] == [1.45, 1.5, 1.4]
    assert [str(w.message) for w in caught] == [
        "fit rms %.4f exceeds 0.02 at theta = %g" % (rms, theta)
        for theta, rms in poor]
    assert all(w.category is FitQualityWarning for w in caught)


def test_fit_grid_checks_every_theta_before_fitting():
    assert fit_grid([]) == []
    with pytest.raises(DomainError, match="theta = 1.7"):
        fit_grid([0.5, 1.7])
    with pytest.raises(ConfigError):
        fit_grid([0.5, 0.8], grid_points=10)


def test_fit_a_increases_with_theta():
    values = [fit_a(th)[0] for th in (0.4, 0.6, 0.8, 1.0, 1.2)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_fit_quality_warning_far_from_validity():
    with pytest.warns(FitQualityWarning):
        fit_a(1.45)


def test_fit_pinned_at_a_range_end_warns():
    # the least-squares a lies below 10^-3 at theta 0.001 and above 10^3
    # at 1.57, though both rms values pass FIT_RMS_THRESHOLD
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fits = fit_grid((1.57, 0.01, 1.56, 0.001))
    assert [str(w.message) for w in caught] == [
        "fit a = %.6g is pinned at an end of its range 10^[-3, 3] at "
        "theta = %g" % (a, theta)
        for theta, (a, _) in ((1.57, fits[0]), (0.001, fits[3]))]
    assert all(w.category is FitQualityWarning for w in caught)
    assert all(rms <= sensing.FIT_RMS_THRESHOLD for _, rms in fits)
    assert FIT_LOG_RANGE[1] - math.log10(fits[0][0]) <= FIT_LOG_TOL
    assert math.log10(fits[3][0]) - FIT_LOG_RANGE[0] <= FIT_LOG_TOL
    for theta in (0.01, 1.56):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit_a(theta)
    for theta in (0.001, 1.57):
        with pytest.warns(FitQualityWarning, match="pinned"):
            fit_a(theta)


def test_delta_max_exact():
    assert delta_max(1.0) == DELTA_GLOBAL_MAX
    assert delta_max(THETA_EXACT_CROSSOVER) == DELTA_GLOBAL_MAX
    th = 0.5
    assert delta_max(th) == delta_exact(th, th)
    assert delta_max(th) < DELTA_GLOBAL_MAX


def test_delta_max_fit_saturates_at_inverse_e():
    for th in (0.8, 1.0, 1.2):
        assert abs(resolution(th, "fit").delta_max - math.exp(-1.0)) < 1e-15
    # below the fit crossover the surrogate peaks on the edge instead
    th = 0.5
    a, _ = fit_a(th)
    assert a * th < 1.0
    assert resolution(th, "fit").delta_max == float(fit_form(a, th))
    assert resolution(th, "fit").delta_max < math.exp(-1.0)


def test_theta_crossover_both_modes():
    assert theta_crossover("exact") == THETA_EXACT_CROSSOVER
    assert abs(THETA_EXACT_CROSSOVER - 0.8410686705679303) < 1e-15
    # self-consistent root of a(theta) theta = 1; sits well below the
    # exact-curve threshold
    tc = theta_crossover("fit")
    assert abs(tc - 0.70918) < 1e-4
    a, _ = fit_a(tc)
    assert abs(a * tc - 1.0) < 1e-4
    with pytest.raises(ConfigError):
        theta_crossover("other")


def test_theta_crossover_fit_solves_its_equation():
    # the stationarity root is exact to rounding for the fit's problem; a
    # fit there meets a theta = 1 to the golden search's error, 1.8e-9
    tc = theta_crossover("fit")
    assert abs(fit_a(tc)[0] * tc - 1.0) < 1e-8
    # the 50-point fit crosses 1.9e-4 below the 200-point one
    assert theta_crossover("fit", 50) < tc - 1e-4
    with pytest.raises(ConfigError):
        theta_crossover("fit", 49)


def test_theta_crossover_fit_takes_no_fit(monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("theta_crossover ran a fit")
    monkeypatch.setattr(sensing, "fit_grid", no_fit)
    monkeypatch.setattr(sensing, "golden_min", no_fit)
    assert abs(theta_crossover("fit") - 0.70918) < 1e-4


def test_theta_crossover_fit_needs_the_scan_to_bracket_its_root(monkeypatch):
    # the root of the stationarity does not depend on the scan range, but
    # log10(1/theta*) = 0.149 lies outside a scan over [1, 3]: a stationary
    # point the coarse scan does not confirm as the minimum is no answer
    monkeypatch.setattr(sensing, "FIT_LOG_RANGE", (1.0, 3.0))
    with pytest.raises(ConvergenceError):
        theta_crossover("fit")


def test_resolution_exact_mode():
    prof = resolution(1.0, mode="exact")
    assert prof.mode == "exact"
    assert prof.delta_max == DELTA_GLOBAL_MAX
    assert abs(prof.epsilon_theta - 0.027136389044250343) < 1e-9
    # the reported point really is the half-maximum on the rising branch
    assert abs(delta_exact(1.0, prof.epsilon_theta) - 0.5 * prof.delta_max) < 1e-9
    assert prof.epsilon_theta < peak_offset(1.0)
    assert prof.omega is None and prof.epsilon_omega is None
    assert prof.a_fit == pytest.approx(2.154801087790805, abs=1e-6)


def test_resolution_exact_spot_values():
    assert abs(resolution(0.6).epsilon_theta - 0.049719222) < 1e-8
    assert abs(resolution(0.3).epsilon_theta - 0.036109289) < 1e-8
    assert abs(resolution(1.2).epsilon_theta - 0.016338229) < 1e-8


def test_resolution_omega_units():
    gamma = 0.043
    prof = resolution(0.9, mode="exact", gamma=gamma)
    assert abs(prof.omega - 0.9 / gamma) < 1e-12
    assert abs(prof.epsilon_omega - prof.epsilon_theta / gamma) < 1e-12
    with pytest.raises(DomainError):
        resolution(0.9, gamma=-1.0)


def test_resolution_fit_mode():
    prof = resolution(1.0, mode="fit")
    assert prof.delta_max == math.exp(-1.0)
    w = lambert_w(-0.5 * math.exp(-1.0))
    assert abs(prof.epsilon_theta - w * w / prof.a_fit) < 1e-12
    assert abs(prof.epsilon_theta - 0.024970232294427394) < 1e-8
    literal = resolution(1.0, mode="fit", literal_exponent=True)
    assert abs(literal.epsilon_theta - prof.epsilon_theta / prof.a_fit) < 1e-12
    with pytest.raises(ConfigError):
        resolution(1.0, mode="other")


@settings(max_examples=500, deadline=None, derandomize=True)
@given(theta=st.floats(1e-3, 0.5 * math.pi, exclude_max=True),
       rel=st.floats(-1e-6, 1e-6))
def test_fit_peak_never_exceeds_its_saturated_value(theta, rel):
    # just below a theta = 1 the peak is x e^-x with x = sqrt(a theta) ~ 1,
    # which rounding must not lift past the saturated e^-1; so
    # -delta_max/2 never falls below lambert_w's domain
    a = (1.0 + rel) / theta
    peak = _fit_peak(a, theta)
    assert 0.0 < peak <= math.exp(-1.0)
    lambert_w(-0.5 * peak)


def test_resolution_fit_mode_at_a_subnormal_theta():
    # a * theta underflows, so the peak is 0 and so is W0; lambert_w, whose
    # domain excludes 0, is not called.  Both fits sit on the lower end of
    # the a range, and say so.
    with pytest.warns(FitQualityWarning, match="pinned"):
        prof = resolution(5e-324, mode="fit")
    assert prof.delta_max == 0.0 and prof.epsilon_theta == 0.0
    with pytest.warns(FitQualityWarning, match="pinned"):
        prof = resolution(1e-320, mode="fit")
    assert 0.0 < prof.delta_max and 0.0 < prof.epsilon_theta


def test_resolution_fit_tracks_exact_within_band():
    # the surrogate width is a rough-cut of the exact one: same scale,
    # same trend, disagreeing by up to ~25% where the saturated-peak
    # formula kicks in just above the fit crossover (theta ~ 0.8)
    rels = {}
    for th in (0.7, 0.8, 0.9, 1.0, 1.2):
        e_exact = resolution(th, mode="exact").epsilon_theta
        e_fit = resolution(th, mode="fit").epsilon_theta
        rels[th] = abs(e_fit - e_exact) / e_exact
        assert rels[th] < 0.30, (th, rels[th])
    assert rels[1.2] < 0.10  # agreement tightens deep in the band


def test_fit_curve_max_deviation():
    # sup-norm distance between surrogate and exact profile on [0, theta]
    for th, bound in ((0.6, 0.012), (1.0, 0.029), (1.1, 0.032)):
        a, _ = fit_a(th)
        dts = np.linspace(0.0, th, 400)
        dev = max(abs(float(fit_form(a, d)) - delta_exact(th, d))
                  for d in dts)
        assert dev <= bound, (th, dev)


def test_invert_roundtrip():
    gamma = 0.05
    # all three offsets sit on the rising branch (below the peak)
    for theta, dtheta in ((0.5, 0.2), (0.9, 0.1), (1.2, 0.15)):
        measured = kappa(1.0, 1) * delta_exact(theta, dtheta)
        res = invert_rotation_change(measured, 1.0, 1, theta, gamma)
        assert abs(res.delta_theta - dtheta) < 1e-9
        assert abs(res.delta_omega - dtheta / gamma) < 1e-7
    assert invert_rotation_change(0.0, 1.0, 1, 0.9, gamma).delta_theta == 0.0


@settings(max_examples=400, deadline=None, derandomize=True)
@given(theta=st.floats(0.0, 0.5 * math.pi, exclude_min=True,
                       exclude_max=True),
       frac=st.one_of(st.floats(0.0, 1.0), st.just(1.0),
                      st.floats(1.0 - 1e-6, 1.0)),
       lobe=st.integers(1, 3), mu_frac=st.floats(0.05, 0.95))
def test_invert_roundtrips_the_rising_branch(theta, frac, lobe, mu_frac):
    # near the peak delta is flat, so rounding of the reading (a few ulps)
    # moves the inverse by far more than BISECTION_TOL; there the returned
    # offset must lie within BISECTION_TOL of the band where delta equals
    # the target to rounding, which holds d
    mu = 2.0 * (lobe - 1 + mu_frac)
    d = frac * peak_offset(theta)
    kap = kappa(mu, lobe)
    measured = kap * delta_exact(theta, d)
    res = invert_rotation_change(measured, mu, lobe, theta, 1.0)
    target = measured / kap
    err = res.delta_theta - d
    if abs(err) > BISECTION_TOL:
        inner = res.delta_theta - math.copysign(BISECTION_TOL, err)
        assert abs(delta_exact(theta, inner) - target) <= 8e-16 * target, err
    dm = delta_max(theta)
    assert res.ambiguous == (delta_exact(theta, theta) <= target < dm)


def test_invert_flags_ambiguity():
    gamma = 0.05
    # past the peak the same reading occurs twice; the rising-branch
    # solution is returned and flagged
    theta = 1.4
    pk = peak_offset(theta)
    target = 0.5 * (delta_exact(theta, theta) + DELTA_GLOBAL_MAX)
    measured = kappa(1.0, 1) * target
    res = invert_rotation_change(measured, 1.0, 1, theta, gamma)
    assert res.ambiguous
    assert res.delta_theta < pk
    # an unambiguous mid-branch reading at moderate angle
    res2 = invert_rotation_change(kappa(1.0, 1) * delta_exact(0.5, 0.2), 1.0,
                                  1, 0.5, gamma)
    assert not res2.ambiguous


def test_invert_out_of_range():
    gamma = 0.05
    max_reading = kappa(1.0, 1) * delta_max(0.9)
    with pytest.raises(OutOfRangeError):
        invert_rotation_change(max_reading * 1.01, 1.0, 1, 0.9, gamma)
    for reading in (-0.1, math.nan):
        with pytest.raises(OutOfRangeError):
            invert_rotation_change(reading, 1.0, 1, 0.9, gamma)
    # readings within rounding of the maximum clamp to the peak
    res = invert_rotation_change(max_reading * (1.0 + 1e-13), 1.0, 1, 0.9,
                                 gamma)
    assert abs(res.delta_theta - peak_offset(0.9)) < 1e-12
    with pytest.raises(DomainError):
        invert_rotation_change(0.1, 1.0, 1, 0.9, -1.0)
