import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotobh.cli import _dtheta_steps
from rotobh.errors import ConfigError, DomainError, FitQualityWarning, OutOfRangeError
from rotobh.landau import kappa
from rotobh.numerics import lambert_w
from rotobh.sensing import (BISECTION_TOL, DELTA_GLOBAL_MAX, FIT_COARSE_POINTS,
                            FIT_LOG_RANGE, FIT_LOG_TOL, THETA_EXACT_CROSSOVER,
                            _crossings, delta_change, delta_exact, delta_max,
                            delta_on, fit_a, fit_form, fit_grid,
                            invert_rotation_change, peak_offset, resolution,
                            resolution_grid, theta_crossover)
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
        for dts in (np.linspace(0.0, theta, 200), _dtheta_steps(theta, 401),
                    _dtheta_steps(theta, 200)):
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
@given(theta=_OUTSIDE_THETA)
def test_theta_outside_the_open_quadrant_is_a_domain_error(theta):
    # theta <= 0 and theta >= pi/2 (nan and +-inf included)
    with pytest.raises(DomainError):
        delta_on(theta, [0.0])
    for mode in ("exact", "fit"):
        with pytest.raises(DomainError):
            resolution(theta, mode, gamma=0.043)
    with pytest.raises(DomainError):
        invert_rotation_change(0.05, 1.0, 1, theta, 0.043)


def test_peak_offset():
    # cos(theta) > 2/3: the maximum sits on the edge dtheta = theta
    assert peak_offset(0.5) == 0.5
    assert abs(peak_offset(1.0) - 0.37412945505418205) < 1e-12
    pk = peak_offset(0.9)
    u = math.cos(0.9) / math.cos(0.9 - pk)
    assert abs(u - 2.0 / 3.0) < 1e-12
    assert abs(peak_offset(THETA_EXACT_CROSSOVER) - THETA_EXACT_CROSSOVER) < 1e-6


def _crosses_within(theta, d, level, rising):
    """delta_exact passes level within 1e-12 of d, upward if rising."""
    below = delta_exact(theta, max(d - 1e-12, 0.0))
    above = delta_exact(theta, min(d + 1e-12, theta))
    return below <= level <= above if rising else above <= level <= below


@settings(max_examples=400, deadline=None, derandomize=True)
@given(theta=st.floats(0.01, 0.5 * math.pi, exclude_max=True),
       frac=st.one_of(st.floats(0.0, 1.0), st.just(1.0)))
def test_crossings_bracket_the_level(theta, frac):
    level = frac * 0.99 * delta_max(theta, "exact")
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
    dm = delta_max(theta, "exact")
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


def test_delta_change_factorizes():
    d = delta_change(1.0, 1, 0.8, 0.1)
    assert abs(d - kappa(1.0, 1) * delta_exact(0.8, 0.1)) < 1e-15
    dv = delta_change(1.0, 1, 0.8, 0.1, "variational")
    assert abs(dv - 2.0 * d) < 1e-15


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
    dts = np.linspace(0.0, theta, grid_points)
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


def test_delta_max_exact():
    assert delta_max(1.0, "exact") == DELTA_GLOBAL_MAX
    assert delta_max(THETA_EXACT_CROSSOVER, "exact") == DELTA_GLOBAL_MAX
    th = 0.5
    assert delta_max(th, "exact") == delta_exact(th, th)
    assert delta_max(th, "exact") < DELTA_GLOBAL_MAX


def test_delta_max_fit_saturates_at_inverse_e():
    for th in (0.8, 1.0, 1.2):
        assert abs(delta_max(th, "fit") - math.exp(-1.0)) < 1e-15
    # below the fit crossover the surrogate peaks on the edge instead
    th = 0.5
    a, _ = fit_a(th)
    assert a * th < 1.0
    assert delta_max(th, "fit") == float(fit_form(a, th))
    assert delta_max(th, "fit") < math.exp(-1.0)
    with pytest.raises(ConfigError):
        delta_max(0.8, "other")


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
    # Brent returns the end of its final 1e-8 bracket with the smaller
    # residual, 1.5e-9 here
    tc = theta_crossover("fit")
    assert abs(fit_a(tc)[0] * tc - 1.0) < 1e-8


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


def test_resolution_two_sided_width():
    # at theta = 1.4 the falling branch drops below half maximum before
    # the edge, so a full width exists (and the bundled surrogate fit is
    # honest about being poor out there)
    with pytest.warns(FitQualityWarning):
        prof = resolution(1.4, mode="exact")
    assert prof.fwhm_theta is not None
    right = prof.epsilon_theta + prof.fwhm_theta
    assert abs(delta_exact(1.4, right) - 0.5 * prof.delta_max) < 1e-9
    assert peak_offset(1.4) < right < 1.4
    # at theta = 1.0 the profile stays above half maximum at the edge
    assert resolution(1.0).fwhm_theta is None


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
        measured = delta_change(1.0, 1, theta, dtheta)
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
    dm = delta_max(theta, "exact")
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
    res2 = invert_rotation_change(delta_change(1.0, 1, 0.5, 0.2), 1.0, 1,
                                  0.5, gamma)
    assert not res2.ambiguous


def test_invert_out_of_range():
    gamma = 0.05
    max_reading = kappa(1.0, 1) * delta_max(0.9, "exact")
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
