import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rotobh.errors import ConfigError, DegenerateGapError, DomainError, OutOfReachError
from rotobh.oracle import MIN_N_MAX
from rotobh.phase_diagram import (CONVENTIONS, SweepSpec, boundary_curve,
                                  boundary_hopping, classify,
                                  critical_costheta, lobe_index, lobe_tip,
                                  sweep)


def test_lobe_index():
    assert lobe_index(-3.0) == 0
    assert lobe_index(-1e-12) == 0
    assert lobe_index(0.5) == 1
    assert lobe_index(1.999) == 1
    assert lobe_index(2.0) == 2
    assert lobe_index(3.7) == 2
    assert lobe_index(4.2) == 3
    with pytest.raises(DomainError):
        lobe_index(math.nan)


def test_boundary_values():
    assert abs(boundary_hopping(1.0, 1, "paper") - 1.0 / 3.0) < 1e-15
    assert abs(boundary_hopping(0.5, 1, "paper") - 0.3) < 1e-15
    # vacuum lobe: chi = 1/mu, so D_c = -mu
    assert abs(boundary_hopping(-0.5, 0, "paper") - 0.5) < 1e-15
    assert abs(boundary_hopping(-2.0, 0, "paper") - 2.0) < 1e-15
    for mu, n in ((0.5, 1), (1.0, 1), (2.9, 2), (-1.0, 0)):
        half = boundary_hopping(mu, n, "variational")
        full = boundary_hopping(mu, n, "paper")
        assert math.isclose(half, 0.5 * full, rel_tol=1e-15)
    with pytest.raises(DegenerateGapError):
        boundary_hopping(2.0, 1)
    with pytest.raises(ConfigError):
        boundary_hopping(1.0, 1, "other")


def test_lobe_tips_match_closed_form():
    for n in (1, 2, 3):
        rn, rn1 = math.sqrt(n), math.sqrt(n + 1.0)
        mu_exp = 2.0 * (n - 1) + 2.0 * rn / (rn + rn1)
        D_exp = 2.0 / (rn + rn1) ** 2
        mu, D = lobe_tip(n)
        assert abs(mu - mu_exp) < 1e-12, n
        assert abs(D - D_exp) < 1e-12, n
        mu_v, D_v = lobe_tip(n, "variational")
        assert abs(mu_v - mu_exp) < 1e-12
        assert abs(D_v - 0.5 * D_exp) < 1e-12
    with pytest.raises(DomainError):
        lobe_tip(0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 8), convention=st.sampled_from(CONVENTIONS),
       x=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
       side=st.sampled_from((-1.0, 1.0)), exponent=st.floats(-16.0, 0.0))
def test_tip_is_the_lobe_maximum(n, convention, x, side, exponent):
    mu_star, D_star = lobe_tip(n, convention)
    lo, hi = 2.0 * (n - 1), 2.0 * n
    assert lo < mu_star < hi
    assert boundary_hopping(mu_star, n, convention) == D_star
    bound = D_star + 4.0 * math.ulp(D_star)
    # offsets from ulps to the lobe width, where a misplaced tip would show
    near = mu_star + side * 10.0 ** exponent
    for mu in (lo + x, near):
        if lo < mu < hi:  # lo + x can round onto the corner
            assert boundary_hopping(mu, n, convention) <= bound, mu


def test_boundary_curve():
    pts = boundary_curve(1, 19)
    assert len(pts) == 19
    assert all(p.lobe_n == 1 and p.convention == "paper" for p in pts)
    mus = [p.mu_over_U for p in pts]
    assert mus == sorted(mus)
    assert 0.0 < mus[0] and mus[-1] < 2.0
    assert abs(pts[9].mu_over_U - 1.0) < 1e-12
    assert abs(pts[9].D_c - 1.0 / 3.0) < 1e-12
    # vacuum lobe sampling stays finite and in-lobe
    vac = boundary_curve(0, 5)
    assert all(p.mu_over_U < 0.0 for p in vac)
    with pytest.raises(ConfigError):
        boundary_curve(1, 0)


def test_classify_phases():
    assert classify(1.0, 0.1, 0.0) == "mott:1"
    assert classify(1.0, 0.5, 0.0) == "superfluid"
    assert classify(-0.5, 0.2, 0.0) == "vacuum"
    assert classify(-0.5, 0.7, 0.0) == "superfluid"
    assert classify(3.0, 0.1, 0.0) == "mott:2"
    # the boundary itself counts as superfluid
    assert classify(1.0, 1.0 / 3.0, 0.0) == "superfluid"
    # rotation tilts a superfluid point back into the lobe
    t = 0.35
    assert classify(1.0, t, 0.0) == "superfluid"
    assert classify(1.0, t, 1.2) == "mott:1"
    # corners close the lobes: any positive hopping is superfluid there,
    # and mu = 0 belongs to lobe 1 by the indexing convention
    assert classify(2.0, 1e-6, 0.0) == "superfluid"
    assert classify(0.0, 1e-6, 0.0) == "superfluid"
    assert classify(2.0, 0.0, 0.0) == "mott:2"
    assert classify(0.0, 0.0, 0.0) == "mott:1"
    with pytest.raises(DomainError):
        classify(1.0, -0.1, 0.0)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mu=st.floats(-2.0, 6.0, exclude_max=True), t=st.floats(0.0, 2.0),
       theta=st.floats(-10.0, 10.0), convention=st.sampled_from(CONVENTIONS))
def test_classify_is_even_and_periodic_in_theta(mu, t, theta, convention):
    assume(mu not in (0.0, 2.0, 4.0))  # lobe corners close the boundary
    label = classify(mu, t, theta, convention)
    assert classify(mu, t, -theta, convention) == label
    # theta +- 2 pi rounds, which moves t cos(theta) by a few ulps of t
    D_c = boundary_hopping(mu, lobe_index(mu), convention)
    if abs(t * math.cos(theta) - D_c) > 1e-12 * t:
        for turn in (2.0 * math.pi, -2.0 * math.pi):
            assert classify(mu, t, theta + turn, convention) == label


def test_classify_convention_shifts_boundary():
    # between D_c/2 and D_c only the variational convention is superfluid
    D = 0.25
    assert classify(1.0, D, 0.0, "paper") == "mott:1"
    assert classify(1.0, D, 0.0, "variational") == "superfluid"


def test_critical_costheta():
    c = critical_costheta(0.5, 1.0, 1)
    assert abs(c - 2.0 / 3.0) < 1e-15
    assert abs(critical_costheta(1.0 / 3.0, 1.0, 1) - 1.0) < 1e-15
    with pytest.raises(OutOfReachError):
        critical_costheta(0.3, 1.0, 1)
    with pytest.raises(DomainError):
        critical_costheta(0.0, 1.0, 1)
    # monotone in t: larger hopping needs more rotation to reach the edge
    assert critical_costheta(0.9, 1.0, 1) < critical_costheta(0.5, 1.0, 1)


def test_sweep_diagram():
    spec = SweepSpec(kind="diagram",
                     mu_values=(-0.5, 0.5, 1.0, 1.5, 2.5),
                     D_values=(0.05, 0.2, 0.5))
    grid = sweep(spec)
    assert grid.columns == ("mu_over_U", "D_eff", "lobe_n", "phase", "psi")
    assert len(grid.rows) == 15
    table = {(r[0], r[1]): r for r in grid.rows}
    assert table[(-0.5, 0.05)][3] == "vacuum"
    assert table[(-0.5, 0.05)][4] == 0.0
    assert table[(1.0, 0.05)][3] == "mott:1"
    assert table[(2.5, 0.05)][3] == "mott:2"
    assert table[(1.0, 0.5)][3] == "superfluid"
    assert table[(1.0, 0.5)][4] > 0.0
    # row-major ordering: mu is the slow axis
    assert [r[0] for r in grid.rows[:3]] == [-0.5, -0.5, -0.5]


def test_sweep_sensing_loop():
    spec = SweepSpec(kind="sensing-loop", mu_values=(1.0,),
                     t_values=(0.2, 0.4), theta_values=(0.0, 0.6, 1.2))
    grid = sweep(spec)
    assert grid.columns == ("t_over_U", "theta", "D_eff", "lobe_n", "phase",
                            "psi")
    assert grid.fixed == (("mu_over_U", 1.0),)
    assert len(grid.rows) == 6
    for t, theta, D, n, label, psi in grid.rows:
        assert abs(D - t * math.cos(theta)) < 1e-15
        assert n == 1
        assert (psi > 0.0) == (label == "superfluid")
    # rotating away from theta = 0 eventually re-enters the lobe
    labels = [r[4] for r in grid.rows if r[0] == 0.4]
    assert labels[0] == "superfluid" and labels[-1] == "mott:1"


def test_sweep_costheta_curve_defaults_to_tips():
    # both hoppings sit above the lobe-1 and lobe-2 tip values, so every
    # cell is reachable
    spec = SweepSpec(kind="costheta-curve", t_values=(0.4, 0.6),
                     lobes=(1, 2))
    grid = sweep(spec)
    assert grid.columns == ("lobe_n", "mu_over_U", "t_over_U", "costheta_c",
                            "status")
    assert len(grid.rows) == 4
    tips = {n: lobe_tip(n) for n in (1, 2)}
    for n, mu, t, c, status in grid.rows:
        assert abs(mu - tips[n][0]) < 1e-12
        assert status == "ok"
        assert abs(c - tips[n][1] / t) < 1e-12


def test_sweep_costheta_curve_flags_unreachable():
    spec = SweepSpec(kind="costheta-curve", t_values=(0.1, 0.5), lobes=(1,),
                     lobe_mu=(1.0,))
    grid = sweep(spec)
    rows = {r[2]: r for r in grid.rows}
    assert rows[0.1][4] == "error:out-of-reach"
    assert math.isnan(rows[0.1][3])
    assert rows[0.5][4] == "ok"


def test_sweep_error_cells_are_sentinels():
    # an undersized Fock space is a property of the request, not of a cell:
    # it raises before the first cell, even one that needs no oracle call
    for psi_method in ("landau", "variational"):
        spec = SweepSpec(kind="diagram", psi_method=psi_method,
                         n_max=MIN_N_MAX - 1, mu_values=(1.0,),
                         D_values=(0.05, 0.5))
        with pytest.raises(ConfigError):
            sweep(spec)
    spec = SweepSpec(kind="diagram", n_max=MIN_N_MAX, mu_values=(1.0,),
                     D_values=(0.05, 0.5))
    assert [r[3] for r in sweep(spec).rows] == ["mott:1", "superfluid"]


def test_sweep_lobes_must_be_integral():
    for bad in (1.5, math.inf, math.nan):
        with pytest.raises(ConfigError):
            sweep(SweepSpec(kind="costheta-curve", t_values=(0.5,),
                            lobes=(bad,)))
    rows = sweep(SweepSpec(kind="costheta-curve", t_values=(0.5,),
                           lobes=(1.0, 2.0))).rows
    assert [r[0] for r in rows] == [1, 2]
    assert all(type(r[0]) is int for r in rows)


def test_sweep_unconverged_oracle_is_a_sentinel(monkeypatch):
    from rotobh import oracle
    monkeypatch.setattr(oracle, "minimize_order_parameter",
                        lambda problem: oracle.OracleResult(0.5, -1.0, 0.4, False))
    spec = SweepSpec(kind="diagram", psi_method="variational",
                     mu_values=(1.0,), D_values=(0.05, 0.5))
    table = {r[1]: r for r in sweep(spec).rows}
    assert table[0.05][3] == "mott:1"  # no oracle call needed
    assert table[0.5][3] == "error:no-convergence"
    assert math.isnan(table[0.5][4])


def test_sweep_validation():
    with pytest.raises(ConfigError):
        sweep(SweepSpec(kind="nope"))
    with pytest.raises(ConfigError):
        sweep(SweepSpec(kind="diagram", mu_values=(), D_values=(0.1,)))
    with pytest.raises(ConfigError):
        sweep(SweepSpec(kind="diagram", mu_values=(1.0, 0.5),
                        D_values=(0.1,)))
    with pytest.raises(ConfigError):
        sweep(SweepSpec(kind="diagram", mu_values=(0.5,),
                        D_values=(0.1, math.nan)))
    with pytest.raises(ConfigError):
        sweep(SweepSpec(kind="diagram", mu_values=(0.5,), D_values=(-0.1, 0.1)))
    with pytest.raises(ConfigError):
        sweep(SweepSpec(kind="sensing-loop", mu_values=(1.0, 2.0),
                        t_values=(0.1,), theta_values=(0.0,)))
    with pytest.raises(ConfigError):
        sweep(SweepSpec(kind="diagram", mu_values=(0.5,), D_values=(0.1,),
                        workers=0))
    with pytest.raises(ConfigError):
        sweep(SweepSpec(kind="costheta-curve", t_values=(0.1,), lobes=(0,)))
    with pytest.raises(ConfigError):
        sweep(SweepSpec(kind="costheta-curve", t_values=(0.1,), lobes=(1, 2),
                        lobe_mu=(1.0,)))


def test_sweep_workers_agree():
    spec1 = SweepSpec(kind="diagram",
                      mu_values=tuple(0.1 + 0.2 * i for i in range(10)),
                      D_values=(0.1, 0.3, 0.5), workers=1)
    spec4 = SweepSpec(kind="diagram",
                      mu_values=tuple(0.1 + 0.2 * i for i in range(10)),
                      D_values=(0.1, 0.3, 0.5), workers=4)
    assert sweep(spec1).rows == sweep(spec4).rows
