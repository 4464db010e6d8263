import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rotobh import landau
from rotobh.core import effective_hopping
from rotobh.errors import ConfigError, DegenerateGapError, DomainError, OutOfReachError
from rotobh.landau import VARIANT_FOR_CONVENTION, order_parameter_landau
from rotobh.oracle import MIN_N_MAX
from rotobh.phase_diagram import (CONVENTIONS, PSI_METHODS, SweepSpec,
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
        if not lo < mu < hi:  # lo + x can round onto the corner
            continue
        try:
            D = boundary_hopping(mu, n, convention)
        except DomainError:  # chi overflows within ~5.6e-309 of mu = 0
            assert n == 1 and mu < 1e-300, mu
            continue
        assert D <= bound, mu


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
    for bad_t in (-0.1, math.nan):
        with pytest.raises(DomainError):
            classify(1.0, bad_t, 0.0)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mu=st.floats(-2.0, 6.0, exclude_max=True), t=st.floats(0.0, 2.0),
       theta=st.floats(-10.0, 10.0), convention=st.sampled_from(CONVENTIONS))
def test_classify_is_even_and_periodic_in_theta(mu, t, theta, convention):
    assume(mu not in (0.0, 2.0, 4.0))  # lobe corners close the boundary
    try:
        label = classify(mu, t, theta, convention)
    except DomainError:  # chi overflows within ~5.6e-309 of mu = 0
        assert abs(mu) < 1e-300, mu
        return
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
    assert len(grid.rows) == 6
    for t, theta, D, n, label, psi in grid.rows:
        assert abs(D - t * math.cos(theta)) < 1e-15
        assert n == 1
        assert (psi > 0.0) == (label == "superfluid")
    # rotating away from theta = 0 eventually re-enters the lobe
    labels = [r[4] for r in grid.rows if r[0] == 0.4]
    assert labels[0] == "superfluid" and labels[-1] == "mott:1"


def _lobe_mu(n, corner, frac):
    """A mu in lobe n: its lower corner, or a point frac of the way in."""
    if n == 0:
        return -4.0 * frac
    return 2.0 * (n - 1) + (0.0 if corner else 2.0 * frac)


def _classified(mu, t, theta, convention):
    """classify's label, or the sentinel of the error it raises."""
    try:
        return classify(mu, t, theta, convention)
    except DomainError as exc:  # chi overflows within ~5.6e-309 of mu = 0
        assert abs(mu) < 1e-300, mu
        return "error:%s" % exc.code


def _agrees(cell_label, expected):
    # a Landau psi can fail only on a superfluid cell, as a sentinel
    return cell_label == expected or (cell_label.startswith("error:")
                                      and expected == "superfluid")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(0, 3), corner=st.booleans(),
       frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       t=st.floats(0.0, 2.0),
       thetas=st.lists(st.floats(-2.0 * math.pi, 2.0 * math.pi), min_size=1,
                       max_size=8, unique=True),
       convention=st.sampled_from(CONVENTIONS))
def test_sweep_labels_are_classify(n, corner, frac, t, thetas, convention):
    """Sweep cells label D by the rule classify applies to t cos(theta),
    on both sides of theta = pi/2 and at the lobe corners."""
    mu = _lobe_mu(n, corner, frac)
    loop = sweep(SweepSpec(kind="sensing-loop", convention=convention,
                           mu_values=(mu,), t_values=(t,),
                           theta_values=tuple(sorted(thetas))))
    for _, theta, D, _, label, psi in loop.rows:
        assert _agrees(label, _classified(mu, t, theta, convention))
        assert math.isnan(psi) == label.startswith("error:")
    Ds = tuple(sorted({abs(r[2]) for r in loop.rows}))
    diagram = sweep(SweepSpec(kind="diagram", convention=convention,
                              mu_values=(mu,), D_values=Ds))
    for _, D, _, label, _ in diagram.rows:
        assert _agrees(label, _classified(mu, D, 0.0, convention))


# corners, subnormal mu on both sides of the mu = 0 corner, deep vacuum
_ROW_MUS = (0.0, 2.0, 4.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-200, -0.5,
            -3.0)
# zero hopping, the paper boundary at mu = 1, and hoppings past D ~ 1e77,
# where a4 = 16 D^4 B overflows
_ROW_DS = (0.0, 5e-324, 1.0 / 3.0, 1.0 / 6.0, 1e76, 1e77, 1e100, 1e155)


def _landau_cell(mu, t, theta, convention):
    """(lobe, label, psi) of one cell from classify and
    order_parameter_landau alone, a cell error as its sentinel."""
    n = lobe_index(mu)
    try:
        label = classify(mu, t, theta, convention)
        psi = 0.0
        if label == "superfluid":
            psi = order_parameter_landau(effective_hopping(t, theta), mu, n,
                                         VARIANT_FOR_CONVENTION[convention])
    except DomainError as exc:
        return n, "error:%s" % exc.code, math.nan
    return n, label, psi


def _odd_rows_flip_bracket(real):
    """a4_bracket with B negated on every other eighth of mu, so that
    rows alternate between a valid expansion and an invalid one."""
    return lambda mu, n: -real(mu, n) if int(abs(mu) * 8.0) % 2 else real(mu, n)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mus=st.lists(st.one_of(st.sampled_from(_ROW_MUS), st.floats(-4.0, 7.0)),
                    min_size=1, max_size=5, unique=True),
       Ds=st.lists(st.one_of(st.sampled_from(_ROW_DS), st.floats(0.0, 2.0),
                             st.floats(0.0, 1e155)),
                   min_size=1, max_size=8, unique=True),
       ts=st.lists(st.one_of(st.sampled_from(_ROW_DS), st.floats(0.0, 2.0)),
                   min_size=1, max_size=3, unique=True),
       thetas=st.lists(st.floats(-2.0 * math.pi, 2.0 * math.pi), min_size=1,
                       max_size=5, unique=True),
       convention=st.sampled_from(CONVENTIONS), flip=st.booleans())
def test_landau_rows_are_their_cells(mus, Ds, ts, thetas, convention, flip):
    """Every diagram and sensing-loop cell, mu data worked out once per
    row, is by repr the cell classify and order_parameter_landau give,
    sentinels included: degenerate-gap at corners, domain where chi or a4
    overflows, and invalid-expansion on rows whose B is (made) negative."""
    with pytest.MonkeyPatch.context() as mp:
        if flip:
            mp.setattr(landau, "a4_bracket",
                       _odd_rows_flip_bracket(landau.a4_bracket))
        mus, Ds = tuple(sorted(mus)), tuple(sorted(Ds))
        diagram = sweep(SweepSpec(kind="diagram", convention=convention,
                                  mu_values=mus, D_values=Ds))
        assert len(diagram.rows) == len(mus) * len(Ds)
        for mu, D, *cell in diagram.rows:
            assert repr(tuple(cell)) == repr(_landau_cell(mu, D, 0.0,
                                                          convention))
        for mu in mus:
            loop = sweep(SweepSpec(kind="sensing-loop", convention=convention,
                                   mu_values=(mu,), t_values=tuple(sorted(ts)),
                                   theta_values=tuple(sorted(thetas))))
            for t, theta, D, *cell in loop.rows:
                assert repr(tuple(cell)) == repr(_landau_cell(mu, t, theta,
                                                              convention))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lobes=st.lists(st.tuples(st.integers(1, 4),
                                st.one_of(st.sampled_from(_ROW_MUS),
                                          st.floats(-1.0, 8.0))),
                      min_size=1, max_size=4),
       ts=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.0)), min_size=1,
                   max_size=6, unique=True),
       convention=st.sampled_from(CONVENTIONS), tips=st.booleans())
def test_costheta_rows_are_their_cells(lobes, ts, convention, tips):
    """A costheta-curve lobe takes D_c once, and each of its cells is
    D_c / t from boundary_hopping, sentinels included (t = 0, corners, mu
    outside the lobe, an unreachable boundary)."""
    spec = SweepSpec(kind="costheta-curve", convention=convention,
                     t_values=tuple(sorted(ts)),
                     lobes=tuple(n for n, _ in lobes),
                     lobe_mu=() if tips else tuple(mu for _, mu in lobes))
    for n, mu, t, c, status in sweep(spec).rows:
        try:
            if t == 0.0:
                raise DomainError("t/U must be > 0")
            ratio = boundary_hopping(mu, n, convention) / t
            if ratio > 1.0:
                raise OutOfReachError("unreachable")
            expected = ratio, "ok"
        except DomainError as exc:
            expected = math.nan, "error:%s" % exc.code
        assert repr((c, status)) == repr(expected)


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
    # and so is one that is not an integer
    for psi_method in ("landau", "variational"):
        for n_max in (MIN_N_MAX - 1, 4.5, math.inf, math.nan):
            spec = SweepSpec(kind="diagram", psi_method=psi_method,
                             n_max=n_max, mu_values=(1.0,),
                             D_values=(0.05, 0.5))
            with pytest.raises(ConfigError):
                sweep(spec)
    spec = SweepSpec(kind="diagram", n_max=MIN_N_MAX, mu_values=(1.0,),
                     D_values=(0.05, 0.5))
    assert [r[3] for r in sweep(spec).rows] == ["mott:1", "superfluid"]


def test_subnormal_corner_gap_is_a_domain_error():
    # chi = 1/mu and its lobe-1 sum overflow below about 5.6e-309: there the
    # label is an error, never "superfluid" at zero hopping
    corner = (-1e-310, -5e-324, 1e-320)
    for mu in corner:
        with pytest.raises(DomainError):
            classify(mu, 0.0, 0.0)
    for psi_method in PSI_METHODS:
        rows = sweep(SweepSpec(kind="diagram", psi_method=psi_method,
                               mu_values=corner, D_values=(0.0, 0.5))).rows
        assert all(r[3] == "error:domain" and math.isnan(r[4]) for r in rows)
    assert classify(-1e-200, 0.0, 0.0) == "vacuum"
    assert classify(1e-200, 0.0, 0.0) == "mott:1"
    assert classify(-1e-200, 0.5, 0.0) == "superfluid"
    assert classify(1e-200, 0.5, 0.0) == "superfluid"


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
    real = oracle.minimize_order_parameter
    spec = SweepSpec(kind="diagram", psi_method="variational",
                     mu_values=(1.0, 3.0), D_values=(0.05, 0.5, 0.6))
    rows = sweep(spec).rows
    calls = []

    def one_unconverged(problems):
        # the sweep's one batched call; the cell at (1.0, 0.5) fails
        calls.append(len(problems))
        return oracle.OracleResults(
            oracle.OracleResult(0.5, -1.0, 0.4, False)
            if (p.mu_over_U, p.D_eff) == (1.0, 0.5) else res
            for p, res in zip(problems, real(problems)))

    monkeypatch.setattr(oracle, "minimize_order_parameter", one_unconverged)
    table = {r[:2]: r for r in sweep(spec).rows}
    assert calls == [4]  # the superfluid cells of both rows
    assert table[1.0, 0.05][3] == "mott:1"  # no oracle call needed
    assert table[1.0, 0.5][3] == "error:no-convergence"
    assert math.isnan(table[1.0, 0.5][4])
    # the failing cell's neighbours keep their bits
    for row, failed in zip(rows, sweep(spec).rows):
        if row[:2] != (1.0, 0.5):
            assert repr(row) == repr(failed)


def test_sweep_cells_per_call_moves_no_bit(monkeypatch):
    # a variational sweep hands its superfluid cells to the oracle
    # CELLS_PER_CALL at a time, in row order, across rows and truncations;
    # any window gives the rows of one call
    from rotobh import oracle, phase_diagram
    spec = SweepSpec(kind="diagram", psi_method="variational",
                     mu_values=(-0.5, 1.0, 3.0),
                     D_values=(0.05, 0.2, 0.3, 0.4, 0.5, 0.6))
    rows = sweep(spec).rows
    calls = []
    real = oracle.minimize_order_parameter

    def counted(problems):
        calls.append(len(problems))
        return real(problems)

    monkeypatch.setattr(oracle, "minimize_order_parameter", counted)
    for per_call in (1, 4, 5, 4096):
        monkeypatch.setattr(phase_diagram, "CELLS_PER_CALL", per_call)
        del calls[:]
        assert repr(sweep(spec).rows) == repr(rows)
        cells = sum(calls)
        assert cells > 5 and all(n == per_call for n in calls[:-1])
        assert 0 < calls[-1] <= per_call


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
    # the sensing loop's one mu and costheta's lobe_mu are checked too
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError):
            sweep(SweepSpec(kind="sensing-loop", mu_values=(bad,),
                            t_values=(0.3,), theta_values=(0.1,)))
        with pytest.raises(ConfigError):
            sweep(SweepSpec(kind="costheta-curve", t_values=(0.3,),
                            lobes=(1, 2), lobe_mu=(1.0, bad)))
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
