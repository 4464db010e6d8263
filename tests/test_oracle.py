import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rotobh import oracle
from rotobh.errors import ConfigError, ConvergenceError, TruncationWarning
from rotobh.landau import order_parameter_landau
from rotobh.oracle import (COARSE_POINTS, MeanFieldProblem, OracleResult,
                           a_expectation, boundary_numeric, ground_energy,
                           minimize_order_parameter)
from rotobh.phase_diagram import boundary_hopping, lobe_index


def dense_hamiltonian(problem, psi):
    """H(psi) as a dense matrix, built from the oracle docstring's formula
    alone: the reference shares no code with the kernel."""
    mu, D = problem.mu_over_U, problem.D_eff
    k = np.arange(problem.n_max + 1.0)
    off = -2.0 * D * psi * np.sqrt(k[1:])
    return (np.diag(-mu * k + k * (k - 1.0) + 2.0 * D * psi * psi)
            + np.diag(off, 1) + np.diag(off, -1))


def test_problem_validation():
    for mu, D, n_max in ((1.0, -0.1, 10), (1.0, 0.1, 3), (math.nan, 0.1, 10),
                         (1.0, 0.1, 12.5), (1.0, 0.1, math.inf),
                         (1.0, 0.1, math.nan)):
        with pytest.raises(ConfigError):
            MeanFieldProblem(mu, D, n_max)


def test_truncation_cap_rejects_before_any_array(monkeypatch):
    # a truncation past the cap, given or defaulted from a huge mu, is a
    # ConfigError before any array is built
    monkeypatch.setattr(oracle, "_fock_arrays", None)  # any use would raise
    for n_max in (oracle.MAX_N_MAX + 1, 100000000000, 10 ** 400):
        with pytest.raises(ConfigError):
            MeanFieldProblem(1.0, 0.1, n_max)
    for mu in (2.0 * (oracle.MAX_N_MAX - 8), 1e300):  # lobe + 8 > the cap
        with pytest.raises(ConfigError):
            MeanFieldProblem(mu, 0.1)
    with pytest.raises(ConfigError):
        boundary_numeric(2.0 * (oracle.MAX_N_MAX - 8) + 1.0)
    assert MeanFieldProblem(1.0, 0.1, oracle.MAX_N_MAX).n_max == 256
    assert MeanFieldProblem(2.0 * (oracle.MAX_N_MAX - 8) - 1.0, 0.1).n_max \
        == oracle.MAX_N_MAX


def test_overflowing_hamiltonian_is_a_convergence_error(monkeypatch):
    # past D ~ 5e153, or |mu| n_max past the double range, H(psi) up to the
    # grid's end overflows: an error before any numpy arithmetic can warn
    for mu, D in ((0.5, 1e300), (0.0, 1e308), (-1e308, 1e308), (-1.5, 1e154),
                  (20.0, 1e154)):
        with pytest.raises(ConvergenceError, match="overflows"):
            minimize_order_parameter(MeanFieldProblem(mu, D))
    with pytest.raises(ConvergenceError, match="overflows"):
        boundary_numeric(-1e200)
    # an infinite norm bound would make the slack infinite and the
    # certificate pass whatever the grid holds
    monkeypatch.setattr(oracle._Kernel, "norms",
                        lambda self, rows, tops: [math.inf] * len(rows))
    with pytest.raises(ConvergenceError, match="overflows"):
        minimize_order_parameter(MeanFieldProblem(1.0, 0.25))


def test_default_truncation():
    assert MeanFieldProblem(1.0, 0.2).n_max == 9  # lobe 1 plus eight levels
    assert MeanFieldProblem(3.0, 0.2).n_max == 10
    assert MeanFieldProblem(-4.0, 0.2).n_max == 8
    assert MeanFieldProblem(1.0, 0.2, 15).n_max == 15
    n_max = MeanFieldProblem(1.0, 0.2, 12.0).n_max  # integral: accepted
    assert n_max == 12 and isinstance(n_max, int)


def test_hamiltonian_structure():
    p = MeanFieldProblem(1.3, 0.2, 5)
    diag, off = oracle._Kernel([p]).tridiag(0.4)
    assert diag.shape == (6,) and off.shape == (5,)
    k = np.arange(6.0)
    assert np.allclose(diag, -1.3 * k + k * (k - 1.0) + 2.0 * 0.2 * 0.16)
    assert abs(off[0] - (-2.0 * 0.2 * 0.4)) < 1e-15
    assert abs(off[2] - (-2.0 * 0.2 * 0.4 * math.sqrt(3.0))) < 1e-14
    H = dense_hamiltonian(p, 0.4)
    assert np.allclose(np.diag(H), diag) and np.allclose(np.diag(H, 1), off)
    assert np.array_equal(H, H.T) and H[0, 2] == 0.0


def test_ground_energy_matches_dense_solver():
    p = MeanFieldProblem(1.0, 0.25, 12)
    for psi in (0.0, 0.3, 0.7):
        e0, vec = ground_energy(p, psi)
        H = dense_hamiltonian(p, psi)
        w, v = np.linalg.eigh(H)
        assert abs(e0 - w[0]) < 1e-12
        assert abs(abs(np.dot(vec, v[:, 0])) - 1.0) < 1e-10
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_a_expectation_zero_hopping():
    p = MeanFieldProblem(1.0, 0.0, 8)
    # D = 0 at psi = 0: number eigenstate |1>, so <a> = 0
    assert a_expectation(p, 0.0) == 0.0
    e0, vec = ground_energy(p, 0.0)
    assert abs(e0 - (-1.0)) < 1e-14
    assert abs(vec[1] - 1.0) < 1e-14


def test_minimizer_zero_hopping_shortcut():
    res = minimize_order_parameter(MeanFieldProblem(1.0, 0.0, 8))
    assert isinstance(res, OracleResult)
    assert res.psi_star == 0.0
    assert res.a_expect == 0.0
    assert res.converged
    assert abs(res.e0 - (-1.0)) < 1e-12


def test_minimizer_mott_side_is_exactly_zero():
    # at tiny D every scan value lies within rounding of e0(0)
    cases = ([(1.0, D) for D in (0.05, 0.1, 0.1666)]
             + [(mu, D) for mu in (-1.0, 1.0, 3.0, 5.0)
                for D in (1e-300, 1e-15, 1e-12)])
    for mu, D in cases:
        res = minimize_order_parameter(MeanFieldProblem(mu, D))
        assert res.psi_star == 0.0, (mu, D)
        assert res.converged


def test_minimizer_superfluid_values():
    # frozen from this solver at n_max defaults; stable to ~1e-12 because
    # psi* is a machine-accurate root of the stationarity condition
    cases = {(1.0, 0.25): 0.730943979232851,
             (0.6, 0.20): 0.493227976271722,
             (3.0, 0.15): 0.920673703004705,
             (-0.5, 0.40): 0.526768670238001}
    for (mu, D), expected in cases.items():
        res = minimize_order_parameter(MeanFieldProblem(mu, D))
        assert res.converged
        assert abs(res.psi_star - expected) < 1e-11, (mu, D)
        assert abs(res.psi_star - res.a_expect) <= 1e-9


def test_minimizer_is_a_local_minimum():
    p = MeanFieldProblem(1.0, 0.25)
    res = minimize_order_parameter(p)
    h = 1e-4
    e_plus = ground_energy(p, res.psi_star + h)[0]
    e_minus = ground_energy(p, res.psi_star - h)[0]
    assert res.e0 < e_plus and res.e0 < e_minus


def test_onset_continuity_near_boundary():
    # D_cv(1.0) = 1/6; just above it psi grows from ~0 continuously
    psi_lo = minimize_order_parameter(MeanFieldProblem(1.0, 0.16667)).psi_star
    psi_hi = minimize_order_parameter(MeanFieldProblem(1.0, 0.168)).psi_star
    assert 0.0 < psi_lo < 0.02
    assert psi_lo < psi_hi < 0.2


def test_minimizer_decides_at_the_boundary():
    # mu = 3.0 with 14 Fock levels, 1e-8 either side of the variational
    # boundary: exactly Mott below, the Landau psi above
    mu, n = 3.0, lobe_index(3.0)
    D_cv = boundary_hopping(mu, n, "variational")
    below = minimize_order_parameter(
        MeanFieldProblem(mu, D_cv * (1.0 - 1e-8), 14))
    assert below.psi_star == 0.0 and below.converged
    D = D_cv * (1.0 + 1e-8)
    above = minimize_order_parameter(MeanFieldProblem(mu, D, 14))
    landau = order_parameter_landau(D, mu, n, "variational")
    assert above.converged
    assert abs(above.psi_star / landau - 1.0) < 1e-3


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lobe=st.integers(0, 3), frac=st.floats(0.05, 0.95),
       n_max=st.sampled_from([None, 12, 16]), log_rel=st.floats(-8.0, -4.0))
def test_minimizer_straddles_the_boundary(lobe, frac, n_max, log_rel):
    mu = 2.0 * (lobe - 1 + frac)  # inside lobe n: 2(n - 1) < mu < 2n
    n_max = lobe + 8 if n_max is None else n_max
    D_b, rel = boundary_numeric(mu, n_max), 10.0 ** log_rel

    def psi(D):
        return minimize_order_parameter(
            MeanFieldProblem(mu, D, n_max)).psi_star

    assert psi(D_b * (1.0 - rel)) == 0.0
    above, nearer = psi(D_b * (1.0 + rel)), psi(D_b * (1.0 + rel / 4.0))
    assert above > 0.0 and nearer > 0.0
    assert abs(above / nearer - 2.0) <= 1e-2  # psi ~ sqrt(D - D_b)


def test_minimizer_unbracketed_root_is_an_error(monkeypatch):
    # <a> and its slope doubled past psi = 0.5 in the root's solves:
    # F = psi - <a> < 0 at grid[-1], as it is just above 0 where r0 > 1,
    # so the bracket (0, grid[-1]] holds no sign change
    real = oracle._Kernel.stationarity

    def falling(self, rows, psis):
        # F = psi - 2 <a> = 2 F - psi, F' = 1 - 2 <a>' = 2 F' - 1
        return [(2.0 * f - psi, 2.0 * df - 1.0) if psi > 0.5 else (f, df)
                for psi, (f, df) in zip(psis, real(self, rows, psis))]

    monkeypatch.setattr(oracle._Kernel, "stationarity", falling)
    with pytest.raises(ConvergenceError, match="no stationary point"):
        minimize_order_parameter(MeanFieldProblem(1.0, 0.25))


_CELL = st.one_of(
    st.tuples(st.integers(0, 4), st.floats(0.01, 0.99),
              st.one_of(st.floats(0.0, 10.0), st.floats(0.99, 1.01))),
    # deep vacuum: B = mu + 1 + 2 D <= 0
    st.tuples(st.just(None), st.floats(-4.0, -1.0), st.floats(0.0, 1.0)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lobe=st.integers(0, 3), frac=st.floats(0.01, 0.99),
       scale=st.floats(0.0, 10.0))
def test_default_psi_max_brackets_the_minimum(lobe, frac, scale):
    # psi*^2 <= <n>, and <n> is 0 or at most B = mu + 1 + 2 D, so the
    # default search bound, the scan's reach sqrt(B) plus two steps, holds
    # the minimum; a tight truncation may warn
    mu = 2.0 * (lobe - 1 + frac)
    D = scale * boundary_hopping(mu, lobe, "variational")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        res = minimize_order_parameter(MeanFieldProblem(mu, D))
    assert res.converged
    assert res.psi_star ** 2 <= max(mu + 1.0 + 2.0 * D, 0.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@example(mu=-1.5, log_d=153.0)
@example(mu=20.0, log_d=153.0)
@example(mu=1.0, log_d=90.0)
@given(mu=st.one_of(st.sampled_from([-1.5, -0.5, 1.0, 3.0, 7.0, 20.0]),
                    st.floats(-1.9, 30.0)),
       log_d=st.one_of(st.integers(0, 153).map(float), st.floats(0.0, 153.0)))
def test_minimizer_converges_at_huge_hopping(mu, log_d):
    # <a>^2 <= <n> <= n_max in the truncated space, so the grid stops at
    # sqrt(n_max) where B > n_max, and F(top) >= 0.05 top there at any D;
    # a grid out to sqrt(B) ~ sqrt(2 D) failed from about D = 1e90
    p = MeanFieldProblem(mu, 10.0 ** log_d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        res = minimize_order_parameter(p)
    assert res.converged
    R = min(mu + 1.0 + 2.0 * p.D_eff, p.n_max)
    assert res.psi_star ** 2 <= R * (1.0 + 1e-12)
    top = float(_grid(p)[-1])
    _, _, a_top = oracle._Kernel([p]).eigenpair(top)
    if R == p.n_max:
        assert 1.0 - a_top / top >= 2.0 / (COARSE_POINTS - 1) - 1e-12


def _in_lobe(lobe, frac):
    """mu inside lobe n, 2(n - 1) < mu < 2n, and its closed-form D_cv."""
    mu = 2.0 * (lobe - 1 + frac)
    return mu, boundary_hopping(mu, lobe, "variational")


_N_MAX = st.one_of(st.none(), st.integers(4, 24))
_LOBE = st.tuples(st.integers(0, 4), st.floats(0.01, 0.99))
_BATCH_CELL = st.one_of(
    # superfluid and Mott cells, up to ten times D_cv
    st.builds(lambda at, scale, n: (at[0], scale * at[1], n),
              _LOBE.map(lambda lf: _in_lobe(*lf)), st.floats(0.0, 10.0),
              _N_MAX),
    # next to the boundary: D / D_cv - 1 from 1e-9 to 1e-2
    st.builds(lambda at, k, n: (at[0], at[1] * (1.0 + 10.0 ** k), n),
              _LOBE.map(lambda lf: _in_lobe(*lf)), st.floats(-9.0, -2.0),
              _N_MAX),
    # B = mu + 1 + 2 D <= 0
    st.builds(lambda mu, y, n: (mu, 0.5 * y * (-1.0 - mu), n),
              st.floats(-4.0, -1.0), st.floats(0.0, 1.0), _N_MAX),
    # D = 0, and a huge D, which overflows H from about 5e153
    st.builds(lambda at, n: (at[0], 0.0, n),
              _LOBE.map(lambda lf: _in_lobe(*lf)), _N_MAX),
    st.builds(lambda mu, k, n: (mu, 10.0 ** k, n), st.floats(-1.9, 8.0),
              st.floats(100.0, 160.0), _N_MAX))


def _bits(outcome):
    """An outcome's bits: psi*, e0, <a> and converged, or the error."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    return (outcome.psi_star.hex(), outcome.e0.hex(), outcome.a_expect.hex(),
            outcome.converged)


def _minimized(call):
    """(outcome of call, its TruncationWarning messages in order)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = call()
        except ConvergenceError as exc:
            out = exc
    return out, [str(w.message) for w in caught
                 if issubclass(w.category, TruncationWarning)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cells=st.lists(_BATCH_CELL, min_size=1, max_size=8), data=st.data())
def test_batch_lanes_match_their_one_cell_calls(cells, data):
    # a mixed batch across lobes 0 to 4 and truncations 4 to 24: each lane
    # has the bits, error and TruncationWarnings of its one-cell call, in
    # cell order, whatever K and the other lanes are, and a permuted batch
    # gives each cell the same outcome
    problems = [MeanFieldProblem(*cell) for cell in cells]
    alone = [_minimized(lambda p=p: minimize_order_parameter(p))
             for p in problems]
    batch, caught = _minimized(lambda: minimize_order_parameter(problems))
    assert isinstance(batch, oracle.OracleResults)
    assert [_bits(res) for res in batch] == [_bits(res) for res, _ in alone]
    assert caught == [message for _, messages in alone for message in messages]
    assert batch.converged == all(
        isinstance(res, OracleResult) and res.converged for res, _ in alone)
    order = data.draw(st.permutations(range(len(problems))))
    permuted, _ = _minimized(
        lambda: minimize_order_parameter([problems[i] for i in order]))
    assert [_bits(res) for res in permuted] \
        == [_bits(alone[i][0]) for i in order]


def test_lanes_past_one_kernel_match_their_one_cell_calls(monkeypatch):
    # the cells of one truncation are minimized LANES at a time: a batch
    # of more than that many, superfluid, Mott and failing alike, gives
    # each cell its one-cell bits, error and warnings, in cell order, and
    # a smaller LANES moves no bit
    mus = [0.2 + 0.05 * i for i in range(12)]
    problems = [MeanFieldProblem(mu, scale * boundary_hopping(
        mu, 1, "variational"), 6) for mu in mus
        for scale in (0.5, 1.2, 2.0, 3.0, 6.0, 1.0 + 1e-6)]
    problems.insert(7, MeanFieldProblem(1.0, 1e160, 6))  # overflows
    assert len(problems) > oracle.LANES
    alone = [_minimized(lambda p=p: minimize_order_parameter(p))
             for p in problems]
    expected = ([_bits(res) for res, _ in alone],
                [message for _, messages in alone for message in messages])
    assert any(messages for _, messages in alone)
    assert any(isinstance(res, ConvergenceError) for res, _ in alone)
    made = []
    real = oracle._Kernel

    def counted(problems):
        made.append(len(problems))
        return real(problems)

    monkeypatch.setattr(oracle, "_Kernel", counted)
    for lanes in (oracle.LANES, 5):
        monkeypatch.setattr(oracle, "LANES", lanes)
        del made[:]
        batch, caught = _minimized(lambda: minimize_order_parameter(problems))
        assert ([_bits(res) for res in batch], caught) == expected
        assert max(made) == lanes and sum(made) == len(problems) - 1


def _dense_scan(problem, grid):
    """e0 at every psi of grid from dense eigvalsh: the test's reference."""
    return np.array([np.linalg.eigvalsh(dense_hamiltonian(problem, x))[0]
                     for x in grid])


def _grid(problem):
    R = min(problem.mu_over_U + 1.0 + 2.0 * problem.D_eff, problem.n_max)
    return math.sqrt(R) / (COARSE_POINTS - 3) * np.arange(COARSE_POINTS)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cell=_CELL, n_max=st.one_of(st.none(), st.integers(4, 16)))
def test_scan_cut_matches_the_full_scan(cell, n_max):
    # the certificate's grid stops two steps past sqrt(B) at any truncation;
    # a dense scan twice as far out finds nothing lower than the minimizer's
    # e0
    lobe, x, y = cell
    if lobe is None:
        mu, D = x, 0.5 * y * (-1.0 - x)
    else:
        mu = 2.0 * (lobe - 1 + x)
        D = y * boundary_hopping(mu, lobe, "variational")
    p = MeanFieldProblem(mu, D, n_max)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        res = minimize_order_parameter(p)
    B = max(mu + 1.0 + 2.0 * D, 0.0)
    assert res.converged
    assert res.psi_star ** 2 <= B
    far = np.linspace(0.0, 2.0 * math.sqrt(B) + 1.0, 401)
    lowest = _dense_scan(p, far).min()
    assert res.e0 <= lowest + 1e-12 * max(1.0, abs(lowest))
    if B == 0.0:
        return
    # the root's bracket end: wherever e0(top) <= e0(0), <a> <= sqrt(B),
    # so g(top) = 1 - <a>/top >= 1 - (COARSE_POINTS - 3)/(COARSE_POINTS - 1)
    top = float(_grid(p)[-1])
    e_top, _, a_top = oracle._Kernel([p]).eigenpair(top)
    if e_top <= ground_energy(p, 0.0)[0]:
        assert 1.0 - a_top / top >= 2.0 / (COARSE_POINTS - 1) - 1e-12


def _above(kernel, grid, level, norm):
    """The certificate's verdict on lane 0 at the psi of grid: True if the
    ground energy at each exceeds level."""
    d, e = kernel.pivot_blocks([0], np.array([grid], dtype=float), [level],
                               [norm])
    return oracle._positive_blocks(d, e, d.size)[0]


def _certificate(problem, psi, level):
    """The certificate's verdict on the grid's norm at one psi and level."""
    kernel = oracle._Kernel([problem])
    norm = kernel.norms([0], [float(_grid(problem)[-1])])[0]
    return _above(kernel, [psi], level, norm), norm


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lobe=st.integers(0, 4), frac=st.floats(0.01, 0.99),
       scale=st.floats(0.0, 10.0), n_max=st.integers(4, 24),
       j=st.integers(0, COARSE_POINTS - 1), k=st.integers(-4, 4))
def test_certificate_matches_dense_eigvalsh(lobe, frac, scale, n_max, j, k):
    # the pivot signs of H(psi_j) - level agree with dense eigvalsh on
    # whether the lowest eigenvalue lies above the level, everywhere but
    # within the minimizer's slack of it
    mu = 2.0 * (lobe - 1 + frac)
    D = scale * boundary_hopping(mu, lobe, "variational")
    assume(mu + 1.0 + 2.0 * D > 0.0)  # B <= 0 has no grid
    p = MeanFieldProblem(mu, D, n_max)
    psi = float(_grid(p)[j])
    lowest = _dense_scan(p, [psi])[0]
    norm = _certificate(p, psi, 0.0)[1]
    slack = 2.0 * (n_max + 10) * np.finfo(float).eps * norm
    level = lowest + k * slack
    above = _certificate(p, psi, level)[0]
    if abs(level - lowest) > slack:
        assert above == (lowest > level), (lowest, level, slack)
    if k < 0:  # a tie within slack passes: the minimizer's own e0 does
        assert above


def _recording_dpttrf(monkeypatch):
    """Wrap the LAPACK dpttrf that new kernels bind; returns its infos."""
    infos = []
    real = oracle._lapack()[1]

    def recording(d, e, *args, **kwargs):
        out = real(d, e, *args, **kwargs)
        infos.append(out[2])
        return out
    monkeypatch.setattr(oracle, "dpttrf", recording)
    return infos


def _dpttrf_fails(d, e, *args, **kwargs):
    return d, e, -2


def test_certificate_fails_closed(monkeypatch):
    p = MeanFieldProblem(1.0, 0.25, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a zero pivot divides without warning
        assert not _certificate(p, 0.3, math.nan)[0]  # NaN pivots
        assert not _certificate(p, 0.0, 0.0)[0]  # p_0 = 0, then 0 / 0
        # D = 0.25, psi = 0.5: d_0 = 2 D psi^2 = 0.125 exactly, then e^2 / 0
        assert not _certificate(p, 0.5, 0.125)[0]
        flat = MeanFieldProblem(1.0, 0.0, 8)  # D = 0: H = diag(base)
        assert not _certificate(flat, 0.7, -1.0)[0]  # ground level k = 1
        assert _certificate(flat, 0.7, -1.0 - 1e-12)[0]
        # one dpttrf factors the whole grid's stack of blocks: a level
        # between the superfluid minimum near psi = 0.73 and the energies at
        # psi = 0 and 1.5 passes the outer blocks and fails the middle one
        infos = _recording_dpttrf(monkeypatch)
        kernel = oracle._Kernel([p])
        norm = kernel.norms([0], [float(_grid(p)[-1])])[0]
        low = kernel.eigenpair(0.73)[0]
        high = min(kernel.eigenpair(0.0)[0], kernel.eigenpair(1.5)[0])
        assert high - low > 1e-3
        level = 0.5 * (low + high)
        assert _above(kernel, [0.0, 1.5], level, norm)
        assert not _above(kernel, [0.0, 0.73, 1.5], level, norm)
        assert infos[-1] > 0  # dpttrf stopped inside the middle block
        # a NaN pivot after positive ones: dpttrf's D(i) <= 0 test lets it
        # through (info = 0), and the pivots themselves fail it
        assert not _above(kernel, [0.0, 1.5, math.nan], level, norm)
        assert infos[-1] == 0
        assert not _above(kernel, [0.0, math.nan, 1.5], level, norm)
        assert infos[-1] == 0
        # one dpttrf factors the blocks of every lane: a lane that fails,
        # by a pivot <= 0 (dpttrf stops, info > 0) or a NaN one (info = 0,
        # and the NaN runs on into the lanes after it), fails alone, and
        # the lane past it is factored again and still certified
        lanes = oracle._Kernel([p, p, p])
        for middle, stops in (([0.0, 0.73, 1.5], True),
                              ([0.0, math.nan, 1.5], False)):
            del infos[:]
            grids = np.array([[0.0, 1.5, 1.5], middle, [1.5, 0.0, 1.5]])
            d, e = lanes.pivot_blocks([0, 1, 2], grids, [level] * 3,
                                      [norm] * 3)
            size = d.size // 3
            assert oracle._positive_blocks(d, e, size) == [True, False, True]
            assert len(infos) == 2 and infos[1] == 0
            assert (infos[0] > 0) == stops
    # info < 0 is a LAPACK failure, never a verdict: the one-cell call
    # raises it, and every lane of a batch with a grid has it as its outcome
    monkeypatch.setattr(oracle, "dpttrf", _dpttrf_fails)
    for call in (lambda: _certificate(p, 0.3, -10.0),
                 lambda: minimize_order_parameter(p),
                 lambda: minimize_order_parameter(MeanFieldProblem(1.0, 0.1))):
        with pytest.raises(ConvergenceError, match="dpttrf"):
            call()
    batch = minimize_order_parameter([p, MeanFieldProblem(-3.0, 0.1), flat])
    assert [type(res) for res in batch] == [ConvergenceError, OracleResult,
                                            ConvergenceError]
    assert "dpttrf" in str(batch[0]) and not batch.converged


@settings(max_examples=300, deadline=None, derandomize=True)
@example(mu=0.0, D=0.3, n_max=4)  # lobe corners: two tied lowest levels
@example(mu=2.0, D=0.0, n_max=9)
@example(mu=6.0, D=1.0, n_max=256)
@example(mu=-1.0, D=0.0, n_max=8)  # base_0 = 0.0; -0.0 for mu > 0
@example(mu=7.9, D=0.1, n_max=4)  # ground level k = n_max: full top weight
@given(mu=st.one_of(st.integers(0, 3).map(lambda n: 2.0 * n),
                    st.floats(-4.0, 8.0)),
       D=st.floats(0.0, 10.0), n_max=st.integers(4, 256))
def test_fock_ground_is_the_psi_zero_eigenpair(mu, D, n_max):
    # H(0) = diag(base): the exact Fock ground state, the first lowest level
    # of a tie, has the bits of dstev's eigenpair(0.0) over lobes 0 to 4
    kernel = oracle._Kernel([MeanFieldProblem(mu, D, n_max)])
    e0, top = kernel.fock_ground(0)
    e_ref, v_ref, a_ref = kernel.eigenpair(0.0)
    k = np.arange(n_max + 1.0)
    vec = np.zeros(n_max + 1)
    vec[int(np.argmin(-mu * k + k * (k - 1.0)))] = 1.0  # the lowest level
    assert e0.hex() == e_ref.hex()
    assert vec.tobytes() == v_ref.tobytes()
    assert a_ref.hex() == (0.0).hex()
    assert (top ** 2).hex() == (float(v_ref[-1]) ** 2).hex()


def test_diagonal_hamiltonians_take_no_eigensolve(monkeypatch):
    # a psi = 0 candidate takes the Fock ground state, and the zero-field
    # response r0 = 2 D chi_n comes from the levels: a Mott cell and the
    # boundary's guard below it take no solve, and dstev runs only where H
    # is not diagonal
    real = oracle._lapack()[0]
    solved = []

    def counting(d, e, *args, **kwargs):
        solved.append(bool(e.any()))
        return real(d, e, *args, **kwargs)

    monkeypatch.setattr(oracle, "dstev", counting)
    minimize_order_parameter(MeanFieldProblem(-2.0, 0.1))  # B <= 0
    assert solved == []
    res = minimize_order_parameter(MeanFieldProblem(1.0, 0.0, 8))  # D = 0
    assert solved == []
    assert res == OracleResult(0.0, -1.0, 0.0, True)
    minimize_order_parameter(MeanFieldProblem(1.0, 0.1))  # Mott: r0 = 0.6
    assert solved == []
    D_star, (below, above) = oracle.boundary_problems(1.0)
    minimize_order_parameter(below)
    assert solved == []
    minimize_order_parameter(MeanFieldProblem(1.0, 0.25))
    boundary_numeric(1.0)
    assert solved and all(solved)


def test_minimizer_scan_against_stable_mott_is_an_error(monkeypatch):
    # a candidate whose e0 sits above a grid point by more than the slack
    # fails the certificate: e0 has a second minimum the candidate missed.
    # Every root solve has its e0 lifted, and so has the psi = 0
    # candidate's diagonal ground state.
    p = MeanFieldProblem(1.0, 0.1)  # Mott: r0 = 0.6 < 1, candidate psi = 0

    def lift(m, depth):
        real = oracle._Kernel.fock_ground

        def lifted(self, row):
            e0, top = real(self, row)
            return e0 + depth, top
        m.setattr(oracle._Kernel, "fock_ground", lifted)
        real_steps = oracle._Kernel.stationarity

        def lifted_steps(self, rows, psis):
            out = real_steps(self, rows, psis)
            for row, psi in zip(rows, psis):
                e0, *rest = self.solved[row][psi]
                self.solved[row][psi] = (e0 + depth, *rest)
            return out
        m.setattr(oracle._Kernel, "stationarity", lifted_steps)

    with monkeypatch.context() as m:
        lift(m, 1e-15)  # rounding
        assert minimize_order_parameter(p).psi_star == 0.0
    with monkeypatch.context() as m:
        lift(m, 1e-6)
        with pytest.raises(ConvergenceError, match="second minimum"):
            minimize_order_parameter(p)
    with monkeypatch.context() as m:  # a superfluid candidate, and NaN
        lift(m, math.nan)
        with pytest.raises(ConvergenceError, match="second minimum"):
            minimize_order_parameter(MeanFieldProblem(1.0, 0.25))


def test_boundary_numeric_lobe_one():
    bn = boundary_numeric(1.0, 10)
    assert abs(bn - 1.0 / 6.0) < 2e-6
    bn_vac = boundary_numeric(-0.5, 10)
    assert abs(bn_vac - 0.25) < 2e-6


# acceptance 2's mu values: the middle of lobes 1 and 2
_ACCEPTANCE_2_MUS = (list(np.linspace(0.15, 1.85, 10))
                     + list(np.linspace(2.15, 3.85, 10)))


@pytest.mark.parametrize("n_max", [None, 12])
def test_boundary_numeric_is_exact(n_max):
    for mu in _ACCEPTANCE_2_MUS:
        n = lobe_index(mu)
        bn = boundary_numeric(mu, n_max)
        assert abs(bn / boundary_hopping(mu, n, "paper") - 0.5) <= 1e-10, mu


@pytest.mark.parametrize("mu, n_max", [
    (3.99999999999, None), (1.99999999999, None), (2.00000000001, None),
    (5.99999999999, None),  # next to a lobe corner
    (7.9, 4), (9.99, 4), (9.99, 5),  # the truncation cannot hold the lobe
])
def test_boundary_numeric_unbracketed_is_a_convergence_error(monkeypatch,
                                                            mu, n_max):
    # where the lowest truncated level is n_max, chi_n lacks its (n + 1)
    # term: no boundary, and no minimization runs.  1e-11 from a lobe
    # corner D* = 1/(2 chi_n) is set, and the guard above it does not meet
    # stationarity (test_oracle_check_unbracketed_boundary_exits_4)
    levels = MeanFieldProblem(mu, 0.0, n_max).n_max  # given or defaulted
    if n_max is None:
        with pytest.raises(ConvergenceError, match="did not converge"):
            boundary_numeric(mu, n_max)
        return

    def no_guards(problems):
        raise AssertionError("guards minimized without a boundary")

    monkeypatch.setattr(oracle, "minimize_order_parameter", no_guards)
    with pytest.raises(ConvergenceError) as caught:
        boundary_numeric(mu, n_max)
    assert str(caught.value) == (
        "no boundary at mu = %r, n_max = %d: the lowest Fock level is n_max, "
        "so the truncation cannot hold the lobe" % (mu, levels))


# mu across lobes 0 to 4: inside a lobe, and 10^-j from a lobe corner 2k
# for j = 3 to 12, on either side
_MU_IN_LOBES = st.one_of(
    st.builds(lambda lobe, frac: 2.0 * (lobe - 1 + frac), st.integers(0, 4),
              st.floats(0.01, 0.99)),
    st.builds(lambda k, side, j: 2.0 * k + side * 10.0 ** -j,
              st.integers(0, 4), st.sampled_from([-1.0, 1.0]),
              st.integers(3, 12)).filter(lambda mu: mu < 8.0))


def _mp_boundary(mp, mu, n_max):
    """1/(2 chi_n) of the truncated levels E_k = k(k - 1) - mu k, k <= n_max,
    to 40 digits: the test's reference."""
    with mp.workdps(40):
        levels = [k * (k - 1) - mp.mpf(mu) * k for k in range(n_max + 1)]
        n = levels.index(min(levels))
        chi = (n + 1) / (levels[n + 1] - levels[n])
        if n > 0:
            chi += n / (levels[n - 1] - levels[n])
        return float(1 / (2 * chi))


@settings(max_examples=150, deadline=None, derandomize=True)
@example(mu=3.999999999, n_max=None)
@example(mu=-0.1, n_max=12)
@given(mu=_MU_IN_LOBES, n_max=st.sampled_from([None, 12]))
def test_boundary_is_half_over_chi_of_the_levels(mu, n_max):
    # D* against a 40-digit 1/(2 chi_n); boundary_numeric returns it unless
    # a guard fails, which happens only next to a lobe corner
    mp = pytest.importorskip("mpmath")
    D_star, _ = oracle.boundary_problems(mu, n_max)
    levels = MeanFieldProblem(mu, 0.0, n_max).n_max
    assert abs(D_star / _mp_boundary(mp, mu, levels) - 1.0) <= 1e-13
    try:
        assert boundary_numeric(mu, n_max) == D_star
    except ConvergenceError as exc:
        assert abs(mu - 2.0 * round(mu / 2.0)) < 1e-9, (mu, str(exc))
        assert "no boundary" not in str(exc)


@settings(max_examples=100, deadline=None, derandomize=True)
@example(mu=3.999999999, n_max=None)
@example(mu=-0.1, n_max=12)
@given(mu=_MU_IN_LOBES, n_max=st.sampled_from([None, 12]))
def test_minimizer_decides_within_last_digits_of_the_boundary(mu, n_max):
    # at D* (1 - 10^-k) psi* is exactly 0, with no solve; at D* (1 + 10^-k)
    # it is positive and not the parent's response point 1e-6, k = 3 to 13.
    # Next to a lobe corner the solves may not resolve <a> there (deflation
    # or rounding makes F > 0 at every probe): that cell is an error, never
    # psi* = 0.  How close psi* comes to the true root so near the boundary
    # is the module docstring's near-boundary accuracy, not checked here
    D_star, _ = oracle.boundary_problems(mu, n_max)
    rels = [10.0 ** -k for k in range(3, 14)]
    above = minimize_order_parameter(
        [MeanFieldProblem(mu, D_star * (1.0 + rel), n_max) for rel in rels])
    corner = abs(mu - 2.0 * round(mu / 2.0)) < 1e-3
    for rel, res in zip(rels, above):
        if corner and isinstance(res, ConvergenceError):
            assert "the solves do not resolve <a>" in str(res), (rel, res)
            continue
        assert isinstance(res, OracleResult), (rel, res)
        assert res.psi_star > 0.0 and res.psi_star != 1e-6, (rel, res)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(oracle, "dstev", None)  # a solve would raise
        below = minimize_order_parameter(
            [MeanFieldProblem(mu, D_star * (1.0 - rel), n_max) for rel in rels])
    assert [res.psi_star for res in below] == [0.0] * len(rels)


def test_vacuum_boundary_is_superfluid_just_above():
    # mu = -0.1 at 12 Fock levels: D* = 1/(2 chi_0) = 0.05, and psi* > 0 at
    # 1e-12 above it, where the parent's response at psi = 1e-6 gave 0.0
    res = minimize_order_parameter(MeanFieldProblem(-0.1, 0.05 * (1.0 + 1e-12),
                                                    12))
    assert res.psi_star > 0.0
    assert boundary_numeric(-0.1, 12) == 0.05


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lobe=st.integers(0, 4), frac=st.floats(0.01, 0.99),
       scale=st.floats(0.01, 10.0), n_max=st.sampled_from([None, 12]))
def test_response_solve_matches_two_d_chi(lobe, frac, scale, n_max):
    # the parent's response <a>/psi from one dstev, at psi = 1e-4 where no
    # deflation zeroes the coupling, is r0 = 2 D chi_n to O(psi^2): the
    # error falls fourfold when psi halves
    mu = 2.0 * (lobe - 1 + frac)
    D = scale * oracle.boundary_problems(mu, n_max)[0]
    kernel = oracle._Kernel([MeanFieldProblem(mu, D, n_max)])
    r0 = 2.0 * D * kernel.chi(0)[1]
    err = [kernel.eigenpair(psi)[2] / psi / r0 - 1.0 for psi in (1e-4, 5e-5)]
    assert abs(err[0]) <= 1e3 * 1e-4 ** 2, err
    assert abs(err[1] - 0.25 * err[0]) <= 1e-3 * abs(err[0]) + 1e-11, err


def test_boundary_at_a_lobe_corner_is_an_error(monkeypatch):
    # two lowest levels tie: chi_n = +inf, with no ZeroDivisionError or
    # warning, and no boundary, before any minimization
    monkeypatch.setattr(oracle, "minimize_order_parameter", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mu, n_max in ((0.0, None), (-0.0, 12), (2.0, None), (6.0, 12)):
            assert oracle._Kernel([MeanFieldProblem(mu, 1.0, n_max)]).chi(0)[1] \
                == math.inf
            with pytest.raises(ConvergenceError, match="levels tie"):
                boundary_numeric(mu, n_max)


def test_boundary_numeric_runs_two_minimizations(monkeypatch):
    # both guards, in one lockstep call
    calls = []
    real = oracle.minimize_order_parameter

    def counting(problems):
        calls.append([problem.D_eff for problem in problems])
        return real(problems)

    monkeypatch.setattr(oracle, "minimize_order_parameter", counting)
    bn = boundary_numeric(1.0, 12)
    assert len(calls) == 1 and len(calls[0]) == 2
    assert calls[0][0] < bn < calls[0][1]


def _constant_psi(psi):
    def minimize(problems):
        return oracle.OracleResults([OracleResult(
            psi_star=psi, e0=0.0, a_expect=psi,
            converged=True)] * len(problems))
    return minimize


def test_boundary_numeric_first_order_guard(monkeypatch):
    # a superfluid below the linear-stability root (a first-order jump) ...
    with monkeypatch.context() as m:
        m.setattr(oracle, "minimize_order_parameter", _constant_psi(0.3))
        with pytest.raises(ConvergenceError, match="not second order"):
            boundary_numeric(1.0, 12)
    # ... or a Mott state above it both contradict a second-order boundary
    with monkeypatch.context() as m:
        m.setattr(oracle, "minimize_order_parameter", _constant_psi(0.0))
        with pytest.raises(ConvergenceError, match="not second order"):
            boundary_numeric(1.0, 12)


def test_truncation_warning():
    with pytest.warns(TruncationWarning):
        minimize_order_parameter(MeanFieldProblem(3.0, 0.5, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        minimize_order_parameter(MeanFieldProblem(1.0, 0.25))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lobe=st.integers(0, 3), frac=st.floats(0.1, 0.9),
       ratio=st.floats(2.0, 4.0))
def test_truncation_warning_fires_when_n_max_is_too_small(lobe, frac, ratio):
    # five Fock levels cannot hold a superfluid at twice the boundary; mu
    # stays 0.2 U inside the lobe edges, where D_cv and hence psi* vanish
    mu = 2.0 * (lobe - 1 + frac)
    D = ratio * boundary_hopping(mu, lobe, "variational")
    with pytest.warns(TruncationWarning):
        res = minimize_order_parameter(MeanFieldProblem(mu, D, 4))
    assert res.psi_star > 0.0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lobe=st.integers(0, 3), frac=st.floats(0.01, 0.99),
       scale=st.floats(0.0, 1.0))
def test_default_truncation_does_not_warn(lobe, frac, scale):
    # measured onset of the warning at n_max = lobe + 8, in D / D_cv over
    # each lobe: 1.95 in the vacuum lobe (near mu = -2), 7.25 in lobe 1 and
    # none up to 10 in lobes 2-3; the domain stops at 1.5 and 5 to keep
    # clear of those onsets
    mu = 2.0 * (lobe - 1 + frac)
    D = scale * (1.5 if lobe == 0 else 5.0) * boundary_hopping(mu, lobe,
                                                                "variational")
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        minimize_order_parameter(MeanFieldProblem(mu, D))


def _dense_a(vec):
    return float(np.sum(np.sqrt(np.arange(1.0, vec.size)) * vec[:-1] * vec[1:]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mu=st.floats(-1.0, 5.0), D=st.floats(0.0, 0.6),
       psi=st.floats(0.0, 3.0), n_max=st.integers(4, 16))
def test_kernel_matches_dense_eigh(mu, D, psi, n_max):
    p = MeanFieldProblem(mu, D, n_max)
    H = dense_hamiltonian(p, psi)
    w, v = np.linalg.eigh(H)
    e0, vec = ground_energy(p, psi)
    assert abs(e0 - w[0]) <= 1e-12 * max(1.0, abs(w[0]))
    assert np.linalg.norm(H @ vec - e0 * vec) <= 1e-10
    assert vec[np.argmax(np.abs(vec))] > 0.0
    if w[1] - w[0] > 1e-3:  # the ground vector is well determined
        assert abs(a_expectation(p, psi) - _dense_a(v[:, 0])) <= 1e-10


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lobe=st.integers(0, 4), frac=st.floats(0.01, 0.99),
       scale=st.floats(0.0, 10.0), n_max=st.integers(4, 24),
       t=st.floats(1e-3, 1.0))
def test_root_step_slope_matches_dense_and_difference(lobe, frac, scale,
                                                       n_max, t):
    # d<a>/dpsi from dstev's spectrum against the perturbation sum over a
    # dense eigh and against a central difference of a_expectation, at
    # psi = t * top; <a> = c_0 / 2 against the dense ground vector
    mu = 2.0 * (lobe - 1 + frac)
    D = scale * boundary_hopping(mu, lobe, "variational")
    assume(mu + 1.0 + 2.0 * D > 0.0)
    p = MeanFieldProblem(mu, D, n_max)
    psi = t * float(_grid(p)[-1])
    kernel = oracle._Kernel([p])
    kernel.solved[0] = {}
    ((_, d_f),) = kernel.stationarity([0], [psi])
    e0, a_exp, _ = kernel.solved[0][psi]
    slope = 1.0 - d_f  # F' = 1 - d<a>/dpsi
    w, v = np.linalg.eigh(dense_hamiltonian(p, psi))
    assume(w[1] - w[0] > 1e-3)  # the ground vector is well determined
    x = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)
    c = v.T @ (x + x.T) @ v[:, 0]
    dense = 2.0 * D * float(np.sum(c[1:] ** 2 / (w[1:] - w[0])))
    size = max(1.0, abs(dense))
    assert abs(e0 - w[0]) <= 1e-12 * max(1.0, abs(w[0]))
    assert abs(a_exp - _dense_a(v[:, 0])) <= 1e-10
    assert abs(slope - dense) <= 1e-12 * size, (slope, dense)
    h = 1e-5 * psi
    diff = (a_expectation(p, psi + h) - a_expectation(p, psi - h)) / (2 * h)
    assert abs(slope - diff) <= 1e-7 * size, (slope, diff)


def _mp_a_expectation(mp, problem, psi):
    """<a>(psi) to mpmath's working precision: inverse iteration on the
    tridiagonal H(psi), shifted just below the double ground energy and
    started from the double ground vector, until <a> stops moving."""
    mu, D, n = mp.mpf(problem.mu_over_U), mp.mpf(problem.D_eff), \
        problem.n_max + 1
    e0, vec, _ = oracle._Kernel([problem]).eigenpair(float(psi))
    shift = mp.mpf(e0) - mp.mpf(1e-8) * max(1.0, abs(e0))
    diag = [-mu * k + k * (k - 1) + 2 * D * psi * psi - shift
            for k in range(n)]
    off = [-2 * D * psi * mp.sqrt(k + 1) for k in range(n - 1)]
    pivots = [diag[0]]  # LDL^T of H - shift, positive definite
    for k in range(1, n):
        pivots.append(diag[k] - off[k - 1] ** 2 / pivots[k - 1])
    x, a_exp = [mp.mpf(float(c)) for c in vec], None
    for _ in range(50):
        for k in range(1, n):
            x[k] -= off[k - 1] / pivots[k - 1] * x[k - 1]
        x[-1] /= pivots[-1]
        for k in range(n - 2, -1, -1):
            x[k] = x[k] / pivots[k] - off[k] / pivots[k] * x[k + 1]
        norm2 = mp.fsum(c * c for c in x)
        a_next = mp.fsum(mp.sqrt(k + 1) * x[k] * x[k + 1]
                         for k in range(n - 1)) / norm2
        if a_exp is not None and abs(a_next - a_exp) <= mp.eps * 100:
            return a_next
        a_exp, x = a_next, [c / mp.sqrt(norm2) for c in x]
    raise AssertionError("inverse iteration did not settle")


def _mp_psi_star(mp, problem, psi0):
    """The root of psi - <a>(psi) next to psi0, to 40 digits."""
    with mp.workdps(40):
        root = mp.findroot(lambda q: q - _mp_a_expectation(mp, problem, q),
                           (mp.mpf(psi0), mp.mpf(psi0) * (1 + mp.mpf(1e-7))),
                           solver="secant")
        return float(root)


@pytest.mark.parametrize("lobe", [0, 1, 4])
@pytest.mark.parametrize("rel", [1e-3, 1e-6])
def test_minimizer_meets_golden_tol_next_to_the_boundary(lobe, rel):
    # psi* against a 40-digit root of the same truncated problem, at
    # D = D_b (1 + rel) across the lobe
    mp = pytest.importorskip("mpmath")
    for frac in (0.2, 0.5, 0.8):
        mu = 2.0 * (lobe - 1 + frac)
        p = MeanFieldProblem(mu, boundary_numeric(mu) * (1.0 + rel))
        psi = minimize_order_parameter(p).psi_star
        assert psi > 0.0
        assert abs(psi - _mp_psi_star(mp, p, psi)) <= oracle.GOLDEN_TOL, mu


@pytest.mark.parametrize("lobe", [0, 1, 4])
def test_root_that_stalls_in_rounding_stays_accurate(lobe):
    # at D = D_b (1 + 1e-3), the guards' offset, F is rounding within
    # about 5e-13 of psi*, and newton_root ends a root there once a Newton
    # step flips F's sign without halving |F|: psi* stays within 2e-12 of
    # a 40-digit root (at most 1.6e-12 over these nine cells, at mu 7.6)
    mp = pytest.importorskip("mpmath")
    for frac in (0.2, 0.5, 0.8):
        mu = 2.0 * (lobe - 1 + frac)
        p = MeanFieldProblem(mu, boundary_numeric(mu) * (1.0 + oracle.GUARD_STEP))
        psi = minimize_order_parameter(p).psi_star
        assert abs(psi - _mp_psi_star(mp, p, psi)) <= 2e-12, mu


def _dstev_fails(d, e, *args, **kwargs):
    return np.zeros_like(d), np.eye(d.size), 1


def test_lapack_failure_is_an_error(monkeypatch):
    p = MeanFieldProblem(1.0, 0.25)
    cells = [p, MeanFieldProblem(1.2, 0.3), MeanFieldProblem(0.8, 0.35, 12)]
    alone = [repr(minimize_order_parameter(cell)) for cell in cells]
    real = oracle._lapack()[0]
    monkeypatch.setattr(oracle, "dstev", _dstev_fails)
    for call in (lambda: ground_energy(p, 0.3),
                 lambda: a_expectation(p, 0.3),
                 lambda: minimize_order_parameter(p)):
        with pytest.raises(ConvergenceError, match="dstev"):
            call()
    # a Mott cell takes no solve, so no dstev can fail it
    assert minimize_order_parameter(MeanFieldProblem(1.0, 0.1)).psi_star == 0.0
    # in a batch, a failed dstev is its lane's error alone, whether it is
    # the lane's first root step or its second; the other lanes keep the
    # bits of their one-cell calls
    for failing in (1, 2):
        solves = []

        def flaky(d, e, *args):
            if abs(d[1] - d[0] + 1.2) < 1e-9:  # base_1 - base_0 = -mu
                solves.append(d[0])
                if len(solves) == failing:
                    return _dstev_fails(d, e)
            return real(d, e, *args)

        monkeypatch.setattr(oracle, "dstev", flaky)
        batch = minimize_order_parameter(cells)
        assert isinstance(batch[1], ConvergenceError)
        assert str(batch[1]) == "LAPACK dstev failed (info = 1)"
        assert [repr(batch[0]), repr(batch[2])] == alone[::2]
        assert not batch.converged
