import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotobh import oracle
from rotobh.errors import ConfigError, ConvergenceError, TruncationWarning
from rotobh.landau import order_parameter_landau
from rotobh.oracle import (COARSE_POINTS, MeanFieldProblem, OracleResult,
                           a_expectation, boundary_numeric, build_hamiltonian,
                           ground_energy, minimize_order_parameter)
from rotobh.phase_diagram import boundary_hopping, lobe_index


def test_problem_validation():
    with pytest.raises(ConfigError):
        MeanFieldProblem(1.0, -0.1, 10, 2.0)
    with pytest.raises(ConfigError):
        MeanFieldProblem(1.0, 0.1, 3, 2.0)
    with pytest.raises(ConfigError):
        MeanFieldProblem(math.nan, 0.1, 10, 2.0)
    with pytest.raises(ConfigError):
        MeanFieldProblem(1.0, 0.1, 10, 0.0)


def test_for_lobe_defaults():
    p = MeanFieldProblem.for_lobe(1.0, 0.2)
    assert p.n_max == 9  # lobe 1 plus eight guard levels
    assert abs(p.psi_max - (math.sqrt(3.0) + 1.0)) < 1e-15
    assert MeanFieldProblem.for_lobe(3.0, 0.2).n_max == 10
    assert MeanFieldProblem.for_lobe(-4.0, 0.2).psi_max == 1.0
    assert MeanFieldProblem.for_lobe(1.0, 0.2, n_max=15).n_max == 15


def test_hamiltonian_structure():
    p = MeanFieldProblem(1.3, 0.2, 5, 2.0)
    H = build_hamiltonian(p, 0.4)
    assert H.shape == (6, 6)
    assert np.allclose(H, H.T)
    k = np.arange(6.0)
    assert np.allclose(np.diag(H), -1.3 * k + k * (k - 1.0) + 2.0 * 0.2 * 0.16)
    assert abs(H[0, 1] - (-2.0 * 0.2 * 0.4)) < 1e-15
    assert abs(H[2, 3] - (-2.0 * 0.2 * 0.4 * math.sqrt(3.0))) < 1e-14
    assert H[0, 2] == 0.0


def test_ground_energy_matches_dense_solver():
    p = MeanFieldProblem(1.0, 0.25, 12, 2.0)
    for psi in (0.0, 0.3, 0.7):
        e0, vec = ground_energy(p, psi)
        H = build_hamiltonian(p, psi)
        w, v = np.linalg.eigh(H)
        assert abs(e0 - w[0]) < 1e-12
        assert abs(abs(np.dot(vec, v[:, 0])) - 1.0) < 1e-10
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_a_expectation_zero_hopping():
    p = MeanFieldProblem(1.0, 0.0, 8, 2.0)
    # D = 0 at psi = 0: number eigenstate |1>, so <a> = 0
    assert a_expectation(p, 0.0) == 0.0
    e0, vec = ground_energy(p, 0.0)
    assert abs(e0 - (-1.0)) < 1e-14
    assert abs(vec[1] - 1.0) < 1e-14


def test_minimizer_zero_hopping_shortcut():
    res = minimize_order_parameter(MeanFieldProblem(1.0, 0.0, 8, 2.0))
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
        res = minimize_order_parameter(MeanFieldProblem.for_lobe(mu, D))
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
        res = minimize_order_parameter(MeanFieldProblem.for_lobe(mu, D))
        assert res.converged
        assert abs(res.psi_star - expected) < 1e-11, (mu, D)
        assert abs(res.psi_star - res.a_expect) <= 1e-9


def test_minimizer_is_a_local_minimum():
    p = MeanFieldProblem.for_lobe(1.0, 0.25)
    res = minimize_order_parameter(p)
    h = 1e-4
    e_plus = ground_energy(p, res.psi_star + h)[0]
    e_minus = ground_energy(p, res.psi_star - h)[0]
    assert res.e0 < e_plus and res.e0 < e_minus


def test_onset_continuity_near_boundary():
    # D_cv(1.0) = 1/6; just above it psi grows from ~0 continuously
    psi_lo = minimize_order_parameter(MeanFieldProblem.for_lobe(1.0, 0.16667)).psi_star
    psi_hi = minimize_order_parameter(MeanFieldProblem.for_lobe(1.0, 0.168)).psi_star
    assert 0.0 < psi_lo < 0.02
    assert psi_lo < psi_hi < 0.2


def test_minimizer_decides_at_the_boundary():
    # mu = 3.0 with 14 Fock levels, 1e-8 either side of the variational
    # boundary: exactly Mott below, the Landau psi above
    mu, n = 3.0, lobe_index(3.0)
    D_cv = boundary_hopping(mu, n, "variational")
    below = minimize_order_parameter(
        MeanFieldProblem.for_lobe(mu, D_cv * (1.0 - 1e-8), n_max=14))
    assert below.psi_star == 0.0 and below.converged
    D = D_cv * (1.0 + 1e-8)
    above = minimize_order_parameter(MeanFieldProblem.for_lobe(mu, D, n_max=14))
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
            MeanFieldProblem.for_lobe(mu, D, n_max=n_max)).psi_star

    assert psi(D_b * (1.0 - rel)) == 0.0
    above, nearer = psi(D_b * (1.0 + rel)), psi(D_b * (1.0 + rel / 4.0))
    assert above > 0.0 and nearer > 0.0
    assert abs(above / nearer - 2.0) <= 1e-2  # psi ~ sqrt(D - D_b)


def test_minimizer_unbracketed_root_is_an_error():
    # the minimum lies beyond psi_max = 1.4, so h does not change sign
    with pytest.raises(ConvergenceError, match="no stationary point"):
        minimize_order_parameter(MeanFieldProblem.for_lobe(-1.84, 2.9))


def test_minimizer_scan_against_stable_mott_is_an_error(monkeypatch):
    p = MeanFieldProblem.for_lobe(1.0, 0.1)  # Mott: r < 1
    real = oracle._Kernel.scan

    def dip(depth):
        def scan(self, grid):
            energies = real(self, grid)
            energies[1] = energies[0] - depth
            return energies
        return scan

    with monkeypatch.context() as m:
        m.setattr(oracle._Kernel, "scan", dip(1e-15))  # rounding: still Mott
        assert minimize_order_parameter(p).psi_star == 0.0
    with monkeypatch.context() as m:
        m.setattr(oracle._Kernel, "scan", dip(1e-6))
        with pytest.raises(ConvergenceError, match="first-order"):
            minimize_order_parameter(p)


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


def test_boundary_numeric_runs_two_minimizations(monkeypatch):
    calls = []
    real = oracle.minimize_order_parameter

    def counting(problem):
        calls.append(problem.D_eff)
        return real(problem)

    monkeypatch.setattr(oracle, "minimize_order_parameter", counting)
    bn = boundary_numeric(1.0, 12)
    assert len(calls) == 2
    assert calls[0] < bn < calls[1]


def _constant_psi(psi):
    def minimize(problem):
        return OracleResult(psi_star=psi, e0=0.0, a_expect=psi, converged=True)
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
        minimize_order_parameter(MeanFieldProblem(3.0, 0.5, 4, 3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        minimize_order_parameter(MeanFieldProblem.for_lobe(1.0, 0.25))


def _dense_a(vec):
    return float(np.sum(np.sqrt(np.arange(1.0, vec.size)) * vec[:-1] * vec[1:]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mu=st.floats(-1.0, 5.0), D=st.floats(0.0, 0.6),
       psi=st.floats(0.0, 3.0), n_max=st.integers(4, 16))
def test_kernel_matches_dense_eigh(mu, D, psi, n_max):
    p = MeanFieldProblem(mu, D, n_max, 3.0)
    H = build_hamiltonian(p, psi)
    w, v = np.linalg.eigh(H)
    e0, vec = ground_energy(p, psi)
    assert abs(e0 - w[0]) <= 1e-12 * max(1.0, abs(w[0]))
    assert np.linalg.norm(H @ vec - e0 * vec) <= 1e-10
    assert vec[np.argmax(np.abs(vec))] > 0.0
    if w[1] - w[0] > 1e-3:  # the ground vector is well determined
        assert abs(a_expectation(p, psi) - _dense_a(v[:, 0])) <= 1e-10


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mu=st.floats(-1.0, 5.0), D=st.floats(0.0, 0.6),
       psi_max=st.floats(0.1, 4.0), n_max=st.integers(4, 16))
def test_stacked_scan_matches_scalar_energies(mu, D, psi_max, n_max):
    p = MeanFieldProblem(mu, D, n_max, psi_max)
    grid = np.linspace(0.0, psi_max, COARSE_POINTS)
    stacked = oracle._Kernel(p).scan(grid)
    scalar = np.array([ground_energy(p, x)[0] for x in grid])
    assert stacked.shape == grid.shape
    assert np.all(np.abs(stacked - scalar)
                  <= 1e-12 * np.maximum(1.0, np.abs(scalar)))


def _dstev_fails(d, e, **kwargs):
    return np.zeros_like(d), np.eye(d.size), 1


def _eigvalsh_fails(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_lapack_failure_is_an_error(monkeypatch):
    p = MeanFieldProblem.for_lobe(1.0, 0.25)
    with monkeypatch.context() as m:
        m.setattr(oracle, "dstev", _dstev_fails)
        for call in (lambda: ground_energy(p, 0.3),
                     lambda: a_expectation(p, 0.3),
                     lambda: minimize_order_parameter(p),
                     lambda: minimize_order_parameter(
                         MeanFieldProblem(1.0, 0.0, 8, 2.0))):
            with pytest.raises(ConvergenceError, match="dstev"):
                call()
    with monkeypatch.context() as m:
        m.setattr(oracle.np.linalg, "eigvalsh", _eigvalsh_fails)
        with pytest.raises(ConvergenceError, match="stacked"):
            minimize_order_parameter(p)

