"""Non-perturbative check of the Landau picture.

The single-site mean-field Hamiltonian at order parameter psi (real,
gauge-fixed >= 0) is tridiagonal in the Fock basis |0..n_max>:

    diagonal  k: -mu k + k(k-1) + 2 D psi^2
    off-diag  k,k+1: -2 D psi sqrt(k+1)

all in units of U.  The oracle minimizes the ground energy e0(psi) over
psi and reports the minimizer together with the ground-state expectation
<a>, which must equal psi at any stationary point because

    d e0 / d psi = 4 D (psi - <a>)       (Hellmann-Feynman)

A coarse scan of e0 on a 64-point grid over [0, psi_max] is the global
guard that picks the bracket, and psi* is the root of the response form
g(psi) = 1 - <a>(psi)/psi in it, found by Brent's method to ROOT_TOL.  For
psi > 0, g has the sign of e0' = 4 D (psi - <a>) but not its trivial zero
at psi = 0, which would draw the interpolation steps of a bracket that
starts at RESPONSE_EPS toward 0.  When the scan minimum sits at grid[i] with i >= 2, the bracket is
[grid[i-1], grid[i+1]].  Otherwise the linear response r = <a>/psi at
psi = RESPONSE_EPS decides (see below): r <= 1 gives psi* = 0.0 exactly,
or ConvergenceError if the scan puts grid[1] below e0(0) by more than
rounding (a first-order jump); r > 1 makes g(RESPONSE_EPS) < 0 and the
bracket [RESPONSE_EPS, grid[i+1]].  A bracket that g does not straddle,
such as a minimum pinned at psi_max, raises ConvergenceError.  The root is
machine-accurate, which makes the truncation-drift guarantee (<= 1e-8 per
two extra Fock levels) meetable.  RESPONSE_EPS lowers r by
O(RESPONSE_EPS^2), so within about 2e-12 relative above the boundary,
where the true psi* is below RESPONSE_EPS, psi* = 0.0.

The scan stops at the first two grid points past sqrt(B), B = mu + 1 + 2 D,
because no bracket can lie beyond them.  With e0 = <n^2> - (mu + 1) <n>
+ 2 D psi^2 - 4 D psi <a>, Cauchy-Schwarz (<a>^2 <= <n> <= <n^2>^(1/2))
gives e0 >= <n> (<n> - B) + 2 D (psi - <n>^(1/2))^2, so wherever
e0 <= e0(0) <= 0, <a> <= <n>^(1/2) <= sqrt(B) and
e0' >= 4 D (psi - sqrt(B)).  Past sqrt(B), e0 therefore rises wherever it
lies below e0(0), so a scan minimum below e0(0) cannot sit beyond the first
grid point past sqrt(B), and its bracket end grid[i+1] is at most the
second.  The grid and every bracket are unchanged; only its tail goes
unscanned, which leaves every result bit for bit as a full scan gives it.
The bound holds at any truncation and for B <= 0, where psi* = 0.

Each point pays only for LAPACK.  The coarse scan is one stacked
``numpy.linalg.eigvalsh`` over the scanned matrices; the response and each
root step are one ``dstev`` each, which gives e0, the vector and <a>
together, and the returned point reuses the root's own solve at psi*.
The psi-independent arrays k, k(k-1) and sqrt(k) are built once per n_max.
A LAPACK failure raises ConvergenceError; it never yields a number.  scipy,
which supplies dstev, is imported when the first _Kernel is built, not
with this module, so a process that never diagonalizes never pays for
loading it.

The Mott/superfluid boundary is not found by minimizing at all.  At
psi -> 0, Hellmann-Feynman gives e0(psi) - e0(0) ~ 2 D (1 - r) psi^2, with
r = <a>/psi the linear response of the ground state, so the second-order
boundary is the root in D of r(D) = 1.  boundary_numeric finds it by
Brent's method, one dstev per evaluation at psi = RESPONSE_EPS, without
touching the closed-form susceptibility, and then runs two minimizations
just below and just above it to rule out a first-order jump.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError, TruncationWarning
from .numerics import brent_root
from .landau import boundary_hopping, lobe_index

COARSE_POINTS = 64
GOLDEN_TOL = 1e-8  # published bound on |dpsi| of the minimizer (meets ~1e-14)
BOUNDARY_TOL = 1e-6  # published bound on |dD| of boundary_numeric (meets ~1e-12)
RESPONSE_EPS = 1e-6  # psi at which boundary_numeric reads the linear response
ROOT_TOL = 1e-14  # bracket width of the boundary root in D and psi* in psi
GUARD_STEP = 1e-3  # relative offset in D of the two first-order guards
MIN_N_MAX = 4  # smallest Fock truncation a MeanFieldProblem accepts

dstev = None  # scipy's LAPACK routine, bound by _dstev on first use


@dataclass(frozen=True)
class MeanFieldProblem:
    """One (mu, D) point with Fock truncation n_max and search bound psi_max."""

    mu_over_U: float
    D_eff: float
    n_max: int
    psi_max: float

    def __post_init__(self):
        if not math.isfinite(self.mu_over_U):
            raise ConfigError("mu_over_U must be finite")
        if not (math.isfinite(self.D_eff) and self.D_eff >= 0.0):
            raise ConfigError("D_eff must be finite and >= 0")
        if self.n_max < MIN_N_MAX:
            raise ConfigError("n_max must be >= %d" % MIN_N_MAX)
        if not (math.isfinite(self.psi_max) and self.psi_max > 0.0):
            raise ConfigError("psi_max must be finite and > 0")

    @classmethod
    def for_lobe(cls, mu, D, n_max=None, psi_max=None):
        """Defaults: n_max = lobe + 8 and psi_max = max(sqrt(mu + 2) + 1,
        sqrt(B) + 1e-3), with B = mu + 1 + 2 D.

        B bounds psi*: at a stationary point psi = <a>, so the ground
        energy is e0 = <n^2> - (mu + 1) <n> - 2 D psi^2.  Cauchy-Schwarz
        gives psi^2 = <a>^2 <= <n> and <n>^2 <= <n^2>, so e0 >= <n> (<n> - B),
        and the minimum has e0 <= e0(0) <= 0; hence psi*^2 <= <n> <= B.
        """
        if n_max is None:
            n_max = lobe_index(mu) + 8
        if psi_max is None:
            psi_max = max(math.sqrt(max(mu + 2.0, 0.0)) + 1.0,
                          math.sqrt(max(mu + 1.0 + 2.0 * D, 0.0)) + 1e-3)
        return cls(mu_over_U=mu, D_eff=D, n_max=int(n_max), psi_max=float(psi_max))


@dataclass(frozen=True)
class OracleResult:
    psi_star: float
    e0: float
    a_expect: float
    converged: bool


@functools.lru_cache(maxsize=None)
def _fock_arrays(n_max):
    """k, k(k-1) and sqrt(k) (k >= 1) for one truncation, shared read-only."""
    k = np.arange(n_max + 1, dtype=float)
    arrays = (k, k * (k - 1.0), np.sqrt(k[1:]))
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _dstev():
    """scipy's dstev, imported on the first eigensolve of the process."""
    global dstev
    if dstev is None:
        from scipy.linalg.lapack import dstev
    return dstev


def _check_info(routine, info):
    if info != 0:
        raise ConvergenceError("LAPACK %s failed (info = %d)" % (routine, info))


class _Kernel:
    """Eigensolves of one problem's H(psi), each a single LAPACK call."""

    __slots__ = ("_base", "_sqrt_k", "_two_d", "_dstev")

    def __init__(self, problem):
        k, k_k1, sqrt_k = _fock_arrays(problem.n_max)
        self._base = -problem.mu_over_U * k + k_k1
        self._sqrt_k = sqrt_k
        self._two_d = 2.0 * problem.D_eff
        self._dstev = _dstev()

    def tridiag(self, psi):
        return (self._base + self._two_d * psi * psi,
                -self._two_d * psi * self._sqrt_k)

    def eigenpair(self, psi):
        """(e0, unit vector in LAPACK's sign, <a>) from one dstev solve."""
        vals, vecs, info = self._dstev(*self.tridiag(psi), overwrite_d=1,
                                       overwrite_e=1)
        _check_info("dstev", info)
        vec = vecs[:, 0]
        a_exp = float(np.dot(self._sqrt_k, vec[:-1] * vec[1:]))
        return float(vals[0]), vec, a_exp

    def response(self):
        """Linear response r = <a>/psi of the ground state at RESPONSE_EPS."""
        return self.eigenpair(RESPONSE_EPS)[2] / RESPONSE_EPS

    def scan(self, grid):
        """e0 at every psi of grid from one stacked eigvalsh."""
        diag, off = self.tridiag(grid[:, None])
        n = self._base.size
        H = np.zeros((grid.size, n, n))
        i = np.arange(n)
        H[:, i, i] = diag
        H[:, i[1:], i[:-1]] = off
        H[:, i[:-1], i[1:]] = off
        try:
            return np.linalg.eigvalsh(H)[:, 0]
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("stacked eigensolver failed: %s" % exc)


def build_hamiltonian(problem: MeanFieldProblem, psi: float) -> np.ndarray:
    """Dense symmetric (n_max+1)^2 matrix; mostly for inspection/tests."""
    diag, off = _Kernel(problem).tridiag(psi)
    H = np.diag(diag)
    H += np.diag(off, 1) + np.diag(off, -1)
    return H


def ground_energy(problem: MeanFieldProblem, psi: float):
    """Lowest eigenpair (e0, unit vector) of the tridiagonal Hamiltonian."""
    e0, vec, _ = _Kernel(problem).eigenpair(psi)
    if vec[np.argmax(np.abs(vec))] < 0.0:
        vec = -vec  # fix the overall sign for reproducibility
    return e0, vec


def a_expectation(problem: MeanFieldProblem, psi: float) -> float:
    """Ground-state <a> = sum_k sqrt(k+1) v_k v_{k+1}."""
    return _Kernel(problem).eigenpair(psi)[2]


def _scan_points(problem: MeanFieldProblem, grid) -> int:
    """How many leading points of grid the coarse scan needs: up to the
    first two past sqrt(B), B = mu + 1 + 2 D (see module docstring)."""
    bound = problem.mu_over_U + 1.0 + 2.0 * problem.D_eff
    return min(grid.size, int(math.sqrt(max(bound, 0.0)) / grid[1]) + 3)


def minimize_order_parameter(problem: MeanFieldProblem) -> OracleResult:
    """Minimize e0(psi) over [0, psi_max]; see module docstring."""
    kernel = _Kernel(problem)
    grid = np.linspace(0.0, problem.psi_max, COARSE_POINTS)
    energies = kernel.scan(grid[:_scan_points(problem, grid)])
    # eigvalsh is backward stable: a scan value can sit below the exact
    # e0(0) = energies[0] by rounding of order n eps |H|, not by more
    base = kernel._base
    rounding = base.size * np.finfo(float).eps * np.abs(base).max()
    i = int(np.argmin(energies))
    if energies[i] >= energies[0] - rounding:
        i = 0  # no point lies below e0(0)

    solved = {}  # psi -> eigenpair, so no psi is solved twice

    def eigenpair(p):
        if p not in solved:
            solved[p] = kernel.eigenpair(p)
        return solved[p]

    if i <= 1 and eigenpair(RESPONSE_EPS)[2] / RESPONSE_EPS <= 1.0:
        if i == 1:
            raise ConvergenceError(
                "psi = 0 is linearly stable at mu = %r, D = %r, yet the scan "
                "puts e0(%.6g) below e0(0) by %.3g: a first-order jump"
                % (problem.mu_over_U, problem.D_eff, grid[1],
                   energies[0] - energies[1]))
        psi = 0.0
    else:
        # for i <= 1, r > 1 makes psi = 0 a maximum: g(RESPONSE_EPS) < 0
        lo = grid[i - 1] if i >= 2 else RESPONSE_EPS
        hi = grid[min(i + 1, COARSE_POINTS - 1)]
        try:  # g(p) = 1 - <a>(p) / p = e0'(p) / (4 D p)
            psi = brent_root(lambda p: 1.0 - eigenpair(p)[2] / p, lo, hi,
                             tol=ROOT_TOL)
        except ValueError:
            raise ConvergenceError(
                "no stationary point of e0 in [%.6g, %.6g] at mu = %r, D = %r"
                % (lo, hi, problem.mu_over_U, problem.D_eff)) from None

    e0, vec, a_exp = eigenpair(psi)
    _warn_truncation(vec)
    converged = abs(psi - a_exp) <= 1e-9
    return OracleResult(psi_star=psi, e0=e0, a_expect=a_exp, converged=converged)


def converged_psi(problem: MeanFieldProblem) -> float:
    """psi* of a minimization that met stationarity, else ConvergenceError."""
    res = minimize_order_parameter(problem)
    if not res.converged:
        raise ConvergenceError(
            "oracle did not converge at mu = %r, D = %r: |psi - <a>| = %.3g"
            % (problem.mu_over_U, problem.D_eff, abs(res.psi_star - res.a_expect)))
    return res.psi_star


def _warn_truncation(vec):
    weight = float(vec[-1]) ** 2
    if weight > 1e-8:
        warnings.warn("ground state carries weight %.3g on the top Fock level; "
                      "increase n_max" % weight, TruncationWarning, stacklevel=3)


def boundary_numeric(mu: float, n_max=None) -> float:
    """Hopping D at which psi = 0 stops being stable: the root of r(D) = 1.

    n_max=None takes MeanFieldProblem.for_lobe's default truncation.

    r(D) = <a>(RESPONSE_EPS; D) / RESPONSE_EPS is the linear response of
    the ground state, one dstev per evaluation.  By Hellmann-Feynman the
    curvature of e0 at psi = 0 is proportional to 1 - r, so r = 1 is the
    second-order boundary (van Oosten, van der Straten & Stoof, PRA 63,
    053601 (2001)).  The bracket is [0, D_c(paper)]: r(0) = 0, and the
    paper boundary is twice the true one, so r > 1 there.  The root is
    found to ROOT_TOL by Brent's method; the finite eps biases it by
    O(eps^2), about 1e-12 relative.

    A first-order jump is invisible to linear stability, so two full
    minimizations guard the answer: psi* must be exactly 0 at
    D*(1 - GUARD_STEP) and positive at D*(1 + GUARD_STEP).  Otherwise,
    or if either minimization does not converge, ConvergenceError.
    """
    hi = boundary_hopping(mu, lobe_index(mu), "paper")  # raises at lobe corners

    def response_excess(D):
        problem = MeanFieldProblem.for_lobe(mu, D, n_max=n_max)
        return _Kernel(problem).response() - 1.0

    D_star = brent_root(response_excess, 0.0, hi, tol=ROOT_TOL)

    def psi_at(D):
        return converged_psi(MeanFieldProblem.for_lobe(mu, D, n_max=n_max))

    below = psi_at(D_star * (1.0 - GUARD_STEP))
    above = psi_at(D_star * (1.0 + GUARD_STEP))
    if below != 0.0 or not above > 0.0:
        raise ConvergenceError(
            "boundary at mu = %r, D* = %r is not second order: psi* = %r "
            "below it and %r above it" % (mu, D_star, below, above))
    return D_star
