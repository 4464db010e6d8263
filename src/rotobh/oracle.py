"""Non-perturbative check of the Landau picture.

The single-site mean-field Hamiltonian at order parameter psi (real,
gauge-fixed >= 0) is tridiagonal in the Fock basis |0..n_max>:

    diagonal  k: -mu k + k(k-1) + 2 D psi^2
    off-diag  k,k+1: -2 D psi sqrt(k+1)

all in units of U.  The oracle minimizes the ground energy e0(psi) over
psi and reports the minimizer together with the ground-state expectation
<a>, which must equal psi at any stationary point because

    d e0 / d psi = 4 D (psi - <a>)       (Hellmann-Feynman)

The minimizer psi* obeys psi*^2 <= B = mu + 1 + 2 D.  With e0 = <n^2>
- (mu + 1) <n> + 2 D psi^2 - 4 D psi <a>, Cauchy-Schwarz
(<a>^2 <= <n> <= <n^2>^(1/2)) gives
e0 >= <n> (<n> - B) + 2 D (psi - <n>^(1/2))^2, so wherever
e0 <= e0(0) <= 0, <n> <= max(B, 0) and <a> <= <n>^(1/2).  At the minimum
psi* = <a>, hence psi*^2 <= max(B, 0), and for B > 0,
e0' >= 4 D (psi - sqrt(B)) wherever e0 <= e0(0).  A cell with B <= 0
therefore has psi* = 0 and needs no search.  The bound holds at any
truncation.  The truncation adds a second one: <n> <= n_max in the
truncated space, so <a>^2 <= <n> <= n_max at every psi, and
psi*^2 <= R = min(B, n_max).  Every other cell finds a candidate first
and certifies it after, on the grid psi_j = j sqrt(R) / (COARSE_POINTS - 3),
j < COARSE_POINTS, which spans [0, sqrt(R)] plus two steps past it, up
to top = grid[-1].  Only a cell with B > n_max, such as one at a huge D,
takes sqrt(n_max): there the grid would otherwise reach sqrt(2 D), where
2 D psi^2 swamps every Fock term of H.

The candidate.  The linear response r = <a>/psi at psi = RESPONSE_EPS
decides (see below): r <= 1 gives psi = 0.0 exactly.  r > 1 makes psi = 0
a maximum, and the candidate is the root of the stationarity condition
F(psi) = psi - <a>(psi) = e0'(psi) / (4 D) on [RESPONSE_EPS, top], found
by numerics.newton_root to ROOT_TOL.  The bracket's lower end has
F = RESPONSE_EPS (1 - r) < 0, read off the response's own solve.  Its
upper end has F(top) > 0 wherever e0(top) <= e0(0): there
<a> <= <n>^(1/2) <= sqrt(R) by the bounds above, so
F(top) / top >= 1 - sqrt(R)/top = 2/(COARSE_POINTS - 1) = 0.05, far above
the rounding of <a>.  Where n_max < B it holds whatever e0(top) is,
since <a> <= sqrt(n_max) needs no energy condition.  Where e0(top) > e0(0)
and R = B, F(top) may take either sign, and F(top) < 0 raises
ConvergenceError: no stationary point.

The slope.  Every dstev returns the whole spectrum, lambda_n and v_n, so
Newton's slope costs no further solve.  With X = a + a^dagger,
<a> = <v_0|X|v_0> / 2 and dH/dpsi = 4 D psi - 2 D X.  First-order
perturbation theory (the identity term drops out, as <v_n|v_0> = 0) gives
dv_0/dpsi = 2 D sum_(n >= 1) c_n v_n / (lambda_n - lambda_0) with
c = V^T X v_0, hence

    A'(psi) = d<a>/dpsi = 2 D sum_(n >= 1) c_n^2 / (lambda_n - lambda_0)

and F' = 1 - A'.  c is two matrix-vector products with X, which is built
once per n_max, and c_0 / 2 is <a>.  A first gap that is not positive, or
a slope that is not finite, makes that step bisect.

The start and the stop.  Near the boundary e0 has the Landau form, so
g = F/psi = 1 - <a>/psi ~ (1 - r) + c psi^2, even in psi with g(0) = 1 - r.
Through the response point, at psi ~ 0, and an iterate x with g(x) > 0,
c = (g(x) + r - 1) / x^2, and the model's root is

    x_m = x sqrt((r - 1) / (g(x) + r - 1)) < x.

The first solve is at top, and every step until F first changes sign,
the first one included, goes to the smaller of x_m and the Newton point:
next to the boundary F is nearly cubic, and Newton from top alone takes
several more steps to come down to psi*.  A step that leaves the open
bracket, or where F' <= 0, bisects.  A step shorter than
tol1 = 2 eps x + ROOT_TOL/2 is lengthened to tol1, a probe, and the root
is returned only once F changes sign across a bracket no wider than
ROOT_TOL plus 4 ulps: the end of it with the smaller |F|, which is the
guarantee brent_root gives.  Running past newton_root's max_iter raises
ConvergenceError.  No psi is solved twice, and the returned point reuses
its own solve.

The certificate.  No candidate is returned unverified: its energy
e0* = e0(psi*) must lie below e0(psi_j) + slack at every grid point,
which is the guarantee a stacked eigenvalue scan of the grid would give.
The ground energy of H(psi_j) exceeds level = e0* - slack exactly when
every pivot of the LDL^T factorization of H(psi_j) - level is positive
(Sylvester's law of inertia; the Sturm count of Barth, Martin &
Wilkinson, Numer. Math. 9, 386 (1967)).  For a tridiagonal matrix the
pivots are p_0 = d_0 - level, p_k = d_k - level - (e_(k-1) / p_(k-1))
e_(k-1), the recurrence of LAPACK's dpttrf.  One dpttrf call factors the
block-diagonal stack of all COARSE_POINTS matrices: the coupling between
two blocks is zero, so each block's pivots are those of its matrix
alone.  They are formed for (H - level) / 2^m with 2^m >= N (below), a
power of two, which moves no sign and no rounding but keeps every entry
of H / 2^m at most 1 in size; so a quotient e / p that overflows, p > 0,
makes the next pivot -inf, the sign of the exact one, whose e^2 / p then
exceeds 2^970.  A pivot that is zero, negative or NaN is a failure, so
the check fails closed: dpttrf stops at the first pivot <= 0 (info > 0),
and since that test lets a NaN through, the pivots are read as well.
info < 0 (an illegal argument) raises ConvergenceError, as a failed
dstev does; it is never read as a verdict.  A failure raises
ConvergenceError: e0 has a second minimum that the candidate missed,
which for the candidate psi = 0 is a first-order jump.

The slack.  Let n = n_max + 1, eps the machine epsilon, base_k =
-mu k + k(k-1) and N = max|base| + 2 D top^2 + 4 D top sqrt(n_max).  By
Gershgorin, N bounds ||H(psi)|| for 0 <= psi <= top, since
|d_k| <= max|base| + 2 D psi^2 and |e_k| <= 2 D psi sqrt(n_max).  Three
roundings separate the certificate from an exact comparison of ground
energies.  (1) dstev is backward stable: e0* is an eigenvalue of a
matrix within n eps N of the one it was handed (LAPACK Users' Guide,
sec. 4.7, with its modest p(n) taken as n), and forming that matrix
rounds its entries by at most 3 eps N in norm.  (2) Forming d_k - level
rounds each entry by at most 2.5 eps N.  (3) A correctly rounded
operation errs by at most eps/2, relative.  Each coupling handed to
dpttrf, (2 D psi / 2^m) sqrt(k+1), takes three roundings, so it is e_k
to within 1.5 eps.  Each pivot step rounds t = e / p, t e and d - t e
once each: p'_k = (d_k - e^2 / p'_(k-1) (1 + a)(1 + b)) (1 + c).  The
numbers q_k = p'_k / (1 + c_k) have the signs of the computed pivots
and are the exact pivots of the matrix whose e^2 carry the factors
(1 + a)(1 + b) / (1 + c_(k-1)), within 1.5 eps, that is e within 0.75
eps (Demmel, Applied Numerical Linear Algebra (1997), sec. 5.3.4, makes
the same argument for the e^2 / p form); a fused multiply-add only drops
a rounding.  The off-diagonal is thus off by at most 2.25 eps relative,
which moves every eigenvalue by at most 2.25 eps * 2 max|e| <= 2.25 eps
N.  Together they stay below (n + 9) eps N, and slack = 2 (n + 9) eps N
is twice that: a grid point that ties the candidate's exact energy
passes, and a pass means no grid point lies more than 1.5 slack below
it.

Next to the boundary psi* is not machine-accurate.  F = psi - <a>
cancels there: near the root <a>/psi is 1 to within about
(D - D_b)/D_b, while <a>, formed from the ground vector's small
components, carries a rounding error far above eps, and the root moves
by that error over F's slope 2 (r - 1), which vanishes at the boundary.
Against a 40-digit root over 18 mu in lobes 0, 1 and 4 (default
truncation), |dpsi*| is at most 7.6e-13 at D/D_b - 1 = 1e-3, 2.8e-11 at
1e-5, 2.8e-9 at 1e-6 and 2.9e-9 at 1e-9, so GOLDEN_TOL holds there; at
1e-10 2 of the 18 cells miss it and at 1e-11 4 do, by up to 3.1e-8.  Over
1,500 random cells in lobes 0 to 4 with n_max up to 24, only cells at
D = D_cv (1 + 10^-k), k >= 9, miss it (D_cv the closed-form boundary),
and from 1% above the boundary on the root is accurate to 3e-13, which
makes the truncation-drift guarantee (<= 1e-8 per two extra Fock
levels) meetable.  RESPONSE_EPS lowers r by
O(RESPONSE_EPS^2), so within about 2e-12 relative above the boundary,
where the true psi* is below RESPONSE_EPS, psi* = 0.0.

Each point pays for LAPACK and a few vector passes.  The response is one
``dstev``, and each root step is one ``dstev`` plus the two products that
give <a> and the slope: 6 or 7 solves for a superfluid cell away from
the boundary, where Brent's method took 10 to 12, and more next to it.
The certificate is one ``dpttrf`` on COARSE_POINTS (n_max + 1) rows,
about 9 us at n_max 9 and 13 us at 24 (the loop over the Fock index it
replaced took 15.4 and 28.9 us).  Where H is diagonal no solve runs:
H(0) = diag(base), so the psi = 0 candidate is the Fock state of the
lowest level, with that level as e0 and <a> = 0, the bits dstev returns
(its selection sort keeps the first of tied levels, as at a lobe
corner).  A Mott cell thus pays one ``dstev``, the response's, and a
cell with B <= 0 none; at D = 0, H(psi) is diagonal at every psi, so
r = 0 exactly and the cell takes no solve either.
The psi-independent arrays k, k(k-1), sqrt(k) and X are built once per
n_max.
The Fock truncation, given or defaulted to lobe + 8, must lie in
[MIN_N_MAX, MAX_N_MAX] = [4, 256]; a larger one is a ConfigError before
any array is built.
A LAPACK failure raises ConvergenceError; it never yields a number.  So
does a problem whose H(psi) would overflow up to top (D past about
5e153, or |mu| n_max past the double range), before any arithmetic, and
one whose bound N overflows.  scipy, which supplies dstev and dpttrf,
is imported when the first _Kernel is built, not with this module, so a
process that never diagonalizes never pays for loading it.

The Mott/superfluid boundary is not found by minimizing at all.  At
psi -> 0, Hellmann-Feynman gives e0(psi) - e0(0) ~ 2 D (1 - r) psi^2, with
r = <a>/psi the linear response of the ground state, so the second-order
boundary is the root in D of r(D) = 1.  boundary_numeric finds it by
Brent's method, one dstev per evaluation at psi = RESPONSE_EPS on one
kernel per mu, without touching the closed-form susceptibility, and then
runs two minimizations just below and just above it to rule out a
first-order jump.  H(psi) is diagonal at D = 0, so r(0) = 0 takes no
solve, and the kernel's overflow test, made once at the bracket top,
covers every smaller D.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, ConvergenceError, TruncationWarning
from .numerics import EPS, brent_root, newton_root
from .landau import boundary_hopping, lobe_index

COARSE_POINTS = 41  # grid points over [0, sqrt(R)] and two steps past it
# published bound on |dpsi| of the minimizer: meets ~1e-13 deep in the
# superfluid, and fails within ~1e-9 relative of the boundary (docstring)
GOLDEN_TOL = 1e-8
BOUNDARY_TOL = 1e-6  # published bound on |dD| of boundary_numeric (meets ~1e-12)
RESPONSE_EPS = 1e-6  # psi at which boundary_numeric reads the linear response
ROOT_TOL = 1e-14  # bracket width of the boundary root in D and psi* in psi
GUARD_STEP = 1e-3  # relative offset in D of the two first-order guards
MIN_N_MAX = 4  # smallest Fock truncation a MeanFieldProblem accepts
# Largest one.  Each dstev computes all n_max + 1 eigenvectors, O(n_max^3)
# work, so one minimization takes about 0.3 s at 256 (3 ms at 64): the
# cap keeps a cell under a second, and no truncation changes exit status.
MAX_N_MAX = 256

dstev = dpttrf = None  # scipy's LAPACK routines, bound by _lapack on first use


def check_n_max(n_max) -> None:
    """ConfigError unless n_max is an integer in [MIN_N_MAX, MAX_N_MAX]."""
    if not (MIN_N_MAX <= n_max <= MAX_N_MAX and float(n_max).is_integer()):
        raise ConfigError("n_max must be an integer in [%d, %d], got %r"
                          % (MIN_N_MAX, MAX_N_MAX, n_max))


@dataclass(frozen=True)
class MeanFieldProblem:
    """One (mu, D) point with Fock truncation n_max (default: lobe + 8).

    check_n_max bounds the default as it does a given n_max, so a mu of
    2 (MAX_N_MAX - 8) = 496 or more is a ConfigError before any array is
    built.
    """

    mu_over_U: float
    D_eff: float
    n_max: Optional[int] = None

    def __post_init__(self):
        if not math.isfinite(self.mu_over_U):
            raise ConfigError("mu_over_U must be finite")
        if not (math.isfinite(self.D_eff) and self.D_eff >= 0.0):
            raise ConfigError("D_eff must be finite and >= 0")
        n_max = self.n_max
        if n_max is None:
            n_max = lobe_index(self.mu_over_U) + 8
        check_n_max(n_max)
        object.__setattr__(self, "n_max", int(n_max))


@dataclass(frozen=True)
class OracleResult:
    psi_star: float
    e0: float
    a_expect: float
    converged: bool


@functools.lru_cache(maxsize=None)
def _fock_arrays(n_max):
    """k, k(k-1), sqrt(k) (k >= 1), the dense X = a + a^dagger and sqrt(k)
    with a 0 appended (the certificate's couplings, the 0 between blocks)
    for one truncation, shared read-only."""
    k = np.arange(n_max + 1, dtype=float)
    sqrt_k = np.sqrt(k[1:])
    arrays = (k, k * (k - 1.0), sqrt_k,
              np.diag(sqrt_k, 1) + np.diag(sqrt_k, -1), np.append(sqrt_k, 0.0))
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _lapack():
    """scipy's dstev and dpttrf, imported when the process builds its first
    _Kernel."""
    global dstev, dpttrf
    if dstev is None:
        from scipy.linalg.lapack import dstev
    if dpttrf is None:
        from scipy.linalg.lapack import dpttrf
    return dstev, dpttrf


def _check_info(routine, info):
    if info != 0:
        raise ConvergenceError("LAPACK %s failed (info = %d)" % (routine, info))


class _Kernel:
    """One problem's H(psi): eigensolves, each a single LAPACK call, the
    exact ground state where H is diagonal, and the certificate's pivots
    over a grid of psi in one more."""

    __slots__ = ("_base", "_k", "_sqrt_k", "_x", "_couplings", "_two_d",
                 "_dstev", "_dpttrf")

    def __init__(self, problem):
        mu, D = problem.mu_over_U, problem.D_eff
        # H(psi) up to the grid's end has entries of about |mu| n_max and
        # 2.2 D B; where those overflow, no eigensolve can be trusted.  The
        # test grows with D, so it covers every smaller D as well.
        if not math.isfinite(abs(mu) * problem.n_max
                             + 4.0 * D * max(mu + 1.0 + 2.0 * D, 1.0)):
            raise ConvergenceError("H(psi) overflows at mu = %r, D = %r"
                                   % (mu, D))
        k, k_k1, sqrt_k, x, couplings = _fock_arrays(problem.n_max)
        self._base = -mu * k + k_k1
        self._k = k
        self._sqrt_k = sqrt_k
        self._x = x
        self._couplings = couplings
        self._two_d = 2.0 * D
        self._dstev, self._dpttrf = _lapack()

    def tridiag(self, psi, two_d=None):
        """H(psi)'s diagonal and off-diagonal, at hopping two_d / 2 if
        given, else at the problem's."""
        if two_d is None:
            two_d = self._two_d
        return (self._base + two_d * psi * psi, -two_d * psi * self._sqrt_k)

    def _spectrum(self, psi, two_d=None):
        """Eigenvalues (ascending) and eigenvectors of H(psi): one dstev."""
        vals, vecs, info = self._dstev(*self.tridiag(psi, two_d),
                                       overwrite_d=1, overwrite_e=1)
        _check_info("dstev", info)
        return vals, vecs

    def _a(self, vec):
        return float(np.dot(self._sqrt_k, vec[:-1] * vec[1:]))

    def eigenpair(self, psi, two_d=None):
        """(e0, unit vector in LAPACK's sign, <a>) from one dstev solve, at
        hopping two_d / 2 if given, else at the problem's."""
        vals, vecs = self._spectrum(psi, two_d)
        vec = vecs[:, 0]
        return float(vals[0]), vec, self._a(vec)

    def fock_ground(self):
        """eigenpair(0.0) without a solve: H(0) = diag(base).

        The ground state is the Fock state of the lowest level, the first
        one of a tie, as dstev's selection sort keeps it, and <a> = 0.
        Adding 0.0 turns a -0.0 level into the 0.0 that tridiag(0.0)
        hands dstev.
        """
        k = int(np.argmin(self._base))
        vec = np.zeros(self._base.size)
        vec[k] = 1.0
        return float(self._base[k]) + 0.0, vec, 0.0

    def root_step(self, psi):
        """(e0, vector, <a>, d<a>/dpsi) from the spectrum of one dstev solve.

        With c = V^T X v_0, <a> = c_0 / 2 and the slope is
        2 D sum_(n >= 1) c_n^2 / (lambda_n - lambda_0) (module docstring).
        The slope is NaN unless the first gap is positive, and it may be
        infinite.
        """
        vals, vecs = self._spectrum(psi)
        vec = vecs[:, 0]
        c = np.dot(self._x @ vec, vecs)
        e0 = float(vals[0])
        slope = math.nan
        if vals[1] > e0:
            c_n = c[1:]
            slope = self._two_d * float(np.dot(c_n, c_n / (vals[1:] - e0)))
        return e0, vec, 0.5 * float(c[0]), slope

    def response(self, D):
        """(r, eigenpair) at psi = RESPONSE_EPS and hopping D on this
        kernel's levels, r = <a>/psi the linear response of the ground
        state: (0.0, None) at D = 0, where H is diagonal, and one dstev
        otherwise."""
        if D == 0.0:
            return 0.0, None
        pair = self.eigenpair(RESPONSE_EPS, 2.0 * D)
        return pair[2] / RESPONSE_EPS, pair

    def norm(self, top):
        """Gershgorin bound on ||H(psi)|| over 0 <= psi <= top."""
        return (float(np.abs(self._base).max()) + self._two_d * top * top
                + 2.0 * self._two_d * top * math.sqrt(self._k[-1]))

    def above(self, grid, level, norm):
        """True if the ground energy at every psi of grid exceeds level.

        That holds exactly when every LDL^T pivot of H(psi) - level is
        positive; the pivots of (H(psi) - level) / 2^m, 2^m >= norm, have
        the same signs, and H(psi) / 2^m has entries of at most 1.  One
        dpttrf factors all of them: its matrix is the block-diagonal stack
        of one block per psi, and a zero coupling between blocks leaves
        each block's pivots those of the block alone.  A pivot that is not
        positive, NaN included, is a failure; dpttrf stops at the first
        one <= 0 (info > 0) but passes a NaN on, so the pivots are read
        too.  info < 0 is a LAPACK failure and raises ConvergenceError.
        """
        scale = math.ldexp(1.0, -math.frexp(norm)[1])
        h = self._two_d * scale
        d = np.add.outer(h * grid * grid, self._base * scale)
        d -= level * scale
        e = np.multiply.outer(h * grid, self._couplings)
        d, _, info = self._dpttrf(d.ravel(), e.ravel()[:-1], overwrite_d=1,
                                  overwrite_e=1)
        if info < 0:
            _check_info("dpttrf", info)
        return info == 0 and bool(d.min() > 0.0)


def ground_energy(problem: MeanFieldProblem, psi: float):
    """Lowest eigenpair (e0, unit vector) of the tridiagonal Hamiltonian."""
    e0, vec, _ = _Kernel(problem).eigenpair(psi)
    if vec[np.argmax(np.abs(vec))] < 0.0:
        vec = -vec  # fix the overall sign for reproducibility
    return e0, vec


def a_expectation(problem: MeanFieldProblem, psi: float) -> float:
    """Ground-state <a> = sum_k sqrt(k+1) v_k v_{k+1}."""
    return _Kernel(problem).eigenpair(psi)[2]


def minimize_order_parameter(problem: MeanFieldProblem) -> OracleResult:
    """Minimize e0(psi) over psi >= 0; see module docstring."""
    kernel = _Kernel(problem)
    bound = problem.mu_over_U + 1.0 + 2.0 * problem.D_eff
    psi = 0.0  # the candidate when B <= 0 or r <= 1
    if bound > 0.0:
        reach = math.sqrt(min(bound, problem.n_max))
        grid = reach / (COARSE_POINTS - 3) * np.arange(COARSE_POINTS)
        top = float(grid[-1])
        r, response = kernel.response(problem.D_eff)
        if r > 1.0:
            solved = {RESPONSE_EPS: response + (math.nan,)}

            def stationarity(p):  # F(p) = p - <a>(p) = e0'(p) / (4 D)
                if p not in solved:
                    solved[p] = kernel.root_step(p)
                _, _, a_exp, slope = solved[p]
                return p - a_exp, 1.0 - slope

            def landau_root(p, f):  # x_m of the module docstring
                return p * math.sqrt((r - 1.0) / (f / p + r - 1.0))

            try:
                psi = newton_root(stationarity, RESPONSE_EPS, top,
                                  tol=ROOT_TOL, model=landau_root)
            except ValueError:
                raise ConvergenceError(
                    "no stationary point of e0 in [%.6g, %.6g] at mu = %r, "
                    "D = %r" % (RESPONSE_EPS, top, problem.mu_over_U,
                                problem.D_eff)) from None
            e0, vec, a_exp, _ = solved[psi]
    if psi == 0.0:
        e0, vec, a_exp = kernel.fock_ground()
    if bound > 0.0:
        norm = kernel.norm(top)
        slack = 2.0 * (kernel._base.size + 9) * EPS * norm
        if not math.isfinite(slack):
            raise ConvergenceError("H(psi) overflows at mu = %r, D = %r"
                                   % (problem.mu_over_U, problem.D_eff))
        if not kernel.above(grid, e0 - slack, norm):
            raise ConvergenceError(
                "e0 has a second minimum at mu = %r, D = %r: a point of the "
                "grid lies below e0(%r) = %r" % (problem.mu_over_U,
                                                 problem.D_eff, psi, e0))
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

    n_max=None takes MeanFieldProblem's default truncation, lobe + 8.

    r(D) = <a>(RESPONSE_EPS; D) / RESPONSE_EPS is the linear response of
    the ground state, one dstev per evaluation.  By Hellmann-Feynman the
    curvature of e0 at psi = 0 is proportional to 1 - r, so r = 1 is the
    second-order boundary (van Oosten, van der Straten & Stoof, PRA 63,
    053601 (2001)).  The bracket is [0, D_c(paper)]: r(0) = 0 exactly,
    since H is diagonal at D = 0, and the paper boundary is twice the
    true one, so r > 1 there.  Every r(D) is one dstev on a single kernel,
    built and overflow-tested at D_c(paper).  The root is
    found to ROOT_TOL by Brent's method; the finite eps biases it by
    O(eps^2), about 1e-12 relative.

    A first-order jump is invisible to linear stability, so two full
    minimizations guard the answer: psi* must be exactly 0 at
    D*(1 - GUARD_STEP) and positive at D*(1 + GUARD_STEP).  Otherwise,
    or if either minimization does not converge, ConvergenceError.
    """
    hi = boundary_hopping(mu, lobe_index(mu), "paper")  # raises at lobe corners
    kernel = _Kernel(MeanFieldProblem(mu, hi, n_max))  # overflow test at hi

    def response_excess(D):
        return kernel.response(D)[0] - 1.0

    D_star = brent_root(response_excess, 0.0, hi, tol=ROOT_TOL)

    def psi_at(D):
        return converged_psi(MeanFieldProblem(mu, D, n_max))

    below = psi_at(D_star * (1.0 - GUARD_STEP))
    above = psi_at(D_star * (1.0 + GUARD_STEP))
    if below != 0.0 or not above > 0.0:
        raise ConvergenceError(
            "boundary at mu = %r, D* = %r is not second order: psi* = %r "
            "below it and %r above it" % (mu, D_star, below, above))
    return D_star
