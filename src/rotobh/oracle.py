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

The candidate.  The zero-field response r0 decides, with no solve: to
second order in psi, <a> = r0 psi and e0(psi) - e0(0) = 2 D (1 - r0) psi^2
(Hellmann-Feynman), where perturbation theory about the lowest truncated
level n, E_k = k(k - 1) - mu k, gives
r0 = 2 D chi_n, chi_n = (n + 1) / (E_(n+1) - E_n) + n / (E_(n-1) - E_n)
(Fisher, Weichman, Grinstein & Fisher, PRB 40, 546 (1989); van Oosten,
van der Straten & Stoof, PRA 63, 053601 (2001)), exact for the truncated
problem, whose first term drops where n = n_max (_Kernel.chi); chi_n is
+inf where two lowest levels tie, at a lobe corner.  r0 <= 1 gives
psi = 0.0 exactly.  r0 > 1 makes psi = 0 a maximum, and the candidate is
the root of the stationarity condition
F(psi) = psi - <a>(psi) = e0'(psi) / (4 D) on (0, top], found by
numerics.newton_root to ROOT_TOL.  F(0) = 0, but just above 0 F has the
sign of 1 - r0 < 0, and newton_root takes 1 - r0 as its value at the
lower end 0, so no psi near 0 is solved.  The bracket's
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
g = F/psi = 1 - <a>/psi ~ (1 - r0) + c psi^2, even in psi with
g(0) = 1 - r0.  Through g(0) and an iterate x with g(x) > 0,
c = (g(x) + r0 - 1) / x^2, and the model's root is

    x_m = x sqrt((r0 - 1) / (g(x) + r0 - 1)) < x,

which is NaN, and ignored, where r0 = +inf.

The first solve is at top, and every step until F first changes sign,
the first one included, goes to the smaller of x_m and the Newton point:
next to the boundary F is nearly cubic, and Newton from top alone takes
several more steps to come down to psi*.  A step that leaves the open
bracket, or where F' <= 0, bisects.  A step shorter than
tol1 = 2 eps x + ROOT_TOL/2 is lengthened to tol1, a probe, and the root
is returned only once F changes sign across a bracket no wider than
ROOT_TOL plus 4 ulps: the end of it with the smaller |F|, which is the
guarantee brent_root gives.  Running past newton_root's max_iter raises
ConvergenceError.  So does a search in which F > 0 at every psi solved,
whose bracket shrinks onto 0: r0 > 1 puts a root above 0, and the solves
have not resolved <a> there.  That happens within a few ulps of the
boundary, where F is rounding, and next to a lobe corner, where the
coupling 2 D psi sqrt(n + 1) that carries <a> falls below dstev's
deflation test |e_k| <= eps sqrt(|d_k d_(k+1)|) and <a> comes back 0.
No psi is solved twice, and the returned point reuses its own solve.

The certificate.  No candidate is returned unverified: its energy
e0* = e0(psi*) must lie below e0(psi_j) + slack at every grid point,
which is the guarantee a stacked eigenvalue scan of the grid would give.
The ground energy of H(psi_j) exceeds level = e0* - slack exactly when
every pivot of the LDL^T factorization of H(psi_j) - level is positive
(Sylvester's law of inertia; the Sturm count of Barth, Martin &
Wilkinson, Numer. Math. 9, 386 (1967)).  For a tridiagonal matrix the
pivots are p_0 = d_0 - level, p_k = d_k - level - (e_(k-1) / p_(k-1))
e_(k-1), the recurrence of LAPACK's dpttrf.  One dpttrf call factors the
block-diagonal stack of the COARSE_POINTS matrices of every cell of a
kernel (below: up to LANES cells of one truncation): the coupling
between two blocks is zero, so each block's pivots are those of its
matrix alone, and each cell gets its own verdict.  They are formed for (H - level) / 2^m with
2^m >= N (below), a
power of two, which moves no sign and no rounding but keeps every entry
of H / 2^m at most 1 in size; so a quotient e / p that overflows, p > 0,
makes the next pivot -inf, the sign of the exact one, whose e^2 / p then
exceeds 2^970.  A pivot that is zero, negative or NaN is a failure, so
the check fails closed: dpttrf stops at the first pivot <= 0 (info > 0),
and since that test lets a NaN through, the pivots are read as well.
Either fails the cell whose block holds that pivot; the pivots after it
are unfactored, or carry the NaN on, so the stack from the next cell on
is factored again.  info < 0 (an illegal argument) is a ConvergenceError
for every cell of the call, as a failed dstev is for its cell; it is
never read as a verdict.  A failure is a ConvergenceError: e0 has a
second minimum that the candidate missed, which for the candidate
psi = 0 is a first-order jump.

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
by that error over F's slope 2 (r0 - 1), which vanishes at the boundary.
Against a 40-digit root over 18 mu in lobes 0, 1 and 4 (default
truncation), |dpsi*| is at most 7.6e-13 at D/D_b - 1 = 1e-3, 2.8e-11 at
1e-5, 2.8e-9 at 1e-6 and 2.9e-9 at 1e-9, so GOLDEN_TOL holds there; at
1e-10 2 of the 18 cells miss it and at 1e-11 4 do, by up to 3.1e-8.  Over
1,500 random cells in lobes 0 to 4 with n_max up to 24, only cells at
D = D_cv (1 + 10^-k), k >= 9, miss it (D_cv the closed-form boundary),
and from 1% above the boundary on the root is accurate to 3e-13, which
makes the truncation-drift guarantee (<= 1e-8 per two extra Fock
levels) meetable.  r0 carries no bias, so psi* = 0.0 comes back above
the boundary only where the rounding of r0 = 2 D chi_n leaves it at 1, a
few ulps of D from D* = 1/(2 chi_n); from there on psi* > 0 or, where the
solves do not resolve <a>, a ConvergenceError (above).

Lockstep.  minimize_order_parameter takes one problem or a sequence of
them, and minimizes a sequence in lockstep: its cells of one truncation
share a _Kernel, LANES at a time, and their roots are the lanes of one
numerics.newton_root call, keyed by the cells' kernel rows, each lane
taking exactly the steps of its own scalar search.  A round builds the
tridiagonals of a kernel's open lanes in one array expression, calls
dstev once per open lane, and forms <a> and the slope of all of them
together with numpy's stacked matvec, vecmat and vecdot.  Those make,
lane by lane, the BLAS calls (gemv, dot) that np.dot makes on one lane,
so a cell has the bits of its one-cell call whatever else is in the
sequence.  One dpttrf then
certifies every cell of the kernel that has a grid, and a cell's failure
is its own outcome.  Each cell pays for its ``dstev`` calls and a share
of each round's numpy calls: each root step is one ``dstev`` plus a
share of the products that give <a> and the slope, 6 or 7 solves for a
superfluid cell away from the boundary,
where Brent's method took 10 to 12, and more next to it.  A round, and
a kernel, cost about a dozen numpy calls whatever the number of lanes,
so a cell costs less the more lanes share them: over 128 superfluid
cells of lobes 1 and 2 at n_max = 10, a cell takes 184 us alone, 143 us
two to a call, 112 us four, 95 us eight, 82 us sixteen and 77 us from 32
lanes on, against 124 us for the scalar search this replaced (a 2-core
x86-64 machine, numpy 2.4, one BLAS thread).  LANES = 32 is where that
gain ends; more lanes to a kernel would only hold more memory at once: a
kernel's arrays grow with its lanes, LANES (n_max + 1)^2 doubles of
eigenvectors and 2 COARSE_POINTS LANES (n_max + 1) of certificate, and a
call of 32 cells at MAX_N_MAX peaks at 44 MB.  A lone cell costs
more than the scalar search did, about 1.5 times as much at both
(mu, D) = (1.0, 0.5) and (1.0, 0.05), so every subcommand hands the
oracle its cells together: oracle-check every mu's two guards and its
cells, a variational sweep all of its superfluid cells, to
converged_psis, which passes them on CELLS_PER_CALL to a
minimize_order_parameter call.
A psi = 0 candidate takes no solve:
H(0) = diag(base), so it is the Fock state of the
lowest level, with that level as e0 and <a> = 0, the bits dstev returns
(its selection sort keeps the first of tied levels, as at a lobe
corner).  With r0 from the levels, a Mott cell thus takes no ``dstev``,
nor does a cell with B <= 0 or D = 0, where r0 = 0.
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

The Mott/superfluid boundary is not found by minimizing at all.  It is
where r0 = 2 D chi_n reaches 1, D* = 1/(2 chi_n), from the same chi_n,
so a cell just below it takes psi = 0 with no solve.  boundary_problems
gives D* and the two guard problems at D* (1 -/+ GUARD_STEP), and
check_boundary requires psi* = 0 exactly below and psi* > 0 above, since
linear stability cannot see a first-order jump: these two minimizations
are the boundary's non-perturbative evidence.  Where the lowest
truncated level is n_max, chi_n loses its (n + 1) term and would still
give a finite D, so the truncation cannot hold the lobe, and where two
lowest levels tie chi_n is infinite; both are ConvergenceErrors before
any minimization.  boundary_numeric minimizes the guards alone, and
oracle-check hands every mu's guards to one converged_psis call with its
cells.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, ConvergenceError, TruncationWarning
from .numerics import EPS, newton_root
from .landau import lobe_index

COARSE_POINTS = 41  # grid points over [0, sqrt(R)] and two steps past it
# published bound on |dpsi| of the minimizer: meets ~1e-13 deep in the
# superfluid, and fails within ~1e-9 relative of the boundary (docstring)
GOLDEN_TOL = 1e-8
BOUNDARY_TOL = 1e-6  # published bound on |dD| of boundary_numeric (meets ~1e-15)
ROOT_TOL = 1e-14  # bracket width of the root psi* in psi
GUARD_STEP = 1e-3  # relative offset in D of the two first-order guards
MIN_N_MAX = 4  # smallest Fock truncation a MeanFieldProblem accepts
# Largest one.  Each dstev computes all n_max + 1 eigenvectors, O(n_max^3)
# work, so one minimization takes about 0.3 s at 256 (3 ms at 64): the
# cap keeps a cell under a second, and no truncation changes exit status.
MAX_N_MAX = 256
LANES = 32  # most cells of one truncation that one kernel minimizes at once
# Most problems of one converged_psis call that one minimize_order_parameter
# call holds: past a few dozen lanes of one truncation the lockstep saves no
# more, and this keeps the outcomes a call holds at once, a few hundred
# bytes a cell, bounded.
CELLS_PER_CALL = 4096

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


def _lapack_error(routine, info):
    return ConvergenceError("LAPACK %s failed (info = %d)" % (routine, info))


def _check_overflow(problem):
    """ConvergenceError where H(psi) up to the grid's end overflows.

    Its entries are about |mu| n_max and 2.2 D B there; where those
    overflow, no eigensolve can be trusted.  The test grows with D, so it
    covers every smaller D as well.
    """
    mu, D = problem.mu_over_U, problem.D_eff
    if not math.isfinite(abs(mu) * problem.n_max
                         + 4.0 * D * max(mu + 1.0 + 2.0 * D, 1.0)):
        raise ConvergenceError("H(psi) overflows at mu = %r, D = %r"
                               % (mu, D))


class _Kernel:
    """H(psi) of up to LANES problems that share one truncation, one lane
    (row) each, overflow-tested by the caller: eigensolves, each a single
    LAPACK call, the exact ground state where H is diagonal, and the
    certificate's matrices.

    stationarity takes the root steps of a round of lanes in lockstep.
    It builds their tridiagonals in one array expression, calls dstev
    once per lane, in place, and forms c = V^T X v_0 and the slope of all
    of them together: numpy's stacked matvec, vecmat and vecdot make, lane
    by lane, the BLAS calls (gemv, dot) that np.dot makes on one lane, so
    a lane's bits do not depend on the others.  Its arrays hold the open
    lanes only: the leading rows of arrays made for the first round.
    """

    __slots__ = ("levels", "_mu", "_base", "_two_d", "_k", "_sqrt_k", "_x",
                 "_couplings", "_dstev", "_open", "_round", "_arrays",
                 "solved")

    def __init__(self, problems):
        k, k_k1, sqrt_k, x, couplings = _fock_arrays(problems[0].n_max)
        self.levels = k.size
        self._mu = [p.mu_over_U for p in problems]
        self._base = np.multiply.outer([-mu for mu in self._mu], k)
        self._base += k_k1
        self._two_d = [2.0 * p.D_eff for p in problems]
        self._k = k
        self._sqrt_k = sqrt_k
        self._x = x
        self._couplings = couplings
        self._dstev = _lapack()[0]
        self._open = None  # the rows stationarity's arrays hold
        self._round = None  # the arrays, made on its first call
        self.solved = {}  # per lane of a root search, its solves by psi

    def tridiag(self, psi):
        """H(psi)'s diagonal and off-diagonal for the first lane."""
        two_d = self._two_d[0]
        return self._base[0] + two_d * psi * psi, -two_d * psi * self._sqrt_k

    def eigenpair(self, psi):
        """(e0, unit vector in LAPACK's sign, <a>) of the first lane from one
        dstev; a failed dstev raises."""
        vals, vecs, info = self._dstev(*self.tridiag(psi), 1, 1, 1)
        if info != 0:
            raise _lapack_error("dstev", info)
        vec = vecs[:, 0]
        return (float(vals[0]), vec,
                float(np.dot(self._sqrt_k, vec[:-1] * vec[1:])))

    def fock_ground(self, row):
        """(e0, top component) of one lane's ground state at psi = 0,
        without a solve: H(0) = diag(base).

        The ground state is the Fock state of the lowest level, the first
        one of a tie, as dstev's selection sort keeps it, and <a> = 0.
        Adding 0.0 turns a -0.0 level into the 0.0 that tridiag(0.0)
        hands dstev.
        """
        base = self._base[row]
        k = int(base.argmin())
        return float(base[k]) + 0.0, 1.0 if k == base.size - 1 else 0.0

    def chi(self, row):
        """(n, chi_n) of one lane: n its lowest level, the first one of a
        tie, as fock_ground takes it, and
        chi_n = (n + 1) / (E_(n+1) - E_n) + n / (E_(n-1) - E_n), without
        the first term where n = n_max and the second where n = 0.

        The gaps are formed from mu, E_(n+1) - E_n = 2 n - mu and
        E_(n-1) - E_n = mu - 2 (n - 1), not as differences of two levels,
        which cancel next to a lobe corner.  chi_n is +inf where a gap is
        not positive: two lowest levels that tie, at a lobe corner or
        within the rounding of the levels next to one.
        """
        n, mu = int(self._base[row].argmin()), self._mu[row]
        chi = 0.0
        if n < self.levels - 1:
            up = 2.0 * n - mu
            if not up > 0.0:
                return n, math.inf
            chi += (n + 1) / up
        if n > 0:
            down = mu - 2.0 * (n - 1)
            if not down > 0.0:
                return n, math.inf
            chi += n / down
        return n, chi

    def _take(self, rows):
        """stationarity's arrays for the listed rows: the leading rows of
        arrays made on a first call, or anew for more rows."""
        size, n = len(rows), self.levels
        if self._round is None or len(self._round[4]) < size:
            d, e = np.empty((size, n)), np.empty((size, n - 1))
            # each lane's eigenvectors, a matrix in dstev's (Fortran) order
            v = np.zeros((size, n, n)).transpose(0, 2, 1)
            self._round = d, e, v, np.empty((2, size, 1)), list(zip(d, e, v))
        d, e, v, cols, lanes = self._round
        d, e, v, cols = d[:size], e[:size], v[:size], cols[:, :size]
        self._open = rows
        self._arrays = (
            self._base if size == len(self._two_d) else self._base[rows],
            [self._two_d[r] for r in rows], cols[0], cols[1], d, e,
            lanes[:size], v, v[:, :, 0], v[:, -1, 0], d[:, :2], d[:, :1],
            d[:, 1:])

    def stationarity(self, rows, psis):
        """Per listed lane (F, F') at its psi, F = psi - <a> and
        F' = 1 - d<a>/dpsi, from one dstev, or the ConvergenceError of a
        failed one: newton_root's f, with the open lanes' rows as ids.
        rows are increasing, and its arrays are taken anew when they are
        not the list object of the round before.  Each solve's (e0,
        <a>, top component of the ground vector) goes into
        solved[row][psi].

        With c = V^T X v_0, <a> = c_0 / 2 and the slope is
        2 D sum_(n >= 1) c_n^2 / (lambda_n - lambda_0) (module docstring):
        NaN unless the first gap is positive, and it may be infinite.
        """
        if rows is not self._open:
            self._take(rows)
        (base, two_d, shift, hop, d_all, e_all, lanes, v, v0, tops, low, d0,
         d1) = self._arrays
        for i, p in enumerate(psis):
            shift[i, 0] = two_d[i] * p * p
            hop[i, 0] = -two_d[i] * p
        np.add(base, shift, d_all)
        np.multiply(hop, self._sqrt_k, e_all)
        solve, failed = self._dstev, {}
        for i, (d, e, vecs) in enumerate(lanes):
            w, z, info = solve(d, e, 1, 1, 1)
            if info != 0:
                failed[i] = _lapack_error("dstev", info)
                d[:] = self._k  # levels and products that divide safely
                vecs[...] = 0.0
                continue
            if w is not d:  # dstev did not solve in place
                d[:] = w
            vecs[...] = z
        c = np.vecmat(np.matvec(self._x, v0), v)
        low = low.tolist()
        gap = d1 - d0
        for i, (l0, l1) in enumerate(low):
            if not l1 > l0:  # no division by a first gap that is not positive
                gap[i] = 1.0
        c_n = c[:, 1:]
        sums = np.vecdot(c_n, np.divide(c_n, gap, gap)).tolist()
        out = []
        for i, (a_2, (l0, l1), top, p) in enumerate(
                zip(c[:, 0].tolist(), low, tops.tolist(), psis)):
            if i in failed:
                out.append(failed[i])
                continue
            a_exp = 0.5 * a_2
            self.solved[rows[i]][p] = l0, a_exp, top
            out.append((p - a_exp,
                        1.0 - (two_d[i] * sums[i] if l1 > l0 else math.nan)))
        return out

    def norms(self, rows, tops):
        """Gershgorin bound on ||H(psi)|| of each listed lane over
        0 <= psi <= its top."""
        big = np.abs(self._base).max(axis=1).tolist()
        root_n = math.sqrt(self._k[-1])
        return [big[r] + t * top * top + 2.0 * t * top * root_n
                for r, t, top in zip(rows, [self._two_d[r] for r in rows],
                                     tops)]

    def pivot_blocks(self, rows, grids, levels, norms):
        """The certificate's matrix for the listed lanes: the diagonal and
        couplings of the block-diagonal stack of (H(psi) - level) / 2^m,
        2^m >= norm, one block per psi of each lane's row of grids, lane
        after lane, all lanes in one array expression.  The coupling array
        has one entry per row: the last of each block is the 0 that
        separates it from the next.
        """
        scale = [math.ldexp(1.0, -math.frexp(x)[1]) for x in norms]
        h, scale, shift = np.array(
            [[self._two_d[r] * s for r, s in zip(rows, scale)], scale,
             [level * s for level, s in zip(levels, scale)]])[:, :, None]
        base = self._base if len(rows) == len(self._two_d) else self._base[rows]
        hg = h * grids
        d = np.add((hg * grids)[:, :, None], (base * scale)[:, None])
        np.subtract(d, shift[:, :, None], d)
        return d.reshape(-1), np.multiply(hg[:, :, None],
                                          self._couplings).reshape(-1)


_GRID_STEPS = np.arange(float(COARSE_POINTS))


def ground_energy(problem: MeanFieldProblem, psi: float):
    """Lowest eigenpair (e0, unit vector) of the tridiagonal Hamiltonian."""
    e0, vec, _ = _kernel(problem).eigenpair(psi)
    if vec[np.argmax(np.abs(vec))] < 0.0:
        vec = -vec  # fix the overall sign for reproducibility
    return e0, vec


def a_expectation(problem: MeanFieldProblem, psi: float) -> float:
    """Ground-state <a> = sum_k sqrt(k+1) v_k v_{k+1}."""
    return _kernel(problem).eigenpair(psi)[2]


def _kernel(problem):
    """The one-lane kernel of problem, after its overflow test."""
    _check_overflow(problem)
    return _Kernel([problem])


def _positive_blocks(d, e, size):
    """Per block of size rows of a block-diagonal tridiagonal: True if
    every LDL^T pivot of the block is positive.

    d is the diagonal and e[:-1] the couplings of the stack, zero between
    blocks.  One dpttrf factors the stack.  A pivot that is not positive,
    NaN included, fails its block; dpttrf stops at the first one <= 0
    (info > 0) but passes a NaN on, into the blocks after it, so the
    pivots are read too, and every block past the first failing one is
    factored again.  info < 0 is a LAPACK failure and raises
    ConvergenceError.
    """
    dpttrf = _lapack()[1]
    verdicts = []
    start = 0
    while start < d.size:
        pivots, _, info = dpttrf(d[start:], e[start:-1])
        if info < 0:
            raise _lapack_error("dpttrf", info)
        if info == 0 and pivots.min() > 0.0:
            return verdicts + [True] * ((d.size - start) // size)
        block = int(np.argmin(pivots > 0.0)) // size  # not positive, or NaN
        verdicts += [True] * block + [False]
        start += (block + 1) * size
    return verdicts


def _minimize(problems):
    """Minimize every problem's e0(psi) (module docstring): the lanes of
    one truncation in lockstep, up to LANES at a time.

    Returns one (outcome, top) per problem: its OracleResult and the top
    Fock component of its ground vector, or its ConvergenceError and None.
    """
    out = [None] * len(problems)
    by_n_max = {}
    for lane, problem in enumerate(problems):
        try:
            _check_overflow(problem)
        except ConvergenceError as exc:
            out[lane] = exc, None
            continue
        by_n_max.setdefault(problem.n_max, []).append(lane)
    for lanes in by_n_max.values():
        for start in range(0, len(lanes), LANES):
            chunk = lanes[start:start + LANES]
            for lane, outcome in zip(chunk, _minimize_kernel(
                    [problems[lane] for lane in chunk])):
                out[lane] = outcome
    return out


def _minimize_kernel(problems):
    """_minimize's outcomes for problems that share one kernel.

    The zero-field response r0 = 2 D chi_n decides each candidate: psi = 0
    unless r0 > 1, and then the root of F, the roots of all lanes in one
    newton_root.  Every candidate with a grid (B > 0) is then certified,
    all in one dpttrf.
    """
    kernel = _Kernel(problems)
    # per row its candidate (psi, e0, <a>, top component), or its error
    found = [None] * len(problems)
    steps = {}  # per row with B > 0 its grid step, sqrt(R) / (COARSE_POINTS - 3)
    brackets, ratio = {}, {}  # per row of the root search its bracket and r0
    for row, problem in enumerate(problems):
        bound = problem.mu_over_U + 1.0 + 2.0 * problem.D_eff
        if bound > 0.0:
            steps[row] = (math.sqrt(min(bound, problem.n_max))
                          / (COARSE_POINTS - 3))
            if problem.D_eff != 0.0:  # else H is diagonal: r0 = 0
                r0 = 2.0 * problem.D_eff * kernel.chi(row)[1]
                if r0 > 1.0:
                    brackets[row] = 0.0, steps[row] * (COARSE_POINTS - 1)
                    ratio[row] = r0
                    kernel.solved[row] = {}
                    continue
        e0, top_v = kernel.fock_ground(row)  # the candidate psi = 0
        found[row] = 0.0, e0, 0.0, top_v
    if brackets:
        def landau_root(row, p, f):  # x_m of the module docstring
            r = ratio[row]
            return p * math.sqrt((r - 1.0) / (f / p + r - 1.0))

        # F(p) = p - <a>(p) = e0'(p) / (4 D); 1 - r0 < 0 carries the sign
        # of F just above 0, where F(0) itself is 0
        roots = newton_root(kernel.stationarity, brackets, tol=ROOT_TOL,
                            model=landau_root,
                            flo={row: 1.0 - r for row, r in ratio.items()})
        for row, root in roots.items():
            if isinstance(root, ValueError):
                root = ConvergenceError(
                    "no stationary point of e0 in [%.6g, %.6g] at mu = %r, "
                    "D = %r" % (*brackets[row], problems[row].mu_over_U,
                                problems[row].D_eff))
            elif not (isinstance(root, ConvergenceError) or any(
                    p <= a for p, (_, a, _) in kernel.solved[row].items())):
                # the bracket shrank onto 0 with F > 0 at every solve
                root = ConvergenceError(
                    "F = psi - <a> > 0 at every psi solved, down to %.3g, at "
                    "mu = %r, D = %r, though r0 = %r > 1 makes F < 0 just "
                    "above 0: the solves do not resolve <a>" % (
                        min(kernel.solved[row]), problems[row].mu_over_U,
                        problems[row].D_eff, ratio[row]))
            found[row] = root if isinstance(root, ConvergenceError) else (
                (root,) + kernel.solved[row][root])
    _certify(kernel, problems, found, steps)
    return [(cand, None) if isinstance(cand, ConvergenceError) else
            (OracleResult(psi_star=cand[0], e0=cand[1], a_expect=cand[2],
                          converged=abs(cand[0] - cand[2]) <= 1e-9), cand[3])
            for cand in found]


def _certify(kernel, problems, found, steps):
    """Check every candidate with a grid against it, in one dpttrf (module
    docstring); a failure replaces the candidate in found."""
    rows = [row for row in steps if found[row].__class__ is tuple]
    if not rows:
        return
    keep, grid_steps, levels, norms = [], [], [], []
    for row, norm in zip(rows, kernel.norms(
            rows, [steps[row] * (COARSE_POINTS - 1) for row in rows])):
        slack = 2.0 * (kernel.levels + 9) * EPS * norm
        if math.isfinite(slack):
            keep.append(row)
            grid_steps.append(steps[row])
            levels.append(found[row][1] - slack)
            norms.append(norm)
        else:
            found[row] = ConvergenceError(
                "H(psi) overflows at mu = %r, D = %r"
                % (problems[row].mu_over_U, problems[row].D_eff))
    if not keep:
        return
    grids = np.multiply.outer(grid_steps, _GRID_STEPS)
    try:
        verdicts = _positive_blocks(
            *kernel.pivot_blocks(keep, grids, levels, norms),
            COARSE_POINTS * kernel.levels)
    except ConvergenceError as exc:
        verdicts = [exc] * len(keep)
    for row, verdict in zip(keep, verdicts):
        if verdict is False:
            psi, e0 = found[row][:2]
            verdict = ConvergenceError(
                "e0 has a second minimum at mu = %r, D = %r: a point of the "
                "grid lies below e0(%r) = %r" % (
                    problems[row].mu_over_U, problems[row].D_eff, psi, e0))
        if verdict is not True:
            found[row] = verdict


class OracleResults(tuple):
    """minimize_order_parameter's outcome for a sequence of problems: per
    problem its OracleResult, or the ConvergenceError it alone would
    raise."""

    __slots__ = ()

    @property
    def converged(self):
        """True if every problem has a result that met stationarity."""
        return all(isinstance(res, OracleResult) and res.converged
                   for res in self)


def minimize_order_parameter(problem):
    """Minimize e0(psi) over psi >= 0; see module docstring.

    problem is one MeanFieldProblem, whose OracleResult comes back or
    whose failure raises, or a sequence of them, minimized in lockstep,
    for an OracleResults.  Each problem gets the bits of its one-cell
    call, whatever else is in the sequence, and a TruncationWarning where
    its result needs one, in problem order.
    """
    one = isinstance(problem, MeanFieldProblem)
    outcomes = []
    for outcome, top in _minimize((problem,) if one else problem):
        if top is not None:
            _warn_truncation(top)
        outcomes.append(outcome)
    if not one:
        return OracleResults(outcomes)
    if isinstance(outcomes[0], ConvergenceError):
        raise outcomes[0]
    return outcomes[0]


def _converged(problem, res):
    """res's psi*, or its error, or the error of a result that did not
    meet stationarity."""
    if isinstance(res, ConvergenceError):
        return res
    if not res.converged:
        return ConvergenceError(
            "oracle did not converge at mu = %r, D = %r: |psi - <a>| = %.3g"
            % (problem.mu_over_U, problem.D_eff,
               abs(res.psi_star - res.a_expect)))
    return res.psi_star


def converged_psis(problems):
    """psi* of each problem, or the ConvergenceError of one that failed or
    did not meet stationarity, from one minimize_order_parameter call per
    CELLS_PER_CALL problems, in order."""
    psis = []
    for start in range(0, len(problems), CELLS_PER_CALL):
        chunk = problems[start:start + CELLS_PER_CALL]
        psis += map(_converged, chunk, minimize_order_parameter(chunk))
    return psis


def _warn_truncation(top):
    weight = float(top) ** 2
    if weight > 1e-8:
        warnings.warn("ground state carries weight %.3g on the top Fock level; "
                      "increase n_max" % weight, TruncationWarning, stacklevel=3)


def boundary_numeric(mu: float, n_max=None) -> float:
    """Hopping D* at which psi = 0 stops being stable, 1/(2 chi_n), checked
    by two full minimizations.

    n_max=None takes MeanFieldProblem's default truncation, lobe + 8.

    boundary_problems gives D* and the two guards, converged_psis
    minimizes them in one call, and check_boundary rules out a first-order
    jump; a guard's failure is raised, the one below first.
    """
    D_star, guards = boundary_problems(mu, n_max)
    check_boundary(mu, D_star, *converged_psis(guards))
    return D_star


def boundary_problems(mu: float, n_max=None):
    """(D*, the two guard problems at D* (1 - GUARD_STEP) and
    D* (1 + GUARD_STEP)), with no solve.

    D* = 1/(2 chi_n) is where the zero-field response r0 = 2 D chi_n of
    the truncated problem reaches 1 (module docstring), from the kernel's
    chi, so the guard below takes psi = 0 with no solve.  ConvergenceError
    where the truncated problem has no such boundary: where its lowest
    level is n_max, whose chi_n lacks the (n + 1) term, so the truncation
    cannot hold the lobe, and where two lowest levels tie, next to a lobe
    corner, so chi_n is infinite.
    """
    problem = MeanFieldProblem(mu, 0.0, n_max)
    n, chi = _kernel(problem).chi(0)
    if n == problem.n_max:
        raise ConvergenceError(
            "no boundary at mu = %r, n_max = %d: the lowest Fock level is "
            "n_max, so the truncation cannot hold the lobe" % (mu, n))
    if chi == math.inf:
        raise ConvergenceError(
            "no boundary at mu = %r, n_max = %d: its two lowest Fock levels "
            "tie, as at a lobe corner" % (mu, problem.n_max))
    D_star = 0.5 / chi
    return D_star, [MeanFieldProblem(mu, D_star * (1.0 - GUARD_STEP), n_max),
                    MeanFieldProblem(mu, D_star * (1.0 + GUARD_STEP), n_max)]


def check_boundary(mu: float, D_star: float, below, above) -> None:
    """Raise unless the guards' outcomes, converged_psis entries, make D* a
    second-order boundary: psi* exactly 0 below it and positive above it.
    A first-order jump is invisible to linear stability; a guard's own
    error is raised first, the one below first."""
    for psi in (below, above):
        if isinstance(psi, ConvergenceError):
            raise psi
    if below != 0.0 or not above > 0.0:
        raise ConvergenceError(
            "boundary at mu = %r, D* = %r is not second order: psi* = %r "
            "below it and %r above it" % (mu, D_star, below, above))
