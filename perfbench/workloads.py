"""Seed-generated rotobh CLI job lists and the checks on their outputs.

Each workload is a fixed list of jobs whose structure (subcommands, grid
sizes, which cells are Mott and which superfluid) does not depend on the
seed; the seed only jitters the values, so every seed asks for the same
amount of work and no seed steers a job onto a lobe corner, a truncation
edge or an unreachable boundary.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Optional

from rotobh import cli, io, landau, sensing
from rotobh.phase_diagram import lobe_index

TOL = cli.TOLERANCES
# Closed-form columns must agree to rounding.
ROUNDING = 1e-12
# The surrogate fit is a comparison-based golden search over log10(a); near
# its flat minimum the abscissa is only determined to about sqrt(machine
# epsilon) (README, "Numerical notes").  Quantities derived from a(theta)
# carry at most twice that relative error.
FIT_REL = 2.0 * math.sqrt(2.0 ** -52)
# sensing.theta_crossover("fit") bisects a(theta) * theta = 1 to 1e-6.
CROSSOVER_FIT_TOL = 1e-6


@dataclass(frozen=True)
class Job:
    """One `rotobh` invocation.  twin names the job that must produce the
    same bytes (the --workers 1 run of a --workers 2 job); ref names the
    reference table, shared by the CSV and JSON runs of one command."""

    name: str
    argv: tuple
    ref: str
    twin: Optional[str] = None

    @property
    def subcommand(self):
        return self.argv[0]

    def flag(self, name, default=None):
        for i, token in enumerate(self.argv):
            if token == name:
                return self.argv[i + 1]
            if token.startswith(name + "="):
                return token.split("=", 1)[1]
        return default


def _f(x):
    return "%.4f" % x


def _both_formats(name, argv):
    return [Job(name + ".csv", tuple(argv), name),
            Job(name + ".json", tuple(argv) + ("--format", "json"), name)]


def _oracle_check(rng, name, lobe_starts, n_max):
    # mu stays in the middle 70% of its lobe (the vacuum lobe is taken as
    # (-2, 0)): near a corner the boundary closes, and near mu = -2 the
    # default truncation is too tight for the vacuum lobe
    mus = ",".join(_f(lo + 2.0 * rng.uniform(0.15, 0.85)) for lo in lobe_starts)
    argv = ["oracle-check", "--mu=" + mus, "--theta", _f(rng.uniform(0.7, 0.9))]
    if n_max != "default":
        argv += ["--n-max", n_max]
    name = "%s-nmax-%s" % (name, n_max)
    return Job(name, tuple(argv), name)


def oracle_validate(rng):
    """oracle-check with the default truncation and with 12 Fock levels.

    Eight one-point jobs, one in each of lobes 0-3, set the median; two
    README-style jobs with one mu in each of lobes 1-3 are the top fifth
    of latencies, so p90 falls between two jobs of the same size.
    """
    jobs = []
    for lobe, lo in ((0, -2.0), (1, 0.0), (2, 2.0), (3, 4.0)):
        for n_max in ("default", "12"):
            jobs.append(_oracle_check(rng, "lobe%d" % lobe, (lo,), n_max))
    for n_max in ("default", "12"):
        jobs.append(_oracle_check(rng, "lobes1-3", (0.0, 2.0, 4.0), n_max))
    return jobs


def _sorted_draws(rng, bands):
    return ",".join(_f(rng.uniform(lo, hi)) for lo, hi in bands)


# Bands keep each cell's label fixed for every seed and both conventions:
# vacuum mu in [-0.3, -0.2] has D_c in [0.2, 0.3]; lobe-1 mu in [0.5, 1.3]
# has D_c in [0.276, 0.343]; lobe-2 mu in [2.6, 3.4] has D_c in
# [0.156, 0.202].  D below 0.06 is Mott (or vacuum) even at D_c/2, and D
# above 0.45 is deep superfluid.
_MU_BANDS = ((-0.3, -0.2), (0.5, 0.85), (0.95, 1.3), (2.6, 2.95), (3.05, 3.4))
_D_BANDS = ((0.02, 0.035), (0.045, 0.06), (0.45, 0.5), (0.55, 0.6),
            (0.65, 0.7))


def variational_sweep(rng):
    """Variational phase-diagram and order-parameter sweeps.

    Four --workers 1 sweeps (two diagrams, two sensing loops, one per
    convention each) plus a --workers 2 twin of one diagram and one loop.
    Every sweep has 15 or 16 oracle cells, so the four single-worker jobs
    form one latency cluster around the median and the two pooled jobs
    the top one.
    """
    jobs = []
    for convention in ("paper", "variational"):
        name = "diagram-" + convention
        argv = ("phase-diagram", "--psi-method", "variational",
                "--convention", convention,
                "--mu-grid=" + _sorted_draws(rng, _MU_BANDS),
                "--d-grid", _sorted_draws(rng, _D_BANDS))
        jobs.append(Job(name, argv, name))
        # t = 0.04..0.06 stays Mott at any theta; t >= 0.8 with
        # theta <= 0.75 keeps D >= 0.58, deep superfluid
        name = "loop-" + convention
        start = rng.uniform(0.0, 0.05)
        argv = ("order-parameter", "--psi-method", "variational",
                "--convention", convention,
                "--mu", _f(rng.uniform(0.6, 1.2)),
                "--t-grid", _sorted_draws(rng, ((0.04, 0.06), (0.8, 0.9),
                                                (0.9, 1.0))),
                "--theta-grid", "%s:%s:0.1" % (_f(start), _f(start + 0.7)))
        jobs.append(Job(name, argv, name))
    pooled = [Job(j.name + "-workers2", j.argv + ("--workers", "2"), j.ref,
                  twin=j.name)
              for j in jobs if j.name in ("diagram-paper", "loop-variational")]
    return jobs + pooled


def figure_tables(rng):
    """The README's figure commands, in CSV and JSON.

    Grids are jittered except where noted below.
    """
    jobs = []
    mu0, d0 = rng.uniform(-0.52, -0.48), rng.uniform(0.008, 0.012)
    jobs += _both_formats("diagram", [
        "phase-diagram", "--mu-grid=%s:%s:0.1" % (_f(mu0), _f(mu0 + 4.0)),
        "--d-grid", "%s:%s:0.01" % (_f(d0), _f(d0 + 0.39))])
    jobs += _both_formats("loop-lab", [
        "order-parameter", "--mu", _f(rng.uniform(0.9, 1.1)), "--t-grid",
        _f(rng.uniform(0.38, 0.42)), "--omega-grid", "0:40:0.5",
        "--mass-amu", "87", "--radius-um", "10", "--sites", "20"])
    t0 = rng.uniform(0.14, 0.16)
    jobs += _both_formats("costheta", [
        "costheta-curve", "--t-grid", "%s:%s:0.01" % (_f(t0), _f(t0 + 0.45))])
    # sensitivity and fit-delta keep the README's own theta grids: both
    # subcommands step dtheta as theta * i / (points - 1), which rounds
    # past theta, and so exits with a domain error, for about 6% of
    # theta values (see CHANGES.md).
    jobs += _both_formats("sensitivity", [
        "sensitivity", "--theta-grid", "0.3:1.2:0.1", "--dtheta-points", "200"])
    th = rng.uniform(0.28, 0.32)
    grid = "%s:%s:0.05" % (_f(th), _f(th + 0.9))
    gamma = _f(rng.uniform(0.040, 0.046))
    for mode in ("exact", "fit"):
        jobs += _both_formats("resolution-" + mode, [
            "resolution", "--theta-grid", grid, "--mode", mode,
            "--gamma", gamma])
    jobs += _both_formats("fit-delta", [
        "fit-delta", "--theta-grid", "0.5:1.1:0.1"])
    for k in range(2):
        jobs += _both_formats("invert-%d" % k, [
            "invert", "--delta-measured", _f(rng.uniform(0.03, 0.07)),
            "--mu", _f(rng.uniform(0.9, 1.1)),
            "--theta", _f(rng.uniform(0.85, 0.95)), "--gamma", "0.043"])
    return jobs


WORKLOADS = {
    "oracle-validate": oracle_validate,
    "variational-sweep": variational_sweep,
    "figure-tables": figure_tables,
}


def make_jobs(workload, seed):
    return WORKLOADS[workload](random.Random("%s:%d" % (workload, seed)))


# -- parsing ------------------------------------------------------------

def parse_output(job, text):
    """(columns, rows, meta) of one job's output; meta is None for CSV."""
    if job.flag("--format", "csv") == "json":
        payload = json.loads(text)
        rows = tuple(tuple(math.nan if c is None else c for c in row)
                     for row in payload["rows"])
        return tuple(payload["columns"]), rows, payload["meta"]
    subcommand, columns, rows = io.parse_csv(text)
    if subcommand != job.subcommand:
        raise ValueError("table is tagged %r" % subcommand)
    return columns, rows, None


# -- invariants that every seed must satisfy ----------------------------

def _grid_len(text):
    return len(cli.parse_grid(text))


def _check_phase_cells(job, cols, rows):
    phase, psi = cols.index("phase"), cols.index("psi")
    for row in rows:
        label = row[phase]
        if label == "vacuum" or label.startswith("mott:"):
            if row[psi] != 0.0:
                return "psi = %r on a %s cell" % (row[psi], label)
        elif label == "superfluid":
            if not (math.isfinite(row[psi]) and row[psi] >= 0.0):
                return "psi = %r on a superfluid cell" % (row[psi],)
            if job.flag("--psi-method") == "variational" and row[psi] <= 0.0:
                return "deep superfluid cell has psi = 0"
        elif job.flag("--psi-method") == "variational":
            return "unexpected label %r" % (label,)
    return None


def _brackets(f, x, target, tol):
    """The rising function f crosses target within tol of x."""
    return f(max(x - tol, 0.0)) <= target <= f(x + tol)


def check_invariants(job, cols, rows):
    """None when the table satisfies its subcommand's invariants."""
    r = [dict(zip(cols, row)) for row in rows]
    cmd = job.subcommand
    if cmd == "oracle-check":
        want = _grid_len(job.flag("--mu")) * 2
        if len(r) != want:
            return "%d rows, expected %d" % (len(r), want)
        for row in r:
            if abs(row["ratio"] - 0.5) > 1e-3:
                return "boundary ratio %r is not 0.5 +- 1e-3" % row["ratio"]
            if abs(row["rel_err"]) > 0.02:
                return "kappa recovery error %r exceeds 0.02" % row["rel_err"]
        return None
    if cmd == "phase-diagram":
        want = _grid_len(job.flag("--mu-grid")) * _grid_len(job.flag("--d-grid"))
        if len(r) != want:
            return "%d rows, expected %d" % (len(r), want)
        return _check_phase_cells(job, cols, rows)
    if cmd == "order-parameter":
        axis = job.flag("--theta-grid") or job.flag("--omega-grid")
        want = _grid_len(job.flag("--t-grid")) * _grid_len(axis)
        if len(r) != want:
            return "%d rows, expected %d" % (len(r), want)
        return _check_phase_cells(job, cols, rows)
    if cmd == "costheta-curve":
        for row in r:
            c = row["costheta_c"]
            if row["status"] == "ok" and not 0.0 < c <= 1.0:
                return "critical cos(theta) %r outside (0, 1]" % c
        return None
    if cmd == "sensitivity":
        top = sensing.DELTA_GLOBAL_MAX * (1 + ROUNDING)
        for row in r:
            if not 0.0 <= row["delta"] <= top:
                return "delta %r outside [0, 2/(3 sqrt 3)]" % row["delta"]
        return None
    if cmd == "resolution":
        tol = TOL["bisection_dtheta"]
        for row in r:
            theta, eps = row["theta"], row["epsilon_theta"]
            if row["mode"] == "exact":
                def profile(d):
                    return sensing.delta_exact(theta, min(d, theta))
            else:
                def profile(d):
                    return float(sensing.fit_form(row["a_fit"], d))
            ok = _brackets(profile, eps, 0.5 * row["delta_max"], tol)
            if not ok:
                return "delta(%r, %r) is not delta_max/2" % (theta, eps)
        return None
    if cmd == "fit-delta":
        for row in r:
            if not row["rms"] <= sensing.FIT_RMS_THRESHOLD:
                return "fit rms %r above threshold" % row["rms"]
            if not 0.0 < row["delta_max_fit"] <= math.exp(-1) * (1 + ROUNDING):
                return "fit peak %r outside (0, 1/e]" % row["delta_max_fit"]
        return None
    if cmd == "invert":
        (row,) = r
        mu = float(job.flag("--mu"))
        kap = landau.kappa(mu, lobe_index(mu), "consistent")
        theta, dth = row["theta"], row["delta_theta"]
        ok = _brackets(
            lambda d: kap * sensing.delta_exact(theta, min(d, theta)),
            dth, row["delta_measured"], TOL["bisection_dtheta"])
        return None if ok else "kappa * delta(%r) misses the measurement" % dth
    return "no invariant for %r" % cmd


# -- reference tables (default seed only) --------------------------------

def _column_tol(job, row, column):
    """Absolute tolerance for one cell, from the tolerances rotobh states."""
    cmd = job.subcommand
    ref = row[column]
    if isinstance(ref, (str, bool)):
        return 0.0  # labels and flags match exactly
    rounding = ROUNDING * abs(ref) + 1e-300
    if cmd == "oracle-check":
        psi_rel = TOL["oracle_golden_dpsi"] / row["psi_star"]
        return {
            "D_cv_oracle": TOL["oracle_boundary_dD"],
            "ratio": TOL["oracle_boundary_dD"] / row["D_c_paper"],
            "psi_star": TOL["oracle_golden_dpsi"],
            "kappa_recovered": psi_rel * row["kappa_recovered"],
            "rel_err": psi_rel * row["kappa_recovered"] / row["kappa_variational"],
        }.get(column, rounding)
    if cmd in ("phase-diagram", "order-parameter") and column == "psi":
        if job.flag("--psi-method") == "variational":
            return TOL["oracle_golden_dpsi"]
    if cmd == "costheta-curve" and column in ("mu_over_U", "costheta_c"):
        return TOL["lobe_tip_dmu"]  # mu is each lobe's tip
    if cmd == "resolution":
        exact = row["mode"] == "exact"
        gamma = float(job.flag("--gamma"))
        fit = FIT_REL * abs(ref)
        if column == "epsilon_theta":
            return TOL["bisection_dtheta"] if exact else fit
        if column == "epsilon_omega":
            return TOL["bisection_dtheta"] / gamma if exact else fit
        if column == "a_fit" or (column == "delta_max" and not exact):
            return fit
    if cmd == "fit-delta" and column != "theta":
        return FIT_REL * abs(ref)
    if cmd == "invert":
        gamma = float(job.flag("--gamma"))
        if column == "delta_theta":
            return TOL["bisection_dtheta"]
        if column == "delta_omega":
            return TOL["bisection_dtheta"] / gamma
    return rounding


def _cells_match(got, want, tol):
    if isinstance(want, (str, bool)) or isinstance(got, (str, bool)):
        return got == want
    if isinstance(want, float) and math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    return abs(got - want) <= tol


def _meta_mismatch(got, want, path="meta"):
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return path
        for key, value in want.items():
            sub = "%s.%s" % (path, key)
            if key not in got:
                return sub + " missing"
            if key == "theta_crossover_fit":
                far = abs(got[key] - value) > CROSSOVER_FIT_TOL
                bad = sub if far else None
            else:
                bad = _meta_mismatch(got[key], value, sub)
            if bad:
                return bad
        return None
    if isinstance(want, float) and not isinstance(got, bool):
        ok = (isinstance(got, (int, float))
              and abs(got - want) <= ROUNDING * abs(want))
    else:
        ok = got == want
    return None if ok else path


def compare_reference(job, cols, rows, meta, reference):
    """None when the table matches the reference at the stated tolerances.

    Labels and integers must match exactly; meta is compared key by key
    for the keys the reference has, except the package version.
    """
    ref_cols, ref_rows = reference["columns"], reference["rows"]
    if tuple(cols) != tuple(ref_cols):
        return "columns %r differ from the reference" % (cols,)
    if len(rows) != len(ref_rows):
        return "%d rows, reference has %d" % (len(rows), len(ref_rows))
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        named = dict(zip(ref_cols, ref_row))
        for column, got, want in zip(ref_cols, row, ref_row):
            if not _cells_match(got, want, _column_tol(job, named, column)):
                return "row %d %s = %r, reference %r" % (i, column, got, want)
    if meta is not None:
        want = {k: v for k, v in reference["meta"].items() if k != "version"}
        bad = _meta_mismatch(meta, want)
        if bad:
            return "%s differs from the reference" % bad
    return None
