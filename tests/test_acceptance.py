"""Acceptance gate: nine numbered criteria, one printed verdict each.

Run with plain pytest; output capture is disabled project-wide so the
PASS/FAIL lines always reach the terminal.  Criterion 5 pins the
exact-mode resolution to an independent closed form.  With c = cos(theta),
delta^2 = u^2 (1 - u) is a cubic in u = c / cos(theta - dtheta), so the
rising-branch half-maximum is its root u in (2/3, 1] at the level
delta_max^2 / 4, and epsilon_theta = theta - arccos(c / u).  The program
solves the same cubic in another closed form (Viete's, in sensing), and
the two must agree to 1e-9.  That form
gives epsilon_theta ~ (1 - sqrt(3)/2) theta as theta -> 0, so the width
rises from zero to a hump near theta ~ 0.58 and falls beyond it; the
criterion checks both the values and that shape on theta = 0.3 .. 1.2.
"""

import math
import random

import numpy as np

from rotobh import io as rio
from rotobh.landau import kappa
from rotobh.numerics import bisect_root, lambert_w
from rotobh.oracle import (MeanFieldProblem, boundary_numeric, ground_energy,
                           minimize_order_parameter)
from rotobh.phase_diagram import SweepSpec, boundary_hopping, lobe_tip, sweep
from rotobh.sensing import (delta_exact, delta_max, fit_a,
                            invert_rotation_change, peak_offset, resolution,
                            theta_crossover)
from test_oracle import dense_hamiltonian


def verdict(number, label, failures):
    state = "PASS" if not failures else "FAIL (%s)" % "; ".join(failures)
    print("ACCEPTANCE %d %s: %s" % (number, label, state))
    assert not failures, failures


def test_acceptance_1_boundary_closed_form():
    failures = []
    if abs(boundary_hopping(1.0, 1, "paper") - 1.0 / 3.0) > 1e-12:
        failures.append("D_c(1, 1) != 1/3")
    mu1, D1 = lobe_tip(1)
    if abs(mu1 - 2.0 * (math.sqrt(2.0) - 1.0)) > 1e-9:
        failures.append("lobe-1 tip mu* off: %r" % mu1)
    if abs(D1 - 2.0 * (3.0 - 2.0 * math.sqrt(2.0))) > 1e-9:
        failures.append("lobe-1 tip D* off: %r" % D1)
    _, D2 = lobe_tip(2)
    if abs(D2 - (10.0 - 4.0 * math.sqrt(6.0))) > 1e-9:
        failures.append("lobe-2 tip D* off: %r" % D2)
    verdict(1, "boundary closed form", failures)


def test_acceptance_2_convention_ratio():
    mus = list(np.linspace(0.15, 1.85, 10)) + list(np.linspace(2.15, 3.85, 10))
    failures = []
    worst = 0.0
    for mu in mus:
        n = int(mu // 2) + 1
        ratio = boundary_numeric(mu, 12) / boundary_hopping(mu, n, "paper")
        worst = max(worst, abs(ratio - 0.5))
        if abs(ratio - 0.5) > 1e-3:
            failures.append("ratio %.6f at mu = %.3f" % (ratio, mu))
    print("  [2] 20-point boundary ratio, worst |ratio - 0.5| = %.2e" % worst)
    verdict(2, "oracle/closed-form boundary ratio 0.500", failures)


def test_acceptance_3_landau_oracle_agreement():
    theta = 0.8
    failures = []
    for mu in (0.6, 1.0, 1.4):
        kap = kappa(mu, 1, "variational")
        t_edge = boundary_hopping(mu, 1, "variational") / math.cos(theta)
        for dtheta in (0.002, 0.005):
            D = t_edge * math.cos(theta - dtheta)
            psi = minimize_order_parameter(MeanFieldProblem(mu, D, 12)).psi_star
            pred = kap * delta_exact(theta, dtheta)
            if psi > 0.1:
                failures.append("psi %.3f beyond the small-psi regime" % psi)
            rel = abs(psi - pred) / pred
            if rel > 0.02:
                failures.append("rel err %.4f at mu = %g, dtheta = %g"
                                % (rel, mu, dtheta))
    verdict(3, "kappa*delta matches variational oracle to 2%", failures)


def test_acceptance_4_sensing_constants():
    failures = []
    if abs(resolution(1.0, "fit").delta_max - math.exp(-1.0)) > 1e-12:
        failures.append("fit-mode peak is not 1/e")
    if abs(delta_max(1.0) - 2.0 / (3.0 * math.sqrt(3.0))) > 1e-12:
        failures.append("exact-mode plateau is not 2/(3 sqrt 3)")
    if abs(theta_crossover("exact") - math.acos(2.0 / 3.0)) > 1e-10:
        failures.append("exact threshold is not arccos(2/3)")
    w0 = lambert_w(-0.5 * math.exp(-1.0))
    if abs(w0 * w0 - 0.053806) > 1e-6:
        failures.append("W0(-1/(2e))^2 = %r" % (w0 * w0,))
    verdict(4, "sensing constants", failures)


def half_max_closed_form(theta):
    """Rising-branch half-maximum of delta from the cubic in u, solved
    trigonometrically: the largest root of u^3 - u^2 + k = 0."""
    c = math.cos(theta)
    peak_sq = c * c * (1.0 - c) if c >= 2.0 / 3.0 else 4.0 / 27.0
    k = 0.25 * peak_sq
    u = 1.0 / 3.0 + 2.0 / 3.0 * math.cos(math.acos(1.0 - 13.5 * k) / 3.0)
    return theta - math.acos(c / u)


def test_acceptance_5_resolution_behavior():
    thetas = [round(0.3 + 0.1 * i, 1) for i in range(10)]
    eps = {th: resolution(th, mode="exact").epsilon_theta for th in thetas}
    closed = {th: half_max_closed_form(th) for th in thetas}
    failures = []
    off = [th for th in thetas if abs(eps[th] - closed[th]) > 1e-9]
    if off:
        failures.append("half-maximum off the closed form at %s" %
                        ", ".join("%.1f (%.2e)" % (th, eps[th] - closed[th])
                                  for th in off))
    # the closed form rises strictly to 0.6 and falls strictly after it;
    # the resolution must follow the same sign pattern
    pairs = list(zip(thetas, thetas[1:]))
    expected = [closed[b] > closed[a] for a, b in pairs]
    if expected != [b <= 0.6 for a, b in pairs]:
        failures.append("closed form is not a hump at 0.6")
    wrong = [(a, b) for (a, b), up in zip(pairs, expected)
             if not (eps[b] > eps[a] if up else eps[b] < eps[a])]
    if wrong:
        failures.append("epsilon_theta breaks the rise-then-fall shape on %s"
                        % ", ".join("%.1f -> %.1f" % p for p in wrong))
    if abs(eps[1.0] - 0.0271) > 5e-4:
        failures.append("eps(1.0) = %.6f" % eps[1.0])
    if abs(eps[0.6] - 0.0497) > 5e-4:
        failures.append("eps(0.6) = %.6f" % eps[0.6])
    bad_rms = [(th, fit_a(th)[1]) for th in np.arange(0.5, 1.1001, 0.1)
               if fit_a(th)[1] > 0.02]
    if bad_rms:
        failures.append("fit rms above 0.02: %s" % bad_rms)
    verdict(5, "resolution on the closed-form hump (rises to 0.6, then "
            "falls) plus spot values", failures)


def test_acceptance_6_bh_parameter_independence():
    theta = 0.8
    failures = []
    widths = set()
    eps = resolution(theta, mode="exact").epsilon_theta
    for t in (0.1, 0.3, 0.5):
        for mu in (0.6, 1.0, 1.4):
            # full pipeline: the measured profile carries kappa(mu), the
            # hopping fixes the operating point, and neither may leak
            # into the extracted width
            kap = kappa(mu, 1, "variational")
            pk = peak_offset(theta)
            top = kap * delta_exact(theta, pk)
            widths.add(bisect_root(
                lambda d: kap * delta_exact(theta, d) - 0.5 * top,
                0.0, pk, tol=1e-10))
            # resolution()'s width is the half-maximum of this profile
            if not (kap * delta_exact(theta, eps - 1e-12) < 0.5 * top
                    < kap * delta_exact(theta, eps + 1e-12)):
                failures.append("resolution() width %r does not bracket "
                                "the half-maximum at t = %g, mu = %g"
                                % (eps, t, mu))
    if len(widths) != 1:
        failures.append("%d distinct widths across (t, mu): %s"
                        % (len(widths), sorted(widths)))
    verdict(6, "epsilon_theta independent of t/U and mu/U (bit-identical)",
            failures)


def test_acceptance_7_oracle_integrity():
    failures = []
    for mu, D in ((1.0, 0.25), (0.6, 0.2), (3.0, 0.15), (-0.5, 0.4)):
        prob = MeanFieldProblem(mu, D)
        res = minimize_order_parameter(prob)
        e0, vec = ground_energy(prob, res.psi_star)
        H = dense_hamiltonian(prob, res.psi_star)
        residual = float(np.linalg.norm(H @ vec - e0 * vec))
        if residual > 1e-10:
            failures.append("eigen-residual %.2e at (%g, %g)"
                            % (residual, mu, D))
        if abs(res.psi_star - res.a_expect) > 1e-6:
            failures.append("stationarity %.2e at (%g, %g)"
                            % (abs(res.psi_star - res.a_expect), mu, D))
        h = 1e-6
        grad = (ground_energy(prob, res.psi_star + h)[0]
                - ground_energy(prob, res.psi_star - h)[0]) / (2.0 * h)
        if abs(grad) > 1e-4:
            failures.append("gradient %.2e at (%g, %g)" % (grad, mu, D))
        bigger = MeanFieldProblem(mu, D, prob.n_max + 2)
        drift = abs(minimize_order_parameter(bigger).psi_star - res.psi_star)
        if drift > 1e-8:
            failures.append("truncation drift %.2e at (%g, %g)"
                            % (drift, mu, D))
    verdict(7, "oracle integrity", failures)


def test_acceptance_8_roundtrip_sensing():
    rng = random.Random(20260814)
    gamma = 0.043
    failures = []
    worst = 0.0
    for _ in range(100):
        mu = rng.uniform(0.1, 1.9)
        theta = rng.uniform(0.3, 1.2)
        dtheta = rng.uniform(0.01, 0.99) * peak_offset(theta)
        measured = kappa(mu, 1) * delta_exact(theta, dtheta)
        recovered = invert_rotation_change(measured, mu, 1, theta, gamma)
        rel = abs(recovered.delta_omega - dtheta / gamma) / (dtheta / gamma)
        worst = max(worst, rel)
        if rel > 1e-8:
            failures.append("rel err %.2e at mu=%.3f theta=%.3f dtheta=%.4f"
                            % (rel, mu, theta, dtheta))
    print("  [8] 100 seeded roundtrips, worst relative error = %.2e" % worst)
    verdict(8, "rotation-change roundtrip to 1e-8", failures)


def test_acceptance_9_determinism():
    mu_axis = tuple(np.linspace(-0.5, 3.5, 9))
    D_axis = tuple(np.linspace(0.02, 0.4, 8))
    failures = []
    texts = set()
    for workers in (1, 2, 4):
        for _ in range(2):
            grid = sweep(SweepSpec(kind="diagram", mu_values=mu_axis,
                                   D_values=D_axis, workers=workers))
            texts.add(rio.csv_text("phase-diagram", grid.columns, grid.rows))
    if len(texts) != 1:
        failures.append("landau sweep emitted %d distinct files" % len(texts))
    texts = set()
    for workers in (1, 4):
        grid = sweep(SweepSpec(kind="diagram", psi_method="variational",
                               n_max=10, mu_values=(0.5, 1.0, 1.5),
                               D_values=(0.1, 0.2, 0.3), workers=workers))
        texts.add(rio.csv_text("phase-diagram", grid.columns, grid.rows))
    if len(texts) != 1:
        failures.append("oracle sweep emitted %d distinct files" % len(texts))
    verdict(9, "byte-identical sweeps under any worker count", failures)
