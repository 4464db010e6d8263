import math

import pytest

from rotobh.errors import ConfigError, DegenerateGapError, DomainError
from rotobh.landau import (a2, a4, a4_bracket, chi_susceptibility,
                           energy_gap, kappa, landau_coefficients,
                           lobe_interval, local_energy,
                           order_parameter_landau)


def test_local_levels():
    assert local_energy(0, 1.3) == 0.0
    assert local_energy(1, 1.3) == -1.3
    assert local_energy(2, 1.3) == pytest.approx(-0.6)
    assert local_energy(3, -0.5) == 7.5
    assert energy_gap(2, 1, 1.3) == pytest.approx(0.7)
    with pytest.raises(DomainError):
        local_energy(-1, 0.5)


def test_lobe_intervals():
    assert lobe_interval(0) == (-math.inf, 0.0)
    assert lobe_interval(1) == (0.0, 2.0)
    assert lobe_interval(3) == (4.0, 6.0)
    with pytest.raises(DomainError):
        lobe_interval(-1)


def test_chi_values():
    # chi(mu, 1) = 2/(mu-2) + 1/(-mu)
    assert abs(chi_susceptibility(1.0, 1) + 3.0) < 1e-15
    assert abs(chi_susceptibility(0.5, 1) + (4.0 / 3.0 + 2.0)) < 1e-14
    assert abs(chi_susceptibility(-0.5, 0) + 2.0) < 1e-15
    assert abs(chi_susceptibility(3.0, 2) + (3.0 + 2.0)) < 1e-15
    # negative across lobe interiors
    for n, lo, hi in ((1, 0.0, 2.0), (2, 2.0, 4.0), (3, 4.0, 6.0)):
        for i in range(1, 20):
            mu = lo + (hi - lo) * i / 20.0
            assert chi_susceptibility(mu, n) < 0.0
    assert chi_susceptibility(-7.0, 0) < 0.0


def test_chi_corner_and_domain_errors():
    with pytest.raises(DegenerateGapError):
        chi_susceptibility(2.0, 1)
    with pytest.raises(DegenerateGapError):
        chi_susceptibility(0.0, 1)
    with pytest.raises(DegenerateGapError):
        chi_susceptibility(0.0, 0)
    with pytest.raises(DomainError):
        chi_susceptibility(2.5, 1)
    with pytest.raises(DomainError):
        chi_susceptibility(-0.5, 1)


def test_a2_variants():
    # D = 0.4, mu = 1, lobe 1: chi = -3
    assert abs(a2(0.4, 1.0, 1, "literal") - (-1.92)) < 1e-14
    assert abs(a2(0.4, 1.0, 1, "consistent") - (-0.32)) < 1e-14
    assert abs(a2(0.4, 1.0, 1, "variational") - (-1.12)) < 1e-14
    # roots: consistent at D = 1/3, variational at 1/6, literal never
    assert abs(a2(1.0 / 3.0, 1.0, 1, "consistent")) < 1e-15
    assert abs(a2(1.0 / 6.0, 1.0, 1, "variational")) < 1e-15
    assert a2(1e-9, 1.0, 1, "literal") < 0.0
    with pytest.raises(ConfigError):
        a2(0.1, 1.0, 1, "exotic")
    with pytest.raises(DomainError):
        a2(-0.1, 1.0, 1)


def test_a4_bracket_center_values():
    # worked by hand from the gap shorthand
    assert abs(a4_bracket(1.0, 1) - 7.5) < 1e-12
    assert abs(a4_bracket(-0.5, 0) - 16.0 / 3.0) < 1e-12
    assert abs(a4(0.4, 1.0, 1) - 3.072) < 1e-12


def test_a4_bracket_positive_across_lobes():
    # the quartic term must bound the energy from below everywhere we
    # evaluate psi, including close to the corners
    for n, lo, hi in ((1, 0.0, 2.0), (2, 2.0, 4.0), (3, 4.0, 6.0)):
        for i in range(1, 200):
            mu = lo + (hi - lo) * i / 200.0
            assert a4_bracket(mu, n) > 0.0, (mu, n)
    for mu in (-0.01, -0.5, -2.0, -10.0):
        assert a4_bracket(mu, 0) > 0.0


def test_order_parameter_closed_form():
    psi = order_parameter_landau(0.4, 1.0, 1)
    assert abs(psi - math.sqrt(0.32 / (2.0 * 3.072))) < 1e-15
    assert abs(psi - 0.2282177322938193) < 1e-14
    # Mott side and boundary give exactly zero
    assert order_parameter_landau(0.2, 1.0, 1) == 0.0
    assert order_parameter_landau(1.0 / 3.0, 1.0, 1) == 0.0
    # vacuum lobe
    assert abs(order_parameter_landau(0.6, -0.5, 0) - 0.14731391274719738) < 1e-12
    with pytest.raises(ConfigError):
        order_parameter_landau(0.4, 1.0, 1, "literal")


def test_order_parameter_onset_scaling():
    # just above the boundary, psi ~ kappa * sqrt(dD/D_c) in each variant
    D_c = 1.0 / 3.0
    for variant, edge in (("consistent", D_c), ("variational", 0.5 * D_c)):
        eps = 1e-6
        psi = order_parameter_landau(edge * (1.0 + eps), 1.0, 1, variant)
        pred = kappa(1.0, 1, variant) * math.sqrt(eps)
        assert math.isclose(psi, pred, rel_tol=1e-4)


def test_kappa_values_and_doubling():
    k1 = kappa(1.0, 1, "consistent")
    k2 = kappa(1.0, 1, "variational")
    assert abs(k1 - 0.6708203932499369) < 1e-14
    assert abs(k2 - 2.0 * k1) < 1e-14
    for mu in (0.3, 0.6, 1.0, 1.4, 2.5, 3.5, -0.8):
        n = 0 if mu < 0 else int(mu // 2) + 1
        assert math.isclose(kappa(mu, n, "variational"),
                            2.0 * kappa(mu, n, "consistent"), rel_tol=1e-14)
    with pytest.raises(ConfigError):
        kappa(1.0, 1, "literal")


def test_coefficient_bundle():
    c = landau_coefficients(0.4, 1.0, 1)
    assert c.a2_consistent == a2(0.4, 1.0, 1, "consistent")
    assert c.a2_literal == a2(0.4, 1.0, 1, "literal")
    assert c.a2_variational == a2(0.4, 1.0, 1, "variational")
    assert c.bracket_B == a4_bracket(1.0, 1)
    assert c.a4 == pytest.approx(3.072)
    assert c.lobe_n == 1
    assert c.valid
    with pytest.raises(DegenerateGapError):
        landau_coefficients(0.1, 2.0, 1)
