import math

import pytest

from rotobh.errors import (ConfigError, DegenerateGapError, DomainError,
                           InvalidExpansionError)
from rotobh.landau import (a2, a4, a4_bracket, chi_susceptibility, kappa,
                           lobe_interval, order_parameter_landau)


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
    # a subnormal gap next to the corner mu = 0 overflows chi
    for mu, n in ((-5e-324, 0), (-1e-310, 0), (1e-320, 1)):
        with pytest.raises(DomainError):
            chi_susceptibility(mu, n)


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


def test_a4_overflow_is_a_domain_error():
    # 16 D^4 B stays a plain product while finite; past that it raises,
    # whether the product overflows to inf (D = 1e77) or float ** raises
    # OverflowError (D = 1e78), and psi follows rather than reading 0
    B = a4_bracket(1.0, 1)
    assert a4(1e76, 1.0, 1) == 16.0 * 1e76 ** 4 * B
    for D in (1e77, 1e78, 1e100, math.inf):
        with pytest.raises(DomainError):
            a4(D, 1.0, 1)
        with pytest.raises(DomainError):
            order_parameter_landau(D, 1.0, 1)


def test_a4_bracket_unrepresentable_gap_is_a_domain_error():
    # a gap power that underflows to 0 (next to the corner mu = 0) or
    # overflows (deep in the vacuum lobe) is an error, not a traceback
    for mu, n in ((-1e-200, 0), (1e-200, 1), (-5e-324, 0), (-1e200, 0)):
        with pytest.raises(DomainError):
            a4_bracket(mu, n)


def test_a4_bracket_positive_across_lobes():
    # the quartic term must bound the energy from below everywhere we
    # evaluate psi, including close to the corners
    for n, lo, hi in ((1, 0.0, 2.0), (2, 2.0, 4.0), (3, 4.0, 6.0)):
        for i in range(1, 200):
            mu = lo + (hi - lo) * i / 200.0
            assert a4_bracket(mu, n) > 0.0, (mu, n)
    for mu in (-0.01, -0.5, -2.0, -10.0):
        assert a4_bracket(mu, 0) > 0.0
    # deep in the vacuum lobe a + 1 rounds to a = -mu and the bracket's
    # first pair cancels to B = 0, which psi reports as an error rather
    # than divide by
    assert a4_bracket(-1e16, 0) == 0.0
    with pytest.raises(InvalidExpansionError):
        order_parameter_landau(2e16, -1e16, 0)


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

