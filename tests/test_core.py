import math

import pytest

from rotobh.core import (ATOMIC_MASS, HBAR, effective_hopping, peierls_phase,
                         ring_gamma)
from rotobh.errors import ConfigError


def test_pinned_constants():
    assert HBAR == 1.054571817e-34
    assert ATOMIC_MASS == 1.66053906660e-27


def test_gamma_rb87_ring():
    # 87 amu, R = 10 um, N = 20 sites, against the definition written out
    gamma = ring_gamma(87.0, 10.0, 20)
    expected = 2.0 * math.pi * (87.0 * ATOMIC_MASS) * (10.0e-6) ** 2 \
        / (20.0 * HBAR)
    assert math.isclose(gamma, expected, rel_tol=1e-12)
    assert abs(gamma - 0.043037007117245854) < 1e-15
    assert gamma == 0.04303700711724584  # the bits the CLI has always used


def test_gamma_scalings():
    base = ring_gamma(87.0, 10.0, 20)
    heavier = ring_gamma(174.0, 10.0, 20)
    wider = ring_gamma(87.0, 20.0, 20)
    denser = ring_gamma(87.0, 10.0, 40)
    assert math.isclose(heavier, 2.0 * base, rel_tol=1e-12)
    assert math.isclose(wider, 4.0 * base, rel_tol=1e-12)
    assert math.isclose(denser, 0.5 * base, rel_tol=1e-12)


def test_theta_linear_and_signed():
    gamma = ring_gamma(87.0, 10.0, 20)
    assert peierls_phase(gamma, 3.0) == 3.0 * gamma
    assert peierls_phase(gamma, -3.0) == -peierls_phase(gamma, 3.0)
    assert peierls_phase(0.04, -2.0) == -0.08
    assert peierls_phase(0.04, 0.0) == 0.0


def test_effective_hopping():
    assert effective_hopping(0.2, 0.0) == 0.2
    assert abs(effective_hopping(0.2, math.pi / 3.0) - 0.1) < 1e-15
    assert effective_hopping(0.0, 1.1) == 0.0
    # even and 2 pi periodic in theta; negative past pi/2
    assert effective_hopping(0.2, 0.7) == effective_hopping(0.2, -0.7)
    assert math.isclose(effective_hopping(0.2, 0.7),
                        effective_hopping(0.2, 0.7 + 2.0 * math.pi),
                        rel_tol=1e-12)
    assert effective_hopping(0.2, 2.0) < 0.0
    assert effective_hopping(0.2, math.pi) == -0.2


def test_frame_validation():
    # lab units: 60 amu is about 1e-25 kg, 10 um is 1e-5 m
    with pytest.raises(ConfigError, match="mass must"):
        ring_gamma(-6.0, 10.0, 20)
    with pytest.raises(ConfigError, match="radius must"):
        ring_gamma(60.0, 0.0, 20)
    with pytest.raises(ConfigError, match="sites must"):
        ring_gamma(60.0, 10.0, 2)
    with pytest.raises(ConfigError, match="mass must"):
        ring_gamma(math.inf, 10.0, 20)
    for sites in (math.nan, math.inf, 20.5, 10 ** 400):
        with pytest.raises(ConfigError, match="sites must"):
            ring_gamma(60.0, 10.0, sites)


def test_frame_gamma_must_be_finite_and_positive():
    # radius ** 2 overflows (it raises, where a product gives inf) or
    # underflows to 0: both gammas are configuration errors
    for radius_um in (1e300, 1e-200):
        with pytest.raises(ConfigError, match="gamma = "):
            ring_gamma(0.5, radius_um, 20)
    with pytest.raises(ConfigError, match="gamma = "):
        ring_gamma(1e300, 1e100, 20)  # m R^2 overflows as a product
    with pytest.raises(ConfigError, match="gamma = "):
        ring_gamma(1e-273, 1e-14, 20)  # m R^2 underflows as a product
