import math

import pytest

from rotobh.core import (ATOMIC_MASS, HBAR, RingFrame, effective_hopping,
                         peierls_phase, scale_factor)
from rotobh.errors import ConfigError


def test_pinned_constants():
    assert HBAR == 1.054571817e-34
    assert ATOMIC_MASS == 1.66053906660e-27


def test_gamma_rb87_ring():
    # 87 amu, R = 10 um, N = 20 sites, against the definition written out
    frame = RingFrame.from_lab_units(87.0, 10.0, 20)
    expected = 2.0 * math.pi * (87.0 * ATOMIC_MASS) * (10.0e-6) ** 2 \
        / (20.0 * HBAR)
    assert math.isclose(frame.gamma, expected, rel_tol=1e-12)
    assert abs(frame.gamma - 0.043037007117245854) < 1e-15
    assert frame.gamma == scale_factor(frame)


def test_gamma_scalings():
    base = RingFrame.from_lab_units(87.0, 10.0, 20)
    heavier = RingFrame.from_lab_units(174.0, 10.0, 20)
    wider = RingFrame.from_lab_units(87.0, 20.0, 20)
    denser = RingFrame.from_lab_units(87.0, 10.0, 40)
    assert math.isclose(heavier.gamma, 2.0 * base.gamma, rel_tol=1e-12)
    assert math.isclose(wider.gamma, 4.0 * base.gamma, rel_tol=1e-12)
    assert math.isclose(denser.gamma, 0.5 * base.gamma, rel_tol=1e-12)


def test_theta_linear_and_signed():
    gamma = RingFrame.from_lab_units(87.0, 10.0, 20).gamma
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
    with pytest.raises(ConfigError):
        RingFrame(mass=-1e-26, radius=1e-5, sites=20)
    with pytest.raises(ConfigError):
        RingFrame(mass=1e-25, radius=0.0, sites=20)
    with pytest.raises(ConfigError):
        RingFrame(mass=1e-25, radius=1e-5, sites=2)
    with pytest.raises(ConfigError):
        RingFrame(mass=math.inf, radius=1e-5, sites=20)
    for sites in (math.nan, math.inf, 20.5, 10 ** 400):
        with pytest.raises(ConfigError):
            RingFrame(mass=1e-25, radius=1e-5, sites=sites)


def test_frame_gamma_must_be_finite_and_positive():
    # radius ** 2 overflows (it raises, where a product gives inf) or
    # underflows to 0: both gammas are configuration errors
    for radius_um in (1e300, 1e-200):
        with pytest.raises(ConfigError):
            RingFrame.from_lab_units(0.5, radius_um, 20)
    with pytest.raises(ConfigError):  # m R^2 overflows as a product
        RingFrame(mass=1e300, radius=1e100, sites=20)
    with pytest.raises(ConfigError):  # m R^2 underflows as a product
        RingFrame(mass=1e-300, radius=1e-20, sites=20)
