import pytest

from rotobh import errors


def test_exit_codes():
    assert errors.EXIT_OK == 0
    assert errors.EXIT_CONFIG == 2
    assert errors.EXIT_DOMAIN == 3
    assert errors.EXIT_CONVERGENCE == 4
    assert errors.ConfigError.exit_status == 2
    assert errors.DomainError.exit_status == 3
    assert errors.ConvergenceError.exit_status == 4
    assert errors.OutOfReachError.exit_status == 3


def test_sentinel_codes():
    assert errors.ConfigError.code == "config"
    assert errors.DomainError.code == "domain"
    assert errors.DegenerateGapError.code == "degenerate-gap"
    assert errors.OutOfReachError.code == "out-of-reach"
    assert errors.OutOfRangeError.code == "out-of-range"
    assert errors.InvalidExpansionError.code == "invalid-expansion"
    assert errors.ConvergenceError.code == "no-convergence"


def test_hierarchy():
    # one except clause catches everything the package raises on purpose
    for cls in (errors.ConfigError, errors.DomainError,
                errors.DegenerateGapError, errors.OutOfReachError,
                errors.OutOfRangeError, errors.InvalidExpansionError,
                errors.ConvergenceError):
        assert issubclass(cls, errors.RotobhError)
    assert issubclass(errors.DegenerateGapError, errors.DomainError)
    assert issubclass(errors.TruncationWarning, UserWarning)
    assert issubclass(errors.FitQualityWarning, UserWarning)


def test_check_choice():
    errors.check_choice("mode", "fit", ("exact", "fit"))
    errors.check_choice("variant", "b", {"x": "a", "y": "b"}.values())
    with pytest.raises(errors.ConfigError,
                       match="mode must be one of 'exact', 'fit', got 'other'"):
        errors.check_choice("mode", "other", ("exact", "fit"))


def test_check_count():
    for ok in (0, 1, errors.MAX_COUNT, float(errors.MAX_COUNT)):
        errors.check_count("rows", ok)
    for bad in (errors.MAX_COUNT + 1, 1e12, float("inf"), float("nan"),
                10 ** 400):
        with pytest.raises(errors.ConfigError, match="rows must be at most"):
            errors.check_count("rows", bad)
    with pytest.raises(errors.ConfigError,
                       match="rows must be at most 1000000, got 1e\\+12"):
        errors.check_count("rows", 1e12)
