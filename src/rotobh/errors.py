"""Exception hierarchy, warning classes, process exit codes, the one
check that a value is among a table of named options, and the one check
that a requested count is small enough to allocate."""

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_CONVERGENCE = 4

# The most grid points, table rows or fit samples one request may ask for.
MAX_COUNT = 10 ** 6


class RotobhError(Exception):
    """Base class for all package errors.

    ``code`` is the short machine-readable tag used in sentinel grid
    cells (``error:<code>``); ``exit_status`` is what the CLI returns
    when the error escapes a subcommand.
    """

    code = "error"
    exit_status = EXIT_DOMAIN


class ConfigError(RotobhError):
    """Invalid configuration, flags, or argument combinations."""

    code = "config"
    exit_status = EXIT_CONFIG


class DomainError(RotobhError):
    """Input outside the mathematical domain of an operation."""

    code = "domain"
    exit_status = EXIT_DOMAIN


class DegenerateGapError(DomainError):
    """mu/U sits on a lobe corner, so a perturbative gap vanishes."""

    code = "degenerate-gap"


class OutOfReachError(DomainError):
    """No rotation angle can reach the phase boundary at this hopping."""

    code = "out-of-reach"


class OutOfRangeError(DomainError):
    """Measured order-parameter change exceeds the attainable maximum."""

    code = "out-of-range"


class InvalidExpansionError(DomainError):
    """Quartic Landau coefficient is not positive; expansion unusable."""

    code = "invalid-expansion"


class ConvergenceError(RotobhError):
    """An iterative solver failed to meet its tolerance."""

    code = "no-convergence"
    exit_status = EXIT_CONVERGENCE


class TruncationWarning(UserWarning):
    """Ground state carries weight on the highest kept Fock level."""


class FitQualityWarning(UserWarning):
    """Least-squares residual RMS exceeds the documented threshold."""


def check_choice(what, value, choices):
    """ConfigError unless value is one of choices."""
    if value not in choices:
        raise ConfigError("%s must be one of %s, got %r"
                          % (what, ", ".join(map(repr, choices)), value))


def check_count(what, count):
    """ConfigError unless count <= MAX_COUNT.

    count is an int or a float (inf and NaN fail); a caller checks each
    user-given count this way before it allocates anything for it.
    """
    if not count <= MAX_COUNT:
        raise ConfigError("%s must be at most %d, got %s" % (
            what, MAX_COUNT, "%.6g" % count if isinstance(count, float)
            else count))
