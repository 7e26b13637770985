"""Exception types shared across the package, and the checkers of the
scalar domain rules that raise :class:`DomainError`.

Each checker names the value in its message as ``what``.  The comparisons
are written so that NaN fails them.
"""

import math
import operator


class NavError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(NavError):
    """A cloud file could not be parsed.

    Carries the offending path and 1-based line number so callers can point
    at the exact spot in the file.
    """

    def __init__(self, path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{self.path}:{line_no}: {message}")


class DomainError(NavError):
    """An operation was called outside its domain (empty cloud, n too large, ...)."""


class DegenerateAnchorError(DomainError):
    """A candidate rectangle anchor coincides with the patch centroid."""


class TransitionError(NavError):
    """An event is not legal in the current locomotion phase."""


class TrajectoryError(NavError):
    """A planned joint trajectory violates the configured joint limits."""


class ConfigError(NavError):
    """A configuration file or value is invalid."""


def check_positive(what: str, *values) -> None:
    """Raise DomainError unless every value is greater than 0."""
    for value in values:
        if not value > 0:
            raise DomainError(f"{what} must be positive, got {value}")


def check_non_negative(what: str, *values) -> None:
    """Raise DomainError unless every value is at least 0."""
    for value in values:
        if not value >= 0:
            raise DomainError(f"{what} must be non-negative, got {value}")


def check_finite(what: str, *values) -> None:
    """Raise DomainError unless every value is a finite number."""
    for value in values:
        if not math.isfinite(value):
            raise DomainError(f"{what} must be finite, got {value}")


def check_count(what: str, value, least: int = 1) -> None:
    """Raise DomainError unless ``value`` is an integer (a numpy integer or a
    bool included) of at least ``least``.  A seed is a count of at least 0,
    the seeds numpy's generators take."""
    try:
        number = operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
    if number < least:
        raise DomainError(f"{what} must be at least {least}, got {number}")
