"""Exception types shared across the package, and the checkers of the
scalar and array domain rules that raise :class:`DomainError`.

Each checker names the value in its message as ``what``.  The comparisons
are written so that NaN fails them.
"""

import math
import operator

import numpy as np


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


def _floats(what: str, values) -> np.ndarray:
    """``values`` as a float64 array, sharing memory with them where it can."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be an array of numbers") from None


def check_array(what: str, values, shape: tuple) -> np.ndarray:
    """A read-only float64 copy of ``values``.  Raise DomainError unless it
    has ``shape`` exactly, where a ``None`` axis may have any length, and
    every entry is finite."""
    arr = _floats(what, values)
    if arr.ndim != len(shape) or any(n is not None and n != got for n, got in zip(shape, arr.shape)):
        want = str(tuple("N" if n is None else n for n in shape)).replace("'", "")
        raise DomainError(f"{what} must have shape {want}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} must be finite")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def check_points(what: str, values) -> np.ndarray:
    """:func:`check_array` for an (N, 3) array of points, where an empty
    input reads as no points and one flat triple as one point."""
    arr = _floats(what, values)
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    elif arr.shape == (3,):
        arr = arr.reshape(1, 3)
    return check_array(what, arr, (None, 3))


def check_rotation(what: str, values) -> np.ndarray:
    """:func:`check_array` for a 3x3 matrix that must also be orthonormal
    with determinant +1."""
    rot = check_array(what, values, (3, 3))
    if not np.abs(rot.T @ rot - np.eye(3)).max() <= 1e-9:
        raise DomainError(f"{what} must be orthonormal")
    if not abs(np.linalg.det(rot) - 1.0) <= 1e-9:
        raise DomainError(f"{what} must be right-handed (determinant +1)")
    return rot
