"""Exception types shared across the package, and its two input rules.

``finite_real``: an int or a finite float, returned as a float. ``integer``:
an int or an integral float within the caller's bounds, returned as an int.
A bool passes neither; anything else raises InvalidParameter naming the field.
"""

from __future__ import annotations

from sys import float_info


class InvalidParameter(ValueError):
    """An argument violates a documented precondition (bad order, zero rate, ...)."""


def finite_real(name: str, value) -> float:
    """The finite-real rule: ``value`` as a float, or InvalidParameter naming ``name``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= float_info.max:
        return float(value)
    raise InvalidParameter(f"{name} must be a finite real number, got {value!r}")


def integer(name: str, value, lo: float = float("-inf"), hi: float = float("inf")) -> int:
    """The integer rule: ``value`` as an int in [lo, hi], or InvalidParameter naming ``name``."""
    n = int(value) if isinstance(value, float) and value.is_integer() else value
    if isinstance(n, int) and not isinstance(n, bool) and lo <= n <= hi:
        return int(n)
    raise InvalidParameter(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")


class DomainError(ValueError):
    """A group map or transformed solution was evaluated outside its domain.

    The message names the offending log/sqrt argument. ``stage`` carries
    the zero-based pipeline index when the error happened while pulling a
    point back through group elements (a single ``inverse_point_map`` is
    stage 0).
    """

    def __init__(self, message: str, stage: int | None = None):
        super().__init__(message)
        self.stage = stage


class RangeError(ArithmeticError):
    """A value left the float range during evaluation.

    An exponent passed the +/-700 guard, a squared price (S / sigma)^2
    overflowed, or a combination or pipeline result is not finite.
    """


class ParseError(ValueError):
    """Malformed expression text. Carries the byte offset and the expected tokens."""

    def __init__(self, offset: int, expected: tuple[str, ...], found: str):
        self.offset = offset
        self.expected = tuple(expected)
        self.found = found
        super().__init__(
            f"offset {offset}: expected {' or '.join(expected)}, found {found}")


class SemanticError(ValueError):
    """Structurally valid text with an out-of-range class, order or group index."""

    def __init__(self, offset: int, reason: str):
        self.offset = offset
        self.reason = reason
        super().__init__(f"offset {offset}: {reason}")
