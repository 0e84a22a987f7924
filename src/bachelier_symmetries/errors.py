"""Exception types shared across the package."""

from __future__ import annotations


class InvalidParameter(ValueError):
    """An argument violates a documented precondition (bad order, zero rate, ...)."""


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
