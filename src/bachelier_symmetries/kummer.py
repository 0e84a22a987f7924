"""Truncated Kummer polynomials.

The confluent hypergeometric function of the first kind,

    F(a, b; u) = sum_{k >= 0} (a)_k / (b)_k * u^k / k!,

terminates when a = -m for a non-negative integer m: every term past k = m
carries the factor (-m)_k = 0, so F(-m, b; u) is a polynomial of degree
exactly m. The solution families in this package only ever evaluate F at
such terminating first arguments, so this module implements the polynomial
case and nothing else; non-integer orders are rejected rather than
approximated by a series.

At u <= 1/2, evaluation is a Horner sweep over power-series coefficients
held in one cache, keyed by (m, b, derivative order). The order-0 table is
built with the term-ratio recurrence

    c_0 = 1,    c_{k+1} = c_k * (k - m) / ((b + k) (k + 1)),

so no factorial-sized intermediates appear, and m is validated when that
table is built. The table of derivative order j differentiates that of
order j - 1 once.

The monomial Horner sweep loses digits to cancellation at positive u, the
more the larger u and m. Above u = 1/2 the contiguous recurrence in the
degree (DLMF 13.3.1 at a = -n)

    F_{n+1} = ((2n + b - u) F_n - n F_{n-1}) / (b + n),    F_0 = 1,

runs up to F_{m-1} and F_m. The slope follows from u F'(a) =
a (F(a+1) - F(a)), which the series gives term by term, and the curvature
from Kummer's equation u F'' + (b - u) F' - a F = 0 (DLMF 13.2.1), both at
a = -m. Both divide by u, which is why small u stays with Horner.
Measured against exact rational evaluation of the same polynomial, with
the error relative to max(1, |F|) (likewise |F'| and |F''|), b in
{1/2, 3/2} and u on a 0.25 grid; the columns are F, F', F'':

    m <= 20, u in [-10, 0]    8.1e-16   5.9e-16   9.1e-16
    m <= 6,  u in [-5, 5]     9.8e-16   1.3e-15   5.0e-15
    m <= 20, u in [-5, 5]     4.3e-15   1.9e-14   2.9e-14
    m <= 20, u in [0, 20]     4.4e-14   4.1e-13   5.6e-14
    m <= 50, u in [-5, 5]     2.3e-13   1.8e-12   8.3e-13
    m <= 50, u in [0, 40]     2.6e-12   4.2e-12   1.4e-12
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvalidParameter

__all__ = [
    "pochhammer",
    "kummer_truncated",
    "kummer_truncated_du",
    "kummer_truncated_d2u",
]

# Horner at u <= _RECURRENCE_FROM, the degree recurrence above it
_RECURRENCE_FROM = 0.5


def pochhammer(w: float, k: int) -> float:
    """Rising factorial (w)_k = w (w+1) ... (w+k-1); the empty product (k=0) is 1."""
    if isinstance(k, bool) or k != int(k) or k < 0:
        raise InvalidParameter(f"pochhammer index must be a non-negative integer, got {k!r}")
    out = 1.0
    for j in range(int(k)):
        out *= w + j
    return out


def _checked_order(m) -> int:
    if isinstance(m, bool) or m != int(m):
        raise InvalidParameter(f"truncation order must be an integer, got {m!r}")
    if m < 0:
        raise InvalidParameter(f"truncation order must be non-negative, got {m}")
    return int(m)


@lru_cache(maxsize=None, typed=True)
def _coefficients(m, b: float, order: int) -> tuple[float, ...]:
    # typed: True and 2.0 must not hit the entries of 1 and 2, so a bool
    # order reaches _checked_order; a raised error is not cached
    if order:
        coeffs = _coefficients(m, b, order - 1)
        return tuple((k + 1) * c for k, c in enumerate(coeffs[1:]))
    m = _checked_order(m)
    coeffs = [1.0]
    for k in range(m):
        if b + k == 0.0:
            raise InvalidParameter(
                f"(b)_{k + 1} vanishes for b = {b}; degree-{m} polynomial undefined")
        coeffs.append(coeffs[-1] * (k - m) / ((b + k) * (k + 1)))
    return tuple(coeffs)


def _horner(coeffs: tuple[float, ...], u: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


@lru_cache(maxsize=None, typed=True)
def _steps(m, b: float) -> tuple[tuple[float, float, float], ...]:
    # (n, 2n + b, b + n) for n < m; the order-0 table validates m and b
    m = len(_coefficients(m, b, 0)) - 1
    return tuple((float(n), 2 * n + b, b + n) for n in range(m))


@lru_cache(maxsize=1, typed=True)
def _last_two(m, b: float, u: float) -> tuple[float, float]:
    # (F(-(m-1), b; u), F(-m, b; u)); F_0 = 1 and a zero F_{-1} start it.
    # eval_term_partials asks for F, F' and F'' at one point in turn, so
    # the last sweep is kept: one serves all three
    f0, f = 0.0, 1.0
    for n, c, d in _steps(m, b):
        f0, f = f, ((c - u) * f - n * f0) / d
    return f0, f


def kummer_truncated(m: int, b: float, u: float) -> float:
    """Evaluate F(-m, b; u) as the exact degree-m polynomial (no series tail).

    Raises InvalidParameter when m is not a non-negative integer, or when a
    denominator factor (b)_k vanishes for some k <= m.
    """
    if u > _RECURRENCE_FROM:
        return _last_two(m, b, u)[1]
    return _horner(_coefficients(m, b, 0), u)


def kummer_truncated_du(m: int, b: float, u: float) -> float:
    """First u-derivative of ``kummer_truncated``."""
    if u > _RECURRENCE_FROM:
        f0, f = _last_two(m, b, u)
        return m * (f - f0) / u
    return _horner(_coefficients(m, b, 1), u)


def kummer_truncated_d2u(m: int, b: float, u: float) -> float:
    """Second u-derivative of ``kummer_truncated``; needed for price curvature."""
    if u > _RECURRENCE_FROM:
        f0, f = _last_two(m, b, u)
        slope = m * (f - f0) / u
        return ((u - b) * slope - m * f) / u
    return _horner(_coefficients(m, b, 2), u)
