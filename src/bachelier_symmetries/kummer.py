"""Truncated Kummer polynomials.

The confluent hypergeometric function of the first kind,

    F(a, b; u) = sum_{k >= 0} (a)_k / (b)_k * u^k / k!,

terminates when a = -m for a non-negative integer m: every term past k = m
carries the factor (-m)_k = 0, so F(-m, b; u) is a polynomial of degree
exactly m. The solution families in this package only ever evaluate F at
such terminating first arguments, so this module implements the polynomial
case and nothing else; non-integer orders are rejected rather than
approximated by a series.

Everything that depends on (m, b) alone is built, and m and b validated,
once per pair in one cache: the power-series coefficients of F from the
term-ratio recurrence, free of factorial-sized intermediates,

    c_0 = 1,    c_{k+1} = c_k * (k - m) / ((b + k) (k + 1)),

those of F' and F'' by differentiating them, and the steps of the degree
recurrence below. At u <= 1/2, F, F' and F'' are Horner sweeps over them.

The monomial Horner sweep loses digits to cancellation at positive u, the
more the larger u and m. Above u = 1/2 the contiguous recurrence in the
degree (DLMF 13.3.1 at a = -n)

    F_{n+1} = ((2n + b - u) F_n - n F_{n-1}) / (b + n),    F_0 = 1,

runs up to F_{m-2}, F_{m-1} and F_m. The series gives u F'(a) =
a (F(a+1) - F(a)) term by term; at a = -m it makes F' the first and F''
the second degree difference,

    u F' = m (F_m - F_{m-1}),    u^2 F'' = m (m-1) (F_m - 2 F_{m-1} + F_{m-2}).

Both divide by u, which is why small u stays with Horner. Kummer's equation
u F'' + (b - u) F' - a F = 0 (DLMF 13.2.1) is not used, so it stays a
check of the evaluator. Measured against exact rational evaluation of the
same polynomial, with the error relative to max(1, |F|) (likewise |F'|
and |F''|), b in {1/2, 3/2} and u on a 0.25 grid; the columns are F, F',
F'':

    m <= 20, u in [-10, 0]    8.1e-16   5.9e-16   9.1e-16
    m <= 6,  u in [-5, 5]     9.8e-16   1.3e-15   6.1e-15
    m <= 20, u in [-5, 5]     4.3e-15   1.9e-14   2.9e-14
    m <= 20, u in [0, 20]     4.4e-14   4.1e-13   6.1e-14
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
def _tables(m, b: float):
    # Horner tuples of F, F', F'' and the recurrence steps (n, 2n + b, b + n)
    # for n < m. typed: True and 2.0 must not hit the entries of 1 and 2, so
    # a bool order reaches _checked_order; a raised error is not cached
    m = _checked_order(m)
    coeffs = [1.0]
    for k in range(m):
        if b + k == 0.0:
            raise InvalidParameter(
                f"(b)_{k + 1} vanishes for b = {b}; degree-{m} polynomial undefined")
        coeffs.append(coeffs[-1] * (k - m) / ((b + k) * (k + 1)))
    du = tuple((k + 1) * c for k, c in enumerate(coeffs[1:]))
    d2u = tuple((k + 1) * c for k, c in enumerate(du[1:]))
    steps = tuple((float(n), 2 * n + b, b + n) for n in range(m))
    return tuple(coeffs), du, d2u, steps


def _horner(coeffs: tuple[float, ...], u: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


@lru_cache(maxsize=1, typed=True)
def _last_three(m, b: float, u: float) -> tuple[float, float, float]:
    # (F_{m-2}, F_{m-1}, F_m) at (b; u), F_n = F(-n, b; u); F_0 = 1 and zero
    # F_{-1}, F_{-2} start it. eval_term_partials asks for F, F' and F'' at
    # one point in turn, so the last sweep is kept: one serves all three
    f2, f1, f = 0.0, 0.0, 1.0
    for n, c, d in _tables(m, b)[3]:
        f2, f1, f = f1, f, ((c - u) * f - n * f1) / d
    return f2, f1, f


def kummer_truncated(m: int, b: float, u: float) -> float:
    """Evaluate F(-m, b; u) as the exact degree-m polynomial (no series tail).

    Raises InvalidParameter when m is not a non-negative integer, or when a
    denominator factor (b)_k vanishes for some k <= m.
    """
    if u > _RECURRENCE_FROM:
        return _last_three(m, b, u)[2]
    return _horner(_tables(m, b)[0], u)


def kummer_truncated_du(m: int, b: float, u: float) -> float:
    """First u-derivative of ``kummer_truncated``."""
    if u > _RECURRENCE_FROM:
        _, f1, f = _last_three(m, b, u)
        return m * (f - f1) / u
    return _horner(_tables(m, b)[1], u)


def kummer_truncated_d2u(m: int, b: float, u: float) -> float:
    """Second u-derivative of ``kummer_truncated``; needed for price curvature."""
    if u > _RECURRENCE_FROM:
        f2, f1, f = _last_three(m, b, u)
        return m * (m - 1) * (f - 2 * f1 + f2) / (u * u)
    return _horner(_tables(m, b)[2], u)
