"""Truncated Kummer polynomials.

The confluent hypergeometric function of the first kind,

    F(a, b; u) = sum_{k >= 0} (a)_k / (b)_k * u^k / k!,

terminates when a = -m for a non-negative integer m: every term past k = m
carries the factor (-m)_k = 0, so F(-m, b; u) is a polynomial of degree
exactly m. The solution families in this package only ever evaluate F at
such terminating first arguments, so this module implements the polynomial
case and nothing else; non-integer orders are rejected rather than
approximated by a series, and so are degrees above MAX_DEGREE = 50.

Everything that depends on (m, b) alone is built, and m and b validated,
once per pair in one cache, ``_tables(m, b)``: the power-series coefficients
of F from the term-ratio recurrence, free of factorial-sized intermediates,

    c_0 = 1,    c_{k+1} = c_k * (k - m) / ((b + k) (k + 1)),

those of F' and F'' by differentiating them, and the steps of the degree
recurrence below, each stored in the order the sweeps read it. Callers that
evaluate many points bind the entry once and call the sweeps on it:
``_value`` gives F, ``_sweep`` gives (F, F', F'') in one pass. At u <= 1/2
both are Horner sweeps from the top degree down; ``_sweep`` runs the three
in one loop over rows (c_k, c'_k, c''_k), with F' and F'' padded by leading
zero rows, which keep their accumulators at exactly 0.0 at finite u, so
each value is rounded as by its own sweep.

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
      the same, 0.001 grid    1.9e-12   2.7e-12   2.8e-12
    m <= 50, u in [-5, 5]     2.3e-13   1.8e-12   8.3e-13
    m <= 50, u in [0, 40]     2.6e-12   4.2e-12   1.4e-12

The 0.25 grid steps over points where a value near 0 is the difference of
recurrence values near 1e4: F' = -1.2 at m = 18, b = 1/2, u = 18.446 is
m (F_m - F_{m-1}) / u with F_{m-1} and F_m near -9.4e3.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvalidParameter, finite_real, integer

__all__ = [
    "pochhammer",
    "kummer_truncated",
    "kummer_truncated_du",
    "kummer_truncated_d2u",
]

MAX_DEGREE = 50  # the measured envelope; larger tables are refused unbuilt
TABLE_CACHE_SIZE = 256  # (m, b) tables kept; ``verify --scope all`` builds 153
# Horner at u <= _RECURRENCE_FROM, the degree recurrence above it
_RECURRENCE_FROM = 0.5


def pochhammer(w: float, k: int) -> float:
    """Rising factorial (w)_k = w (w+1) ... (w+k-1) for k <= MAX_DEGREE; (w)_0 = 1."""
    w = finite_real("pochhammer argument", w)
    out = 1.0
    for j in range(integer("pochhammer index", k, 0, MAX_DEGREE)):
        out *= w + j
    return out


@lru_cache(maxsize=TABLE_CACHE_SIZE, typed=True)
def _tables(m, b: float):
    # (m, F's coefficients from the top degree down, rows (c_k, c'_k, c''_k)
    # from the top degree down, recurrence steps (n, 2n + b, b + n) for n < m);
    # typed, so True meets the integer rule, not 1's entry; errors are not cached
    m = integer("truncation order", m, 0, MAX_DEGREE)
    b = finite_real("b", b)
    coeffs = [1.0]
    for k in range(m):
        if b + k == 0.0:
            raise InvalidParameter(
                f"(b)_{k + 1} vanishes for b = {b}; degree-{m} polynomial undefined")
        coeffs.append(coeffs[-1] * (k - m) / ((b + k) * (k + 1)))
    du = [(k + 1) * c for k, c in enumerate(coeffs[1:])]
    d2u = [(k + 1) * c for k, c in enumerate(du[1:])]
    rows = tuple(zip(reversed(coeffs), [0.0, *reversed(du)], [0.0, 0.0, *reversed(d2u)]))
    steps = tuple((float(n), 2 * n + b, b + n) for n in range(m))
    return m, tuple(reversed(coeffs)), rows, steps


def _value(table, u: float) -> float:
    """F(-m, b; u) from a ``_tables`` entry; the F of ``_sweep``, bit for bit."""
    if u > _RECURRENCE_FROM:
        f1, f = 0.0, 1.0
        for n, c, d in table[3]:
            f1, f = f, ((c - u) * f - n * f1) / d
        return f
    acc = 0.0
    for c in table[1]:
        acc = acc * u + c
    return acc


def _sweep(table, u: float) -> tuple[float, float, float]:
    """(F, F', F'') at u from a ``_tables`` entry, in one pass."""
    m, _, rows, steps = table
    if u > _RECURRENCE_FROM:
        # F_{m-2}, F_{m-1}, F_m; F_0 = 1 and zero F_{-1}, F_{-2} start it
        f2, f1, f = 0.0, 0.0, 1.0
        for n, c, d in steps:
            f2, f1, f = f1, f, ((c - u) * f - n * f1) / d
        return f, m * (f - f1) / u, m * (m - 1) * (f - 2 * f1 + f2) / (u * u)
    a0 = a1 = a2 = 0.0
    for c0, c1, c2 in rows:
        a0 = a0 * u + c0
        a1 = a1 * u + c1
        a2 = a2 * u + c2
    return a0, a1, a2


def kummer_truncated(m: int, b: float, u: float) -> float:
    """Evaluate F(-m, b; u) as the exact degree-m polynomial (no series tail).

    Raises InvalidParameter when m is not an integer in [0, MAX_DEGREE], or
    when a denominator factor (b)_k vanishes for some k <= m.
    """
    return _value(_tables(m, b), u)


def kummer_truncated_du(m: int, b: float, u: float) -> float:
    """First u-derivative of ``kummer_truncated``."""
    return _sweep(_tables(m, b), u)[1]


def kummer_truncated_d2u(m: int, b: float, u: float) -> float:
    """Second u-derivative of ``kummer_truncated``; the evaluator's own comes from ``_sweep``."""
    return _sweep(_tables(m, b), u)[2]
