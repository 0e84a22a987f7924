"""Closed-form solution families of the Bachelier pricing PDE.

The pricing equation

    r S C_S + (sigma^2 / 2) C_SS + C_t - r C = 0

admits four families of product-form solutions, indexed by a class
q in {1, 2, 3, 4} and an order n that is zero or a negative even integer.
Writing u = r (S / sigma)^2 and m = -n/2, each member combines a truncated
Kummer polynomial in u, an optional price prefactor S, an optional Gaussian
damping factor e^{-u}, and an exponential carrier in t:

    q = 1:   S F(n/2, 3/2; -u) e^{n r t}
    q = 2:     F(n/2, 1/2; -u) e^{(n+1) r t}
    q = 3:   e^{-u} S F(n/2, 3/2; u) e^{(3-n) r t}
    q = 4:   e^{-u}   F(n/2, 1/2; u) e^{(2-n) r t}

The equation is linear, so finite weighted sums of members are again
solutions; `BaseCombo` holds such a sum and `ComboSolution` evaluates it
and its partials with exactly rounded summation (math.fsum), so tabulated
output is reproducible across platforms. Where fsum overflows on an
intermediate sum although the total is in range, the terms are added
exactly as fractions and rounded once, an exactly rounded sum as well. A
value or partial that leaves the float range (a squared price that
overflows, an exponent past the guard, a non-finite sum) raises RangeError;
no inf or NaN is returned.

Negative rates are allowed (u simply goes negative, which the polynomial
factor absorbs). r = 0 is rejected at construction: two of the symmetry
groups divide by r, and the package keeps a single validity rule rather
than per-module carve-outs. The heat-equation limit r -> 0 is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameter, RangeError
from .kummer import kummer_truncated, kummer_truncated_du, kummer_truncated_d2u

__all__ = [
    "EXP_GUARD",
    "safe_exp",
    "ModelParams",
    "SolutionTerm",
    "BaseCombo",
    "eval_term",
    "eval_term_partials",
    "ComboSolution",
]

EXP_GUARD = 700.0


def safe_exp(x: float) -> float:
    """exp(x) with a symmetric overflow guard.

    Exponents of magnitude above 700 raise RangeError instead of silently
    overflowing to inf (or collapsing to 0 on the negative side).
    """
    if abs(x) > EXP_GUARD:
        raise RangeError(f"exponent {x:.6g} exceeds the +/-{EXP_GUARD:.0f} guard")
    return math.exp(x)


def _require_finite(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise InvalidParameter(f"{name} must be a finite real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ModelParams:
    """Market constants: continuously compounded rate r, absolute volatility sigma.

    sigma must be positive, and sigma^2 a nonzero finite float, since the
    families and the PDE divide by it. r may be negative (the regime the
    model is used for) but not zero, see the module docstring.
    """

    r: float
    sigma: float

    def __post_init__(self):
        r = _require_finite("r", self.r)
        sigma = _require_finite("sigma", self.sigma)
        if sigma <= 0.0 or not 0.0 < sigma * sigma < math.inf:
            raise InvalidParameter(
                f"sigma must be positive with a nonzero finite square, got {sigma}")
        if r == 0.0:
            raise InvalidParameter("r = 0 is not supported (symmetry groups divide by r)")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "sigma", sigma)


@dataclass(frozen=True)
class SolutionTerm:
    """One base family member: class index, order, and a scalar weight."""

    class_q: int
    order_n: int
    coeff: float = 1.0

    def __post_init__(self):
        if self.class_q not in (1, 2, 3, 4):
            raise InvalidParameter(f"class index must be in 1..4, got {self.class_q!r}")
        n = self.order_n
        if isinstance(n, bool) or n != int(n) or n > 0 or int(n) % 2 != 0:
            raise InvalidParameter(
                f"order must be 0 or a negative even integer, got {n!r}")
        object.__setattr__(self, "order_n", int(n))
        object.__setattr__(self, "coeff", _require_finite("coeff", self.coeff))

    @property
    def degree(self) -> int:
        """Polynomial degree m = -n/2 of the Kummer factor."""
        return -self.order_n // 2


@dataclass(frozen=True)
class BaseCombo:
    """Ordered, non-empty weighted collection of base family members."""

    terms: tuple[SolutionTerm, ...]

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise InvalidParameter("a combination needs at least one term")
        for item in terms:
            if not isinstance(item, SolutionTerm):
                raise InvalidParameter(f"combination entries must be SolutionTerm, got {item!r}")
        object.__setattr__(self, "terms", terms)


# class_q -> (Kummer b, sign of the Kummer argument, S prefactor?, e^{-u} factor?,
#             time-exponent slope/offset: exponent is (na*n + nb) * r * t)
_CLASS_TABLE = {
    1: (1.5, -1.0, True, False, 1, 0),
    2: (0.5, -1.0, False, False, 1, 1),
    3: (1.5, 1.0, True, True, -1, 3),
    4: (0.5, 1.0, False, True, -1, 2),
}


def eval_term(term: SolutionTerm, t: float, S: float, params: ModelParams) -> float:
    """Value of coeff * C_{q,n}(t, S)."""
    b, sgn, with_price, with_gauss, na, nb = _CLASS_TABLE[term.class_q]
    r = params.r
    try:
        u = r * (S / params.sigma) ** 2
    except OverflowError:
        raise RangeError(f"(S / sigma)^2 overflows at S = {S!r}") from None
    value = kummer_truncated(term.degree, b, sgn * u)
    if with_price:
        value *= S
    exponent = (na * term.order_n + nb) * r * t
    if with_gauss:
        exponent -= u
    return term.coeff * value * safe_exp(exponent)


def _triple_mul(a, b):
    # (value, d/dS, d2/dS2) of a product from the triples of its factors
    return (
        a[0] * b[0],
        a[1] * b[0] + a[0] * b[1],
        a[2] * b[0] + 2.0 * a[1] * b[1] + a[0] * b[2],
    )


def eval_term_partials(
    term: SolutionTerm, t: float, S: float, params: ModelParams
) -> tuple[float, float, float, float]:
    """Value and exact partials (C, C_t, C_S, C_SS) of coeff * C_{q,n} at (t, S).

    Product and chain rule over the S prefactor, the Gaussian factor and the
    Kummer polynomial; the t dependence is a single exponential carrier, so
    C_t is proportional to C. The carrier and the Gaussian factor share one
    exponential, rounded exactly as in ``eval_term``, and the Gaussian
    contributes its polynomial factor (1, -u', u'^2 - u'').
    """
    b, sgn, with_price, with_gauss, na, nb = _CLASS_TABLE[term.class_q]
    r, sigma = params.r, params.sigma
    try:
        u = r * (S / sigma) ** 2
    except OverflowError:
        raise RangeError(f"(S / sigma)^2 overflows at S = {S!r}") from None
    du = 2.0 * r * S / sigma**2
    d2u = 2.0 * r / sigma**2
    v = sgn * u
    m = term.degree
    p0 = kummer_truncated(m, b, v)
    p1 = kummer_truncated_du(m, b, v)
    p2 = kummer_truncated_d2u(m, b, v)
    fac = (p0, sgn * du * p1, du * du * p2 + sgn * d2u * p1)
    if with_price:
        fac = _triple_mul((S, 1.0, 0.0), fac)
    alpha = (na * term.order_n + nb) * r
    exponent = alpha * t
    if with_gauss:
        fac = _triple_mul((1.0, -du, du * du - d2u), fac)
        exponent -= u
    carrier = term.coeff * safe_exp(exponent)
    c = carrier * fac[0]
    return c, alpha * c, carrier * fac[1], carrier * fac[2]


def _exact_sum(values) -> float:
    # math.fsum raises when an intermediate sum overflows, even if the total
    # is in range; the exact rational sum rounded once is the same exactly
    # rounded result. A total outside the float range, or inf - inf, is nan.
    # Imported here: this path is rare, and fractions loads decimal (~4 ms)
    from fractions import Fraction

    try:
        return float(sum(map(Fraction, values)))
    except (OverflowError, ValueError):
        return math.nan


class ComboSolution:
    """A base combination bound to market parameters, usable as a plain callable.

    Instances work anywhere a solution function (t, S) -> value is expected,
    and additionally expose exact partial derivatives, which the analytic
    residual scanner requires. A bare SolutionTerm is promoted to a
    one-term combination.
    """

    __slots__ = ("combo", "params")

    def __init__(self, combo: BaseCombo | SolutionTerm, params: ModelParams):
        if isinstance(combo, SolutionTerm):
            combo = BaseCombo((combo,))
        self.combo = combo
        self.params = params

    def __call__(self, t: float, S: float) -> float:
        values = [eval_term(term, t, S, self.params) for term in self.combo.terms]
        try:
            value = math.fsum(values)
        except OverflowError:  # an intermediate sum overflows
            value = _exact_sum(values)
        except ValueError:  # inf - inf
            value = math.nan
        if not math.isfinite(value):
            raise RangeError(f"combination value at (t, S) = ({t!r}, {S!r}) is not finite")
        return value

    def partials(self, t: float, S: float) -> tuple[float, float, float, float]:
        rows = [eval_term_partials(term, t, S, self.params) for term in self.combo.terms]
        try:
            sums = tuple(map(math.fsum, zip(*rows)))
        except OverflowError:
            sums = tuple(map(_exact_sum, zip(*rows)))
        except ValueError:
            sums = (math.nan,) * 4
        c, c_t, c_s, c_ss = sums
        isfinite = math.isfinite
        if not (isfinite(c) and isfinite(c_t) and isfinite(c_s) and isfinite(c_ss)):
            raise RangeError(f"combination partials at (t, S) = ({t!r}, {S!r}) are not finite: "
                             + ", ".join(map(repr, sums)))
        return sums
