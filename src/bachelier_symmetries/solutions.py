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
output is reproducible across platforms. `ComboSolution` compiles each term
once, into a kernel that holds its Kummer table (see `kummer`), so a value
costs one Kummer sweep and one guarded exponential per term, and partials one
exponential per term and one sweep per term per distinct price, which each
instance keeps. A bare `SolutionTerm` is a one-term combination: a member
has one formula. Where fsum overflows on an intermediate sum although the
total is in range, the terms are added exactly as fractions and rounded
once, an exactly rounded sum as well. A value or partial that leaves the
float range (a squared price that overflows, an exponent past the guard, a
non-finite sum) raises RangeError; no inf or NaN is returned.

Negative rates are allowed (u simply goes negative, which the polynomial
factor absorbs). r = 0 is rejected at construction: two of the symmetry
groups divide by r, and the package keeps a single validity rule rather
than per-module carve-outs. The heat-equation limit r -> 0 is out of scope.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import kummer
from .errors import InvalidParameter, RangeError, finite_real, integer
from .kummer import _sweep, _value
# for bench/tracer.py, which rebinds these uncalled names; ROADMAP item 1 deletes this line
eval_term = eval_term_partials = kummer_truncated = kummer_truncated_du = kummer_truncated_d2u = None

__all__ = [
    "EXP_GUARD",
    "safe_exp",
    "ModelParams",
    "SolutionTerm",
    "BaseCombo",
    "ComboSolution",
]

EXP_GUARD = 700.0
_COLUMNS = 256  # prices whose partials columns a ComboSolution keeps; a 201-wide table fits


def safe_exp(x: float) -> float:
    """exp(x) with a symmetric overflow guard.

    Exponents of magnitude above 700 raise RangeError instead of silently
    overflowing to inf (or collapsing to 0 on the negative side).
    """
    if abs(x) > EXP_GUARD:
        raise RangeError(f"exponent {x:.6g} exceeds the +/-{EXP_GUARD:.0f} guard")
    return math.exp(x)


def _finite(values, t, S):
    if not all(map(math.isfinite, values)):
        raise RangeError(f"result at (t, S) = ({t!r}, {S!r}) is not finite: "
                         + ", ".join(map(repr, values)))
    return values


class ModelParams(namedtuple("ModelParams", "r sigma")):
    """Market constants: continuously compounded rate r, absolute volatility sigma.

    sigma must be positive, and sigma^2 a nonzero finite float, since the
    families and the PDE divide by it. r may be negative (the regime the
    model is used for) but not zero, see the module docstring.
    """
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace goes through __new__ too

    def __new__(cls, r: float, sigma: float):
        r = finite_real("r", r)
        sigma = finite_real("sigma", sigma)
        if sigma <= 0.0 or not 0.0 < sigma * sigma < math.inf:
            raise InvalidParameter(
                f"sigma must be positive with a nonzero finite square, got {sigma}")
        if r == 0.0:
            raise InvalidParameter("r = 0 is not supported (symmetry groups divide by r)")
        return tuple.__new__(cls, (r, sigma))


class SolutionTerm(namedtuple("SolutionTerm", "class_q order_n coeff")):
    """One base family member: class index, order, and a scalar weight."""
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace goes through __new__ too

    def __new__(cls, class_q: int, order_n: int, coeff: float = 1.0):
        class_q = integer("class index", class_q, 1, 4)
        n = integer("order", order_n, lo=-2 * kummer.MAX_DEGREE, hi=0)
        if n % 2:
            raise InvalidParameter(f"order must be 0 or a negative even integer, got {n}")
        return tuple.__new__(cls, (class_q, n, finite_real("coeff", coeff)))

    @property
    def degree(self) -> int:
        """Polynomial degree m = -n/2 of the Kummer factor."""
        return -self.order_n // 2


class BaseCombo(namedtuple("BaseCombo", "terms")):
    """Ordered, non-empty weighted collection of base family members."""
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace goes through __new__ too

    def __new__(cls, terms: tuple[SolutionTerm, ...]):
        terms = tuple(terms)
        if not terms:
            raise InvalidParameter("a combination needs at least one term")
        for item in terms:
            if not isinstance(item, SolutionTerm):
                raise InvalidParameter(f"combination entries must be SolutionTerm, got {item!r}")
        return tuple.__new__(cls, (terms,))


# class_q -> (Kummer b, sign of the Kummer argument, S prefactor?, e^{-u} factor?,
#             time-exponent slope/offset: exponent is (na*n + nb) * r * t)
_CLASS_TABLE = {
    1: (1.5, -1.0, True, False, 1, 0),
    2: (0.5, -1.0, False, False, 1, 1),
    3: (1.5, 1.0, True, True, -1, 3),
    4: (0.5, 1.0, False, True, -1, 2),
}


def _exact_sum(values) -> float:
    # math.fsum raises when an intermediate sum overflows, even if the total
    # is in range, and on inf - inf; the exact rational sum rounded once is the
    # same exactly rounded result, and nan for a non-finite term or total.
    # Imported here: this path is rare, and fractions loads decimal (~4 ms)
    from fractions import Fraction

    try:
        return float(sum(map(Fraction, values)))
    except (OverflowError, ValueError):
        return math.nan


def _argument(S: float, params: ModelParams) -> float:
    # u = r (S / sigma)^2, the argument of every member at price S
    try:
        return params.r * (S / params.sigma) ** 2
    except OverflowError:
        raise RangeError(f"(S / sigma)^2 overflows at S = {S!r}") from None


class ComboSolution:
    """A base combination bound to market parameters, usable as a plain callable.

    Instances work anywhere a solution function (t, S) -> value is expected,
    and additionally expose exact partial derivatives, which the analytic
    residual scanner requires. A bare SolutionTerm is promoted to a
    one-term combination.

    Construction compiles each term into a kernel: its weight, the sign of
    its Kummer argument, its S-prefactor and Gaussian flags, its carrier
    rate alpha = (na n + nb) r and its Kummer table. A value computes u
    once, and per term runs one Kummer sweep and one guarded exponential.

    Everything in the partials but the carrier depends on S alone, so
    ``partials`` keeps a column per distinct price: per term (coeff, alpha,
    g, f0, f1, f2), the S-only factor with its S-derivatives, and g = u for
    a Gaussian class, else 0.0; the constants 2 r, sigma^2 and 2 r / sigma^2
    are computed once per instance. A point then costs one e^{alpha t - g}
    per term and four exactly rounded sums. The columns are a dict keyed by
    the price and cleared when it holds _COLUMNS of them; 0.0 and -0.0 share
    one, since their columns differ only in signs of zeros, which every sum
    drops. Errors are never cached: a price whose square overflows raises
    before anything is stored. A column is built whole before it is stored,
    so threads may share an instance; the size check and the store are two
    steps, so threads that store at once may pass the bound by one column
    each before the next clear.
    """

    __slots__ = ("combo", "params", "_kernels", "_columns", "_scales")

    def __init__(self, combo: BaseCombo | SolutionTerm, params: ModelParams):
        if isinstance(combo, SolutionTerm):
            combo = BaseCombo((combo,))
        self.combo = combo
        self.params = params
        kernels = []
        for term in combo.terms:
            b, sgn, with_price, with_gauss, na, nb = _CLASS_TABLE[term.class_q]
            # the table through its module, so that a replaced one is seen
            kernels.append((term.coeff, sgn, with_price, with_gauss,
                            (na * term.order_n + nb) * params.r,
                            kummer._tables(term.degree, b)))
        self._kernels = tuple(kernels)
        self._columns = {}
        two_r, var = 2.0 * params.r, params.sigma**2
        self._scales = (two_r, var, two_r / var)  # u' = two_r S / var, and u''

    def __call__(self, t: float, S: float) -> float:
        u = _argument(S, self.params)
        values = []
        for coeff, sgn, with_price, with_gauss, alpha, table in self._kernels:
            value = _value(table, sgn * u)
            if with_price:
                value *= S
            exponent = alpha * t
            if with_gauss:
                exponent -= u
            if abs(exponent) > EXP_GUARD:  # safe_exp's guard; it is called only to raise
                safe_exp(exponent)
            values.append(coeff * value * math.exp(exponent))
        try:
            value = math.fsum(values)
        except (OverflowError, ValueError):  # an intermediate sum overflows, or inf - inf
            value = _exact_sum(values)
        if not math.isfinite(value):
            _finite((value,), t, S)
        return value

    def _column(self, S: float):
        two_r, var, d2u = self._scales
        u = _argument(S, self.params)
        du = two_r * S / var
        du2 = du * du
        g1, g2 = -du, du2 - d2u
        column = []
        for coeff, sgn, with_price, with_gauss, alpha, table in self._kernels:
            p0, p1, p2 = _sweep(table, sgn * u)
            f0, f1, f2 = p0, sgn * du * p1, du2 * p2 + sgn * d2u * p1
            if with_price:  # 0.0 * f0 carries a non-finite f0 into f2
                f0, f1, f2 = S * f0, f0 + S * f1, 0.0 * f0 + 2.0 * f1 + S * f2
            if with_gauss:
                f1, f2 = g1 * f0 + f1, g2 * f0 + 2.0 * g1 * f1 + f2
            column.append((coeff, alpha, u if with_gauss else 0.0, f0, f1, f2))
        column = tuple(column)
        if len(self._columns) >= _COLUMNS:
            self._columns.clear()
        self._columns[S] = column
        return column

    def partials(self, t: float, S: float) -> tuple[float, float, float, float]:
        """Value and exact partials (C, C_t, C_S, C_SS) at (t, S).

        The price's column holds, per term, (value, d/dS, d2/dS2) of the
        Kummer factor by the chain rule through v = sign * u, times those of
        the S prefactor (S, 1, 0) and of the Gaussian factor (1, -u',
        u'^2 - u'') over its exponential by the product rule. The t
        dependence is the carrier alone, so C_t = alpha C; carrier and
        Gaussian share one exponential, e^{alpha t - g}, as in the value path.
        Each output is one exactly rounded sum over a list of its terms.
        """
        exp = math.exp
        values = []
        slopes = []
        firsts = []
        seconds = []
        for coeff, alpha, g, f0, f1, f2 in self._columns.get(S) or self._column(S):
            exponent = alpha * t - g
            if abs(exponent) > EXP_GUARD:  # safe_exp raises; a NaN passes it
                safe_exp(exponent)
            carrier = coeff * exp(exponent)
            c = carrier * f0
            values.append(c)
            slopes.append(alpha * c)
            firsts.append(carrier * f1)
            seconds.append(carrier * f2)
        if len(values) == 1:  # fsum of one float, but for -0.0, which it sums to 0.0
            sums = (values[0] + 0.0, slopes[0] + 0.0, firsts[0] + 0.0, seconds[0] + 0.0)
        else:
            try:
                sums = (math.fsum(values), math.fsum(slopes), math.fsum(firsts),
                        math.fsum(seconds))
            except (OverflowError, ValueError):
                sums = tuple(map(_exact_sum, (values, slopes, firsts, seconds)))
        c, c_t, c_s, c_ss = sums
        isfinite = math.isfinite
        if not (isfinite(c) and isfinite(c_t) and isfinite(c_s) and isfinite(c_ss)):
            _finite(sums, t, S)
        return sums
