"""Base solution families: frozen values, derivative cross-checks, combinations."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from bachelier_symmetries.errors import InvalidParameter, RangeError
from bachelier_symmetries.kummer import (
    kummer_truncated,
    kummer_truncated_d2u,
    kummer_truncated_du,
)
from bachelier_symmetries.solutions import (
    BaseCombo,
    ComboSolution,
    ModelParams,
    SolutionTerm,
    safe_exp,
)
from bachelier_symmetries.pde_verify import default_step
from bachelier_symmetries.reference_forms import worked_combo

P = ModelParams(r=0.05, sigma=0.2)
P_NEG = ModelParams(r=-0.03, sigma=0.2)
POINTS = [(0.0, 0.1), (0.3, 0.7), (0.8, -1.4), (1.0, 2.0), (0.5, 0.0)]


class TestModelParams:
    def test_accepts_negative_rate(self):
        assert ModelParams(-0.03, 0.2).r == -0.03

    @pytest.mark.parametrize("r,sigma", [(0.0, 0.2), (0.05, 0.0), (0.05, -0.1),
                                         (float("nan"), 0.2), (0.05, float("inf")),
                                         (0.05, 1e200), (0.05, 1e-170), (10**400, 0.2)])
    def test_rejects_bad_values(self, r, sigma):
        with pytest.raises(InvalidParameter):
            ModelParams(r, sigma)


class TestSolutionTerm:
    @pytest.mark.parametrize("n", [0, -2, -4, -10, -50, -100])
    def test_valid_orders(self, n):
        assert SolutionTerm(1, n).order_n == n

    @pytest.mark.parametrize("q,n", [(0, 0), (5, 0), (1, 1), (1, -3), (1, 2), (1, 0.5),
                                     (1, math.inf), (1, math.nan), (True, 0), (1, -102)])
    def test_invalid_terms(self, q, n):
        with pytest.raises(InvalidParameter):
            SolutionTerm(q, n)

    def test_degree(self):
        assert SolutionTerm(2, -8).degree == 4

    def test_combo_must_be_nonempty(self):
        with pytest.raises(InvalidParameter):
            BaseCombo(())

    def test_combo_entries_must_be_terms(self):
        with pytest.raises(InvalidParameter, match="must be SolutionTerm"):
            BaseCombo((SolutionTerm(1, 0), (2, -2, 1.0)))


class TestFamilyValues:
    @pytest.mark.parametrize("t,S", POINTS)
    def test_class1_order0_is_price(self, t, S):
        assert ComboSolution(SolutionTerm(1, 0), P)(t, S) == pytest.approx(S, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("t,S", POINTS)
    def test_class2_order0_is_carrier(self, t, S):
        assert ComboSolution(SolutionTerm(2, 0), P)(t, S) == pytest.approx(
            math.exp(P.r * t), rel=1e-15)

    def test_class4_order2_frozen_point(self):
        # e^{4rt - u} (1 - 2u) with u = r (S/sigma)^2 at t=0, S=0.1: u = 0.0125
        value = ComboSolution(SolutionTerm(4, -2), P)(0.0, 0.1)
        assert value == pytest.approx(math.exp(-0.0125) * 0.975, rel=1e-14)

    @pytest.mark.parametrize("params", [P, P_NEG])
    @pytest.mark.parametrize("t,S", POINTS)
    def test_class4_order2_formula(self, params, t, S):
        u = params.r * (S / params.sigma) ** 2
        expected = math.exp(4.0 * params.r * t - u) * (1.0 - 2.0 * u)
        assert ComboSolution(SolutionTerm(4, -2), params)(t, S) == pytest.approx(
            expected, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("params", [P, P_NEG])
    @pytest.mark.parametrize("t,S", POINTS)
    def test_class1_order2_formula(self, params, t, S):
        u = params.r * (S / params.sigma) ** 2
        expected = S * (1.0 + (2.0 / 3.0) * u) * math.exp(-2.0 * params.r * t)
        assert ComboSolution(SolutionTerm(1, -2), params)(t, S) == pytest.approx(
            expected, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("t,S", POINTS)
    def test_class3_order2_formula(self, t, S):
        u = P.r * (S / P.sigma) ** 2
        expected = S * (1.0 - (2.0 / 3.0) * u) * math.exp(5.0 * P.r * t - u)
        assert ComboSolution(SolutionTerm(3, -2), P)(t, S) == pytest.approx(
            expected, rel=1e-13, abs=1e-13)

    def test_coefficient_scales_value(self):
        plain = ComboSolution(SolutionTerm(2, -4), P)(0.4, 1.1)
        scaled = ComboSolution(SolutionTerm(2, -4, -3.5), P)(0.4, 1.1)
        assert scaled == pytest.approx(-3.5 * plain, rel=1e-15)

    def test_overflow_guard(self):
        with pytest.raises(RangeError):
            ComboSolution(SolutionTerm(2, 0), P)(2.0e4, 0.0)


def _fd_partials(term, t, S, params):
    h_t = default_step(t)
    h_s = default_step(S)
    f = ComboSolution(term, params)
    c_t = (4.0 * (f(t + h_t / 2, S) - f(t - h_t / 2, S)) / h_t
           - (f(t + h_t, S) - f(t - h_t, S)) / (2.0 * h_t)) / 3.0
    c_s = (4.0 * (f(t, S + h_s / 2) - f(t, S - h_s / 2)) / h_s
           - (f(t, S + h_s) - f(t, S - h_s)) / (2.0 * h_s)) / 3.0
    centre = f(t, S)
    coarse = (f(t, S + h_s) - 2.0 * centre + f(t, S - h_s)) / h_s**2
    fine = (f(t, S + h_s / 2) - 2.0 * centre + f(t, S - h_s / 2)) / (h_s / 2) ** 2
    return c_t, c_s, (4.0 * fine - coarse) / 3.0


class TestPartials:
    @pytest.mark.parametrize("t,S", POINTS)
    def test_linear_member(self, t, S):
        c, c_t, c_s, c_ss = ComboSolution(SolutionTerm(1, 0), P).partials(t, S)
        assert (c, c_t, c_s, c_ss) == (pytest.approx(S), 0.0, pytest.approx(1.0), 0.0)

    def test_carrier_member(self):
        c, c_t, c_s, c_ss = ComboSolution(SolutionTerm(2, 0), P).partials(0.7, -1.2)
        assert c_t == pytest.approx(P.r * math.exp(P.r * 0.7), rel=1e-14)
        assert c_s == 0.0 and c_ss == 0.0

    def test_frozen_cross_check_point(self):
        c, c_t, c_s, c_ss = ComboSolution(SolutionTerm(4, -2), P).partials(0.3, 0.7)
        f_t, f_s, f_ss = _fd_partials(SolutionTerm(4, -2), 0.3, 0.7, P)
        assert c_t == pytest.approx(f_t, rel=1e-7)
        assert c_s == pytest.approx(f_s, rel=1e-7)
        assert c_ss == pytest.approx(f_ss, rel=1e-7)

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [0, -2, -4, -6, -8])
    def test_all_members_match_finite_differences(self, q, n):
        term = SolutionTerm(q, n)
        for t, S in ((0.25, 0.9), (0.75, -1.6)):
            c_t, c_s, c_ss = ComboSolution(term, P).partials(t, S)[1:]
            f_t, f_s, f_ss = _fd_partials(term, t, S, P)
            for exact, numeric in ((c_t, f_t), (c_s, f_s), (c_ss, f_ss)):
                assert abs(exact - numeric) <= 1e-7 * max(1.0, abs(exact))

    @pytest.mark.parametrize("params", [P, P_NEG])
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_value_matches_eval_term(self, q, params):
        # the value slot rounds like the value path even where the Gaussian
        # exponent is large (|u| up to 320 at |S| = 16)
        for n in range(0, -14, -2):
            for coeff in (1.0, -2.5, 0.3):
                term = SolutionTerm(q, n, coeff)
                f = ComboSolution(term, params)
                for t in (0.0, 1.0):
                    for k in range(-32, 33):
                        S = k / 2.0
                        value = f(t, S)
                        c = f.partials(t, S)[0]
                        assert abs(value - c) <= 1e-15 * abs(value), (term, t, S)


class TestCombos:
    def test_single_term_combo_matches_term(self):
        term = SolutionTerm(3, -4, 2.5)
        combo = BaseCombo((term,))
        assert ComboSolution(combo, P)(0.4, 1.3) == ComboSolution(term, P)(0.4, 1.3)

    def test_worked_combo_at_origin(self):
        # S-prefixed members vanish, carriers are 1: 1 + 3 + 7 + 9 = 20
        assert ComboSolution(worked_combo(), P)(0.0, 0.0) == pytest.approx(20.0, rel=1e-15)

    @given(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
    @settings(max_examples=60)
    def test_scaling_linearity(self, alpha):
        combo = worked_combo()
        scaled = BaseCombo(tuple(
            SolutionTerm(term.class_q, term.order_n, alpha * term.coeff)
            for term in combo.terms))
        base = ComboSolution(combo, P)(0.6, -0.8)
        assert ComboSolution(scaled, P)(0.6, -0.8) == pytest.approx(
            alpha * base, rel=1e-13, abs=1e-12)

    def test_combo_solution_is_callable_with_partials(self):
        f = ComboSolution(worked_combo(), P)
        assert f(0.0, 0.0) == pytest.approx(20.0)
        c, c_t, c_s, c_ss = f.partials(0.2, 0.5)
        assert c == pytest.approx(f(0.2, 0.5), rel=1e-15)

    def test_promotes_bare_term(self):
        f = ComboSolution(SolutionTerm(1, 0), P)
        assert f(0.9, 1.7) == pytest.approx(1.7)

    def test_overflowing_value_raises(self):
        # each term's exponent (r t = 695) passes the guard; times 1e10 it is inf
        f = ComboSolution(SolutionTerm(2, 0, 1e10), P)
        with pytest.raises(RangeError, match="not finite"):
            f(13900.0, 0.0)
        with pytest.raises(RangeError, match="not finite"):
            f.partials(13900.0, 0.0)

    @pytest.mark.parametrize("q, coeffs, t, S", [
        (1, (1e300, 1e300), 0.0, 1e8),     # finite terms whose sum overflows
        (2, (1e10, -1e10), 13900.0, 0.0),  # inf - inf
    ])
    def test_non_finite_sum_raises(self, q, coeffs, t, S):
        f = ComboSolution(BaseCombo(tuple(SolutionTerm(q, 0, c) for c in coeffs)), P)
        with pytest.raises(RangeError, match="not finite"):
            f(t, S)
        with pytest.raises(RangeError, match="not finite"):
            f.partials(t, S)

    def test_intermediate_overflow_with_finite_sum(self):
        # fsum overflows on 1e308 + 1e308 before the last term brings the
        # total back into range; the exact sum is 1e308
        terms = tuple(SolutionTerm(1, 0, c) for c in (1e300, 1e300, -1e300))
        f = ComboSolution(BaseCombo(terms), P)
        assert f(0.0, 1e8) == 1e308
        assert f.partials(0.0, 1e8) == (1e308, 0.0, 1e300, 0.0)

    def test_exact_sum_outside_float_range_raises(self):
        f = ComboSolution(BaseCombo((SolutionTerm(1, 0, 1e308), SolutionTerm(1, 0, 1e308))), P)
        with pytest.raises(RangeError, match="not finite"):
            f(0.0, 1.0)
        with pytest.raises(RangeError, match="not finite"):
            f.partials(0.0, 1.0)


@pytest.mark.parametrize("S", [1e160, -5e159])
def test_squared_price_overflow_is_range_error(S):
    term = SolutionTerm(1, 0)
    with pytest.raises(RangeError, match="overflows"):
        ComboSolution(term, P)(0.0, S)
    with pytest.raises(RangeError, match="overflows"):
        ComboSolution(term, P).partials(0.0, S)


# Term by term from the public Kummer functions, in the order of operations
# the compiled kernels must reproduce bit for bit: (b, sign of the Kummer
# argument, S prefactor?, e^{-u} factor?, na, nb) with carrier (na n + nb) r t
_REFERENCE_CLASSES = {
    1: (1.5, -1.0, True, False, 1, 0),
    2: (0.5, -1.0, False, False, 1, 1),
    3: (1.5, 1.0, True, True, -1, 3),
    4: (0.5, 1.0, False, True, -1, 2),
}


def _reference_value(term, t, S, params):
    b, sgn, with_price, with_gauss, na, nb = _REFERENCE_CLASSES[term.class_q]
    u = params.r * (S / params.sigma) ** 2
    value = kummer_truncated(term.degree, b, sgn * u)
    if with_price:
        value *= S
    exponent = (na * term.order_n + nb) * params.r * t
    if with_gauss:
        exponent -= u
    return term.coeff * value * safe_exp(exponent)


def _product(a, b):
    # (value, d/dS, d2/dS2) of a product from those of its factors
    return (a[0] * b[0], a[1] * b[0] + a[0] * b[1],
            a[2] * b[0] + 2.0 * a[1] * b[1] + a[0] * b[2])


def _reference_partials(term, t, S, params):
    b, sgn, with_price, with_gauss, na, nb = _REFERENCE_CLASSES[term.class_q]
    r, sigma = params.r, params.sigma
    u = r * (S / sigma) ** 2
    du = 2.0 * r * S / sigma**2
    d2u = 2.0 * r / sigma**2
    m, v = term.degree, sgn * u
    p0, p1, p2 = (kummer_truncated(m, b, v), kummer_truncated_du(m, b, v),
                  kummer_truncated_d2u(m, b, v))
    fac = (p0, sgn * du * p1, du * du * p2 + sgn * d2u * p1)
    if with_price:
        fac = _product((S, 1.0, 0.0), fac)
    alpha = (na * term.order_n + nb) * r
    exponent = alpha * t
    if with_gauss:
        fac = _product((1.0, -du, du * du - d2u), fac)
        exponent -= u
    carrier = term.coeff * safe_exp(exponent)
    c = carrier * fac[0]
    return c, alpha * c, carrier * fac[1], carrier * fac[2]


def _rounded_sum(values):
    # exactly rounded: fsum, or where an intermediate sum overflows, the exact
    # rational sum rounded once
    try:
        return math.fsum(values)
    except OverflowError:
        return float(sum(map(Fraction, values)))


def _reference_combo(terms, t, S, params):
    # value and partials of the sum, each column exactly rounded
    value = _rounded_sum([_reference_value(term, t, S, params) for term in terms])
    rows = [_reference_partials(term, t, S, params) for term in terms]
    return value, tuple(map(_rounded_sum, zip(*rows)))


# reprs, not ==, which equates 0.0 and -0.0
@pytest.mark.parametrize("params", [P, P_NEG], ids=["r>0", "r<0"])
def test_compiled_combination_is_bit_identical_to_term_by_term(params):
    rng = random.Random(8128)
    below = above = 0
    for _ in range(150):
        terms = tuple(SolutionTerm(rng.randint(1, 4), -2 * rng.randint(0, 20),
                                   rng.uniform(-3.0, 3.0)) for _ in range(rng.randint(1, 6)))
        f = ComboSolution(BaseCombo(terms), params)
        for _ in range(8):
            t, S = rng.uniform(0.0, 1.0), rng.uniform(-4.0, 4.0)
            u = abs(params.r) * (S / params.sigma) ** 2
            below, above = below + (u <= 0.5), above + (u > 0.5)
            assert repr((f(t, S), f.partials(t, S))) == repr(_reference_combo(terms, t, S, params))
        for t, S in product((0.0, -0.0), (0.0, -0.0)):
            assert repr((f(t, S), f.partials(t, S))) == repr(_reference_combo(terms, t, S, params))
    assert below > 100 and above > 100


@pytest.mark.parametrize("params", [P, P_NEG], ids=["r>0", "r<0"])
def test_combination_with_one_overflowing_column_is_bit_identical(params):
    # each C is +/-1e308, so fsum overflows on the C column alone; the value is 1e308
    terms = (SolutionTerm(1, 0, 1e300), SolutionTerm(1, 0, 1e300), SolutionTerm(1, 0, -1e300))
    f = ComboSolution(BaseCombo(terms), params)
    with pytest.raises(OverflowError):
        math.fsum([_reference_partials(term, 0.5, 1e8, params)[0] for term in terms])
    expected = _reference_combo(terms, 0.5, 1e8, params)
    assert expected[0] == expected[1][0] == 1e308
    assert repr((f(0.5, 1e8), f.partials(0.5, 1e8))) == repr(expected)


@pytest.mark.parametrize("params", [P, P_NEG], ids=["r>0", "r<0"])
def test_compiled_combination_raises_where_term_by_term_does(params):
    # at t = 2e4 a carrier exponent passes the guard, at either sign of r
    terms = (SolutionTerm(2, 0, 2.0), SolutionTerm(4, -6))
    f = ComboSolution(BaseCombo(terms), params)
    with pytest.raises(RangeError, match="guard") as expected:
        _reference_combo(terms, 2.0e4, 0.3, params)
    for evaluate in (f, f.partials):
        with pytest.raises(RangeError) as raised:
            evaluate(2.0e4, 0.3)
        assert str(raised.value) == str(expected.value)
