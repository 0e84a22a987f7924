"""Truncated Kummer polynomial: frozen values, identities, and cross-checks."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bachelier_symmetries import kummer
from bachelier_symmetries.errors import InvalidParameter
from bachelier_symmetries.kummer import (
    kummer_truncated,
    kummer_truncated_d2u,
    kummer_truncated_du,
    pochhammer,
)
from bachelier_symmetries.pde_verify import derivative_richardson, residual_scan
from bachelier_symmetries.solutions import ComboSolution, SolutionTerm
from bachelier_symmetries.verification import DEFAULT_GRID, DEFAULT_PARAMS, TOL_BASE_RESIDUAL

U_GRID = [-10.0, -6.0, -3.0, -1.0, -0.3, 0.0, 0.3, 1.0, 3.0, 6.0, 10.0]


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.0, 0) == 1.0

    def test_integer_rise(self):
        assert pochhammer(1.0, 4) == 24.0

    def test_half_integer(self):
        assert pochhammer(0.5, 2) == 0.75

    def test_rejects_negative_index(self):
        with pytest.raises(InvalidParameter):
            pochhammer(1.0, -1)


class TestValues:
    def test_degree_zero_is_one(self):
        assert kummer_truncated(0, 1.5, 7.3) == 1.0

    def test_degree_one_half(self):
        # F(-1, 1/2; u) = 1 - 2u
        assert kummer_truncated(1, 0.5, 0.25) == pytest.approx(0.5, rel=1e-15)

    def test_degree_one_three_half(self):
        # F(-1, 3/2; u) = 1 - (2/3) u
        assert kummer_truncated(1, 1.5, 0.3) == pytest.approx(0.8, rel=1e-15)

    @pytest.mark.parametrize("u", [-2.0, -0.5, 0.0, 0.7, 3.0])
    def test_degree_two_half(self, u):
        # F(-2, 1/2; u) = 1 - 4u + (4/3) u^2
        assert kummer_truncated(2, 0.5, u) == pytest.approx(
            1.0 - 4.0 * u + (4.0 / 3.0) * u * u, rel=1e-14, abs=1e-14)

    @given(st.integers(min_value=0, max_value=50), st.sampled_from([0.5, 1.5, 2.5]))
    def test_value_at_origin_is_exactly_one(self, m, b):
        assert kummer_truncated(m, b, 0.0) == 1.0


class TestDerivative:
    def test_constant_has_zero_slope(self):
        assert kummer_truncated_du(0, 1.5, 4.2) == 0.0

    def test_linear_slope(self):
        assert kummer_truncated_du(1, 0.5, 123.0) == -2.0

    def test_quadratic_slope(self):
        assert kummer_truncated_du(2, 0.5, 1.0) == pytest.approx(-4.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("b", [0.5, 1.5])
    def test_matches_finite_differences(self, m, b):
        for u in U_GRID:
            numeric = derivative_richardson(lambda x: kummer_truncated(m, b, x), u)
            exact = kummer_truncated_du(m, b, u)
            assert abs(numeric - exact) <= 1e-8 * max(1.0, abs(exact))

    @given(
        st.integers(min_value=1, max_value=10),
        st.sampled_from([0.5, 1.5, 2.75]),
        # the worst on a 0.001 grid is 5.8e-14 up to u = 10 and 3.4e-12 up
        # to u = 20, past the bound
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_contiguous_identity(self, m, b, u):
        # d/du F(-m, b; u) = (-m/b) F(-(m-1), b+1; u)
        lhs = kummer_truncated_du(m, b, u)
        rhs = (-m / b) * kummer_truncated(m - 1, b + 1.0, u)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))

    @given(
        st.integers(min_value=0, max_value=10),
        st.sampled_from([0.5, 1.5, 2.75]),
        st.floats(min_value=-10.0, max_value=20.0, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_kummer_equation(self, m, b, u):
        # u F'' + (b - u) F' + m F = 0 (DLMF 13.2.1 at a = -m); the
        # evaluator never uses it, so it checks F, F' and F'' together
        terms = (u * kummer_truncated_d2u(m, b, u), (b - u) * kummer_truncated_du(m, b, u),
                 m * kummer_truncated(m, b, u))
        assert abs(math.fsum(terms)) <= 1e-12 * max(1.0, *map(abs, terms))

    @pytest.mark.parametrize("m", range(2, 9))
    def test_second_derivative_consistent(self, m):
        for u in (-3.0, -0.5, 0.4, 2.0):
            numeric = derivative_richardson(lambda x: kummer_truncated_du(m, 1.5, x), u)
            exact = kummer_truncated_d2u(m, 1.5, u)
            assert abs(numeric - exact) <= 1e-7 * max(1.0, abs(exact))


class TestDegree:
    @pytest.mark.parametrize("m", range(11))
    @pytest.mark.parametrize("b", [0.5, 1.5])
    def test_difference_of_order_m_plus_one_annihilates(self, m, b):
        h, base = 0.5, -1.0
        values = [kummer_truncated(m, b, base + j * h) for j in range(m + 2)]
        null = math.fsum(
            (-1.0) ** (m + 1 - j) * math.comb(m + 1, j) * values[j]
            for j in range(m + 2))
        witness = math.fsum(abs(math.comb(m + 1, j) * v) for j, v in enumerate(values))
        assert abs(null) <= 1e-10 * max(1.0, witness)

    @pytest.mark.parametrize("m", range(1, 11))
    @pytest.mark.parametrize("b", [0.5, 1.5])
    def test_leading_coefficient(self, m, b):
        # degree is exactly m: the m-th difference recovers (-1)^m / (b)_m != 0
        h, base = 0.5, -1.0
        values = [kummer_truncated(m, b, base + j * h) for j in range(m + 1)]
        mth = math.fsum((-1.0) ** (m - j) * math.comb(m, j) * values[j] for j in range(m + 1))
        lead = (-1.0) ** m / pochhammer(b, m)
        assert mth / (math.factorial(m) * h**m) == pytest.approx(lead, rel=1e-6)
        assert lead != 0.0


class TestValidation:
    def test_zero_b_rejected(self):
        with pytest.raises(InvalidParameter):
            kummer_truncated(2, 0.0, 1.0)

    def test_negative_integer_b_rejected_when_hit(self):
        with pytest.raises(InvalidParameter):
            kummer_truncated(3, -1.0, 1.0)

    def test_negative_noninteger_b_allowed(self):
        # (b)_k stays nonzero for b = -2.5 whatever the degree
        assert math.isfinite(kummer_truncated(4, -2.5, 1.3))

    def test_negative_integer_b_allowed_below_reach(self):
        # (-5)_k for k <= 3 never vanishes
        assert math.isfinite(kummer_truncated(3, -5.0, 0.7))

    def test_non_integer_order_rejected(self):
        with pytest.raises(InvalidParameter):
            kummer_truncated(1.5, 0.5, 1.0)

    def test_negative_order_rejected(self):
        with pytest.raises(InvalidParameter):
            kummer_truncated(-1, 0.5, 1.0)

    @pytest.mark.parametrize("fn", [kummer_truncated, kummer_truncated_du, kummer_truncated_d2u])
    def test_bool_order_rejected_after_integer_cached(self, fn):
        # True == 1 and hashes like it; the coefficient cache must not
        # hand it the tables of order 1
        for g in (kummer_truncated, kummer_truncated_du, kummer_truncated_d2u):
            g(1, 0.5, 1.0)
        with pytest.raises(InvalidParameter):
            fn(True, 0.5, 1.0)

    def test_integral_float_order_accepted(self):
        assert kummer_truncated(2.0, 0.5, 0.7) == kummer_truncated(2, 0.5, 0.7)

    def test_rejected_order_raises_again(self):
        for _ in range(2):
            with pytest.raises(InvalidParameter):
                kummer_truncated(1.5, 0.5, 1.0)


def test_against_scipy_hyp1f1():
    special = pytest.importorskip("scipy.special")
    for m in range(7):
        for b in (0.5, 1.5):
            for u in (-4.0, -1.0, 0.3, 2.0, 5.0):
                reference = float(special.hyp1f1(-m, b, u))
                assert kummer_truncated(m, b, u) == pytest.approx(
                    reference, rel=1e-10, abs=1e-10)


def _exact_kummer(m, b, u):
    # the same polynomial in exact rational arithmetic: coefficients from the
    # term-ratio recurrence without rounding, evaluated at the exact float u
    b, u = Fraction(b), Fraction(u)
    coeff = total = power = Fraction(1)
    for k in range(m):
        coeff = coeff * (k - m) / ((b + k) * (k + 1))
        power *= u
        total += coeff * power
    return total


@pytest.mark.parametrize("max_m,u_lo,u_hi,bound", [
    (20, -10.0, 0.0, 1e-15),
    (6, -5.0, 5.0, 5e-14),
    (20, -5.0, 5.0, 1e-10),
])
def test_against_exact_rational_evaluation(max_m, u_lo, u_hi, bound):
    """The accuracy envelopes stated in the kummer module docstring."""
    steps = int((u_hi - u_lo) / 0.25)
    for m in range(max_m + 1):
        for b in (0.5, 1.5):
            for j in range(steps + 1):
                u = u_lo + 0.25 * j
                exact = _exact_kummer(m, b, u)
                error = abs(Fraction(kummer_truncated(m, b, u)) - exact) / max(1, abs(exact))
                assert error <= bound, (m, b, u, float(error))


def _exact_partials(m, b, u):
    # (F, F', F'') of the same polynomial in exact rational arithmetic
    b, u = Fraction(b), Fraction(u)
    coeffs = [Fraction(1)]
    for k in range(m):
        coeffs.append(coeffs[-1] * (k - m) / ((b + k) * (k + 1)))
    return tuple(sum(c * math.perm(k, j) * u ** (k - j) for k, c in enumerate(coeffs) if k >= j)
                 for j in range(3))


@pytest.mark.parametrize("order,fn", enumerate(
    [kummer_truncated, kummer_truncated_du, kummer_truncated_d2u]))
def test_positive_argument_against_exact_rational_evaluation(order, fn):
    """The m <= 20, u in [0, 20] row of the kummer module docstring."""
    for m in range(21):
        for b in (0.5, 1.5):
            for j in range(41):
                u = 0.5 * j
                exact = _exact_partials(m, b, u)[order]
                error = abs(Fraction(fn(m, b, u)) - exact) / max(1, abs(exact))
                assert error <= 1e-12, (m, b, u, float(error))


def test_base_residual_sees_a_perturbed_recurrence(monkeypatch):
    """F'' above u = 1/2 does not come from Kummer's equation, so the
    analytic PDE residual sees an error in the degree recurrence."""
    tables = kummer._tables

    def perturbed(m, b):
        coeffs, du, d2u, steps = tables(m, b)
        return coeffs, du, d2u, tuple((n, c, d * (1.0 + 1e-6)) for n, c, d in steps)

    kummer._last_three.cache_clear()
    monkeypatch.setattr(kummer, "_tables", perturbed)
    try:
        report = residual_scan(ComboSolution(SolutionTerm(3, -8), DEFAULT_PARAMS),
                               DEFAULT_GRID, DEFAULT_PARAMS, mode="analytic")
    finally:
        kummer._last_three.cache_clear()
    assert report.max_normalized > TOL_BASE_RESIDUAL
