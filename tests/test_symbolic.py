"""The group records and their composition against sympy, from closed forms written out here.

Each group's finite map is transcribed independently of ``symmetry``: the
image time T(t), the price map A(t) S + B(t), and the log C-factor
k0(t) + k1(t) S + k2(t) S^2. sympy differentiates the transcriptions in t
and composes them along a pipeline; the package's records and ``_compose``
must agree at sample points.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from bachelier_symmetries.solutions import ModelParams  # noqa: E402
from bachelier_symmetries.symmetry import _RECORDS, GroupElement, _compose  # noqa: E402

t, S, eps = sympy.symbols("t S epsilon", real=True)
r, sigma = sympy.Rational(1, 20), sympy.Rational(1, 5)
P = ModelParams(0.05, 0.2)
TOL = 1e-13


def closed_form(i, time, price, e):
    """(t', S', k) of G_i(e) at (time, price), transcribed from the module docstring's groups."""
    if i == 1:
        return time + e, price, sympy.Integer(0)
    if i == 2:
        return time, price + e * sympy.exp(r * time), sympy.Integer(0)
    if i == 3:
        shift = e * sympy.exp(-r * time)
        # C' = exp(-r (2 S shift + shift^2) / sigma^2) C
        return time, price + shift, -r * (2 * price * shift + shift**2) / sigma**2
    if i == 4:
        w = sympy.exp(2 * r * time) + e
        return (sympy.log(w) / (2 * r), price * sympy.exp(r * time) / sympy.sqrt(w),
                sympy.log(w * sympy.exp(-2 * r * time)) + r * e * price**2 / (sigma**2 * w))
    if i == 5:
        v = sympy.exp(-2 * r * time) + e
        return (-sympy.log(v) / (2 * r), price * sympy.exp(-r * time) / sympy.sqrt(v),
                -sympy.log(v * sympy.exp(2 * r * time)) / 2)
    return time, price, e


def coefficients(image_t, image_S, k):
    """(T, A, B, k0, k1, k2) of a map affine in S with a log factor quadratic in S."""
    return (image_t, sympy.diff(image_S, S), image_S.subs(S, 0),
            k.subs(S, 0), sympy.diff(k, S).subs(S, 0), sympy.diff(k, S, 2).subs(S, 0) / 2)


def with_derivatives(columns):
    """The record layout: every column followed by its t-derivative."""
    return [expr for column in columns for expr in (column, sympy.diff(column, t))]


def close(computed, exact):
    exact = float(exact)
    return abs(computed - exact) <= TOL * max(1.0, abs(exact))


@pytest.mark.parametrize("i", range(1, 7))
def test_record_columns_are_the_closed_form_and_its_t_derivatives(i):
    for e_value in (-0.35, 0.2, 0.45):
        expected = with_derivatives(coefficients(*closed_form(i, t, S, sympy.Float(e_value))))
        for t_value in (-0.3, 0.0, 0.4, 0.9):
            record = _RECORDS[i - 1](t_value, e_value, P)
            assert len(record) == 12
            for column, (computed, exact) in enumerate(zip(record, expected)):
                exact = exact.subs(t, t_value).evalf(30)
                assert close(computed, exact), (i, e_value, t_value, column, computed, exact)


@pytest.mark.parametrize("seed", range(4))
def test_three_stage_composition_is_the_symbolic_pullback(seed):
    rng = random.Random(seed)
    stages = tuple(GroupElement(rng.randint(1, 6), round(rng.uniform(-0.4, 0.4), 3))
                   for _ in range(3))
    # the pullback reads each stage at -eps, from the last stage to the first
    time, price, log_factor = t, S, sympy.Integer(0)
    for g in reversed(stages):
        time, price, k = closed_form(g.gen_index, time, price, -sympy.Float(g.epsilon))
        log_factor += k
    expected = with_derivatives(coefficients(time, sympy.expand(price), sympy.expand(log_factor)))
    for t_value in (0.0, 0.35, 1.0):
        composed = _compose(stages, t_value, P)
        for column, (computed, exact) in enumerate(zip(composed, expected)):
            exact = exact.subs(t, t_value).evalf(30)
            assert close(computed, exact), (stages, t_value, column, computed, exact)
