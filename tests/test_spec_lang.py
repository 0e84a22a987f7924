"""Expression language: parsing, formatting, round trips, error locations."""

import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from bachelier_symmetries.errors import ParseError, SemanticError
from bachelier_symmetries.solutions import BaseCombo, ComboSolution, ModelParams, SolutionTerm
from bachelier_symmetries.spec_lang import (
    SolutionExpr,
    _Scanner,
    expression_function,
    format_expr,
    parse_expr,
    parse_group_element,
)
from bachelier_symmetries.symmetry import GroupElement, chain_function
from bachelier_symmetries.verification import _BAD_SEMANTICS, _MALFORMED

P = ModelParams(r=0.05, sigma=0.2)


class TestParsing:
    def test_minimal_expression(self):
        expr = parse_expr("C1[0]")
        assert expr == SolutionExpr(BaseCombo((SolutionTerm(1, 0, 1.0),)), ())

    def test_worked_combination_with_pipeline(self):
        text = ("2*C1[0] + 5*C1[-2] + C2[0] + 3*C2[-2] + 4*C3[0] + 6*C3[-2] "
                "+ 7*C4[0] + 9*C4[-2] | G3(0.1)")
        expr = parse_expr(text)
        assert [(t.class_q, t.order_n, t.coeff) for t in expr.combo.terms] == [
            (1, 0, 2.0), (1, -2, 5.0), (2, 0, 1.0), (2, -2, 3.0),
            (3, 0, 4.0), (3, -2, 6.0), (4, 0, 7.0), (4, -2, 9.0)]
        assert expr.pipeline == (GroupElement(3, 0.1),)

    def test_minus_negates_following_term(self):
        expr = parse_expr("C1[0] - 2.5*C2[-2]")
        assert expr.combo.terms[1].coeff == -2.5

    def test_signed_and_exponent_numbers(self):
        expr = parse_expr("-2*C1[0] + +0.5*C2[0] + 1e-3*C3[-2] + .25*C4[0]")
        assert [t.coeff for t in expr.combo.terms] == [-2.0, 0.5, 1e-3, 0.25]

    def test_whitespace_insensitive(self):
        loose = parse_expr("  2 * C1 [ 0 ]   |  G6 ( 0.5 )  ")
        tight = parse_expr("2*C1[0]|G6(0.5)")
        assert loose == tight

    def test_pipeline_order_preserved(self):
        expr = parse_expr("C1[0] | G1(0.1) | G4(-0.2) | G1(0.3)")
        assert [g.gen_index for g in expr.pipeline] == [1, 4, 1]
        assert [g.epsilon for g in expr.pipeline] == [0.1, -0.2, 0.3]

    def test_single_group_element(self):
        assert parse_group_element(" G6( -0.25 ) ") == GroupElement(6, -0.25)

    def test_single_group_element_rejects_trailing(self):
        with pytest.raises(ParseError):
            parse_group_element("G6(0.25) junk")


class TestErrors:
    @pytest.mark.parametrize("text", _MALFORMED)
    def test_malformed_raises_parse_error(self, text):
        with pytest.raises(ParseError) as info:
            parse_expr(text)
        assert isinstance(info.value.offset, int) and info.value.offset >= 0
        assert info.value.expected

    @pytest.mark.parametrize("text", _BAD_SEMANTICS)
    def test_out_of_range_raises_semantic_error(self, text):
        with pytest.raises(SemanticError) as info:
            parse_expr(text)
        assert isinstance(info.value.offset, int) and info.value.offset >= 0

    def test_parse_error_reports_position_and_expectations(self):
        with pytest.raises(ParseError) as info:
            parse_expr("C1[0] ? C2[0]")
        assert info.value.offset == 6
        assert any("+" in token for token in info.value.expected)

    def test_semantic_error_points_at_order(self):
        with pytest.raises(SemanticError) as info:
            parse_expr("C1[7]")
        assert info.value.offset == 3

    @pytest.mark.parametrize(
        "text",
        ["C1[-102]", "C1[" + "2" * 5000 + "]", "C1[-" + "2" * 5000 + "]", "C1[+" + "0" * 5000 + "2]"],
        ids=["past-bound", "long", "long-negative", "long-leading-zeros"],
    )
    def test_order_past_the_kummer_bound_points_at_order(self, text):
        # int() refuses texts of more than 4300 digits; the reader does not
        with pytest.raises(SemanticError) as info:
            parse_expr(text)
        assert info.value.offset == 3

    def test_leading_zeros_do_not_bound_an_order(self):
        expr = parse_expr("C1[-" + "0" * 4300 + "2] + C2[" + "0" * 5000 + "]")
        assert [term.order_n for term in expr.combo.terms] == [-2, 0]

    def test_offsets_are_byte_offsets(self):
        with pytest.raises(ParseError) as info:
            parse_expr("C1[0] ⊕ C2[0]")
        assert info.value.offset == len("C1[0] ".encode("utf-8"))

    @pytest.mark.parametrize(
        "text, prefix",
        [("C²", "C"), ("C1[0] | G²(0.1)", "C1[0] | G"), ("C١[0]", "C"), ("٣*C1[0]", ""), ("C1[-٢]", "C1[")],
    )
    def test_non_ascii_digits_are_parse_errors(self, text, prefix):
        with pytest.raises(ParseError) as info:
            parse_expr(text)
        assert info.value.offset == len(prefix.encode("utf-8"))


# the numeral rules as the regular expressions the scanner once used: the
# reader that replaced them must consume exactly what they match
_NUMBER = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)
_INTEGER = re.compile(r"[+-]?\d+", re.ASCII)
_NUMERAL_TEXTS = ["".join(chars) for n in range(5) for chars in itertools.product("01.eE+-x²", repeat=n)]
# runs around the reader's 32-character chunks
_NUMERAL_TEXTS += ["1" * k + tail for k in (31, 32, 33, 64, 65) for tail in ("", "x", ".5e+7x", "e" + "3" * k)]


@pytest.mark.parametrize("pattern, label", [(_NUMBER, "number"), (_INTEGER, "integer")], ids=["number", "integer"])
def test_numeral_reader_against_the_patterns(pattern, label):
    for text in _NUMERAL_TEXTS:
        match, sc = pattern.match(text), _Scanner(text)
        try:
            start = sc.numeral(number=label == "number")
        except ParseError as err:
            assert match is None and (err.offset, err.expected) == (0, (label,)), text
        else:
            assert match is not None and (start, sc.pos) == (0, match.end()), text


class TestFormatting:
    def test_unit_coefficient_written_explicitly(self):
        expr = SolutionExpr(BaseCombo((SolutionTerm(1, 0, 1.0),)), ())
        assert format_expr(expr) == "1*C1[0]"

    def test_pipeline_rendering(self):
        expr = SolutionExpr(BaseCombo((SolutionTerm(1, 0, 1.0),)),
                            (GroupElement(6, 0.5),))
        assert format_expr(expr) == "1*C1[0] | G6(0.5)"

    def test_negative_and_fractional_coefficients(self):
        expr = SolutionExpr(
            BaseCombo((SolutionTerm(2, -4, -2.5), SolutionTerm(3, 0, 0.1))), ())
        assert format_expr(expr) == "-2.5*C2[-4] + 0.1*C3[0]"

    def test_integral_float_indices_are_stored_as_integers(self):
        expr = SolutionExpr(BaseCombo((SolutionTerm(1.0, -2.0),)), (GroupElement(2.0, 0.1),))
        assert format_expr(expr) == "1*C1[-2] | G2(0.1)"
        assert parse_expr(format_expr(expr)) == expr

    @pytest.mark.parametrize("text", [
        "C1[0]",
        "2*C1[0] + 5*C1[-2] | G3(0.1)",
        "-2.5*C2[-4] + 0.1*C3[0] | G1(-0.25) | G6(2)",
    ])
    def test_parse_format_fixed_point(self, text):
        once = parse_expr(text)
        assert parse_expr(format_expr(once)) == once


def _number(rng_ints=st.integers(-50, 50)):
    return st.one_of(
        rng_ints.map(float),
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, width=64),
        st.floats(min_value=1e-12, max_value=1.0, allow_nan=False),
    )


_terms = st.builds(
    SolutionTerm,
    class_q=st.integers(1, 4),
    order_n=st.integers(0, 8).map(lambda k: -2 * k),
    coeff=_number(),
)

_expressions = st.builds(
    SolutionExpr,
    combo=st.lists(_terms, min_size=1, max_size=6).map(lambda ts: BaseCombo(tuple(ts))),
    pipeline=st.lists(
        st.builds(GroupElement, gen_index=st.integers(1, 6), epsilon=_number()),
        max_size=4).map(tuple),
)


class TestRoundTrip:
    @given(_expressions)
    @settings(max_examples=400)
    def test_parse_inverts_format(self, expr):
        assert parse_expr(format_expr(expr)) == expr

    @given(st.text(max_size=30))
    @settings(max_examples=400)
    def test_arbitrary_text_never_crashes(self, text):
        try:
            parse_expr(text)
        except (ParseError, SemanticError) as err:
            assert isinstance(err.offset, int) and err.offset >= 0


class TestExpressionFunction:
    def test_plain_combo_exposes_partials(self):
        f = expression_function(parse_expr("2*C1[0] + C2[0]"), P)
        assert hasattr(f, "partials")
        assert f(0.0, 1.0) == pytest.approx(3.0, rel=1e-15)

    def test_pipelined_expression_matches_manual_chain(self):
        expr = parse_expr("C4[-2] | G2(0.4) | G6(0.3)")
        f = expression_function(expr, P)
        base = ComboSolution(expr.combo, P)
        assert f(0.3, 0.8) == chain_function(expr.pipeline, base, P)(0.3, 0.8)
