"""Textual expression language for solution recipes.

An expression is a weighted sum of base family members, optionally pushed
through a pipeline of symmetry group elements:

    expr    := combo ( '|' group )*
    combo   := term ( ('+' | '-') term )*
    term    := [ number '*' ] 'C' digit '[' integer ']'
    group   := 'G' digit '(' number ')'
    integer := [+-] digits
    number  := [+-] (digits ['.' digits*] | '.' digits) [('e'|'E') [+-] digits]

A digit is an ASCII 0-9 and digits a run of one or more. Whitespace
between tokens is ignored, but not inside a numeral. A '-' joining two terms
negates the right-hand coefficient; a term without an explicit number has
coefficient 1. The grammar needs a single token of lookahead everywhere,
and the parser below is a direct recursive descent over it.

Example: ``2*C1[0] + 5*C1[-2] | G3(0.1)`` is a weighted pair of first-class
members pushed through group 3 at parameter 0.1.

Syntax problems raise ParseError with a byte offset and the set of tokens
expected there. Structurally valid text whose class digit is outside 1..4,
whose bracketed order is not an even integer in [-2 MAX_DEGREE, 0], or whose group
digit is outside 1..6 raises SemanticError instead, also with an offset.
Model parameters are deliberately not part of the text: one recipe gets
priced under many parameter sets, so they travel separately.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import ParseError, SemanticError
from .kummer import MAX_DEGREE
from .solutions import BaseCombo, ModelParams, SolutionTerm, ComboSolution
from .symmetry import GroupElement, chain_function

__all__ = [
    "SolutionExpr",
    "parse_expr",
    "parse_group_element",
    "format_expr",
    "expression_function",
]

# the grammar's digits are ASCII: str.isdigit and a unicode \d also take
# characters such as '²' or '٣', which int() rejects or reads as another digit
_DIGITS = "0123456789"


class SolutionExpr(namedtuple("SolutionExpr", "combo pipeline")):
    """A base combination followed by an ordered (possibly empty) pipeline."""
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace goes through __new__ too

    def __new__(cls, combo: BaseCombo, pipeline: tuple[GroupElement, ...] = ()):
        return tuple.__new__(cls, (combo, tuple(pipeline)))


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str | None:
        """The next character after whitespace, which is skipped; None at the end."""
        try:
            while (ch := self.text[self.pos]).isspace():
                self.pos += 1
            return ch
        except IndexError:
            return None

    def byte_offset(self, pos: int) -> int:
        return len(self.text[:pos].encode("utf-8"))

    def fail(self, *expected: str):
        found = repr(self.text[self.pos]) if self.pos < len(self.text) else "end of input"
        raise ParseError(self.byte_offset(self.pos), expected, found)

    def expect(self, ch: str):
        if self.peek() != ch:
            self.fail(f"'{ch}'")
        self.pos += 1

    def _digits_end(self, pos: int) -> int:
        # lstrip finds the run's end in C; chunks of 32 keep a long text linear
        while True:
            chunk = self.text[pos:pos + 32]
            pos += (run := len(chunk) - len(chunk.lstrip(_DIGITS)))
            if run < 32:
                return pos

    def numeral(self, number: bool) -> int:
        """Read an integer, or with ``number`` a number, and return its start."""
        self.peek()
        text, start = self.text, self.pos
        pos = start + text.startswith(("+", "-"), start)
        end = self._digits_end(pos)
        if number and text.startswith(".", end):
            fraction = self._digits_end(end + 1)
            if end > pos or fraction > end + 1:
                end = fraction
        if end == pos:
            self.fail("number" if number else "integer")
        if number and text.startswith(("e", "E"), end):
            digits = end + 1 + text.startswith(("+", "-"), end + 1)
            if (exponent := self._digits_end(digits)) > digits:
                end = exponent
        self.pos = end
        return start

    def take_number(self) -> float:
        start = self.numeral(number=True)
        value = float(self.text[start:self.pos])
        if not math.isfinite(value):
            raise SemanticError(self.byte_offset(start), f"number {self.text[start:self.pos]} overflows")
        return value

    def take_index(self, kind: str, top: int) -> int:
        ch = self.peek()
        if ch is None or ch not in _DIGITS:
            self.fail(f"{kind} digit")
        if not 1 <= int(ch) <= top:
            raise SemanticError(self.byte_offset(self.pos), f"{kind} index must be 1..{top}, got {ch}")
        self.pos += 1
        return int(ch)


def _parse_term(sc: _Scanner, negate: bool) -> SolutionTerm:
    coeff, expected = 1.0, ("number", "'C'")
    if (ch := sc.peek()) is not None and ch in _DIGITS + "+-.":
        coeff, expected = sc.take_number(), ("'C'",)
        sc.expect("*")
    if sc.peek() != "C":
        sc.fail(*expected)
    sc.pos += 1
    class_q = sc.take_index("class", 4)
    sc.expect("[")
    start = sc.numeral(number=False)
    numeral = sc.text[start:sc.pos]
    sign, magnitude = "-" if numeral[0] == "-" else "", numeral.lstrip("+-0") or "0"
    # int() refuses very long texts, and an order that long is out of range
    order = int(sign + magnitude) if len(magnitude) < 20 else 1
    if not -2 * MAX_DEGREE <= order <= 0 or order % 2:
        raise SemanticError(sc.byte_offset(start),
                            f"order must be even in [{-2 * MAX_DEGREE}, 0], got {sign}{magnitude}")
    sc.expect("]")
    return SolutionTerm(class_q, order, -coeff if negate else coeff)


def _parse_group(sc: _Scanner) -> GroupElement:
    sc.expect("G")
    index = sc.take_index("group", 6)
    sc.expect("(")
    epsilon = sc.take_number()
    sc.expect(")")
    return GroupElement(index, epsilon)


def parse_expr(text: str) -> SolutionExpr:
    """Parse expression text into its structural form.

    Raises ParseError for syntax problems (with byte offset and expected
    tokens) and SemanticError for out-of-range indices or orders; it never
    aborts on malformed input.
    """
    sc = _Scanner(text)
    terms = [_parse_term(sc, negate=False)]
    while (ch := sc.peek()) in ("+", "-"):
        sc.pos += 1
        terms.append(_parse_term(sc, negate=ch == "-"))
    if ch not in (None, "|"):
        sc.fail("'+'", "'-'", "'|'", "end of input")
    pipeline = []
    while (ch := sc.peek()) == "|":
        sc.pos += 1
        pipeline.append(_parse_group(sc))
    if ch is not None:
        sc.fail("'|'", "end of input")
    return SolutionExpr(BaseCombo(tuple(terms)), tuple(pipeline))


def parse_group_element(text: str) -> GroupElement:
    """Parse a single "Gi(eps)" token (used by the transform command)."""
    sc = _Scanner(text)
    group = _parse_group(sc)
    if sc.peek() is not None:
        sc.fail("end of input")
    return group


def _format_number(x: float) -> str:
    if x.is_integer() and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def format_expr(expr: SolutionExpr) -> str:
    """Canonical text for an expression.

    Terms keep their order and always carry an explicit coefficient written
    as the shortest decimal that round-trips; separators get single spaces.
    ``parse_expr(format_expr(e))`` is structurally identical to ``e``.
    """
    parts = " + ".join(
        f"{_format_number(term.coeff)}*C{term.class_q}[{term.order_n}]"
        for term in expr.combo.terms)
    for g in expr.pipeline:
        parts += f" | G{g.gen_index}({_format_number(g.epsilon)})"
    return parts


def expression_function(expr: SolutionExpr, params: ModelParams):
    """Bind an expression to market parameters as a plain (t, S) callable.

    With an empty pipeline the result is a ComboSolution; a pipelined
    expression is bound by ``chain_function``, which composes the stages'
    group records at -eps into one record per t. Both carry exact partials
    via ``partials(t, S)``, the pipelined ones by the chain rule on that
    composed record.
    """
    base = ComboSolution(expr.combo, params)
    if not expr.pipeline:
        return base
    return chain_function(expr.pipeline, base, params)
