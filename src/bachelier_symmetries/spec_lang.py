"""Textual expression language for solution recipes.

An expression is a weighted sum of base family members, optionally pushed
through a pipeline of symmetry group elements:

    expr   := combo ( '|' group )*
    combo  := term ( ('+' | '-') term )*
    term   := [ number '*' ] 'C' digit '[' integer ']'
    group  := 'G' digit '(' number ')'

Whitespace between tokens is ignored. Numbers are plain decimals with an
optional sign and exponent ("2", "-0.5", "1e-3"). A '-' joining two terms
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
import re
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
_NUMBER = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)
_INTEGER = re.compile(r"[+-]?\d+", re.ASCII)


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

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def byte_offset(self, pos: int | None = None) -> int:
        if pos is None:
            pos = self.pos
        return len(self.text[:pos].encode("utf-8"))

    def fail(self, *expected: str):
        found = repr(self.text[self.pos]) if self.pos < len(self.text) else "end of input"
        raise ParseError(self.byte_offset(), expected, found)

    def expect(self, ch: str):
        self.skip_ws()
        if self.peek() != ch:
            self.fail(f"'{ch}'")
        self.pos += 1

    def take_number(self) -> float:
        self.skip_ws()
        match = _NUMBER.match(self.text, self.pos)
        if match is None:
            self.fail("number")
        start = self.pos
        self.pos = match.end()
        value = float(match.group())
        if not math.isfinite(value):
            raise SemanticError(self.byte_offset(start), f"number {match.group()} overflows")
        return value

    def take_integer(self) -> tuple[int, int]:
        self.skip_ws()
        match = _INTEGER.match(self.text, self.pos)
        if match is None:
            self.fail("integer")
        start = self.pos
        self.pos = match.end()
        return int(match.group()), self.byte_offset(start)

    def take_digit(self, label: str) -> tuple[int, int]:
        self.skip_ws()
        ch = self.peek()
        if ch is None or ch not in _DIGITS:
            self.fail(label)
        offset = self.byte_offset()
        self.pos += 1
        return int(ch), offset


def _parse_term(sc: _Scanner, negate: bool) -> SolutionTerm:
    sc.skip_ws()
    coeff = 1.0
    explicit_coeff = False
    ch = sc.peek()
    if ch is not None and ch in _DIGITS + "+-.":
        coeff = sc.take_number()
        sc.expect("*")
        explicit_coeff = True
        sc.skip_ws()
        ch = sc.peek()
    if ch != "C":
        if explicit_coeff:
            sc.fail("'C'")
        sc.fail("number", "'C'")
    sc.pos += 1
    class_q, q_offset = sc.take_digit("class digit")
    if class_q not in (1, 2, 3, 4):
        raise SemanticError(q_offset, f"class index must be 1..4, got {class_q}")
    sc.expect("[")
    order, n_offset = sc.take_integer()
    if not -2 * MAX_DEGREE <= order <= 0 or order % 2:
        raise SemanticError(n_offset, f"order must be even in [{-2 * MAX_DEGREE}, 0], got {order}")
    sc.expect("]")
    return SolutionTerm(class_q, order, -coeff if negate else coeff)


def _parse_group(sc: _Scanner) -> GroupElement:
    sc.skip_ws()
    if sc.peek() != "G":
        sc.fail("'G'")
    sc.pos += 1
    index, g_offset = sc.take_digit("group digit")
    if index not in (1, 2, 3, 4, 5, 6):
        raise SemanticError(g_offset, f"group index must be 1..6, got {index}")
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
    while True:
        sc.skip_ws()
        ch = sc.peek()
        if ch in ("+", "-"):
            sc.pos += 1
            terms.append(_parse_term(sc, negate=ch == "-"))
            continue
        if ch is None or ch == "|":
            break
        sc.fail("'+'", "'-'", "'|'", "end of input")
    pipeline = []
    while True:
        sc.skip_ws()
        if sc.peek() is None:
            break
        if sc.peek() != "|":
            sc.fail("'|'", "end of input")
        sc.pos += 1
        pipeline.append(_parse_group(sc))
    return SolutionExpr(BaseCombo(tuple(terms)), tuple(pipeline))


def parse_group_element(text: str) -> GroupElement:
    """Parse a single "Gi(eps)" token (used by the transform command)."""
    sc = _Scanner(text)
    group = _parse_group(sc)
    sc.skip_ws()
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
