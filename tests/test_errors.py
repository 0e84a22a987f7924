"""The input rules at the edge of the envelope: a value is accepted or refused, nothing else.

The same holds at evaluation: an accepted input evaluates to finite floats
or raises one of the package's typed errors.
"""

import math

from hypothesis import example, given, settings, strategies as st

from bachelier_symmetries.errors import DomainError, InvalidParameter, RangeError
from bachelier_symmetries.kummer import kummer_truncated, pochhammer
from bachelier_symmetries.pde_verify import GridSpec
from bachelier_symmetries.reference_forms import (
    g3_family_from_worked_combo,
    g4_family_from_linear,
    g5_family_from_gaussian_term,
)
from bachelier_symmetries.solutions import BaseCombo, ComboSolution, ModelParams, SolutionTerm
from bachelier_symmetries.spec_lang import SolutionExpr, expression_function, parse_expr
from bachelier_symmetries.symmetry import (
    GroupElement,
    JetPoint,
    forward_map,
    generator_eval,
    inverse_point_map,
)

P = ModelParams(0.05, 0.2)

VALUE = st.one_of(
    st.integers(-1000, 1000),
    st.integers(-1000, 1000).map(float),
    st.floats(-10.0, 10.0),  # fractions inside the index ranges
    st.floats(),  # +/-inf and nan among them
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)
PAIR = st.one_of(VALUE, st.tuples(VALUE, VALUE), st.tuples(VALUE, VALUE, VALUE))

# every guarded entry point: the call, a strategy per guarded parameter, and
# the fields of its result that hold an index, order or count
GUARDED = {
    "ModelParams": (ModelParams, (VALUE, VALUE), ()),
    "SolutionTerm": (SolutionTerm, (VALUE, VALUE, VALUE), ("class_q", "order_n")),
    "GroupElement": (GroupElement, (VALUE, VALUE), ("gen_index",)),
    "generator_eval": (lambda i: generator_eval(i, JetPoint(0.1, 0.5, 1.0), P), (VALUE,), ()),
    "GridSpec": (GridSpec, (PAIR, PAIR, VALUE, VALUE), ("nt", "nS")),
    "kummer_truncated": (lambda m, b: kummer_truncated(m, b, 0.3), (VALUE, VALUE), ()),
    "pochhammer": (pochhammer, (VALUE, VALUE), ()),
}


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_every_guarded_parameter_is_accepted_or_raises_invalid_parameter(data):
    for name, (call, strategies, int_fields) in GUARDED.items():
        args = [data.draw(strategy, label=f"{name} argument {k}")
                for k, strategy in enumerate(strategies)]
        try:
            result = call(*args)
        except InvalidParameter:
            continue
        for field in int_fields:
            assert type(getattr(result, field)) is int, (name, field, args)


# any finite float, with moderate values drawn as often as extreme ones
REAL = st.one_of(st.floats(-5.0, 5.0), st.floats(allow_nan=False, allow_infinity=False))
PARAMS = st.builds(ModelParams, REAL.filter(bool), st.floats(1e-160, 1e150))
TERMS = st.lists(st.builds(SolutionTerm, st.integers(1, 4), st.integers(-20, 0).map(lambda m: 2 * m),
                           REAL), min_size=1, max_size=3)
ELEMENT = st.builds(GroupElement, st.integers(1, 6), REAL)
EXPR = st.builds(SolutionExpr, TERMS.map(lambda terms: BaseCombo(tuple(terms))),
                 st.lists(ELEMENT, min_size=1, max_size=3))
JET = st.builds(JetPoint, REAL, REAL, REAL)

# every evaluation entry point, called with one drawn expression, group
# element, jet point and parameter set; the oracles read eps from the element
EVALUATIONS = {
    "ComboSolution": lambda e, g, jp, p: ComboSolution(e.combo, p)(jp.t, jp.S),
    "ComboSolution.partials": lambda e, g, jp, p: ComboSolution(e.combo, p).partials(jp.t, jp.S),
    "pipeline": lambda e, g, jp, p: expression_function(e, p)(jp.t, jp.S),
    "pipeline partials": lambda e, g, jp, p: expression_function(e, p).partials(jp.t, jp.S),
    "forward_map": lambda e, g, jp, p: forward_map(g, jp, p),
    "inverse_point_map": lambda e, g, jp, p: inverse_point_map(g, jp.t, jp.S, p),
    "generator_eval": lambda e, g, jp, p: generator_eval(g.gen_index, jp, p),
    "g4 oracle": lambda e, g, jp, p: g4_family_from_linear(jp.t, jp.S, g.epsilon, p),
    "g5 oracle": lambda e, g, jp, p: g5_family_from_gaussian_term(jp.t, jp.S, g.epsilon, p),
    "g3 oracle": lambda e, g, jp, p: g3_family_from_worked_combo(jp.t, jp.S, g.epsilon, p),
}

_PLAIN = parse_expr("C1[0] | G1(0.1)")


@given(EXPR, ELEMENT, JET, PARAMS)
@settings(max_examples=200, deadline=None)
# the oracles: d**3 overflows in G5, and finite factors multiply to -inf and inf
@example(_PLAIN, GroupElement(5, 0.3), JetPoint(0.65, 1.0, 1.0), ModelParams(200.0, 0.2))
@example(_PLAIN, GroupElement(3, 0.445), JetPoint(-0.475, -3.17, 1.0), ModelParams(-228.0, 3.13))
@example(_PLAIN, GroupElement(5, 0.095), JetPoint(-0.72, -367.0, 1.0), ModelParams(-160.0, 0.284))
# sigma^2 * w underflows to 0 in the G4 record, forward and in a pipeline
@example(parse_expr("C1[0] | G4(0.9999)"), GroupElement(4, -0.9999), JetPoint(0.0, 1.0, 1.0),
         ModelParams(0.05, 1e-160))
# log(w) / 2r overflows: t = inf forward, t0 = -inf backward
@example(_PLAIN, GroupElement(4, 0.5), JetPoint(0.0, 1.0, 1.0), ModelParams(5e-324, 0.2))
# S * C overflows in the C component of xi_3
@example(_PLAIN, GroupElement(3, 0.1), JetPoint(0.0, 1e300, 1e300), ModelParams(0.05, 0.2))
def test_every_evaluation_is_finite_or_raises_a_typed_error(expr, element, jet, params):
    for name, evaluate in EVALUATIONS.items():
        try:
            result = evaluate(expr, element, jet, params)
        except (DomainError, RangeError, InvalidParameter):
            continue
        values = result if isinstance(result, tuple) else (result,)
        assert all(type(v) is float and math.isfinite(v) for v in values), (name, result)


def test_both_evaluation_errors_carry_a_stage():
    for kind in (DomainError, RangeError):
        assert kind("x", stage=1).stage == 1 and kind("x", 2).stage == 2
        err = kind("x")
        assert (err.stage, err.args, str(err)) == (None, ("x",), "x")
