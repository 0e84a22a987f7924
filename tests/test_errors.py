"""The input rules at the edge of the envelope: a value is accepted or refused, nothing else."""

from hypothesis import given, settings, strategies as st

from bachelier_symmetries.errors import InvalidParameter
from bachelier_symmetries.kummer import kummer_truncated, pochhammer
from bachelier_symmetries.pde_verify import GridSpec
from bachelier_symmetries.solutions import ModelParams, SolutionTerm
from bachelier_symmetries.symmetry import GroupElement, JetPoint, generator_eval

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
