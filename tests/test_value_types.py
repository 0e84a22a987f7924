"""The value types are immutable named tuples that check their fields on every way in.

Each case builds one value with keywords and gives its repr, which is
held to fixed text; a validated type also names a field value that its
constructor refuses (None for a type without checks).
"""

import copy
import pickle

import pytest

from bachelier_symmetries.errors import InvalidParameter
from bachelier_symmetries.pde_verify import EvalPoint, GridSpec, ResidualReport
from bachelier_symmetries.solutions import BaseCombo, ModelParams, SolutionTerm
from bachelier_symmetries.spec_lang import SolutionExpr
from bachelier_symmetries.symmetry import GroupElement
from bachelier_symmetries.verification import CheckResult

CASES = {
    "ModelParams": (
        lambda: ModelParams(r=-0.03, sigma=0.2),
        "ModelParams(r=-0.03, sigma=0.2)",
        {"r": 0.0}),
    "SolutionTerm": (
        lambda: SolutionTerm(class_q=3, order_n=-2, coeff=-1.5),
        "SolutionTerm(class_q=3, order_n=-2, coeff=-1.5)",
        {"order_n": -3}),
    "BaseCombo": (
        lambda: BaseCombo(terms=(SolutionTerm(1, 0), SolutionTerm(4, -4, 2.5))),
        "BaseCombo(terms=(SolutionTerm(class_q=1, order_n=0, coeff=1.0), "
        "SolutionTerm(class_q=4, order_n=-4, coeff=2.5)))",
        {"terms": ()}),
    "GroupElement": (
        lambda: GroupElement(gen_index=4, epsilon=0.25),
        "GroupElement(gen_index=4, epsilon=0.25)",
        {"gen_index": 7}),
    "SolutionExpr": (
        lambda: SolutionExpr(combo=BaseCombo((SolutionTerm(2, -2),)),
                             pipeline=(GroupElement(2, 0.3),)),
        "SolutionExpr(combo=BaseCombo(terms=(SolutionTerm(class_q=2, order_n=-2, coeff=1.0),)), "
        "pipeline=(GroupElement(gen_index=2, epsilon=0.3),))",
        None),
    "GridSpec": (
        lambda: GridSpec(t_range=(0, 1), S_range=(-2.0, 2.0), nt=3, nS=5),
        "GridSpec(t_range=(0.0, 1.0), S_range=(-2.0, 2.0), nt=3, nS=5)",
        {"nt": 1}),
    "ResidualReport": (
        lambda: ResidualReport(max_normalized=1.5e-15, worst_point=EvalPoint(0.5, -1.0),
                               failures=2, evaluated=7),
        "ResidualReport(max_normalized=1.5e-15, worst_point=EvalPoint(t=0.5, S=-1.0), "
        "failures=2, evaluated=7)",
        None),
    "CheckResult": (
        lambda: CheckResult(name="closure_G1", passed=True, measured=2e-16, tolerance=1e-12),
        "CheckResult(name='closure_G1', passed=True, measured=2e-16, tolerance=1e-12, detail='')",
        None),
}

pytestmark = pytest.mark.parametrize("make, text, invalid", CASES.values(), ids=list(CASES))


def test_repr_is_unchanged(make, text, invalid):
    assert repr(make()) == text


def test_equal_fields_give_equal_values_and_hashes(make, text, invalid):
    value = make()
    positional = type(value)(*value)
    assert make() == value == positional
    assert hash(make()) == hash(value) == hash(positional)


def test_fields_cannot_be_set(make, text, invalid):
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], value[0])
    with pytest.raises(AttributeError):
        value.extra = 1  # __slots__ = (): no instance dict


def test_replace_checks_what_the_constructor_checks(make, text, invalid):
    value = make()
    assert value._replace() == value
    if invalid is None:
        return
    with pytest.raises(InvalidParameter):
        type(value)(**{**value._asdict(), **invalid})
    with pytest.raises(InvalidParameter):
        value._replace(**invalid)


def test_copy_and_pickle_round_trip(make, text, invalid):
    value = make()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and type(twin) is type(value)


def test_a_value_unpacks_and_equals_its_plain_tuple(make, text, invalid):
    value = make()
    assert tuple(value) == value and len(value) == len(value._fields)
    first, *rest = value
    assert first == getattr(value, value._fields[0])
