"""Check suites: the fixed seeds make every sampled suite repeatable, and a
NaN measurement fails every check it enters."""

import math

import pytest

from bachelier_symmetries import verification as ver
from bachelier_symmetries.errors import ParseError, RangeError, SemanticError
from bachelier_symmetries.pde_verify import EvalPoint, ResidualReport
from bachelier_symmetries.solutions import ModelParams
from bachelier_symmetries.symmetry import JetPoint

NAN_JET = JetPoint(math.nan, math.nan, math.nan)


@pytest.mark.parametrize("suite", [
    ver.group_laws, ver.generator_tangency, ver.reference_reproductions, ver.dsl_roundtrip,
])
def test_sampled_suite_is_deterministic(suite):
    assert suite() == suite()


@pytest.mark.parametrize("r", [6.0, -6.0])
def test_a_large_rate_prints_every_group_row(r):
    # the G4/G5 tangency steps at eps = +/-1e-5 leave the domain for |r| > ~5.8
    assert len(ver.run_scope("groups", ModelParams(r, 0.2))) == 13


_THEOREM1 = ("base_family_residuals", "superposition_residual")
_FIRST_SET = {
    "theorem2": ("transform_closure",),
    "groups": ("group_laws", "generator_tangency"),
    "examples": ("reference_reproductions", "invariance_flags"),
}


@pytest.mark.parametrize("params", [None, ModelParams(0.07, 0.3)], ids=["standard", "explicit"])
@pytest.mark.parametrize("scope", ver.SCOPES)
def test_run_scope_dispatches_its_suites_in_order(monkeypatch, scope, params):
    # stubs on the module: a runner that bound the suites at import would
    # call the real ones, and the bench tracer's suite spans would read 0
    calls = []

    def stub(name):
        def suite(params=None):
            calls.append((name, params))
            row = ver.CheckResult(name, True, 0.0, 0.0, "")
            return row if name == "superposition_residual" else [row]
        return suite

    for name in _THEOREM1 + sum(_FIRST_SET.values(), ()) + ("kummer_identities", "dsl_roundtrip"):
        monkeypatch.setattr(ver, name, stub(name))
    sets = (ver.DEFAULT_PARAMS, ver.NEGATIVE_RATE_PARAMS) if params is None else (params,)
    theorem1 = [(name, p) for p in sets for name in _THEOREM1]
    first_set = {scope: [(name, sets[0]) for name in names] for scope, names in _FIRST_SET.items()}
    expected = {
        "theorem1": theorem1,
        **first_set,
        "all": theorem1 + first_set["theorem2"] + first_set["groups"] + first_set["examples"]
        + [("kummer_identities", None), ("dsl_roundtrip", None)],
    }[scope]
    results = ver.run_scope(scope, params)
    assert calls == expected
    assert [res.name for res in results] == [name for name, _ in expected]


@pytest.mark.parametrize("r, name", [(200.0, "moved_by_G4_C1[0]"), (6.0, "moved_by_G5_C4[-2]")])
def test_a_large_rate_still_tells_moved_from_fixed(r, name):
    # the field's components carry e^{-2rt} or e^{-rt}: a defect normalised by
    # a scale floored at 1 read these moved graphs as fixed (2.7e-15, 4.9e-12)
    flags = {res.name: res for res in ver.invariance_flags(ModelParams(r, 0.2))}
    assert flags[name].passed and flags[name].measured > 0.5
    assert flags["fixed_under_G1_C1[0]"].passed and flags["fixed_under_G1_C1[0]"].measured == 0.0


def test_tangency_counts_the_draws_it_measured():
    # at r = 6 two G4 draws and one G5 draw fall outside the domain
    details = {res.name: res.detail for res in ver.generator_tangency(ModelParams(6.0, 0.2))}
    assert "98 jet points" in details["tangency_G4"]
    assert "99 jet points" in details["tangency_G5"]
    assert "100 jet points" in details["tangency_G1"]


def _all_fail_on_nan(results, count):
    assert len(results) == count
    assert not any(res.passed for res in results)
    return [res.measured for res in results]


def test_nan_scans_fail_every_closure_row(monkeypatch):
    nan_report = ResidualReport(math.nan, EvalPoint(0.0, 0.0), failures=0, evaluated=1)
    monkeypatch.setattr(ver, "residual_scan", lambda f, grid, params, mode: nan_report)
    measured = _all_fail_on_nan(ver.transform_closure(), 12)
    assert all(math.isnan(m) for m in measured)


def test_nan_jets_fail_the_group_laws(monkeypatch):
    monkeypatch.setattr(ver, "forward_map", lambda element, jp, params: NAN_JET)
    measured = _all_fail_on_nan(ver.group_laws() + ver.generator_tangency(), 13)
    assert all(math.isnan(m) for m in measured[1:])


def test_nan_transport_fails_every_reproduction(monkeypatch):
    monkeypatch.setattr(ver, "transformed", lambda element, base, params: lambda t, s: math.nan)
    measured = _all_fail_on_nan(ver.reference_reproductions(), 3)
    assert all(math.isnan(m) for m in measured)


def test_nan_kummer_values_fail_every_identity(monkeypatch):
    monkeypatch.setattr(ver, "kummer_truncated", lambda m, b, u: math.nan)
    monkeypatch.setattr(ver, "kummer_truncated_du", lambda m, b, u: math.nan)
    measured = _all_fail_on_nan(ver.kummer_identities(), 4)
    assert all(math.isnan(m) for m in measured)


def test_nan_defect_fails_every_flag(monkeypatch):
    # a NaN defect is neither fixed nor moved; compared as defect < tol it
    # reads "not fixed", which alone would pass the moved rows
    monkeypatch.setattr(ver, "surface_defect", lambda *args: math.nan)
    results = ver.invariance_flags()
    measured = _all_fail_on_nan(results, 3)
    assert all(math.isnan(m) for m in measured)
    assert all("defect is NaN" in res.detail for res in results)


def test_range_errors_are_nan_samples(monkeypatch):
    # an overflowing sample is measured, as NaN, instead of ending the run
    def overflow(*args):
        raise RangeError("exponent out of range")

    monkeypatch.setattr(ver, "forward_map", overflow)
    monkeypatch.setattr(ver, "transformed", overflow)
    results = ver.group_laws() + ver.generator_tangency() + ver.reference_reproductions()
    measured = _all_fail_on_nan(results, 16)
    assert all(math.isnan(m) for m in measured)


_PARSE = ver.parse_expr


def _accepts_everything(text):
    return None


def _negative_offsets(text):
    try:
        return _PARSE(text)
    except ParseError as err:
        raise ParseError(-1, err.expected, err.found) from None
    except SemanticError as err:
        raise SemanticError(-1, err.reason) from None


def _unexpected_errors(text):
    try:
        return _PARSE(text)
    except (ParseError, SemanticError):
        raise RuntimeError("not a located error") from None


@pytest.mark.parametrize("parse, mismatches", [
    (_accepts_everything, ver.EXPRESSIONS),  # every round trip mismatches
    (_negative_offsets, 0),
    (_unexpected_errors, 0),
])
def test_dsl_roundtrip_counts_every_misbehaving_parse(monkeypatch, parse, mismatches):
    # each corpus text that is accepted, located at a negative offset or
    # refused with another exception counts once
    monkeypatch.setattr(ver, "parse_expr", parse)
    roundtrip, malformed = ver.dsl_roundtrip()
    assert roundtrip.measured == mismatches and roundtrip.passed == (mismatches == 0)
    assert malformed.measured == len(ver._MALFORMED) + len(ver._BAD_SEMANTICS)
    assert not malformed.passed
