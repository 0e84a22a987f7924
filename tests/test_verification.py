"""Check suites: the fixed seeds make every sampled suite repeatable, and a
NaN measurement fails every check it enters."""

import math

import pytest

from bachelier_symmetries import symmetry
from bachelier_symmetries import verification as ver
from bachelier_symmetries.errors import RangeError
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
    # a NaN defect is neither fixed nor moved; at the fixed_surface_check
    # level it reads "not fixed", which alone would pass the moved rows
    monkeypatch.setattr(ver, "surface_defect", lambda *args: math.nan)
    monkeypatch.setattr(symmetry, "surface_defect", lambda *args: math.nan)
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
    monkeypatch.setattr(ver, "surface_defect", overflow)
    results = (ver.group_laws() + ver.generator_tangency() + ver.reference_reproductions()
               + ver.invariance_flags())
    measured = _all_fail_on_nan(results, 19)
    assert all(math.isnan(m) for m in measured)
