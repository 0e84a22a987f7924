"""Acceptance gate: every advertised tolerance, measured end to end.

Each test prints one [PASS]/[FAIL] line (visible even under capture) with
the measured worst case, then asserts it. Tolerances are pinned here, not
derived at run time.
"""

import time

from bachelier_symmetries import verification as ver

FAST_BUDGET_S = 1.0
CLOSURE_BUDGET_S = 30.0


def _report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _worst(results):
    return max(res.measured for res in results)


def test_criterion_1_base_family_residuals(capsys):
    """Analytic residuals <= 1e-10 for all 20 members, both rate regimes, < 1 s."""
    start = time.perf_counter()
    results = []
    for params in (ver.DEFAULT_PARAMS, ver.NEGATIVE_RATE_PARAMS):
        results.extend(ver.base_family_residuals(params))
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in results) and elapsed < FAST_BUDGET_S
    _report(capsys, "criterion-1 base-family residuals", ok,
            f"{len(results)} members, worst {_worst(results):.3e} "
            f"(tol 1e-10), {elapsed:.2f}s")


def test_criterion_2_superposition_residual(capsys):
    """Eight-term combination residual <= 1e-9 on both grids, < 1 s."""
    start = time.perf_counter()
    results = [ver.superposition_residual(params)
               for params in (ver.DEFAULT_PARAMS, ver.NEGATIVE_RATE_PARAMS)]
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in results) and elapsed < FAST_BUDGET_S
    _report(capsys, "criterion-2 superposition residual", ok,
            f"worst {_worst(results):.3e} (tol 1e-9), {elapsed:.2f}s")


def test_criterion_3_transform_closure(capsys):
    """Every group, eps in sweep, base member: closure_G* (exact prolonged
    partials, 21x21 grid) <= 1e-12 and closure_fd_G* (finite differences,
    6x6 subgrid) <= 1e-6, < 30 s."""
    start = time.perf_counter()
    results = ver.transform_closure()
    elapsed = time.perf_counter() - start
    analytic = [r for r in results if r.name.startswith("closure_G")]
    fd = [r for r in results if r.name.startswith("closure_fd_G")]
    ok = (all(r.passed for r in results) and len(analytic) == 6 and len(fd) == 6
          and _worst(analytic) <= 1e-12 and _worst(fd) <= 1e-6
          and elapsed < CLOSURE_BUDGET_S)
    _report(capsys, "criterion-3 transform closure", ok,
            f"6 groups x 4 eps x 20 members, closure_G worst {_worst(analytic):.3e} "
            f"(tol 1e-12), closure_fd_G worst {_worst(fd):.3e} (tol 1e-6), {elapsed:.1f}s")


def test_criterion_4_closed_form_reproduction(capsys):
    """Pullback route matches the three hand-coded families to 1e-11."""
    results = ver.reference_reproductions()
    ok = all(r.passed for r in results) and len(results) == 3
    _report(capsys, "criterion-4 closed-form reproduction", ok,
            f"3 families x 20 triples, worst {_worst(results):.3e} (tol 1e-11)")


def test_criterion_5_group_laws(capsys):
    """Identity exact at eps = 0; additivity to 1e-12 on 100 samples per group."""
    results = ver.group_laws()
    ok = all(r.passed for r in results)
    additivity = [r for r in results if r.name.startswith("additivity")]
    _report(capsys, "criterion-5 group laws", ok,
            f"identity exact, additivity worst {_worst(additivity):.3e} (tol 1e-12)")


def test_criterion_6_generator_tangency(capsys):
    """d/deps of each finite map at 0 matches its generator to 1e-6 (100 jets)."""
    results = ver.generator_tangency()
    ok = all(r.passed for r in results)
    _report(capsys, "criterion-6 generator tangency", ok,
            f"6 generators, worst {_worst(results):.3e} (tol 1e-6)")


def test_criterion_7_fixed_surface_flags(capsys):
    """Linear and Gaussian members move under groups 4/5; linear fixed under time shift."""
    results = ver.invariance_flags()
    ok = all(r.passed for r in results)
    flags = ", ".join(f"{r.name}={'ok' if r.passed else 'wrong'}" for r in results)
    _report(capsys, "criterion-7 fixed-surface flags", ok, flags)


def test_criterion_8_kummer_identities(capsys):
    """Value at origin, contiguous derivative, degree and leading coefficient."""
    results = ver.kummer_identities()
    ok = all(r.passed for r in results)
    detail = "; ".join(f"{r.name} {r.measured:.2e}<= {r.tolerance:.0e}" for r in results)
    _report(capsys, "criterion-8 kummer identities", ok, detail)


def test_criterion_9_dsl_round_trip(capsys):
    """1000 random expressions round-trip; malformed corpus errors are located."""
    results = ver.dsl_roundtrip()
    ok = all(r.passed for r in results)
    _report(capsys, "criterion-9 expression language", ok,
            "; ".join(f"{r.name}: {r.detail}" for r in results))
