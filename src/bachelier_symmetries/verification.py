"""Named check suites: every claim the package makes, run as a measurement.

Each suite returns CheckResult rows with the measured worst case and the
tolerance it was held to, so the verify command can print one PASS/FAIL
line per check and the test suite can assert on the same numbers.

Suites and their scopes:

    theorem1   analytic residuals of all base family members (orders 0 to
               -8, all four classes) and of the eight-term worked
               combination, on the default grid, at the standard and the
               negative-rate parameter sets
    theorem2   closure: residuals of every base member transported through
               every group over the parameter sweep, from exact prolonged
               partials on the default grid and, as an independent oracle,
               from finite differences on a 6x6 subgrid
    groups     exact identity at eps = 0, parameter additivity, and
               tangency of the finite maps to the generators
    examples   reproduction of the three hand-coded transformed families
               and the fixed/moved surface check of selected graphs, held here
    all        everything above plus the Kummer polynomial identities and
               the expression-language round-trip

Suite sizes and seeds are fixed (SAMPLES jet points per group, TRIPLES
(t, S, eps) triples per hand-coded family, EXPRESSIONS random expressions,
one literal seed per sampled suite), so repeated runs print identical
reports. Every suite reduces its measurements with ``worst_case``, the
sampled ones drawn through ``pde_verify.sampled``, so an overflow fails its
row and the run still prints every row. A threshold check passes when its
worst case is at most its tolerance; the fixed/moved flags compare a flag.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from collections.abc import Iterable
from itertools import islice

from . import reference_forms
from .errors import InvalidParameter, ParseError, SemanticError
from .kummer import kummer_truncated, kummer_truncated_du, pochhammer
from .pde_verify import GridSpec, residual_scan, sampled, worst_case
from .solutions import BaseCombo, ComboSolution, ModelParams, SolutionTerm
from .spec_lang import SolutionExpr, format_expr, parse_expr
from .symmetry import (
    FLOW_ORIENTATION,
    GroupElement,
    JetPoint,
    forward_map,
    generator_eval,
    transformed,
)

__all__ = [
    "CheckResult",
    "DEFAULT_PARAMS",
    "NEGATIVE_RATE_PARAMS",
    "DEFAULT_GRID",
    "EPS_SWEEP",
    "BASE_ORDERS",
    "base_family_residuals",
    "superposition_residual",
    "transform_closure",
    "group_laws",
    "generator_tangency",
    "reference_reproductions",
    "surface_defect",
    "invariance_flags",
    "kummer_identities",
    "dsl_roundtrip",
    "SCOPES",
    "run_scope",
]

DEFAULT_PARAMS = ModelParams(r=0.05, sigma=0.2)
NEGATIVE_RATE_PARAMS = ModelParams(r=-0.03, sigma=0.2)
DEFAULT_GRID = GridSpec(t_range=(0.0, 1.0), S_range=(-2.0, 2.0), nt=21, nS=21)
EPS_SWEEP = (-0.3, -0.1, 0.1, 0.3)
BASE_ORDERS = (0, -2, -4, -6, -8)
# grid of the finite-difference closure oracle: every fourth point of the
# 21x21 default grid, 36 of 441
FD_GRID = GridSpec(DEFAULT_GRID.t_range, DEFAULT_GRID.S_range, nt=6, nS=6)
SAMPLES = 100
TRIPLES = 20
EXPRESSIONS = 1000

TOL_BASE_RESIDUAL = 1e-10
TOL_COMBO_RESIDUAL = 1e-9
TOL_CLOSURE_RESIDUAL = 1e-12
TOL_CLOSURE_FD_RESIDUAL = 1e-6
TOL_ADDITIVITY = 1e-12
TOL_TANGENCY = 1e-6
TOL_REPRODUCTION = 1e-11
TOL_SURFACE = 1e-9
TOL_CONTIGUOUS = 1e-12


class CheckResult(namedtuple("CheckResult", "name passed measured tolerance detail",
                             defaults=("",))):
    """One row of a suite: the measured worst case, its tolerance, and the verdict."""
    __slots__ = ()


def _check(name: str, measured: float, tolerance: float, detail: str) -> CheckResult:
    """A threshold check: it passes when the measured worst case is within tolerance."""
    return CheckResult(name, measured <= tolerance, measured, tolerance, detail)


def _worst_sampled(measure, draws, n: int | None = None) -> float:
    """worst_case over the first n measurements ``sampled`` takes from draws; all for None."""
    return worst_case(value for _, value in islice(sampled(measure, draws), n))


def base_terms() -> list[SolutionTerm]:
    """All (class, order) members used by the residual and closure suites."""
    return [SolutionTerm(q, n) for q in (1, 2, 3, 4) for n in BASE_ORDERS]


def _rate_tag(params: ModelParams) -> str:
    return f"r={params.r:g}"


def base_family_residuals(params: ModelParams) -> list[CheckResult]:
    """Analytic residual of every base member, one check per (class, order)."""
    results = []
    for term in base_terms():
        report = residual_scan(ComboSolution(term, params), DEFAULT_GRID, params, mode="analytic")
        results.append(_check(
            f"residual_C{term.class_q}[{term.order_n}]_{_rate_tag(params)}",
            report.max_normalized, TOL_BASE_RESIDUAL, f"worst at {report.worst_point}"))
    return results


def superposition_residual(params: ModelParams) -> CheckResult:
    """Analytic residual of the fixed eight-term combination."""
    combo = ComboSolution(reference_forms.worked_combo(), params)
    report = residual_scan(combo, DEFAULT_GRID, params, mode="analytic")
    return _check(f"residual_8term_combo_{_rate_tag(params)}", report.max_normalized,
                  TOL_COMBO_RESIDUAL, f"worst at {report.worst_point}")


def transform_closure(params: ModelParams = DEFAULT_PARAMS) -> list[CheckResult]:
    """Residual of every transported base member, per group.

    ``closure_G{i}`` scans the exact prolonged partials over DEFAULT_GRID;
    ``closure_fd_G{i}`` scans finite-difference residuals over FD_GRID, an
    oracle that shares no formula with the prolongation.
    """
    terms = base_terms()
    results = []
    for prefix, mode, scan_grid, tol in (
            ("closure", "analytic", DEFAULT_GRID, TOL_CLOSURE_RESIDUAL),
            ("closure_fd", "fd", FD_GRID, TOL_CLOSURE_FD_RESIDUAL)):
        for gi in range(1, 7):
            moved = (transformed(GroupElement(gi, eps), ComboSolution(term, params), params)
                     for eps in EPS_SWEEP for term in terms)
            reports = [residual_scan(f, scan_grid, params, mode=mode) for f in moved]
            results.append(_check(
                f"{prefix}_G{gi}", worst_case(r.max_normalized for r in reports), tol,
                f"{mode}, {scan_grid.nt}x{scan_grid.nS} grid, "
                f"{len(terms)} members x {len(EPS_SWEEP)} eps, "
                f"{sum(r.evaluated for r in reports)} points evaluated, "
                f"{sum(r.failures for r in reports)} skipped"))
    return results


def _random_jet(rng: random.Random) -> JetPoint:
    return JetPoint(rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0), rng.uniform(-3.0, 3.0))


def _rel_dev(x: float, y: float) -> float:
    """|x - y| relative to the larger magnitude, floored at 1."""
    return abs(x - y) / max(1.0, abs(x), abs(y))


def group_laws(params: ModelParams = DEFAULT_PARAMS) -> list[CheckResult]:
    """Exact identity at eps = 0 plus parameter additivity per group."""
    rng = random.Random(61803)
    jets = [(gi, _random_jet(rng)) for gi in range(1, 7)]
    mismatch = _worst_sampled(
        lambda gi, jp: float(forward_map(GroupElement(gi, 0.0), jp, params) != jp), jets)
    results = [_check("identity_at_eps0", mismatch, 0.0, "bitwise equality on all six groups")]
    for gi in range(1, 7):
        def deviation(jp: JetPoint, eps1: float, eps2: float) -> float:
            step = forward_map(GroupElement(gi, eps1), jp, params)
            composed = forward_map(GroupElement(gi, eps2), step, params)
            direct = forward_map(GroupElement(gi, eps1 + eps2), jp, params)
            return worst_case(map(_rel_dev, composed, direct))

        draws = iter(lambda: (_random_jet(rng), rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)),
                     None)
        results.append(_check(f"additivity_G{gi}", _worst_sampled(deviation, draws, SAMPLES),
                              TOL_ADDITIVITY, f"{SAMPLES} random samples"))
    return results


def generator_tangency(params: ModelParams = DEFAULT_PARAMS) -> list[CheckResult]:
    """Central difference d/deps of the finite maps at eps = 0 against the generators.

    Groups 4 and 5 are parametrised along the reverse flow of their
    generators, so the comparison carries FLOW_ORIENTATION. Deviations are
    measured per component, relative to magnitudes floored at 1.
    """
    rng = random.Random(27182)
    h = 1e-5
    results = []
    for i in range(1, 7):
        orient = FLOW_ORIENTATION[i - 1]

        def deviation(jp: JetPoint) -> float:
            plus = forward_map(GroupElement(i, h), jp, params)
            minus = forward_map(GroupElement(i, -h), jp, params)
            exact = generator_eval(i, jp, params)
            return worst_case(abs((a - b) / (2.0 * h) - orient * e) / max(1.0, abs(e))
                              for a, b, e in zip(plus, minus, exact))

        jets = [(_random_jet(rng),) for _ in range(SAMPLES)]
        measured = [value for _, value in sampled(deviation, jets)]
        results.append(_check(f"tangency_G{i}", worst_case(measured), TOL_TANGENCY,
                              f"orientation {orient:+.0f}, {len(measured)} jet points, step {h:g}"))
    return results


def reference_reproductions(params: ModelParams = DEFAULT_PARAMS) -> list[CheckResult]:
    """Transform machinery against the three hand-coded closed-form families.

    The closed forms are parametrised from the opposite composition side,
    so the pullback runs at -eps (see reference_forms). Magnitudes below 1
    are compared absolutely.
    """
    rng = random.Random(14142)
    cases = [
        ("reproduce_G4_on_C1[0]", 4,
         ComboSolution(SolutionTerm(1, 0), params), reference_forms.g4_family_from_linear),
        ("reproduce_G5_on_C4[-2]", 5,
         ComboSolution(SolutionTerm(4, -2), params), reference_forms.g5_family_from_gaussian_term),
        ("reproduce_G3_on_8term", 3,
         ComboSolution(reference_forms.worked_combo(), params),
         reference_forms.g3_family_from_worked_combo),
    ]
    results = []
    for name, gi, base, oracle in cases:
        def deviation(t: float, s: float, eps: float) -> float:
            return _rel_dev(oracle(t, s, eps, params),
                            transformed(GroupElement(gi, -eps), base, params)(t, s))

        draws = iter(lambda: (rng.uniform(0.0, 1.0),
                              rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 2.0),
                              rng.uniform(-0.4, 0.4)), None)
        results.append(_check(name, _worst_sampled(deviation, draws, TRIPLES), TOL_REPRODUCTION,
                              f"{TRIPLES} sampled (t, S, eps) triples"))
    return results


def surface_defect(
    i: int,
    term: SolutionTerm,
    sample: Iterable[tuple[float, float]],
    params: ModelParams,
) -> float:
    """Largest normalised value of xi_i applied to the graph C = C_term(t, S).

    On the solution surface the vector field acts as
    C-component - (T-component * C_t + S-component * C_S); the graph is
    carried to itself exactly when this vanishes identically. Values are
    normalised by the largest participating magnitude, with no floor, so a
    moved graph whose field components are tiny (e^{-2rt} at a large rate)
    still reads as moved; a defect of exactly 0 stays 0. Points are drawn
    through ``pde_verify.sampled``: one that overflows scores NaN.
    """
    partials = ComboSolution(term, params).partials

    def defect(t: float, S: float) -> float:
        c, c_t, c_s, _ = partials(t, S)
        xi_t, xi_s, xi_c = generator_eval(i, JetPoint(t, S, c), params)
        drift_t, drift_s = xi_t * c_t, xi_s * c_s
        gap = abs(xi_c - (drift_t + drift_s))
        return gap and gap / max(abs(xi_c), abs(drift_t), abs(drift_s))

    defects = [value for _, value in sampled(defect, sample)]
    if not defects:
        raise InvalidParameter("surface check needs a non-empty sample")
    return worst_case(defects)


# no package caller; bench/tracer.py binds this name
def fixed_surface_check(
    i: int,
    term: SolutionTerm,
    sample: Iterable[tuple[float, float]],
    params: ModelParams,
    tol: float = TOL_SURFACE,
) -> bool:
    """True when ``surface_defect`` on the sample is below ``tol``: fixed up to the sample."""
    return surface_defect(i, term, sample, params) < tol


_SURFACE_SAMPLE = ((0.1, 0.5), (0.3, -1.2), (0.45, 0.8), (0.6, 1.4), (0.9, -0.7))


def invariance_flags(params: ModelParams = DEFAULT_PARAMS) -> list[CheckResult]:
    """Moved/fixed status of selected graphs under selected generators.

    The linear solution and the order minus-2 Gaussian member must move
    under groups 4 and 5 respectively, while time translation leaves the
    time-independent linear solution in place.
    """
    cases = [
        ("moved_by_G4_C1[0]", 4, SolutionTerm(1, 0), False),
        ("moved_by_G5_C4[-2]", 5, SolutionTerm(4, -2), False),
        ("fixed_under_G1_C1[0]", 1, SolutionTerm(1, 0), True),
    ]
    results = []
    for name, i, term, expect_fixed in cases:
        defect = surface_defect(i, term, _SURFACE_SAMPLE, params)
        is_fixed = defect < TOL_SURFACE  # a NaN defect reads "not fixed"
        if math.isnan(defect):
            finding = "defect is NaN"
        else:
            finding = f"defect {'<' if is_fixed else '>='} tol"
        results.append(CheckResult(
            name=name,
            passed=is_fixed == expect_fixed and not math.isnan(defect),
            measured=defect,
            tolerance=TOL_SURFACE,
            detail=f"expected {'fixed' if expect_fixed else 'moved'}, "
                   f"{finding} on {len(_SURFACE_SAMPLE)} points",
        ))
    return results


def kummer_identities() -> list[CheckResult]:
    """Polynomial identities of the truncated Kummer evaluator."""
    worst = worst_case(abs(kummer_truncated(m, b, 0.0) - 1.0)
                       for m in range(51) for b in (0.5, 1.5, 2.5))
    results = [_check("kummer_value_at_zero", worst, 0.0, "F(-m, b; 0) = 1 exactly, m <= 50")]

    # d/du F(-m, b; u) = (-m/b) F(-(m-1), b+1; u), both sides built
    # independently: Horner over different coefficient tables at u <= 1/2,
    # above it the degree difference of the sweep at b against one at b + 1
    u_grid = [-10.0, -6.0, -3.0, -1.0, -0.3, 0.0, 0.3, 1.0, 3.0, 5.0, 10.0, 20.0]
    worst = worst_case(
        _rel_dev(kummer_truncated_du(m, b, u), (-m / b) * kummer_truncated(m - 1, b + 1.0, u))
        for m in range(1, 11) for b in (0.5, 1.5) for u in u_grid)
    results.append(_check("kummer_contiguous_derivative", worst, TOL_CONTIGUOUS,
                          "m in 1..10, b in {1/2, 3/2}, -10 <= u <= 20"))

    # degree property: the (m+1)-th forward difference annihilates the
    # polynomial while the m-th one recovers the leading coefficient
    nulls, leads = [], []
    h = 0.5
    base = -1.0
    for m in range(11):
        for b in (0.5, 1.5):
            values = [kummer_truncated(m, b, base + j * h) for j in range(m + 2)]
            null = math.fsum(
                (-1.0) ** (m + 1 - j) * math.comb(m + 1, j) * values[j]
                for j in range(m + 2))
            witness = math.fsum(
                abs(math.comb(m + 1, j) * values[j]) for j in range(m + 2))
            nulls.append(abs(null) / max(1.0, witness))
            mth = math.fsum(
                (-1.0) ** (m - j) * math.comb(m, j) * values[j] for j in range(m + 1))
            lead = (-1.0) ** m / pochhammer(b, m)
            recovered = mth / (math.factorial(m) * h**m)
            leads.append(abs(recovered - lead) / abs(lead))
    results.append(_check("kummer_degree_annihilation", worst_case(nulls), 1e-10,
                          "order m+1 forward differences, m <= 10"))
    results.append(_check("kummer_leading_coefficient", worst_case(leads), 1e-6,
                          "m-th difference / (m! h^m) vs (-1)^m / (b)_m"))
    return results


_MALFORMED = (
    "", "   ", "C", "C1", "C1[", "C1[]", "C1[0", "C1(0)", "C1[0]]",
    "2C1[0]", "2*", "*C1[0]", "C1[0] +", "C1[0] + + C2[0]", "C1[0] C2[0]",
    "C1[0] |", "C1[0] | G", "C1[0] | G1", "C1[0] | G1(", "C1[0] | G1()",
    "C1[0] | G1(0.1", "C1[0] | G1[0.1]", "G1(0.1)", "C1[0] | G1(0.1) junk",
    "1e*C1[0]", "C1[- 2]", "-C1[0]",
)

_BAD_SEMANTICS = (
    "C0[0]", "C5[0]", "C9[0]", "C1[1]", "C1[-3]", "C1[2]",
    "C1[0] | G0(0.1)", "C1[0] | G7(0.1)", "1e999*C1[0]",
)


def _random_expression(rng: random.Random) -> SolutionExpr:
    def number() -> float:
        kind = rng.randrange(3)
        if kind == 0:
            return float(rng.randint(-50, 50))
        if kind == 1:
            return round(rng.uniform(-20.0, 20.0), rng.randint(1, 6))
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-12, 12)

    terms = tuple(
        SolutionTerm(rng.randint(1, 4), -2 * rng.randint(0, 6), number())
        for _ in range(rng.randint(1, 6)))
    pipeline = tuple(
        GroupElement(rng.randint(1, 6), number())
        for _ in range(rng.randint(0, 4)))
    return SolutionExpr(BaseCombo(terms), pipeline)


def dsl_roundtrip() -> list[CheckResult]:
    """Structural parse/format round-trip plus the malformed-input corpus."""
    rng = random.Random(16180)
    mismatches = 0
    for _ in range(EXPRESSIONS):
        expr = _random_expression(rng)
        if parse_expr(format_expr(expr)) != expr:
            mismatches += 1
    results = [_check("dsl_roundtrip", float(mismatches), 0.0,
                      f"{EXPRESSIONS} randomised expressions")]

    misbehaved = 0
    for corpus, error in ((_MALFORMED, ParseError), (_BAD_SEMANTICS, SemanticError)):
        for text in corpus:
            try:
                parse_expr(text)
                misbehaved += 1
            except error as err:
                if not isinstance(err.offset, int) or err.offset < 0:
                    misbehaved += 1
            except Exception:
                misbehaved += 1
    results.append(_check("dsl_malformed_inputs", float(misbehaved), 0.0,
                          f"{len(_MALFORMED)} syntax cases, {len(_BAD_SEMANTICS)} semantic cases"))
    return results


SCOPES = ("theorem1", "theorem2", "groups", "examples", "all")


def run_scope(scope: str, params: ModelParams | None = None) -> list[CheckResult]:
    """Run one named suite at params.

    params=None uses the standard parameter sets: theorem1 runs at
    DEFAULT_PARAMS and NEGATIVE_RATE_PARAMS, every other suite at
    DEFAULT_PARAMS. The suites are looked up when called, so a rebound
    module attribute is the one that runs.
    """
    if scope not in SCOPES:
        raise InvalidParameter(f"unknown scope {scope!r}; choose from {', '.join(sorted(SCOPES))}")
    param_sets = (params,) if params is not None else (DEFAULT_PARAMS, NEGATIVE_RATE_PARAMS)
    first = param_sets[0]
    out: list[CheckResult] = []
    if scope in ("theorem1", "all"):
        for p in param_sets:
            out += base_family_residuals(p)
            out.append(superposition_residual(p))
    if scope in ("theorem2", "all"):
        out += transform_closure(first)
    if scope in ("groups", "all"):
        out += group_laws(first) + generator_tangency(first)
    if scope in ("examples", "all"):
        out += reference_reproductions(first) + invariance_flags(first)
    if scope == "all":
        out += kummer_identities() + dsl_roundtrip()
    return out
