"""Residual machinery: exact cases, convergence order, grid reports."""

import math
from itertools import product

import pytest

from bachelier_symmetries import pde_verify
from bachelier_symmetries.errors import DomainError, InvalidParameter, RangeError
from bachelier_symmetries.pde_verify import (
    EvalPoint,
    GridSpec,
    ResidualReport,
    _worse,
    default_step,
    residual_fd,
    residual_from_partials,
    residual_scan,
    sampled,
    worst_case,
)
from bachelier_symmetries.reference_forms import worked_combo
from bachelier_symmetries.solutions import ComboSolution, ModelParams, SolutionTerm
from bachelier_symmetries.symmetry import GroupElement, transformed

P = ModelParams(r=0.05, sigma=0.2)
P_NEG = ModelParams(r=-0.03, sigma=0.2)


class TestGridSpec:
    def test_points_include_endpoints(self):
        grid = GridSpec((0.0, 1.0), (-2.0, 2.0), 5, 3)
        assert grid.t_points() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert grid.S_points() == [-2.0, 0.0, 2.0]

    @pytest.mark.parametrize("n", [50, 99])
    def test_last_point_is_the_high_end(self, n):
        # 0 + 49 * (1/49) rounds to 0.9999999999999999; the axis ends at 1.0
        points = GridSpec((0.0, 1.0), (0.0, 1.0), n, 2).t_points()
        step = 1.0 / (n - 1)
        assert points[-1] == 1.0 and points[0] == 0.0 and len(points) == n
        assert repr(points[1:-1]) == repr([i * step for i in range(1, n - 1)])

    def test_two_points_are_the_ends(self):
        grid = GridSpec((0.1, 0.7), (-2.0, 1e-3), 2, 2)
        assert grid.t_points() == [0.1, 0.7] and grid.S_points() == [-2.0, 1e-3]

    def test_negative_zero_low_end_keeps_its_sign(self):
        points = GridSpec((-0.0, 1.0), (-1.0, 1.0), 3, 3).t_points()
        assert math.copysign(1.0, points[0]) == -1.0 and points == [0.0, 0.5, 1.0]

    def test_integral_float_counts_are_usable(self):
        grid = GridSpec((0, 1), (0, 1), 3.0, 3)
        assert grid.t_points() == [0.0, 0.5, 1.0]
        assert type(grid.nt) is int

    @pytest.mark.parametrize("kwargs", [
        dict(t_range=(1.0, 0.0), S_range=(-1.0, 1.0), nt=3, nS=3),
        dict(t_range=(0.0, 1.0), S_range=(1.0, 1.0), nt=3, nS=3),
        dict(t_range=(0.0, 1.0), S_range=(-1.0, 1.0), nt=1, nS=3),
        dict(t_range=(0.0, 1.0), S_range=(-1.0, 1.0), nt=3, nS=0),
        dict(t_range=(0.0, 1.0), S_range=(-1.0, 1.0), nt=math.inf, nS=3),
        dict(t_range=(0.0, 1.0), S_range=(-1.0, 1.0), nt=math.nan, nS=3),
        dict(t_range=(0.0, 1.0, 2.0), S_range=(-1.0, 1.0), nt=3, nS=3),
        dict(t_range=("a", "b"), S_range=(-1.0, 1.0), nt=3, nS=3),
        # hi - lo overflows, so the grid step would be inf
        dict(t_range=(-1e308, 1e308), S_range=(-1.0, 1.0), nt=3, nS=3),
        dict(t_range=(0.0, 1.0), S_range=(-1e308, 1e308), nt=3, nS=3),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParameter):
            GridSpec(**kwargs)


class TestResidualFromPartials:
    def test_price_solution(self):
        raw, norm = residual_from_partials(1.3, 0.0, 1.0, 0.0, 1.3, P)
        assert raw == 0.0 and norm == 0.0

    def test_carrier_solution(self):
        c = math.exp(P.r * 0.7)
        raw, _ = residual_from_partials(c, P.r * c, 0.0, 0.0, 2.0, P)
        assert raw == pytest.approx(0.0, abs=1e-18)

    def test_square_is_not_a_solution(self):
        # C = S^2 at S = 1: r S (2S) + sigma^2/2 * 2 - r S^2 = 0.1 + 0.04 - 0.05
        raw, norm = residual_from_partials(1.0, 0.0, 2.0, 2.0, 1.0, P)
        assert raw == pytest.approx(0.09, rel=1e-15)
        assert norm == pytest.approx(0.09, rel=1e-15)  # scale floor is 1


class TestDerivativeHelpers:
    def test_default_step_scaling(self):
        assert default_step(0.3) == 1e-3
        assert default_step(-5.0) == 5e-3


class TestResidualFd:
    def test_exact_for_price_solution(self):
        _, norm = residual_fd(ComboSolution(SolutionTerm(1, 0), P), 0.4, 0.9, P)
        assert norm <= 1e-12

    @pytest.mark.parametrize("t,S", [(0.3, 0.6), (0.7, -1.4), (0.5, 1.9)])
    def test_polynomial_member(self, t, S):
        _, norm = residual_fd(ComboSolution(SolutionTerm(4, -4), P), t, S, P)
        assert norm <= 1e-6

    def test_transformed_function(self):
        moved = transformed(GroupElement(4, 0.3), ComboSolution(SolutionTerm(1, 0), P), P)
        _, norm = residual_fd(moved, 0.5, 0.8, P)
        assert norm <= 1e-6

    def test_agrees_with_analytic_raw(self):
        f = ComboSolution(SolutionTerm(3, -6), P)
        for t, S in ((0.25, 1.1), (0.6, -0.4)):
            c, c_t, c_s, c_ss = f.partials(t, S)
            raw_exact, _ = residual_from_partials(c, c_t, c_s, c_ss, S, P)
            raw_fd, _ = residual_fd(f, t, S, P)
            scale = max(1.0, abs(P.r * S * c_s), abs(0.5 * P.sigma**2 * c_ss),
                        abs(c_t), abs(P.r * c))
            assert abs(raw_exact - raw_fd) <= 1e-6 * scale

    def test_scale_invariant_normalisation(self):
        plain = ComboSolution(SolutionTerm(4, -2), P)
        boosted = ComboSolution(SolutionTerm(4, -2, math.exp(3.0)), P)
        _, norm_plain = residual_fd(plain, 0.4, 1.3, P)
        _, norm_boosted = residual_fd(boosted, 0.4, 1.3, P)
        assert norm_boosted <= 1e-10 and norm_plain <= 1e-10

    def test_error_decays_by_factor_eight_on_halving(self, monkeypatch):
        # smooth control function that is not a solution and has no vanishing
        # high derivatives
        def control(t, S):
            return math.exp(0.3 * t + 0.4 * S) + math.sin(S)

        t, S = 0.3, 0.7
        e = math.exp(0.3 * t + 0.4 * S)
        raw_exact, _ = residual_from_partials(
            control(t, S), 0.3 * e, 0.4 * e + math.cos(S), 0.16 * e - math.sin(S), S, P)
        h = 0.04
        monkeypatch.setattr(pde_verify, "default_step", lambda x: h)
        err_coarse = abs(residual_fd(control, t, S, P)[0] - raw_exact)
        monkeypatch.setattr(pde_verify, "default_step", lambda x: h / 2)
        err_fine = abs(residual_fd(control, t, S, P)[0] - raw_exact)
        assert err_coarse / err_fine >= 8.0

    def test_price_step_scales_with_price(self):
        # the S stencil sits at S +/- h_S and S +/- h_S/2 with h_S = default_step(S)
        seen = []

        def recording(t, S):
            seen.append((t, S))
            return S

        residual_fd(recording, 0.3, 5.0, P)
        offsets = sorted({abs(s - 5.0) for t, s in seen if t == 0.3 and s != 5.0})
        assert offsets == pytest.approx([0.5 * default_step(5.0), default_step(5.0)], rel=1e-9)


class TestResidualScan:
    def test_zero_function(self):
        report = residual_scan(lambda t, s: 0.0, GridSpec((0, 1), (-1, 1), 3, 3), P, mode="fd")
        assert report.max_normalized == 0.0
        assert report.evaluated == 9

    def test_point_count(self):
        report = residual_scan(ComboSolution(SolutionTerm(1, 0), P),
                               GridSpec((0, 1), (-1, 1), 2, 2), P)
        assert report.evaluated == 4 and report.failures == 0

    def test_analytic_sweep_of_base_members(self):
        grid = GridSpec((0.0, 1.0), (-2.0, 2.0), 21, 21)
        for q in (1, 2, 3, 4):
            for n in (0, -2, -4, -6, -8):
                report = residual_scan(ComboSolution(SolutionTerm(q, n), P), grid, P)
                assert report.max_normalized <= 1e-10

    def test_analytic_sweep_negative_times(self):
        grid = GridSpec((-1.0, 1.0), (-2.0, 2.0), 9, 9)
        for q, n in ((1, -4), (2, -2), (4, -8)):
            report = residual_scan(ComboSolution(SolutionTerm(q, n), P), grid, P)
            assert report.max_normalized <= 1e-10

    def test_analytic_mode_requires_partials(self):
        with pytest.raises(InvalidParameter):
            residual_scan(lambda t, s: s, GridSpec((0, 1), (-1, 1), 3, 3), P, mode="analytic")

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidParameter):
            residual_scan(ComboSolution(SolutionTerm(1, 0), P),
                          GridSpec((0, 1), (-1, 1), 3, 3), P, mode="exact")

    def test_domain_failures_are_counted(self):
        # group 4 at eps = 1.05 has no pre-image on the t = 0 row but a
        # comfortable one on the t = 1 row (e^{2rt} - eps = 0.055 there)
        moved = transformed(GroupElement(4, 1.05), ComboSolution(SolutionTerm(1, 0), P), P)
        grid = GridSpec((0.0, 1.0), (-1.0, 1.0), 2, 3)
        report = residual_scan(moved, grid, P, mode="fd")
        assert report.failures == 3
        assert report.evaluated == 3
        assert report.max_normalized <= 1e-6

    def test_all_failed_report(self):
        def nowhere(t, s):
            raise DomainError("empty domain")

        report = residual_scan(nowhere, GridSpec((0, 1), (-1, 1), 2, 2), P, mode="fd")
        assert report.failures == 4
        assert report.evaluated == 0
        assert report.worst_point is None
        assert report.max_normalized == 0.0

    def test_nan_everywhere_fails(self):
        report = residual_scan(lambda t, s: math.nan, GridSpec((0, 1), (-1, 1), 3, 3), P,
                               mode="fd")
        assert math.isnan(report.max_normalized)
        assert report.worst_point == EvalPoint(0.0, -1.0)
        assert report.evaluated == 9 and report.failures == 0

    def test_nan_is_the_worst_point_and_stays(self):
        # finite (zero) residuals on the S = -1 column, NaN wherever the
        # stencil reaches S > 0; residuals after the first NaN must not
        # displace it
        def half(t, s):
            return math.nan if s > 0.0 else 0.0

        report = residual_scan(half, GridSpec((0, 1), (-1, 1), 3, 3), P, mode="fd")
        assert math.isnan(report.max_normalized)
        assert report.worst_point == EvalPoint(0.0, 0.0)
        assert not report.max_normalized <= 1.0

    def test_range_error_scores_nan(self):
        # an overflow at S > 0 is a NaN residual there, not an abort of the
        # scan, and not a skipped point
        def overflowing(t, s):
            if s > 0.0:
                raise RangeError("exponent beyond the guard")
            return s

        report = residual_scan(overflowing, GridSpec((0, 1), (-1, 1), 3, 3), P, mode="fd")
        assert math.isnan(report.max_normalized)
        assert report.worst_point == EvalPoint(0.0, 0.0)
        assert report.evaluated == 9 and report.failures == 0


def _reference_scan(f, grid, params, mode):
    # the scan as the sample rule, residual_from_partials or residual_fd per
    # point, and _worse, which residual_scan computes inline
    def measure(t, S):
        if mode == "analytic":
            return residual_from_partials(*f.partials(t, S), S, params)[1]
        return residual_fd(f, t, S, params)[1]

    worst, worst_point, evaluated = -1.0, None, 0
    for point, normalized in sampled(measure, product(grid.t_points(), grid.S_points())):
        evaluated += 1
        if _worse(normalized, worst):
            worst, worst_point = normalized, EvalPoint(*point)
    return ResidualReport(worst if evaluated else 0.0, worst_point,
                          grid.nt * grid.nS - evaluated, evaluated)


_SCAN_GRID = GridSpec((0.0, 1.0), (-2.0, 2.0), 11, 11)
_FD_GRID = GridSpec((0.0, 1.0), (-2.0, 2.0), 4, 4)


def _scan_cases():
    for params, label in ((P, "r>0"), (P_NEG, "r<0")):
        for q in (1, 2, 3, 4):
            for n in (0, -2, -4, -6, -8):
                yield f"C{q}[{n}] {label}", (SolutionTerm(q, n), None, params)
        yield f"worked {label}", (worked_combo(), None, params)
        for g, eps in ((1, 0.3), (2, -0.7), (3, 0.5), (4, 0.2), (5, -0.4), (6, 0.6)):
            yield f"C3[-2] | G{g}({eps}) {label}", (SolutionTerm(3, -2), GroupElement(g, eps),
                                                     params)
    # no pre-image on the t = 0 row, one on the t = 1 row
    yield "C1[0] | G4(1.05)", (SolutionTerm(1, 0), GroupElement(4, 1.05), P)


_SCAN_CASES = dict(_scan_cases())


@pytest.mark.parametrize("case", list(_SCAN_CASES))
@pytest.mark.parametrize("mode", ["analytic", "fd"])
def test_scan_is_its_reference_by_repr(case, mode):
    combo, g, params = _SCAN_CASES[case]
    f = ComboSolution(combo, params)
    if g is not None:
        f = transformed(g, f, params)
    grid = _SCAN_GRID if mode == "analytic" else _FD_GRID
    report = residual_scan(f, grid, params, mode=mode)
    assert repr(report) == repr(_reference_scan(f, grid, params, mode))
    if case == "C1[0] | G4(1.05)":
        assert 0 < report.failures < grid.nt * grid.nS


@pytest.mark.parametrize("mode", ["analytic", "fd"])
def test_scan_of_a_nan_point_is_its_reference_by_repr(mode):
    # 1e10 e^{r t} is finite up to t = 13450 and not finite at t = 13900
    f = ComboSolution(SolutionTerm(2, 0, 1e10), P)
    grid = GridSpec((13000.0, 13900.0), (-1.0, 1.0), 3, 3)
    report = residual_scan(f, grid, P, mode=mode)
    assert math.isnan(report.max_normalized) and report.worst_point == EvalPoint(13900.0, -1.0)
    assert repr(report) == repr(_reference_scan(f, grid, P, mode))


def test_sampled_skips_domain_errors_and_scores_range_errors_nan():
    def measure(t, S):
        if t == 1.0:
            raise DomainError("outside the domain")
        if t == 2.0:
            raise RangeError("overflow")
        return t + S

    points = [(0.0, 0.5), (1.0, 0.5), (2.0, 0.5), (3.0, 0.5)]
    out = list(sampled(measure, points))
    assert [point for point, _ in out] == [(0.0, 0.5), (2.0, 0.5), (3.0, 0.5)]
    assert out[0][1] == 0.5 and math.isnan(out[1][1]) and out[2][1] == 3.5


class TestWorstCase:
    def test_empty_is_zero(self):
        assert worst_case([]) == 0.0
        assert worst_case(iter(())) == 0.0

    def test_largest_value(self):
        assert worst_case([0.5, 2.0, 1.0]) == 2.0
        assert worst_case(x for x in (3e-15, 1e-16)) == 3e-15

    def test_first_nan_wins_and_stays(self):
        first, later = float("nan"), float("nan")
        assert worst_case([1.0, first, 5.0, later, math.inf]) is first
        assert worst_case([first, 1.0]) is first
        assert not worst_case([0.0, first]) <= 1.0

    def test_ties_keep_the_first(self):
        assert math.copysign(1.0, worst_case([-0.0, 0.0])) == -1.0
        assert math.copysign(1.0, worst_case([0.0, -0.0])) == 1.0
