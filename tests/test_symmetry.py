"""Group maps: identities, round trips, pullbacks, generators, fixed surfaces."""

import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from bachelier_symmetries.errors import DomainError, InvalidParameter, RangeError
from bachelier_symmetries.pde_verify import (
    GridSpec,
    default_step,
    residual_from_partials,
    residual_scan,
)
from bachelier_symmetries.solutions import ComboSolution, ModelParams, SolutionTerm
from bachelier_symmetries.symmetry import (
    FLOW_ORIENTATION,
    GeneratorComponents,
    GroupElement,
    JetPoint,
    chain_function,
    forward_map,
    generator_eval,
    inverse_point_map,
    transformed,
)
from bachelier_symmetries.reference_forms import g4_family_from_linear
from bachelier_symmetries.verification import (
    TOL_CLOSURE_RESIDUAL,
    TOL_SURFACE,
    surface_defect,
)
from fd_oracle import derivative_richardson

P = ModelParams(r=0.05, sigma=0.2)
JETS = [JetPoint(0.0, 1.0, 1.0), JetPoint(0.4, -0.8, 2.5), JetPoint(-0.6, 1.7, -0.3),
        JetPoint(0.9, 0.0, 0.7)]
EPS_GRID = [-0.35, -0.1, 0.2, 0.4]


class TestGroupElement:
    def test_rejects_bad_index(self):
        with pytest.raises(InvalidParameter):
            GroupElement(7, 0.1)

    def test_rejects_bool_index(self):
        with pytest.raises(InvalidParameter):
            GroupElement(True, 0.1)

    def test_rejects_non_finite_parameter(self):
        with pytest.raises(InvalidParameter):
            GroupElement(1, float("nan"))


class TestForwardMap:
    @pytest.mark.parametrize("i", range(1, 7))
    @pytest.mark.parametrize("jp", JETS)
    def test_identity_is_exact(self, i, jp):
        assert forward_map(GroupElement(i, 0.0), jp, P) == jp

    def test_pure_scaling(self):
        image = forward_map(GroupElement(6, math.log(2.0)), JetPoint(0.1, 0.5, 3.0), P)
        assert image.t == 0.1 and image.S == 0.5
        assert image.C == pytest.approx(6.0, rel=1e-14)

    def test_time_translation(self):
        image = forward_map(GroupElement(1, 0.25), JetPoint(0.1, 0.5, 3.0), P)
        assert image == JetPoint(0.35, 0.5, 3.0)

    def test_group4_frozen_point(self):
        image = forward_map(GroupElement(4, 0.5), JetPoint(0.0, 1.0, 1.0), P)
        assert image.t == pytest.approx(math.log(1.5) / 0.1, rel=1e-15)
        assert image.S == pytest.approx(1.0 / math.sqrt(1.5), rel=1e-15)
        # C factor from the unreduced exponent form, as an independent route
        w = 1.5
        expected_c = math.exp(-P.r * (2 * P.sigma**2 * 0.0 * w - 0.5 * 1.0) /
                              (P.sigma**2 * w)) * w
        assert image.C == pytest.approx(expected_c, rel=1e-14)

    def test_group4_record_divides_by_sigma2_and_w_in_turn(self):
        # sigma^2 * w = 1e-320 * 1e-4 underflows to 0; divided in turn, the
        # log factor overflows, and the image is a RangeError
        with pytest.raises(RangeError):
            forward_map(GroupElement(4, -0.9999), JetPoint(0.0, 1.0, 1.0),
                        ModelParams(0.05, 1e-160))

    def test_non_finite_image_is_a_range_error(self):
        # log(1.5) / 2r overflows to t = inf at r = 5e-324
        with pytest.raises(RangeError, match="not finite"):
            forward_map(GroupElement(4, 0.5), JetPoint(0.0, 1.0, 1.0), ModelParams(5e-324, 0.2))

    @pytest.mark.parametrize("i,eps", [(4, -2.0), (5, -2.0)])
    def test_domain_errors(self, i, eps):
        # the message names the failing log/sqrt argument, e^0 - 2 = -1
        with pytest.raises(DomainError, match=r"> 0; got -1 at t = 0\.0"):
            forward_map(GroupElement(i, eps), JetPoint(0.0, 1.0, 1.0), P)

    @pytest.mark.parametrize("i", range(1, 7))
    @pytest.mark.parametrize("eps1", [-0.3, 0.15])
    @pytest.mark.parametrize("eps2", [-0.25, 0.4])
    def test_parameter_additivity(self, i, eps1, eps2):
        for jp in JETS:
            step = forward_map(GroupElement(i, eps1), jp, P)
            composed = forward_map(GroupElement(i, eps2), step, P)
            direct = forward_map(GroupElement(i, eps1 + eps2), jp, P)
            for a, b in zip(composed, direct):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


class TestInversePointMap:
    @pytest.mark.parametrize("i", range(1, 7))
    def test_identity_parameter(self, i):
        assert inverse_point_map(GroupElement(i, 0.0), 0.3, -0.7, P) == (0.3, -0.7)

    @pytest.mark.parametrize("i", range(1, 7))
    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_round_trip(self, i, eps):
        for jp in JETS:
            g = GroupElement(i, eps)
            t0, s0 = inverse_point_map(g, jp.t, jp.S, P)
            image = forward_map(g, JetPoint(t0, s0, 1.0), P)
            assert abs(image.t - jp.t) <= 1e-13 * max(1.0, abs(jp.t))
            assert abs(image.S - jp.S) <= 1e-13 * max(1.0, abs(jp.S))
            # G(-eps) undoes G(eps) on the whole jet point, C included
            back = forward_map(GroupElement(i, -eps), forward_map(g, jp, P), P)
            for a, b in zip(back, jp):
                assert abs(a - b) <= 1e-13 * max(1.0, abs(b))

    def test_group4_pre_image_time(self):
        # target chosen so e^{2rt} = 2; with eps = 0.5 the source has e^{2rt0} = 1.5
        target_t = math.log(2.0) / (2.0 * P.r)
        t0, _ = inverse_point_map(GroupElement(4, 0.5), target_t, 1.0, P)
        assert math.exp(2.0 * P.r * t0) == pytest.approx(1.5, rel=1e-14)

    def test_non_finite_pre_image_is_a_range_error(self):
        # the one-stage walk at -eps = -0.5 gives t0 = log(0.5) / 2r = -inf
        with pytest.raises(RangeError, match="not finite"):
            inverse_point_map(GroupElement(4, 0.5), 0.0, 1.0, ModelParams(5e-324, 0.2))

    def test_missing_pre_image(self):
        # one stage of the pipeline walk: stage 0, named as such
        for g in (GroupElement(4, 2.0), GroupElement(5, 1.5)):
            with pytest.raises(DomainError, match=r"^pipeline stage 0: no pre-image") as info:
                inverse_point_map(g, 0.0, 1.0, P)
            assert info.value.stage == 0


class TestPullback:
    def setup_method(self):
        self.linear = ComboSolution(SolutionTerm(1, 0), P)

    def test_scaling_group_scales_values(self):
        value = chain_function((GroupElement(6, 0.8),), self.linear, P)(0.4, 1.2)
        assert value == pytest.approx(math.exp(0.8) * 1.2, rel=1e-14)

    def test_group4_matches_hand_coded_family(self):
        for t, s, eps in ((0.2, 0.9, 0.3), (0.7, -1.1, -0.25), (0.5, 1.8, 0.1)):
            routed = chain_function((GroupElement(4, -eps),), self.linear, P)(t, s)
            direct = g4_family_from_linear(t, s, eps, P)
            assert routed == pytest.approx(direct, rel=1e-12)

    def test_empty_chain_evaluates_base(self):
        assert chain_function((), self.linear, P)(0.3, 0.9) == self.linear(0.3, 0.9)

    def test_scaling_chain_composes(self):
        value = chain_function((GroupElement(6, 0.3), GroupElement(6, 0.45)),
                               self.linear, P)(0.2, 1.5)
        assert value == pytest.approx(math.exp(0.75) * 1.5, rel=1e-14)

    def test_inverse_pair_cancels(self):
        value = chain_function((GroupElement(1, 0.4), GroupElement(1, -0.4)),
                               self.linear, P)(0.6, -0.9)
        assert value == pytest.approx(self.linear(0.6, -0.9), rel=1e-13)

    def test_chain_reports_failing_stage(self):
        pipeline = (GroupElement(6, 0.1), GroupElement(4, 2.0))
        with pytest.raises(DomainError) as info:
            chain_function(pipeline, self.linear, P)(0.0, 1.0)
        assert info.value.stage == 1
        with pytest.raises(DomainError) as info:
            chain_function((GroupElement(4, 2.0), GroupElement(6, 0.1)),
                           self.linear, P)(0.0, 1.0)
        assert info.value.stage == 0

    def test_transformed_binds_parameters(self):
        f = transformed(GroupElement(2, 0.5), self.linear, P)
        assert f(0.3, 1.0) == chain_function((GroupElement(2, 0.5),), self.linear, P)(0.3, 1.0)

    def test_overflow_guard_fires_near_domain_boundary(self):
        # at t = 0.5 the pre-image under eps = 1.05 exists (e^{2rt} - eps is
        # just above zero) but the carried factor explodes; the guard must
        # turn that into RangeError rather than return inf
        from bachelier_symmetries.errors import RangeError

        with pytest.raises(RangeError):
            chain_function((GroupElement(4, 1.05),), self.linear, P)(0.5, 1.0)

    def test_stacked_stage_overflow_raises(self):
        # each stage's factor e^{+/-400} passes the exponent guard; the summed
        # log factor does not, as for G6(+/-800), so e^-800 is no silent 0
        for eps in (400.0, -400.0):
            pipeline = (GroupElement(6, eps), GroupElement(6, eps))
            for f in (chain_function(pipeline, self.linear, P),
                      chain_function((GroupElement(6, 2.0 * eps),), self.linear, P)):
                with pytest.raises(RangeError, match=r"exceeds the \+/-700 guard"):
                    f(0.0, 1.0)
                with pytest.raises(RangeError, match=r"exceeds the \+/-700 guard"):
                    f.partials(0.0, 1.0)
            # one stage alone stays finite
            assert math.isfinite(chain_function(pipeline[:1], self.linear, P)(0.0, 1.0))
        # a factor within the guard can still overflow with the base's value
        heavy = chain_function((GroupElement(6, 100.0),),
                               ComboSolution(SolutionTerm(1, 0, 1e300), P), P)
        with pytest.raises(RangeError, match="not finite"):
            heavy(0.0, 1.0)
        with pytest.raises(RangeError, match="not finite"):
            heavy.partials(0.0, 1.0)

    def test_stage_factors_that_cancel_pass(self):
        # G6(400) | G6(400) | G6(-400) | G6(-400) is the identity
        base = ComboSolution(SolutionTerm(3, -4), P)
        f = chain_function([GroupElement(6, eps) for eps in (400.0, 400.0, -400.0, -400.0)],
                           base, P)
        assert f(0.35, -1.3) == base(0.35, -1.3)
        assert f.partials(0.35, -1.3) == base.partials(0.35, -1.3)

    def test_scaling_stages_compose_like_one_group_element(self):
        # the one-parameter group law G6(a) | G6(b) = G6(a + b), bit for bit
        rng = random.Random(1618)
        base = ComboSolution(SolutionTerm(3, -4), P)
        for _ in range(200):
            a, b = rng.uniform(-300.0, 300.0), rng.uniform(-300.0, 300.0)
            t, S = rng.uniform(0.0, 1.0), rng.uniform(-2.0, 2.0)
            pair = chain_function((GroupElement(6, a), GroupElement(6, b)), base, P)
            single = chain_function((GroupElement(6, a + b),), base, P)
            assert pair(t, S) == single(t, S)
            assert pair.partials(t, S) == single.partials(t, S)


def _central_partials(f, t, S):
    """C_t, C_S, C_SS of f from Richardson-improved central differences."""
    h = default_step(S)
    c_t = derivative_richardson(lambda x: f(x, S), t)
    c_s = derivative_richardson(lambda x: f(t, x), S)
    centre = f(t, S)
    coarse = (f(t, S + h) - 2.0 * centre + f(t, S - h)) / (h * h)
    fine = (f(t, S + 0.5 * h) - 2.0 * centre + f(t, S - 0.5 * h)) / (0.25 * h * h)
    return c_t, c_s, (4.0 * fine - coarse) / 3.0


class TestProlongedPartials:
    @given(
        pipeline=st.lists(st.tuples(st.integers(1, 6), st.floats(-0.4, 0.4)),
                          min_size=1, max_size=4),
        q=st.integers(1, 4),
        degree=st.integers(0, 4),
        r=st.sampled_from((0.05, -0.03)),
        t=st.floats(0.0, 1.0),
        S=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_pipeline_partials(self, pipeline, q, degree, r, t, S):
        params = ModelParams(r, 0.2)
        stages = tuple(GroupElement(i, eps) for i, eps in pipeline)
        f = chain_function(stages, ComboSolution(SolutionTerm(q, -2 * degree), params), params)
        try:
            source_t, source_S = t, S
            for g in reversed(stages):
                source_t, source_S = inverse_point_map(g, source_t, source_S, params)
            c, c_t, c_s, c_ss = f.partials(t, S)
            value = f(t, S)
            numeric = _central_partials(f, t, S)
        except (DomainError, RangeError):
            assume(False)
        # the envelope: the base is evaluated within twice the suites' price
        # range; far beyond it, near a G4/G5 domain boundary, the residual
        # rounds up to about 1.4e-12, with one chain rule as with one a stage
        assume(abs(source_S) <= 4.0)
        assert abs(c - value) <= 1e-14 * abs(value)
        _, residual = residual_from_partials(c, c_t, c_s, c_ss, S, params)
        assert residual <= TOL_CLOSURE_RESIDUAL
        scale = max(1.0, abs(c), abs(c_t), abs(c_s), abs(c_ss))
        for exact, fd in zip((c_t, c_s, c_ss), numeric):
            assert abs(exact - fd) <= 1e-6 * scale

    @pytest.mark.parametrize("i", range(1, 7))
    def test_identity_keeps_base_partials(self, i):
        base = ComboSolution(SolutionTerm(3, -4), P)
        f = chain_function((GroupElement(i, 0.0),), base, P)
        assert f.partials(0.35, -1.3) == base.partials(0.35, -1.3)

    @pytest.mark.parametrize("pipeline", [
        (GroupElement(6, 0.1), GroupElement(4, 2.0)),
        (GroupElement(4, 2.0), GroupElement(6, 0.1)),
    ])
    def test_domain_error_names_the_same_stage(self, pipeline):
        base = ComboSolution(SolutionTerm(1, 0), P)
        with pytest.raises(DomainError) as from_chain:
            chain_function(pipeline, base, P)(0.0, 1.0)
        with pytest.raises(DomainError) as from_partials:
            chain_function(pipeline, base, P).partials(0.0, 1.0)
        assert from_partials.value.stage == from_chain.value.stage

    def test_base_without_partials_rejected_in_analytic_scan(self):
        f = chain_function((GroupElement(2, 0.5),), lambda t, s: s, P)
        with pytest.raises(InvalidParameter):
            residual_scan(f, GridSpec((0.0, 1.0), (-1.0, 1.0), 3, 3), P, mode="analytic")


class TestGenerators:
    def test_time_translation_field(self):
        assert generator_eval(1, JetPoint(0.7, -1.3, 4.0), P) == GeneratorComponents(1.0, 0.0, 0.0)

    def test_scaling_field_vanishes_at_zero(self):
        assert generator_eval(6, JetPoint(0.2, 1.4, 0.0), P) == GeneratorComponents(0.0, 0.0, 0.0)

    def test_non_finite_component_is_a_range_error(self):
        # S * C = 1e600 overflows in the C component of xi_3
        with pytest.raises(RangeError, match="not finite"):
            generator_eval(3, JetPoint(0.0, 1e300, 1e300), P)

    def test_fourth_field_frozen_point(self):
        comp = generator_eval(4, JetPoint(0.0, 1.0, 1.0), P)
        assert comp.T_comp == pytest.approx(-10.0, rel=1e-15)
        assert comp.S_comp == pytest.approx(0.5, rel=1e-15)
        assert comp.C_comp == pytest.approx(-2.25, rel=1e-14)

    def test_rejects_bad_index(self):
        with pytest.raises(InvalidParameter):
            generator_eval(0, JetPoint(0.0, 0.0, 0.0), P)

    def test_rejects_bool_index(self):
        with pytest.raises(InvalidParameter):
            generator_eval(True, JetPoint(0.0, 0.0, 0.0), P)

    @pytest.mark.parametrize("i", range(1, 7))
    def test_tangent_to_flow(self, i):
        h = 1e-5
        orient = FLOW_ORIENTATION[i - 1]
        for jp in JETS:
            plus = forward_map(GroupElement(i, h), jp, P)
            minus = forward_map(GroupElement(i, -h), jp, P)
            numeric = [(a - b) / (2.0 * h) for a, b in zip(plus, minus)]
            exact = generator_eval(i, jp, P)
            for num, ex in zip(numeric, exact):
                assert abs(num - orient * ex) <= 1e-6 * max(1.0, abs(ex))


class TestFixedSurfaces:
    SAMPLE = ((0.1, 0.5), (0.3, -1.2), (0.45, 0.8), (0.9, -0.7))

    def test_linear_solution_moves_under_group4(self):
        assert not surface_defect(4, SolutionTerm(1, 0), self.SAMPLE, P) < TOL_SURFACE

    def test_gaussian_member_moves_under_group5(self):
        assert not surface_defect(5, SolutionTerm(4, -2), self.SAMPLE, P) < TOL_SURFACE

    def test_linear_solution_fixed_under_time_translation(self):
        assert surface_defect(1, SolutionTerm(1, 0), self.SAMPLE, P) < TOL_SURFACE

    def test_empty_sample_rejected(self):
        with pytest.raises(InvalidParameter):
            surface_defect(1, SolutionTerm(1, 0), (), P)

    def test_nan_defect_is_not_fixed(self):
        # at S = 1e153 the generator's C component overflows, so the
        # defect is inf / inf; a finite point before it must not hide it
        sample = ((0.3, -1.2), (0.1, 1e153), (0.45, 0.8))
        assert math.isnan(surface_defect(4, SolutionTerm(1, 0), sample, P))
        assert not surface_defect(4, SolutionTerm(1, 0), [(0.1, 1e153)], P) < TOL_SURFACE
