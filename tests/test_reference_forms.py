"""Hand-coded transformed families against the pullback machinery."""

import math
import random

import pytest

from bachelier_symmetries.errors import DomainError, RangeError
from bachelier_symmetries.pde_verify import residual_fd
from bachelier_symmetries.reference_forms import (
    g3_family_from_worked_combo,
    g4_family_from_linear,
    g5_family_from_gaussian_term,
    worked_combo,
)
from bachelier_symmetries.solutions import ComboSolution, ModelParams, SolutionTerm
from bachelier_symmetries.symmetry import GroupElement, transformed

P = ModelParams(r=0.05, sigma=0.2)

CASES = [
    (4, ComboSolution(SolutionTerm(1, 0), P), g4_family_from_linear),
    (5, ComboSolution(SolutionTerm(4, -2), P), g5_family_from_gaussian_term),
    (3, ComboSolution(worked_combo(), P), g3_family_from_worked_combo),
]


class TestWorkedCombo:
    def test_structure(self):
        combo = worked_combo()
        assert [(t.class_q, t.order_n, t.coeff) for t in combo.terms] == [
            (1, 0, 2.0), (1, -2, 5.0), (2, 0, 1.0), (2, -2, 3.0),
            (3, 0, 4.0), (3, -2, 6.0), (4, 0, 7.0), (4, -2, 9.0)]

    def test_value_at_origin(self):
        f = ComboSolution(worked_combo(), P)
        assert f(0.0, 0.0) == pytest.approx(20.0, rel=1e-15)


class TestClosedForms:
    @pytest.mark.parametrize("gi,base,oracle", CASES)
    def test_zero_parameter_is_seed(self, gi, base, oracle):
        for t, s in ((0.0, 0.4), (0.7, -1.3), (0.35, 1.8)):
            assert oracle(t, s, 0.0, P) == pytest.approx(base(t, s), rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("gi,base,oracle", CASES)
    def test_families_solve_the_pde(self, gi, base, oracle):
        for eps in (-0.2, 0.3):
            for t, s in ((0.3, 0.8), (0.6, -1.1)):
                _, norm = residual_fd(lambda tt, ss: oracle(tt, ss, eps, P), t, s, P)
                assert norm <= 1e-6

    @pytest.mark.parametrize("gi,base,oracle", CASES)
    def test_pullback_reproduction(self, gi, base, oracle):
        rng = random.Random(97)
        produced = 0
        while produced < 25:
            t = rng.uniform(0.0, 1.0)
            s = rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 2.0)
            eps = rng.uniform(-0.4, 0.4)
            try:
                direct = oracle(t, s, eps, P)
                routed = transformed(GroupElement(gi, -eps), base, P)(t, s)
            except DomainError:
                continue
            assert abs(direct - routed) <= 1e-11 * max(1.0, abs(direct), abs(routed))
            produced += 1

    @pytest.mark.parametrize("oracle", [case[2] for case in CASES])
    def test_overflow_is_a_range_error(self, oracle):
        with pytest.raises(RangeError):
            oracle(0.5, 1.0, 0.1, ModelParams(r=1e300, sigma=0.2))

    def test_g4_domain_error(self):
        with pytest.raises(DomainError):
            g4_family_from_linear(0.0, 1.0, -2.0, P)

    def test_g5_domain_error(self):
        with pytest.raises(DomainError):
            g5_family_from_gaussian_term(0.0, 1.0, -2.0, P)

    def test_g5_frozen_value(self):
        # independent arithmetic for one point: t=0, S=0.5, eps=0.2
        t, s, eps = 0.0, 0.5, 0.2
        d = 1.0 + eps
        expected = (math.exp(P.r * (5 * t - s * s / (P.sigma**2 * d)))
                    * math.sqrt(1.0 + eps)
                    * (-2 * P.r * s * s + P.sigma**2 * d) / (P.sigma**2 * d**3))
        assert g5_family_from_gaussian_term(t, s, eps, P) == pytest.approx(expected, rel=1e-15)

    def test_g3_reduces_to_shift_of_combo(self):
        # the group-3 family is a prefactor times the combo at a shifted price
        t, s, eps = 0.4, 0.9, 0.15
        shift = eps * math.exp(-P.r * t)
        prefactor = math.exp(eps * P.r * math.exp(-P.r * t) * (shift + 2.0 * s) / P.sigma**2)
        combo_at_shift = ComboSolution(worked_combo(), P)(t, s + shift)
        assert g3_family_from_worked_combo(t, s, eps, P) == pytest.approx(
            prefactor * combo_at_shift, rel=1e-13)
