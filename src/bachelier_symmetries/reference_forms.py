"""Hand-coded closed forms of three transformed solution families.

These are verification fixtures. Each function writes out, as one explicit
algebraic expression, the solution family obtained by carrying a known base
solution through a single symmetry group:

  * the linear solution C = S through group 4,
  * the Gaussian member C_{4,-2} through group 5,
  * a fixed eight-term combination through group 3.

They bypass `symmetry.pullback` entirely and share no code with it, so
agreement between the two routes is a meaningful cross-check rather than a
tautology. Families here are parametrised so that eps = 0 gives back the
base solution and, for groups 4 and 5, the admissible parameter set at a
point t is e^{2rt} + eps > 0 (resp. e^{-2rt} + eps > 0). Under the group
composition conventions of `symmetry`, `pullback` with GroupElement(i, -eps)
evaluates the identical function of (t, S). Every exponential goes through
`solutions.safe_exp`, so out-of-range parameters raise RangeError.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .solutions import BaseCombo, ModelParams, SolutionTerm, safe_exp

__all__ = [
    "worked_combo",
    "g4_family_from_linear",
    "g5_family_from_gaussian_term",
    "g3_family_from_worked_combo",
]

_WORKED_WEIGHTS = ((1, 0, 2.0), (1, -2, 5.0), (2, 0, 1.0), (2, -2, 3.0),
                   (3, 0, 4.0), (3, -2, 6.0), (4, 0, 7.0), (4, -2, 9.0))


def worked_combo() -> BaseCombo:
    """The fixed eight-term combination with weights 2, 5, 1, 3, 4, 6, 7, 9.

    It mixes the order-0 and order minus-2 members of all four classes and
    is the seed of `g3_family_from_worked_combo`.
    """
    return BaseCombo(tuple(SolutionTerm(q, n, w) for q, n, w in _WORKED_WEIGHTS))


def g4_family_from_linear(t: float, S: float, eps: float, params: ModelParams) -> float:
    """Group 4 carried family seeded by C = S:

        C(t, S) = exp(r (3 sigma^2 t w - eps S^2) / (sigma^2 w)) * S / w^(3/2),
        w = e^{2rt} + eps.
    """
    r, sigma = params.r, params.sigma
    w = safe_exp(2.0 * r * t) + eps
    if w <= 0.0:
        raise DomainError(f"family undefined: e^(2rt) + eps = {w:.6g}")
    exponent = r * (3.0 * sigma**2 * t * w - eps * S**2) / (sigma**2 * w)
    return safe_exp(exponent) * S / w**1.5


def g5_family_from_gaussian_term(t: float, S: float, eps: float, params: ModelParams) -> float:
    """Group 5 carried family seeded by C_{4,-2}:

        C(t, S) = exp(r (5t - S^2 / (sigma^2 d))) * sqrt(e^{-2rt} + eps)
                  * (-2 r S^2 + sigma^2 d) / (sigma^2 d^3),
        d = 1 + e^{2rt} eps.
    """
    r, sigma = params.r, params.sigma
    v = safe_exp(-2.0 * r * t) + eps
    if v <= 0.0:
        raise DomainError(f"family undefined: e^(-2rt) + eps = {v:.6g}")
    d = 1.0 + safe_exp(2.0 * r * t) * eps
    exponent = r * (5.0 * t - S**2 / (sigma**2 * d))
    return safe_exp(exponent) * math.sqrt(v) * (-2.0 * r * S**2 + sigma**2 * d) / (sigma**2 * d**3)


def g3_family_from_worked_combo(t: float, S: float, eps: float, params: ModelParams) -> float:
    """Group 3 carried family seeded by the eight-term worked combination.

    Transcribed term by term from its explicit form: a common prefactor
    exp(eps r e^{-rt} (eps e^{-rt} + 2S) / sigma^2) times the combination
    with every price argument shifted to S + eps e^{-rt}.
    """
    r, sigma = params.r, params.sigma
    s2 = sigma**2
    ert = safe_exp(r * t)
    emrt = safe_exp(-r * t)
    prefactor = safe_exp(eps * r * emrt * (eps * emrt + 2.0 * S) / s2)
    shifted = S + eps * emrt
    gauss = safe_exp(-r * shifted**2 / s2)
    part1 = (2.0 * shifted
             + 5.0 * safe_exp(-5.0 * r * t) * (eps + S * ert)
             * (safe_exp(2.0 * r * t) * (2.0 * r * S**2 + 3.0 * s2)
                + 2.0 * eps * r * (eps + 2.0 * ert * S)) / (3.0 * s2))
    part2 = (ert
             + 3.0 * safe_exp(-3.0 * r * t)
             * (safe_exp(2.0 * r * t) * (2.0 * r * S**2 + s2)
                + 2.0 * eps * r * (eps + 2.0 * ert * S)) / s2)
    part3 = (4.0 * safe_exp(2.0 * r * t) * gauss * (eps + ert * S)
             + 6.0 * safe_exp(5.0 * r * t) * gauss * shifted
             * (1.0 - 2.0 * r * shifted**2 / (3.0 * s2)))
    part4 = (7.0 * safe_exp(2.0 * r * t) * gauss
             + 9.0 * safe_exp(4.0 * r * t) * gauss * (1.0 - 2.0 * r * shifted**2 / s2))
    return prefactor * (part1 + part2 + part3 + part4)
