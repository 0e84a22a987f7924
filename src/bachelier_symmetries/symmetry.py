"""One-parameter point symmetry groups of the pricing PDE.

Six vector fields span the finite-dimensional part of the equation's point
symmetry algebra (the remaining freedom, adding an arbitrary solution, is
infinite-dimensional and is covered by linear combinations in `solutions`,
not by a group element here):

    xi_1 = d/dt
    xi_2 = e^{rt} d/dS
    xi_3 = e^{-rt} d/dS - (2 r S C / sigma^2) e^{-rt} d/dC
    xi_4 = -(e^{-2rt} / 2r) d/dt + (e^{-2rt} S / 2) d/dS
           - e^{-2rt} (sigma^2 + r S^2) (C / sigma^2) d/dC
    xi_5 = (e^{2rt} / 2r) d/dt + (e^{2rt} S / 2) d/dS + (e^{2rt} C / 2) d/dC
    xi_6 = C d/dC

`forward_map` applies the corresponding finite transformations G_1 .. G_6
in their conventional closed forms. In that normalisation the parameter of
G_4 and G_5 runs along the flow of -xi_4 and -xi_5; FLOW_ORIENTATION
records the sign per group so tangency checks can tie the finite maps to
the vector fields.

A group element maps solution graphs to solution graphs. `pullback`
materialises the mapped graph as a function again: the value at a point is
found by pulling the point back through the inverse point map, reading the
original solution there, and pushing the value forward through the C
component of the group action. G_4 and G_5 involve a logarithm and a square
root, so both directions carry per-point domain conditions; there is no
global admissible parameter range, the check happens at each evaluation.

Every G_i has the form t' = T(t), S' = A(t) S + B(t), C' = K(t, S) C, so its
second prolongation (Olver, Applications of Lie Groups to Differential
Equations, GTM 107, ch. 2) carries (C, C_t, C_S, C_SS) at the source point
to the same four numbers at the image point, with no C_tt or C_tS needed.
`chain_function` uses that to give transported solutions exact partials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, NamedTuple

from .errors import DomainError, InvalidParameter
from .solutions import (
    ModelParams,
    SolutionTerm,
    eval_term_partials,
    safe_exp,
)

__all__ = [
    "GroupElement",
    "JetPoint",
    "GeneratorComponents",
    "FLOW_ORIENTATION",
    "forward_map",
    "inverse_point_map",
    "pullback",
    "transformed",
    "pullback_chain",
    "chain_function",
    "generator_eval",
    "surface_defect",
    "fixed_surface_check",
]

# d/deps of forward_map at eps = 0 equals FLOW_ORIENTATION[i-1] * xi_i.
FLOW_ORIENTATION = (1.0, 1.0, 1.0, -1.0, -1.0, 1.0)


@dataclass(frozen=True)
class GroupElement:
    """One symmetry application: generator index 1..6 and a real parameter."""

    gen_index: int
    epsilon: float

    def __post_init__(self):
        if self.gen_index not in (1, 2, 3, 4, 5, 6):
            raise InvalidParameter(f"generator index must be in 1..6, got {self.gen_index!r}")
        eps = self.epsilon
        if isinstance(eps, bool) or not isinstance(eps, (int, float)) or not math.isfinite(eps):
            raise InvalidParameter(f"group parameter must be a finite real, got {eps!r}")
        object.__setattr__(self, "epsilon", float(eps))


class JetPoint(NamedTuple):
    """A point (t, S, C) of the extended space the groups act on."""

    t: float
    S: float
    C: float


class GeneratorComponents(NamedTuple):
    """Components of a symmetry vector field along d/dt, d/dS and d/dC."""

    T_comp: float
    S_comp: float
    C_comp: float


def forward_map(g: GroupElement, jp: JetPoint, params: ModelParams) -> JetPoint:
    """Apply one finite group element to a point of (t, S, C) space.

    The identity (epsilon = 0) returns the input unchanged, bit for bit.
    Raises DomainError when the log/sqrt argument of group 4 or 5 fails to
    be positive for the requested parameter.
    """
    t, S, C = jp
    eps = g.epsilon
    if eps == 0.0:
        return JetPoint(t, S, C)
    r, sigma = params.r, params.sigma
    i = g.gen_index
    if i == 1:
        return JetPoint(t + eps, S, C)
    if i == 2:
        return JetPoint(t, S + eps * safe_exp(r * t), C)
    if i == 3:
        shift = eps * safe_exp(-r * t)
        return JetPoint(t, S + shift, C * safe_exp(-r * shift * (shift + 2.0 * S) / sigma**2))
    if i == 4:
        w = safe_exp(2.0 * r * t) + eps
        if w <= 0.0:
            raise DomainError(
                f"group 4 needs e^(2rt) + eps > 0; got {w:.6g} at t = {t!r}", argument=w)
        # C factor: exp(-r (2 sigma^2 t w - eps S^2) / (sigma^2 w)) * w,
        # with the exponent reduced to -2rt + r eps S^2 / (sigma^2 w)
        factor = w * safe_exp(-2.0 * r * t + r * eps * S * S / (sigma * sigma * w))
        return JetPoint(math.log(w) / (2.0 * r), safe_exp(r * t) * S / math.sqrt(w), C * factor)
    if i == 5:
        v = safe_exp(-2.0 * r * t) + eps
        if v <= 0.0:
            raise DomainError(
                f"group 5 needs e^(-2rt) + eps > 0; got {v:.6g} at t = {t!r}", argument=v)
        damp = safe_exp(-r * t) / math.sqrt(v)
        return JetPoint(-math.log(v) / (2.0 * r), S * damp, C * damp)
    return JetPoint(t, S, C * safe_exp(eps))


def _prolong(
    g: GroupElement,
    t: float,
    S: float,
    jet: tuple[float, float, float, float],
    params: ModelParams,
) -> tuple[float, float, float, float]:
    """Carry (C, C_t, C_S, C_SS) at the source point (t, S) to its image under g.

    Each branch gives T'(t), A(t), dS'/dt, the C factor K of ``forward_map``
    (same arithmetic, so the value matches it bit for bit) and K_t, K_S,
    K_SS; the chain rule below is shared by all six groups. The identity
    returns the input unchanged.
    """
    eps = g.epsilon
    if eps == 0.0:
        return jet
    c, c_t, c_s, c_ss = jet
    r, sigma = params.r, params.sigma
    i = g.gen_index
    d_T, A, d_S = 1.0, 1.0, 0.0
    K, K_t, K_S, K_SS = 1.0, 0.0, 0.0, 0.0
    if i == 2:
        d_S = r * eps * safe_exp(r * t)
    elif i == 3:
        shift = eps * safe_exp(-r * t)
        d_S = -r * shift
        K = safe_exp(-r * shift * (shift + 2.0 * S) / sigma**2)
        K_t = K * 2.0 * r * r * shift * (shift + S) / sigma**2
        K_S = K * -2.0 * r * shift / sigma**2
        K_SS = K_S * -2.0 * r * shift / sigma**2
    elif i == 4:
        grow = safe_exp(2.0 * r * t)
        w = grow + eps
        if w <= 0.0:
            raise DomainError(
                f"group 4 needs e^(2rt) + eps > 0; got {w:.6g} at t = {t!r}", argument=w)
        d_T = grow / w
        A = safe_exp(r * t) / math.sqrt(w)
        d_S = S * A * r * eps / w
        K = w * safe_exp(-2.0 * r * t + r * eps * S * S / (sigma * sigma * w))
        # logarithmic derivatives of K = w exp(-2rt + r eps S^2 / (sigma^2 w))
        log_S = 2.0 * r * eps * S / (sigma * sigma * w)
        K_t = K * (-2.0 * r * eps / w - log_S * r * S * grow / w)
        K_S = K * log_S
        K_SS = K * (log_S * log_S + 2.0 * r * eps / (sigma * sigma * w))
    elif i == 5:
        shrink = safe_exp(-2.0 * r * t)
        v = shrink + eps
        if v <= 0.0:
            raise DomainError(
                f"group 5 needs e^(-2rt) + eps > 0; got {v:.6g} at t = {t!r}", argument=v)
        d_T = shrink / v
        A = K = safe_exp(-r * t) / math.sqrt(v)
        d_S = -S * A * r * eps / v
        K_t = -K * r * eps / v
    elif i == 6:
        K = safe_exp(eps)
    # C'(t', S') = K(t, S) C(t, S) with t = T^{-1}(t'), S = (S' - B(t)) / A(t)
    h_S = K_S * c + K * c_s
    image_s = h_S / A
    image_ss = (K_SS * c + 2.0 * K_S * c_s + K * c_ss) / (A * A)
    image_t = (K_t * c + K * c_t - d_S * image_s) / d_T
    return (c * K, image_t, image_s, image_ss)


def inverse_point_map(
    g: GroupElement, target_t: float, target_S: float, params: ModelParams
) -> tuple[float, float]:
    """The unique (t0, S0) whose image under ``forward_map`` has the target point part.

    Only the point components are inverted; every group element scales C by
    a nonzero factor, so the C direction never obstructs invertibility.
    Raises DomainError when the pre-image does not exist (log/sqrt domain of
    groups 4 and 5).
    """
    eps = g.epsilon
    if eps == 0.0:
        return (target_t, target_S)
    r = params.r
    i = g.gen_index
    if i == 1:
        return (target_t - eps, target_S)
    if i == 2:
        return (target_t, target_S - eps * safe_exp(r * target_t))
    if i == 3:
        return (target_t, target_S - eps * safe_exp(-r * target_t))
    if i == 4:
        w = safe_exp(2.0 * r * target_t) - eps
        if w <= 0.0:
            raise DomainError(
                f"no pre-image under group 4: e^(2rt) - eps = {w:.6g} at t = {target_t!r}",
                argument=w)
        t0 = math.log(w) / (2.0 * r)
        return (t0, target_S * safe_exp(r * target_t) / math.sqrt(w))
    if i == 5:
        v = safe_exp(-2.0 * r * target_t) - eps
        if v <= 0.0:
            raise DomainError(
                f"no pre-image under group 5: e^(-2rt) - eps = {v:.6g} at t = {target_t!r}",
                argument=v)
        t0 = -math.log(v) / (2.0 * r)
        return (t0, target_S * safe_exp(-r * target_t) / math.sqrt(v))
    return (target_t, target_S)


def pullback(
    g: GroupElement,
    f: Callable[[float, float], float],
    t: float,
    S: float,
    params: ModelParams,
) -> float:
    """Value at (t, S) of the solution obtained by transporting f through g.

    Whenever f solves the pricing PDE, the transported function of (t, S)
    solves it as well; that closure property is what the verification
    suites check on grids.
    """
    t0, S0 = inverse_point_map(g, t, S, params)
    return forward_map(g, JetPoint(t0, S0, f(t0, S0)), params).C


def transformed(
    g: GroupElement, f: Callable[[float, float], float], params: ModelParams
) -> Callable[[float, float], float]:
    """f transported through one group element: ``chain_function((g,), f, params)``."""
    return chain_function((g,), f, params)


def _pre_images(
    stages: tuple[GroupElement, ...], t: float, S: float, params: ModelParams
) -> list[tuple[float, float]]:
    """(t, S) followed by its pre-images under the last, then earlier, stages.

    A DomainError raised while inverting some stage is re-raised with that
    stage's zero-based index attached.
    """
    points = [(t, S)]
    for idx in range(len(stages) - 1, -1, -1):
        back_t, back_S = points[-1]
        try:
            points.append(inverse_point_map(stages[idx], back_t, back_S, params))
        except DomainError as err:
            raise DomainError(
                f"pipeline stage {idx} (G{stages[idx].gen_index}): {err}",
                argument=err.argument, stage=idx) from err
    return points


def pullback_chain(
    pipeline: Sequence[GroupElement],
    f: Callable[[float, float], float],
    t: float,
    S: float,
    params: ModelParams,
) -> float:
    """Left-to-right composition of pullbacks: the first element acts on f first.

    An empty pipeline evaluates f itself. A DomainError raised while
    inverting some stage is re-raised with that stage's zero-based index
    attached.
    """
    stages = tuple(pipeline)
    points = _pre_images(stages, t, S, params)
    value = f(*points[-1])
    n = len(stages)
    for idx, g in enumerate(stages):
        t0, S0 = points[n - idx]
        value = forward_map(g, JetPoint(t0, S0, value), params).C
    return value


class _Transported:
    """A solution pushed through a pipeline, as a (t, S) callable with partials.

    Calls evaluate ``pullback_chain``. ``partials(t, S)`` returns exact
    (C, C_t, C_S, C_SS): the base's partials at the pre-image, carried
    through each stage's prolongation. It needs a base that has
    ``partials`` itself and raises InvalidParameter otherwise.
    """

    __slots__ = ("stages", "base", "params")

    def __init__(self, stages, base, params):
        self.stages = stages
        self.base = base
        self.params = params

    def __call__(self, t: float, S: float) -> float:
        return pullback_chain(self.stages, self.base, t, S, self.params)

    def partials(self, t: float, S: float) -> tuple[float, float, float, float]:
        base_partials = getattr(self.base, "partials", None)
        if base_partials is None:
            raise InvalidParameter(
                "exact partials of a transported solution need a base with partials(t, S)")
        stages, params = self.stages, self.params
        points = _pre_images(stages, t, S, params)
        jet = base_partials(*points[-1])
        n = len(stages)
        for idx, g in enumerate(stages):
            jet = _prolong(g, *points[n - idx], jet, params)
        return jet


def chain_function(
    pipeline: Sequence[GroupElement],
    f: Callable[[float, float], float],
    params: ModelParams,
) -> Callable[[float, float], float]:
    """Bind ``pullback_chain`` into a reusable (t, S) callable with exact partials."""
    return _Transported(tuple(pipeline), f, params)


def generator_eval(i: int, jp: JetPoint, params: ModelParams) -> GeneratorComponents:
    """Components of the i-th symmetry vector field at a jet point."""
    if i not in (1, 2, 3, 4, 5, 6):
        raise InvalidParameter(f"generator index must be in 1..6, got {i!r}")
    t, S, C = jp
    r, sigma = params.r, params.sigma
    if i == 1:
        return GeneratorComponents(1.0, 0.0, 0.0)
    if i == 2:
        return GeneratorComponents(0.0, safe_exp(r * t), 0.0)
    if i == 3:
        e = safe_exp(-r * t)
        return GeneratorComponents(0.0, e, -2.0 * e * r * S * C / sigma**2)
    if i == 4:
        e = safe_exp(-2.0 * r * t)
        return GeneratorComponents(
            -e / (2.0 * r), 0.5 * e * S, -e * (sigma**2 + r * S * S) * C / sigma**2)
    if i == 5:
        e = safe_exp(2.0 * r * t)
        return GeneratorComponents(e / (2.0 * r), 0.5 * e * S, 0.5 * e * C)
    return GeneratorComponents(0.0, 0.0, C)


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
    normalised by the largest participating magnitude (floored at 1).
    """
    worst = 0.0
    count = 0
    for t, S in sample:
        count += 1
        c, c_t, c_s, _ = eval_term_partials(term, t, S, params)
        comp = generator_eval(i, JetPoint(t, S, c), params)
        drift_t = comp.T_comp * c_t
        drift_s = comp.S_comp * c_s
        defect = comp.C_comp - (drift_t + drift_s)
        scale = max(1.0, abs(comp.C_comp), abs(drift_t), abs(drift_s))
        worst = max(worst, abs(defect) / scale)
    if count == 0:
        raise InvalidParameter("surface check needs a non-empty sample")
    return worst


def fixed_surface_check(
    i: int,
    term: SolutionTerm,
    sample: Iterable[tuple[float, float]],
    params: ModelParams,
    tol: float = 1e-9,
) -> bool:
    """True when the family member's graph stays fixed under the i-th group.

    The test is numeric on finitely many sample points: it refutes
    invariance robustly, but certifies it only up to the sample and ``tol``.
    """
    return surface_defect(i, term, sample, params) < tol
