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

Each finite transformation G_1 .. G_6 is written once, as a record (see
`_RECORDS`): at a point (t, S) and a parameter eps it gives the image point,
the log C-factor k and the first-order data of its prolongation. Every G_i
has the form t' = T(t), S' = A(t) S + B(t), C' = e^{k(t, S)} C, so its second
prolongation (Olver, Applications of Lie Groups to Differential Equations,
GTM 107, ch. 2) carries (C, C_t, C_S, C_SS) with no C_tt or C_tS needed, and
its inverse is the same map at -eps. `forward_map` reads the record at eps;
`inverse_point_map` is the one-stage case of the pipeline walk below. The
records use the conventional closed forms, in which the parameter of G_4
and G_5 runs along the flow of -xi_4 and -xi_5; FLOW_ORIENTATION records the
sign per group so tangency checks can tie the finite maps to the
hand-written vector fields of `generator_eval`.

A group element maps solution graphs to solution graphs. `pullback_chain`
materialises the mapped graph as a function again: it walks the point back
through the pipeline, reading each stage's record at -eps, evaluates the
original solution at the pre-image, and multiplies by one e^{-K} for the sum
K of the stages' k, because e^{k_eps(t0, S0)} = e^{-k_{-eps}(t', S')}. The
exponent guard judges K alone: G6(a) | G6(b) fares as G6(a + b).
`chain_function` binds that into a callable whose `partials` apply the chain
rule to the same records, so transported solutions have exact partials. G_4
and G_5 involve a logarithm and a square root, so both directions carry
per-point domain conditions, checked at each evaluation: there is no global
admissible parameter range. A failed pre-image raises DomainError with the
pipeline stage it failed at and the message prefix "pipeline stage i: ".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, NamedTuple

from .errors import DomainError, InvalidParameter, RangeError, finite_real, integer
from .pde_verify import sampled, worst_case
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
    "chain_function",
    "generator_eval",
    "surface_defect",
]

# d/deps of forward_map at eps = 0 equals FLOW_ORIENTATION[i-1] * xi_i.
FLOW_ORIENTATION = (1.0, 1.0, 1.0, -1.0, -1.0, 1.0)


@dataclass(frozen=True)
class GroupElement:
    """One symmetry application: generator index 1..6 and a real parameter."""

    gen_index: int
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "gen_index", integer("generator index", self.gen_index, 1, 6))
        object.__setattr__(self, "epsilon", finite_real("group parameter", self.epsilon))


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


# A group record: G_i(eps) read at the source point (t, S). Every G_i has
# the form t' = T(t), S' = A(t) S + B(t), C' = e^k(t, S) C, and its record
# is the tuple
#
#     (t', S', k, dt'/dt, A, dS'/dt, k_t, k_S, k_SS)
#
# that is, the image point, the log C-factor, and the first-order data its
# prolongation needs. The G4/G5 domain checks live here and nowhere else.

def _g1(t, S, eps, params):
    return (t + eps, S, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)


def _g2(t, S, eps, params):
    drift = eps * safe_exp(params.r * t)
    return (t, S + drift, 0.0, 1.0, 1.0, params.r * drift, 0.0, 0.0, 0.0)


def _g3(t, S, eps, params):
    r, sigma2 = params.r, params.sigma * params.sigma
    shift = eps * safe_exp(-r * t)
    return (t, S + shift, -r * shift * (shift + 2.0 * S) / sigma2, 1.0, 1.0, -r * shift,
            2.0 * r * r * shift * (shift + S) / sigma2, -2.0 * r * shift / sigma2, 0.0)


def _g4(t, S, eps, params):
    r, sigma2 = params.r, params.sigma * params.sigma
    grow = safe_exp(2.0 * r * t)
    w = grow + eps
    if w <= 0.0:
        raise DomainError(
            f"G4 needs e^(2rt) + eps > 0; got {w:.6g} at t = {t!r}, eps = {eps!r}")
    log_w = math.log(w)
    A = safe_exp(r * t) / math.sqrt(w)
    k_S = 2.0 * r * eps * S / sigma2 / w  # in turn: sigma2 * w can underflow to 0
    return (log_w / (2.0 * r), A * S, log_w - 2.0 * r * t + 0.5 * k_S * S,
            grow / w, A, A * S * r * eps / w,
            -2.0 * r * eps / w - k_S * r * S * grow / w, k_S, 2.0 * r * eps / sigma2 / w)


def _g5(t, S, eps, params):
    r = params.r
    shrink = safe_exp(-2.0 * r * t)
    v = shrink + eps
    if v <= 0.0:
        raise DomainError(
            f"G5 needs e^(-2rt) + eps > 0; got {v:.6g} at t = {t!r}, eps = {eps!r}")
    log_v = math.log(v)
    A = safe_exp(-r * t) / math.sqrt(v)
    return (-log_v / (2.0 * r), A * S, -r * t - 0.5 * log_v,
            shrink / v, A, -A * S * r * eps / v, -r * eps / v, 0.0, 0.0)


def _g6(t, S, eps, params):
    return (t, S, eps, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)


_RECORDS = (_g1, _g2, _g3, _g4, _g5, _g6)


def forward_map(g: GroupElement, jp: JetPoint, params: ModelParams) -> JetPoint:
    """Apply one finite group element to a point of (t, S, C) space.

    The identity (epsilon = 0) returns the input unchanged, bit for bit.
    Raises DomainError when the log/sqrt argument of group 4 or 5 is not
    positive, and RangeError when the image is not finite.
    """
    t, S, C = jp
    eps = g.epsilon
    if eps == 0.0:
        return JetPoint(t, S, C)
    image_t, image_S, k = _RECORDS[g.gen_index - 1](t, S, eps, params)[:3]
    return JetPoint(*_finite((image_t, image_S, C * safe_exp(k)), t, S))


def inverse_point_map(
    g: GroupElement, target_t: float, target_S: float, params: ModelParams
) -> tuple[float, float]:
    """The unique (t0, S0) whose image under ``forward_map`` has the target point part.

    G_i(eps) is inverted by G_i(-eps): this is the pipeline walk of
    ``pullback_chain`` over the one stage g. Raises DomainError, with stage
    0, outside the G4/G5 log/sqrt domain, and RangeError on a non-finite one.
    """
    return _finite(_pull_back((g,), target_t, target_S, params)[:2], target_t, target_S)


# no package caller; bench/tracer.py binds this name
def pullback(g: GroupElement, f: Callable[[float, float], float], t: float, S: float,
             params: ModelParams) -> float:
    """Value at (t, S) of f transported through g: ``pullback_chain((g,), ...)``."""
    return pullback_chain((g,), f, t, S, params)


def transformed(
    g: GroupElement, f: Callable[[float, float], float], params: ModelParams
) -> Callable[[float, float], float]:
    """f transported through one group element: ``chain_function((g,), f, params)``."""
    return chain_function((g,), f, params)


def _pull_back(stages, t, S, params):
    """The pre-image of (t, S) under the pipeline, the sum of its k, and the records.

    Walks from the last stage to the first, reading each stage's record at
    -eps at the current point; identity stages are skipped. A DomainError is
    re-raised with the failing stage's zero-based index attached.
    """
    log_factor = 0.0
    records = []
    for idx in range(len(stages) - 1, -1, -1):
        g = stages[idx]
        if g.epsilon == 0.0:
            continue
        try:
            record = _RECORDS[g.gen_index - 1](t, S, -g.epsilon, params)
        except DomainError as err:
            raise DomainError(f"pipeline stage {idx}: no pre-image under "
                              f"G{g.gen_index}({g.epsilon!r}): {err}", stage=idx) from err
        t, S = record[0], record[1]
        log_factor += record[2]
        records.append(record)
    return t, S, log_factor, records


def _finite(values, t, S):
    if not all(map(math.isfinite, values)):
        raise RangeError(f"result at (t, S) = ({t!r}, {S!r}) is not finite: "
                         + ", ".join(map(repr, values)))
    return values


def pullback_chain(
    pipeline: Sequence[GroupElement],
    f: Callable[[float, float], float],
    t: float,
    S: float,
    params: ModelParams,
) -> float:
    """Left-to-right composition of pullbacks: the first element acts on f first.

    The value is f at the pipeline's pre-image of (t, S), times one e^{-K}
    for the sum K of the stages' records k read at -eps, since
    e^{k_eps(t0, S0)} = e^{-k_{-eps}(t', S')}. An empty pipeline evaluates f
    itself. A DomainError raised while inverting some stage carries that
    stage's zero-based index. A summed log factor beyond the exponent guard,
    or a non-finite value, raises RangeError.
    """
    t0, S0, log_factor, _ = _pull_back(tuple(pipeline), t, S, params)
    return _finite((f(t0, S0) * safe_exp(-log_factor),), t, S)[0]


class _Transported:
    """A solution pushed through a pipeline, as a (t, S) callable with partials.

    Calls evaluate ``pullback_chain``. ``partials(t, S)`` returns exact
    (C, C_t, C_S, C_SS): the base's partials at the pre-image, carried
    through each stage by the chain rule on its record, then times e^{-K}.
    It needs a base that has ``partials`` and raises InvalidParameter
    otherwise, and RangeError on a non-finite result.
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
        t0, S0, log_factor, records = _pull_back(self.stages, t, S, self.params)
        c, c_t, c_s, c_ss = base_partials(t0, S0)
        # C'(t', S') = e^{-k} c(t0, S0), (t0, S0) = G(-eps)(t', S'), derivatives
        # along the -eps record; linear in c, so the e^{-k} leave as one e^{-K}
        for _, _, _, d_t, A, d_s, k_t, k_S, k_SS in reversed(records):
            c_t, c_s, c_ss = (
                d_t * c_t + d_s * c_s - k_t * c,
                A * c_s - k_S * c,
                A * A * c_ss - 2.0 * k_S * A * c_s + (k_S * k_S - k_SS) * c,
            )
        E = safe_exp(-log_factor)
        return _finite((E * c, E * c_t, E * c_s, E * c_ss), t, S)


def chain_function(
    pipeline: Sequence[GroupElement],
    f: Callable[[float, float], float],
    params: ModelParams,
) -> Callable[[float, float], float]:
    """Bind ``pullback_chain`` into a reusable (t, S) callable with exact partials."""
    return _Transported(tuple(pipeline), f, params)


def generator_eval(i: int, jp: JetPoint, params: ModelParams) -> GeneratorComponents:
    """Components of the i-th symmetry vector field at a jet point; RangeError if not finite."""
    i = integer("generator index", i, 1, 6)
    t, S, C = jp
    r, sigma = params.r, params.sigma
    if i == 1:
        comps = (1.0, 0.0, 0.0)
    elif i == 2:
        comps = (0.0, safe_exp(r * t), 0.0)
    elif i == 3:
        e = safe_exp(-r * t)
        comps = (0.0, e, -2.0 * e * r * S * C / sigma**2)
    elif i == 4:
        e = safe_exp(-2.0 * r * t)
        comps = (-e / (2.0 * r), 0.5 * e * S, -e * (sigma**2 + r * S * S) * C / sigma**2)
    elif i == 5:
        e = safe_exp(2.0 * r * t)
        comps = (e / (2.0 * r), 0.5 * e * S, 0.5 * e * C)
    else:
        comps = (0.0, 0.0, C)
    return GeneratorComponents(*_finite(comps, t, S))


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
    normalised by the largest participating magnitude (floored at 1). Points
    are drawn through ``pde_verify.sampled``: one that overflows scores NaN.
    """
    def defect(t: float, S: float) -> float:
        c, c_t, c_s, _ = eval_term_partials(term, t, S, params)
        comp = generator_eval(i, JetPoint(t, S, c), params)
        drift_t = comp.T_comp * c_t
        drift_s = comp.S_comp * c_s
        scale = max(1.0, abs(comp.C_comp), abs(drift_t), abs(drift_s))
        return abs(comp.C_comp - (drift_t + drift_s)) / scale

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
    tol: float = 1e-9,
) -> bool:
    """True when ``surface_defect`` on the sample is below ``tol``: fixed up to the sample."""
    return surface_defect(i, term, sample, params) < tol
