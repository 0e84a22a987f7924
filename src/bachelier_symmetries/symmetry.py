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
`_RECORDS`). Every G_i has the form t' = T(t), S' = A(t) S + B(t),
C' = e^k C with k = k0(t) + k1(t) S + k2(t) S^2, so at a time t and a
parameter eps the record gives the t-only coefficients T, A, B, k0, k1, k2,
each with its t-derivative; the dependence on S is algebra written once
(`_point`). That is all the second prolongation needs (Olver, Applications
of Lie Groups to Differential Equations, GTM 107, ch. 2): it carries
(C, C_t, C_S, C_SS) with no C_tt or C_tS. The inverse of G_i(eps) is the
same map at -eps. `forward_map` reads the record at eps; `inverse_point_map`
is the one-stage case of the pipeline composition below. The records use
the conventional closed forms, in which the parameter of G_4 and G_5 runs
along the flow of -xi_4 and -xi_5; FLOW_ORIENTATION records the sign per
group so tangency checks can tie the finite maps to the hand-written vector
fields of `generator_eval`.

A group element maps solution graphs to solution graphs. `chain_function`
materialises the mapped graph as a function again. The form above is closed
under composition, so a pipeline of any depth, read at a fixed t, is one
record of the same layout: `_compose` walks the stages from the last to the
first at -eps and returns where the point came from, (T, A S + B), and the
total log factor K = k0 + k1 S + k2 S^2. A value is the original solution
at that pre-image times one e^{-K}, because
e^{k_eps(t0, S0)} = e^{-k_{-eps}(t', S')}; the exponent guard judges K
alone, so G6(a) | G6(b) fares as G6(a + b). Exact partials apply the chain
rule once to the composed record, whatever the depth. The record depends on
t alone, so a transported solution keeps it per t, a failed one too: one
composition per distinct t per instance. G_4 and G_5 involve a logarithm
and a square root, so both directions carry domain conditions, on t alone:
there is no global admissible parameter range, and a row is in or out as a
whole. A failed pre-image raises DomainError with the pipeline stage it
failed at and the message prefix "pipeline stage i: ".
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence

from .errors import DomainError, InvalidParameter, RangeError, finite_real, integer
from .pde_verify import sampled, worst_case
from .solutions import (
    EXP_GUARD,
    ComboSolution,
    ModelParams,
    SolutionTerm,
    eval_term_partials,  # noqa: F401  not called here; bench/tracer.py binds this name
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
_ROWS = 256  # times whose composed records a transported solution keeps; a 201-row table fits


class GroupElement(namedtuple("GroupElement", "gen_index epsilon")):
    """One symmetry application: generator index 1..6 and a real parameter."""
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace goes through __new__ too

    def __new__(cls, gen_index: int, epsilon: float):
        return tuple.__new__(cls, (integer("generator index", gen_index, 1, 6),
                                   finite_real("group parameter", epsilon)))


class JetPoint(namedtuple("JetPoint", "t S C")):
    """A point (t, S, C) of the extended space the groups act on."""
    __slots__ = ()


class GeneratorComponents(namedtuple("GeneratorComponents", "T_comp S_comp C_comp")):
    """Components of a symmetry vector field along d/dt, d/dS and d/dC."""
    __slots__ = ()


# A group record: G_i(eps) read at time t, the t-only coefficients of its
# form (see the module docstring), each followed by its t-derivative:
#
#     (T, T', A, A', B, B', k0, k0', k1, k1', k2, k2')
#
# `_compose` returns a pipeline in the same layout. The G4/G5 domain checks
# live here and nowhere else.

def _g1(t, eps, params):
    return (t + eps, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _g2(t, eps, params):
    drift = eps * safe_exp(params.r * t)
    return (t, 1.0, 1.0, 0.0, drift, params.r * drift, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _g3(t, eps, params):
    r, sigma2 = params.r, params.sigma * params.sigma
    shift = eps * safe_exp(-r * t)
    k1 = -2.0 * r * shift / sigma2
    return (t, 1.0, 1.0, 0.0, shift, -r * shift,
            0.5 * k1 * shift, -r * k1 * shift, k1, -r * k1, 0.0, 0.0)


def _g4(t, eps, params):
    r, sigma2 = params.r, params.sigma * params.sigma
    grow = safe_exp(2.0 * r * t)
    w = grow + eps
    if w <= 0.0:
        raise DomainError(
            f"G4 needs e^(2rt) + eps > 0; got {w:.6g} at t = {t!r}, eps = {eps!r}")
    log_w = math.log(w)
    A = safe_exp(r * t) / math.sqrt(w)
    k2 = r * eps / sigma2 / w  # in turn: sigma2 * w can underflow to 0
    return (log_w / (2.0 * r), grow / w, A, A * r * eps / w, 0.0, 0.0,
            log_w - 2.0 * r * t, -2.0 * r * eps / w, 0.0, 0.0, k2, -2.0 * r * k2 * grow / w)


def _g5(t, eps, params):
    r = params.r
    shrink = safe_exp(-2.0 * r * t)
    v = shrink + eps
    if v <= 0.0:
        raise DomainError(
            f"G5 needs e^(-2rt) + eps > 0; got {v:.6g} at t = {t!r}, eps = {eps!r}")
    log_v = math.log(v)
    A = safe_exp(-r * t) / math.sqrt(v)
    return (-log_v / (2.0 * r), shrink / v, A, -A * r * eps / v, 0.0, 0.0,
            -r * t - 0.5 * log_v, -r * eps / v, 0.0, 0.0, 0.0, 0.0)


def _g6(t, eps, params):
    return (t, 1.0, 1.0, 0.0, 0.0, 0.0, eps, 0.0, 0.0, 0.0, 0.0, 0.0)


_RECORDS = (_g1, _g2, _g3, _g4, _g5, _g6)


def _compose(stages, t, params):
    """The record of the whole pipeline read back at t: where (t, S) came from, and its K.

    Walks from the last stage to the first, reading each stage's record at
    -eps at the current time; identity stages are skipped, so an empty or
    all-identity pipeline gives the identity record. Stage j meets the
    point (T, A S + B) built so far: its new point is affine in S again,
    and its log factor, quadratic in A S + B, adds to the quadratic K. A
    DomainError is re-raised with the failing stage's zero-based index.
    """
    T, dT, A, dA, B, dB, k0, dk0, k1, dk1, k2, dk2 = (
        t, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    for idx in range(len(stages) - 1, -1, -1):
        g = stages[idx]
        if g.epsilon == 0.0:
            continue
        try:
            T, sT, sA, sdA, sB, sdB, s0, sd0, s1, sd1, s2, sd2 = _RECORDS[g.gen_index - 1](
                T, -g.epsilon, params)
        except DomainError as err:
            raise DomainError(f"pipeline stage {idx}: no pre-image under "
                              f"G{g.gen_index}({g.epsilon!r}): {err}", stage=idx) from err
        # the stage's coefficients are functions of T(t): chain rule in t
        sdA, sdB, sd0, sd1, sd2 = sdA * dT, sdB * dT, sd0 * dT, sd1 * dT, sd2 * dT
        # s0 + s1 X + s2 X^2 at X = A S + B, the price the stage meets
        slope = s1 + 2.0 * s2 * B
        dslope = sd1 + 2.0 * (sd2 * B + s2 * dB)
        k0, dk0 = (k0 + s0 + (s1 + s2 * B) * B,
                   dk0 + sd0 + (sd1 + sd2 * B) * B + slope * dB)
        k1, dk1 = k1 + slope * A, dk1 + dslope * A + slope * dA
        k2, dk2 = k2 + s2 * A * A, dk2 + (sd2 * A + 2.0 * s2 * dA) * A
        A, dA, B, dB = sA * A, sdA * A + sA * dA, sA * B + sB, sdA * B + sA * dB + sdB
        dT = sT * dT
    return (T, dT, A, dA, B, dB, k0, dk0, k1, dk1, k2, dk2)


def _point(record, S):
    """A record at price S: the time T, the price A S + B and the log factor k."""
    T, _, A, _, B, _, k0, _, k1, _, k2, _ = record
    return T, A * S + B, k0 + (k1 + k2 * S) * S


def _finite(values, t, S):
    if not all(map(math.isfinite, values)):
        raise RangeError(f"result at (t, S) = ({t!r}, {S!r}) is not finite: "
                         + ", ".join(map(repr, values)))
    return values


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
    image_t, image_S, k = _point(_RECORDS[g.gen_index - 1](t, eps, params), S)
    return JetPoint(*_finite((image_t, image_S, C * safe_exp(k)), t, S))


def inverse_point_map(
    g: GroupElement, target_t: float, target_S: float, params: ModelParams
) -> tuple[float, float]:
    """The unique (t0, S0) whose image under ``forward_map`` has the target point part.

    G_i(eps) is inverted by G_i(-eps): this is the pipeline composition of
    ``chain_function`` over the one stage g. Raises DomainError, with stage
    0, outside the G4/G5 log/sqrt domain, and RangeError on a non-finite one.
    """
    return _finite(_point(_compose((g,), target_t, params), target_S)[:2], target_t, target_S)


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


# no package caller; bench/tracer.py binds this name
def pullback_chain(
    pipeline: Sequence[GroupElement],
    f: Callable[[float, float], float],
    t: float,
    S: float,
    params: ModelParams,
) -> float:
    """Value at (t, S) of f transported through the pipeline: ``chain_function(...)(t, S)``."""
    return chain_function(pipeline, f, params)(t, S)


class _Transported:
    """A solution pushed through a pipeline, as a (t, S) callable with partials.

    A call composes the pipeline at t (``_compose``) and evaluates the base
    at the pre-image (T, A S + B), times one e^{-K}, K = k0 + k1 S + k2 S^2,
    since e^{k_eps(t0, S0)} = e^{-k_{-eps}(t', S')}. An empty pipeline
    evaluates the base itself. ``partials(t, S)`` returns exact
    (C, C_t, C_S, C_SS): the chain rule applied once to the composed record,
    whatever the depth. It needs a base that has ``partials`` and raises
    InvalidParameter otherwise. A DomainError raised while inverting some
    stage carries that stage's zero-based index; a K beyond the exponent
    guard, or a non-finite result, raises RangeError; the base is evaluated
    before K is judged.

    The composed record depends on t alone, so each t's is kept: a row of
    prices, or the shifted times of every FD stencil on it, costs one
    composition per distinct t. The rows are a dict keyed by t, cleared when
    it holds _ROWS of them; a zero t also matches its sign. A composition's
    failure is kept per t, and raised afresh with the same type, message and
    stage; a point's is not. A row is built whole before it is stored, so
    threads may share an instance; threads that store at once may pass the
    bound by a row each before the next clear.
    """

    __slots__ = ("stages", "base", "params", "_rows")

    def __init__(self, stages, base, params):
        self.stages = stages
        self.base = base
        self.params = params
        self._rows = {}

    def _row(self, t):
        # a miss, a kept failure or a zero t: equal floats have equal bits but
        # for 0.0 == -0.0, which a pipeline that keeps t hands on to the base,
        # so a zero also matches its sign
        rows = self._rows
        row = rows.get(t)
        if row is not None and (t or math.copysign(1.0, t) == math.copysign(1.0, row[0])):
            if row[1] is None:
                kind, args = row[2]
                raise kind(*args)
            return row
        if len(rows) >= _ROWS:
            rows.clear()
        try:
            rows[t] = row = (t, _compose(self.stages, t, self.params), None)
        except (DomainError, RangeError) as err:
            args = (str(err), err.stage) if isinstance(err, DomainError) else (str(err),)
            rows[t] = (t, None, (type(err), args))
            raise
        return row

    def __call__(self, t: float, S: float) -> float:
        row = self._rows.get(t)
        if row is None or row[1] is None or not t:
            row = self._row(t)
        T, _, A, _, B, _, k0, _, k1, _, k2, _ = row[1]
        K = k0 + (k1 + k2 * S) * S
        value = self.base(T, A * S + B)
        if abs(K) > EXP_GUARD:  # safe_exp's guard; it is called only to raise
            safe_exp(-K)
        value *= math.exp(-K)
        if not math.isfinite(value):
            _finite((value,), t, S)
        return value

    def partials(self, t: float, S: float) -> tuple[float, float, float, float]:
        base_partials = getattr(self.base, "partials", None)
        if base_partials is None:
            raise InvalidParameter(
                "exact partials of a transported solution need a base with partials(t, S)")
        row = self._rows.get(t)
        if row is None or row[1] is None or not t:
            row = self._row(t)
        T, dT, A, dA, B, dB, k0, dk0, k1, dk1, k2, dk2 = row[1]
        c, c_t, c_s, c_ss = base_partials(T, A * S + B)
        K = k0 + (k1 + k2 * S) * S
        if abs(K) > EXP_GUARD:
            safe_exp(-K)
        # C(t, S) = e^{-K} c(T, A S + B); linear in c, so e^{-K} scales all four
        K_S = k1 + 2.0 * k2 * S
        E = math.exp(-K)
        C = E * c
        C_t = E * (dT * c_t + (dA * S + dB) * c_s - (dk0 + (dk1 + dk2 * S) * S) * c)
        C_S = E * (A * c_s - K_S * c)
        C_SS = E * (A * A * c_ss - 2.0 * K_S * A * c_s + (K_S * K_S - 2.0 * k2) * c)
        isfinite = math.isfinite
        if not (isfinite(C) and isfinite(C_t) and isfinite(C_S) and isfinite(C_SS)):
            _finite((C, C_t, C_S, C_SS), t, S)
        return C, C_t, C_S, C_SS


def chain_function(
    pipeline: Sequence[GroupElement],
    f: Callable[[float, float], float],
    params: ModelParams,
) -> Callable[[float, float], float]:
    """Transport f through the pipeline: a (t, S) callable with exact partials.

    Left-to-right composition of pullbacks: the first element acts on f
    first. See ``_Transported`` for the evaluation and its errors.
    """
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
    tol: float = 1e-9,
) -> bool:
    """True when ``surface_defect`` on the sample is below ``tol``: fixed up to the sample."""
    return surface_defect(i, term, sample, params) < tol
