"""The pricing PDE's point symmetry groups: records, transport, point maps, generators.

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
fields of `generator_eval`. Those checks, and the surface check, live in `verification`.

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
whole. A failed pre-image raises DomainError or RangeError with the
message prefix "pipeline stage i: ", and carries the stage i, the group
index and eps as values: ``err.stage``, ``err.group`` and ``err.eps``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Sequence

from .errors import DomainError, InvalidParameter, RangeError, finite_real, integer
from .solutions import _GUARD, EXP_GUARD, ModelParams, _finite, safe_exp
# for bench/tracer.py, which rebinds these uncalled names; ROADMAP item 1 deletes this line
eval_term_partials = pullback = pullback_chain = None

__all__ = [
    "GroupElement",
    "JetPoint",
    "GeneratorComponents",
    "FLOW_ORIENTATION",
    "forward_map",
    "inverse_point_map",
    "chain_function",
    "generator_eval",
]

# d/deps of forward_map at eps = 0 equals FLOW_ORIENTATION[i-1] * xi_i.
FLOW_ORIENTATION = (1.0, 1.0, 1.0, -1.0, -1.0, 1.0)
_ROWS = 256  # times whose composed records a transported solution keeps; a 201-row table fits
# failure templates, joined only when read (see errors); the last two label the caller's point
_NO_PRE_IMAGE = "pipeline stage {stage}: no pre-image under G{group}({eps!r}): {err}"
_BASE_FAILS = "result at (t, S) = ({t!r}, {S!r}): the base fails at its pre-image: {err}"
_FACTOR_FAILS = "result at (t, S) = ({t!r}, {S!r}): the pipeline's factor e^(-K) fails: " + _GUARD


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
        raise DomainError("G4 needs e^(2rt) + eps > 0; got {w:.6g} at t = {t!r}, eps = {eps!r}",
                          w=w, t=t, eps=eps)
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
        raise DomainError("G5 needs e^(-2rt) + eps > 0; got {v:.6g} at t = {t!r}, eps = {eps!r}",
                          v=v, t=t, eps=eps)
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
    stage's DomainError or RangeError is re-raised prefixed, with its stage, group and eps.
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
        except (DomainError, RangeError) as err:
            raise type(err)(_NO_PRE_IMAGE, idx, group=g.gen_index, eps=g.epsilon, err=err) from err
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
    ``chain_function`` over the one stage g. Outside the G4/G5 domain it raises
    DomainError, and past the float range RangeError, both with stage 0 and
    the prefix "pipeline stage 0: "; a non-finite pre-image raises RangeError.
    """
    return _finite(_point(_compose((g,), target_t, params), target_S)[:2], target_t, target_S)


def transformed(
    g: GroupElement, f: Callable[[float, float], float], params: ModelParams
) -> Callable[[float, float], float]:
    """f transported through one group element: ``chain_function((g,), f, params)``."""
    return chain_function((g,), f, params)


class _Transported:
    """A solution pushed through a pipeline, as a (t, S) callable with partials.

    A call composes the pipeline at t (``_compose``) and evaluates the base
    at the pre-image (T, A S + B), times one e^{-K}, K = k0 + k1 S + k2 S^2,
    since e^{k_eps(t0, S0)} = e^{-k_{-eps}(t', S')}. An empty pipeline
    evaluates the base itself. ``partials(t, S)`` returns exact
    (C, C_t, C_S, C_SS): the chain rule applied once to the composed record,
    whatever the depth. It needs a base that has ``partials`` and raises
    InvalidParameter otherwise. A DomainError or RangeError raised while
    inverting some stage carries that stage's zero-based index as ``stage``.
    The base is evaluated before K is judged; its DomainError or RangeError,
    or a K beyond the exponent guard, is raised with the same type, prefixed
    by the caller's point, "result at (t, S) = (...): ", and stage None, since
    no stage failed; it keeps t, S and the base's error ``err``, or the
    guard's exponent ``x``. A non-finite result raises RangeError.

    The composed record depends on t alone, so each t's is kept: a row of
    prices, or the shifted times of every FD stencil on it, costs one
    composition per distinct t. The rows are a dict keyed by t, a zero t by
    its sign, (1.0,) or (-1.0,), and cleared at _ROWS entries. An entry is
    the record, or a failed composition's (None, type, text, stage), raised
    afresh as type(text, stage); it keeps no frames, and a point's failure
    is not kept. Entries are built whole before they are stored, so threads
    may share an instance, and may pass the bound by one each before a clear.
    """

    __slots__ = ("stages", "base", "params", "_rows")

    def __init__(self, stages, base, params):
        self.stages = stages
        self.base = base
        self.params = params
        self._rows = {}

    def _record(self, t):
        # a miss, a kept failure or a zero t: 0.0 == -0.0, yet the base may see the sign
        key = t if t else (math.copysign(1.0, t),)
        rows = self._rows
        entry = rows.get(key)
        if entry is None:
            if len(rows) >= _ROWS:
                rows.clear()
            try:
                rows[key] = entry = _compose(self.stages, t, self.params)
            except (DomainError, RangeError) as err:
                rows[key] = (None, type(err), str(err), err.stage)
                raise
        if entry[0] is None:
            raise entry[1](entry[2], entry[3])
        return entry

    def __call__(self, t: float, S: float) -> float:
        entry = self._rows.get(t)
        if entry is None or entry[0] is None:
            entry = self._record(t)
        T, _, A, _, B, _, k0, _, k1, _, k2, _ = entry
        K = k0 + (k1 + k2 * S) * S
        try:
            value = self.base(T, A * S + B)
        except (DomainError, RangeError) as err:
            raise type(err)(_BASE_FAILS, t=t, S=S, err=err) from err
        if abs(K) > EXP_GUARD:  # safe_exp's guard
            raise RangeError(_FACTOR_FAILS, t=t, S=S, x=-K)
        value *= math.exp(-K)
        if not math.isfinite(value):
            _finite((value,), t, S)
        return value

    def partials(self, t: float, S: float) -> tuple[float, float, float, float]:
        base_partials = getattr(self.base, "partials", None)
        if base_partials is None:
            raise InvalidParameter(
                "exact partials of a transported solution need a base with partials(t, S)")
        entry = self._rows.get(t)
        if entry is None or entry[0] is None:
            entry = self._record(t)
        T, dT, A, dA, B, dB, k0, dk0, k1, dk1, k2, dk2 = entry
        try:
            c, c_t, c_s, c_ss = base_partials(T, A * S + B)
        except (DomainError, RangeError) as err:
            raise type(err)(_BASE_FAILS, t=t, S=S, err=err) from err
        K = k0 + (k1 + k2 * S) * S
        if abs(K) > EXP_GUARD:
            raise RangeError(_FACTOR_FAILS, t=t, S=S, x=-K)
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
