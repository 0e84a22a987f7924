"""Residual verification for the pricing PDE.

Everything this package produces claims to satisfy

    r S C_S + (sigma^2 / 2) C_SS + C_t - r C = 0,

and this module is the referee. Residuals come in two flavours: from exact
partial derivatives when the function provides them (combo-backed
solutions do, and so do pipeline-transformed ones, whose partials are the
base's carried to the target point by the chain rule on the pipeline's
composed group record), and from Richardson-extrapolated central differences
for arbitrary callables, which also serve as an oracle independent of
those exact partials.

Residuals are reported normalised by the largest magnitude among the four
PDE terms, floored at 1, so solutions passing through zero are still
checked meaningfully and a true solution scores ~1e-15 regardless of its
overall scale. A scan reports the largest normalised residual and where it
occurred. Every check in the package draws its measurements through
``sampled``, the one sample rule, and reduces them with ``worst_case``, so
a NaN measurement fails every check. Finite differences take one fixed
step per coordinate, ``default_step``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from itertools import product

from .errors import DomainError, InvalidParameter, RangeError, finite_real, integer
from .solutions import ModelParams

__all__ = [
    "EvalPoint",
    "GridSpec",
    "ResidualReport",
    "default_step",
    "residual_from_partials",
    "residual_fd",
    "residual_scan",
    "sampled",
    "worst_case",
]


class EvalPoint(namedtuple("EvalPoint", "t S")):
    """A (time, price) point. Prices may be negative; that is the model's point."""
    __slots__ = ()


def _axis(bounds: tuple[float, float], n: int) -> list[float]:
    lo, hi = bounds
    step = (hi - lo) / (n - 1)
    # the ends as given: lo + (n - 1) step may round off hi, and lo + 0.0 drops a -0.0
    return [lo, *[lo + i * step for i in range(1, n - 1)], hi]


class GridSpec(namedtuple("GridSpec", "t_range S_range nt nS")):
    """Rectangular evaluation grid: each axis is lo, lo + i * step, ..., hi, both ends exact."""
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace goes through __new__ too

    def __new__(cls, t_range: tuple[float, float], S_range: tuple[float, float], nt: int, nS: int):
        ranges = []
        for name, pair in (("t_range", t_range), ("S_range", S_range)):
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise InvalidParameter(f"{name} must be a (low, high) pair, got {pair!r}")
            lo, hi = finite_real(name, pair[0]), finite_real(name, pair[1])
            if not lo < hi or not math.isfinite(hi - lo):  # an inf width makes an inf step
                raise InvalidParameter(
                    f"{name} must have low < high and a finite width, got ({lo}, {hi})")
            ranges.append((lo, hi))
        return tuple.__new__(cls, (*ranges, integer("nt", nt, lo=2), integer("nS", nS, lo=2)))

    def t_points(self) -> list[float]:
        return _axis(self.t_range, self.nt)

    def S_points(self) -> list[float]:
        return _axis(self.S_range, self.nS)


class ResidualReport(namedtuple("ResidualReport",
                                "max_normalized worst_point failures evaluated")):
    """Residual statistics over a grid.

    ``failures`` counts grid points skipped because the function (or its
    finite-difference stencil) left its domain; ``evaluated`` counts the
    rest. ``max_normalized`` and ``worst_point`` cover evaluated points
    only; a NaN residual (a RangeError point scores one) counts as the
    worst point, so it fails every tolerance.
    """
    __slots__ = ()


def _worse(x: float, worst: float) -> bool:
    """True when x displaces worst: x is larger, or x is NaN and worst is not yet."""
    return x > worst or (x != x and worst == worst)


def worst_case(values: Iterable[float]) -> float:
    """The largest measurement, or the first NaN (``max`` would drop it); 0.0 for none."""
    values = iter(values)
    worst = next(values, 0.0)
    for x in values:
        if _worse(x, worst):
            worst = x
    return worst


def sampled(measure: Callable[..., float], points: Iterable[tuple]) -> Iterator[tuple]:
    """The sample rule: (point, measure(*point)) for each point, lazily.

    A point whose measurement raises DomainError (outside a group's domain)
    is skipped; one that raises RangeError (it left the float range) scores NaN.
    """
    for point in points:
        try:
            value = measure(*point)
        except DomainError:
            continue
        except RangeError:
            value = math.nan
        yield point, value


def default_step(x: float) -> float:
    """The finite-difference step at x: 1e-3 scaled by max(1, |x|)."""
    return 1e-3 * max(1.0, abs(x))


def residual_from_partials(
    C: float, C_t: float, C_S: float, C_SS: float, S: float, params: ModelParams
) -> tuple[float, float]:
    """Raw and normalised PDE residual from known partial derivatives.

    The normalisation scale is max(1, |r S C_S|, |sigma^2 C_SS / 2|, |C_t|,
    |r C|), chosen over |C| itself so residuals stay meaningful where the
    solution crosses zero.
    """
    convection = params.r * S * C_S
    diffusion = 0.5 * params.sigma**2 * C_SS
    discount = params.r * C
    raw = convection + diffusion + C_t - discount
    scale = max(1.0, abs(convection), abs(diffusion), abs(C_t), abs(discount))
    return raw, abs(raw) / scale


def residual_fd(
    f: Callable[[float, float], float], t: float, S: float, params: ModelParams
) -> tuple[float, float]:
    """Raw and normalised residual with finite-difference partials.

    Uses a 9-point stencil: the centre, t +/- h_t, t +/- h_t/2, S +/- h_S
    and S +/- h_S/2, with h_t = default_step(t) and h_S = default_step(S).
    Each derivative is a second-order central difference improved by one
    Richardson halving step. A DomainError raised by f at any stencil point
    propagates; no one-sided fallback is attempted, so the advertised order
    holds wherever a value is returned at all.
    """
    h_t = default_step(t)
    h_S = default_step(S)
    centre = f(t, S)
    tp, tm = f(t + h_t, S), f(t - h_t, S)
    tp2, tm2 = f(t + 0.5 * h_t, S), f(t - 0.5 * h_t, S)
    sp, sm = f(t, S + h_S), f(t, S - h_S)
    sp2, sm2 = f(t, S + 0.5 * h_S), f(t, S - 0.5 * h_S)
    c_t = (4.0 * (tp2 - tm2) / h_t - (tp - tm) / (2.0 * h_t)) / 3.0
    c_s = (4.0 * (sp2 - sm2) / h_S - (sp - sm) / (2.0 * h_S)) / 3.0
    second_coarse = (sp - 2.0 * centre + sm) / (h_S * h_S)
    second_fine = (sp2 - 2.0 * centre + sm2) / (0.25 * h_S * h_S)
    c_ss = (4.0 * second_fine - second_coarse) / 3.0
    return residual_from_partials(centre, c_t, c_s, c_ss, S, params)


def residual_scan(
    f: Callable[[float, float], float],
    grid: GridSpec,
    params: ModelParams,
    mode: str = "analytic",
) -> ResidualReport:
    """Residual statistics for f over a grid.

    mode "analytic" requires f to expose exact partials via a
    ``partials(t, S)`` method; combo-backed solutions do, and so do
    pipelines over them (``chain_function``). mode "fd" works on any
    callable. Points are drawn through ``sampled``: a skipped point counts
    as a failure. In analytic mode the sample is ``f.partials`` itself, and
    the loop computes ``residual_from_partials`` inline, the same operations
    in the same order; in mode "fd" each point is one ``residual_fd`` call.

    The scan is a deterministic row-major sweep (t outer, S inner), so
    reports are reproducible, a transported f composes its pipeline once per
    distinct t (an FD stencil's shifted times included), and a combination
    sweeps its Kummer factors once per price. f may also be evaluated
    concurrently by callers: every function in this package is safe for
    that, because a transport's bounded table of records keyed by t and a
    combination's price cache store only whole records, of t alone and of S
    alone, so no call can see another t's record or another price's. This
    scanner itself stays sequential. The worst point is the first one with
    the largest residual, or the first with a NaN residual.
    """
    if mode == "analytic":
        if not hasattr(f, "partials"):
            raise InvalidParameter(
                "analytic mode needs exact partials via partials(t, S); "
                "scan other callables with mode='fd'")
        measure = f.partials
    elif mode == "fd":
        def measure(t: float, S: float) -> float:
            return residual_fd(f, t, S, params)[1]
    else:
        raise InvalidParameter(f"mode must be 'analytic' or 'fd', got {mode!r}")
    r, half_var = params.r, 0.5 * params.sigma**2
    worst, worst_point, evaluated = -1.0, None, 0
    for point, normalized in sampled(measure, product(grid.t_points(), grid.S_points())):
        evaluated += 1
        if not isinstance(normalized, float):  # partials: residual_from_partials, inline
            c, c_t, c_s, c_ss = normalized
            convection = r * point[1] * c_s
            diffusion = half_var * c_ss
            discount = r * c
            raw = convection + diffusion + c_t - discount
            normalized = abs(raw) / max(1.0, abs(convection), abs(diffusion), abs(c_t),
                                        abs(discount))
        if not normalized <= worst and _worse(normalized, worst):  # x <= worst never displaces
            worst = normalized
            worst_point = EvalPoint(*point)
    return ResidualReport(worst if evaluated else 0.0, worst_point,
                          grid.nt * grid.nS - evaluated, evaluated)
