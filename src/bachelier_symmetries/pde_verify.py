"""Residual verification for the pricing PDE.

Everything this package produces claims to satisfy

    r S C_S + (sigma^2 / 2) C_SS + C_t - r C = 0,

and this module is the referee. Residuals come in two flavours: from exact
partial derivatives when the function provides them (combo-backed
solutions do, and so do pipeline-transformed ones, whose partials are the
base's carried to the target point by the chain rule on each stage's group
record read at -eps), and from Richardson-extrapolated central differences
for arbitrary callables, which also serve as an oracle independent of
those exact partials.

Residuals are reported normalised by the largest magnitude among the four
PDE terms, floored at 1, so solutions passing through zero are still
checked meaningfully and a true solution scores ~1e-15 regardless of its
overall scale. A scan reports the largest normalised residual and where it
occurred; a NaN residual is the largest, so no tolerance passes it. Finite
differences take one fixed step per coordinate, ``default_step``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import DomainError, InvalidParameter
from .solutions import ModelParams

__all__ = [
    "EvalPoint",
    "GridSpec",
    "ResidualReport",
    "default_step",
    "derivative_richardson",
    "residual_from_partials",
    "residual_fd",
    "residual_scan",
]


class EvalPoint(NamedTuple):
    """A (time, price) point. Prices may be negative; that is the model's point."""

    t: float
    S: float


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid, inclusive of both range endpoints."""

    t_range: tuple[float, float]
    S_range: tuple[float, float]
    nt: int
    nS: int

    def __post_init__(self):
        for name, (lo, hi) in (("t_range", self.t_range), ("S_range", self.S_range)):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise InvalidParameter(f"{name} must be a finite (low, high) pair, got ({lo}, {hi})")
        for name, n in (("nt", self.nt), ("nS", self.nS)):
            if isinstance(n, bool) or n != int(n) or n < 2:
                raise InvalidParameter(f"{name} must be an integer >= 2, got {n!r}")
        object.__setattr__(self, "t_range", (float(self.t_range[0]), float(self.t_range[1])))
        object.__setattr__(self, "S_range", (float(self.S_range[0]), float(self.S_range[1])))
        object.__setattr__(self, "nt", int(self.nt))
        object.__setattr__(self, "nS", int(self.nS))

    def t_points(self) -> list[float]:
        lo, hi = self.t_range
        step = (hi - lo) / (self.nt - 1)
        return [lo + i * step for i in range(self.nt)]

    def S_points(self) -> list[float]:
        lo, hi = self.S_range
        step = (hi - lo) / (self.nS - 1)
        return [lo + i * step for i in range(self.nS)]


@dataclass(frozen=True)
class ResidualReport:
    """Residual statistics over a grid.

    ``failures`` counts grid points skipped because the function (or its
    finite-difference stencil) left its domain; ``evaluated`` counts the
    rest. ``max_normalized`` and ``worst_point`` cover evaluated points
    only; a NaN residual counts as the worst point, so it fails every
    tolerance.
    """

    max_normalized: float
    worst_point: EvalPoint | None
    failures: int
    evaluated: int


def default_step(x: float) -> float:
    """The finite-difference step at x: 1e-3 scaled by max(1, |x|)."""
    return 1e-3 * max(1.0, abs(x))


def derivative_richardson(func: Callable[[float], float], x: float) -> float:
    """d/dx func at x: central difference at step default_step(x), one Richardson step."""
    h = default_step(x)
    coarse = (func(x + h) - func(x - h)) / (2.0 * h)
    fine = (func(x + 0.5 * h) - func(x - 0.5 * h)) / h
    return (4.0 * fine - coarse) / 3.0


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
    pipelines over them (``chain_function``, ``transformed``). mode "fd"
    works on any callable. Points where the evaluation raises DomainError
    are skipped and counted as failures.

    The scan is a deterministic row-major sweep (t outer, S inner), so
    reports are reproducible; f may also be evaluated concurrently by
    callers, every function in this package is safe for that, but this
    scanner itself stays sequential. The worst point is the first one with
    the largest residual, or the first with a NaN residual.
    """
    if mode not in ("analytic", "fd"):
        raise InvalidParameter(f"mode must be 'analytic' or 'fd', got {mode!r}")
    if mode == "analytic" and not hasattr(f, "partials"):
        raise InvalidParameter(
            "analytic mode needs exact partials via partials(t, S); "
            "scan other callables with mode='fd'")
    worst = -1.0
    worst_point = None
    failures = 0
    for t in grid.t_points():
        for S in grid.S_points():
            try:
                if mode == "analytic":
                    c, c_t, c_s, c_ss = f.partials(t, S)
                    _, normalized = residual_from_partials(c, c_t, c_s, c_ss, S, params)
                else:
                    _, normalized = residual_fd(f, t, S, params)
            except DomainError:
                failures += 1
                continue
            # NaN compares false: it takes the place of a number, never
            # gives it up, and a later NaN does not move it
            if normalized > worst or (normalized != normalized and worst == worst):
                worst = normalized
                worst_point = EvalPoint(t, S)
    evaluated = grid.nt * grid.nS - failures
    return ResidualReport(
        max_normalized=worst if evaluated else 0.0,
        worst_point=worst_point,
        failures=failures,
        evaluated=evaluated,
    )
