"""Seeded inputs, timed bodies and correctness gates of the three workloads.

Each workload is an object with these methods:

    generate(seed)           inputs for one pass; the same seed gives the same inputs
    run(item, ctx)           one timed item; returns (output, grid points produced)
    operations(output)       how many gated operations the output holds
    check(item, output, ctx) one message per failed operation, run outside timing

The package is driven only through its public modules, as a user would call
it. Why each workload exists, and which metric each layer should move on it,
is written down in NOTES.md next to this file.
"""

from __future__ import annotations

import math
import os
import random

from bachelier_symmetries import cli, pde_verify, verification
from bachelier_symmetries.errors import DomainError, RangeError
from bachelier_symmetries.pde_verify import GridSpec, residual_fd
from bachelier_symmetries.solutions import BaseCombo, ComboSolution, ModelParams, SolutionTerm
from bachelier_symmetries.spec_lang import SolutionExpr, expression_function, format_expr, parse_expr
from bachelier_symmetries.symmetry import GroupElement


class VerifyAll:
    """The referee suite, ``run_scope("all")`` with default parameters.

    The suite samples with fixed internal seeds, so ``--seed`` changes
    nothing here. One item is one suite run; every CheckResult it returns
    is one gated operation.
    """

    name = "verify_all"

    def generate(self, seed):
        return ["all"]

    def run(self, scope, ctx):
        scanned = []
        original = verification.residual_scan

        # grid points are the points residual_scan visits; a pass-through on
        # the suite's own binding counts them (about 550 calls per suite run)
        def counting_scan(*args, **kwargs):
            report = original(*args, **kwargs)
            scanned.append(report.evaluated + report.failures)
            return report

        verification.residual_scan = counting_scan
        try:
            results = verification.run_scope(scope)
        finally:
            verification.residual_scan = original
        return results, sum(scanned)

    def operations(self, results):
        return len(results)

    def check(self, scope, results, ctx):
        if not results:
            return ["verify_all: run_scope returned no checks"]
        return [f"verify_all: {res.name} measured {res.measured:.3e} > tol {res.tolerance:.1e}"
                for res in results if not res.passed]


def stratified(rng, values, count):
    """``count`` draws that cover ``values`` evenly, one from each equal slice, shuffled.

    Every item gets its own even spread of classes, orders and groups, so
    its cost depends on its shape (terms, stages) and hardly on the seed.
    """
    n = len(values)
    draws = [values[min(n - 1, int((i + rng.random()) * n / count))] for i in range(count)]
    rng.shuffle(draws)
    return draws


# Symmetry parameters per group for surface_pipeline.
EPS_RANGE = {1: 0.5, 2: 1.0, 3: 1.0, 4: 1.5, 5: 1.5, 6: 1.0}
# Near the domain boundary of G4/G5 the pre-image price grows like
# 1/sqrt(w), w = e^{2rt} - eps (G4) or e^{-2rt} - eps (G5). Once w drops
# below about 0.01 on the grid, exp(-u) of the Gaussian classes passes the
# -700 guard and the whole table exits 4 (the safe_exp underflow defect,
# ROADMAP item 3). So a G4/G5 parameter either keeps w above W_MIN on the
# whole t-range, where values still grow past 1e40, or puts the whole
# table outside the domain (the DomainError skip path).
W_MIN = 0.05


class SurfacePipeline:
    """Pipelined price surfaces tabulated through ``bachsym table``.

    Expressions have 1-6 terms of orders 0 to -12 and 1-4 stages; each of
    the 24 (terms, stages) shapes comes once with each group 1-6 as its
    last stage, and each expression draws its classes and orders
    stratified, so the seed changes parameters but hardly the work. G4/G5 appear only
    as the last stage: it is inverted first, at the table's own t-range,
    so its domain condition is known exactly. One G4/G5 table in four lies
    wholly outside the domain.
    """

    name = "surface_pipeline"
    params = ModelParams(0.05, 0.2)
    t_axis = (0.0, 1.0, 41)
    S_axis = (-2.0, 2.0, 41)
    grid = GridSpec(t_range=t_axis[:2], S_range=S_axis[:2], nt=t_axis[2], nS=S_axis[2])
    samples = 4

    def _eps(self, rng, gen, outside):
        if gen not in (4, 5):
            return round(rng.uniform(-EPS_RANGE[gen], EPS_RANGE[gen]), 4)
        sign = 1.0 if gen == 4 else -1.0
        edge = [math.exp(sign * 2.0 * self.params.r * t) for t in self.t_axis[:2]]
        if outside:
            return round(rng.uniform(max(edge), EPS_RANGE[gen]), 4)
        return round(rng.uniform(-EPS_RANGE[gen], min(edge) - W_MIN), 4)

    def generate(self, seed):
        rng = random.Random(seed)
        nt, ns = self.t_axis[2], self.S_axis[2]
        shapes = [(terms, stages, last) for terms in range(1, 7)
                  for stages in range(1, 5) for last in range(1, 7)]
        # the corners hold the extremes of every stage's point map, which is
        # where values near a G4/G5 domain boundary are largest
        corners = [(0, 0), (0, ns - 1), (nt - 1, 0), (nt - 1, ns - 1)]
        items = []
        boundary_stages = 0
        for terms, stages, last in shapes:
            combo = BaseCombo(tuple(
                SolutionTerm(q, n, round(rng.uniform(-5.0, 5.0), 3))
                for q, n in zip(stratified(rng, (1, 2, 3, 4), terms),
                                stratified(rng, range(0, -14, -2), terms))))
            gens = stratified(rng, (1, 2, 3, 6), stages - 1) + [last]
            if last in (4, 5):
                boundary_stages += 1
            outside = last in (4, 5) and boundary_stages % 4 == 0
            pipeline = tuple(GroupElement(g, self._eps(rng, g, outside)) for g in gens)
            expr = SolutionExpr(combo, pipeline)
            sample = corners + [(rng.randrange(nt), rng.randrange(ns))
                                for _ in range(self.samples)]
            items.append((format_expr(expr), expr, sample))
        rng.shuffle(items)
        return items

    def run(self, item, ctx):
        out = os.path.join(ctx["tmpdir"], f"table_{ctx['index']}.csv")
        axis = "{:g}:{:g}:{:d}".format
        code = cli.main(["table", "--expr", item[0],
                         "--r", repr(self.params.r), "--sigma", repr(self.params.sigma),
                         "--t-range", axis(*self.t_axis), "--S-range", axis(*self.S_axis),
                         "--out", out])
        return (code, out), self.t_axis[2] * self.S_axis[2]

    def operations(self, output):
        return 1

    def check(self, item, output, ctx):
        text, expr, sample = item
        code, path = output
        if code != 0:
            return [f"surface_pipeline: table exited {code} for {text}"]
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        os.remove(path)
        nt, ns = self.t_axis[2], self.S_axis[2]
        rows = lines[1:-1]
        if lines[0] != "t,S,C" or len(rows) != nt * ns:
            return [f"surface_pipeline: {len(rows)} rows, expected {nt * ns}, for {text}"]
        problems = []
        empty = sum(1 for row in rows if row.endswith(","))
        if lines[-1] != f"# skipped={empty}":
            problems.append(f"trailer {lines[-1]!r} but {empty} empty rows")
        f = expression_function(parse_expr(text), self.params)
        base = ComboSolution(expr.combo, self.params)
        inverse = tuple(GroupElement(g.gen_index, -g.epsilon) for g in reversed(expr.pipeline))
        round_trip = expression_function(
            SolutionExpr(expr.combo, expr.pipeline + inverse), self.params)
        t_points, s_points = self.grid.t_points(), self.grid.S_points()
        for i, j in sample:
            t, s = t_points[i], s_points[j]
            row = rows[i * ns + j].split(",")
            try:
                expected = repr(f(t, s))
            except DomainError:
                expected = ""
            if row != [repr(t), repr(s), expected]:
                problems.append(f"row {row} != {expected!r} at ({t}, {s})")
            try:
                back, direct = round_trip(t, s), base(t, s)
            except (DomainError, RangeError):
                # the detour through p leaves the domain or the exponent
                # guard at this point; there is nothing to compare
                continue
            deviation = abs(back - direct) / max(1.0, abs(back), abs(direct))
            if not deviation <= verification.TOL_REPRODUCTION:
                problems.append(f"round trip off by {deviation:.2e} at ({t}, {s})")
        if problems:
            return [f"surface_pipeline: {'; '.join(problems)} for {text}"]
        return []

    def fd_residual(self, items):
        """Largest FD residual at the gate's sample points; reported, never gated."""
        worst = 0.0
        t_points, s_points = self.grid.t_points(), self.grid.S_points()
        for text, expr, sample in items:
            f = expression_function(expr, self.params)
            for i, j in sample:
                try:
                    _, normalized = residual_fd(f, t_points[i], s_points[j], self.params)
                except (DomainError, RangeError):
                    continue
                worst = max(worst, normalized)
        return worst


class GreeksHighOrder:
    """Exact-partials residual scans of high-order base combinations.

    Combos have 4-12 terms (12 of each count) with orders 0 to -40, so
    Kummer degrees reach 20; each combo draws its classes and orders
    stratified. Rates alternate between r = 0.05 and r = -0.03, which puts
    the positive (alternating-sign) Kummer argument on classes 3/4 and on
    classes 1/2 respectively. Weights are positive:
    with mixed signs, cancellation between terms shrinks the combination
    below the size of its parts and the scale-relative residual grows with
    it, which tests the inputs rather than the program.

    Prices span [-1.5, 1.5], so |u| = |r| S^2 / sigma^2 stays below 2.9.
    On the suite's [-2, 2] (u up to 5) plain Horner at degree 20 leaves
    residuals up to 8.4e-11 against the 1e-10 gate, so the gate would trip
    on some seeds; that loss of digits at large positive u is the accuracy
    defect of ROADMAP item 3, not something this timing workload should
    trip over.
    """

    name = "greeks_highorder"
    grid = GridSpec(t_range=(0.0, 1.0), S_range=(-1.5, 1.5), nt=41, nS=41)
    rates = (0.05, -0.03)
    per_count = 12

    def generate(self, seed):
        rng = random.Random(seed)
        counts = [n for n in range(4, 13) for _ in range(self.per_count)]
        items = []
        for k, n_terms in enumerate(counts):
            terms = tuple(SolutionTerm(q, n, rng.uniform(0.5, 2.0))
                          for q, n in zip(stratified(rng, (1, 2, 3, 4), n_terms),
                                          stratified(rng, range(0, -42, -2), n_terms)))
            items.append((BaseCombo(terms), ModelParams(self.rates[k % 2], 0.2)))
        rng.shuffle(items)
        return items

    def run(self, item, ctx):
        combo, params = item
        report = pde_verify.residual_scan(
            ComboSolution(combo, params), self.grid, params, mode="analytic")
        return report, report.evaluated + report.failures

    def operations(self, report):
        return 1

    def check(self, item, report, ctx):
        if report.failures or not report.max_normalized <= verification.TOL_BASE_RESIDUAL:
            return [f"greeks_highorder: max residual {report.max_normalized:.3e}, "
                    f"{report.failures} failures, for {item[0]}"]
        return []


WORKLOADS = {w.name: w for w in (VerifyAll(), SurfacePipeline(), GreeksHighOrder())}
