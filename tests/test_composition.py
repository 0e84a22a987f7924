"""Transport by one composed record per t: the row cache and the per-point walk as an oracle."""

import math
import random
import sys
import threading

import pytest

from bachelier_symmetries.errors import DomainError, RangeError
from bachelier_symmetries.solutions import ComboSolution, ModelParams, SolutionTerm, safe_exp
from bachelier_symmetries.spec_lang import expression_function, parse_expr
from bachelier_symmetries.symmetry import GroupElement, chain_function
import walk_oracle

P = ModelParams(r=0.05, sigma=0.2)
PIPELINED = parse_expr("-1.5*C3[-2] + C4[-4] | G2(0.3) | G3(-0.4) | G4(0.2)")
# e^{2rt} - 1.05 <= 0 for t <= 0.4879: those rows have no pre-image
BOUNDARY = parse_expr("-1.5*C3[-2] | G4(1.05)")
T_ROWS = (0.0, 0.125, 0.5, 0.6, 0.875, 1.0)
S_COLUMNS = (-2.0, -0.7, 0.0, 0.3, 1.9)


def bits(call):
    """The outcome of a call, exact to the bit: reprs of the floats, or the error raised."""
    try:
        result = call()
    except (DomainError, RangeError) as err:
        return (type(err).__name__, str(err), getattr(err, "stage", None))
    if isinstance(result, tuple):
        return tuple(map(repr, result))
    return repr(result)


def fresh(expr, t, S):
    """Value and partials at (t, S), each from an instance that never saw another point."""
    return (bits(lambda: expression_function(expr, P)(t, S)),
            bits(lambda: expression_function(expr, P).partials(t, S)))


def shared(f, t, S):
    return bits(lambda: f(t, S)), bits(lambda: f.partials(t, S))


class TestRowCache:
    @pytest.mark.parametrize("expr", [PIPELINED, BOUNDARY], ids=["pipelined", "boundary"])
    def test_order_does_not_change_a_result(self, expr):
        points = [(t, S) for t in T_ROWS for S in S_COLUMNS]
        expected = {point: fresh(expr, *point) for point in points}
        rng = random.Random(1729)
        f = expression_function(expr, P)
        # row-major, shuffled, then every point with another row in between
        shuffled = points[:]
        rng.shuffle(shuffled)
        interleaved = [p for point in points for p in (point, (rng.choice(T_ROWS), 0.4))]
        for order in (points, shuffled, interleaved):
            for point in order:
                if point in expected:
                    assert shared(f, *point) == expected[point], point
                else:
                    shared(f, *point)

    def test_domain_error_row_is_raised_afresh(self):
        f = expression_function(BOUNDARY, P)
        outside, inside = (0.25, 1.0), (0.75, 1.0)
        expected_outside = fresh(BOUNDARY, *outside)
        expected_inside = fresh(BOUNDARY, *inside)
        assert expected_outside[0][0] == "DomainError"
        assert expected_outside[0][1].startswith("pipeline stage 0: no pre-image under G4(1.05)")
        assert expected_outside[0][2] == 0
        for point, expected in (inside, expected_inside), (outside, expected_outside), \
                (outside, expected_outside), (inside, expected_inside):
            assert shared(f, *point) == expected

    def test_range_error_is_raised_afresh(self):
        # the summed factor e^{800} fails the guard at every S of the row
        f = chain_function((GroupElement(6, -400.0), GroupElement(6, -400.0)),
                           ComboSolution(SolutionTerm(1, 0), P), P)
        for _ in range(2):
            with pytest.raises(RangeError, match=r"exceeds the \+/-700 guard"):
                f(0.5, 1.0)
            with pytest.raises(RangeError, match=r"exceeds the \+/-700 guard"):
                f.partials(0.5, -1.0)

    def test_signed_zero_times_are_not_shared(self):
        # 0.0 == -0.0, but a pipeline that keeps t hands the sign on to the base
        f = chain_function((GroupElement(2, 0.5),), lambda t, S: math.copysign(1.0, t), P)
        assert (f(0.0, 1.0), f(-0.0, 1.0), f(0.0, 1.0)) == (1.0, -1.0, 1.0)

    def test_threads_sharing_one_instance(self):
        # each thread sweeps the points in its own order, so the cache
        # changes rows under the others all the time
        points = [(t, S) for t in T_ROWS for S in S_COLUMNS]
        expected = {point: fresh(PIPELINED, *point) for point in points}
        f = expression_function(PIPELINED, P)
        mismatches, done = [], []

        def sweep(seed):
            order = points * 20
            random.Random(seed).shuffle(order)
            for point in order:
                if shared(f, *point) != expected[point]:
                    mismatches.append(point)
            done.append(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=sweep, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(done) == [0, 1, 2, 3] and mismatches == []


# Per group, the parameter range of the oracle draws (G4/G5 reach their domain boundary).
EPS_RANGE = {1: 0.5, 2: 1.0, 3: 1.0, 4: 1.5, 5: 1.5, 6: 1.0}
# The bound on |composed - walked|, in units of depth * ulp * kappa, where
# kappa is the largest magnitude either side meets: 1, |K|, the base's
# Gaussian exponent at the pre-image, and every entry of the walk's stage
# records. Near a G4/G5 boundary single stages carry log factors and
# derivatives in the thousands that cancel to an O(1) K, and both sides pay
# rounding on that scale. Seeds 1-40 of these draws reach at most 45.
ORACLE_ULPS = 256


def _walked(stages, base, t, S, params):
    """Value, partials and stage records by the per-point walk; RangeError where not finite."""
    t0, S0, log_factor, records = walk_oracle.walk(stages, t, S, params)
    value = base(t0, S0) * safe_exp(-log_factor)
    partials, _ = walk_oracle.walk_partials(stages, base, t, S, params)
    if not all(map(math.isfinite, (value,) + partials)):
        raise RangeError("not finite")
    return value, partials, S0, log_factor, records


def _outcome(call):
    try:
        return call()
    except (DomainError, RangeError) as err:
        return type(err), getattr(err, "stage", None)


def test_composed_record_against_the_per_point_walk():
    rng = random.Random(2201)
    compared = raised = 0
    for _ in range(2000):
        params = ModelParams(rng.choice((0.05, -0.03)), 0.2)
        depth = rng.randint(1, 4)
        gens = [rng.randint(1, 6) for _ in range(depth)]
        stages = tuple(GroupElement(g, rng.uniform(-EPS_RANGE[g], EPS_RANGE[g])) for g in gens)
        base = ComboSolution(SolutionTerm(rng.randint(1, 4), -2 * rng.randint(0, 4),
                                          rng.uniform(-3.0, 3.0)), params)
        t, S = rng.uniform(0.0, 1.0), rng.uniform(-4.0, 4.0)
        f = chain_function(stages, base, params)
        composed = _outcome(lambda: (f(t, S), f.partials(t, S)))
        walked = _outcome(lambda: _walked(stages, base, t, S, params))
        if isinstance(walked[0], type) or isinstance(composed[0], type):
            # the same error type, from the same stage
            assert composed == walked[:2], (stages, t, S)
            raised += 1
            continue
        value, partials, S0, log_factor, records = walked
        kappa = max([1.0, abs(log_factor), abs(params.r) * S0 * S0 / params.sigma ** 2]
                    + [abs(x) for record in records for x in record])
        bound = ORACLE_ULPS * depth * sys.float_info.epsilon * kappa
        scale = max(map(abs, partials))
        for new, old in zip((composed[0],) + composed[1], (value,) + partials):
            assert abs(new - old) <= bound * scale, (stages, t, S)
        compared += 1
    # both outcomes are well represented
    assert compared > 1500 and raised > 100
