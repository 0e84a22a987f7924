"""Caches that must not show: the record table of a transport, the price cache of a base.

Also the per-point walk, as an oracle for transport by one composed record per t.
"""

import math
import random
import sys
import threading

import pytest

from bachelier_symmetries import symmetry
from bachelier_symmetries.errors import DomainError, RangeError
from bachelier_symmetries.pde_verify import residual_scan
from bachelier_symmetries.solutions import (
    _COLUMNS, BaseCombo, ComboSolution, ModelParams, SolutionTerm, safe_exp)
from bachelier_symmetries.spec_lang import expression_function, parse_expr
from bachelier_symmetries.symmetry import _ROWS, GroupElement, chain_function
from bachelier_symmetries.verification import FD_GRID
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


def counted_compositions(monkeypatch):
    """A list that grows by one at each ``symmetry._compose`` call from here on."""
    calls, compose = [], symmetry._compose

    def counted(stages, t, params):
        calls.append(t)
        return compose(stages, t, params)

    monkeypatch.setattr(symmetry, "_compose", counted)
    return calls


def in_threads(sweep):
    """Run sweep(seed) for seeds 0-3 in four threads that switch as often as possible."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


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
        # the failed composition at t = 0.25 is kept, and raised again as it was
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
        # the summed factor e^{800} fails the guard at every S of the row; the
        # record composes, so this is a point's failure, judged at each call
        f = chain_function((GroupElement(6, -400.0), GroupElement(6, -400.0)),
                           ComboSolution(SolutionTerm(1, 0), P), P)
        for _ in range(2):
            with pytest.raises(RangeError, match=r"exceeds the \+/-700 guard"):
                f(0.5, 1.0)
            with pytest.raises(RangeError, match=r"exceeds the \+/-700 guard"):
                f.partials(0.5, -1.0)

    def test_fd_scan_composes_once_per_stencil_time(self, monkeypatch):
        # 6 rows of 6 stencils, each at t, t +/- h and t +/- h/2: 30 distinct t
        f = chain_function((GroupElement(4, 0.2),), ComboSolution(SolutionTerm(3, -2), P), P)
        calls = counted_compositions(monkeypatch)
        report = residual_scan(f, FD_GRID, P, mode="fd")
        assert report.evaluated == 36 and len(calls) == len(set(calls)) == 30

    def test_failing_row_composes_once(self, monkeypatch):
        f = expression_function(BOUNDARY, P)
        calls = counted_compositions(monkeypatch)
        outcomes = set()
        for k in range(41):
            S = -2.0 + 0.1 * k
            for call in (f, f.partials):
                with pytest.raises(DomainError) as info:
                    call(0.25, S)
                outcomes.add((type(info.value), str(info.value), info.value.stage))
        assert calls == [0.25]
        (kind, message, stage), = outcomes
        assert kind is DomainError and stage == 0
        assert message.startswith("pipeline stage 0: no pre-image under G4(1.05)")

    def test_failing_record_range_error_composes_once(self, monkeypatch):
        # G2's drift e^{rt} passes the guard at t = 20000, r = 0.05: the record
        # fails, and its message and .stage name the stage, as a domain failure's do
        base = ComboSolution(SolutionTerm(1, 0), P)
        calls = counted_compositions(monkeypatch)
        for stages, stage in ((GroupElement(2, 1.0),), 0), \
                ((GroupElement(6, 0.1), GroupElement(2, 1.0)), 1):
            f = chain_function(stages, base, P)
            outcomes = set()
            for S in (1.0, -0.5):
                for call in (f, f.partials):
                    with pytest.raises(RangeError) as info:
                        call(20000.0, S)
                    outcomes.add((str(info.value), info.value.stage))
            assert outcomes == {(f"pipeline stage {stage}: no pre-image under G2(1.0): "
                                 "exponent 1000 exceeds the +/-700 guard", stage)}
        assert calls == [20000.0, 20000.0]

    def test_table_stays_within_its_bound(self, monkeypatch):
        f = expression_function(PIPELINED, P)
        times = [k / 1000.0 for k in range(2 * _ROWS + 7)]
        calls = counted_compositions(monkeypatch)
        sizes = []
        for t in times + times[-3:]:
            assert shared(f, t, 0.3) == fresh(PIPELINED, t, 0.3)
            sizes.append(len(f._rows))
        assert max(sizes) == _ROWS
        # fresh() composes once per call, the shared instance once per distinct t
        assert len(calls) == 2 * len(times + times[-3:]) + len(times)

    def test_a_base_failure_precedes_the_exponent_guard(self):
        # K = -801 fails the guard, but the base fails first at S0 = 1e200
        f = expression_function(parse_expr("C1[0] | G6(801)"), P)
        for call in (f, f.partials):
            with pytest.raises(RangeError, match=r"\(S / sigma\)\^2 overflows at S = 1e\+200"):
                call(0.25, 1e200)
            with pytest.raises(RangeError, match=r"exponent 801 exceeds the \+/-700 guard") as info:
                call(0.25, 1.0)
            # the summed factor's failure names the point asked for; no stage failed
            assert str(info.value) == ("result at (t, S) = (0.25, 1.0): the pipeline's factor "
                                       "e^(-K) fails: exponent 801 exceeds the +/-700 guard")
            assert info.value.stage is None

    def test_a_base_failure_names_the_callers_point(self):
        # G2(1e200) carries S = 1 back to S0 = 1 - 1e200 e^{0}: the base's own
        # error names S0, the transport's prefix names the point asked for
        f = expression_function(parse_expr("C1[0] | G2(1e200)"), P)
        for call in (f, f.partials):
            with pytest.raises(RangeError) as info:
                call(0.0, 1.0)
            assert str(info.value) == (
                "result at (t, S) = (0.0, 1.0): the base fails at its pre-image: "
                "(S / sigma)^2 overflows at S = -1e+200")
            assert info.value.stage is None
        # a base's domain error keeps its type
        inner = chain_function((GroupElement(4, 1.05),), ComboSolution(SolutionTerm(1, 0), P), P)
        f = chain_function((GroupElement(2, 0.5),), inner, P)
        with pytest.raises(DomainError) as info:
            f(0.25, 1.0)
        assert str(info.value).startswith("result at (t, S) = (0.25, 1.0): the base fails at "
                                          "its pre-image: pipeline stage 0: no pre-image under G4(1.05)")
        assert info.value.stage is None

    def test_a_failure_joins_its_text_only_when_read(self):
        # the referee skips or NaN-scores a failing point without reading it,
        # so a raise formats nothing: the caller's t and S are repr'd on str()
        class Counted(float):
            reprs = 0

            def __repr__(self):
                Counted.reprs += 1
                return float.__repr__(self)

        for text, expected in (
                ("C1[0] | G2(1e200)", "result at (t, S) = (0.0, 1.0): the base fails at "
                 "its pre-image: (S / sigma)^2 overflows at S = -1e+200"),
                ("C1[0] | G6(-400) | G6(-400)", "result at (t, S) = (0.0, 1.0): the pipeline's "
                 "factor e^(-K) fails: exponent -800 exceeds the +/-700 guard")):
            f = expression_function(parse_expr(text), P)
            for call in (f, f.partials):
                Counted.reprs = 0
                with pytest.raises(RangeError) as info:
                    call(Counted(0.0), Counted(1.0))
                assert Counted.reprs == 0, text
                assert str(info.value) == expected
                assert Counted.reprs == 2 and info.value.stage is None
        # a stage's failure keeps its stage, group and eps as values
        base = ComboSolution(SolutionTerm(1, 0), P)
        f = chain_function((GroupElement(6, 0.1), GroupElement(4, 1.05)), base, P)
        with pytest.raises(DomainError) as info:
            f(0.25, 1.0)
        err = info.value
        assert (err.stage, err.group, err.eps) == (1, 4, 1.05)
        assert str(err) == ("pipeline stage 1: no pre-image under G4(1.05): G4 needs "
                            "e^(2rt) + eps > 0; got -0.0246849 at t = 0.25, eps = -1.05")

    def test_signed_zero_times_are_not_shared(self, monkeypatch):
        # 0.0 == -0.0, but a pipeline that keeps t hands the sign on to the base
        f = chain_function((GroupElement(2, 0.5),), lambda t, S: math.copysign(1.0, t), P)
        calls = counted_compositions(monkeypatch)
        assert (f(0.0, 1.0), f(-0.0, 1.0), f(0.0, 1.0)) == (1.0, -1.0, 1.0)
        # each sign keeps its own record: alternating zeros compose once per sign
        values = [f(t, 1.0) for _ in range(25) for t in (0.0, -0.0)]
        assert values == [1.0, -1.0] * 25
        assert [math.copysign(1.0, t) for t in calls] == [1.0, -1.0]

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

        in_threads(sweep)
        assert sorted(done) == [0, 1, 2, 3] and mismatches == []

    def test_threads_over_more_times_than_the_bound(self):
        # rows in and out of the G4 domain, and the table cleared under the others
        times = [k / 300.0 for k in range(_ROWS + 45)]
        expected = [fresh(BOUNDARY, t, 0.3) for t in times]
        f = expression_function(BOUNDARY, P)
        mismatches, done, sizes = [], [], []

        def sweep(seed):
            order = list(range(len(times))) * 3
            random.Random(seed).shuffle(order)
            for i in order:
                if shared(f, times[i], 0.3) != expected[i]:
                    mismatches.append(times[i])
                sizes.append(len(f._rows))
            done.append(seed)

        in_threads(sweep)
        assert sorted(done) == [0, 1, 2, 3] and mismatches == []
        # a check and a store are two steps: each of the other three threads
        # may store one row past the bound before the next clear
        assert max(sizes) <= _ROWS + 3


P_NEG = ModelParams(r=-0.03, sigma=0.2)
MULTI = BaseCombo((SolutionTerm(1, -2, 1.0), SolutionTerm(2, -8, -0.5),
                   SolutionTerm(3, -20, 1.2), SolutionTerm(4, -12, 0.9)))
# each combination at both rates; class 1 and 3 members carry the S prefactor
BASES = [(combo, params) for combo in (MULTI, BaseCombo((SolutionTerm(1, -6, -1.5),)),
                                       BaseCombo((SolutionTerm(4, -4, 0.7),)))
         for params in (P, P_NEG)]
BASE_IDS = [f"{name}-r={params.r}" for name in ("multi", "C1", "C4") for params in (P, P_NEG)]
TIMES = (0.0, -0.0, 0.5, 1.0)
PRICES = (-1.5, -0.3, -0.0, 0.0, 0.45, 1.5)


def fresh_partials(combo, params, t, S):
    """Partials at (t, S) from an instance that never saw another price."""
    return bits(lambda: ComboSolution(combo, params).partials(t, S))


class TestPriceCache:
    @pytest.mark.parametrize("combo,params", BASES, ids=BASE_IDS)
    def test_order_does_not_change_a_result(self, combo, params):
        # points are indices: 0.0 == -0.0, so (t, S) would not tell the zeros apart
        points = [(t, S) for t in TIMES for S in PRICES]
        expected = [fresh_partials(combo, params, *point) for point in points]
        rng = random.Random(1729)
        f = ComboSolution(combo, params)
        # row-major, shuffled, then every point with another price in between
        shuffled = list(range(len(points)))
        rng.shuffle(shuffled)
        interleaved = [k for i in range(len(points)) for k in (i, None)]
        for order in (range(len(points)), shuffled, interleaved):
            for i in order:
                if i is None:
                    f.partials(rng.choice(TIMES), 0.8)
                else:
                    assert bits(lambda: f.partials(*points[i])) == expected[i], points[i]

    def test_zero_prices_may_share_a_column(self):
        # the S prefactor makes a column's f0 = S F a signed zero, but the
        # outputs are sums, which drop the sign of a zero
        f = ComboSolution(MULTI, P)
        for S in (0.0, -0.0, 0.0):
            assert bits(lambda: f.partials(0.5, S)) == fresh_partials(MULTI, P, 0.5, S)
        assert list(f._columns) == [0.0]

    @pytest.mark.parametrize("combo", [BaseCombo((SolutionTerm(1, -2), SolutionTerm(3, -4))),
                                       SolutionTerm(1, -6, 1.5)], ids=["C1+C3", "C1"])
    def test_sums_of_negative_zeros_are_positive_zeros(self, combo):
        # every term is S times a factor: math.fsum of -0.0s is 0.0, and so are
        # the one-term partials, which skip fsum
        f = ComboSolution(combo, P)
        assert repr(f(0.5, -0.0)) == repr(f.partials(0.5, -0.0)[0]) == "0.0"

    def test_overflowing_price_is_raised_afresh_and_not_stored(self):
        f = ComboSolution(MULTI, P)
        for _ in range(2):
            with pytest.raises(RangeError, match=r"overflows at S = 1e\+200"):
                f.partials(0.5, 1e200)
        assert f._columns == {}

    def test_cache_stays_within_its_bound(self):
        f = ComboSolution(MULTI, P)
        prices = [k / 1000.0 for k in range(2 * _COLUMNS + 7)]
        sizes = []
        for S in prices + prices[:3]:
            assert bits(lambda: f.partials(0.25, S)) == fresh_partials(MULTI, P, 0.25, S)
            sizes.append(len(f._columns))
        assert max(sizes) == _COLUMNS

    def test_threads_sharing_one_instance(self):
        # more prices than the bound, so the cache is cleared under the others too
        points = [(t, k / 100.0 - 1.5) for t in (0.0, 1.0) for k in range(_COLUMNS + 45)]
        expected = [fresh_partials(MULTI, P, *point) for point in points]
        f = ComboSolution(MULTI, P)
        mismatches, done, sizes = [], [], []

        def sweep(seed):
            order = list(range(len(points))) * 3
            random.Random(seed).shuffle(order)
            for i in order:
                if bits(lambda: f.partials(*points[i])) != expected[i]:
                    mismatches.append(points[i])
                sizes.append(len(f._columns))
            done.append(seed)

        in_threads(sweep)
        assert sorted(done) == [0, 1, 2, 3] and mismatches == []
        # a check and a store are two steps: each of the other three threads
        # may store one column past the bound before the next clear
        assert max(sizes) <= _COLUMNS + 3


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
