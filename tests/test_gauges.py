import math

import pytest

from banachlab import (
    LOG2P1,
    ONE,
    SQRT,
    Schlumprecht,
    SeqVector,
    check_gauge_class,
    check_prop5_hypothesis,
    get_evaluator,
    parse_space,
    s_norm_value,
)
from banachlab.errors import ValidationError
from banachlab.gauges import IDENTITY, GaugeFunction, default_grid, gauge_by_name


class TestEvalGauge:
    def test_normalization_at_one(self):
        assert LOG2P1(1.0) == 1.0

    def test_log_values(self):
        assert LOG2P1(3.0) == pytest.approx(2.0, abs=1e-12)
        assert LOG2P1(7.0) == pytest.approx(3.0, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            LOG2P1(0.5)

    def test_exact_on_dyadic_grid(self):
        # f(2^k - 1) = k exactly
        for k in range(1, 31):
            assert LOG2P1(2.0**k - 1.0) == float(k)


class TestClassChecks:
    def test_log_gauge_passes(self):
        report = check_gauge_class(LOG2P1)
        assert report.in_class
        assert report.worst_violation <= 1e-10

    def test_sqrt_passes_with_submultiplicative_equality(self):
        report = check_gauge_class(SQRT)
        assert report.in_class

    def test_identity_fails_strictness(self):
        report = check_gauge_class(IDENTITY)
        assert not report.condition1_ok
        assert not report.in_class

    def test_degenerate_gauge_admitted(self):
        assert check_gauge_class(ONE).in_class

    def test_subgrid_stability(self):
        grid = default_grid()
        sub = grid[::2]
        assert check_gauge_class(LOG2P1, grid=sub).in_class

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValidationError):
            check_gauge_class(LOG2P1, grid=[1.0, 4.0, 2.0])

    @pytest.mark.parametrize(
        "fn, broken",
        [
            (lambda x: 1.5 * math.sqrt(x), "condition1_ok"),  # f(1) = 1.5
            (lambda x: math.sqrt(x) if x <= 4.0 else 1.5, "condition1_ok"),  # decreasing
            (lambda x: x**-0.1, "condition1_ok"),  # f < 1
            (lambda x: x**-0.5, "condition2_ok"),  # x/f(x) = x^1.5 is convex
            (lambda x: 1.0 + math.log2(x) ** 2, "condition3_ok"),  # f(4) = 5 > f(2)^2 = 4
        ],
        ids=["f1", "decreasing", "below-1", "convex", "supermultiplicative"],
    )
    def test_each_broken_condition_is_flagged(self, fn, broken):
        report = check_gauge_class(GaugeFunction("g", fn))
        assert getattr(report, broken) is False
        assert not report.in_class
        assert report.worst_violation > 0.0 and report.witness


class TestDecayHypothesis:
    def test_log_gauge_decays_under_small_power(self):
        ok, trend = check_prop5_hypothesis(LOG2P1, 0.1)
        assert ok
        tail = [t for _, t in trend[-10:]]
        assert all(b <= a for a, b in zip(tail, tail[1:]))

    def test_sqrt_fails_under_smaller_power(self):
        ok, _ = check_prop5_hypothesis(SQRT, 0.25)
        assert not ok

    def test_constant_gauge_decays(self):
        ok, _ = check_prop5_hypothesis(ONE, 0.1)
        assert ok

    def test_sqrt_decays_under_larger_power(self):
        ok, _ = check_prop5_hypothesis(SQRT, 0.75)
        assert ok


class TestRegistry:
    def test_power_gauge(self):
        g = gauge_by_name("pow:0.5")
        assert g(4.0) == pytest.approx(2.0)

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            gauge_by_name("nope")

    @pytest.mark.parametrize("name, message", [("pow:abc", "bad power gauge"),
                                               ("pow:2", "exponent in")])
    def test_bad_power_gauge(self, name, message):
        with pytest.raises(ValidationError, match=message):
            gauge_by_name(name)

    def test_one_object_per_name(self):
        # parsed descriptors compare equal, so they share one evaluator
        assert gauge_by_name("pow:0.5") is gauge_by_name("pow:0.5")
        assert parse_space("s:pow:0.5") == parse_space("s:pow:0.5")
        assert gauge_by_name("log2p1") is LOG2P1

    @pytest.mark.parametrize("first", [0, 1])
    def test_same_name_shares_no_results(self, first):
        # the DP's split weights and the evaluator registry key on the gauge
        x = SeqVector.from_values([1.0, 1.0, 1.0])
        gauges = [GaugeFunction("g", lambda t: math.log2(t + 1.0)), GaugeFunction("g", math.sqrt)]
        expected = [1.5, 3.0 / math.sqrt(3.0)]
        assert gauges[0] != gauges[1]
        for k in (first, 1 - first):
            assert s_norm_value(x, gauges[k]) == pytest.approx(expected[k], rel=1e-12)
            assert get_evaluator(Schlumprecht(gauges[k])).norm(x) == pytest.approx(expected[k],
                                                                                   rel=1e-12)

    def test_submultiplicativity_check_is_symmetric(self):
        # violations of f(xy) <= f(x) f(y) cannot depend on pair order
        grid = default_grid(top_exponent=6)
        f = LOG2P1
        for x in grid[::8]:
            for y in grid[::8]:
                if x * y <= grid[-1]:
                    a = f(x * y) - f(x) * f(y)
                    b = f(y * x) - f(y) * f(x)
                    assert a == b
