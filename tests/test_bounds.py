from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumorsim import (
    azuma_bound,
    baseline_bound,
    bound_report,
    chernoff_lower,
    chernoff_upper,
    default_max_rounds,
    lossy_bound,
    lower_bound,
    schedule_constants,
    slowdown_factor,
    success_prob,
    upper_bound,
    upper_bound_schedule,
)
from rumorsim.bounds import int_ceil_exp


class TestBroadcastBounds:
    def test_lossless_reduces_to_baseline(self):
        for n in (2, 100, 4096):
            assert lossy_bound(n, 1.0) == pytest.approx(math.log2(n) + math.log(n), rel=1e-12)

    def test_reference_values(self):
        assert lossy_bound(4096, 0.5) == pytest.approx(37.1497, abs=5e-4)
        assert lossy_bound(2, 1.0) == pytest.approx(1 + math.log(2), rel=1e-12)
        assert lower_bound(4096, 1.0, 0.2) == pytest.approx(16.254, abs=5e-3)
        assert upper_bound(4096, 0.5, 0.2) == pytest.approx(1.2 * 37.1497, abs=1e-3)

    def test_success_prob_reference_and_vacuity(self):
        # the guarantee is asymptotic; at n=4096 it is nearly vacuous
        assert success_prob(4096, 0.5, 0.2) == pytest.approx(0.0206, abs=5e-4)
        assert success_prob(10, 0.3, 0.1) < 0.01

    @given(
        st.integers(min_value=2, max_value=10**6),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_ordering_and_positivity(self, n, p, eps):
        lo, mid, hi = lower_bound(n, p, eps), lossy_bound(n, p), upper_bound(n, p, eps)
        assert 0 < lo <= mid <= hi

    def test_monotone_in_p_and_n(self):
        grid = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
        vals = [lossy_bound(1000, p) for p in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        sizes = [2, 10, 100, 10**4]
        vals = [lossy_bound(n, 0.4) for n in sizes]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lossy_bound(1, 0.5)
        with pytest.raises(ValueError):
            lossy_bound(10, 0.0)
        with pytest.raises(ValueError):
            lower_bound(10, 0.5, 0.0)

    @pytest.mark.parametrize("bound", [
        lossy_bound, lambda n, p: success_prob(n, p, 0.5),
        lambda n, p: schedule_constants(n, p, 0.5),
    ], ids=["lossy_bound", "success_prob", "schedule_constants"])
    def test_n_follows_the_integer_rule(self, bound):
        # a float n would run as a real number; NaN fails every comparison
        for n in (2.5, 4.0, math.nan, True, "8"):
            with pytest.raises(ValueError, match=f"^n: must be an integer, got {n!r}"):
                bound(n, 0.5)
        with pytest.raises(ValueError, match="^n: must be >= 2, got 1"):
            bound(1, 0.5)
        assert bound(np.int64(64), 0.5) == bound(64, 0.5)

    def test_default_max_rounds_follows_the_integer_rule(self):
        # n < 2 takes a fixed horizon, so a float, a bool or a string never reached the law
        for n in (1.5, True, "3"):
            with pytest.raises(ValueError, match=f"^n: must be an integer, got {n!r}"):
                default_max_rounds(n, 0.5)
        with pytest.raises(ValueError, match="^n: must be >= 1, got 0"):
            default_max_rounds(0, 0.5)
        assert default_max_rounds(1, 0.5) == 32

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps_rejected(self, eps):
        for bound in (lower_bound, upper_bound, success_prob, bound_report):
            with pytest.raises(ValueError, match="eps"):
                bound(64, 0.5, eps)
        with pytest.raises(ValueError, match="eps"):
            schedule_constants(64, 0.5, eps)

    def test_law_past_double_range_names_p(self):
        # ln(n) / p overflows a double near the smallest positive p
        for bound in (lossy_bound, default_max_rounds, lambda n, p: bound_report(n, p, 0.1)):
            with pytest.raises(ValueError, match=r"law is not finite .* p=5e-324"):
                bound(5, 5e-324)
        assert math.isfinite(lossy_bound(5, 1e-307))

    def test_report_assembles_everything(self):
        rep = bound_report(4096, 0.5, 0.2)
        assert rep.lower < rep.upper
        assert rep.baseline == pytest.approx(baseline_bound(4096))
        assert set(rep.to_dict()) == {
            "n", "p", "eps", "lower", "upper", "baseline", "success_prob_lower", "slowdown",
        }

    def test_default_max_rounds_dwarfs_upper_bound(self):
        for n, p in [(64, 1.0), (4096, 0.5), (10**5, 0.3)]:
            assert default_max_rounds(n, p) > upper_bound(n, p, 0.99)


class TestSlowdown:
    def test_half_is_one_point_eight_two_eight(self):
        assert slowdown_factor(0.5) == pytest.approx(1.828, abs=1e-3)

    def test_lossless_is_one(self):
        assert slowdown_factor(1.0) == pytest.approx(1.0, rel=1e-12)

    def test_point_one_reference(self):
        assert slowdown_factor(0.1) == pytest.approx(8.389, abs=2e-3)

    def test_always_below_the_naive_one_over_p(self):
        for p in np.arange(0.05, 0.96, 0.05):
            p = float(p)
            assert 1.0 <= slowdown_factor(p) < 1.0 / p


class TestConcentration:
    def test_reference_values(self):
        assert chernoff_lower(0.0, 1.0) == 1.0
        assert chernoff_lower(18, 1.0) == pytest.approx(math.exp(-9), rel=1e-12)
        assert chernoff_upper(30, 0.5) == pytest.approx(math.exp(-2.5), rel=1e-12)
        assert azuma_bound(1.0, [1.0]) == pytest.approx(2 * math.exp(-2), rel=1e-12)
        assert azuma_bound(10.0, [1.0] * 100) == pytest.approx(2 * math.exp(-2), rel=1e-12)

    def test_azuma_scale_invariant(self):
        a = azuma_bound(3.0, [0.5, 1.0, 2.0])
        b = azuma_bound(6.0, [1.0, 2.0, 4.0])
        assert a == pytest.approx(b, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chernoff_lower(-1.0, 0.5)
        with pytest.raises(ValueError):
            chernoff_lower(5.0, 1.5)
        with pytest.raises(ValueError):
            azuma_bound(0.0, [1.0])
        with pytest.raises(ValueError):
            azuma_bound(1.0, [0.0, 0.0])

    @pytest.mark.parametrize(
        "bound, args, name",
        [
            (chernoff_lower, (math.nan, 0.5), "expectation"),
            (chernoff_upper, (math.nan, 0.5), "expectation"),
            (azuma_bound, (math.nan, [1.0]), "deviation t"),
            (azuma_bound, (1.0, [1.0, math.nan]), "effect bounds"),
        ],
        ids=["chernoff_lower", "chernoff_upper", "azuma_t", "azuma_effect_bound"],
    )
    def test_nan_rejected(self, bound, args, name):
        # NaN fails every comparison, so each check must be written to let
        # only valid values through
        with pytest.raises(ValueError, match=f"{name} must be .* got nan"):
            bound(*args)

    def test_chernoff_holds_empirically(self):
        # observed binomial tails stay within bound + 3 SE(bound)
        gen = np.random.default_rng(20240814)
        samples = 100_000
        for m in (40, 400, 4000):
            for q in (0.1, 0.5, 0.9):
                x = gen.binomial(m, q, size=samples)
                mean = m * q
                for delta in (0.1, 0.3, 0.6, 1.0):
                    for bound, freq in (
                        (chernoff_lower(mean, delta), (x <= (1 - delta) * mean).mean()),
                        (chernoff_upper(mean, delta), (x >= (1 + delta) * mean).mean()),
                    ):
                        se = math.sqrt(bound * (1 - bound) / samples)
                        assert freq <= bound + 3 * se + 1e-12

    def test_azuma_holds_empirically(self):
        # Y = distinct targets among m uniform draws; changing one draw moves
        # Y by at most 1, so the c_i are all 1
        gen = np.random.default_rng(77)
        samples = 100_000
        n_targets = 100
        for m in (20, 50):
            draws = gen.integers(0, n_targets, size=(samples, m))
            distinct = np.array([len(np.unique(row)) for row in draws[:20_000]])
            expected = n_targets * (1 - (1 - 1 / n_targets) ** m)
            for t in (2.0, 4.0, 6.0):
                bound = azuma_bound(t, [1.0] * m)
                freq = (np.abs(distinct - expected) >= t).mean()
                se = math.sqrt(min(bound, 1.0) * max(1 - bound, 0.0) / len(distinct))
                assert freq <= min(bound, 1.0) + 3 * se + 1e-12


class TestScheduleConstants:
    def test_k_is_at_least_two(self):
        for p in (0.1, 0.5, 1.0):
            for eps in (0.1, 0.5, 0.9):
                assert schedule_constants(100, p, eps).k >= 2

    def test_zeta_prime_definition_in_log_space(self):
        c = schedule_constants(4096, 0.5, 0.5)
        assert c.log_zeta_prime == pytest.approx(c.log_zeta - c.k * math.log(2), rel=1e-12)

    def test_log_space_survives_extreme_parameters(self):
        # k near 80: zeta underflows doubles, the log stays finite
        c = schedule_constants(10**6, 0.1, 0.5)
        assert c.k > 60
        assert c.zeta == 0.0
        assert math.isfinite(c.log_zeta)
        assert c.log_zeta < -1e5

    @pytest.mark.parametrize("n, p", [(100, 5e-324), (2, 1e-306)])
    def test_k_past_double_range_names_p(self, n, p):
        # ln(1/p) / ln(1+p) overflows a double even where the law itself does not
        with pytest.raises(ValueError, match=f"k is not finite .* p={p}"):
            schedule_constants(n, p, 0.5)
        with pytest.raises(ValueError, match=f"k is not finite .* p={p}"):
            upper_bound_schedule(n, p, 0.5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            schedule_constants(4096, 1.0, 1.0)
        with pytest.raises(ValueError):
            schedule_constants(4096, 0.0, 0.5)


class TestIntCeilExp:
    def test_matches_math_for_moderate_values(self):
        for log_x in (0.0, 1.0, 10.5, 100.0, 650.0):
            got = int_ceil_exp(log_x)
            assert got >= math.exp(log_x) * (1 - 1e-12)
            assert got <= math.exp(log_x) * (1 + 1e-8) + 1

    def test_huge_values_have_right_magnitude(self):
        log_x = 10_000.0
        got = int_ceil_exp(log_x)
        assert abs(got.bit_length() - log_x / math.log(2)) < 3

    def test_zero_for_log_zero(self):
        assert int_ceil_exp(-math.inf) == 0

    def test_refuses_unmaterializable(self):
        with pytest.raises(ValueError):
            int_ceil_exp(1e9)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [5.0, math.nan, 0.0, True])
def test_default_max_rounds_checks_p_at_every_n(n, p):
    # one vertex takes a fixed horizon, which once skipped the p rule
    with pytest.raises(ValueError, match=r"^success probability must lie in \(0, 1\]"):
        default_max_rounds(n, p)
