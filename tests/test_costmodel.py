import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mediocre.costmodel import (
    a2_round,
    curve,
    f,
    g,
    instance_constants,
    l_star,
    lower_bound,
    tables,
)


class TestG:
    def test_worked_value(self):
        assert g(0.20, 3) == pytest.approx(2.5, abs=1e-12)

    def test_l_zero_collapses(self):
        # the alpha and 1-alpha terms rejoin: 1 + 2*(a + (1-a)) = 3 for any a
        assert g(0.5, 0) == pytest.approx(3.0, abs=1e-12)
        assert g(0.17, 0) == pytest.approx(3.0, abs=1e-12)

    def test_small_alpha_row(self):
        assert g(0.01, 9) == pytest.approx(1.1312, abs=1e-4)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 0.51, 1.0])
    def test_domain(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            g(alpha, 1)

    def test_negative_l(self):
        with pytest.raises(ValueError, match="l >= 0"):
            g(0.2, -1)

    def test_l_above_the_float_exponent(self):
        # 2**-1100 is below the smallest subnormal, so only the alpha term is left
        assert g(0.1, 1100) == 1.0 + 1102 * 0.1
        assert g(5e-324, 2000) == 1.0


class TestLStar:
    @pytest.mark.parametrize("alpha,expected", [(0.01, 9), (0.25, 2), (0.5, 1), (0.20, 3)])
    def test_pinned_values(self, alpha, expected):
        assert l_star(alpha) == expected

    def test_domain(self):
        with pytest.raises(ValueError):
            l_star(0.6)


class TestF:
    def test_published_value(self):
        assert f(0.10) == pytest.approx(1.8968, abs=1e-4)

    def test_flat_cap_region(self):
        # everything in [1/3, 1/2] is capped at 3
        assert f(0.40) == 3.0
        assert f(0.35) == 3.0

    def test_symmetry(self):
        assert f(0.60) == f(0.40) == 3.0
        assert f(0.8) == pytest.approx(f(0.2), abs=1e-12)

    @given(st.floats(0.001, 0.999))
    @settings(max_examples=200)
    def test_symmetry_everywhere(self, alpha):
        assert f(alpha) == pytest.approx(f(1.0 - alpha), abs=1e-12)

    @given(st.floats(0.001, 0.999))
    @settings(max_examples=200)
    def test_best_adjacent_l_capped_at_three(self, alpha):
        a = min(alpha, 1.0 - alpha)
        l = l_star(a)
        assert f(alpha) == min(g(a, l), g(a, l + 1), 3.0)
        assert f(alpha) <= 3.0

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.3, 1.7])
    def test_domain(self, alpha):
        with pytest.raises(ValueError):
            f(alpha)

    @pytest.mark.parametrize("alpha", [5e-324, 1e-320, 1e-310, 2.2250738585072014e-308])
    def test_tiny_alpha(self, alpha):
        # 1/alpha overflows below about 5.6e-309, and on all four l_star
        # exceeds 1023, where 2**l overflows
        l = l_star(alpha)
        assert 1023 < l < 1100
        assert f(alpha) == min(g(alpha, l), g(alpha, l + 1), 3.0) == 1.0
        assert tuple(instance_constants(alpha))[1:] == (1.0, 1.0, 1.0, 1.0)

    def test_cost_point_bundles_the_candidates(self):
        alpha, l, g_l, g_l1, f_val = tables("f")[3]
        assert alpha == 0.04
        assert l == 6
        assert g_l == pytest.approx(1.4400, abs=1e-4)
        assert g_l1 == pytest.approx(1.4275, abs=1e-4)
        assert f_val == min(g_l, g_l1)


class TestInstanceConstants:
    def test_pair_scheme_row(self):
        ic = instance_constants(0.10)
        assert ic.c_a1 == pytest.approx(1.7500, abs=1e-4)
        assert ic.c_yao == pytest.approx(1.7750, abs=1e-4)

    def test_hyperpair_examples(self):
        ic = instance_constants(0.10)
        assert ic.c_a4 == pytest.approx(1.5, abs=1e-4)
        assert ic.c_yao4 == pytest.approx(1.525, abs=1e-4)
        ic = instance_constants(0.13)
        assert ic.c_a4 == pytest.approx(1.5, abs=1e-4)
        assert ic.c_yao4 == pytest.approx(1.56, abs=1e-4)

    def test_group4_fields_absent_above_one_fifth(self):
        ic = instance_constants(0.25)
        assert ic.c_a4 is None and ic.c_yao4 is None
        assert ic.c_a1 is not None

    @pytest.mark.parametrize("alpha", [0.0, 1 / 3, 0.4, -0.1])
    def test_domain(self, alpha):
        with pytest.raises(ValueError):
            instance_constants(alpha)


class TestLowerBound:
    def test_empty_poset(self):
        assert lower_bound(0, 0) == 0

    def test_matches_second_largest_complexity(self):
        # ceil(log2(4!/2!)) = ceil(log2 12) = 4, equal to 2 + ceil(log2 4)
        assert lower_bound(1, 2) == 4 == 2 + math.ceil(math.log2(4))

    def test_weak_against_tournament_bound(self):
        # ceil(log2 56) = 6 while the exact answer for i=1, j=6 is 9
        assert lower_bound(1, 6) == 6

    def test_negative_inputs(self):
        with pytest.raises(ValueError, match="i >= 0"):
            lower_bound(-1, 2)
        with pytest.raises(ValueError, match="j >= 0"):
            lower_bound(2, -1)

    def test_power_of_two_boundaries_exact(self):
        # ratio (j+1)*C(i+j+1, i) hits exact powers of two at i=0
        for j in range(0, 40):
            assert lower_bound(0, j) == math.ceil(math.log2(j + 1))

    @given(st.integers(0, 60), st.integers(0, 60))
    @settings(max_examples=150)
    def test_symmetric(self, i, j):
        assert lower_bound(i, j) == lower_bound(j, i)

    def test_huge_arguments_stay_exact(self):
        assert lower_bound(10_000, 10_000) > 0

    def test_estimate_matches_the_exact_formula(self):
        for i in range(301):
            for j in range(301):
                assert lower_bound(i, j) == exact_lower_bound(i, j), (i, j)

    def test_powers_of_two_take_the_exact_path(self):
        # at i = 0 the ratio is j + 1, so log2 is an integer and the estimate
        # alone cannot decide the ceiling
        for e in range(53):
            for j in (2**e - 2, 2**e - 1, 2**e):
                if j >= 0:
                    assert lower_bound(0, j) == exact_lower_bound(0, j), j

    @given(st.integers(0, 50_000), st.integers(0, 50_000))
    @settings(max_examples=60, deadline=None)
    def test_large_arguments_match_the_exact_formula(self, i, j):
        assert lower_bound(i, j) == exact_lower_bound(i, j)

    def test_a_shape_just_under_the_bit_limit_takes_the_exact_path(self):
        # log2 N = 130755.99999999, within the estimate's error bound of an
        # integer; N may have 130767 bits by the size test, at most 2^17
        assert lower_bound(65144, 65605) == exact_lower_bound(65144, 65605) == 130756


def exact_lower_bound(i, j):
    return ((j + 1) * math.comb(i + j + 1, i) - 1).bit_length()


def binomial_tail(r, q, k):
    """P[Bin(r, q) >= k], in exact rationals."""
    return sum(math.comb(r, x) * q**x * (1 - q) ** (r - x) for x in range(k, r + 1))


class TestA2Round:
    def test_cost_and_failure_probability_at_a2s_smallest_shape(self):
        # a2_params(8, 8, 1000) = (32, 13, 6)
        cost, p = a2_round(8, 8, 32, 13, 6)
        assert cost == pytest.approx(13 + 5 + 32 * (31 / 32) ** 13, rel=1e-15)
        exact = binomial_tail(13, Fraction(8, 32), 6) + binomial_tail(13, Fraction(8, 32), 8)
        assert p == pytest.approx(float(exact), rel=1e-13)

    @given(st.integers(0, 40), st.integers(0, 40), st.integers(1, 30), st.integers(1, 60))
    @settings(max_examples=200, deadline=None)
    def test_failure_probability_is_the_exact_binomial_sum(self, i, j, slack, r):
        m = i + j + slack
        for k in range(1, r + 1):
            # k not far below either mean, as a2's parameters keep it
            if k < r * j / m - 3 or r - k + 1 < r * i / m - 3:
                continue
            exact = binomial_tail(r, Fraction(j, m), k) + binomial_tail(r, Fraction(i, m), r - k + 1)
            assert a2_round(i, j, m, r, k)[1] == pytest.approx(float(exact), rel=1e-12, abs=1e-15)


class TestTables:
    def test_f_table_row_counts_and_types(self):
        rows = tables("f")
        assert len(rows) == 33
        assert rows[0][0] == pytest.approx(0.01)
        assert all(isinstance(row[1], int) for row in rows)

    def test_constants_table_strict_inequality(self):
        for alpha, c_a1, c_yao in tables("constants"):
            assert c_a1 < c_yao, alpha

    def test_hyper4_table_shape(self):
        rows = tables("hyper4")
        assert len(rows) == 8
        assert rows[0][0] == pytest.approx(0.09)

    def test_dispatcher(self):
        assert len(tables("f")) == 33
        assert len(tables("constants")) == 33
        assert len(tables("hyper4")) == 8
        with pytest.raises(ValueError, match="unknown table"):
            tables("bogus")


class TestCurve:
    def test_grid_matches_table(self):
        assert curve(0.01, 0.33, 0.01) == tables("constants")

    def test_finer_grid(self):
        rows = curve(0.005, 0.325, 0.005)
        assert len(rows) == 65
        assert all(v > 0 for row in rows for v in row)

    def test_pair_constant_never_exceeds_two(self):
        # (1 + f)/2 with f capped at 3 stays at or below 2
        rows = curve(0.001, 0.333, 0.001)
        assert all(c_a1 <= 2.0 + 1e-12 for _, c_a1, _ in rows)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            curve(0.2, 0.1, 0.01)
        with pytest.raises(ValueError):
            curve(0.01, 0.34, 0.01)
        with pytest.raises(ValueError):
            curve(0.01, 0.3, 0.0)
        for step in (math.inf, math.nan):
            with pytest.raises(ValueError, match="step > 0 violated"):
                curve(0.1, 0.2, step)
