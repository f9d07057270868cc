"""Unit and property tests for factorization/composition utilities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mapspace.factors import (
    compositions,
    nearest_composition,
    nearest_factorization,
    nearest_factorizations,
    sample_composition,
    sample_factorization,
    smallest_prime_factor,
)


class TestSampleFactorization:
    @given(st.integers(min_value=1, max_value=512), st.integers(min_value=0, max_value=9999))
    @settings(max_examples=60)
    def test_product_is_n(self, n, seed):
        factors = sample_factorization(n, 4, seed)
        assert math.prod(factors) == n

    def test_deterministic(self):
        assert sample_factorization(96, 4, 5) == sample_factorization(96, 4, 5)

    def test_covers_space(self):
        rng = np.random.default_rng(0)
        seen = {sample_factorization(8, 2, rng) for _ in range(100)}
        assert seen == {(1, 8), (2, 4), (4, 2), (8, 1)}


class TestNearestFactorization:
    def test_exact_target(self):
        assert nearest_factorization(24, 3, [2, 3, 4]) == (2, 3, 4)

    def test_rounds_to_closest(self):
        # target (2.2, 2.8, 4.1) should still land on (2, 3, 4)
        assert nearest_factorization(24, 3, [2.2, 2.8, 4.1]) == (2, 3, 4)

    def test_product_always_n(self):
        result = nearest_factorization(36, 4, [10, 10, 10, 10])
        assert math.prod(result) == 36

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError):
            nearest_factorization(12, 3, [1, 2])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_raises_naming_n(self, bad):
        with pytest.raises(ValueError, match=r"factorization of 36\b.*not finite"):
            nearest_factorization(36, 4, [2.0, bad, 3.0, 1.0])

    def test_batched_rounding_resolves_each_n(self):
        assert nearest_factorizations(
            [(24, 36, 1)], 3, [[2, 3, 4], [6, 6, 1], [5, 5, 5]]
        ) == ((2, 3, 4), (6, 6, 1), (1, 1, 1))

    def test_rows_resolve_against_their_own_tables(self):
        """Rows of different bounds concatenate their own cached tables."""
        targets = [[2, 3, 4], [6, 6, 1], [6, 6, 1], [2, 3, 4], [5, 5, 5]]
        rows = [(24, 36), (36,), (24, 1)]
        expected = tuple(
            nearest_factorization(n, 3, target)
            for n, target in zip((24, 36, 36, 24, 1), targets)
        )
        assert nearest_factorizations(rows, 3, targets) == expected

    def test_batched_rounding_checks_the_target_shape(self):
        with pytest.raises(ValueError, match="shape"):
            nearest_factorizations([(24, 36)], 3, [[2, 3, 4]])

    @given(
        st.integers(min_value=1, max_value=256),
        st.lists(st.floats(min_value=0.01, max_value=300), min_size=4, max_size=4),
    )
    @settings(max_examples=60)
    def test_valid_for_any_target(self, n, target):
        result = nearest_factorization(n, 4, target)
        assert math.prod(result) == n
        assert all(f >= 1 for f in result)


class TestCompositions:
    def test_basic(self):
        assert set(compositions(4, 2)) == {(1, 3), (2, 2), (3, 1)}

    def test_min_each(self):
        assert compositions(6, 2, min_each=2) == ((2, 4), (3, 3), (4, 2))

    def test_single_part(self):
        assert compositions(5, 1) == ((5,),)

    def test_count_formula(self):
        # C(total - parts + parts - 1, parts - 1) for min_each=1
        assert len(compositions(10, 3)) == math.comb(9, 2)

    def test_infeasible_raises(self):
        with pytest.raises(ValueError):
            compositions(2, 3)

    @given(st.integers(min_value=3, max_value=12), st.integers(min_value=1, max_value=3))
    def test_all_sum_to_total(self, total, parts):
        for option in compositions(total, parts):
            assert sum(option) == total
            assert all(x >= 1 for x in option)


class TestSampleComposition:
    @given(
        st.integers(min_value=3, max_value=32),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=60)
    def test_valid(self, total, parts, seed):
        result = sample_composition(total, parts, seed)
        assert sum(result) == total
        assert all(x >= 1 for x in result)

    def test_uniformity_rough(self):
        rng = np.random.default_rng(0)
        counts = {}
        for _ in range(600):
            counts[sample_composition(4, 2, rng)] = counts.get(sample_composition(4, 2, rng), 0) + 1
        # all three compositions of 4 into 2 parts should appear
        assert set(counts) == {(1, 3), (2, 2), (3, 1)}

    def test_infeasible_raises(self):
        with pytest.raises(ValueError):
            sample_composition(1, 3, 0)


class TestNearestComposition:
    def test_respects_proportions(self):
        result = nearest_composition(10, 2, [0.8, 0.2])
        assert result == (8, 2)

    def test_sums_to_total(self):
        result = nearest_composition(7, 3, [0.5, 0.3, 0.2])
        assert sum(result) == 7

    def test_zero_target_falls_back_to_even(self):
        result = nearest_composition(6, 3, [0.0, 0.0, 0.0])
        assert sum(result) == 6
        assert all(x >= 1 for x in result)

    def test_min_each_enforced(self):
        result = nearest_composition(5, 3, [100.0, 0.0, 0.0])
        assert result[1] >= 1 and result[2] >= 1

    @given(
        st.integers(min_value=4, max_value=32),
        st.lists(st.floats(min_value=0, max_value=10), min_size=4, max_size=4),
    )
    @settings(max_examples=60)
    def test_always_valid(self, total, target):
        result = nearest_composition(total, 4, target)
        assert sum(result) == total
        assert all(x >= 1 for x in result)


class TestSmallestPrimeFactor:
    def test_one(self):
        assert smallest_prime_factor(1) == 1

    def test_prime(self):
        assert smallest_prime_factor(13) == 13

    def test_even(self):
        assert smallest_prime_factor(24) == 2

    def test_odd_composite(self):
        assert smallest_prime_factor(49) == 7

    @given(st.integers(min_value=2, max_value=10_000))
    def test_divides_and_is_prime(self, n):
        p = smallest_prime_factor(n)
        assert n % p == 0
        assert all(p % q for q in range(2, int(math.isqrt(p)) + 1))
