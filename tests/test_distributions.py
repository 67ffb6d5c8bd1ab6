import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsymlab.core import IndexFunction, image
from qsymlab.distributions import (
    SmallRangeParams,
    WeightedSupport,
    enumerate_small_range_support,
    enumeration_budget,
    is_injective,
    sample_permutation,
    sample_small_range,
)


def _pair_walk(n, r):
    """Reference law: every (map into [r], injection of [r] into [n]) pair, summed."""
    pairs = r**n * math.perm(n, r)
    acc = {}
    for injection in itertools.permutations(range(n), r):
        for into_range in itertools.product(range(r), repeat=n):
            composed = tuple(injection[v] for v in into_range)
            acc[composed] = acc.get(composed, Fraction(0)) + Fraction(1, pairs)
    return [(values, acc[values]) for values in sorted(acc)]


def _scalar_shuffle_prefix(n, r, rng):
    # the sampler's former stream: one generator call per Fisher-Yates swap
    cells = list(range(n))
    for k in range(r):
        swap = k + int(rng.integers(0, n - k))
        cells[k], cells[swap] = cells[swap], cells[k]
    return cells[:r]


def _scalar_small_range(n, r, rng):
    into_range = rng.integers(0, r, size=n)
    injection = _scalar_shuffle_prefix(n, r, rng)
    return tuple(injection[v] for v in into_range)


class TestSamplerStream:
    """One generator call per draw consumes the stream as the scalar form does."""

    SEEDS = (0, 1, 7, 2**31 - 1)

    @pytest.mark.parametrize("n", range(1, 18))
    def test_small_range_matches_scalar_form(self, n):
        for seed in self.SEEDS:
            for r in range(1, n + 1):
                rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(3):
                    drawn = sample_small_range(SmallRangeParams(n, r), rng).values
                    assert drawn == _scalar_small_range(n, r, reference)
                assert rng.random() == reference.random()

    @pytest.mark.parametrize("n", range(1, 18))
    def test_permutation_matches_scalar_form(self, n):
        for seed in self.SEEDS:
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                assert sample_permutation(n, rng).values == tuple(
                    _scalar_shuffle_prefix(n, n, reference)
                )
            assert rng.random() == reference.random()


class TestSampleSmallRange:
    def test_r_one_is_constant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = sample_small_range(SmallRangeParams(6, 1), rng)
            assert len(image(g)) == 1

    def test_identity_frequency_at_two(self):
        # exact mass of the identity at n=2, r=2 is 1/4
        rng = np.random.default_rng(1)
        draws = 40_000
        hits = sum(
            sample_small_range(SmallRangeParams(2, 2), rng).values == (0, 1)
            for _ in range(draws)
        )
        sigma = math.sqrt(0.25 * 0.75 / draws)
        assert abs(hits / draws - 0.25) <= 4 * sigma

    def test_image_bound_large_n(self):
        rng = np.random.default_rng(2)
        params = SmallRangeParams(16, 4)
        for _ in range(10_000):
            assert len(image(sample_small_range(params, rng))) <= 4

    @settings(max_examples=40)
    @given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 2**31))
    def test_image_bound_property(self, n, r, seed):
        if r > n:
            r = n
        g = sample_small_range(SmallRangeParams(n, r), np.random.default_rng(seed))
        assert len(image(g)) <= r

    def test_params_validated(self):
        with pytest.raises(ValueError):
            SmallRangeParams(4, 5)
        with pytest.raises(ValueError):
            SmallRangeParams(4, 0)


class TestSamplePermutation:
    def test_n_one(self):
        rng = np.random.default_rng(3)
        assert sample_permutation(1, rng).values == (0,)

    def test_always_injective(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            assert is_injective(sample_permutation(5, rng))

    def test_uniform_at_three(self):
        rng = np.random.default_rng(5)
        draws = 60_000
        counts = {}
        for _ in range(draws):
            key = sample_permutation(3, rng).values
            counts[key] = counts.get(key, 0) + 1
        sigma = math.sqrt((1 / 6) * (5 / 6) / draws)
        assert len(counts) == 6
        for count in counts.values():
            assert abs(count / draws - 1 / 6) <= 3 * sigma


class TestEnumerator:
    @pytest.mark.parametrize("n, r", [(3, 2), (4, 4)])
    def test_float_entries_convert_each_mass_like_float(self, n, r):
        support = enumerate_small_range_support(SmallRangeParams(n, r))
        assert support.float_entries() == [(g, float(p)) for g, p in support.entries]

    def test_n2_r1_support(self):
        support = enumerate_small_range_support(SmallRangeParams(2, 1))
        masses = {g.values: p for g, p in support.entries}
        assert masses == {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}

    def test_identity_mass_quarter(self):
        support = enumerate_small_range_support(SmallRangeParams(2, 2))
        assert support.probability_of(IndexFunction.identity(2)) == Fraction(1, 4)

    def test_mass_short_of_one_rejected(self):
        # exact: a float sum would round 1 - 2^-60 to 1
        short = Fraction(1, 2**60)
        entries = (
            (IndexFunction(2, (0, 0)), Fraction(1, 2)),
            (IndexFunction(2, (1, 1)), Fraction(1, 2) - short),
        )
        with pytest.raises(ValueError, match="not 1"):
            WeightedSupport(entries)

    def test_mass_sums_to_one(self):
        for n, r in ((2, 2), (3, 2), (4, 3)):
            support = enumerate_small_range_support(SmallRangeParams(n, r))
            assert sum((p for _, p in support.entries), Fraction(0)) == 1

    def test_full_range_differs_from_permutations(self):
        # at r = n the distribution still puts half its mass on collisions
        support = enumerate_small_range_support(SmallRangeParams(2, 2))
        non_injective = sum(
            (p for g, p in support.entries if not is_injective(g)), Fraction(0)
        )
        assert non_injective == Fraction(1, 2)

    def test_image_bound_in_support(self):
        support = enumerate_small_range_support(SmallRangeParams(4, 2))
        assert all(len(image(g)) <= 2 for g, _ in support.entries)

    @pytest.mark.parametrize("n, r", [(n, r) for n in range(1, 6) for r in range(1, n + 1)])
    def test_closed_form_equals_pair_walk(self, n, r):
        support = enumerate_small_range_support(SmallRangeParams(n, r))
        assert [(g.values, p) for g, p in support.entries] == _pair_walk(n, r)

    def test_budget_counts_maps_visited(self, monkeypatch):
        # n = r = 4: 4 + 96 + 324 + 256 = 680 maps, but 4^4 * 4! = 6,144 pairs
        monkeypatch.setenv("QSYMLAB_BUDGET", "1000")
        support = enumerate_small_range_support(SmallRangeParams(4, 4))
        assert len(support) == 4**4
        assert support.probability_of(IndexFunction.identity(4)) == Fraction(1, 4**4)
        monkeypatch.setenv("QSYMLAB_BUDGET", "679")
        with pytest.raises(ValueError, match="680 maps"):
            enumerate_small_range_support(SmallRangeParams(4, 4))

    def test_budget_enforced(self, monkeypatch):
        monkeypatch.setenv("QSYMLAB_BUDGET", "10")
        assert enumeration_budget() == 10
        with pytest.raises(ValueError, match="budget"):
            enumerate_small_range_support(SmallRangeParams(3, 2))

    def test_sampler_agrees_with_enumerator(self):
        params = SmallRangeParams(3, 2)
        support = enumerate_small_range_support(params)
        rng = np.random.default_rng(6)
        draws = 100_000
        counts = {}
        for _ in range(draws):
            key = sample_small_range(params, rng).values
            counts[key] = counts.get(key, 0) + 1
        assert sum(counts.values()) == draws
        for g, prob in support.entries:
            p = float(prob)
            sigma = math.sqrt(p * (1 - p) / draws)
            assert abs(counts.get(g.values, 0) / draws - p) <= 4 * sigma


class TestIsInjective:
    def test_identity(self):
        assert is_injective(IndexFunction.identity(4))

    def test_constant(self):
        assert not is_injective(IndexFunction(3, (1, 1, 1)))
