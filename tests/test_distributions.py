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
    permutation_draws,
    sample_permutation,
    sample_small_range,
    small_range_draws,
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


def _small_range_bounds(n, r):
    return [r] * n + list(range(n, n - r, -1))


def _per_row(bounds, rng, count):
    # one generator call per row, as the samplers drew before block draws
    return [rng.integers(0, np.array(bounds)).tolist() for _ in range(count)]


def _maps(params, rows):
    return [sample_small_range(params, row).values for row in rows]


class SpyGenerator:
    """A generator that records how many ints each `integers` call draws."""

    def __init__(self, rng):
        self.rng = rng
        self.drawn = []

    def integers(self, low, high):
        self.drawn.append(np.size(high))
        return self.rng.integers(low, high)


class TestSamplerStream:
    """Rows from the row sources consume the stream as the scalar form does."""

    SEEDS = (0, 1, 7, 2**31 - 1)

    @pytest.mark.parametrize("n", range(1, 18))
    def test_small_range_matches_scalar_form(self, n):
        for seed in self.SEEDS:
            for r in range(1, n + 1):
                params = SmallRangeParams(n, r)
                rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
                # a three-row block, then a one-row source
                rows = list(small_range_draws(params, rng, 3))
                rows += small_range_draws(params, rng, 1)
                for row in rows:
                    drawn = sample_small_range(params, row).values
                    assert drawn == _scalar_small_range(n, r, reference)
                assert rng.random() == reference.random()

    @pytest.mark.parametrize("n", range(1, 18))
    def test_permutation_matches_scalar_form(self, n):
        for seed in self.SEEDS:
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            rows = list(permutation_draws(n, rng, 3))
            rows += permutation_draws(n, rng, 1)
            for row in rows:
                assert sample_permutation(n, row).values == tuple(
                    _scalar_shuffle_prefix(n, n, reference)
                )
            assert rng.random() == reference.random()


# (n, r): row widths n + r of 17, 20, 32, 9, 8, 2, 5 and 4102 (above one block)
ROW_SHAPES = [(16, 1), (16, 4), (16, 16), (6, 3), (4, 4), (1, 1), (3, 2), (4100, 2)]


class TestRowSources:
    @pytest.mark.parametrize("n, r", ROW_SHAPES)
    def test_block_rows_equal_per_row_and_scalar_draws(self, n, r):
        params = SmallRangeParams(n, r)
        block = max(1, 4096 // (n + r))
        for count in sorted({1, 2, block - 1, block, block + 1, 3 * block + 5}):
            rng, per_row, scalar = (np.random.default_rng(count) for _ in range(3))
            rows = list(small_range_draws(params, rng, count))
            assert len(rows) == count
            assert all(type(v) is int for row in rows for v in row)
            assert rows == _per_row(_small_range_bounds(n, r), per_row, count)
            if n <= 16:
                assert _maps(params, rows) == [_scalar_small_range(n, r, scalar) for _ in rows]
                assert rng.bit_generator.state == scalar.bit_generator.state
            assert rng.bit_generator.state == per_row.bit_generator.state

    @pytest.mark.parametrize("n", [1, 5, 16, 17, 4100])
    def test_permutation_rows_equal_per_row_and_scalar_draws(self, n):
        block = max(1, 4096 // n)
        for count in sorted({1, 2, block - 1, block, block + 1, 3 * block + 5}):
            rng, per_row, scalar = (np.random.default_rng(count) for _ in range(3))
            rows = list(permutation_draws(n, rng, count))
            assert rows == _per_row(list(range(n, 0, -1)), per_row, count)
            if n <= 17:
                perms = [sample_permutation(n, row).values for row in rows]
                assert perms == [tuple(_scalar_shuffle_prefix(n, n, scalar)) for _ in rows]
                assert rng.bit_generator.state == scalar.bit_generator.state
            assert rng.bit_generator.state == per_row.bit_generator.state

    def test_a_source_draws_nothing_until_its_first_row(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        rows = small_range_draws(SmallRangeParams(16, 4), rng, 1000)
        assert rng.bit_generator.state == before
        next(rows)
        assert rng.bit_generator.state != before

    def test_one_row_is_one_call_on_the_row_bounds(self):
        spy = SpyGenerator(np.random.default_rng(4))
        list(small_range_draws(SmallRangeParams(16, 4), spy, 1))
        list(permutation_draws(16, spy, 1))
        assert spy.drawn == [20, 16]

    @pytest.mark.parametrize(
        "source, width",
        [
            (lambda rng: small_range_draws(SmallRangeParams(16, 4), rng, 10_000), 20),
            (lambda rng: permutation_draws(16, rng, 10_000), 16),
            (lambda rng: small_range_draws(SmallRangeParams(4100, 2), rng, 3), 4102),
            (lambda rng: permutation_draws(5000, rng, 3), 5000),
        ],
        ids=["small-range-16-4", "permutation-16", "small-range-wide", "permutation-wide"],
    )
    def test_no_call_draws_more_than_a_block(self, source, width):
        spy = SpyGenerator(np.random.default_rng(5))
        rows = source(spy)
        count = sum(1 for _ in rows)
        assert max(spy.drawn) <= max(4096, width)
        assert sum(spy.drawn) == count * width
        assert all(drawn % width == 0 for drawn in spy.drawn)

    def test_wrong_row_length_rejected(self):
        params = SmallRangeParams(4, 2)
        with pytest.raises(ValueError, match="has 6 draws, got 5"):
            sample_small_range(params, [0] * 5)
        with pytest.raises(ValueError, match="has 4 draws, got 5"):
            sample_permutation(4, [0] * 5)
        with pytest.raises(ValueError, match="has 4 draws, got 3"):
            sample_permutation(4, [0] * 3)

    @pytest.mark.parametrize(
        "row",
        [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
    )
    def test_negative_draw_rejected(self, row):
        # a -1 would wrap through Python indexing: [-1, 0, 0, 0] read as the map (1, 0)
        with pytest.raises(ValueError, match="non-negative, got -1"):
            sample_small_range(SmallRangeParams(2, 2), row)
        with pytest.raises(ValueError, match="non-negative, got -1"):
            sample_permutation(4, row)

    @pytest.mark.parametrize(
        "row",
        [[0, 1, 5, 0, 0], [2, 0, 0, 0, 0], [0, 0, 0, 3, 0], [0, 0, 0, 0, 2]],
        ids=["map-5", "map-2", "first-swap-3", "second-swap-2"],
    )
    def test_draw_above_its_bound_rejected(self, row):
        # bounds at n=3 r=2: [2, 2, 2] into [r], then swaps into [3] and [2]
        with pytest.raises(ValueError, match="draw above its bound"):
            sample_small_range(SmallRangeParams(3, 2), row)

    def test_permutation_draw_above_its_bound_rejected(self):
        # bounds at n=3: swaps into [3], [2], [1]
        for row in ([3, 0, 0], [0, 2, 0], [0, 0, 1]):
            with pytest.raises(ValueError, match="draw above its bound"):
                sample_permutation(3, row)
        assert sample_permutation(3, [2, 1, 0]).values == (2, 0, 1)


class TestSampleSmallRange:
    def test_r_one_is_constant(self):
        rng = np.random.default_rng(0)
        params = SmallRangeParams(6, 1)
        for draws in small_range_draws(params, rng, 50):
            assert len(image(sample_small_range(params, draws))) == 1

    def test_identity_frequency_at_two(self):
        # exact mass of the identity at n=2, r=2 is 1/4
        rng = np.random.default_rng(1)
        params = SmallRangeParams(2, 2)
        draws = 40_000
        hits = sum(
            sample_small_range(params, row).values == (0, 1)
            for row in small_range_draws(params, rng, draws)
        )
        sigma = math.sqrt(0.25 * 0.75 / draws)
        assert abs(hits / draws - 0.25) <= 4 * sigma

    def test_image_bound_large_n(self):
        rng = np.random.default_rng(2)
        params = SmallRangeParams(16, 4)
        for draws in small_range_draws(params, rng, 10_000):
            assert len(image(sample_small_range(params, draws))) <= 4

    @settings(max_examples=40)
    @given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 2**31))
    def test_image_bound_property(self, n, r, seed):
        if r > n:
            r = n
        params = SmallRangeParams(n, r)
        (draws,) = small_range_draws(params, np.random.default_rng(seed), 1)
        assert len(image(sample_small_range(params, draws))) <= r

    def test_params_validated(self):
        with pytest.raises(ValueError):
            SmallRangeParams(4, 5)
        with pytest.raises(ValueError):
            SmallRangeParams(4, 0)


class TestSamplePermutation:
    def test_n_one(self):
        (swaps,) = permutation_draws(1, np.random.default_rng(3), 1)
        assert sample_permutation(1, swaps).values == (0,)

    def test_always_injective(self):
        rng = np.random.default_rng(4)
        for swaps in permutation_draws(5, rng, 200):
            assert is_injective(sample_permutation(5, swaps))

    def test_uniform_at_three(self):
        rng = np.random.default_rng(5)
        draws = 60_000
        counts = {}
        for swaps in permutation_draws(3, rng, draws):
            key = sample_permutation(3, swaps).values
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
        for row in small_range_draws(params, rng, draws):
            key = sample_small_range(params, row).values
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
