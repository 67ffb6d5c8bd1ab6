import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsymlab import distributions
from qsymlab.core import IndexFunction, index_map_block
from qsymlab.distributions import (
    SmallRangeParams,
    WeightedSupport,
    enumerate_small_range_support,
    enumeration_budget,
    sample_permutation,
    sample_small_range,
    sample_small_range_block,
    stream_blocks,
    stream_rows,
    stream_seeds,
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


def _product_walk(support, per_block):
    """The walk as first written: per image size k, `itertools.product` over the
    k^n words of each k-cell set in turn, the words that miss a cell filtered
    out, cut into blocks of `per_block` maps."""
    n = support.params.n
    for k, mass in enumerate(support.masses, start=1):
        words = (
            values
            for cells in itertools.combinations(range(n), k)
            for values in itertools.product(cells, repeat=n)
            if len(set(values)) == k
        )
        while chunk := list(itertools.islice(words, per_block)):
            yield [list(values) for values in chunk], mass


def _walked(support, maps_per_block=None):
    """The support's `(values, mass)` pairs, in walk order, read from its blocks."""
    return [
        (tuple(row), mass) for block, mass in support.blocks(maps_per_block) for row in block.tolist()
    ]


MASK64 = 2**64 - 1


def splitmix64(seed):
    """The scalar SplitMix64 generator (Steele, Lea and Flood 2014): its outputs in turn."""
    state = seed
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def reference_words(seed):
    """Output k of a seed's scalar generator, as a function of k."""
    outputs, words = splitmix64(seed), []

    def word(k):
        while len(words) <= k:
            words.append(next(outputs))
        return words[k]

    return word


def reference_draw(word, width, j, bound):
    """Draw j of a `width`-wide row below `bound`: attempt a reads output 1 + a * width + j."""
    attempt = 0
    while True:
        product = (word(1 + attempt * width + j) >> 32) * bound
        if product % 2**32 >= (2**32 - bound) % bound:
            return product >> 32
        attempt += 1


def reference_row(bounds, seed):
    """A seed's (row, uniform), one scalar output at a time.

    Output 0 of the seed's generator is the uniform; output 1 + a * width + j
    is attempt a of draw j, taken by Lemire's 32-bit method on its high half.
    """
    word = reference_words(seed)
    row = [reference_draw(word, len(bounds), j, b) for j, b in enumerate(bounds)]
    return row, (word(0) >> 11) / 2**53


def _scalar_shuffle_prefix(n, r, draw, first):
    # one scalar draw per Fisher-Yates swap, from row position `first` on
    cells = list(range(n))
    for k in range(r):
        swap = k + draw(first + k, n - k)
        cells[k], cells[swap] = cells[swap], cells[k]
    return cells[:r]


def _scalar_small_range(n, r, draw):
    # Zhandry's construction: n draws into [r], then an injection of [r] into [n]
    into_range = [draw(j, r) for j in range(n)]
    injection = _scalar_shuffle_prefix(n, r, draw, n)
    return tuple(injection[v] for v in into_range)


def _scalar_drawer(seed, width):
    word = reference_words(seed)
    return lambda j, bound: reference_draw(word, width, j, bound)


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]


def seeds_for(count, key):
    """The edge seeds, then `count` random 64-bit seeds."""
    return EDGE_SEEDS + [random.Random(key).getrandbits(64) for _ in range(count)]


class TestStream:
    """`stream_rows` and `stream_seeds` against the scalar SplitMix64 reference."""

    @pytest.mark.parametrize(
        "n, r, count",
        [(4, 4, 10**4), (7, 3, 10**4), (16, 4, 700), (5, 1, 700), (1, 1, 700), (3, 2, 700)],
        ids=["dj-4-4", "7-3", "16-4", "5-1", "1-1", "3-2"],
    )
    def test_rows_equal_the_scalar_reference(self, n, r, count):
        # r = n ends a row with a bound of 1; (3, 2) has an odd width, and
        # (7, 3) and (3, 2) have bounds that are not powers of two
        bounds = SmallRangeParams(n, r).bounds
        seeds = seeds_for(count, n * 31 + r)
        got = list(stream_rows(bounds, seeds))
        assert got == [reference_row(bounds, s) for s in seeds]
        assert all(type(v) is int for row, _ in got for v in row)

    @pytest.mark.parametrize("n", [1, 5, 16, 17])
    def test_permutation_rows_equal_the_scalar_reference(self, n):
        bounds = range(n, 0, -1)
        seeds = seeds_for(300, n)
        assert list(stream_rows(bounds, seeds)) == [reference_row(bounds, s) for s in seeds]

    def test_widest_row(self):
        # n = 2048 at r = n: one 4096-int row per block
        bounds = SmallRangeParams(2048, 2048).bounds
        seeds = [0, 2**63 - 1, 91]
        assert list(stream_rows(bounds, seeds)) == [reference_row(bounds, s) for s in seeds]

    @pytest.mark.parametrize("count", [1, 511, 512, 513, 3 * 512 + 5])
    def test_partial_blocks(self, count):
        # 4096 row ints hold 512 DJ n=4 r=4 rows
        bounds = SmallRangeParams(4, 4).bounds
        seeds = seeds_for(count, count)[-count:]
        assert list(stream_rows(bounds, seeds)) == [reference_row(bounds, s) for s in seeds]

    def test_seed_words(self):
        for seed in seeds_for(100, 7):
            words = itertools.islice(splitmix64(seed), 40)
            assert stream_seeds(seed, 40).tolist() == [w >> 1 for w in words]

    def test_blocks_stay_within_block_ints(self, monkeypatch):
        shapes = []
        words = distributions._words

        def recording(seeds, counters):
            shapes.append(np.broadcast_shapes(np.shape(seeds), np.shape(counters)))
            return words(seeds, counters)

        monkeypatch.setattr(distributions, "_words", recording)
        assert len(list(stream_rows(SmallRangeParams(4, 4).bounds, range(2000)))) == 2000
        # each block takes its row words, then its uniforms
        assert shapes == [(512, 8), (512,)] * 3 + [(464, 8), (464,)]

    def test_rejected_draw_takes_its_next_attempt(self, monkeypatch):
        # bounds 3 and 5 reject a high half h when (h b) mod 2^32 < 1, so only
        # h = 0; h = 0xAAAAAAAB leaves exactly 1 at b = 3, so it is accepted
        highs = {0: 0, 1: 0, 2: 2**31, 3: 0, 5: 0xAAAAAAAB}
        asked = []

        def crafted(seeds, counters):
            shape = np.broadcast_shapes(np.shape(seeds), np.shape(counters))
            flat = np.broadcast_to(counters, shape).ravel().tolist()
            asked.append(flat)
            return np.array([highs[c] << 32 for c in flat], dtype=np.uint64).reshape(shape)

        monkeypatch.setattr(distributions, "_words", crafted)
        assert list(stream_rows([3, 5], [9])) == [([2, 2], 0.0)]
        # draw 0 takes attempts 0, 1 and 2 at counters 1, 3 and 5; draw 1 keeps counter 2
        assert asked == [[1, 2], [3], [5], [0]]

    @pytest.mark.parametrize("bound", [1, 2, 3, 5, 7, 12, 100])
    def test_uniform_per_bound(self, bound):
        draws = 20_000
        counts = Counter(row[0] for row, _ in stream_rows([bound], stream_seeds(bound, draws)))
        assert set(counts) == set(range(bound))
        p = 1 / bound
        sigma = math.sqrt(p * (1 - p) / draws)
        for value in range(bound):
            assert abs(counts[value] / draws - p) <= 4 * sigma

    def test_uniforms_are_uniform(self):
        draws = 20_000
        uniforms = [u for _, u in stream_rows([1], stream_seeds(3, draws))]
        assert all(0.0 <= u < 1.0 for u in uniforms)
        counts = Counter(int(10 * u) for u in uniforms)
        sigma = math.sqrt(0.1 * 0.9 / draws)
        assert all(abs(counts[k] / draws - 0.1) <= 4 * sigma for k in range(10))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            next(stream_rows([2], [seed]))
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            stream_seeds(seed, 1)

    @pytest.mark.parametrize("bounds", [[], [0], [2, 0], [2**32 + 1]])
    def test_bounds_outside_range_rejected(self, bounds):
        with pytest.raises(ValueError, match="bounds"):
            next(stream_rows(bounds, [0]))

    @pytest.mark.parametrize(
        "seeds",
        [np.array([-1]), np.array([3, -2]), np.array([1.7]), np.array([1.0]), [1.7], ["1"]],
        ids=["array-minus-1", "array-minus-2", "array-1.7", "array-1.0", "list-1.7", "list-str"],
    )
    def test_seed_not_a_64_bit_integer_rejected(self, seeds):
        # an int64 -1 would wrap to seed 2^64 - 1, and a float 1.7 truncate to seed 1
        with pytest.raises(ValueError, match="integer"):
            next(stream_rows([4, 4], seeds))
        with pytest.raises(ValueError, match="integer"):
            next(stream_blocks([4, 4], seeds))

    def test_integer_arrays_are_their_seeds(self):
        seeds = [0, 5, 2**63 - 1]
        want = [reference_row([4, 3], s) for s in seeds]
        for array in (np.array(seeds, dtype=np.int64), np.array(seeds, dtype=np.uint64)):
            assert list(stream_rows([4, 3], array)) == want
        assert list(stream_rows([4, 3], np.array([7], dtype=np.uint8))) == [reference_row([4, 3], 7)]

    def test_rows_are_the_blocks_rows(self):
        bounds = SmallRangeParams(4, 4).bounds
        seeds = stream_seeds(3, 1100)
        blocks = list(stream_blocks(bounds, seeds))
        assert [len(draws) for draws, _ in blocks] == [512, 512, 76]
        assert all(draws.dtype == np.intp and uniforms.dtype == np.float64 for draws, uniforms in blocks)
        flat = [(row, u) for draws, uniforms in blocks for row, u in zip(draws.tolist(), uniforms.tolist())]
        assert flat == list(stream_rows(bounds, seeds))


class TestSamplerStream:
    """Samplers fed stream rows equal the scalar construction on the scalar reference."""

    SEEDS = (0, 1, 7, 2**31 - 1)

    @pytest.mark.parametrize("n", range(1, 18))
    def test_small_range_matches_scalar_form(self, n):
        for r in range(1, n + 1):
            params = SmallRangeParams(n, r)
            rows = stream_rows(params.bounds, self.SEEDS)
            for seed, (row, uniform) in zip(self.SEEDS, rows, strict=True):
                draw = _scalar_drawer(seed, n + r)
                assert sample_small_range(params, row) == _scalar_small_range(n, r, draw)
                assert uniform == (reference_words(seed)(0) >> 11) / 2**53

    @pytest.mark.parametrize("n", range(1, 18))
    def test_permutation_matches_scalar_form(self, n):
        rows = stream_rows(range(n, 0, -1), self.SEEDS)
        for seed, (row, uniform) in zip(self.SEEDS, rows, strict=True):
            draw = _scalar_drawer(seed, n)
            assert sample_permutation(n, row) == tuple(
                _scalar_shuffle_prefix(n, n, draw, 0)
            )
            assert uniform == (reference_words(seed)(0) >> 11) / 2**53


def _shapes():
    for n in (1, 2, 3, 4, 5, 7, 8, 13, 16, 64):
        for r in sorted({1, 2, 3, n // 2, n - 1, n}):
            if 1 <= r <= n:
                yield n, r


class TestSampleSmallRangeBlock:
    """`sample_small_range_block` against the row sampler, its reference."""

    @pytest.mark.parametrize("n, r", list(_shapes()))
    def test_equals_the_row_sampler_row_by_row(self, n, r):
        # enough seeds for at least two stream blocks; (7, 3), (13, 6) and
        # others draw below bounds that are not powers of two
        params = SmallRangeParams(n, r)
        count = max(200, 4096 // (n + r) + 3)
        seeds = stream_seeds(n * 100 + r, count)
        blocks = list(stream_blocks(params.bounds, seeds))
        assert len(blocks) >= 2
        got = [
            tuple(values)
            for draws, _ in blocks
            for values in sample_small_range_block(params, draws).tolist()
        ]
        assert got == [sample_small_range(params, row) for row, _ in stream_rows(params.bounds, seeds)]

    def test_checked_block_holds_the_maps(self):
        params = SmallRangeParams(8, 3)
        ((draws, _),) = stream_blocks(params.bounds, stream_seeds(5, 200))
        block = index_map_block(8, sample_small_range_block(params, draws))
        assert block.shape == (200, 8)
        assert all(len(set(values)) <= 3 for values in block.tolist())
        unsigned = sample_small_range_block(params, draws.astype(np.uint64))
        assert unsigned.tolist() == block.tolist()

    @pytest.mark.parametrize("position", range(6))
    @pytest.mark.parametrize("outside", ["at-bound", "negative"])
    def test_draw_outside_its_bound_rejected(self, position, outside):
        # bounds at n=4 r=2: [2, 2, 2, 2] into [r], then swaps into [4] and [3]
        params = SmallRangeParams(4, 2)
        draws = np.zeros((3, 6), dtype=np.intp)
        draws[1, position] = params.bounds[position] if outside == "at-bound" else -1
        with pytest.raises(ValueError, match="draw outside its bounds"):
            sample_small_range_block(params, draws)
        ok = draws.copy()
        ok[1, position] = params.bounds[position] - 1
        assert sample_small_range_block(params, ok).shape == (3, 4)

    @pytest.mark.parametrize(
        "draws", [np.zeros((2, 5), dtype=int), np.zeros(6, dtype=int), np.zeros((2, 6))],
        ids=["narrow", "one-dimensional", "float"],
    )
    def test_wrong_block_rejected(self, draws):
        with pytest.raises(ValueError, match=r"\(B, 6\) integers"):
            sample_small_range_block(SmallRangeParams(4, 2), draws)


class TestRowSources:
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
        assert sample_permutation(3, [2, 1, 0]) == (2, 0, 1)


class TestSampleSmallRange:
    def test_r_one_is_constant(self):
        params = SmallRangeParams(6, 1)
        for draws, _ in stream_rows(params.bounds, stream_seeds(0, 50)):
            assert len(set(IndexFunction(6, sample_small_range(params, draws)).values)) == 1

    def test_identity_frequency_at_two(self):
        # exact mass of the identity at n=2, r=2 is 1/4
        params = SmallRangeParams(2, 2)
        draws = 40_000
        hits = sum(
            sample_small_range(params, row) == (0, 1)
            for row, _ in stream_rows(params.bounds, stream_seeds(1, draws))
        )
        sigma = math.sqrt(0.25 * 0.75 / draws)
        assert abs(hits / draws - 0.25) <= 4 * sigma

    def test_image_bound_large_n(self):
        params = SmallRangeParams(16, 4)
        for draws, _ in stream_rows(params.bounds, stream_seeds(2, 10_000)):
            assert len(set(IndexFunction(16, sample_small_range(params, draws)).values)) <= 4

    @settings(max_examples=40)
    @given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 2**64 - 1))
    def test_image_bound_property(self, n, r, seed):
        if r > n:
            r = n
        params = SmallRangeParams(n, r)
        ((draws, _),) = stream_rows(params.bounds, [seed])
        assert len(set(IndexFunction(n, sample_small_range(params, draws)).values)) <= r

    def test_params_validated(self):
        with pytest.raises(ValueError):
            SmallRangeParams(4, 5)
        with pytest.raises(ValueError):
            SmallRangeParams(4, 0)
        with pytest.raises(ValueError, match="^n must be positive$"):
            SmallRangeParams(0, 1)
        with pytest.raises(ValueError, match="^n or r value 2.5 is not an integer$"):
            SmallRangeParams(4, 2.5)
        with pytest.raises(ValueError, match="^n or r value 4.5 is not an integer$"):
            SmallRangeParams(4.5, 2)
        params = SmallRangeParams(4.0, 2.0)
        assert (params.n, params.r) == (4, 2) and type(params.n) is type(params.r) is int
        assert params.bounds == (2, 2, 2, 2, 4, 3)


class TestSamplePermutation:
    def test_n_one(self):
        ((swaps, _),) = stream_rows([1], [3])
        assert sample_permutation(1, swaps) == (0,)

    def test_always_injective(self):
        for swaps, _ in stream_rows(range(5, 0, -1), stream_seeds(4, 200)):
            assert len(set(IndexFunction(5, sample_permutation(5, swaps)).values)) == 5

    def test_uniform_at_three(self):
        draws = 60_000
        counts = {}
        for swaps, _ in stream_rows([3, 2, 1], stream_seeds(5, draws)):
            key = sample_permutation(3, swaps)
            counts[key] = counts.get(key, 0) + 1
        sigma = math.sqrt((1 / 6) * (5 / 6) / draws)
        assert len(counts) == 6
        for count in counts.values():
            assert abs(count / draws - 1 / 6) <= 3 * sigma


class TestEnumerator:
    def test_n2_r1_support(self):
        support = enumerate_small_range_support(SmallRangeParams(2, 1))
        masses = dict(_walked(support))
        assert masses == {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}

    def test_identity_mass_quarter(self):
        support = enumerate_small_range_support(SmallRangeParams(2, 2))
        assert support.probability_of(IndexFunction.identity(2)) == Fraction(1, 4)

    def test_mass_short_of_one_rejected(self):
        # exact: a float sum would round 1 - 2^-60 to 1
        # two maps of each image size at n = 2: 2/4 + 2 (1/4 - 2^-61) = 1 - 2^-60
        short = Fraction(1, 2**61)
        with pytest.raises(ValueError, match="not 1"):
            WeightedSupport(SmallRangeParams(2, 2), (Fraction(1, 4), Fraction(1, 4) - short))

    def test_mass_sums_to_one(self):
        for n, r in ((2, 2), (3, 2), (4, 3)):
            support = enumerate_small_range_support(SmallRangeParams(n, r))
            assert sum((p for _, p in _walked(support)), Fraction(0)) == 1

    def test_full_range_differs_from_permutations(self):
        # at r = n the distribution still puts half its mass on collisions
        support = enumerate_small_range_support(SmallRangeParams(2, 2))
        non_injective = sum(
            (p for g, p in _walked(support) if len(set(g)) < 2), Fraction(0)
        )
        assert non_injective == Fraction(1, 2)

    def test_image_bound_in_support(self):
        support = enumerate_small_range_support(SmallRangeParams(4, 2))
        assert all(len(set(g)) <= 2 for g, _ in _walked(support))

    @pytest.mark.parametrize("n, r", [(n, r) for n in range(1, 6) for r in range(1, n + 1)])
    def test_closed_form_equals_pair_walk(self, n, r):
        support = enumerate_small_range_support(SmallRangeParams(n, r))
        assert sorted(_walked(support)) == _pair_walk(n, r)

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
        draws = 100_000
        counts = {}
        for row, _ in stream_rows(params.bounds, stream_seeds(6, draws)):
            key = sample_small_range(params, row)
            counts[key] = counts.get(key, 0) + 1
        assert sum(counts.values()) == draws
        for values, prob in _walked(support):
            p = float(prob)
            sigma = math.sqrt(p * (1 - p) / draws)
            assert abs(counts.get(values, 0) / draws - p) <= 4 * sigma


class TestStreamedSupport:
    def test_walk_holds_one_map_at_a_time(self):
        # 11,736 maps: a list of them would take about 5 MB
        tracemalloc.start()
        try:
            support = enumerate_small_range_support(SmallRangeParams(6, 3))
            walked = sum(len(block) for block, _ in support.blocks())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert walked == len(support) == 11_736
        assert peak < 2**20

    def test_walk_holds_one_image_size_of_words(self):
        # 1,490,776 maps onto 16,382 words of image size 2: the words take 1.8 MB
        words = distributions._onto_words(14, 2)
        support = enumerate_small_range_support(SmallRangeParams(14, 2))
        tracemalloc.start()
        try:
            walked = sum(len(block) for block, _ in support.blocks())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert walked == len(support) == 1_490_776
        assert peak <= 2 * words.nbytes + 2**20

    @pytest.mark.parametrize(
        "n, r, per_block", [(1, 1, None), (4, 3, 1), (6, 3, 113), (5, 3, 64), (4, 4, 50), (8, 2, None)]
    )
    def test_blocks_are_the_product_walk(self, n, r, per_block):
        # (6, 3, 113), (5, 3, 64) and (4, 4, 50) cut blocks across cell sets
        support = enumerate_small_range_support(SmallRangeParams(n, r))
        walked = [(block.tolist(), mass) for block, mass in support.blocks(per_block)]
        assert walked == list(_product_walk(support, per_block or max(1, 4096 // n)))

    @pytest.mark.parametrize("per_block", [0, -1])
    def test_blocks_below_one_map_rejected(self, per_block):
        support = enumerate_small_range_support(SmallRangeParams(3, 2))
        message = f"^maps_per_block must be positive, got {per_block}$"
        with pytest.raises(ValueError, match=message):
            next(support.blocks(per_block))

    def test_walk_refuses_codes_past_int64_before_decoding(self, monkeypatch):
        monkeypatch.setenv("QSYMLAB_BUDGET", str(10**23))
        decoded = []
        onto = distributions._onto_words
        monkeypatch.setattr(distributions, "_onto_words", lambda n, k: decoded.append(k) or onto(n, k))
        support = enumerate_small_range_support(SmallRangeParams(63, 2))
        with pytest.raises(ValueError, match=r"needs r\^n < 2\^63, got 2\^63"):
            next(support.blocks())
        assert decoded == []
        # one below: the first block, image size 1, comes out
        below = enumerate_small_range_support(SmallRangeParams(62, 2))
        block, mass = next(below.blocks())
        assert decoded == [1] and block.shape == (62, 62) and mass == below.masses[0]

    @pytest.mark.parametrize("n, r", [(1, 1), (4, 2), (5, 5), (6, 3)])
    def test_len_is_the_closed_form_count(self, n, r):
        support = enumerate_small_range_support(SmallRangeParams(n, r))
        assert len(support) == sum(len(block) for block, _ in support.blocks())
        if r == n:
            assert len(support) == n**n

    def test_two_walks_agree(self):
        support = enumerate_small_range_support(SmallRangeParams(4, 3))
        first = _walked(support)
        assert _walked(support) == first

    def test_count_check_fires(self, monkeypatch):
        onto = distributions._onto_words
        monkeypatch.setattr(distributions, "_onto_words", lambda n, k: onto(n, k)[1:])
        support = enumerate_small_range_support(SmallRangeParams(3, 2))
        with pytest.raises(ValueError, match="image size 1 yielded 0 maps, not 3"):
            list(support.blocks())

    @pytest.mark.parametrize(
        "broken",
        [lambda words: np.repeat(words, 2, axis=0), lambda words: words[::-1], lambda words: words + 1],
        ids=["repeated", "reversed", "shifted"],
    )
    def test_order_check_fires(self, monkeypatch, broken):
        onto = distributions._onto_words
        monkeypatch.setattr(distributions, "_onto_words", lambda n, k: broken(onto(n, k)))
        support = enumerate_small_range_support(SmallRangeParams(3, 2))
        with pytest.raises(ValueError, match=r"onto words of image size \d repeat, fall out of order"):
            list(support.blocks())

    @pytest.mark.parametrize("n, r, per_block", [(4, 3, 7), (5, 2, 1), (6, 3, 113), (3, 3, 1000)])
    def test_blocks_hold_the_walk_in_order(self, n, r, per_block):
        support = enumerate_small_range_support(SmallRangeParams(n, r))
        blocks = list(support.blocks(per_block))
        assert _walked(support, per_block) == _walked(support)
        for block, w in blocks:
            assert 1 <= len(block) <= per_block and not block.flags.writeable
            # one image size, hence one mass, per block
            (k,) = {len(set(row)) for row in block.tolist()}
            assert w == support.masses[k - 1]

    @pytest.mark.parametrize(
        "n, r, per_block", [(1, 1, 1), (3, 2, 1), (4, 4, 5), (5, 3, 64), (5, 5, 4096)]
    )
    def test_blocks_are_the_pair_walk_in_checked_blocks(self, n, r, per_block):
        support = enumerate_small_range_support(SmallRangeParams(n, r))
        for block, mass in support.blocks(per_block):
            assert block.dtype == np.intp and block.shape[1:] == (n,) and not block.flags.writeable
            assert 1 <= len(block) <= per_block
            (k,) = {len(set(row)) for row in block.tolist()}
            assert mass == support.masses[k - 1] and isinstance(mass, Fraction)
        assert sorted(_walked(support, per_block)) == _pair_walk(n, r)

    def test_blocks_keep_the_count_and_order_checks(self, monkeypatch):
        onto = distributions._onto_words
        support = enumerate_small_range_support(SmallRangeParams(3, 2))
        monkeypatch.setattr(distributions, "_onto_words", lambda n, k: onto(n, k)[1:])
        with pytest.raises(ValueError, match="image size 1 yielded 0 maps, not 3"):
            list(support.blocks(4))
        monkeypatch.setattr(distributions, "_onto_words", lambda n, k: onto(n, k)[::-1])
        with pytest.raises(ValueError, match="onto words of image size 2 repeat, fall out of order"):
            list(support.blocks(4))

    def test_probability_of_is_the_closed_form(self):
        support = enumerate_small_range_support(SmallRangeParams(4, 2))
        assert all(support.probability_of(IndexFunction(4, g)) == p for g, p in _walked(support))
        assert support.probability_of(IndexFunction.identity(4)) == 0
        assert support.probability_of(IndexFunction(3, (0, 0, 0))) == 0

    def test_one_mass_per_image_size(self):
        with pytest.raises(ValueError, match="one mass per image size 1..2, got 1"):
            WeightedSupport(SmallRangeParams(2, 2), (Fraction(1, 2),))
