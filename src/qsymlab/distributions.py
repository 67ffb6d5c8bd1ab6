"""Samplers, the Monte Carlo stream, and exact enumerators for index-map
distributions.

The small-range distribution over maps [n] -> [n] with image size at most r
is sampled as a composition: a uniform function into [r] followed by a
uniform injection of [r] into [n]. The samplers are pure functions of one
row of uniform integers below `SmallRangeParams.bounds`: n draws into [r],
then one draw into [n - k] per Fisher-Yates swap. A row with a draw outside
its bounds raises ValueError.

All Monte Carlo randomness comes from one stream: SplitMix64 (Steele, Lea
and Flood 2014) keyed by a seed s in [0, 2^64), whose word j is the
SplitMix64 mix of s + (j + 1) * 0x9E3779B97F4A7C15 mod 2^64, so any word of
any seed is computed directly, for many seeds at once. `stream_seeds`
cuts words 0, 1, ... of one seed's stream to 63-bit seeds of other streams.
`stream_rows` gives each seed one row and one uniform from its own stream:

- word 0 is the uniform, (w >> 11) 2^-53;
- word 1 + a w + j is attempt a of the row's draw j, for a row of width w.
  The draw below bound b is Lemire's 32-bit multiply-shift (2019) of the
  word's high half h: (h b) >> 32, rejected when (h b) mod 2^32 is below
  (2^32 - b) mod b, which happens with probability below b / 2^32 and
  never when b is a power of two. A rejected draw takes attempt a + 1.

So no two quantities share a word, and a row is exact and depends on its
seed alone. The enumerator gives each map with image size k <= r its
closed-form mass (r)_k (n-k)! / (r^n n!), serving as the ground-truth
oracle for the samplers and for exact expectation sweeps. Its support
stores one mass per image size and lists the maps a chunk at a time as it
is walked, either as checked `IndexFunction`s one by one or as checked
`core.index_map_block` blocks, so an exact sweep holds one chunk of maps at
a time: the enumeration budget bounds the maps visited, that is time, not
memory.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .core import IndexFunction, index_map_block

DEFAULT_ENUMERATION_BUDGET = 10_000_000
# ints per block, unless one row is wider: the row ints `stream_rows` draws, the
# words a support walk lists, and a `disting` sweep's N state positions per map
_BLOCK_INTS = 4096
# SplitMix64's increment and its two mix multipliers
_GAMMA, _MIX_A, _MIX_B = map(np.uint64, (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
_LOW32 = np.uint64(2**32 - 1)


def enumeration_budget() -> int:
    """Budget for exhaustive enumeration and tables; QSYMLAB_BUDGET overrides."""
    raw = os.environ.get("QSYMLAB_BUDGET", str(DEFAULT_ENUMERATION_BUDGET))
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"QSYMLAB_BUDGET must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class SmallRangeParams:
    """Map size n and image budget r; the library's one check that r lies in [1, n]."""

    n: int
    r: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 1 <= self.r <= self.n:
            raise ValueError(f"r outside [1, {self.n}]: {self.r}")

    @property
    def bounds(self) -> tuple[int, ...]:
        """One sampler row's bounds: r for each of the n entries, then n, n-1, ..., n-r+1."""
        return (self.r,) * self.n + tuple(range(self.n, self.n - self.r, -1))


def _class_size(n: int, k: int) -> int:
    """Maps [n] -> [n] with image size exactly k: C(n, k) cell sets times the
    surjections of [n] onto k cells, by inclusion-exclusion."""
    onto = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    return math.comb(n, k) * onto


def _onto(n: int, cells: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The words of length n over `cells` that use every cell, in lexicographic order."""
    k = len(cells)
    return (values for values in itertools.product(cells, repeat=n) if len(set(values)) == k)


@dataclass(frozen=True)
class WeightedSupport:
    """Exact law over the maps [n] -> [n] with image size at most r, by image size.

    `masses[k - 1]` is the rational mass of each map with image size k. The
    support holds no maps: iterating it builds each `(IndexFunction, mass)`
    in turn, in (image size, image cells, word) order, so it can be walked
    any number of times in constant memory. Construction checks that the
    masses sum to exactly 1; each walk checks that the maps onto one cell set
    strictly increase (maps onto distinct cells differ in their image) and
    that each image size yields its closed-form count. A walk lists the words
    a chunk at a time; `float_blocks` hands each chunk on as one checked block.
    """

    params: SmallRangeParams
    masses: tuple[Fraction, ...]
    _sizes: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "masses", tuple(self.masses))
        n, r = self.params.n, self.params.r
        if len(self.masses) != r:
            raise ValueError(f"expected one mass per image size 1..{r}, got {len(self.masses)}")
        sizes = tuple(_class_size(n, k) for k in range(1, r + 1))
        object.__setattr__(self, "_sizes", sizes)
        total = sum((size * p for size, p in zip(sizes, self.masses)), Fraction(0))
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def __len__(self) -> int:
        return sum(self._sizes)

    def __iter__(self) -> Iterator[tuple[IndexFunction, Fraction]]:
        return self._entries(self.masses)

    def float_entries(self) -> Iterator[tuple[IndexFunction, float]]:
        """The maps with their masses as floats, each image size's converted once."""
        return self._entries([float(p) for p in self.masses])

    def float_blocks(self, maps_per_block: int) -> Iterator[tuple[np.ndarray, float]]:
        """The maps in walk order as `core.index_map_block` blocks of at most
        `maps_per_block` rows, all of one image size, each with its float mass."""
        n = self.params.n
        for words, weight in self._walk([float(p) for p in self.masses], maps_per_block):
            yield index_map_block(n, words), weight

    def probability_of(self, g: IndexFunction) -> Fraction:
        k = len(set(g.values))
        return self.masses[k - 1] if g.n == self.params.n and k <= self.params.r else Fraction(0)

    def _entries(self, weights):
        n = self.params.n
        for words, weight in self._walk(weights, max(1, _BLOCK_INTS // n)):
            for values in words:
                yield IndexFunction(n, values), weight

    def _walk(self, weights, per_chunk: int):
        """Lists of at most `per_chunk` words, each list of one image size, with its weight."""
        for k, (weight, size) in enumerate(zip(weights, self._sizes), start=1):
            words = _ordered_words(self.params.n, k)
            made = 0
            while chunk := list(itertools.islice(words, per_chunk)):
                made += len(chunk)
                yield chunk, weight
            if made != size:
                raise ValueError(f"image size {k} yielded {made} maps, not {size}")


def _ordered_words(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """The words onto each k-cell set in turn; raises unless each set's words strictly increase."""
    for cells in itertools.combinations(range(n), k):
        last: tuple[int, ...] = ()  # below every word
        for values in _onto(n, cells):
            if values <= last:
                raise ValueError(f"maps onto {cells} repeat or fall out of order at {values}")
            last = values
            yield values


def _words(seeds: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Word `counters` of each seed's SplitMix64 stream, broadcast; uint64 arithmetic wraps."""
    z = seeds + (counters + np.uint64(1)) * _GAMMA
    z ^= z >> np.uint64(30)
    z *= _MIX_A
    z ^= z >> np.uint64(27)
    z *= _MIX_B
    z ^= z >> np.uint64(31)
    return z


def _as_seeds(seeds) -> np.ndarray:
    # an array comes from `stream_seeds`; Python ints are checked
    if isinstance(seeds, np.ndarray):
        return seeds.astype(np.uint64, copy=False)
    bad = [s for s in seeds if not 0 <= s < 2**64]
    if bad:
        raise ValueError(f"a stream seed must lie in [0, 2^64), got {bad[0]}")
    return np.array(seeds, dtype=np.uint64)


def stream_seeds(seed: int, count: int) -> np.ndarray:
    """Words 0..count-1 of `seed`'s stream, each cut to a seed in [0, 2^63)."""
    return _words(_as_seeds([seed]), np.arange(count, dtype=np.uint64)) >> np.uint64(1)


def stream_rows(bounds: Sequence[int], seeds) -> Iterator[tuple[list[int], float]]:
    """Each seed's `(row, uniform)`: draws below `bounds` and a float in [0, 1).

    The words each takes are in the module docstring. Seeds go through in
    blocks of at most `_BLOCK_INTS` row ints, unless one row is wider.
    """
    b = np.array(bounds, dtype=np.uint64)
    width = len(b)
    if width == 0 or not 1 <= int(b.min()) <= int(b.max()) <= 2**32:
        raise ValueError(f"row bounds must be a non-empty list in [1, 2^32], got {list(bounds)}")
    threshold = (2**32 - b) % b
    lanes = np.arange(1, width + 1, dtype=np.uint64)
    seeds = _as_seeds(seeds)
    per_block = max(1, _BLOCK_INTS // width)
    for start in range(0, len(seeds), per_block):
        block = seeds[start : start + per_block, None]
        product = (_words(block, lanes) >> np.uint64(32)) * b
        rejected = (product & _LOW32) < threshold
        attempt = 1
        while rejected.any():
            rows, cols = np.nonzero(rejected)
            counters = (attempt * width + 1 + cols).astype(np.uint64)
            redrawn = (_words(block[rows, 0], counters) >> np.uint64(32)) * b[cols]
            product[rows, cols] = redrawn
            rejected[rows, cols] = (redrawn & _LOW32) < threshold[cols]
            attempt += 1
        uniforms = (_words(block[:, 0], np.uint64(0)) >> np.uint64(11)) * 2.0**-53
        yield from zip((product >> np.uint64(32)).tolist(), uniforms.tolist())


def _check_row(draws: list[int], width: int, kind: str) -> None:
    # a negative draw would wrap through Python indexing; a too-large one raises IndexError
    if len(draws) != width:
        raise ValueError(f"a {kind} row has {width} draws, got {len(draws)}")
    if draws and min(draws) < 0:
        raise ValueError(f"a {kind} row's draws must be non-negative, got {min(draws)}")


def _injection_prefix(n: int, swaps: list[int]) -> list[int]:
    # partial Fisher-Yates: the first len(swaps) cells of a uniform shuffle of [n]
    cells = list(range(n))
    for k, offset in enumerate(swaps):
        swap = k + offset
        cells[k], cells[swap] = cells[swap], cells[k]
    return cells[: len(swaps)]


def sample_small_range(params: SmallRangeParams, draws: list[int]) -> IndexFunction:
    """The small-range map of one row below `params.bounds`; image size is at most r."""
    n, r = params.n, params.r
    _check_row(draws, n + r, "small-range")
    try:
        injection = _injection_prefix(n, draws[n:])
        values = tuple(injection[v] for v in draws[:n])
    except IndexError:
        raise ValueError(f"a small-range row has a draw above its bound: {draws}") from None
    return IndexFunction(n, values)


def sample_permutation(n: int, swaps: list[int]) -> IndexFunction:
    """The permutation of [n] of one row below n, n-1, ..., 1."""
    _check_row(swaps, n, "permutation")
    try:
        values = tuple(_injection_prefix(n, swaps))
    except IndexError:
        raise ValueError(f"a permutation row has a draw above its bound: {swaps}") from None
    return IndexFunction(n, values)


def check_support_budget(params: SmallRangeParams) -> None:
    """Fail unless the enumerator's visits for `params` fit the budget; the
    visits, one per map with image size <= r, grow with r."""
    n, r = params.n, params.r
    visited = sum(math.comb(n, k) * k**n for k in range(1, r + 1))
    budget = enumeration_budget()
    if visited > budget:
        raise ValueError(f"enumeration visits {visited} maps, budget is {budget} (QSYMLAB_BUDGET)")


def enumerate_small_range_support(params: SmallRangeParams) -> WeightedSupport:
    """Exact law of the composed map: each map with image size <= r, visited once per walk."""
    check_support_budget(params)
    n, r = params.n, params.r
    # (r)_k (n-k)!/(n-r)! of the r^n n!/(n-r)! (map, injection) pairs give each map of image size k
    masses = (
        Fraction(math.perm(r, k) * math.factorial(n - k), r**n * math.factorial(n))
        for k in range(1, r + 1)
    )
    return WeightedSupport(params, tuple(masses))


def is_injective(g: IndexFunction) -> bool:
    return len(set(g.values)) == g.n
