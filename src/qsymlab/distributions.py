"""Samplers, the Monte Carlo stream, and exact enumerators for index-map
distributions.

The small-range distribution over maps [n] -> [n] with image size at most r
is sampled as a composition: a uniform function into [r] followed by a
uniform injection of [r] into [n]. The samplers are pure functions of one
row of uniform integers below `SmallRangeParams.bounds`: n draws into [r],
then one draw into [n - k] per Fisher-Yates swap. A row with a draw outside
its bounds raises ValueError. `sample_small_range` returns one row's map
as a tuple of ints; `sample_small_range_block` returns the maps of a block
of rows as an array, with r vector swap steps and one gather, and equals
the row sampler row by row. The code that holds the maps checks them once,
in a `core.index_map_block`: a compiled run's block of trials (a replay's
block of one), or a sampled sweep's stack of rows.

All Monte Carlo randomness comes from one stream: SplitMix64 (Steele, Lea
and Flood 2014) keyed by a seed s in [0, 2^64), whose word j is the
SplitMix64 mix of s + (j + 1) * 0x9E3779B97F4A7C15 mod 2^64, so any word of
any seed is computed directly, for many seeds at once. `stream_seeds`
cuts words 0, 1, ... of one seed's stream to 63-bit seeds of other streams.
`stream_blocks` gives each seed one row and one uniform from its own
stream, a block of seeds at a time, and `stream_rows` the same one seed at
a time:

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
stores one mass per image size and lists the maps one way only, a checked
`core.index_map_block` block at a time as it is walked, so an exact sweep
holds one block of maps at a time and checks each map once, with its
block. The walk computes the words onto k symbols once per image size k,
as one array decoded from base-k codes, and maps it through each k-cell
set; so it also holds one image size's words, at most n k^n ints, which
the enumeration budget bounds.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import IndexFunction, _as_ints, index_map_block

DEFAULT_ENUMERATION_BUDGET = 10_000_000
# ints per block, unless one row is wider: the row ints `stream_blocks` draws, the
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
    """Map size n and image budget r, as ints; the library's one check that r lies in [1, n]."""

    n: int
    r: int

    def __post_init__(self) -> None:
        n, r = _as_ints((self.n, self.r), "n or r value")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
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


def _onto_words(n: int, k: int) -> np.ndarray:
    """The words of length n over range(k) that use every symbol, in
    lexicographic order, as one (m, n) intp array: base-k codes 0, 1, ...
    decoded a run at a time, onto rows kept. Needs k^n < 2^63."""
    places = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    per_run = max(1, _BLOCK_INTS // n)
    runs = []
    for start in range(0, k**n, per_run):
        digits = np.arange(start, min(start + per_run, k**n), dtype=np.int64)[:, None] // places % k
        runs.append(digits[np.bitwise_or.reduce(1 << digits, axis=1) == (1 << k) - 1])
    return np.concatenate(runs).astype(np.intp, copy=False)


@dataclass(frozen=True)
class WeightedSupport:
    """Exact law over the maps [n] -> [n] with image size at most r, by image size.

    `masses[k - 1]` is the rational mass of each map with image size k. The
    support holds no maps: `blocks` lists them, in (image size, image cells,
    word) order, as checked blocks that each hold maps of one image size, so
    it can be walked any number of times. A walk computes the words of
    length n onto range(k) once per image size k and maps them through each
    sorted k-cell set in turn, so it holds one image size's words (at most
    n k^n ints) and one block. Construction checks that the masses sum to
    exactly 1; each walk checks, once per image size, that the words
    strictly increase (mapping through a sorted cell set keeps their order,
    and maps onto distinct cells differ in their image) and that the cell
    sets times the words give the closed-form count.
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

    def blocks(self, maps_per_block: Optional[int] = None) -> Iterator[tuple[np.ndarray, Fraction]]:
        """The maps in walk order as `core.index_map_block` blocks of at most
        `maps_per_block` rows (by default as many as hold `_BLOCK_INTS` ints),
        all of one image size, each with the exact mass of each of its maps."""
        n, r = self.params.n, self.params.r
        if r**n >= 2**63:  # checked before any word is decoded
            raise ValueError(
                f"the support walk codes words as int64, so it needs r^n < 2^63, got {r}^{n}"
            )
        if maps_per_block is None:
            maps_per_block = max(1, _BLOCK_INTS // n)
        elif maps_per_block < 1:
            raise ValueError(f"maps_per_block must be positive, got {maps_per_block}")
        for k, (mass, size) in enumerate(zip(self.masses, self._sizes), start=1):
            words = _onto_words(n, k)
            m = len(words)
            # digits below k increase as rows exactly when their base-k codes increase
            codes = words @ k ** np.arange(n - 1, -1, -1)
            if m and not (0 <= words.min() and words.max() < k and (np.diff(codes) > 0).all()):
                raise ValueError(
                    f"onto words of image size {k} repeat, fall out of order or leave range({k})"
                )
            cell_sets = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
            made = len(cell_sets) * m
            if made != size:
                raise ValueError(f"image size {k} yielded {made} maps, not {size}")
            # map i is word i % m onto cell set i // m: a sorted cell set keeps the words' order
            for start in range(0, made, maps_per_block):
                stop = min(start + maps_per_block, made)
                pieces = [
                    cell_sets[c].take(words[max(start - c * m, 0) : stop - c * m])
                    for c in range(start // m, (stop - 1) // m + 1)
                ]
                yield index_map_block(n, np.concatenate(pieces)), mass

    def probability_of(self, g: IndexFunction) -> Fraction:
        k = len(set(g.values))
        return self.masses[k - 1] if g.n == self.params.n and k <= self.params.r else Fraction(0)


def _words(seeds: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Word `counters` of each seed's SplitMix64 stream, broadcast; uint64 arithmetic wraps."""
    z = seeds + (counters + np.uint64(1)) * _GAMMA
    z ^= z >> np.uint64(30)
    z *= _MIX_A
    z ^= z >> np.uint64(27)
    z *= _MIX_B
    z ^= z >> np.uint64(31)
    return z


def _is_seed(s) -> bool:
    try:
        return 0 <= operator.index(s) < 2**64
    except TypeError:  # a float or other value that is not an integer
        return False


def _as_seeds(seeds) -> np.ndarray:
    """The seeds as a uint64 array; raises unless each is an integer in [0, 2^64)."""
    if isinstance(seeds, np.ndarray):
        if seeds.dtype == np.uint64:  # as `stream_seeds` returns them: every value is a seed
            return seeds
        if seeds.dtype.kind not in "iu":
            raise ValueError(f"stream seeds must be integers, got dtype {seeds.dtype}")
        seeds = seeds.tolist()
    seeds = list(seeds)
    bad = [s for s in seeds if not _is_seed(s)]
    if bad:
        raise ValueError(f"a stream seed must be an integer in [0, 2^64), got {bad[0]}")
    return np.array(seeds, dtype=np.uint64)


def stream_seeds(seed: int, count: int) -> np.ndarray:
    """Words 0..count-1 of `seed`'s stream, each cut to a seed in [0, 2^63)."""
    return _words(_as_seeds([seed]), np.arange(count, dtype=np.uint64)) >> np.uint64(1)


def stream_blocks(bounds: Sequence[int], seeds) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The seeds' rows in blocks: each block's draws below `bounds` as a
    (B, len(bounds)) intp array, and its B uniforms in [0, 1) as float64.

    The words each seed takes are in the module docstring. A block holds at
    most `_BLOCK_INTS` row ints, unless one row is wider.
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
        yield (product >> np.uint64(32)).astype(np.intp), uniforms


def stream_rows(bounds: Sequence[int], seeds) -> Iterator[tuple[list[int], float]]:
    """Each seed's `(row, uniform)` as Python ints and a float: `stream_blocks`, one row at a time."""
    for rows, uniforms in stream_blocks(bounds, seeds):
        yield from zip(rows.tolist(), uniforms.tolist())


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


def sample_small_range(params: SmallRangeParams, draws: list[int]) -> tuple[int, ...]:
    """The values of the small-range map of one row below `params.bounds`;
    image size is at most r. The caller's `IndexFunction` or block checks them."""
    n, r = params.n, params.r
    _check_row(draws, n + r, "small-range")
    try:
        injection = _injection_prefix(n, draws[n:])
        return tuple(map(injection.__getitem__, draws[:n]))
    except IndexError:
        raise ValueError(f"a small-range row has a draw above its bound: {draws}") from None


def sample_small_range_block(params: SmallRangeParams, draws: np.ndarray) -> np.ndarray:
    """`sample_small_range` on each row of a (B, n + r) block of draws, at once:
    r vector swap steps of the partial Fisher-Yates, then one gather. Returns
    the (B, n) values for the caller's `core.index_map_block` to check."""
    n, r = params.n, params.r
    draws = np.asarray(draws)
    if draws.ndim != 2 or draws.shape[1] != n + r or draws.dtype.kind not in "iu":
        raise ValueError(f"a small-range block is (B, {n + r}) integers, got {draws.dtype} {draws.shape}")
    outside = (draws < 0) | (draws >= np.array(params.bounds))
    if outside.any():
        row = draws[outside.any(axis=1)][0].tolist()
        raise ValueError(f"a small-range row has a draw outside its bounds: {row}")
    draws = draws.astype(np.intp, copy=False)
    count = len(draws)
    cells = np.tile(np.arange(n), count)  # the rows' cells, end to end
    here = np.arange(0, count * n, n) + np.arange(r)[:, None]  # swap k's first cell, per row
    for i, j in zip(here, here + draws[:, n:].T):
        held = cells[i]
        cells[i] = cells[j]
        cells[j] = held
    return np.take_along_axis(cells.reshape(count, n)[:, :r], draws[:, :n], axis=1)


def sample_permutation(n: int, swaps: list[int]) -> tuple[int, ...]:
    """The values of the permutation of [n] of one row below n, n-1, ..., 1;
    the caller's `IndexFunction` or block checks them."""
    _check_row(swaps, n, "permutation")
    try:
        return tuple(_injection_prefix(n, swaps))
    except IndexError:
        raise ValueError(f"a permutation row has a draw above its bound: {swaps}") from None


def check_support_budget(params: SmallRangeParams) -> None:
    """Fail unless the enumerator's visits for `params` fit the budget.

    The count, sum over k <= r of C(n, k) k^n, is the words the first
    support walk filtered: every word over each k-cell set. It stays the
    bound so that the same requests pass; it also bounds k^n, so one image
    size's words take at most n times the budget in ints.
    """
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
