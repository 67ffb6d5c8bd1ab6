"""Samplers and exact enumerators for index-map distributions.

The small-range distribution over maps [n] -> [n] with image size at most r
is sampled as a composition: a uniform function into [r] followed by a
uniform injection of [r] into [n]. The samplers are pure functions of one
row of uniform integers: n draws into [r], then one draw into [n - k] per
Fisher-Yates swap. `small_range_draws` and `permutation_draws` yield such
rows, drawing a block of rows per generator call against a cached, tiled
array of bounds. numpy draws array-bound integers element by element, so
the rows consume the stream exactly as one call per draw, or the scalar
form, does. A row source draws a block ahead, so it must be consumed before
anything else draws from its generator. A row with a draw outside its
bounds raises ValueError. The enumerator gives each map with image size
k <= r its closed-form mass (r)_k (n-k)! / (r^n n!), serving as the
ground-truth oracle for the samplers and for exact expectation sweeps.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .core import IndexFunction

DEFAULT_ENUMERATION_BUDGET = 10_000_000
_BLOCK_INTS = 4096  # ints a row source draws per generator call, unless one row is wider


def enumeration_budget() -> int:
    """Budget for exhaustive enumeration and tables; QSYMLAB_BUDGET overrides."""
    return int(os.environ.get("QSYMLAB_BUDGET", DEFAULT_ENUMERATION_BUDGET))


@dataclass(frozen=True)
class SmallRangeParams:
    n: int
    r: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 1 <= self.r <= self.n:
            raise ValueError(f"r must lie in [1, {self.n}], got {self.r}")


@dataclass(frozen=True)
class WeightedSupport:
    """Exact distribution over index maps; probabilities are rationals."""

    entries: tuple[tuple[IndexFunction, Fraction], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        # few distinct masses: one exact product per mass, not one add per entry;
        # keyed by (numerator, denominator), as hashing a Fraction costs a modular inverse
        masses = Counter((p.numerator, p.denominator) for _, p in self.entries)
        total = sum((Fraction(*p) * count for p, count in masses.items()), Fraction(0))
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        seen = {g.values for g, _ in self.entries}
        if len(seen) != len(self.entries):
            raise ValueError("support entries must be distinct")

    def __len__(self) -> int:
        return len(self.entries)

    def float_entries(self) -> list[tuple[IndexFunction, float]]:
        """The entries with each mass as a float, converting each distinct mass once.

        Equal masses give equal floats, so this matches `float(p)` per entry.
        """
        floats: dict[tuple[int, int], float] = {}
        out = []
        for g, p in self.entries:
            key = (p.numerator, p.denominator)  # cheaper to hash than the Fraction
            w = floats.get(key)
            if w is None:
                w = floats[key] = float(p)
            out.append((g, w))
        return out

    def probability_of(self, g: IndexFunction) -> Fraction:
        for entry, p in self.entries:
            if entry.values == g.values:
                return p
        return Fraction(0)


@functools.lru_cache(maxsize=64)  # each holds at most max(_BLOCK_INTS, row width) ints
def _block_bounds(n: int, r: int, swaps_only: bool) -> np.ndarray:
    # one row's bounds, tiled to a block of rows: r repeated n times (the map
    # into [r]) unless swaps_only, then n, n-1, ..., n-r+1 (the swaps)
    row = ([] if swaps_only else [r] * n) + list(range(n, n - r, -1))
    bounds = np.tile(np.array(row, dtype=np.int64), max(1, _BLOCK_INTS // len(row)))
    bounds.setflags(write=False)
    return bounds


def _rows(
    block_bounds: np.ndarray, width: int, rng: np.random.Generator, count: int
) -> Iterator[list[int]]:
    per_block = len(block_bounds) // width
    for done in range(0, count, per_block):
        size = min(per_block, count - done) * width
        block = rng.integers(0, block_bounds[:size]).tolist()  # at most one block of ints
        for start in range(0, size, width):
            yield block[start : start + width]


def small_range_draws(
    params: SmallRangeParams, rng: np.random.Generator, count: int
) -> Iterator[list[int]]:
    """`count` rows of n + r ints for `sample_small_range`, a block per generator call."""
    return _rows(_block_bounds(params.n, params.r, False), params.n + params.r, rng, count)


def permutation_draws(n: int, rng: np.random.Generator, count: int) -> Iterator[list[int]]:
    """`count` rows of n ints for `sample_permutation`, a block per generator call."""
    return _rows(_block_bounds(n, n, True), n, rng, count)


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
    """The small-range map of one row of `small_range_draws`; image size is at most r."""
    n, r = params.n, params.r
    _check_row(draws, n + r, "small-range")
    try:
        injection = _injection_prefix(n, draws[n:])
        values = tuple(injection[v] for v in draws[:n])
    except IndexError:
        raise ValueError(f"a small-range row has a draw above its bound: {draws}") from None
    return IndexFunction(n, values)


def sample_permutation(n: int, swaps: list[int]) -> IndexFunction:
    """The permutation of [n] of one row of `permutation_draws`."""
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
        raise ValueError(f"enumeration visits {visited} maps, budget is {budget}")


def enumerate_small_range_support(params: SmallRangeParams) -> WeightedSupport:
    """Exact law of the composed map: each map with image size <= r, visited once."""
    check_support_budget(params)
    n, r = params.n, params.r
    entries = []
    for k in range(1, r + 1):
        # (r)_k (n-k)!/(n-r)! of the r^n n!/(n-r)! (map, injection) pairs give each such map
        mass = Fraction(math.perm(r, k) * math.factorial(n - k), r**n * math.factorial(n))
        for cells in itertools.combinations(range(n), k):
            words = itertools.product(cells, repeat=n)
            entries.extend((values, mass) for values in words if len(set(values)) == k)
    entries.sort()
    return WeightedSupport(tuple((IndexFunction(n, values), p) for values, p in entries))


def is_injective(g: IndexFunction) -> bool:
    return len(set(g.values)) == g.n
