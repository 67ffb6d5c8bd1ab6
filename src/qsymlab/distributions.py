"""Samplers and exact enumerators for index-map distributions.

The small-range distribution over maps [n] -> [n] with image size at most r
is sampled as a composition: a uniform function into [r] followed by a
uniform injection of [r] into [n]. The enumerator gives each map with image
size k <= r its closed-form mass (r)_k (n-k)! / (r^n n!), serving as the
ground-truth oracle for the samplers and for exact expectation sweeps.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import IndexFunction

DEFAULT_ENUMERATION_BUDGET = 10_000_000


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
        total = sum((p for _, p in self.entries), Fraction(0))
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        seen = {g.values for g, _ in self.entries}
        if len(seen) != len(self.entries):
            raise ValueError("support entries must be distinct")

    def __len__(self) -> int:
        return len(self.entries)

    def probability_of(self, g: IndexFunction) -> Fraction:
        for entry, p in self.entries:
            if entry.values == g.values:
                return p
        return Fraction(0)


def _injection_prefix(n: int, r: int, rng: np.random.Generator) -> list[int]:
    # partial Fisher-Yates: the first r cells of a uniform shuffle of [n]
    cells = list(range(n))
    for k in range(r):
        swap = k + int(rng.integers(0, n - k))
        cells[k], cells[swap] = cells[swap], cells[k]
    return cells[:r]


def sample_small_range(params: SmallRangeParams, rng: np.random.Generator) -> IndexFunction:
    """One draw of the small-range distribution; image size is at most r."""
    n, r = params.n, params.r
    into_range = rng.integers(0, r, size=n)
    injection = _injection_prefix(n, r, rng)
    return IndexFunction(n, tuple(injection[v] for v in into_range))


def sample_permutation(n: int, rng: np.random.Generator) -> IndexFunction:
    """Uniform permutation of [n]."""
    return IndexFunction(n, tuple(_injection_prefix(n, n, rng)))


def enumerate_small_range_support(params: SmallRangeParams) -> WeightedSupport:
    """Exact law of the composed map: each map with image size <= r, visited once."""
    n, r = params.n, params.r
    visited = sum(math.comb(n, k) * k**n for k in range(1, r + 1))
    budget = enumeration_budget()
    if visited > budget:
        raise ValueError(f"enumeration visits {visited} maps, budget is {budget}")
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
