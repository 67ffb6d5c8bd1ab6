"""Distinguishing-advantage measurements: uniform permutations versus
small-range index maps.

Expectations are taken over the oracle draw only; per-oracle output
probabilities come exactly from the simulator, so Monte Carlo noise enters
through the draw alone. The hardness bound's absolute constant is unknown,
so nothing here asserts a bound value; the probe reports curves. Reports
are plain records: the CLI turns their fields into JSON entries and CSV rows.

A Monte Carlo sweep keyed by a seed gives report k (k-th distinct r) the
seed made of word k of that seed's stream (see `distributions`). A report's
seed keys its rows: word i of its stream seeds permutation row i and word
samples + i seeds small-range row i, so no two rows share a word and
`advantage_monte_carlo(..., seed=report.seed)` replays the report alone.

The exact sweep is one `advantage_exact` call for all r. It checks every r,
the n! permutations and the largest r's support against the enumeration
budget before any build or run, builds each permutation's oracle once and
runs it once per r; each r enumerates its own support.

Each oracle is a row of a stack that `oracles.index_map_oracles` builds
from one checked `core.index_map_block`; its first call of each kind builds
the gather sources of the whole stack. A stack holds at most
max(1, ints // N) maps for a state of N amplitudes, so its sources hold at
most about `ints` ints per oracle call. The chunker `_stacked_oracles`
checks and stacks maps that come one at a time: the exact permutations
with 4096 ints, and a sampled sweep's rows, one sampler call per row of
the side's stream (`distributions.stream_rows`), with 2^16 ints (512 KB),
256 rows at n = 16; a stack may span stream blocks. Each exact support
block of max(1, 4096 // N) maps, from `WeightedSupport.blocks`, is one
stack. Every map is run as often, and in the same order, as a
map-at-a-time loop would run it, so the reports do not change.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from array import array
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .compiler import Z_95
from .core import _as_ints, index_map_block
from .distributions import (
    _BLOCK_INTS,
    SmallRangeParams,
    check_support_budget,
    enumerate_small_range_support,
    enumeration_budget,
    sample_permutation,
    sample_small_range,
    stream_rows,
    stream_seeds,
)
from .oracles import StandardOracle, index_map_oracles
from .statevector import QueryAlgorithm, run

# ints of gather sources per oracle call in one stack of a sampled sweep (512 KB)
_STACK_INTS = 2**16


@dataclass(frozen=True)
class AdvantageReport:
    """Advantage of one algorithm at one (n, r), exact or sampled, derived from
    the acceptance probabilities `p_perm` and `p_small`."""

    n: int
    r: int
    algorithm_id: str
    method: str
    p_perm: InitVar[float]
    p_small: InitVar[float]
    samples: Optional[int]
    ci_low: float
    ci_high: float
    seed: Optional[int]
    perm_prob: dict[int, float] = field(init=False)
    smallrange_prob: dict[int, float] = field(init=False)
    advantage: float = field(init=False)

    def __post_init__(self, p_perm: float, p_small: float) -> None:
        advantage = abs(p_perm - p_small)
        if not 0.0 <= advantage <= 1.0:
            raise ValueError(f"advantage {advantage} outside [0, 1]")
        # per-b probabilities stored as exact complements so both |differences|
        # coincide bit for bit
        object.__setattr__(self, "perm_prob", {1: p_perm, 0: 1.0 - p_perm})
        object.__setattr__(self, "smallrange_prob", {1: p_small, 0: 1.0 - p_small})
        object.__setattr__(self, "advantage", advantage)


def _stacked_oracles(
    algorithm: QueryAlgorithm, n: int, maps: Iterable[Sequence[int]], stack_ints: int
) -> Iterator[StandardOracle]:
    """One oracle per value tuple of `maps`, in order, checked and built as
    stacks of max(1, stack_ints // N) maps: N source ints per map and
    register pair, N the state size."""
    maps, size = iter(maps), max(1, stack_ints // algorithm.layout.total_dim)
    while chunk := list(itertools.islice(maps, size)):
        yield from index_map_oracles(index_map_block(n, chunk))


def advantage_exact(
    algorithm: QueryAlgorithm, n: int, r_values: Sequence[int], algorithm_id: str = "anonymous"
) -> list[AdvantageReport]:
    """Exact advantage at each r, in order: all n! permutations against each r's support."""
    params = [SmallRangeParams(n, r) for r in r_values]  # every r is checked before any work
    if not params:
        return []
    n = params[0].n
    # both budgets are checked before any build or simulation; the largest r
    # visits the most maps
    budget = enumeration_budget()
    # n! multiplied up only until it passes the budget: a huge n! is never computed
    if any(count > budget for count in itertools.accumulate(range(1, n + 1), operator.mul)):
        raise ValueError(f"enumerating {n}! permutations exceeds budget {budget} (QSYMLAB_BUDGET)")
    check_support_budget(max(params, key=lambda param: param.r))
    # one oracle per permutation, run once per r (perfbench's distinguish-exact
    # law counts n! runs per r) and dropped with its block; a term takes 8 bytes
    perm_terms = [array("d") for _ in params]
    for oracle in _stacked_oracles(algorithm, n, itertools.permutations(range(n)), _BLOCK_INTS):
        for terms in perm_terms:
            terms.append(run(algorithm, oracle)[1])
    reports = []
    for param, terms in zip(params, perm_terms):
        support = enumerate_small_range_support(param)
        p_perm = math.fsum(terms) / math.factorial(n)
        p_small = math.fsum(
            weight * run(algorithm, oracle)[1]
            for block, mass in support.blocks(max(1, _BLOCK_INTS // algorithm.layout.total_dim))
            for weight in [float(mass)]
            for oracle in index_map_oracles(block)
        )
        adv = abs(p_perm - p_small)
        reports.append(
            AdvantageReport(n, param.r, algorithm_id, "exact", p_perm, p_small, None, adv, adv, None)
        )
    return reports


def advantage_monte_carlo(
    algorithm: QueryAlgorithm,
    n: int,
    r: int,
    samples: int,
    seed: int,
    algorithm_id: str = "anonymous",
) -> AdvantageReport:
    """Sampled advantage; randomness is over the oracle draws only."""
    (samples,) = _as_ints([samples], "samples value")
    if samples < 1:
        raise ValueError("samples must be positive")
    params = SmallRangeParams(n, r)
    row_seeds = stream_seeds(seed, 2 * samples)
    perm_maps = (
        sample_permutation(n, row) for row, _ in stream_rows(range(n, 0, -1), row_seeds[:samples])
    )
    small_maps = (
        sample_small_range(params, row) for row, _ in stream_rows(params.bounds, row_seeds[samples:])
    )
    perm_vals = np.array(
        [run(algorithm, o)[1] for o in _stacked_oracles(algorithm, n, perm_maps, _STACK_INTS)]
    )
    small_vals = np.array(
        [run(algorithm, o)[1] for o in _stacked_oracles(algorithm, n, small_maps, _STACK_INTS)]
    )
    p_perm = float(perm_vals.mean())
    p_small = float(small_vals.mean())
    if samples > 1:
        se = math.sqrt(perm_vals.var(ddof=1) / samples + small_vals.var(ddof=1) / samples)
    else:
        se = 0.0
    adv = abs(p_perm - p_small)
    ci = (max(0.0, adv - Z_95 * se), min(1.0, adv + Z_95 * se))
    return AdvantageReport(n, r, algorithm_id, "monte-carlo", p_perm, p_small, samples, *ci, seed)


def sweep_r(
    algorithm: QueryAlgorithm,
    n: int,
    r_values: Sequence[int],
    samples: Optional[int],
    seed: Optional[int],
    exact: bool = False,
    algorithm_id: str = "anonymous",
) -> list[AdvantageReport]:
    """One report per r. This is the one place a duplicate r is dropped, each
    with a UserWarning, which the CLI prints as one `warning:` line. An exact
    sweep is one `advantage_exact` call on the kept r values; a sampled one
    seeds report k with word k of `seed`'s stream."""
    deduped: list[int] = []
    for r in r_values:
        if r in deduped:
            warnings.warn(f"duplicate r value {r} dropped", stacklevel=2)
            continue
        deduped.append(r)
    if exact:
        return advantage_exact(algorithm, n, deduped, algorithm_id)
    for r in deduped:  # every r is checked before any work
        SmallRangeParams(n, r)
    for name, value in (("samples", samples), ("seed", seed)):
        if value is None:
            raise ValueError(f"a sampled sweep needs {name}")
    report_seeds = stream_seeds(seed, len(deduped)).tolist()
    return [
        advantage_monte_carlo(algorithm, n, r, samples, s, algorithm_id=algorithm_id)
        for r, s in zip(deduped, report_seeds)
    ]
