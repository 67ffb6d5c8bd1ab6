"""Quantum-to-classical compilation through small-range index maps.

The pipeline turns a q-query quantum algorithm for a permutation-symmetric
function into a randomized classical procedure. One compiled trial:

1. sample an index map C with image size at most r;
2. read the input classically at the image points only (at most r lookups);
3. rebuild the full oracle of (input after C) from those lookups;
4. simulate the majority-of-three amplified algorithm against that oracle
   exactly, and draw the output bit from the resulting distribution.

Many maps compose x to the same table, and such maps can share one oracle
and its gather sources; every map is still read, composed and simulated.
The exact average over the whole support (`exact_success`) runs steps 2-4
for every map and keeps one dict of oracles by composed table for the
call. The Monte Carlo estimate (`estimate_success`) runs its trials
through `_run_trials`, in this process or once per worker on a contiguous
slice of the seeds, and each slice keeps such a dict only when `M^n` is at
most its length. The rule is a worst-case memory bound, not a guess at how
often tables repeat: within it at most `M^n` small oracles are kept.
Beyond it only the trial count limits them: a one-hot Grover input at
n=2048 and r=n composes 10^4 trials to 4,359 distinct tables of 128 KB of
gather sources each (about 560 MB). So each trial beyond the bound builds
a fresh oracle, even where most trials share a table (18 tables at r=4).

Each trial has its own seed, word t of the stream of the seed given to
`estimate_success` (see `distributions`), and takes its sampler row and
the output bit's uniform from its own stream: words 1 onwards give the
row and word 0 the uniform, so no two quantities share a word and the
recorded seed replays the trial alone (`compile_and_run_once(seed=s)`).
`_run_trials` makes every trial's row and uniform in one vectorized pass
over the seeds and passes them to the trial.

The input is never touched outside step 2: no oracle over the raw input
exists on this path, and the function table is never consulted at all (the
composed input may leave the function's domain, so evaluating it there is
not even defined).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Optional

import numpy as np

from .core import IndexFunction, InputString, image
from .distributions import (
    SmallRangeParams,
    enumerate_small_range_support,
    sample_small_range,
    stream_rows,
    stream_seeds,
)
from .oracles import ClassicalOracle, oracle_from_partial
from .statevector import QueryAlgorithm, RegisterLayout, majority3_prob, run  # noqa: F401 - re-export

Z_95 = 1.959963984540054

def amplify_majority3(alg: QueryAlgorithm) -> QueryAlgorithm:
    """Majority-of-three form: three independent runs, majority output.

    Triples the query count; a base success probability p becomes
    majority3_prob(p).
    """
    if alg.repeats != 1:
        raise ValueError("algorithm is already amplified")
    return replace(alg, repeats=3)


def _amplified(alg: QueryAlgorithm) -> QueryAlgorithm:
    # build the amplified form once per run: a build verifies no matrix, but
    # places every step and evolves the start state again
    return amplify_majority3(alg) if alg.repeats == 1 else alg


def r_from_q(q: int, lambda_const) -> int:
    """Image-size budget ceil(216 q^3 / lambda^3) for a q-query algorithm.

    lambda_const is the (unknown) absolute constant of the
    permutation-vs-small-range hardness bound; it is a caller-supplied
    hypothesis, not a library default.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    lam = Fraction(lambda_const)
    if lam <= 0:
        raise ValueError("lambda_const must be positive")
    r = math.ceil(Fraction(216 * q**3) / lam**3)
    if Fraction(6 * q) ** 3 > lam**3 * r:
        raise AssertionError("query budget inequality 6q <= lambda * r^(1/3) violated")
    return r


def with_gadget_ancilla(alg: QueryAlgorithm, ancilla_dim: int) -> tuple[QueryAlgorithm, int]:
    """Append a gadget ancilla register; returns (rewritten algorithm, its index).

    Running the result with a composed oracle realizes the original
    algorithm's oracle calls as two index-map queries plus one input query
    each, which is how a fixed-input algorithm becomes a pure index-map
    query algorithm.
    """
    new_layout = RegisterLayout(alg.layout.dims + (int(ancilla_dim),))
    return replace(alg, layout=new_layout), len(alg.layout.dims)


@dataclass(frozen=True)
class CompiledRunResult:
    """One compiled trial: output bit, lookup count, and the sampled map."""

    output_bit: int
    classical_queries_used: int
    sampled_C: IndexFunction
    C_was_injective: bool
    seed: int

    def __post_init__(self) -> None:
        if self.output_bit not in (0, 1):
            raise ValueError("output bit must be 0 or 1")


def compiled_distribution(
    alg: QueryAlgorithm,
    x: InputString,
    index_map: IndexFunction,
    oracles: Optional[dict] = None,
) -> tuple[dict[int, float], int]:
    """Steps 2-4 for a fixed index map: exact output distribution and lookups.

    Amplifies internally unless the algorithm already is. `oracles` is
    passed to `oracle_from_partial`: calls with the same x may share it.
    The lookup count is checked against the image size, so callers may
    read it as that size.
    """
    reader = ClassicalOracle(x)
    cells = sorted(image(index_map))
    known = {i: reader.lookup(i) for i in cells}
    if reader.queries != len(cells):
        raise AssertionError(
            f"lookup count {reader.queries} does not equal the image size {len(cells)}"
        )
    oracle = oracle_from_partial(known, index_map, x.M, oracles)
    return run(_amplified(alg), oracle), reader.queries


def compile_and_run_once(
    alg: QueryAlgorithm,
    x: InputString,
    r: int,
    *,
    seed: int,
    oracles: Optional[dict] = None,
    draws: Optional[tuple[list[int], float]] = None,
) -> CompiledRunResult:
    """One full compiled trial; the recorded seed replays it exactly.

    `oracles` is passed to `compiled_distribution`: trials on the same x
    may share it, and a shared oracle gives the same output as a fresh one.
    `draws` is the trial's `(row, uniform)` from `stream_rows`, which
    `estimate_success` passes; without it the trial draws them from `seed`.
    """
    params = SmallRangeParams(x.n, r)
    row, uniform = draws if draws is not None else next(stream_rows(params.bounds, [seed]))
    sampled = sample_small_range(params, row)
    dist, used = compiled_distribution(alg, x, sampled, oracles)
    if used > r:
        raise AssertionError(f"classical lookups {used} exceeded budget {r}")
    bit = 1 if uniform < dist[1] else 0
    # `used` is the image size (compiled_distribution checks it)
    return CompiledRunResult(bit, used, sampled, used == x.n, seed)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Two-sided 95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be positive")
    z = Z_95
    phat = successes / trials
    denom = 1 + z**2 / trials
    center = (phat + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z**2 / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class SuccessEstimate:
    """Monte Carlo success count over independent compiled trials."""

    expected_bit: int
    r: int
    trials: int
    successes: int
    estimate: float
    ci_low: float
    ci_high: float
    results: tuple[CompiledRunResult, ...]


def _run_trials(
    alg: QueryAlgorithm, x: InputString, params: SmallRangeParams, seeds: np.ndarray
) -> list:
    """One compiled trial per seed, in order, with shared oracles and bulk draws."""
    oracles = {} if x.M**x.n <= len(seeds) else None
    draws = stream_rows(params.bounds, seeds)
    return [
        compile_and_run_once(alg, x, params.r, seed=seed, oracles=oracles, draws=d)
        for seed, d in zip(seeds.tolist(), draws)
    ]


def estimate_success(
    alg: QueryAlgorithm,
    x: InputString,
    expected_bit: int,
    r: int,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> SuccessEstimate:
    """Monte Carlo success estimate with a 95% Wilson interval.

    Trial t's seed is word t of `seed`'s stream. With
    `min(jobs, trials, os.cpu_count())` workers above one, each runs
    `_run_trials` on one contiguous slice of the seeds, joined in order;
    otherwise `_run_trials` runs in this process.
    A trial depends on its seed alone, so the results do not depend on `jobs`.
    """
    params = SmallRangeParams(x.n, r)
    if trials < 1:
        raise ValueError("trials must be positive")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    alg = _amplified(alg)
    seeds = stream_seeds(seed, trials)
    workers = min(jobs, trials, os.cpu_count() or 1)
    if workers == 1:
        results = _run_trials(alg, x, params, seeds)
    else:
        # imported here: it pulls in multiprocessing, which only a pool needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(partial(_run_trials, alg, x, params), np.array_split(seeds, workers))
            results = [trial for part in parts for trial in part]
    successes = sum(1 for t in results if t.output_bit == expected_bit)
    low, high = wilson_interval(successes, trials)
    return SuccessEstimate(
        expected_bit=expected_bit,
        r=r,
        trials=trials,
        successes=successes,
        estimate=successes / trials,
        ci_low=low,
        ci_high=high,
        results=tuple(results),
    )


def exact_success(alg: QueryAlgorithm, x: InputString, expected_bit: int, r: int) -> float:
    """Success probability averaged exactly over the whole index-map support.

    Maps that compose x to the same table share one oracle; the support
    holds at least one map per table, so the oracles never outnumber it.
    """
    support = enumerate_small_range_support(SmallRangeParams(x.n, r))
    alg = _amplified(alg)
    oracles: dict = {}
    return math.fsum(
        weight * compiled_distribution(alg, x, index_map, oracles)[0][expected_bit]
        for index_map, weight in support.float_entries()
    )
