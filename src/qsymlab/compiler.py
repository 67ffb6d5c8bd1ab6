"""Quantum-to-classical compilation through small-range index maps.

The pipeline turns a q-query quantum algorithm for a permutation-symmetric
function into a randomized classical procedure. One compiled trial:

1. sample the values of an index map C with image size at most r, as a
   row of a block of trials' maps that is sampled in one vectorised pass
   and checked once, by `core.index_map_block`; the trial's record keeps
   the row's values as a tuple;
2. read the input classically at the image points only (at most r lookups);
3. rebuild the full oracle of (input after C) from those lookups;
4. simulate the majority-of-three amplified algorithm against that oracle
   exactly, and draw the output bit from the resulting distribution.

Many maps compose x to the same table, and such maps can share one oracle
and its gather sources; every map is still read, composed and simulated.
The exact average over the whole support (`exact_success`) runs steps 2-4
for every row of the support's checked blocks, with no `IndexFunction`
and one float mass per block, and keeps one dict of oracles by composed
table for the call. The Monte Carlo estimate (`estimate_success`) runs its
trials through `_run_trials`, in this process or once per worker on a
contiguous slice of the seeds, and keeps one such dict per stream block of
trials. The block bounds what is kept: at most `max(1, 4096 // (n + r))`
oracles, however many distinct tables the trials compose. A one-hot Grover
input at n=64 and r=4 has 2^64 possible tables, yet its blocks of 60
trials compose to a few each (3 and 7 in the tests' two blocks); at n=2048
and r=n a block is one trial.

Each trial has its own seed, word t of the stream of the seed given to
`estimate_success` (see `distributions`), and takes its sampler row and
the output bit's uniform from its own stream: words 1 onwards give the
row and word 0 the uniform, so no two quantities share a word and the
recorded seed replays the trial alone (`compile_and_run_once(seed=s)`).
Every trial runs in one loop, `_run_trials`, a stream block of seeds at a
time: it draws the block's rows and uniforms (`stream_blocks`), samples
all of its maps at once (`sample_small_range_block`) and checks them once
(`index_map_block`); then, for each row, it runs steps 2-4 with the
block's oracles and draws the bit. A replay is that loop on one seed.

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
from typing import Optional, Sequence

import numpy as np

from .core import InputString, _as_ints, index_map_block
from .distributions import (
    SmallRangeParams,
    _as_seeds,
    enumerate_small_range_support,
    sample_small_range_block,
    stream_blocks,
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
    sampled_C: tuple[int, ...]
    seed: int

    def __post_init__(self) -> None:
        if self.output_bit not in (0, 1):
            raise ValueError("output bit must be 0 or 1")

    @property
    def C_was_injective(self) -> bool:
        """Whether the map is injective: its lookup count, which
        `compiled_distribution` checks is the image size, equals n."""
        return self.classical_queries_used == len(self.sampled_C)


def compiled_distribution(
    alg: QueryAlgorithm,
    x: InputString,
    values: Sequence[int],
    oracles: Optional[dict] = None,
) -> tuple[dict[int, float], int]:
    """Steps 2-4 for the index map with these values: output distribution, lookups.

    The values come from a checked `IndexFunction` or block row; a value
    outside [0, n) still fails at its lookup, before any oracle is composed.
    Amplifies internally unless the algorithm already is. `oracles` is
    passed to `oracle_from_partial`: calls with the same x may share it.
    The lookup count is checked against the image size, so callers may
    read it as that size.
    """
    reader = ClassicalOracle(x)
    cells = sorted(set(values))
    known = {i: reader.lookup(i) for i in cells}
    if reader.queries != len(cells):
        raise AssertionError(
            f"lookup count {reader.queries} does not equal the image size {len(cells)}"
        )
    oracle = oracle_from_partial(known, values, x.M, oracles)
    return run(_amplified(alg), oracle), reader.queries


def compile_and_run_once(
    alg: QueryAlgorithm, x: InputString, r: int, *, seed: int
) -> CompiledRunResult:
    """One full compiled trial; the recorded seed replays it exactly.

    It is `_run_trials` on the one seed: a stream block of one row.
    """
    [result] = _run_trials(_amplified(alg), x, SmallRangeParams(x.n, r), [seed])
    return result


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


def _run_trials(alg: QueryAlgorithm, x: InputString, params: SmallRangeParams, seeds) -> list:
    """One compiled trial per seed, in order, a stream block of trials at a
    time; the trials of a block share one oracle per composed table."""
    seeds = _as_seeds(seeds)
    trial_seeds = iter(seeds.tolist())  # Python ints, whatever integers were passed
    results = []
    for draws, uniforms in stream_blocks(params.bounds, seeds):
        block = index_map_block(params.n, sample_small_range_block(params, draws))
        oracles: dict = {}
        # the shared seed iterator goes last: zip stops on the block's end
        # before it takes a seed that belongs to the next block
        for values, u, seed in zip(block.tolist(), uniforms.tolist(), trial_seeds):
            dist, used = compiled_distribution(alg, x, values, oracles)
            if used > params.r:
                raise AssertionError(f"classical lookups {used} exceeded budget {params.r}")
            results.append(CompiledRunResult(1 if u < dist[1] else 0, used, tuple(values), seed))
    return results


def _check_expected_bit(expected_bit: int) -> None:
    if expected_bit not in (0, 1):
        raise ValueError(f"expected_bit must be 0 or 1, got {expected_bit}")


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
    _check_expected_bit(expected_bit)
    params = SmallRangeParams(x.n, r)
    (trials,) = _as_ints([trials], "trials value")
    if trials < 1:
        raise ValueError("trials must be positive")
    (jobs,) = _as_ints([jobs], "jobs value")
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
    _check_expected_bit(expected_bit)
    support = enumerate_small_range_support(SmallRangeParams(x.n, r))
    alg = _amplified(alg)
    oracles: dict = {}
    return math.fsum(
        weight * compiled_distribution(alg, x, values, oracles)[0][expected_bit]
        for block, mass in support.blocks()
        for weight in [float(mass)]
        for values in block.tolist()
    )
