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
call. The Monte Carlo estimate (`estimate_success`, one process) keeps
such a dict across its trials only when `M^n <= trials`. The rule is a
worst-case memory bound, not a guess at how often tables repeat. Within
it there are at most `M^n` composed tables, so at most `min(M^n, trials)`
oracles are kept, each small at such n. Beyond it only the trial count
limits the kept oracles: a one-hot Grover input at n=2048 and r=n composes
10^4 trials to 4,359 distinct tables, and each oracle there holds 128 KB
of gather sources (about 560 MB in all). So each trial beyond the bound
builds a fresh oracle, even where most trials share a table (18 tables at
r=4).

The input is never touched outside step 2: no oracle over the raw input
exists on this path, and the function table is never consulted at all (the
composed input may leave the function's domain, so evaluating it there is
not even defined).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import IndexFunction, InputString, image
from .distributions import (
    SmallRangeParams,
    enumerate_small_range_support,
    is_injective,
    sample_small_range,
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
    # build the amplified form once per run: every build revalidates all steps
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
        if self.classical_queries_used != len(image(self.sampled_C)):
            raise ValueError(
                f"lookup count {self.classical_queries_used} does not equal the "
                f"image size {len(image(self.sampled_C))}"
            )


def compiled_distribution(
    alg: QueryAlgorithm,
    x: InputString,
    index_map: IndexFunction,
    oracles: Optional[dict] = None,
) -> tuple[dict[int, float], int]:
    """Steps 2-4 for a fixed index map: exact output distribution and lookups.

    Amplifies internally unless the algorithm already is. `oracles` is
    passed to `oracle_from_partial`: calls with the same x may share it.
    """
    reader = ClassicalOracle(x)
    known = {i: reader.lookup(i) for i in sorted(image(index_map))}
    oracle = oracle_from_partial(known, index_map, x.M, oracles)
    return run(_amplified(alg), oracle), reader.queries


def compile_and_run_once(
    alg: QueryAlgorithm,
    x: InputString,
    r: int,
    rng: Optional[np.random.Generator] = None,
    *,
    seed: Optional[int] = None,
    oracles: Optional[dict] = None,
) -> CompiledRunResult:
    """One full compiled trial; the recorded seed replays it exactly.

    `oracles` is passed to `compiled_distribution`: trials on the same x
    may share it, and a shared oracle gives the same output as a fresh one.
    """
    if not 1 <= r <= x.n:
        raise ValueError(f"r outside [1, {x.n}]: {r}")
    if seed is None:
        if rng is None:
            raise ValueError("provide an rng or an explicit seed")
        seed = int(rng.integers(0, 2**63))
    # exactly the generator default_rng(seed) returns, without its dispatch
    trial_rng = np.random.Generator(np.random.PCG64(seed))
    sampled = sample_small_range(SmallRangeParams(x.n, r), trial_rng)
    dist, used = compiled_distribution(alg, x, sampled, oracles)
    if used > r:
        raise AssertionError(f"classical lookups {used} exceeded budget {r}")
    bit = 1 if trial_rng.random() < dist[1] else 0
    return CompiledRunResult(bit, used, sampled, is_injective(sampled), seed)


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


def _seeded_trial(args) -> CompiledRunResult:
    alg, x, r, seed = args
    return compile_and_run_once(alg, x, r, seed=seed)


def estimate_success(
    alg: QueryAlgorithm,
    x: InputString,
    expected_bit: int,
    r: int,
    trials: int,
    rng: np.random.Generator,
    jobs: int = 1,
) -> SuccessEstimate:
    """Monte Carlo success estimate with a 95% Wilson interval.

    Per-trial seeds are drawn up front, so results do not depend on worker
    scheduling when jobs > 1. With one job, trials share one oracle per
    composed table when `M^n <= trials` (see the module docstring).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    alg = _amplified(alg)
    # one generator call draws the same stream as one scalar draw per trial
    seeds = rng.integers(0, 2**63, size=trials).tolist()
    if jobs > 1:
        # imported here: it pulls in multiprocessing, which only a pool needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_seeded_trial, [(alg, x, r, s) for s in seeds], chunksize=64))
    else:
        oracles = {} if x.M**x.n <= trials else None
        results = [compile_and_run_once(alg, x, r, seed=s, oracles=oracles) for s in seeds]
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
    if not 1 <= r <= x.n:
        raise ValueError(f"r outside [1, {x.n}]: {r}")
    support = enumerate_small_range_support(SmallRangeParams(x.n, r))
    alg = _amplified(alg)
    oracles: dict = {}
    terms = []
    for index_map, weight in support.float_entries():
        dist, _ = compiled_distribution(alg, x, index_map, oracles)
        terms.append(weight * dist[expected_bit])
    return float(math.fsum(terms))
