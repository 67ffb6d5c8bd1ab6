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

Each trial's draws are those of its own generator, started from its own
seed, so the recorded seed replays the trial alone:
`compile_and_run_once(seed=s)` builds `Generator(PCG64(s))` and draws the
sampler row with `integers(0, bounds)`, then the output bit's uniform with
`random()`. Building a generator per trial, and numpy's per-call checks
on array bounds, cost more than anything in a DJ n=4 trial but the
simulation. So `_run_trials` makes every trial's draws in one vectorized
pass over the seeds (`_trial_draws`) and passes them to the trial:

- `_pcg64_states` computes every start state `(state, inc)` as numpy
  seeds it: `SeedSequence` mixes the seed's little-endian 32-bit words
  into a pool of four, `generate_state(4, uint64)` hashes the pool out,
  and PCG64's `srandom` makes the start state with one 128-bit step.
- The j-th output of a stream (j >= 1) is `XSL-RR(MULT^j s + G_j inc mod
  2^128)`, with `G_j` the sum of `MULT^i` over `i < j`; both are cached, so a
  block of seeds costs a fixed number of numpy calls whatever its width.
- numpy draws each int64 array bound b >= 2 with 32-bit Lemire from
  PCG64's buffered 32-bit halves, the low half of each output first; a
  bound of 1 draws nothing. `random()` takes the next whole output,
  `(w >> 11) 2^-53`, and leaves a buffered half alone.
- A seed whose row hits Lemire's rejection (`leftover < (2^32 - b) mod
  b`, with probability below b/2^32 per draw and never at a power of two)
  gets no draws: its trial builds the generator, so the stream is never
  guessed.

The tests compare the states, rows and uniforms with numpy's on 10^4
seeds and the edge seeds, and `qsymlab verify` checks a few, so an
installed numpy that seeds or draws differently fails loudly.

The input is never touched outside step 2: no oracle over the raw input
exists on this path, and the function table is never consulted at all (the
composed input may leave the function's domain, so evaluating it there is
not even defined).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Iterator, Optional

import numpy as np

from .core import IndexFunction, InputString, image
from .distributions import (
    _BLOCK_INTS,
    SmallRangeParams,
    _block_bounds,
    enumerate_small_range_support,
    sample_small_range,
    small_range_draws,
)
from .oracles import ClassicalOracle, oracle_from_partial
from .statevector import QueryAlgorithm, RegisterLayout, majority3_prob, run  # noqa: F401 - re-export

Z_95 = 1.959963984540054

# numpy's seeding constants: SeedSequence's two hashes and its mix, and
# PCG64's 128-bit multiplier
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW32, _LOW64 = 2**32 - 1, 2**64 - 1


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


def _check_r(x: InputString, r: int) -> None:
    if not 1 <= r <= x.n:
        raise ValueError(f"r outside [1, {x.n}]: {r}")


def compile_and_run_once(
    alg: QueryAlgorithm,
    x: InputString,
    r: int,
    rng: Optional[np.random.Generator] = None,
    *,
    seed: Optional[int] = None,
    oracles: Optional[dict] = None,
    draws: Optional[tuple[list[int], float]] = None,
) -> CompiledRunResult:
    """One full compiled trial; the recorded seed replays it exactly.

    `oracles` is passed to `compiled_distribution`: trials on the same x
    may share it, and a shared oracle gives the same output as a fresh one.
    `draws` is the trial's `(row, uniform)` as `Generator(PCG64(seed))`
    draws them, which `estimate_success` passes (see the module
    docstring); without it the trial builds that generator, the replay path.
    """
    _check_r(x, r)
    if seed is None:
        if draws is not None:
            raise ValueError("draws need the seed that made them")
        if rng is None:
            raise ValueError("provide an rng or an explicit seed")
        seed = int(rng.integers(0, 2**63))
    params = SmallRangeParams(x.n, r)
    if draws is None:
        # exactly the generator default_rng(seed) returns, without its dispatch
        trial_rng = np.random.Generator(np.random.PCG64(seed))
        draws = next(small_range_draws(params, trial_rng, 1)), trial_rng.random()
    row, uniform = draws
    sampled = sample_small_range(params, row)
    dist, used = compiled_distribution(alg, x, sampled, oracles)
    if used > r:
        raise AssertionError(f"classical lookups {used} exceeded budget {r}")
    bit = 1 if uniform < dist[1] else 0
    # `used` is the image size (compiled_distribution checks it)
    return CompiledRunResult(bit, used, sampled, used == x.n, seed)


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays; its multiplier advances call by call."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _LOW32
        value = value * const
        return value ^ (value >> 16)

    return hashmix


def _add128(a: tuple, b: tuple) -> tuple:
    """Sum mod 2^128 of two (high, low) pairs of uint64 arrays."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < a[1]), low


def _mul128(a: tuple, m: tuple) -> tuple:
    """Product mod 2^128 of two (high, low) pairs of uint64 arrays, broadcast."""
    high, low = a
    m_high, m_low = m
    # the high word of low * m_low, from 32-bit halves: numpy has no 128-bit product
    a1, a0 = low >> 32, low & _LOW32
    b1, b0 = m_low >> 32, m_low & _LOW32
    cross1, cross2 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (cross1 & _LOW32) + (cross2 & _LOW32)
    carry = a1 * b1 + (cross1 >> 32) + (cross2 >> 32) + (mid >> 32)
    return carry + high * m_low + low * m_high, low * m_low


def _split128(values: list[int]) -> tuple:
    """128-bit ints as a (high, low) pair of uint64 arrays."""
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & _LOW64 for v in values], dtype=np.uint64),
    )


def _pcg64_states(seeds: np.ndarray | list[int]) -> tuple[tuple, tuple]:
    """`(state, inc)` of `np.random.PCG64(s)` for each seed s in [0, 2^64), in one vectorized pass.

    Each is a (high, low) pair of uint64 arrays. Reproduces numpy's seeding
    (see the module docstring). A seed below 2^32 has one entropy word, and
    the pool then hashes 0 in place of a second; that is its high word, so
    every seed takes the same steps.
    """
    s = np.array(seeds, dtype=np.uint64)
    low = (s & _LOW32).astype(np.uint32)
    entropy = (low, (s >> 32).astype(np.uint32), np.zeros_like(low), np.zeros_like(low))
    hash_a = _hasher(_HASH_INIT_A, _HASH_MULT_A)
    pool = [hash_a(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hash_a(pool[src])
                pool[dst] = mixed ^ (mixed >> 16)
    hash_b = _hasher(_HASH_INIT_B, _HASH_MULT_B)
    out = [hash_b(pool[k % 4]).astype(np.uint64) for k in range(8)]
    # generate_state(4, uint64): little-endian pairs of the eight 32-bit words
    seed_high, seed_low, stream_high, stream_low = (out[k] | out[k + 1] << 32 for k in (0, 2, 4, 6))
    # srandom: inc = 2 * stream + 1, state = (inc + seed) * MULT + inc
    inc = ((stream_high << 1) | (stream_low >> 63), (stream_low << 1) | 1)
    state = _add128(_mul128(_add128(inc, (seed_high, seed_low)), _split128([_PCG64_MULT])), inc)
    return state, inc


@functools.lru_cache(maxsize=16)
def _jumps(count: int) -> tuple[tuple, tuple]:
    """`(MULT^j, G_j)` for j = 1..count, each a (high, low) pair of (count, 1) arrays.

    j PCG64 steps take (state, inc) to `MULT^j state + G_j inc`, where
    `G_j` is the sum of `MULT^i` over i < j.
    """
    powers, gains, power, gain = [], [], 1, 0
    for _ in range(count):
        gain = (gain * _PCG64_MULT + 1) & (2**128 - 1)
        power = power * _PCG64_MULT & (2**128 - 1)
        powers.append(power)
        gains.append(gain)
    pairs = tuple(tuple(a[:, None] for a in _split128(v)) for v in (powers, gains))
    for pair in pairs:
        for a in pair:
            a.setflags(write=False)  # cached and shared by every caller
    return pairs


def _xsl_rr(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """PCG64's output of a 128-bit state: the halves' xor, rotated right by the top 6 bits."""
    value, rot = high ^ low, high >> 58
    return (value >> rot) | (value << ((64 - rot) & 63))


def _trial_draws(
    params: SmallRangeParams, seeds: np.ndarray
) -> Iterator[Optional[tuple[list[int], float]]]:
    """Each seed's trial draws, equal to `Generator(PCG64(seed))`'s, in one vectorized pass.

    Yields `(row, uniform)`: `integers(0, bounds)` for `sample_small_range`,
    then `random()`. A seed whose row hits Lemire's rejection yields None
    (see the module docstring). Seeds go through in blocks of at most
    `_BLOCK_INTS` row ints, unless one row is wider.
    """
    width = params.n + params.r
    bounds = _block_bounds(params.n, params.r, False)[:width]
    drawn = bounds > 1
    # the 32-bit half each bound reads; a bound of 1 reads half 0, gives 0 and never rejects
    half_of = np.where(drawn, np.cumsum(drawn) - 1, 0)
    outputs = (int(drawn.sum()) + 1) // 2 + 1  # the last is random()'s
    powers, gains = _jumps(outputs)
    b = bounds.astype(np.uint64)[:, None]
    threshold = (2**32 - b) % b
    state, inc = _pcg64_states(seeds)
    lanes = max(1, _BLOCK_INTS // width)
    for start in range(0, len(seeds), lanes):
        block = slice(start, start + lanes)
        stepped = _add128(
            _mul128((state[0][block], state[1][block]), powers),
            _mul128((inc[0][block], inc[1][block]), gains),
        )
        out = _xsl_rr(*stepped)
        halves = np.stack((out & _LOW32, out >> 32), axis=1).reshape(2 * outputs, -1)
        product = halves[half_of] * b
        rejected = ((product & _LOW32) < threshold).any(axis=0).tolist()
        uniforms = ((out[-1] >> 11) * 2.0**-53).tolist()
        for row, uniform, reject in zip((product >> 32).T.tolist(), uniforms, rejected):
            yield None if reject else (row, uniform)


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


def _run_trials(alg: QueryAlgorithm, x: InputString, r: int, seeds: np.ndarray) -> list:
    """One compiled trial per seed, in order, with shared oracles and bulk draws."""
    oracles = {} if x.M**x.n <= len(seeds) else None
    # a rejected seed's draws are None: its trial builds its own generator
    draws = _trial_draws(SmallRangeParams(x.n, r), seeds)
    return [
        compile_and_run_once(alg, x, r, seed=seed, oracles=oracles, draws=d)
        for seed, d in zip(seeds.tolist(), draws)
    ]


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

    The seeds are drawn up front. With `min(jobs, trials, os.cpu_count())`
    workers above one, each runs `_run_trials` on one contiguous slice of
    them, joined in order; otherwise `_run_trials` runs in this process.
    A trial depends on its seed alone, so the results do not depend on `jobs`.
    """
    _check_r(x, r)
    if trials < 1:
        raise ValueError("trials must be positive")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    alg = _amplified(alg)
    # one generator call draws the same stream as one scalar draw per trial
    seeds = rng.integers(0, 2**63, size=trials)
    workers = min(jobs, trials, os.cpu_count() or 1)
    if workers == 1:
        results = _run_trials(alg, x, r, seeds)
    else:
        # imported here: it pulls in multiprocessing, which only a pool needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(partial(_run_trials, alg, x, r), np.array_split(seeds, workers))
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
    _check_r(x, r)
    support = enumerate_small_range_support(SmallRangeParams(x.n, r))
    alg = _amplified(alg)
    oracles: dict = {}
    terms = []
    for index_map, weight in support.float_entries():
        dist, _ = compiled_distribution(alg, x, index_map, oracles)
        terms.append(weight * dist[expected_bit])
    return float(math.fsum(terms))
