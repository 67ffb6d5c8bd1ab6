"""Distinguishing-advantage measurements: uniform permutations versus
small-range index maps.

Expectations are taken over the oracle draw only; per-oracle output
probabilities come exactly from the simulator, so Monte Carlo noise enters
through the draw alone. The hardness bound's absolute constant is unknown,
so nothing here asserts a bound value; the probe reports curves.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .compiler import Z_95
from .core import IndexFunction
from .distributions import (
    SmallRangeParams,
    enumerate_small_range_support,
    enumeration_budget,
    sample_permutation,
    sample_small_range,
)
from .oracles import standard_oracle
from .statevector import QueryAlgorithm, run

CSV_COLUMNS = ("n", "r", "method", "adv", "ci_low", "ci_high", "samples", "seed")


@dataclass(frozen=True)
class AdvantageReport:
    """Advantage of one algorithm at one (n, r), exact or sampled."""

    n: int
    r: int
    algorithm_id: str
    method: str
    perm_prob: dict[int, float]
    smallrange_prob: dict[int, float]
    advantage: float
    samples: Optional[int]
    ci_low: float
    ci_high: float
    seed: Optional[int]

    def __post_init__(self) -> None:
        if not 0.0 <= self.advantage <= 1.0:
            raise ValueError(f"advantage {self.advantage} outside [0, 1]")

    def csv_row(self) -> tuple:
        return (
            self.n,
            self.r,
            self.method,
            self.advantage,
            self.ci_low,
            self.ci_high,
            self.samples if self.samples is not None else "",
            self.seed if self.seed is not None else "",
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "algorithm_id": self.algorithm_id,
            "method": self.method,
            "perm_prob": {str(b): p for b, p in self.perm_prob.items()},
            "smallrange_prob": {str(b): p for b, p in self.smallrange_prob.items()},
            "advantage": self.advantage,
            "samples": self.samples,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "seed": self.seed,
        }


def _report(n, r, algorithm_id, method, p_perm, p_small, samples, ci, seed) -> AdvantageReport:
    # per-b probabilities stored as exact complements so both |differences|
    # coincide bit for bit
    advantage = abs(p_perm - p_small)
    return AdvantageReport(
        n=n,
        r=r,
        algorithm_id=algorithm_id,
        method=method,
        perm_prob={1: p_perm, 0: 1.0 - p_perm},
        smallrange_prob={1: p_small, 0: 1.0 - p_small},
        advantage=advantage,
        samples=samples,
        ci_low=ci[0],
        ci_high=ci[1],
        seed=seed,
    )


def advantage_exact(
    algorithm: QueryAlgorithm, n: int, r: int, algorithm_id: str = "anonymous"
) -> AdvantageReport:
    """Exact advantage: enumerate all permutations and the full support."""
    budget = enumeration_budget()
    if math.factorial(n) > budget:
        raise ValueError(f"enumerating {n}! permutations exceeds budget {budget}")
    # built first so an over-budget support fails before any simulation
    support = enumerate_small_range_support(SmallRangeParams(n, r))
    perm_terms = [
        run(algorithm, standard_oracle(IndexFunction(n, p)))[1]
        for p in itertools.permutations(range(n))
    ]
    p_perm = math.fsum(perm_terms) / math.factorial(n)
    p_small = math.fsum(
        float(w) * run(algorithm, standard_oracle(g))[1] for g, w in support.entries
    )
    adv = abs(p_perm - p_small)
    return _report(n, r, algorithm_id, "exact", p_perm, p_small, None, (adv, adv), None)


def advantage_monte_carlo(
    algorithm: QueryAlgorithm,
    n: int,
    r: int,
    samples: int,
    rng: np.random.Generator,
    algorithm_id: str = "anonymous",
) -> AdvantageReport:
    """Sampled advantage; randomness is over the oracle draws only."""
    if samples < 1:
        raise ValueError("samples must be positive")
    seed = int(rng.integers(0, 2**63))
    draw_rng = np.random.default_rng(seed)
    params = SmallRangeParams(n, r)
    perm_vals = np.array(
        [run(algorithm, standard_oracle(sample_permutation(n, draw_rng)))[1] for _ in range(samples)]
    )
    small_vals = np.array(
        [
            run(algorithm, standard_oracle(sample_small_range(params, draw_rng)))[1]
            for _ in range(samples)
        ]
    )
    p_perm = float(perm_vals.mean())
    p_small = float(small_vals.mean())
    if samples > 1:
        se = math.sqrt(perm_vals.var(ddof=1) / samples + small_vals.var(ddof=1) / samples)
    else:
        se = 0.0
    adv = abs(p_perm - p_small)
    ci = (max(0.0, adv - Z_95 * se), min(1.0, adv + Z_95 * se))
    return _report(n, r, algorithm_id, "monte-carlo", p_perm, p_small, samples, ci, seed)


def sweep_r(
    algorithm: QueryAlgorithm,
    n: int,
    r_values: Sequence[int],
    samples: int,
    rng: np.random.Generator,
    exact: bool = False,
    algorithm_id: str = "anonymous",
) -> list[AdvantageReport]:
    """One report per r; duplicates are dropped with a warning."""
    deduped: list[int] = []
    for r in r_values:
        if r in deduped:
            warnings.warn(f"duplicate r value {r} dropped", stacklevel=2)
            continue
        deduped.append(r)
    for r in deduped:
        if not 1 <= r <= n:
            raise ValueError(f"r outside [1, {n}]: {r}")
    reports = []
    for r in deduped:
        if exact:
            reports.append(advantage_exact(algorithm, n, r, algorithm_id=algorithm_id))
        else:
            reports.append(
                advantage_monte_carlo(algorithm, n, r, samples, rng, algorithm_id=algorithm_id)
            )
    return reports


def write_csv(reports: Sequence[AdvantageReport], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for report in reports:
            writer.writerow(report.csv_row())
