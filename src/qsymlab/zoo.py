"""Concrete promise functions and exact query algorithms used as test
vehicles throughout the package.

All circuits are written directly in the query model: a dimension-n index
register addressed by the oracle, value registers the oracle writes into,
and dense named unitaries (discrete Fourier transform, uniform-state
reflection). Phase behavior is synthesized from the additive-shift oracle by
preparing the value register in the Fourier eigenstate whose eigenvalue
under "add a" is the a-th root of unity, so every circuit uses only the one
oracle primitive.

Every decision algorithm is total: it acts as a well-defined unitary on all
of [M]^n, including inputs outside its promise domain, because compiled
pipelines feed it composed inputs that may leave the promise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import BooleanFunctionTable
from .distributions import enumeration_budget
from .statevector import (
    DENSE_ENTRIES_MAX,
    OracleCall,
    OutputRule,
    QueryAlgorithm,
    RegisterLayout,
    Unitary,
)


def _require_dense_size(name: str, d: int) -> None:
    # checked before allocating: the index grids alone would take 16 d^2 bytes
    if d * d > DENSE_ENTRIES_MAX:
        raise ValueError(f"a dense {d}x{d} {name} exceeds {DENSE_ENTRIES_MAX} entries")


def fourier_matrix(d: int) -> np.ndarray:
    """Discrete Fourier transform on a dimension-d register; column 0 is uniform."""
    _require_dense_size("Fourier matrix", d)
    omega = np.exp(2j * np.pi / d)
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return omega ** (j * k) / np.sqrt(d)


def phase_value_prep(d: int) -> np.ndarray:
    """Unitary sending |0> to the shift eigenstate (1/sqrt d) sum_j w^{-j} |j>.

    With the value register in this state, an additive-shift oracle call
    kicks the phase w^{t(i)} onto the index register. For d = 2 this is the
    familiar |-> state.
    """
    f = fourier_matrix(d)
    return f[:, (np.arange(d) - 1) % d]


def diffusion_matrix(d: int) -> np.ndarray:
    """Reflection about the uniform state on a dimension-d register."""
    _require_dense_size("diffusion matrix", d)
    return 2.0 * np.full((d, d), 1.0 / d, dtype=complex) - np.eye(d, dtype=complex)


def _require_power_of_two(n: int) -> None:
    if n < 2 or n & (n - 1):
        raise ValueError(f"n must be a power of two, got {n}")


def _require_table_in_budget(name: str, n: int, strings: Callable[[], int], min_log2: int) -> None:
    # the budget counts cells, n per string, since building checks every cell;
    # strings() >= 2**min_log2, so a huge n fails before its exact size is computed
    budget = enumeration_budget()
    if min_log2 >= budget.bit_length() or n * strings() > budget:
        raise ValueError(f"{name} table exceeds the budget of {budget} entries")


class StepBudgetError(ValueError):
    """An algorithm's steps times its state size exceed the enumeration budget."""


@dataclass(frozen=True)
class ZooEntry:
    """A promise function and a query algorithm that decides it."""

    id: str
    function: BooleanFunctionTable
    algorithm: QueryAlgorithm


@dataclass(frozen=True)
class Distinguisher:
    """An oracle-probing circuit with a bit output but no decision function."""

    id: str
    algorithm: QueryAlgorithm


def deutsch_jozsa(n: int) -> ZooEntry:
    """Constant-vs-balanced decision in one query, exact on the promise.

    The promise domain holds the two constant strings (output 0) and all
    balanced strings (output 1) over M = 2. Uniform superposition on the
    index register, one phase-kicked query, inverse transform; outcome 0 on
    the index register reads "constant".
    """
    _require_power_of_two(n)
    _require_table_in_budget("dj", n, lambda: math.comb(n, n // 2) + 2, n // 2)
    outputs = {tuple([b] * n): 0 for b in (0, 1)}
    for ones in itertools.combinations(range(n), n // 2):
        values = [0] * n
        for i in ones:
            values[i] = 1
        outputs[tuple(values)] = 1
    function = BooleanFunctionTable(n, 2, outputs)
    f = fourier_matrix(n)
    alg = QueryAlgorithm(
        layout=RegisterLayout((n, 2)),
        steps=(
            Unitary(f, (0,)),
            Unitary(phase_value_prep(2), (1,)),
            OracleCall(0, 1),
            Unitary(f.conj().T, (0,)),
        ),
        output_rule=OutputRule((0,), frozenset((k,) for k in range(1, n))),
    )
    return ZooEntry("dj", function, alg)


def optimal_grover_iterations(n: int) -> int:
    """Iteration count maximizing the single-marked success probability."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    theta = math.asin(1.0 / math.sqrt(n))
    return max(0, round(math.pi / (4 * theta) - 0.5))


def grover_unique_or(n: int, iterations: int) -> ZooEntry:
    """Unique-marked search: 0 on the all-zeros string, 1 on unit-weight strings.

    Each iteration is one phase-kicked query plus a reflection about the
    uniform state; a final verification query writes the input's bit at the
    (superposed) index into a fresh output register, which also makes the
    circuit's output well defined off the promise. Query count is
    iterations + 1; with k iterations the output is 1 with probability
    sin^2((2k+1) asin(sqrt(1/n))) on unique-marked inputs, 0 on all-zeros.
    """
    _require_power_of_two(n)
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    # the dense steps first: their size checks reject an n before its n + 1 strings are built
    steps: list = [Unitary(fourier_matrix(n), (0,)), Unitary(phase_value_prep(2), (1,))]
    diffusion = Unitary(diffusion_matrix(n), (0,))  # one step object, checked once
    # every step costs memory and time, so a huge k fails before its steps are listed
    layout, step_count = RegisterLayout((n, 2, 2)), 2 * iterations + 3
    budget = enumeration_budget()
    if step_count * layout.total_dim > budget:
        raise StepBudgetError(
            f"{step_count} steps on {layout.total_dim} amplitudes exceed "
            f"the budget of {budget} (QSYMLAB_BUDGET)"
        )
    outputs = {tuple([0] * n): 0}
    for i in range(n):
        values = [0] * n
        values[i] = 1
        outputs[tuple(values)] = 1
    function = BooleanFunctionTable(n, 2, outputs)
    query = OracleCall(0, 1)  # one shared object, like the diffusion: an iteration adds references only
    for _ in range(iterations):
        steps.append(query)
        steps.append(diffusion)
    steps.append(OracleCall(0, 2))
    alg = QueryAlgorithm(
        layout=layout,
        steps=tuple(steps),
        output_rule=OutputRule((2,), frozenset({(1,)})),
    )
    return ZooEntry("grover", function, alg)


def constant_function(bit: int, n: int = 4) -> ZooEntry:
    """Zero-query baseline: fixed output, total domain over M = 2."""
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    if n < 1:
        raise ValueError("n must be positive")
    _require_table_in_budget(f"const{bit}", n, lambda: 2**n, n)
    outputs = {values: bit for values in itertools.product(range(2), repeat=n)}
    function = BooleanFunctionTable(n, 2, outputs)
    ones = frozenset({()}) if bit else frozenset()
    alg = QueryAlgorithm(
        layout=RegisterLayout((1,)),
        steps=(),
        output_rule=OutputRule((), ones),
    )
    return ZooEntry(f"const{bit}", function, alg)


def collision_sniffer(n: int) -> Distinguisher:
    """Interference probe distinguishing collision-heavy index maps.

    Queries the map on a uniform index superposition and measures how much
    amplitude returns to index 0 after the inverse transform: probability
    sum_v (|preimage of v|)^2 / n^2, which is 1/n for permutations and grows
    with collisions, up to 1 for constant maps.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    f = fourier_matrix(n)
    alg = QueryAlgorithm(
        layout=RegisterLayout((n, n)),
        steps=(Unitary(f, (0,)), OracleCall(0, 1), Unitary(f.conj().T, (0,))),
        output_rule=OutputRule((0,), frozenset({(0,)})),
    )
    return Distinguisher("collision-sniffer", alg)


def zero_query_probe(n: int) -> Distinguisher:
    """Oracle-independent probe; its advantage is zero by construction."""
    if n < 1:
        raise ValueError("n must be positive")
    alg = QueryAlgorithm(
        layout=RegisterLayout((n,)),
        steps=(),
        output_rule=OutputRule((0,), frozenset({(0,)})),
    )
    return Distinguisher("zero-query", alg)


class _CatalogRow(NamedTuple):
    kind: str
    constraints: str
    queries: str
    build: Callable  # (n, iterations) -> ZooEntry or Distinguisher


# the one registry: builders, id tuples and the catalog listing derive from it
_CATALOG = {
    "dj": _CatalogRow("decision", "n power of two, M = 2", "1", lambda n, k: deutsch_jozsa(n)),
    "grover": _CatalogRow(
        "decision",
        "n power of two, M = 2",
        "iterations + 1",
        lambda n, k: grover_unique_or(n, optimal_grover_iterations(n) if k is None else k),
    ),
    "const0": _CatalogRow("decision", "any n, M = 2", "0", lambda n, k: constant_function(0, n=n)),
    "const1": _CatalogRow("decision", "any n, M = 2", "0", lambda n, k: constant_function(1, n=n)),
    "collision-sniffer": _CatalogRow(
        "distinguisher", "n >= 2", "1", lambda n, k: collision_sniffer(n)
    ),
    "zero-query": _CatalogRow("distinguisher", "n >= 1", "0", lambda n, k: zero_query_probe(n)),
}

ZOO_IDS = tuple(i for i, row in _CATALOG.items() if row.kind == "decision")
DISTINGUISHER_IDS = tuple(i for i, row in _CATALOG.items() if row.kind == "distinguisher")


def build_zoo_entry(zoo_id: str, n: int, iterations: int | None = None) -> ZooEntry:
    if zoo_id not in ZOO_IDS:
        raise ValueError(f"unknown zoo id {zoo_id!r}; known: {', '.join(ZOO_IDS)}")
    return _CATALOG[zoo_id].build(n, iterations)


def build_distinguisher(algo_id: str, n: int) -> Distinguisher:
    if algo_id not in DISTINGUISHER_IDS:
        raise ValueError(f"unknown distinguisher {algo_id!r}; known: {', '.join(DISTINGUISHER_IDS)}")
    return _CATALOG[algo_id].build(n, None)


def zoo_catalog() -> list[dict]:
    """Rows for the catalog listing: id, kind, constraints, query count."""
    return [
        {"id": i, "kind": row.kind, "constraints": row.constraints, "queries": row.queries}
        for i, row in _CATALOG.items()
    ]
