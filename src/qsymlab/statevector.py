"""Exact dense statevector simulation of quantum query algorithms.

Registers carry arbitrary finite dimensions, so an index register of
dimension n and a value register of dimension M need no qubit padding. An
algorithm is a register layout, an ordered list of steps (dense unitaries on
register subsets, or oracle-call placeholders bound at run time), and an
output rule mapping measured basis outcomes of designated registers to a
bit. Probabilities are computed exactly from the final state; nothing here
samples.

A state is a plain complex amplitude tensor shaped like the layout's dims,
one axis per register; there is no separate state object. One kernel
applies every dense step: transpose the targets to the front, multiply the
matrix into the `(side, -1)` reshaped tensor, and transpose back. The axis
plan it follows (transpose order, result shape, inverse order) depends only
on the dims and the targets. `QueryAlgorithm` validates its steps and builds
their plans, and the output rule's axis order, once at construction, so
`run` does no per-call axis bookkeeping. `apply_unitary` checks its matrix
and targets and builds a plan on every call.

Amplified algorithms (repeats = 3) are executed as three independent passes
whose single-bit outcomes are combined by majority at the harness level, so
register count stays fixed while query accounting triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

VALIDITY_ATOL = 1e-9
EXACT_ATOL = 1e-12


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered register dimensions; the full space is their product."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if len(self.dims) == 0:
            raise ValueError("layout must declare at least one register")
        if any(d < 1 for d in self.dims):
            raise ValueError(f"register dimensions must be >= 1, got {self.dims}")

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)


def basis_state(layout: RegisterLayout, indices: tuple[int, ...] | None = None) -> np.ndarray:
    """Amplitude tensor of the basis state with the given digit per register.

    Defaults to the all-zeros state every simulation starts from.
    """
    tensor = np.zeros(layout.dims, dtype=complex)
    tensor.flat[0 if indices is None else np.ravel_multi_index(indices, layout.dims)] = 1.0
    return tensor


def require_unitary(matrix: np.ndarray, atol: float = VALIDITY_ATOL) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    side = matrix.shape[0]
    deviation = np.max(np.abs(matrix.conj().T @ matrix - np.eye(side)))
    if deviation > atol:
        raise ValueError(f"matrix is not unitary (deviation {deviation:g} > {atol:g})")
    return matrix


def _check_unitary_step(
    dims: tuple[int, ...], matrix: np.ndarray, targets: Union[int, tuple[int, ...]]
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Validated (matrix, targets) of a unitary acting on registers of the given dims."""
    if isinstance(targets, int):
        targets = (targets,)
    targets = tuple(int(t) for t in targets)
    if len(targets) == 0:
        raise ValueError("a unitary step needs at least one target register")
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target registers: {targets}")
    for t in targets:
        if not 0 <= t < len(dims):
            raise ValueError(f"target register {t} outside layout of {len(dims)} registers")
    matrix = np.asarray(matrix, dtype=complex)
    side = math.prod(dims[t] for t in targets)
    if matrix.shape != (side, side):
        raise ValueError(
            f"dimension mismatch: unitary on targets {targets} must have side {side}, "
            f"got shape {matrix.shape}"
        )
    return require_unitary(matrix), targets


AxisPlan = tuple[tuple[int, ...], int, tuple[int, ...], tuple[int, ...]]


def _axis_plan(dims: tuple[int, ...], targets: tuple[int, ...]) -> AxisPlan:
    """(order, side, shape, inverse) of a unitary on the targeted registers.

    `order` puts the targets first, in the given order, so the matrix's row
    index runs row-major over the target digits; `shape` is the tensor's
    shape in that order and `inverse` undoes the transpose.
    """
    order = targets + tuple(a for a in range(len(dims)) if a not in targets)
    side = math.prod(dims[t] for t in targets)
    inverse = tuple(order.index(a) for a in range(len(dims)))
    return order, side, tuple(dims[a] for a in order), inverse


def _contract(tensor: np.ndarray, matrix: np.ndarray, plan: AxisPlan) -> np.ndarray:
    order, side, shape, inverse = plan
    flat = tensor.transpose(order).reshape(side, -1)
    return np.dot(matrix, flat).reshape(shape).transpose(inverse)


def apply_unitary(
    tensor: np.ndarray, matrix: np.ndarray, targets: Union[int, tuple[int, ...]]
) -> np.ndarray:
    """Apply a dense unitary to the targeted registers of a tensor, identity elsewhere."""
    matrix, targets = _check_unitary_step(tensor.shape, matrix, targets)
    return _contract(tensor, matrix, _axis_plan(tensor.shape, targets))


@dataclass(frozen=True, eq=False)
class Unitary:
    """Algorithm step: a dense unitary on an ordered subset of registers."""

    matrix: np.ndarray
    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        matrix = np.array(self.matrix, dtype=complex)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        targets = self.targets if not isinstance(self.targets, int) else (self.targets,)
        object.__setattr__(self, "targets", tuple(int(t) for t in targets))


@dataclass(frozen=True)
class OracleCall:
    """Algorithm step: one query, binding the run-time oracle to two registers."""

    index_reg: int
    value_reg: int


Step = Union[Unitary, OracleCall]


@dataclass(frozen=True)
class OutputRule:
    """Maps measured outcomes of designated registers to a bit.

    Outcomes listed in `ones` read as 1; every other outcome reads as 0.
    """

    registers: tuple[int, ...]
    ones: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "registers", tuple(int(r) for r in self.registers))
        object.__setattr__(
            self, "ones", frozenset(tuple(int(v) for v in o) for o in self.ones)
        )
        if len(set(self.registers)) != len(self.registers):
            raise ValueError("output registers must be distinct")
        for outcome in self.ones:
            if len(outcome) != len(self.registers):
                raise ValueError(f"outcome {outcome} has wrong arity")


@dataclass(frozen=True, eq=False)
class QueryAlgorithm:
    """A register layout, ordered steps, an output rule, and a repeat count.

    repeats = 1 is a plain single-pass algorithm; repeats = 3 denotes the
    majority-of-three amplified form.
    """

    layout: RegisterLayout
    steps: tuple[Step, ...]
    output_rule: OutputRule
    repeats: int = 1
    # per step: its axis plan for a Unitary, None for an OracleCall
    _plans: tuple[Union[AxisPlan, None], ...] = field(init=False, repr=False)
    # output registers first, then the rest, and the axes to sum away
    _output_axes: tuple[tuple[int, ...], tuple[int, ...]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        if self.repeats not in (1, 3):
            raise ValueError(f"repeats must be 1 or 3, got {self.repeats}")
        dims = self.layout.dims
        plans = []
        for step in self.steps:
            if isinstance(step, Unitary):
                _check_unitary_step(dims, step.matrix, step.targets)
                plans.append(_axis_plan(dims, step.targets))
            elif isinstance(step, OracleCall):
                if step.index_reg == step.value_reg:
                    raise ValueError("oracle call needs two distinct registers")
                for reg in (step.index_reg, step.value_reg):
                    if not 0 <= reg < len(dims):
                        raise ValueError(f"oracle call register {reg} outside layout")
                plans.append(None)
            else:
                raise TypeError(f"unknown step type {type(step)!r}")
        for reg in self.output_rule.registers:
            if not 0 <= reg < len(dims):
                raise ValueError(f"output register {reg} outside layout")
        for outcome in self.output_rule.ones:
            for reg, v in zip(self.output_rule.registers, outcome):
                if not 0 <= v < dims[reg]:
                    raise ValueError(f"outcome digit {v} outside register {reg}")
        registers = self.output_rule.registers
        order = registers + tuple(a for a in range(len(dims)) if a not in registers)
        object.__setattr__(self, "_plans", tuple(plans))
        object.__setattr__(self, "_output_axes", (order, tuple(range(len(registers), len(dims)))))


def query_count(alg: QueryAlgorithm) -> int:
    """Number of oracle calls one full execution performs."""
    return alg.repeats * sum(1 for s in alg.steps if isinstance(s, OracleCall))


def _output_probability_one(tensor: np.ndarray, alg: QueryAlgorithm) -> float:
    order, summed = alg._output_axes
    marginal = (np.abs(tensor) ** 2).transpose(order).sum(axis=summed)
    total = float(marginal.sum())
    if abs(total - 1.0) > VALIDITY_ATOL:
        raise RuntimeError(f"output distribution sums to {total}, not 1")
    p_one = float(math.fsum(float(marginal[o]) for o in alg.output_rule.ones))
    # rounding can carry a Born probability an ulp outside [0, 1]
    return min(max(p_one, 0.0), 1.0)


def _simulate_once(alg: QueryAlgorithm, oracle) -> float:
    tensor = basis_state(alg.layout)
    for step, plan in zip(alg.steps, alg._plans):
        if plan is None:
            if oracle is None:
                raise ValueError("algorithm performs oracle calls but no oracle was given")
            tensor = oracle.apply_tensor(tensor, alg.layout, step.index_reg, step.value_reg)
        else:
            tensor = _contract(tensor, step.matrix, plan)
        norm = math.sqrt(np.vdot(tensor, tensor).real)
        if abs(norm - 1.0) > VALIDITY_ATOL:
            raise RuntimeError(f"state norm drifted to {norm}")
    return _output_probability_one(tensor, alg)


def run(alg: QueryAlgorithm, oracle=None) -> dict[int, float]:
    """Execute the algorithm against an oracle; exact output distribution.

    Returns {0: p0, 1: p1} computed from the final state, no sampling. Each
    pass applies the oracle once per oracle-call step, advancing its query
    counters; the amplified form runs three passes and combines their
    (independent, identically distributed) outcomes by majority.
    """
    if alg.repeats == 1:
        p_one = _simulate_once(alg, oracle)
    else:
        for _ in range(alg.repeats):
            p_one = _simulate_once(alg, oracle)
        p_one = p_one**3 + 3 * p_one**2 * (1 - p_one)
    return {0: 1.0 - p_one, 1: p_one}


# JSON wire format -----------------------------------------------------------


def _matrix_to_json(matrix: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in matrix.reshape(-1)]


def _matrix_from_json(pairs: list) -> np.ndarray:
    side = math.isqrt(len(pairs))
    if side * side != len(pairs):
        raise ValueError(f"matrix entry count {len(pairs)} is not a square")
    flat = np.array([complex(re, im) for re, im in pairs])
    return flat.reshape(side, side)


def algorithm_to_json(alg: QueryAlgorithm) -> dict:
    steps = []
    for step in alg.steps:
        if isinstance(step, OracleCall):
            steps.append({"oracle": {"index_reg": step.index_reg, "value_reg": step.value_reg}})
        else:
            steps.append(
                {
                    "unitary": {
                        "targets": list(step.targets),
                        "matrix": _matrix_to_json(step.matrix),
                    }
                }
            )
    return {
        "registers": list(alg.layout.dims),
        "steps": steps,
        "output": {
            "registers": list(alg.output_rule.registers),
            "map": [{"outcome": list(o), "bit": 1} for o in sorted(alg.output_rule.ones)],
        },
        "repeats": alg.repeats,
    }


def algorithm_from_json(obj: Mapping) -> QueryAlgorithm:
    layout = RegisterLayout(tuple(obj["registers"]))
    steps: list[Step] = []
    for entry in obj["steps"]:
        if "oracle" in entry:
            spec = entry["oracle"]
            steps.append(OracleCall(int(spec["index_reg"]), int(spec["value_reg"])))
        elif "unitary" in entry:
            spec = entry["unitary"]
            steps.append(Unitary(_matrix_from_json(spec["matrix"]), tuple(spec["targets"])))
        else:
            raise ValueError(f"unknown step entry {entry!r}")
    ones = frozenset(
        tuple(e["outcome"]) for e in obj["output"]["map"] if int(e.get("bit", 0)) == 1
    )
    rule = OutputRule(tuple(obj["output"]["registers"]), ones)
    return QueryAlgorithm(layout, tuple(steps), rule, repeats=int(obj.get("repeats", 1)))
