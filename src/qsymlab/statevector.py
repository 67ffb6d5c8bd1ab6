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
on the dims and the targets; when the targets already lead, the plan says
so once and the kernel skips both transposes.

Each step checks itself when it is built: a `Unitary` that its targets are
distinct ints and its matrix is unitary, an `OracleCall` that its two
registers differ. `QueryAlgorithm` checks only placement, that each step's
registers lie inside its layout and each matrix has its targets' side, so
a rebuild by `dataclasses.replace` (amplification, a gadget ancilla)
verifies no matrix again. It turns the steps into one tuple of plain ops
(a matrix with its plan, or an oracle call's register pair), so `run` does
no per-call axis bookkeeping or attribute lookups. It also applies the
leading oracle-free steps to `|0...0>` once, with the same ops and norm
check, and keeps the result as a read-only start state: every pass begins
there, at the first oracle call. `apply_unitary` builds a `Unitary` and a
plan on every call.

The output rule is precomputed too: the transpose that brings the output
registers first (None when they already lead), the axes summed away, the
flat positions of the outcomes that read 1 in the marginal, the number of
output outcomes, and those positions' slice when the output registers lead
and the positions form one run. When the output registers lead, only the
rows of the outcomes that read 1 are squared and summed, taken by that
slice when there is one and gathered otherwise; if not, the whole tensor
is transposed and reduced to the marginal. When exactly one outcome reads
1, on either path, its entry is returned as it is: the correctly rounded
sum of one float is that float.

The step loop applies a leading-target step inline, as `_contract` would
without its transposes; `_contract` serves the other steps and
`apply_unitary`. After every step the squared norm is compared against
`(1 +- VALIDITY_ATOL)**2`, so no square root is taken unless the check
fails, and the last step's squared norm is the total the output's sum-to-1
check reads. Every validity check is written so that a NaN fails it: a
non-finite matrix or state raises.

Amplified algorithms (repeats = 3) are executed as three independent passes
whose single-bit outcomes are combined by majority at the harness level, so
register count stays fixed while query accounting triples. Every pass
evolves from the start state, calls the oracle and checks the norm at every
step, but the passes are bit-identical, so the output rule is read once,
from the last pass's tensor and squared norm, with its sum-to-1 check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .core import _as_ints

VALIDITY_ATOL = 1e-9
EXACT_ATOL = 1e-12
# entries of the largest dense array built, checked before allocating: a
# start state or dense matrix of 2^24 complex entries takes 256 MB, and
# Grover at n=2048 needs a 2^22-entry diffusion matrix
DENSE_ENTRIES_MAX = 2**24


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered register dimensions; the full space is their product."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", _as_ints(self.dims, "register dimension"))
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


def require_unitary(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    side = matrix.shape[0]
    deviation = np.max(np.abs(matrix.conj().T @ matrix - np.eye(side)))
    if not deviation <= VALIDITY_ATOL:  # NaN fails too
        raise ValueError(f"matrix is not unitary (deviation {deviation:g} > {VALIDITY_ATOL:g})")
    return matrix


AxisPlan = tuple[Union[tuple[int, ...], None], int, tuple[int, ...], tuple[int, ...]]


def _axis_plan(dims: tuple[int, ...], targets: tuple[int, ...]) -> AxisPlan:
    """(order, side, shape, inverse) of a unitary on the targeted registers.

    `order` puts the targets first, in the given order, so the matrix's row
    index runs row-major over the target digits; `shape` is the tensor's
    shape in that order and `inverse` undoes the transpose. `order` is None
    when the targets already lead, and then no transpose is needed.
    """
    order = targets + tuple(a for a in range(len(dims)) if a not in targets)
    side = math.prod(dims[t] for t in targets)
    inverse = tuple(order.index(a) for a in range(len(dims)))
    shape = tuple(dims[a] for a in order)
    return (None if order == tuple(range(len(dims))) else order), side, shape, inverse


def _contract(tensor: np.ndarray, matrix: np.ndarray, plan: AxisPlan) -> np.ndarray:
    order, side, shape, inverse = plan
    if order is None:
        return np.dot(matrix, tensor.reshape(side, -1)).reshape(shape)
    flat = tensor.transpose(order).reshape(side, -1)
    return np.dot(matrix, flat).reshape(shape).transpose(inverse)


@dataclass(frozen=True, eq=False)
class Unitary:
    """Algorithm step: a dense unitary on an ordered subset of registers, checked when built."""

    matrix: np.ndarray
    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        targets = (self.targets,) if isinstance(self.targets, int) else self.targets
        targets = _as_ints(targets, "target register")
        if len(targets) == 0:
            raise ValueError("a unitary step needs at least one target register")
        if len(set(targets)) != len(targets):
            raise ValueError(f"duplicate target registers: {targets}")
        object.__setattr__(self, "targets", targets)
        matrix = require_unitary(np.array(self.matrix, dtype=complex))
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)


@dataclass(frozen=True)
class OracleCall:
    """Algorithm step: one query, binding the run-time oracle to two distinct registers."""

    index_reg: int
    value_reg: int

    def __post_init__(self) -> None:
        index_reg, value_reg = _as_ints((self.index_reg, self.value_reg), "oracle register")
        if index_reg == value_reg:
            raise ValueError("oracle call needs two distinct registers")
        object.__setattr__(self, "index_reg", index_reg)
        object.__setattr__(self, "value_reg", value_reg)


def _placed(dims: tuple[int, ...], step: Unitary) -> AxisPlan:
    """A step's axis plan on the given dims, once its targets and side are checked to fit them."""
    for t in step.targets:
        if not 0 <= t < len(dims):
            raise ValueError(f"target register {t} outside layout of {len(dims)} registers")
    plan = _axis_plan(dims, step.targets)
    if step.matrix.shape[0] != plan[1]:
        raise ValueError(
            f"dimension mismatch: unitary on targets {step.targets} must have side {plan[1]}, "
            f"got shape {step.matrix.shape}"
        )
    return plan


def apply_unitary(
    tensor: np.ndarray, matrix: np.ndarray, targets: Union[int, tuple[int, ...]]
) -> np.ndarray:
    """Apply a dense unitary to the targeted registers of a tensor, identity elsewhere."""
    step = Unitary(matrix, targets)
    return _contract(tensor, step.matrix, _placed(tensor.shape, step))


Step = Union[Unitary, OracleCall]


@dataclass(frozen=True)
class OutputRule:
    """Maps measured outcomes of designated registers to a bit.

    Outcomes listed in `ones` read as 1; every other outcome reads as 0.
    """

    registers: tuple[int, ...]
    ones: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "registers", _as_ints(self.registers, "output register"))
        object.__setattr__(
            self, "ones", frozenset(_as_ints(o, "outcome digit") for o in self.ones)
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
    # read-only state after the leading oracle-free steps, which are the
    # same in every pass, and its squared norm; then one op per step left:
    # (matrix, plan) for a unitary and (None, (index_reg, value_reg)) for an
    # oracle call
    _start: np.ndarray = field(init=False, repr=False)
    _start_norm_sq: float = field(init=False, repr=False)
    _ops: tuple[tuple, ...] = field(init=False, repr=False)
    # transpose order bringing the output registers first (None when they
    # lead), the axes to sum away, the flat marginal positions of `ones`,
    # the number of output outcomes, the slice of those positions when the
    # output registers lead and the positions form one run (else None), and
    # whether exactly one outcome reads 1, so that its entry is the answer
    _output: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        if self.repeats not in (1, 3):
            raise ValueError(f"repeats must be 1 or 3, got {self.repeats}")
        dims = self.layout.dims
        if self.layout.total_dim > DENSE_ENTRIES_MAX:
            raise ValueError(
                f"a start state of {self.layout.total_dim} amplitudes exceeds {DENSE_ENTRIES_MAX} entries"
            )
        ops = []
        for step in self.steps:
            if isinstance(step, Unitary):
                ops.append((step.matrix, _placed(dims, step)))
            elif isinstance(step, OracleCall):
                for reg in (step.index_reg, step.value_reg):
                    if not 0 <= reg < len(dims):
                        raise ValueError(f"oracle call register {reg} outside layout")
                ops.append((None, (step.index_reg, step.value_reg)))
            else:
                raise TypeError(f"unknown step type {type(step)!r}")
        registers = self.output_rule.registers
        for reg in registers:
            if not 0 <= reg < len(dims):
                raise ValueError(f"output register {reg} outside layout")
        ones = []
        for outcome in self.output_rule.ones:
            flat = 0
            for reg, v in zip(registers, outcome):
                if not 0 <= v < dims[reg]:
                    raise ValueError(f"outcome digit {v} outside register {reg}")
                flat = flat * dims[reg] + v
            ones.append(flat)
        order = registers + tuple(a for a in range(len(dims)) if a not in registers)
        if order == tuple(range(len(dims))):
            order = None
        summed = tuple(range(len(registers), len(dims)))
        first = 0
        while first < len(ops) and ops[first][0] is not None:
            first += 1
        start, norm_sq = _evolve(basis_state(self.layout), 1.0, ops[:first], None)
        start.flags.writeable = False
        object.__setattr__(self, "_start", start)
        object.__setattr__(self, "_start_norm_sq", norm_sq)
        object.__setattr__(self, "_ops", tuple(ops[first:]))
        out_side = math.prod(dims[reg] for reg in registers)
        run_slice = None
        # the positions are distinct, so this span holds exactly them
        if order is None and ones and max(ones) - min(ones) == len(ones) - 1:
            run_slice = slice(min(ones), max(ones) + 1)
        output = (order, summed, np.array(ones, dtype=np.intp), out_side, run_slice, len(ones) == 1)
        object.__setattr__(self, "_output", output)


def query_count(alg: QueryAlgorithm) -> int:
    """Number of oracle calls one full execution performs."""
    return alg.repeats * sum(1 for s in alg.steps if isinstance(s, OracleCall))


def _output_probability_one(tensor: np.ndarray, norm_sq: float, alg: QueryAlgorithm) -> float:
    """P(output bit 1) of a final tensor whose squared norm is `norm_sq`."""
    if not abs(norm_sq - 1.0) <= VALIDITY_ATOL:  # NaN fails too
        raise RuntimeError(f"output distribution sums to {norm_sq}, not 1")
    order, summed, ones, out_side, run_slice, single = alg._output
    if order is None:
        # the output digits index the rows: square and sum only those that read 1
        if run_slice is None:
            rows = tensor.reshape(out_side, -1).take(ones, axis=0)
        else:
            # row-major like the gathered rows, so each row sums in the same order
            rows = np.ascontiguousarray(tensor.reshape(out_side, -1)[run_slice])
        picked = np.add.reduce(np.abs(rows) ** 2, axis=1)
    else:
        marginal = np.add.reduce((np.abs(tensor) ** 2).transpose(order), axis=summed)
        picked = marginal.take(ones)
    # fsum rounds correctly, so the order of `ones` does not matter, and
    # the fsum of one float is that float
    p_one = picked.item() if single else math.fsum(picked.tolist())
    # rounding can carry a Born probability an ulp outside [0, 1]
    return min(max(p_one, 0.0), 1.0)


# a state's squared norm must lie in [_NORM_SQ_LOW, _NORM_SQ_HIGH]
_NORM_SQ_LOW = (1.0 - VALIDITY_ATOL) ** 2
_NORM_SQ_HIGH = (1.0 + VALIDITY_ATOL) ** 2


def _evolve(
    tensor: np.ndarray, norm_sq: float, ops: tuple[tuple, ...], oracle
) -> tuple[np.ndarray, float]:
    """Apply the ops in turn, checking the norm after each one.

    Returns the final tensor and its squared norm, which is `norm_sq`, the
    given tensor's, when there are no ops.
    """
    dot, vdot, low, high = np.dot, np.vdot, _NORM_SQ_LOW, _NORM_SQ_HIGH
    for matrix, plan in ops:
        if matrix is None:
            if oracle is None:
                raise ValueError("algorithm performs oracle calls but no oracle was given")
            tensor = oracle.apply_tensor(tensor, *plan)
        elif plan[0] is None:  # the targets lead: `_contract` without its transposes
            tensor = dot(matrix, tensor.reshape(plan[1], -1)).reshape(plan[2])
        else:
            tensor = _contract(tensor, matrix, plan)
        norm_sq = vdot(tensor, tensor).real
        if not low <= norm_sq <= high:  # NaN fails too
            raise RuntimeError(f"state norm drifted to {math.sqrt(norm_sq)}")
    return tensor, norm_sq


def majority3_prob(p):
    """Probability that the majority of three independent p-biased bits is 1.

    Exact for Fraction inputs, float otherwise.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p} outside [0, 1]")
    return p**3 + 3 * p**2 * (1 - p)


def run(alg: QueryAlgorithm, oracle=None) -> dict[int, float]:
    """Execute the algorithm against an oracle; exact output distribution.

    Returns {0: p0, 1: p1} computed from the final state, no sampling. Each
    pass applies the oracle once per oracle-call step, advancing its query
    counters; the amplified form runs three passes and combines their
    (independent, identically distributed) outcomes by majority. The passes
    are bit-identical, so the output is read once, from the last one.
    """
    for _ in range(alg.repeats):
        tensor, norm_sq = _evolve(alg._start, alg._start_norm_sq, alg._ops, oracle)
    p_one = _output_probability_one(tensor, norm_sq, alg)
    if alg.repeats != 1:
        p_one = majority3_prob(p_one)
    return {0: 1.0 - p_one, 1: p_one}
