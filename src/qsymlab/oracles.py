"""Oracle realizations behind the simulator's oracle-call steps.

Three variants:

* StandardOracle: the additive-shift unitary |i>|j> -> |i>|j + t(i) mod d>
  for a table t. Its inverse is the same oracle with subtraction, so every
  application stays an exact permutation of the computational basis: one
  gather. Every oracle is row b of a stack of checked tables of one
  dimension pair: `StandardOracle(table)` is a stack of one, and
  `index_map_oracles(block)` hands out the rows of a block of index maps
  that `core.index_map_block` checked. A row keeps no tuple of its table:
  `values` reads its row of the stack when asked. The first miss of a memo
  key (tensor shape, register pair, direction) in any row checks the
  registers against the tensor once for the stack and builds every row's
  source at once with `_gather_sources`, the one function that computes
  sources: one `take` per stack of a shift table, whose row v holds the
  sources for an index with table value v, plus each index's offset. The
  shift tables are cached per tensor shape, register pair and direction, per
  process and not per stack. A table holds d*N/n_i entries (value dimension
  d, state size N, index dimension n_i), so one is kept only when d <= n_i
  and no cache outgrows the state; otherwise the sources are computed from
  each position's digits. Each source is certified a permutation of the
  basis where it is built: a shift table once, when it is cached, by
  checking that each value's row holds every index-0 position once, which
  makes every source taken from it a permutation, since the table's entries
  are already checked; a digit-path source each time, row by row. A failed
  certificate raises AssertionError. So every call permutes the amplitudes,
  which `permutes_basis = True` declares: the simulator then carries the
  state's norm across the call instead of measuring it again.
  The stack's sources are read-only and shared by its rows; each row keeps
  a view of its own source per key, because an amplified run repeats the
  same calls in each of its passes, so a hit is one dict lookup. A row
  gathers by fancy indexing the flat tensor, which reads a read-only index
  in place (numpy's `take` would copy it on every call). Every call, hit
  or miss, bills one query to its row; a call that fails bills none and
  builds nothing.
* ClassicalOracle: a counted plain lookup i -> x(i) into an input.
* ComposedOracle: the three-call gadget realizing the oracle of x composed
  with an index map g out of the oracles for x and g. One composed call
  applies g's oracle onto a dedicated ancilla, x's oracle from the ancilla
  into the value register, then undoes the ancilla, advancing the counters
  by two g-queries and one x-query. The ancilla must enter in |0> and is
  checked to leave in |0>.

Quantum oracles act on amplitude tensors shaped like the register layout
(`apply_tensor` reads the register dims from the tensor). A table is
validated once, where it is built: `core.InputString` and
`core.IndexFunction` check length and range, `core.index_map_block` the
range of a whole block of index maps, and every table exposes `n`, `M` and
`values` (M = n for an index map). `StandardOracle(table)` refuses
anything but such a table, reads its dimensions from it and trusts its
entries. `oracle_from_partial` takes an index map's values, already checked
by the `IndexFunction` or block row that holds them, and builds an
`InputString` of the composed values, so a missing image entry or an
out-of-range value still fails. Each oracle instance owns its query
counters; an oracle shared through `oracle_from_partial`'s dict
(`compiler` says when) sums them over the maps that share it.
"""

from __future__ import annotations

import functools
import math
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import IndexFunction, InputString
from .statevector import EXACT_ATOL, RegisterLayout, basis_state


def _require_permuting_rows(rows: np.ndarray, n_i: int) -> None:
    """Raise AssertionError unless every row v of `rows`, shaped (before, d, after),
    holds each index-0 position of a (before, n_i, after) layout exactly once.

    A source whose index-i block is row t(i) plus i times the index stride is
    then a basis permutation for every table t; a stack of whole sources, each
    checked alone, is the case n_i = before = 1 with one row per source.
    """
    before, d, after = rows.shape
    high, a = np.divmod(rows, after)
    b, i = np.divmod(high, n_i)
    # v is the key's leading digit, so each row has its own block of keys;
    # i must be 0 and b inside [0, before), else the ravel raises
    try:
        keys = np.ravel_multi_index((np.arange(d)[:, None], b, i, a), (d, before, 1, after))
    except ValueError:
        keys = None
    # counted, then compared as lists: an array sort or comparison here pages
    # in more of numpy and raises the process's peak RSS
    ones = [1] * rows.size
    if keys is None or np.bincount(keys.reshape(-1), minlength=rows.size).tolist() != ones:
        raise AssertionError("gather source is not a permutation of the basis")


@functools.lru_cache(maxsize=64)
def _shift_table(shape: tuple[int, ...], index_reg: int, value_reg: int, sign: int):
    """Read-only shift table of a layout whose value register is no larger than
    its index register, and the index digit's offsets.

    With the shape split as (before, index, after), `rows[b, v, a]` is the
    source position of (b, 0, a) for an index whose table value is v, and
    `offsets[i]` is i times the index register's stride; so the source of
    (b, i, a) is `rows[b, t(i), a] + offsets[i]`.
    """
    n_i, d = shape[index_reg], shape[value_reg]
    stride = math.prod(shape[value_reg + 1 :])
    after = math.prod(shape[index_reg + 1 :])
    # the positions with index digit 0, as (before, after)
    positions = np.arange(math.prod(shape)).reshape(-1, n_i, after)[:, 0, :]
    j = positions // stride % d
    shifted = (j[:, None, :] - sign * np.arange(d)[:, None]) % d
    rows = (positions - stride * j)[:, None, :] + stride * shifted
    _require_permuting_rows(rows, n_i)  # once per cached table, for every source built from it
    offsets = (np.arange(n_i) * after).reshape(n_i, 1)
    rows.flags.writeable = False
    offsets.flags.writeable = False
    return rows, offsets


def _gather_sources(
    shape: tuple[int, ...], index_reg: int, value_reg: int, stack: np.ndarray, sign: int
) -> np.ndarray:
    """Read-only gather sources of every table row of the (B, n) `stack`, shaped (B, *shape)."""
    # new[.., i, .., j, ..] = old[.., i, .., (j - sign*t(i)) mod d, ..]
    count = len(stack)
    if shape[value_reg] <= shape[index_reg]:
        # the shift table holds d*N/n_i <= N entries: pick a row per index, add its offset
        rows, offsets = _shift_table(shape, index_reg, value_reg, sign)
        sources = rows.take(stack, axis=1)  # (before, B, n_i, after)
        sources += offsets
        sources = np.ascontiguousarray(sources.swapaxes(0, 1))  # no copy for one row
    else:
        # a shift table would outgrow the state: the formula over each position's digits
        positions = np.arange(math.prod(shape))
        digits = np.unravel_index(positions, shape)
        i, j = digits[index_reg], digits[value_reg]
        stride = math.prod(shape[value_reg + 1 :])
        sources = positions + stride * ((j - sign * stack[:, i]) % shape[value_reg] - j)
        _require_permuting_rows(sources.reshape(1, count, -1), 1)  # each row a permutation
    sources = sources.reshape((count, *shape))
    sources.flags.writeable = False
    return sources


def _check_arity(
    shape: tuple[int, ...], index_reg: int, value_reg: int, index_dim: int, value_dim: int
) -> None:
    if index_reg == value_reg:
        raise ValueError("oracle needs two distinct registers")
    if not (0 <= index_reg < len(shape) and 0 <= value_reg < len(shape)):
        raise ValueError(f"oracle registers outside a tensor of {len(shape)} registers")
    if shape[index_reg] != index_dim or shape[value_reg] != value_dim:
        raise ValueError(
            f"incompatible oracle arity: oracle is {index_dim}x{value_dim}, "
            f"registers are {shape[index_reg]}x{shape[value_reg]}"
        )


class _TableStack:
    """Checked tables of one dimension pair, the rows of a read-only (B, n) intp
    array, and every row's gather source per memo key, built at once."""

    def __init__(self, tables: np.ndarray, value_dim: int):
        self.tables, self.value_dim = tables, value_dim
        self.sources: dict = {}


class StandardOracle:
    """Additive-shift query oracle for a checked table: an `InputString`
    ([n] -> [M]) or an `IndexFunction` ([n] -> [n]); `index_map_oracles`
    passes a stack and a row in its place."""

    # every call returns a basis permutation of its input, certified where the
    # gather source is built, so the simulator need not re-measure the norm
    permutes_basis = True

    def __init__(self, table: InputString | IndexFunction | _TableStack, row: int = 0):
        if isinstance(table, (InputString, IndexFunction)):
            tables = np.array([table.values], dtype=np.intp)
            tables.flags.writeable = False
            table = _TableStack(tables, table.M)
        elif not isinstance(table, _TableStack):
            raise TypeError(f"cannot build an oracle from {type(table)!r}")
        self._stack, self._row = table, row
        self.index_dim, self.value_dim = table.tables.shape[1], table.value_dim
        self.queries = 0
        # this row's view of its stack's source per (shape, index_reg, value_reg,
        # inverse): each pass of an amplified run repeats the calls of the first
        self._sources: dict = {}

    @property
    def values(self) -> tuple[int, ...]:
        """This row's table as a tuple of ints, read from its stack."""
        return tuple(self._stack.tables[self._row].tolist())

    def apply_tensor(
        self, tensor: np.ndarray, index_reg: int, value_reg: int, inverse: bool = False
    ) -> np.ndarray:
        shape = tensor.shape
        key = (shape, index_reg, value_reg, inverse)
        source = self._sources.get(key)
        if source is None:
            # the key holds the shape and both registers: only the key's first
            # call in any row of the stack checks them, and builds every row's source
            stack = self._stack
            sources = stack.sources.get(key)
            if sources is None:
                _check_arity(shape, index_reg, value_reg, self.index_dim, self.value_dim)
                sign = -1 if inverse else 1
                sources = stack.sources[key] = _gather_sources(
                    shape, index_reg, value_reg, stack.tables, sign
                )
            source = self._sources[key] = sources[self._row]
        self.queries += 1
        # flat gather, shaped like the tensor because the source is
        return tensor.reshape(-1)[source]

    def matrix(self) -> np.ndarray:
        """Permutation matrix on the (index, value) product space, index-major."""
        n, d, values = self.index_dim, self.value_dim, self.values
        out = np.zeros((n * d, n * d), dtype=complex)
        for i in range(n):
            for j in range(d):
                out[i * d + (j + values[i]) % d, i * d + j] = 1.0
        return out


class ClassicalOracle:
    """Counted classical lookup into an input; no memoization, every call is billed."""

    def __init__(self, x: InputString):
        self.values = x.values
        self.queries = 0

    def lookup(self, i: int) -> int:
        if not 0 <= i < len(self.values):
            raise IndexError(f"index {i} out of range [0, {len(self.values)})")
        self.queries += 1
        return self.values[i]


class ComposedOracle:
    """Oracle of (x after g) realized from the oracles of x and g.

    Per call, on registers (index, value) plus the ancilla register fixed at
    construction: g's oracle writes g(i) into the ancilla, x's oracle adds
    x(g(i)) into the value register, g's inverse restores the ancilla.
    """

    def __init__(self, x_oracle: StandardOracle, index_oracle: StandardOracle, ancilla: int):
        if x_oracle.index_dim != index_oracle.value_dim:
            raise ValueError(
                f"inner oracles do not chain: index map writes values in "
                f"[0, {index_oracle.value_dim}) but x expects indices in "
                f"[0, {x_oracle.index_dim})"
            )
        self.x_oracle = x_oracle
        self.index_oracle = index_oracle
        self.ancilla = int(ancilla)

    @property
    def query_counts(self) -> dict[str, int]:
        return {"x_queries": self.x_oracle.queries, "g_queries": self.index_oracle.queries}

    def apply_tensor(self, tensor: np.ndarray, index_reg: int, value_reg: int) -> np.ndarray:
        anc = self.ancilla
        if anc in (index_reg, value_reg):
            raise ValueError("ancilla register collides with the oracle-call registers")
        if not 0 <= anc < tensor.ndim:
            raise ValueError(f"ancilla register {anc} outside layout")
        if tensor.shape[anc] != self.index_oracle.value_dim:
            raise ValueError(
                f"ancilla register must have dimension {self.index_oracle.value_dim}, "
                f"got {tensor.shape[anc]}"
            )
        tensor = self.index_oracle.apply_tensor(tensor, index_reg, anc)
        tensor = self.x_oracle.apply_tensor(tensor, anc, value_reg)
        tensor = self.index_oracle.apply_tensor(tensor, index_reg, anc, inverse=True)
        probs = np.abs(tensor) ** 2
        leakage = float(probs.sum() - probs.take(0, axis=anc).sum())
        if leakage > EXACT_ATOL:
            raise AssertionError(
                f"gadget ancilla did not return to |0> (leakage {leakage:g}); "
                "it must enter every call in |0>"
            )
        return tensor


def index_map_oracles(block: np.ndarray) -> list[StandardOracle]:
    """One `StandardOracle` per row of a block that `core.index_map_block` checked,
    the rows of one stack: a key's first call in any row builds its sources for
    the whole block."""
    if not (
        isinstance(block, np.ndarray)
        and block.ndim == 2
        and block.dtype == np.intp
        and not block.flags.writeable
    ):
        raise TypeError("index_map_oracles takes a block checked by core.index_map_block")
    stack = _TableStack(block, block.shape[1])
    return [StandardOracle(stack, b) for b in range(len(block))]


def oracle_from_partial(
    x_on_image: Mapping[int, int],
    values: Sequence[int],
    value_dim: int,
    built: Optional[dict[tuple[int, ...], StandardOracle]] = None,
) -> StandardOracle:
    """Standard oracle for (x after the map with these values), x known on its image.

    The composed table reads x nowhere else, so the partial knowledge fully
    determines the oracle; its values are checked like any input's.
    `built` holds the oracles already built, by composed table, for one n
    and value_dim: a hit returns the stored oracle, a miss stores a new one.
    """
    try:
        composed = tuple(map(x_on_image.__getitem__, values))
    except KeyError as missing:
        raise ValueError(f"missing image entry {missing.args[0]}") from None
    if built is None:
        built = {}
    oracle = built.get(composed)
    if oracle is None:
        oracle = built[composed] = StandardOracle(InputString(len(composed), value_dim, composed))
    return oracle


def oracle_full_matrix(oracle, layout: RegisterLayout, index_reg: int, value_reg: int) -> np.ndarray:
    """Matrix of one oracle call on the whole layout, column by basis column.

    Advances the oracle's query counters once per column; use a scratch
    instance when counters matter.
    """
    dim = layout.total_dim
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        tensor = basis_state(layout, np.unravel_index(col, layout.dims))
        result = oracle.apply_tensor(tensor, index_reg, value_reg)
        out[:, col] = result.reshape(-1)
    return out
