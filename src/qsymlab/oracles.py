"""Oracle realizations behind the simulator's oracle-call steps.

Three variants:

* StandardOracle: the additive-shift unitary |i>|j> -> |i>|j + t(i) mod d>
  for a table t. Its inverse is the same oracle with subtraction, so every
  application stays an exact permutation of the computational basis: one
  gather. A fresh oracle builds its source positions from a shift table
  whose row v holds the sources for an index with table value v: one
  `take` of a row per index, plus each index's offset. The tables are
  cached per tensor shape, register pair and direction, per process and
  not per oracle, since many callers build a fresh oracle per map. A
  table holds d*N/n_i entries (value dimension d, state size N, index
  dimension n_i), so one is kept only when d <= n_i and no cache outgrows
  the state; otherwise the source is computed from each position's digits.
  Each source is certified a permutation of the basis where it is built:
  a shift table once, when it is cached, by checking that each value's row
  holds every index-0 position once, which makes every source taken from
  it a permutation, since the table's entries are already checked; a
  digit-path source each time. A failed certificate raises AssertionError.
  So every call permutes the amplitudes, which `permutes_basis = True`
  declares: the simulator then carries the state's norm across the call
  instead of measuring it again.
  Each oracle keeps the source positions it has computed, per tensor shape,
  register pair and direction, because an amplified run repeats the same
  calls in each of its passes; the memo lives and dies with the oracle.
  The registers are checked against the tensor once per memo key, on the
  miss that computes the source: a hit repeats a check that already passed.
  Every call, hit or miss, bills one query; a call that fails bills none.
  `index_map_oracles` builds one such oracle per row of an index-map block
  that `core.index_map_block` checked, for a tensor shape and the register
  pairs an algorithm calls: it checks the pairs against the shape once per
  block and takes every row's source from the certified shift table with
  one `take` and one offset add, storing each under the key its first call
  would. Any other key still takes the checked miss path.
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
`values` (M = n for an index map). `StandardOracle(table)` reads its
dimensions from such a table and trusts its entries; `standard_oracle`
is the same constructor behind a type check, and `oracle_from_partial`
builds an `InputString` of the composed values, so a missing or
out-of-range entry still fails. Each oracle instance owns its query
counters; an oracle shared through `oracle_from_partial`'s dict (`compiler`
says when) sums them over the maps that share it.
"""

from __future__ import annotations

import functools
import math
from typing import Mapping, Optional

import numpy as np

from .core import IndexFunction, InputString
from .statevector import EXACT_ATOL, RegisterLayout, basis_state


def _require_permuting_rows(rows: np.ndarray, n_i: int) -> None:
    """Raise AssertionError unless every row v of `rows`, shaped (before, d, after),
    holds each index-0 position of a (before, n_i, after) layout exactly once.

    A source whose index-i block is row t(i) plus i times the index stride is
    then a basis permutation for every table t; a whole source is the case
    d = n_i = before = 1.
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


def _gather_source(
    shape: tuple[int, ...], index_reg: int, value_reg: int, table: np.ndarray, sign: int
) -> np.ndarray:
    # new[.., i, .., j, ..] = old[.., i, .., (j - sign*t(i)) mod d, ..]
    if shape[value_reg] <= shape[index_reg]:
        # the shift table holds d*N/n_i <= N entries: pick a row per index, add its offset
        rows, offsets = _shift_table(shape, index_reg, value_reg, sign)
        source = rows.take(table, axis=1)
        source += offsets
        return source.reshape(-1)
    # a shift table would outgrow the state: the formula over each position's digits
    positions = np.arange(math.prod(shape))
    digits = np.unravel_index(positions, shape)
    i, j = digits[index_reg], digits[value_reg]
    stride = math.prod(shape[value_reg + 1 :])
    source = positions + stride * ((j - sign * table.take(i)) % shape[value_reg] - j)
    _require_permuting_rows(source.reshape(1, 1, -1), 1)
    return source


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


class StandardOracle:
    """Additive-shift query oracle for a checked table: an `InputString`
    ([n] -> [M]) or an `IndexFunction` ([n] -> [n])."""

    # every call returns a basis permutation of its input, certified where the
    # gather source is built, so the simulator need not re-measure the norm
    permutes_basis = True

    def __init__(self, table: InputString | IndexFunction):
        self.values = table.values
        self.index_dim = table.n
        self.value_dim = table.M
        self.queries = 0
        self._table = np.array(self.values, dtype=np.intp)
        # gather source per (shape, index_reg, value_reg, inverse): each pass of
        # an amplified run repeats the calls of the first
        self._sources: dict = {}

    @classmethod
    def _of_block_row(
        cls, values: tuple[int, ...], row: np.ndarray, sources: dict
    ) -> "StandardOracle":
        """The oracle of one row of a checked index-map block, its sources filled in."""
        oracle = cls.__new__(cls)
        oracle.values = values
        oracle.index_dim = oracle.value_dim = len(values)
        oracle.queries = 0
        oracle._table = row
        oracle._sources = sources
        return oracle

    def apply_tensor(
        self, tensor: np.ndarray, index_reg: int, value_reg: int, inverse: bool = False
    ) -> np.ndarray:
        shape = tensor.shape
        key = (shape, index_reg, value_reg, inverse)
        source = self._sources.get(key)
        if source is None:
            # the key holds the shape and both registers: only a miss needs the check
            _check_arity(shape, index_reg, value_reg, self.index_dim, self.value_dim)
            sign = -1 if inverse else 1
            source = _gather_source(shape, index_reg, value_reg, self._table, sign).reshape(shape)
            self._sources[key] = source
        self.queries += 1
        # flat gather, shaped like the tensor because the source is
        return tensor.take(source)

    def matrix(self) -> np.ndarray:
        """Permutation matrix on the (index, value) product space, index-major."""
        n, d = self.index_dim, self.value_dim
        out = np.zeros((n * d, n * d), dtype=complex)
        for i in range(n):
            for j in range(d):
                out[i * d + (j + self.values[i]) % d, i * d + j] = 1.0
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


def standard_oracle(table: InputString | IndexFunction) -> StandardOracle:
    """Additive-shift oracle for an input table (values in [M]) or an index map."""
    if not isinstance(table, (InputString, IndexFunction)):
        raise TypeError(f"cannot build an oracle from {type(table)!r}")
    return StandardOracle(table)


def index_map_oracles(block: np.ndarray, shape: tuple[int, ...], pairs) -> list[StandardOracle]:
    """One `StandardOracle` per row of a block that `core.index_map_block` checked,
    each holding its gather source for `shape` and every (index_reg, value_reg)
    pair, as a first call on such a tensor would compute it.

    The register pairs are checked against `shape` once for the block; the
    sources come from the certified shift table, one `take` and one offset
    add per pair for the whole block. A call on another shape, pair or
    direction takes the ordinary miss path, checks included.
    """
    if not (
        isinstance(block, np.ndarray)
        and block.ndim == 2
        and block.dtype == np.intp
        and not block.flags.writeable
    ):
        raise TypeError("index_map_oracles takes a block checked by core.index_map_block")
    count, n = block.shape
    shape = tuple(shape)
    filled = []
    for index_reg, value_reg in dict.fromkeys(pairs):
        _check_arity(shape, index_reg, value_reg, n, n)
        # value and index registers both have dimension n: the shift-table path
        rows, offsets = _shift_table(shape, index_reg, value_reg, 1)
        source = rows.take(block, axis=1)  # (before, B, n, after)
        source += offsets
        source = np.ascontiguousarray(source.swapaxes(0, 1)).reshape((count, *shape))
        source.flags.writeable = False
        filled.append(((shape, index_reg, value_reg, False), source))
    return [
        StandardOracle._of_block_row(
            tuple(values), block[b], {key: source[b] for key, source in filled}
        )
        for b, values in enumerate(block.tolist())
    ]


def oracle_from_partial(
    x_on_image: Mapping[int, int],
    index_map: IndexFunction,
    value_dim: int,
    built: Optional[dict[tuple[int, ...], StandardOracle]] = None,
) -> StandardOracle:
    """Standard oracle for (x after index_map) from x known only on the image.

    The composed table reads x nowhere else, so the partial knowledge fully
    determines the oracle; its values are checked like any input's.
    `built` holds the oracles already built, by composed table, for one n
    and value_dim: a hit returns the stored oracle, a miss stores a new one.
    """
    try:
        composed = tuple(x_on_image[j] for j in index_map.values)
    except KeyError as missing:
        raise ValueError(f"missing image entry {missing.args[0]}") from None
    if built is None:
        built = {}
    oracle = built.get(composed)
    if oracle is None:
        oracle = built[composed] = StandardOracle(InputString(index_map.n, value_dim, composed))
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
