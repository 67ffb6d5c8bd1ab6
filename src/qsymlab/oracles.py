"""Oracle realizations behind the simulator's oracle-call steps.

Three variants:

* StandardOracle: the additive-shift unitary |i>|j> -> |i>|j + t(i) mod d>
  for a table t. Its inverse is the same oracle with subtraction, so every
  application stays an exact permutation of the computational basis. That
  permutation is computed once per tensor shape, register pair and
  direction, as a flat source-index array the oracle keeps; each call is
  then one gather from the flattened tensor.
* ClassicalOracle: a counted plain lookup i -> t(i).
* ComposedOracle: the three-call gadget realizing the oracle of x composed
  with an index map g out of the oracles for x and g. One composed call
  applies g's oracle onto a dedicated ancilla, x's oracle from the ancilla
  into the value register, then undoes the ancilla, advancing the counters
  by two g-queries and one x-query. The ancilla must enter in |0> and is
  checked to leave in |0>.

Quantum oracles act on amplitude tensors shaped like the register layout
(`apply_tensor`); build them with `standard_oracle(table)` or the
constructors directly. Each oracle instance owns its query counters; share
the underlying tables, not the instances.
"""

from __future__ import annotations

from typing import Mapping, Union

import numpy as np

from .core import IndexFunction, InputString
from .statevector import EXACT_ATOL, RegisterLayout, basis_state

Table = Union[InputString, IndexFunction]


def _shift_along_value_axis(
    tensor: np.ndarray, index_axis: int, value_axis: int, table: np.ndarray, sign: int
) -> np.ndarray:
    # gather: new[i, j, ...] = old[i, (j - sign*t(i)) mod d, ...]
    moved = np.moveaxis(tensor, (index_axis, value_axis), (0, 1))
    n, d = moved.shape[0], moved.shape[1]
    rows = np.arange(n)[:, None]
    cols = (np.arange(d)[None, :] - sign * table[:, None]) % d
    gathered = moved[rows, cols]
    return np.moveaxis(gathered, (0, 1), (index_axis, value_axis))


class StandardOracle:
    """Additive-shift query oracle for a fixed table."""

    def __init__(self, values: tuple[int, ...], index_dim: int, value_dim: int):
        values = tuple(int(v) for v in values)
        if len(values) != index_dim:
            raise ValueError(f"table length {len(values)} does not match index dim {index_dim}")
        if any(not 0 <= v < value_dim for v in values):
            raise ValueError(f"table entries must lie in [0, {value_dim})")
        self.values = values
        self.index_dim = int(index_dim)
        self.value_dim = int(value_dim)
        self.queries = 0
        self._table = np.array(values, dtype=np.intp)
        # (shape, index_reg, value_reg, inverse) -> flat source index of each amplitude
        self._sources: dict[tuple, np.ndarray] = {}

    def _check_arity(self, layout: RegisterLayout, index_reg: int, value_reg: int) -> None:
        if index_reg == value_reg:
            raise ValueError("oracle needs two distinct registers")
        if layout.dims[index_reg] != self.index_dim or layout.dims[value_reg] != self.value_dim:
            raise ValueError(
                f"incompatible oracle arity: oracle is {self.index_dim}x{self.value_dim}, "
                f"registers are {layout.dims[index_reg]}x{layout.dims[value_reg]}"
            )

    def apply_tensor(
        self,
        tensor: np.ndarray,
        layout: RegisterLayout,
        index_reg: int,
        value_reg: int,
        inverse: bool = False,
    ) -> np.ndarray:
        self._check_arity(layout, index_reg, value_reg)
        self.queries += 1
        key = (tensor.shape, index_reg, value_reg, inverse)
        source = self._sources.get(key)
        if source is None:
            # shifting the flat positions themselves gives each amplitude's source
            positions = np.arange(tensor.size).reshape(tensor.shape)
            sign = -1 if inverse else 1
            shifted = _shift_along_value_axis(positions, index_reg, value_reg, self._table, sign)
            source = self._sources[key] = np.ascontiguousarray(shifted).reshape(-1)
        return tensor.reshape(-1)[source].reshape(tensor.shape)

    def matrix(self) -> np.ndarray:
        """Permutation matrix on the (index, value) product space, index-major."""
        n, d = self.index_dim, self.value_dim
        out = np.zeros((n * d, n * d), dtype=complex)
        for i in range(n):
            for j in range(d):
                out[i * d + (j + self.values[i]) % d, i * d + j] = 1.0
        return out


class ClassicalOracle:
    """Counted classical lookup; no memoization, every call is billed."""

    def __init__(self, values: tuple[int, ...]):
        self.values = tuple(int(v) for v in values)
        self.queries = 0

    def lookup(self, i: int) -> int:
        if not 0 <= i < len(self.values):
            raise IndexError(f"index {i} out of range [0, {len(self.values)})")
        self.queries += 1
        return self.values[i]

    def apply_tensor(self, *args, **kwargs):
        raise TypeError("classical oracle cannot be applied to a quantum state")


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
        self.calls = 0

    @property
    def query_counts(self) -> dict[str, int]:
        return {"x_queries": self.x_oracle.queries, "g_queries": self.index_oracle.queries}

    def apply_tensor(
        self, tensor: np.ndarray, layout: RegisterLayout, index_reg: int, value_reg: int
    ) -> np.ndarray:
        anc = self.ancilla
        if anc in (index_reg, value_reg):
            raise ValueError("ancilla register collides with the oracle-call registers")
        if not 0 <= anc < len(layout.dims):
            raise ValueError(f"ancilla register {anc} outside layout")
        if layout.dims[anc] != self.index_oracle.value_dim:
            raise ValueError(
                f"ancilla register must have dimension {self.index_oracle.value_dim}, "
                f"got {layout.dims[anc]}"
            )
        tensor = self.index_oracle.apply_tensor(tensor, layout, index_reg, anc)
        tensor = self.x_oracle.apply_tensor(tensor, layout, anc, value_reg)
        tensor = self.index_oracle.apply_tensor(tensor, layout, index_reg, anc, inverse=True)
        self.calls += 1
        probs = np.abs(np.moveaxis(tensor, anc, 0)) ** 2
        leakage = float(probs.sum() - probs[0].sum())
        if leakage > EXACT_ATOL:
            raise AssertionError(
                f"gadget ancilla did not return to |0> (leakage {leakage:g}); "
                "it must enter every call in |0>"
            )
        return tensor


def standard_oracle(table: Table) -> StandardOracle:
    """Additive-shift oracle for an input table (values in [M]) or an index map."""
    if isinstance(table, InputString):
        return StandardOracle(table.values, table.n, table.M)
    if isinstance(table, IndexFunction):
        return StandardOracle(table.values, table.n, table.n)
    raise TypeError(f"cannot build an oracle from {type(table)!r}")


def oracle_from_partial(
    x_on_image: Mapping[int, int], index_map: IndexFunction, value_dim: int
) -> StandardOracle:
    """Standard oracle for (x after index_map) from x known only on the image.

    The composed table reads x nowhere else, so the partial knowledge fully
    determines the oracle.
    """
    composed = []
    for i in range(index_map.n):
        j = index_map.values[i]
        if j not in x_on_image:
            raise ValueError(f"missing image entry {j}")
        composed.append(int(x_on_image[j]))
    return StandardOracle(tuple(composed), index_map.n, value_dim)


def oracle_full_matrix(oracle, layout: RegisterLayout, index_reg: int, value_reg: int) -> np.ndarray:
    """Matrix of one oracle call on the whole layout, column by basis column.

    Advances the oracle's query counters once per column; use a scratch
    instance when counters matter.
    """
    dim = layout.total_dim
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        tensor = basis_state(layout, np.unravel_index(col, layout.dims))
        result = oracle.apply_tensor(tensor, layout, index_reg, value_reg)
        out[:, col] = result.reshape(-1)
    return out
