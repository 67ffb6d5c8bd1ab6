"""Core domain types: queryable input tables, index maps, and explicitly
tabulated boolean functions with permutation-symmetry checkers.

Everything here is an immutable table over 0-based indices. An input of
length n over alphabet size M is a total map [n] -> [M]; index maps send
[n] -> [n] and double as permutations when injective. Both check their
entries once, at construction, with one shared check, which rejects a
non-integral entry rather than truncate it. Both expose `n`, `M` and
`values` (M = n for an index map); the oracles take such a table and
trust it. Boolean functions are stored extensionally on an explicit
domain so that partial (promise) functions are first-class; each domain
string passes the same check as an input's values.

A block of index maps is the array form of many `IndexFunction`s at once:
`index_map_block` checks a (B, n) integer array's range once, for every
row, and returns it read-only, for the oracle builder that trusts it.

The symmetry checkers move each domain string by the group's generators, the
adjacent swaps of positions (and values): |S|(n + M - 2) moves, not |S| n! M!.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np


def _integral(v) -> bool:
    try:
        return int(v) == v
    except (OverflowError, ValueError):  # infinity, NaN or a non-numeric string
        return False


def _as_ints(values, what: str = "entry") -> tuple[int, ...]:
    """The values as a tuple of ints; names the first one that is not integral.

    Integral floats such as 1.0 pass. A value like 1.7 raises instead of
    truncating, at the cost of one tuple comparison when every value passes.
    """
    values = tuple(values)
    try:
        ints = tuple(map(int, values))
    except (OverflowError, ValueError):
        ints = None
    if ints != values:
        bad = next(v for v in values if not _integral(v))
        raise ValueError(f"{what} {bad!r} is not an integer")
    return ints


def _checked_entries(values, n: int, bound: int) -> tuple[int, ...]:
    """The entries of a table [n] -> [bound] as ints; names the first bad one."""
    values = _as_ints(values)
    if n < 1:
        raise ValueError("n must be positive")
    if len(values) != n:
        raise ValueError(f"expected {n} entries, got {len(values)}")
    if min(values) < 0 or max(values) >= bound:
        bad = next(v for v in values if not 0 <= v < bound)
        raise ValueError(f"entry {bad} outside [0, {bound})")
    return values


@dataclass(frozen=True)
class InputString:
    """Total table [n] -> [M]; the object every oracle mediates access to."""

    n: int
    M: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.M < 1:
            raise ValueError("M must be positive")
        object.__setattr__(self, "values", _checked_entries(self.values, self.n, self.M))


@dataclass(frozen=True)
class IndexFunction:
    """Total map [n] -> [n]; permutations are the injective special case."""

    n: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _checked_entries(self.values, self.n, self.n))

    @property
    def M(self) -> int:
        """Value range: an index map's values are indices, so M = n."""
        return self.n

    @classmethod
    def identity(cls, n: int) -> "IndexFunction":
        return cls(n, tuple(range(n)))


def index_map_block(n: int, rows) -> np.ndarray:
    """Read-only (B, n) intp array of B maps [n] -> [n], every entry checked once.

    `rows` must already hold integers: a float or other dtype is rejected
    rather than truncated. The checked copy is what `oracles.index_map_oracles`
    takes in place of B `IndexFunction`s.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"expected a (B, {n}) block of index maps, got shape {rows.shape}")
    if rows.dtype.kind not in "iu":
        raise ValueError(f"index map entries must be integers, got dtype {rows.dtype}")
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        bad = rows[(rows < 0) | (rows >= n)][0]
        raise ValueError(f"entry {bad} outside [0, {n})")
    block = rows.astype(np.intp)
    block.flags.writeable = False
    return block


@dataclass(frozen=True, eq=False)
class BooleanFunctionTable:
    """Boolean function tabulated on an explicit domain S of [M]^n strings.

    Lookups outside the domain raise; callers that must not evaluate the
    function off-domain rely on that.
    """

    n: int
    M: int
    outputs: Mapping[tuple[int, ...], int]

    def __post_init__(self) -> None:
        if self.n < 1 or self.M < 1:
            raise ValueError("n and M must be positive")
        table = {}
        for key, bit in self.outputs.items():
            key = _checked_entries(key, self.n, self.M)
            if bit not in (0, 1):
                raise ValueError(f"output for {key} must be 0 or 1, got {bit}")
            table[key] = int(bit)
        object.__setattr__(self, "outputs", table)

    def __contains__(self, x: InputString) -> bool:
        return x.values in self.outputs

    def value(self, x: InputString) -> int:
        if x.n != self.n or x.M != self.M:
            raise ValueError("input shape does not match function table")
        try:
            return self.outputs[x.values]
        except KeyError:
            raise KeyError(f"input {x.values} is outside the function domain") from None


def compose_input(x: InputString, g: IndexFunction) -> InputString:
    """Table of x after g: result[i] = x[g(i)]."""
    if x.n != g.n:
        raise ValueError(f"dimension mismatch: input has n={x.n}, index map has n={g.n}")
    return InputString(x.n, x.M, tuple(x.values[g.values[i]] for i in range(x.n)))


def _swap(size: int, k: int) -> tuple[int, ...]:
    """The permutation of range(size) that swaps k and k + 1."""
    return (*range(k), k + 1, k, *range(k + 2, size))


def _broken_move(
    f: BooleanFunctionTable, relabel: bool
) -> Optional[tuple[InputString, tuple[int, ...], IndexFunction]]:
    """The first (x, sigma, pi), x in sorted domain order, whose moved string
    i -> sigma(x(pi(i))) leaves the domain or changes the bit, or None.

    The moves are the adjacent position swaps and, with `relabel`, the
    adjacent value swaps. They generate S_n (S_n x S_M), so a table every
    move maps into itself bit for bit is invariant under the whole group, and
    a move that fails is itself a group element that breaks invariance.
    """
    moves = [(tuple(range(f.M)), _swap(f.n, k)) for k in range(f.n - 1)]
    if relabel:
        moves += [(_swap(f.M, v), tuple(range(f.n))) for v in range(f.M - 1)]
    for key in sorted(f.outputs):
        bit = f.outputs[key]
        for sigma, pi in moves:
            if f.outputs.get(tuple(sigma[key[p]] for p in pi)) != bit:
                return InputString(f.n, f.M, key), sigma, IndexFunction(f.n, pi)
    return None


def first_type_asymmetry_witness(
    f: BooleanFunctionTable,
) -> Optional[tuple[InputString, IndexFunction]]:
    """A pair (x, pi) breaking position-permutation invariance, or None.

    The witness breaks invariance either because x o pi leaves the domain or
    because the function value changes. pi is an adjacent swap.
    """
    witness = _broken_move(f, relabel=False)
    return None if witness is None else (witness[0], witness[2])


def is_symmetric_first_type(f: BooleanFunctionTable) -> bool:
    """True iff f(x) = f(x o pi) for every domain x and every permutation pi."""
    return first_type_asymmetry_witness(f) is None


def second_type_asymmetry_witness(
    f: BooleanFunctionTable,
) -> Optional[tuple[InputString, tuple[int, ...], IndexFunction]]:
    """A triple (x, sigma, pi) breaking two-sided invariance, or None.

    sigma permutes output values, pi permutes positions; the checked map is
    i -> sigma(x(pi(i))). One is an adjacent swap and the other the identity.
    """
    return _broken_move(f, relabel=True)


def is_symmetric_second_type(f: BooleanFunctionTable) -> bool:
    """True iff f is invariant under permuting positions and relabeling values."""
    return second_type_asymmetry_witness(f) is None
