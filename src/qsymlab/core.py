"""Core domain types: queryable input tables, index maps, and explicitly
tabulated boolean functions with permutation-symmetry checkers.

Everything here is an immutable table over 0-based indices. An input of
length n over alphabet size M is a total map [n] -> [M]; index maps send
[n] -> [n] and double as permutations when injective. Both check their
entries once, at construction, with one shared check, which rejects a
non-integral entry rather than truncate it. Both expose `n`, `M` and
`values` (M = n for an index map); the oracles take such a table and
trust it. Boolean functions are stored extensionally on an explicit
domain so that partial (promise) functions are first-class.

The symmetry checkers enumerate permutation groups outright and are guarded
to small n; they are meant as test oracles, not as production paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional

FIRST_TYPE_GUARD = 8
SECOND_TYPE_GUARD = 6


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
            key = tuple(int(v) for v in key)
            if len(key) != self.n:
                raise ValueError(f"domain string {key} has wrong length")
            if any(not 0 <= v < self.M for v in key):
                raise ValueError(f"domain string {key} outside [{self.M}]^{self.n}")
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


def image(g: IndexFunction) -> frozenset[int]:
    """The set of values g attains."""
    return frozenset(g.values)


def first_type_asymmetry_witness(
    f: BooleanFunctionTable,
) -> Optional[tuple[InputString, IndexFunction]]:
    """A pair (x, pi) breaking position-permutation invariance, or None.

    The witness breaks invariance either because x o pi leaves the domain or
    because the function value changes.
    """
    if f.n > FIRST_TYPE_GUARD:
        raise ValueError(f"refusing to enumerate S_n for n={f.n} > {FIRST_TYPE_GUARD}")
    for key in sorted(f.outputs):
        fx = f.outputs[key]
        for perm in itertools.permutations(range(f.n)):
            permuted = tuple(key[perm[i]] for i in range(f.n))
            if f.outputs.get(permuted) != fx:
                return InputString(f.n, f.M, key), IndexFunction(f.n, perm)
    return None


def is_symmetric_first_type(f: BooleanFunctionTable) -> bool:
    """True iff f(x) = f(x o pi) for every domain x and every permutation pi."""
    return first_type_asymmetry_witness(f) is None


def second_type_asymmetry_witness(
    f: BooleanFunctionTable,
) -> Optional[tuple[InputString, tuple[int, ...], IndexFunction]]:
    """A triple (x, sigma, pi) breaking two-sided invariance, or None.

    sigma permutes output values, pi permutes positions; the checked map is
    i -> sigma(x(pi(i))).
    """
    if f.n > SECOND_TYPE_GUARD or f.M > SECOND_TYPE_GUARD:
        raise ValueError(
            f"refusing to enumerate S_n x S_M for n={f.n}, M={f.M} (guard {SECOND_TYPE_GUARD})"
        )
    value_perms = list(itertools.permutations(range(f.M)))
    for key in sorted(f.outputs):
        fx = f.outputs[key]
        for perm in itertools.permutations(range(f.n)):
            shuffled = tuple(key[perm[i]] for i in range(f.n))
            for sigma in value_perms:
                relabeled = tuple(sigma[v] for v in shuffled)
                if f.outputs.get(relabeled) != fx:
                    return (
                        InputString(f.n, f.M, key),
                        sigma,
                        IndexFunction(f.n, perm),
                    )
    return None


def is_symmetric_second_type(f: BooleanFunctionTable) -> bool:
    """True iff f is invariant under permuting positions and relabeling values."""
    return second_type_asymmetry_witness(f) is None
