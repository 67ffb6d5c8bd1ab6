import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsymlab.core import (
    BooleanFunctionTable,
    IndexFunction,
    InputString,
    compose_input,
    first_type_asymmetry_witness,
    index_map_block,
    is_symmetric_first_type,
    is_symmetric_second_type,
    second_type_asymmetry_witness,
)
from qsymlab.zoo import build_zoo_entry, deutsch_jozsa


def or_table(n):
    return BooleanFunctionTable(
        n, 2, {v: int(any(v)) for v in itertools.product((0, 1), repeat=n)}
    )


class TestCompose:
    def test_table_lookup(self):
        x = InputString(4, 8, (5, 7, 7, 2))
        g = IndexFunction(4, (1, 1, 3, 3))
        assert compose_input(x, g).values == (7, 7, 2, 2)

    def test_identity(self):
        x = InputString(3, 5, (4, 0, 2))
        assert compose_input(x, IndexFunction.identity(3)) == x

    def test_swap(self):
        x = InputString(2, 2, (0, 1))
        assert compose_input(x, IndexFunction(2, (1, 0))).values == (1, 0)

    def test_alphabet_preserved(self):
        x = InputString(2, 9, (3, 4))
        assert compose_input(x, IndexFunction(2, (0, 0))).M == 9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            compose_input(InputString(2, 2, (0, 1)), IndexFunction(3, (0, 1, 2)))

    @settings(max_examples=60)
    @given(st.data())
    def test_associativity(self, data):
        n = data.draw(st.integers(1, 5))
        m = data.draw(st.integers(1, 4))
        x = InputString(n, m, tuple(data.draw(st.integers(0, m - 1)) for _ in range(n)))
        g = IndexFunction(n, tuple(data.draw(st.integers(0, n - 1)) for _ in range(n)))
        h = IndexFunction(n, tuple(data.draw(st.integers(0, n - 1)) for _ in range(n)))
        g_after_h = IndexFunction(n, tuple(g.values[v] for v in h.values))
        assert compose_input(compose_input(x, g), h) == compose_input(x, g_after_h)


class TestValidation:
    def test_entry_out_of_range(self):
        with pytest.raises(ValueError):
            InputString(2, 3, (0, 3))

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            IndexFunction(3, (0, 1))

    @pytest.mark.parametrize(
        "values, bad", [((0, 5, -1), 5), ((-1, 5, 0), -1), ((0, 1, 3), 3)]
    )
    def test_index_map_names_first_bad_entry(self, values, bad):
        with pytest.raises(ValueError, match=rf"^entry {bad} outside \[0, 3\)$"):
            IndexFunction(3, values)

    @pytest.mark.parametrize(
        "make",
        [lambda: InputString(0, 2, ()), lambda: IndexFunction(0, ())],
        ids=["input", "index-map"],
    )
    def test_empty_table_rejected(self, make):
        with pytest.raises(ValueError, match="^n must be positive$"):
            make()

    @pytest.mark.parametrize("values, bad", [((0, 5, -1), 5), ((-1, 5, 0), -1)])
    def test_table_names_first_bad_entry(self, values, bad):
        with pytest.raises(ValueError, match=rf"^entry {bad} outside \[0, 3\)$"):
            InputString(3, 3, values)

    @pytest.mark.parametrize(
        "make, bad",
        [
            (lambda: InputString(2, 2, (0, 1.7)), "1.7"),
            (lambda: IndexFunction(2, (0.9, 1.2)), "0.9"),
            (lambda: InputString(3, 4, (1.0, 2, 2.5)), "2.5"),
            (lambda: IndexFunction(2, ("1", 0)), "'1'"),
            (lambda: InputString(2, 2, (0, math.inf)), "inf"),
            (lambda: InputString(2, 2, (math.nan, 0)), "nan"),
            (lambda: InputString(2, 2, (0, "one")), "'one'"),
        ],
        ids=["input", "index-map", "after-integral-float", "string", "inf", "nan", "word"],
    )
    def test_non_integral_entry_rejected_not_truncated(self, make, bad):
        with pytest.raises(ValueError, match=rf"^entry {re.escape(bad)} is not an integer$"):
            make()

    def test_integral_floats_become_ints(self):
        x = InputString(2, 3, (2.0, 1))
        assert x.values == (2, 1) and all(type(v) is int for v in x.values)

    def test_index_map_values_range_over_n(self):
        g = IndexFunction(5, (4, 0, 0, 2, 1))
        assert (g.n, g.M) == (5, 5)
        with pytest.raises(AttributeError):
            g.M = 4

    def test_off_domain_lookup_raises(self):
        f = or_table(2)
        probe = InputString(2, 2, (0, 1))
        assert f.value(probe) == 1
        g = BooleanFunctionTable(2, 2, {(0, 0): 0})
        with pytest.raises(KeyError, match="outside the function domain"):
            g.value(probe)

    def test_table_rejects_bad_bit(self):
        with pytest.raises(ValueError):
            BooleanFunctionTable(1, 2, {(0,): 2})

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: InputString(2, 0, (0, 0)), "^M must be positive$"),
            (lambda: BooleanFunctionTable(0, 2, {}), "^n and M must be positive$"),
            (lambda: BooleanFunctionTable(2, 0, {}), "^n and M must be positive$"),
            (lambda: or_table(2).value(InputString(3, 2, (0, 1, 0))), "^input shape does not match"),
            (lambda: or_table(2).value(InputString(2, 3, (0, 1))), "^input shape does not match"),
        ],
        ids=["input-M", "table-n", "table-M", "value-n", "value-M"],
    )
    def test_sizes_and_shapes_checked(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize(
        "key, message",
        [
            ((0.7, 1), r"^entry 0\.7 is not an integer$"),
            ((0, 1, 1), r"^expected 2 entries, got 3$"),
            ((0, 2), r"^entry 2 outside \[0, 2\)$"),
        ],
        ids=["non-integral", "wrong-length", "out-of-range"],
    )
    def test_table_checks_domain_strings_like_an_input(self, key, message):
        with pytest.raises(ValueError, match=message):
            BooleanFunctionTable(2, 2, {key: 1})


class TestIndexMapBlock:
    def test_rows_equal_checked_index_maps(self):
        rows = list(itertools.product(range(3), repeat=3))
        block = index_map_block(3, rows)
        assert block.dtype == np.intp and block.shape == (27, 3)
        assert [tuple(row) for row in block.tolist()] == [IndexFunction(3, r).values for r in rows]

    def test_checked_copy_is_read_only(self):
        rows = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        block = index_map_block(2, rows)
        with pytest.raises(ValueError):
            block[0, 0] = 1
        rows[0, 0] = 5  # the caller's array stays writeable and is not the block
        assert block.tolist() == [[0, 1], [1, 1]]

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([0, 1, 2], r"^expected a \(B, 3\) block of index maps, got shape \(3,\)$"),
            ([[0, 1]], r"^expected a \(B, 3\) block of index maps, got shape \(1, 2\)$"),
            (np.zeros((1, 3, 1), dtype=int), r"got shape \(1, 3, 1\)$"),
            ([[0, 1, 2], [0, 1]], "inhomogeneous"),
            ([[0, 1, 2], [2, -1, 0]], r"^entry -1 outside \[0, 3\)$"),
            ([[0, 3, 2], [2, -1, 0]], r"^entry 3 outside \[0, 3\)$"),
            (np.array([[2**63 - 1, 0, 0]]), r"^entry 9223372036854775807 outside \[0, 3\)$"),
            (np.array([[0.0, 1.0, 2.0]]), "^index map entries must be integers, got dtype float64"),
            (np.array([[True, False, True]]), "got dtype bool$"),
            ([["0", "1", "2"]], "got dtype <U1$"),
            (np.array([[0, 1, 2]], dtype=object), "got dtype object$"),
        ],
        ids=[
            "flat", "short-rows", "three-axes", "ragged", "negative", "too-large", "huge",
            "float", "bool", "string", "object",
        ],
    )  # fmt: skip
    def test_bad_block_rejected(self, rows, message):
        with pytest.raises(ValueError, match=message):
            index_map_block(3, rows)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError, match="^n must be positive$"):
            index_map_block(0, np.zeros((1, 0), dtype=int))


class TestFirstTypeSymmetry:
    def test_or_is_symmetric(self):
        assert is_symmetric_first_type(or_table(4))

    def test_projection_is_not(self):
        proj = BooleanFunctionTable(2, 2, {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 1})
        witness = first_type_asymmetry_witness(proj)
        assert witness is not None
        x, pi = witness
        moved = compose_input(x, pi)
        assert moved not in proj or proj.value(moved) != proj.value(x)

    def test_constant_vs_balanced_table(self):
        outputs = {(b,) * 4: 0 for b in (0, 1)}
        for ones in itertools.combinations(range(4), 2):
            vals = [0] * 4
            for i in ones:
                vals[i] = 1
            outputs[tuple(vals)] = 1
        assert is_symmetric_first_type(BooleanFunctionTable(4, 2, outputs))

    def test_promise_domain_not_closed_is_witnessed(self):
        # (0,1) in the domain but its swap is not
        lop = BooleanFunctionTable(2, 2, {(0, 1): 1})
        assert not is_symmetric_first_type(lop)


class TestSecondTypeSymmetry:
    def test_all_entries_equal(self):
        outputs = {
            v: int(len(set(v)) == 1) for v in itertools.product(range(3), repeat=3)
        }
        assert is_symmetric_second_type(BooleanFunctionTable(3, 3, outputs))

    def test_or_fails_under_relabeling(self):
        f = or_table(3)
        witness = second_type_asymmetry_witness(f)
        assert witness is not None
        x, sigma, pi = witness
        relabeled = tuple(sigma[v] for v in compose_input(x, pi).values)
        assert f.outputs.get(relabeled) != f.value(x)

    def test_constant_one(self):
        outputs = {v: 1 for v in itertools.product(range(3), repeat=3)}
        assert is_symmetric_second_type(BooleanFunctionTable(3, 3, outputs))

    def test_second_implies_first(self):
        tables = [
            or_table(3),
            BooleanFunctionTable(
                3, 3, {v: int(len(set(v)) == 1) for v in itertools.product(range(3), repeat=3)}
            ),
            BooleanFunctionTable(2, 2, {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 1}),
        ]
        for f in tables:
            if is_symmetric_second_type(f):
                assert is_symmetric_first_type(f)


def brute_force_symmetric(f, relabel):
    """Invariance under every permutation of positions (and of values), by
    enumerating S_n (S_n x S_M) on every domain string."""
    value_perms = list(itertools.permutations(range(f.M))) if relabel else [tuple(range(f.M))]
    return all(
        f.outputs.get(tuple(sigma[key[p]] for p in pi)) == bit
        for key, bit in f.outputs.items()
        for pi in itertools.permutations(range(f.n))
        for sigma in value_perms
    )


def random_table(rng, n, M):
    """A random table: a random domain with random bits, a union of whole
    orbits of S_n or of S_n x S_M with one bit per orbit, or such a union
    with one string dropped or one bit flipped."""
    strings = list(itertools.product(range(M), repeat=n))
    kind = rng.randrange(4)
    if kind == 0:
        return {s: rng.randrange(2) for s in strings if rng.random() < 0.5}

    def orbit_of(s):  # the sorted string, or (kind 2 and 3) the sorted value counts
        return tuple(sorted(s)) if kind == 1 else tuple(sorted(map(s.count, range(M))))

    bits = {}
    for s in strings:
        bits.setdefault(orbit_of(s), rng.choice((0, 1, None)))
    outputs = {s: bits[orbit_of(s)] for s in strings if bits[orbit_of(s)] is not None}
    if kind == 3 and outputs:
        s = rng.choice(sorted(outputs))
        if rng.random() < 0.5:
            del outputs[s]
        else:
            outputs[s] ^= 1
    return outputs


def breaks_invariance(f, x, sigma, pi):
    moved = tuple(sigma[v] for v in compose_input(x, pi).values)
    return x in f and f.outputs.get(moved) != f.value(x)


@pytest.mark.parametrize("n, M", [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)])
def test_checkers_match_brute_force_enumeration(n, M):
    rng = random.Random(1000 * n + M)
    answers = set()
    for _ in range(150):
        outputs = random_table(rng, n, M)
        if not outputs:
            continue
        f = BooleanFunctionTable(n, M, outputs)
        first = first_type_asymmetry_witness(f)
        second = second_type_asymmetry_witness(f)
        assert (first is None) == brute_force_symmetric(f, relabel=False)
        assert (second is None) == brute_force_symmetric(f, relabel=True)
        if first is not None:
            x, pi = first
            assert breaks_invariance(f, x, tuple(range(M)), pi)
        if second is not None:
            assert breaks_invariance(f, *second)
        answers.add((first is None, second is None))
    # both answers occur for each class (n = 1 makes every table position-symmetric)
    want = {(True, True), (True, False)} | ({(False, False)} if n > 1 else set())
    assert answers == want


@pytest.mark.parametrize(
    "entry, relabel_symmetric",
    [(build_zoo_entry("grover", 16), False), (deutsch_jozsa(16), True)],
    ids=["grover", "dj"],
)
def test_classes_at_n16(entry, relabel_symmetric):
    # Grover is in the paper's class but not AA14's; DJ (12,872 strings) is in both
    f = entry.function
    assert f.n == 16 and is_symmetric_first_type(f)
    assert is_symmetric_second_type(f) == relabel_symmetric
    if not relabel_symmetric:
        assert breaks_invariance(f, *second_type_asymmetry_witness(f))
