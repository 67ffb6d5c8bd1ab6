import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsymlab import oracles
from qsymlab.core import IndexFunction, InputString, compose_input, index_map_block
from qsymlab.oracles import (
    ClassicalOracle,
    ComposedOracle,
    StandardOracle,
    index_map_oracles,
    oracle_from_partial,
    oracle_full_matrix,
)
from qsymlab.statevector import (
    OracleCall,
    OutputRule,
    QueryAlgorithm,
    RegisterLayout,
    Unitary,
    apply_unitary,
    basis_state,
    run,
)


TABLE_3X4 = InputString(3, 4, (1, 3, 2))


def gadget_layout(n, m):
    # index, value, ancilla
    return RegisterLayout((n, m, n))


class TestStandardOracle:
    def test_additive_shift(self):
        x = InputString(3, 3, (0, 1, 2))
        oracle = StandardOracle(x)
        layout = RegisterLayout((3, 3))
        out = oracle.apply_tensor(basis_state(layout, (2, 1)), 0, 1)
        # (1 + 2) mod 3 = 0
        assert out[2, 0] == 1

    def test_all_zeros_is_identity(self):
        oracle = StandardOracle(InputString(3, 4, (0, 0, 0)))
        layout = RegisterLayout((3, 4))
        matrix = oracle_full_matrix(oracle, layout, 0, 1)
        assert np.array_equal(matrix, np.eye(12))

    def test_additive_order_divides_dim(self):
        x = InputString(2, 3, (1, 2))
        oracle = StandardOracle(x)
        layout = RegisterLayout((2, 3))
        state = basis_state(layout, (1, 1))
        for _ in range(3):
            state = oracle.apply_tensor(state, 0, 1)
        assert state[1, 1] == 1

    def test_inverse_undoes(self):
        oracle = StandardOracle(IndexFunction(4, (3, 1, 0, 2)))
        layout = RegisterLayout((4, 4))
        state = basis_state(layout, (0, 2))
        forward = oracle.apply_tensor(state, 0, 1)
        back = oracle.apply_tensor(forward, 0, 1, inverse=True)
        assert np.array_equal(back, state)

    def test_basis_permutation_exhaustive(self):
        layout = RegisterLayout((3, 3))
        for values in itertools.product(range(3), repeat=3):
            matrix = oracle_full_matrix(StandardOracle(IndexFunction(3, values)), layout, 0, 1)
            hits = {int(np.argmax(matrix[:, c])) for c in range(9)}
            assert len(hits) == 9
            assert np.allclose(np.abs(matrix).sum(axis=0), 1)

    def test_matrix_matches_apply(self):
        x = InputString(4, 3, (2, 0, 1, 2))
        layout = RegisterLayout((4, 3))
        assert np.array_equal(
            StandardOracle(x).matrix(),
            oracle_full_matrix(StandardOracle(x), layout, 0, 1),
        )

    @pytest.mark.parametrize(
        "table, dims",
        [(InputString(3, 5, (4, 0, 2)), (3, 5)), (IndexFunction(4, (3, 3, 0, 1)), (4, 4))],
        ids=["input", "index-map"],
    )
    def test_dimensions_come_from_the_table(self, table, dims):
        oracle = StandardOracle(table)
        assert oracle.values == table.values
        assert (oracle.index_dim, oracle.value_dim) == dims

    @pytest.mark.parametrize("raw", [(0, 1, 2), [0, 1, 2], np.array([0, 1, 2])])
    def test_standard_oracle_needs_a_checked_table(self, raw):
        with pytest.raises(TypeError, match="cannot build an oracle"):
            StandardOracle(raw)

    def test_arity_mismatch(self):
        oracle = StandardOracle(InputString(3, 3, (0, 1, 2)))
        layout = RegisterLayout((3, 4))
        with pytest.raises(ValueError, match="arity"):
            oracle.apply_tensor(basis_state(layout, (0, 0)), 0, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_apply_tensor_matches_embedded_matrix(self, data):
        k = data.draw(st.integers(2, 3), label="registers")
        index_reg, value_reg = data.draw(
            st.permutations(range(k)).map(lambda p: (p[0], p[1])), label="registers (i, v)"
        )
        n = data.draw(st.integers(1, 4), label="index dim")
        d = data.draw(st.integers(1, 4), label="value dim")
        dims = [data.draw(st.integers(1, 3), label="spectator dim") for _ in range(k)]
        dims[index_reg], dims[value_reg] = n, d
        layout = RegisterLayout(tuple(dims))
        values = data.draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))
        oracle = StandardOracle(InputString(n, d, values))
        inverse = data.draw(st.booleans(), label="inverse")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        tensor = rng.normal(size=layout.dims) + 1j * rng.normal(size=layout.dims)
        got = oracle.apply_tensor(tensor, index_reg, value_reg, inverse=inverse)
        matrix = oracle.matrix().conj().T if inverse else oracle.matrix()
        embedded = apply_unitary(tensor, matrix, (index_reg, value_reg))
        assert np.max(np.abs(got - embedded)) <= 1e-12

    @pytest.mark.parametrize(
        "dims, index_reg, value_reg",
        [((3, 3), 0, -1), ((3, 3), -1, 1), ((3, 3, 3), 0, 3), ((3, 3), 2, 0), ((3, 4, 3), 0, 1)],
    )
    def test_registers_must_fit_the_tensor(self, dims, index_reg, value_reg):
        # registers are read against tensor.ndim: -1 is not wrapped around
        oracle = StandardOracle(IndexFunction.identity(3))
        with pytest.raises(ValueError):
            oracle.apply_tensor(np.zeros(dims, dtype=complex), index_reg, value_reg)
        assert oracle.queries == 0

    def test_one_oracle_on_several_register_pairs(self):
        layout = RegisterLayout((3, 4, 4))
        rng = np.random.default_rng(4)
        tensor = rng.normal(size=layout.dims) + 1j * rng.normal(size=layout.dims)
        oracle = StandardOracle(TABLE_3X4)
        for value_reg, inverse in ((1, False), (2, False), (1, True)):
            got = oracle.apply_tensor(tensor, 0, value_reg, inverse=inverse)
            fresh = StandardOracle(TABLE_3X4).apply_tensor(
                tensor, 0, value_reg, inverse=inverse
            )
            assert np.array_equal(got, fresh)
            tensor = got
        assert oracle.queries == 3

    def test_memoized_source_still_bills_and_checks_every_call(self):
        oracle = StandardOracle(TABLE_3X4)
        rng = np.random.default_rng(5)
        tensor = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        expected = StandardOracle(TABLE_3X4).apply_tensor(tensor, 0, 1)
        for queries in (1, 2, 3):
            assert np.array_equal(oracle.apply_tensor(tensor, 0, 1), expected)
            assert oracle.queries == queries
        with pytest.raises(ValueError, match="arity"):
            oracle.apply_tensor(np.zeros((3, 3), dtype=complex), 0, 1)
        assert oracle.queries == 3
        # same registers on a larger tensor: the memo is keyed by shape too
        wider = rng.normal(size=(3, 4, 2)) + 1j * rng.normal(size=(3, 4, 2))
        fresh = StandardOracle(TABLE_3X4).apply_tensor(wider, 0, 1)
        assert np.array_equal(oracle.apply_tensor(wider, 0, 1), fresh)


def frozen_gather_source(shape, index_reg, value_reg, table, sign):
    # the shift formula as one expression over the digits of every position
    positions = np.arange(math.prod(shape))
    digits = np.unravel_index(positions, shape)
    i, j = digits[index_reg], digits[value_reg]
    stride = math.prod(shape[value_reg + 1 :])
    return positions + stride * ((j - (sign * table)[i]) % shape[value_reg] - j)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "dims, index_reg, value_reg",
    [
        ((4, 3), 0, 1),
        ((3, 4), 1, 0),
        ((4, 2, 3), 0, 2),
        ((3, 2, 4), 2, 0),
        ((2, 4, 3), 1, 2),
        ((2, 5), 0, 1),  # value register larger than the index register: digit arithmetic
        ((2, 3, 2, 4), 3, 1),  # four registers, index register last
        ((1, 3), 0, 1),  # a single index
        ((3, 1, 2), 0, 1),  # a single value
        ((1, 1), 0, 1),
    ],
)
def test_gather_source_matches_frozen_formula(dims, index_reg, value_reg, sign):
    rng = np.random.default_rng(10)
    n, d = dims[index_reg], dims[value_reg]
    for rows in (1, 1, 1, 1, 1, 2, 3, 5, 7):
        stack = np.array(rng.integers(0, d, (rows, n)), dtype=np.intp)
        got = oracles._gather_sources(dims, index_reg, value_reg, stack, sign)
        assert got.shape == (rows, *dims)
        assert not got.flags.writeable
        for table, source in zip(stack, got):
            want = frozen_gather_source(dims, index_reg, value_reg, table, sign)
            assert source.dtype == want.dtype
            assert np.array_equal(source.reshape(-1), want)


def broken_rows(kind):
    # the shift table of (4, 3), index 0 and value 1: rows (1, 3, 3) over the
    # index-0 positions 0, 1, 2; each break keeps the rows' shape
    rows = oracles._shift_table((4, 3), 0, 1, 1)[0].copy()
    if kind == "duplicate":
        rows[0, 1, 0] = rows[0, 1, 1]
    elif kind == "balanced":
        # row 0 holds a twice and misses b, row 1 the other way round: every
        # position is still held three times over all rows
        a, b = rows[0, 0, 0], rows[0, 0, 1]
        rows[0, 0, 1] = a
        rows[0, 1][rows[0, 1] == a] = b
    elif kind == "index-digit":
        rows[0, 2, :] += 3  # the same value digits, at index 1
    elif kind == "negative":
        rows[0, 0, 0] = -3
    elif kind == "past-the-end":
        rows[0, 0, 0] = 12
    return rows


@pytest.mark.parametrize("kind", ["duplicate", "balanced", "index-digit", "negative", "past-the-end"])
def test_certificate_rejects_rows_that_do_not_permute(kind):
    oracles._require_permuting_rows(oracles._shift_table((4, 3), 0, 1, 1)[0], 4)
    with pytest.raises(AssertionError, match="not a permutation of the basis"):
        oracles._require_permuting_rows(broken_rows(kind), 4)


def test_digit_path_certifies_each_source(monkeypatch):
    # a value register larger than the index register builds no table: the
    # source comes from each position's digits, here with the value digit lost
    unravel = np.unravel_index

    def value_digit_zero(positions, shape):
        index, value = unravel(positions, shape)
        return index, value * 0

    oracle = StandardOracle(InputString(2, 5, (1, 3)))
    tensor = np.zeros((2, 5), dtype=complex)
    monkeypatch.setattr(np, "unravel_index", value_digit_zero)
    with pytest.raises(AssertionError, match="not a permutation of the basis"):
        oracle.apply_tensor(tensor, 0, 1)


def test_shift_tables_are_read_only_and_never_outgrow_the_state():
    oracles._shift_table.cache_clear()
    table = np.zeros((2, 5), dtype=np.intp)
    keys = [
        (dims, index_reg, value_reg, sign)
        for dims, index_reg, value_reg in [((5, 5), 0, 1), ((3, 5, 2), 1, 0), ((2, 3, 2, 5), 3, 1)]
        for sign in (1, -1)
    ]
    for dims, index_reg, value_reg, sign in keys:
        oracles._gather_sources(dims, index_reg, value_reg, table, sign)
    # a value register larger than the index register builds no table
    oracles._gather_sources((2, 5), 0, 1, np.zeros((1, 2), dtype=np.intp), 1)
    assert oracles._shift_table.cache_info().currsize == len(keys)
    for key in keys:
        rows, offsets = oracles._shift_table(*key)
        assert rows.size <= math.prod(key[0])
        assert not rows.flags.writeable and not offsets.flags.writeable
    assert oracles._shift_table.cache_info().misses == len(keys)


def random_unitary(side, rng):
    q, _ = np.linalg.qr(rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)))
    return q


class TestIndexMapOracles:
    # (dims, oracle-call pairs) with index maps on [4]
    LAYOUTS = [
        ((4, 4), [(0, 1)]),  # the index register leads
        ((2, 4, 4), [(1, 2)]),  # a register ahead of the index register
        ((4, 3, 4), [(2, 0)]),  # the value register ahead of the index register
        ((4, 4, 3, 4), [(0, 1), (0, 3), (0, 1)]),  # a workspace register, two pairs
    ]
    MAPS = list(itertools.product(range(4), repeat=4))

    def algorithm(self, dims, pairs, seed):
        rng = np.random.default_rng(seed)
        everything = tuple(range(len(dims)))
        side = math.prod(dims)
        steps = [Unitary(random_unitary(side, rng), everything)]
        for index_reg, value_reg in pairs:
            steps.append(OracleCall(index_reg, value_reg))
            steps.append(Unitary(random_unitary(side, rng), everything))
        rule = OutputRule((0,), frozenset({(1,)}))
        return QueryAlgorithm(RegisterLayout(dims), tuple(steps), rule)

    @pytest.mark.parametrize("dims, pairs", LAYOUTS)
    def test_block_oracles_equal_per_map_oracles(self, dims, pairs):
        alg = self.algorithm(dims, pairs, seed=len(dims))
        built = index_map_oracles(index_map_block(4, self.MAPS))
        assert len(built) == len(self.MAPS)
        for values, oracle in zip(self.MAPS, built):
            fresh = StandardOracle(IndexFunction(4, values))
            assert (oracle.values, oracle.index_dim, oracle.value_dim) == (values, 4, 4)
            assert type(oracle.values[0]) is int
            assert run(alg, oracle) == run(alg, fresh)
            assert oracle.queries == fresh.queries == len(pairs)
            assert oracle._sources.keys() == fresh._sources.keys()
            for key, source in oracle._sources.items():
                assert source.shape == fresh._sources[key].shape == dims
                assert source.tobytes() == fresh._sources[key].tobytes()

    def test_values_are_read_from_the_stack_row(self):
        # no row and no stack keeps a tuple per table: a row reads its values when asked
        block = index_map_block(4, self.MAPS)
        built = index_map_oracles(block)
        assert [oracle.values for oracle in built] == self.MAPS
        assert not any("values" in vars(obj) for obj in (*built, built[0]._stack))
        x = InputString(4, 3, (2, 0, 1, 2))
        assert StandardOracle(x).values == x.values

    def test_unfilled_pair_takes_the_checked_miss_path(self):
        # every key's first call, in any row, checks the registers and bills nothing if they do not fit
        dims = (4, 4, 3, 4)
        oracle = index_map_oracles(index_map_block(4, [(3, 0, 0, 1)]))[0]
        tensor = np.random.default_rng(6).normal(size=dims).astype(complex)
        with pytest.raises(ValueError, match="arity: oracle is 4x4, registers are 4x3"):
            oracle.apply_tensor(tensor, 0, 2)
        assert oracle.queries == 0
        fresh = StandardOracle(IndexFunction(4, (3, 0, 0, 1)))
        for registers, inverse in (((0, 3), False), ((0, 1), True), ((3, 0), False)):
            assert np.array_equal(
                oracle.apply_tensor(tensor, *registers, inverse=inverse),
                fresh.apply_tensor(tensor, *registers, inverse=inverse),
            )
        assert oracle.queries == 3

    @pytest.mark.parametrize(
        "dims, pairs",
        [((4, 3), [(0, 1)]), ((4, 4), [(0, 0)]), ((4, 4), [(0, 2)]), ((4, 4, 3), [(0, 1), (0, 2)])],
    )
    def test_block_is_checked_against_every_pair_once(self, dims, pairs, monkeypatch):
        builds = []
        original = oracles._gather_sources
        monkeypatch.setattr(
            oracles, "_gather_sources", lambda *args: builds.append(args[:3]) or original(*args)
        )
        block = index_map_oracles(index_map_block(4, self.MAPS))
        tensor = np.zeros(dims, dtype=complex)
        *fitting, bad = pairs
        for oracle in block:
            for pair in fitting:
                oracle.apply_tensor(tensor, *pair)
            with pytest.raises(ValueError):
                oracle.apply_tensor(tensor, *bad)
            assert oracle.queries == len(fitting)
        # the fitting pairs were built once for the whole block, the bad one never
        assert builds == [(dims, *pair) for pair in fitting]

    @pytest.mark.parametrize(
        "raw",
        [
            [[0, 1, 2, 3]],
            np.array([[0, 1, 2, 3]], dtype=np.intp),  # writeable: not from index_map_block
            np.array([[0.0, 1.0, 2.0, 3.0]]),
            index_map_block(4, [(0, 1, 2, 3)])[0],
        ],
        ids=["list", "writeable", "float", "one-row"],
    )
    def test_builder_needs_a_checked_block(self, raw):
        with pytest.raises(TypeError, match="checked by core.index_map_block"):
            index_map_oracles(raw)

    def test_no_oracle_calls_and_empty_blocks(self):
        block = index_map_block(4, [(0, 0, 0, 0), (1, 2, 3, 0)])
        assert [o._sources for o in index_map_oracles(block)] == [{}, {}]
        empty = index_map_block(4, np.zeros((0, 4), dtype=int))
        assert index_map_oracles(empty) == []

    def test_sources_are_read_only(self):
        # the sources the rows share are read-only, and so is the view of its
        # row that each row's memo holds
        first, second = index_map_oracles(index_map_block(4, [(1, 1, 2, 0), (0, 3, 3, 1)]))
        first.apply_tensor(np.zeros((4, 4), dtype=complex), 0, 1)
        (shared,) = first._stack.sources.values()
        with pytest.raises(ValueError):
            shared[0, 0, 0] = 0
        (source,) = first._sources.values()
        assert not source.flags.writeable
        with pytest.raises(ValueError):
            source[0, 0] = 0
        assert source.tobytes() == shared[0].tobytes()
        second.apply_tensor(np.zeros((4, 4), dtype=complex), 0, 1)
        assert second._sources[((4, 4), 0, 1, False)].tobytes() == shared[1].tobytes()


class TestTableStack:
    """A row of a stack of index maps answers every call as a stack of one does."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_rows_equal_oracles_of_one_table(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        maps = data.draw(
            st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=1, max_size=6),
            label="maps",
        )
        m = data.draw(st.integers(1, 3), label="x's value dim")
        x = InputString(n, m, data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
        wide = (data.draw(st.integers(1, 3), label="spectator dim"), n, m, n)
        # (shape, index_reg, value_reg, inverse) of a call, or "gadget": a composed
        # call on `wide` with the row as g, x's oracle and the last register as ancilla
        calls = data.draw(
            st.lists(
                st.sampled_from(
                    [
                        ((n, n), 0, 1, False),
                        ((n, n), 0, 1, True),
                        ((n, n), 1, 0, False),
                        (wide, 1, 3, False),
                        (wide, 3, 1, True),
                        ((n, n), 0, 2, False),  # no register 2: fails
                        ((n, n), 1, 1, False),  # one register twice: fails
                        "gadget",
                    ]
                ),
                min_size=1,
                max_size=10,
            ),
            label="calls",
        )
        picks = data.draw(st.lists(st.integers(0, len(maps) - 1), min_size=len(calls), max_size=len(calls)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

        block = index_map_block(n, maps)
        rows = index_map_oracles(block)
        singles = [StandardOracle(IndexFunction(n, values)) for values in maps]
        x_oracle = StandardOracle(x)
        built = []
        with pytest.MonkeyPatch.context() as patch:
            original = oracles._gather_sources

            def counted(shape, index_reg, value_reg, stack, sign):
                if stack is block:
                    built.append((shape, index_reg, value_reg, sign))
                return original(shape, index_reg, value_reg, stack, sign)

            patch.setattr(oracles, "_gather_sources", counted)
            billed = [0] * len(maps)
            keys = set()
            for call, b in zip(calls, picks):
                if call == "gadget":
                    tensor = np.zeros(wide, dtype=complex)
                    tensor[..., 0] = rng.normal(size=wide[:3]) + 1j * rng.normal(size=wide[:3])
                    got = ComposedOracle(x_oracle, rows[b], 3).apply_tensor(tensor, 1, 2)
                    want = ComposedOracle(x_oracle, singles[b], 3).apply_tensor(tensor, 1, 2)
                    billed[b] += 2
                    keys |= {(wide, 1, 3, 1), (wide, 1, 3, -1)}
                else:
                    shape, index_reg, value_reg, inverse = call
                    tensor = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                    if index_reg == value_reg or value_reg >= len(shape):
                        for oracle in (rows[b], singles[b]):
                            with pytest.raises(ValueError):
                                oracle.apply_tensor(tensor, index_reg, value_reg, inverse)
                        assert rows[b].queries == singles[b].queries == billed[b]
                        continue
                    got = rows[b].apply_tensor(tensor, index_reg, value_reg, inverse)
                    want = singles[b].apply_tensor(tensor, index_reg, value_reg, inverse)
                    billed[b] += 1
                    keys.add((shape, index_reg, value_reg, -1 if inverse else 1))
                assert got.tobytes() == want.tobytes()
                # each key is built once for the whole stack, on its first call in any row
                assert sorted(built) == sorted(keys)
                assert [o.queries for o in rows] == [o.queries for o in singles] == billed


class TestClassicalOracle:
    def test_lookup_and_count(self):
        oracle = ClassicalOracle(InputString(3, 5, (4, 1, 2)))
        assert oracle.lookup(1) == 1
        assert oracle.queries == 1

    def test_no_memoization(self):
        oracle = ClassicalOracle(InputString(2, 2, (0, 1)))
        oracle.lookup(0)
        oracle.lookup(0)
        assert oracle.queries == 2

    def test_image_sweep_costs_image_size(self):
        x = InputString(6, 2, (0, 1, 0, 1, 1, 0))
        c = IndexFunction(6, (2, 2, 4, 4, 0, 0))
        oracle = ClassicalOracle(x)
        for i in sorted({*c.values}):
            oracle.lookup(i)
        assert oracle.queries == 3

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            ClassicalOracle(InputString(2, 2, (0, 1))).lookup(2)


class TestComposedOracle:
    def assert_matches_standard(self, x, g):
        n, m = x.n, x.M
        layout = gadget_layout(n, m)
        comp = ComposedOracle(StandardOracle(x), StandardOracle(g), 2)
        expected = np.kron(StandardOracle(compose_input(x, g)).matrix(), np.eye(n))
        worst = 0.0
        for i in range(n):
            for j in range(m):
                col = int(np.ravel_multi_index((i, j, 0), layout.dims))
                got = comp.apply_tensor(basis_state(layout, (i, j, 0)), 0, 1).reshape(-1)
                worst = max(worst, float(np.max(np.abs(got - expected[:, col]))))
        assert worst <= 1e-12

    def test_matches_standard_random_pairs(self):
        rng = np.random.default_rng(100)
        for _ in range(25):
            x = InputString(4, 3, tuple(rng.integers(0, 3, size=4)))
            g = IndexFunction(4, tuple(rng.integers(0, 4, size=4)))
            self.assert_matches_standard(x, g)

    def test_matches_standard_identity_and_constant(self):
        x = InputString(4, 3, (2, 1, 0, 2))
        self.assert_matches_standard(x, IndexFunction.identity(4))
        self.assert_matches_standard(x, IndexFunction(4, (3, 3, 3, 3)))

    def test_counters_per_call(self):
        x = InputString(4, 3, (0, 1, 2, 0))
        g = IndexFunction(4, (1, 1, 3, 3))
        layout = gadget_layout(4, 3)
        comp = ComposedOracle(StandardOracle(x), StandardOracle(g), 2)
        comp.apply_tensor(basis_state(layout, (0, 0, 0)), 0, 1)
        assert comp.query_counts == {"x_queries": 1, "g_queries": 2}
        comp.apply_tensor(basis_state(layout, (1, 2, 0)), 0, 1)
        assert comp.query_counts == {"x_queries": 2, "g_queries": 4}

    def test_ancilla_restored(self):
        x = InputString(4, 3, (0, 2, 2, 1))
        g = IndexFunction(4, (0, 3, 2, 1))
        layout = gadget_layout(4, 3)
        comp = ComposedOracle(StandardOracle(x), StandardOracle(g), 2)
        out = comp.apply_tensor(basis_state(layout, (3, 1, 0)), 0, 1)
        assert np.abs(out[:, :, 1:]).max() == 0

    def test_dirty_ancilla_trips_assertion(self):
        x = InputString(4, 3, (0, 2, 2, 1))
        g = IndexFunction(4, (0, 3, 2, 1))
        layout = gadget_layout(4, 3)
        comp = ComposedOracle(StandardOracle(x), StandardOracle(g), 2)
        dirty = basis_state(layout, (0, 0, 1))
        with pytest.raises(AssertionError, match="ancilla"):
            comp.apply_tensor(dirty, 0, 1)

    def test_wrong_ancilla_dim(self):
        x = InputString(4, 3, (0, 2, 2, 1))
        g = IndexFunction(4, (0, 3, 2, 1))
        comp = ComposedOracle(StandardOracle(x), StandardOracle(g), 2)
        bad_layout = RegisterLayout((4, 3, 3))
        with pytest.raises(ValueError, match="ancilla"):
            comp.apply_tensor(basis_state(bad_layout, (0, 0, 0)), 0, 1)

    def test_inner_oracles_must_chain(self):
        x = InputString(3, 2, (0, 1, 1))
        g = IndexFunction(4, (0, 3, 2, 1))
        with pytest.raises(ValueError, match="chain"):
            ComposedOracle(StandardOracle(x), StandardOracle(g), 2)


class TestOracleFromPartial:
    def test_reads_only_image(self):
        oracle = oracle_from_partial({1: 7, 3: 2}, (1, 1, 3, 3), value_dim=8)
        assert oracle.values == (7, 7, 2, 2)

    def test_identity_needs_everything(self):
        with pytest.raises(ValueError, match="missing image entry"):
            oracle_from_partial({0: 1, 2: 0}, (0, 1, 2), value_dim=2)

    def test_out_of_range_value_rejected(self):
        with pytest.raises(ValueError, match=r"^entry 9 outside \[0, 8\)$"):
            oracle_from_partial({1: 9, 3: 2}, (1, 1, 3, 3), value_dim=8)

    def test_dict_returns_the_stored_oracle_for_an_equal_table(self):
        built = {}
        first = oracle_from_partial({1: 7, 3: 2}, (1, 1, 3, 3), 8, built)
        # another map and other known entries, composing to the same table
        again = oracle_from_partial({1: 7, 2: 7, 3: 2}, (2, 1, 3, 3), 8, built)
        other = oracle_from_partial({1: 7, 3: 2}, (3, 1, 3, 3), 8, built)
        assert again is first and other is not first
        assert built == {(7, 7, 2, 2): first, (2, 7, 2, 2): other}
        fresh = oracle_from_partial({1: 7, 3: 2}, (1, 1, 3, 3), 8)
        assert fresh is not first and fresh.values == first.values

    def test_dict_keeps_both_errors(self):
        built = {}
        stored = oracle_from_partial({1: 7, 3: 2}, (1, 1, 3, 3), 8, built)
        # the map composes to a stored table, but an image entry is unknown
        with pytest.raises(ValueError, match="^missing image entry 3$"):
            oracle_from_partial({1: 7}, (1, 1, 3, 3), 8, built)
        with pytest.raises(ValueError, match=r"^entry 9 outside \[0, 8\)$"):
            oracle_from_partial({1: 9, 3: 2}, (1, 1, 3, 3), 8, built)
        assert built == {(7, 7, 2, 2): stored}

    def test_matches_full_composition(self):
        rng = np.random.default_rng(4)
        x = InputString(4, 3, tuple(rng.integers(0, 3, size=4)))
        c = IndexFunction(4, tuple(rng.integers(0, 4, size=4)))
        partial = {i: x.values[i] for i in set(c.values)}
        built = oracle_from_partial(partial, c.values, value_dim=3)
        direct = StandardOracle(compose_input(x, c))
        assert built.values == direct.values
        assert np.array_equal(built.matrix(), direct.matrix())
