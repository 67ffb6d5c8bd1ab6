import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsymlab.core import IndexFunction, InputString, compose_input
from qsymlab.oracles import (
    ClassicalOracle,
    ComposedOracle,
    StandardOracle,
    oracle_from_partial,
    oracle_full_matrix,
    standard_oracle,
)
from qsymlab.statevector import RegisterLayout, apply_unitary, basis_state


def gadget_layout(n, m):
    # index, value, ancilla
    return RegisterLayout((n, m, n))


class TestStandardOracle:
    def test_additive_shift(self):
        x = InputString(3, 3, (0, 1, 2))
        oracle = standard_oracle(x)
        layout = RegisterLayout((3, 3))
        out = oracle.apply_tensor(basis_state(layout, (2, 1)), layout, 0, 1)
        # (1 + 2) mod 3 = 0
        assert out[2, 0] == 1

    def test_all_zeros_is_identity(self):
        oracle = standard_oracle(InputString(3, 4, (0, 0, 0)))
        layout = RegisterLayout((3, 4))
        matrix = oracle_full_matrix(oracle, layout, 0, 1)
        assert np.array_equal(matrix, np.eye(12))

    def test_additive_order_divides_dim(self):
        x = InputString(2, 3, (1, 2))
        oracle = standard_oracle(x)
        layout = RegisterLayout((2, 3))
        state = basis_state(layout, (1, 1))
        for _ in range(3):
            state = oracle.apply_tensor(state, layout, 0, 1)
        assert state[1, 1] == 1

    def test_inverse_undoes(self):
        oracle = standard_oracle(IndexFunction(4, (3, 1, 0, 2)))
        layout = RegisterLayout((4, 4))
        state = basis_state(layout, (0, 2))
        forward = oracle.apply_tensor(state, layout, 0, 1)
        back = oracle.apply_tensor(forward, layout, 0, 1, inverse=True)
        assert np.array_equal(back, state)

    def test_basis_permutation_exhaustive(self):
        layout = RegisterLayout((3, 3))
        for values in itertools.product(range(3), repeat=3):
            matrix = oracle_full_matrix(standard_oracle(IndexFunction(3, values)), layout, 0, 1)
            hits = {int(np.argmax(matrix[:, c])) for c in range(9)}
            assert len(hits) == 9
            assert np.allclose(np.abs(matrix).sum(axis=0), 1)

    def test_matrix_matches_apply(self):
        x = InputString(4, 3, (2, 0, 1, 2))
        layout = RegisterLayout((4, 3))
        assert np.array_equal(
            standard_oracle(x).matrix(),
            oracle_full_matrix(standard_oracle(x), layout, 0, 1),
        )

    def test_arity_mismatch(self):
        oracle = standard_oracle(InputString(3, 3, (0, 1, 2)))
        layout = RegisterLayout((3, 4))
        with pytest.raises(ValueError, match="arity"):
            oracle.apply_tensor(basis_state(layout, (0, 0)), layout, 0, 1)

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
        oracle = StandardOracle(tuple(values), n, d)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        tensor = rng.normal(size=layout.dims) + 1j * rng.normal(size=layout.dims)
        got = oracle.apply_tensor(tensor, layout, index_reg, value_reg)
        embedded = apply_unitary(tensor, oracle.matrix(), (index_reg, value_reg))
        assert np.max(np.abs(got - embedded)) <= 1e-12

    def test_one_oracle_on_several_register_pairs(self):
        layout = RegisterLayout((3, 4, 4))
        rng = np.random.default_rng(4)
        tensor = rng.normal(size=layout.dims) + 1j * rng.normal(size=layout.dims)
        oracle = StandardOracle((1, 3, 2), 3, 4)
        for value_reg, inverse in ((1, False), (2, False), (1, True)):
            got = oracle.apply_tensor(tensor, layout, 0, value_reg, inverse=inverse)
            fresh = StandardOracle((1, 3, 2), 3, 4).apply_tensor(
                tensor, layout, 0, value_reg, inverse=inverse
            )
            assert np.array_equal(got, fresh)
            tensor = got
        assert oracle.queries == 3


class TestClassicalOracle:
    def test_lookup_and_count(self):
        oracle = ClassicalOracle(InputString(3, 5, (4, 1, 2)).values)
        assert oracle.lookup(1) == 1
        assert oracle.queries == 1

    def test_no_memoization(self):
        oracle = ClassicalOracle(InputString(2, 2, (0, 1)).values)
        oracle.lookup(0)
        oracle.lookup(0)
        assert oracle.queries == 2

    def test_image_sweep_costs_image_size(self):
        x = InputString(6, 2, (0, 1, 0, 1, 1, 0))
        c = IndexFunction(6, (2, 2, 4, 4, 0, 0))
        oracle = ClassicalOracle(x.values)
        for i in sorted({*c.values}):
            oracle.lookup(i)
        assert oracle.queries == 3

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            ClassicalOracle(InputString(2, 2, (0, 1)).values).lookup(2)

    def test_not_applicable_to_states(self):
        with pytest.raises(TypeError):
            ClassicalOracle(InputString(2, 2, (0, 1)).values).apply_tensor(None, None, 0, 1)


class TestComposedOracle:
    def assert_matches_standard(self, x, g):
        n, m = x.n, x.M
        layout = gadget_layout(n, m)
        comp = ComposedOracle(standard_oracle(x), standard_oracle(g), 2)
        expected = np.kron(standard_oracle(compose_input(x, g)).matrix(), np.eye(n))
        worst = 0.0
        for i in range(n):
            for j in range(m):
                col = int(np.ravel_multi_index((i, j, 0), layout.dims))
                got = comp.apply_tensor(basis_state(layout, (i, j, 0)), layout, 0, 1).reshape(-1)
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
        comp = ComposedOracle(standard_oracle(x), standard_oracle(g), 2)
        comp.apply_tensor(basis_state(layout, (0, 0, 0)), layout, 0, 1)
        assert comp.query_counts == {"x_queries": 1, "g_queries": 2}
        comp.apply_tensor(basis_state(layout, (1, 2, 0)), layout, 0, 1)
        assert comp.query_counts == {"x_queries": 2, "g_queries": 4}

    def test_ancilla_restored(self):
        x = InputString(4, 3, (0, 2, 2, 1))
        g = IndexFunction(4, (0, 3, 2, 1))
        layout = gadget_layout(4, 3)
        comp = ComposedOracle(standard_oracle(x), standard_oracle(g), 2)
        out = comp.apply_tensor(basis_state(layout, (3, 1, 0)), layout, 0, 1)
        assert np.abs(out[:, :, 1:]).max() == 0

    def test_dirty_ancilla_trips_assertion(self):
        x = InputString(4, 3, (0, 2, 2, 1))
        g = IndexFunction(4, (0, 3, 2, 1))
        layout = gadget_layout(4, 3)
        comp = ComposedOracle(standard_oracle(x), standard_oracle(g), 2)
        dirty = basis_state(layout, (0, 0, 1))
        with pytest.raises(AssertionError, match="ancilla"):
            comp.apply_tensor(dirty, layout, 0, 1)

    def test_wrong_ancilla_dim(self):
        x = InputString(4, 3, (0, 2, 2, 1))
        g = IndexFunction(4, (0, 3, 2, 1))
        comp = ComposedOracle(standard_oracle(x), standard_oracle(g), 2)
        bad_layout = RegisterLayout((4, 3, 3))
        with pytest.raises(ValueError, match="ancilla"):
            comp.apply_tensor(basis_state(bad_layout, (0, 0, 0)), bad_layout, 0, 1)

    def test_inner_oracles_must_chain(self):
        x = InputString(3, 2, (0, 1, 1))
        g = IndexFunction(4, (0, 3, 2, 1))
        with pytest.raises(ValueError, match="chain"):
            ComposedOracle(standard_oracle(x), standard_oracle(g), 2)


class TestOracleFromPartial:
    def test_reads_only_image(self):
        c = IndexFunction(4, (1, 1, 3, 3))
        oracle = oracle_from_partial({1: 7, 3: 2}, c, value_dim=8)
        assert oracle.values == (7, 7, 2, 2)

    def test_identity_needs_everything(self):
        c = IndexFunction.identity(3)
        with pytest.raises(ValueError, match="missing image entry"):
            oracle_from_partial({0: 1, 2: 0}, c, value_dim=2)

    def test_matches_full_composition(self):
        rng = np.random.default_rng(4)
        x = InputString(4, 3, tuple(rng.integers(0, 3, size=4)))
        c = IndexFunction(4, tuple(rng.integers(0, 4, size=4)))
        partial = {i: x.values[i] for i in set(c.values)}
        built = oracle_from_partial(partial, c, value_dim=3)
        direct = standard_oracle(compose_input(x, c))
        assert built.values == direct.values
        assert np.array_equal(built.matrix(), direct.matrix())
