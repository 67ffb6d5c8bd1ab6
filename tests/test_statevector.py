import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsymlab.core import IndexFunction, InputString
from qsymlab.oracles import StandardOracle, standard_oracle
from qsymlab.statevector import (
    OracleCall,
    OutputRule,
    QueryAlgorithm,
    RegisterLayout,
    Unitary,
    algorithm_from_json,
    algorithm_to_json,
    apply_unitary,
    basis_state,
    query_count,
    run,
)
from qsymlab.zoo import collision_sniffer, deutsch_jozsa, fourier_matrix, grover_unique_or


def haar_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestStates:
    def test_single_register(self):
        state = basis_state(RegisterLayout((2,)))
        assert np.allclose(state, [1, 0])

    def test_mixed_dims(self):
        state = basis_state(RegisterLayout((2, 3)))
        assert state.shape == (2, 3)
        assert state[0, 0] == 1

    def test_dim_four(self):
        assert np.allclose(basis_state(RegisterLayout((4,))), [1, 0, 0, 0])

    def test_empty_layout_rejected(self):
        with pytest.raises(ValueError):
            RegisterLayout(())


class TestApplyUnitary:
    def test_hadamard_analog(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        out = apply_unitary(basis_state(RegisterLayout((2,))), h, 0)
        assert np.allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_identity(self):
        state = apply_unitary(basis_state(RegisterLayout((3, 2))), fourier_matrix(3), 0)
        same = apply_unitary(state, np.eye(2), 1)
        assert np.allclose(same, state)

    def test_unitary_then_adjoint_restores(self):
        u = haar_unitary(6, 9)
        state = apply_unitary(basis_state(RegisterLayout((6,))), fourier_matrix(6), 0)
        round_trip = apply_unitary(apply_unitary(state, u, 0), u.conj().T, 0)
        assert np.max(np.abs(round_trip - state)) <= 1e-12

    def test_two_register_target_matches_kron_embedding(self):
        u = haar_unitary(6, 3)
        layout = RegisterLayout((2, 3, 2))
        full = np.kron(u, np.eye(2))
        for col in range(layout.total_dim):
            start = basis_state(layout, np.unravel_index(col, layout.dims))
            got = apply_unitary(start, u, (0, 1)).reshape(-1)
            assert np.allclose(got, full[:, col], atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            apply_unitary(basis_state(RegisterLayout((2,))), np.array([[1, 0], [1, 1]]), 0)

    def test_rejects_wrong_side(self):
        with pytest.raises(ValueError, match="mismatch"):
            apply_unitary(basis_state(RegisterLayout((3,))), np.eye(2), 0)

    def test_rejects_duplicate_targets(self):
        with pytest.raises(ValueError, match="duplicate"):
            apply_unitary(basis_state(RegisterLayout((2, 2))), np.eye(4), (0, 0))


def constant_alg(bit):
    ones = frozenset({()}) if bit else frozenset()
    return QueryAlgorithm(RegisterLayout((1,)), (), OutputRule((), ones))


class TestRun:
    def test_zero_step_constant_one(self):
        assert run(constant_alg(1)) == {0: 0.0, 1: 1.0}

    def test_zero_step_constant_zero(self):
        assert run(constant_alg(0))[1] == 0.0

    def test_dj_constant(self):
        entry = deutsch_jozsa(4)
        for bit in (0, 1):
            x = InputString(4, 2, (bit,) * 4)
            dist = run(entry.algorithm, standard_oracle(x))
            assert dist[0] == pytest.approx(1.0, abs=1e-9)

    def test_dj_balanced(self):
        entry = deutsch_jozsa(4)
        dist = run(entry.algorithm, standard_oracle(InputString(4, 2, (1, 0, 1, 0))))
        assert dist[1] == pytest.approx(1.0, abs=1e-9)

    def test_grover_one_iteration_exact_at_four(self):
        entry = grover_unique_or(4, 1)
        x = InputString(4, 2, (0, 0, 1, 0))
        assert run(entry.algorithm, standard_oracle(x))[1] == pytest.approx(1.0, abs=1e-9)

    def test_distribution_sums_to_one(self):
        entry = deutsch_jozsa(8)
        dist = run(entry.algorithm, standard_oracle(InputString(8, 2, (0, 1, 0, 0, 1, 1, 0, 1))))
        assert dist[0] + dist[1] == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self):
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (0, 1, 1, 1))
        first = run(entry.algorithm, standard_oracle(x))
        second = run(entry.algorithm, standard_oracle(x))
        assert first == second

    def test_oracle_required_when_called(self):
        entry = deutsch_jozsa(4)
        with pytest.raises(ValueError, match="no oracle"):
            run(entry.algorithm)

    def test_incompatible_oracle_arity(self):
        entry = deutsch_jozsa(4)
        with pytest.raises(ValueError, match="arity"):
            run(entry.algorithm, standard_oracle(InputString(4, 3, (0, 1, 2, 0))))

    @pytest.mark.parametrize("value", [0, 1, 2])
    def test_born_probabilities_stay_in_unit_interval(self, value):
        # a constant map collides everywhere, so the sniffer outputs 1 with
        # certainty; rounding once carried p_one an ulp above 1
        dist = run(collision_sniffer(3).algorithm, standard_oracle(IndexFunction(3, (value,) * 3)))
        assert 0.0 <= dist[0] <= 1.0 and 0.0 <= dist[1] <= 1.0
        assert dist[1] == pytest.approx(1.0, abs=1e-12)


def full_space_matrix(dims, matrix, targets):
    """Matrix on the whole layout of `matrix` acting on the targets, entry by entry."""
    basis = list(itertools.product(*(range(d) for d in dims)))
    tdims = [dims[t] for t in targets]
    out = np.zeros((len(basis), len(basis)), dtype=complex)
    for col, c in enumerate(basis):
        for row, r in enumerate(basis):
            if all(r[a] == c[a] for a in range(len(dims)) if a not in targets):
                out[row, col] = matrix[
                    np.ravel_multi_index([r[t] for t in targets], tdims),
                    np.ravel_multi_index([c[t] for t in targets], tdims),
                ]
    return out


def full_space_oracle(dims, table, index_reg, value_reg):
    """Permutation matrix of |i>|j> -> |i>|j + t(i) mod d> on the whole layout."""
    basis = list(itertools.product(*(range(d) for d in dims)))
    out = np.zeros((len(basis), len(basis)))
    for col, c in enumerate(basis):
        r = list(c)
        r[value_reg] = (c[value_reg] + table[c[index_reg]]) % dims[value_reg]
        out[np.ravel_multi_index(r, dims), col] = 1.0
    return out


class TestKernelAgainstDenseReference:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_run_and_apply_unitary_match_full_space_matrices(self, data):
        k = data.draw(st.integers(1, 4), label="registers")
        dims = tuple(data.draw(st.lists(st.integers(1, 4), min_size=k, max_size=k), label="dims"))
        layout = RegisterLayout(dims)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # one oracle fitted to a register pair, callable on every pair of the same dims
        pairs, oracle_args = [], None
        if k >= 2:
            i, v = data.draw(st.permutations(range(k)).map(lambda p: p[:2]), label="oracle (i, v)")
            n, d = dims[i], dims[v]
            table = tuple(data.draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n)))
            oracle_args = (table, n, d)
            pairs = [
                p for p in itertools.permutations(range(k), 2) if (dims[p[0]], dims[p[1]]) == (n, d)
            ]
        steps, fulls = [], []
        for _ in range(data.draw(st.integers(1, 6), label="steps")):
            if pairs and data.draw(st.booleans(), label="oracle call"):
                i, v = data.draw(st.sampled_from(pairs), label="oracle pair")
                steps.append(OracleCall(i, v))
                fulls.append(full_space_oracle(dims, oracle_args[0], i, v))
            else:
                size = data.draw(st.integers(1, k), label="target count")
                targets = tuple(data.draw(st.permutations(range(k)), label="targets")[:size])
                side = int(np.prod([dims[t] for t in targets]))
                z = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
                matrix = np.linalg.qr(z)[0]
                steps.append(Unitary(matrix, targets))
                fulls.append(full_space_matrix(dims, matrix, targets))

        tensor = rng.normal(size=dims) + 1j * rng.normal(size=dims)
        expected = tensor.reshape(-1)
        oracle = StandardOracle(*oracle_args) if oracle_args else None
        for step, full in zip(steps, fulls):
            if isinstance(step, OracleCall):
                tensor = oracle.apply_tensor(tensor, layout, step.index_reg, step.value_reg)
            else:
                tensor = apply_unitary(tensor, step.matrix, step.targets)
            expected = full @ expected
            assert np.max(np.abs(tensor.reshape(-1) - expected)) <= 1e-12

        size = data.draw(st.integers(1, k), label="output count")
        out_regs = tuple(data.draw(st.permutations(range(k)), label="output registers")[:size])
        outcomes = list(itertools.product(*(range(dims[r]) for r in out_regs)))
        ones = data.draw(st.frozensets(st.sampled_from(outcomes)), label="ones")
        alg = QueryAlgorithm(layout, tuple(steps), OutputRule(out_regs, ones))
        final = basis_state(layout).reshape(-1)
        for full in fulls:
            final = full @ final
        basis = itertools.product(*(range(d) for d in dims))
        p_one = sum(
            abs(a) ** 2 for b, a in zip(basis, final) if tuple(b[r] for r in out_regs) in ones
        )
        oracle = StandardOracle(*oracle_args) if oracle_args else None
        assert abs(run(alg, oracle)[1] - p_one) <= 1e-12


class TestQueryCount:
    def test_zero_steps(self):
        assert query_count(constant_alg(1)) == 0

    def test_dj_is_one(self):
        assert query_count(deutsch_jozsa(4).algorithm) == 1

    def test_grover_counts_iterations_plus_one(self):
        assert query_count(grover_unique_or(8, 2).algorithm) == 3

    @settings(max_examples=20)
    @given(st.integers(0, 4))
    def test_amplified_triples(self, k):
        from qsymlab.compiler import amplify_majority3

        alg = grover_unique_or(4, k).algorithm
        assert query_count(amplify_majority3(alg)) == 3 * query_count(alg)


class TestAlgorithmValidation:
    def test_repeats_guard(self):
        with pytest.raises(ValueError, match="repeats"):
            QueryAlgorithm(RegisterLayout((2,)), (), OutputRule((), frozenset()), repeats=2)

    def test_step_unitarity_checked(self):
        bad = np.array([[1, 1], [0, 1]], dtype=complex)
        with pytest.raises(ValueError, match="unitary"):
            QueryAlgorithm(
                RegisterLayout((2,)),
                (Unitary(bad, (0,)),),
                OutputRule((0,), frozenset()),
            )

    def test_oracle_call_distinct_registers(self):
        with pytest.raises(ValueError, match="distinct"):
            QueryAlgorithm(
                RegisterLayout((2, 2)),
                (OracleCall(1, 1),),
                OutputRule((0,), frozenset()),
            )

    def test_outcome_digit_range(self):
        with pytest.raises(ValueError, match="outside register"):
            QueryAlgorithm(
                RegisterLayout((2,)),
                (),
                OutputRule((0,), frozenset({(5,)})),
            )


class TestSerialization:
    def test_round_trip_preserves_behavior(self):
        entry = deutsch_jozsa(4)
        rebuilt = algorithm_from_json(algorithm_to_json(entry.algorithm))
        x = InputString(4, 2, (0, 1, 1, 0))
        assert run(rebuilt, standard_oracle(x)) == run(entry.algorithm, standard_oracle(x))
        assert query_count(rebuilt) == query_count(entry.algorithm)

    def test_round_trip_is_stable(self):
        alg = grover_unique_or(4, 1).algorithm
        once = algorithm_to_json(alg)
        twice = algorithm_to_json(algorithm_from_json(once))
        assert once == twice

    def test_repeats_survive(self):
        from qsymlab.compiler import amplify_majority3

        alg = amplify_majority3(deutsch_jozsa(4).algorithm)
        assert algorithm_from_json(algorithm_to_json(alg)).repeats == 3
