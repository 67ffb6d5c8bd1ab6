import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsymlab.core import IndexFunction, InputString
from qsymlab import statevector as sv
from qsymlab.compiler import amplify_majority3, with_gadget_ancilla
from qsymlab.oracles import ComposedOracle, StandardOracle
from qsymlab.statevector import (
    OracleCall,
    OutputRule,
    QueryAlgorithm,
    RegisterLayout,
    Unitary,
    apply_unitary,
    basis_state,
    query_count,
    run,
)
from qsymlab.zoo import (
    DISTINGUISHER_IDS,
    ZOO_IDS,
    build_distinguisher,
    build_zoo_entry,
    collision_sniffer,
    constant_function,
    deutsch_jozsa,
    fourier_matrix,
    grover_unique_or,
)


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
            dist = run(entry.algorithm, StandardOracle(x))
            assert dist[0] == pytest.approx(1.0, abs=1e-9)

    def test_dj_balanced(self):
        entry = deutsch_jozsa(4)
        dist = run(entry.algorithm, StandardOracle(InputString(4, 2, (1, 0, 1, 0))))
        assert dist[1] == pytest.approx(1.0, abs=1e-9)

    def test_grover_one_iteration_exact_at_four(self):
        entry = grover_unique_or(4, 1)
        x = InputString(4, 2, (0, 0, 1, 0))
        assert run(entry.algorithm, StandardOracle(x))[1] == pytest.approx(1.0, abs=1e-9)

    def test_distribution_sums_to_one(self):
        entry = deutsch_jozsa(8)
        dist = run(entry.algorithm, StandardOracle(InputString(8, 2, (0, 1, 0, 0, 1, 1, 0, 1))))
        assert dist[0] + dist[1] == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self):
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (0, 1, 1, 1))
        first = run(entry.algorithm, StandardOracle(x))
        second = run(entry.algorithm, StandardOracle(x))
        assert first == second

    def test_amplified_run_reads_the_output_once(self, monkeypatch):
        base = grover_unique_or(8, 2).algorithm
        x = InputString(8, 2, (0, 0, 0, 1, 0, 0, 0, 0))
        reads = []
        read = sv._output_probability_one
        monkeypatch.setattr(
            sv,
            "_output_probability_one",
            lambda tensor, norm_sq, alg: reads.append(alg) or read(tensor, norm_sq, alg),
        )
        amplified = replace(base, repeats=3)
        oracle = StandardOracle(x)
        dist = run(amplified, oracle)
        assert reads == [amplified]
        assert oracle.queries == query_count(amplified) == 9
        # the three passes are bit-identical, so one pass of the base algorithm gives p
        p_one = sv.majority3_prob(run(base, StandardOracle(x))[1])
        assert dist == {0: 1.0 - p_one, 1: p_one}

    def test_oracle_required_when_called(self):
        entry = deutsch_jozsa(4)
        with pytest.raises(ValueError, match="no oracle was given"):
            run(entry.algorithm)

    def test_incompatible_oracle_arity(self):
        entry = deutsch_jozsa(4)
        with pytest.raises(ValueError, match="arity"):
            run(entry.algorithm, StandardOracle(InputString(4, 3, (0, 1, 2, 0))))

    @pytest.mark.parametrize("value", [0, 1, 2])
    def test_born_probabilities_stay_in_unit_interval(self, value):
        # a constant map collides everywhere, so the sniffer outputs 1 with
        # certainty; rounding once carried p_one an ulp above 1
        dist = run(collision_sniffer(3).algorithm, StandardOracle(IndexFunction(3, (value,) * 3)))
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
        pairs, table = [], None
        if k >= 2:
            i, v = data.draw(st.permutations(range(k)).map(lambda p: p[:2]), label="oracle (i, v)")
            n, d = dims[i], dims[v]
            values = data.draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))
            table = InputString(n, d, values)
            pairs = [
                p for p in itertools.permutations(range(k), 2) if (dims[p[0]], dims[p[1]]) == (n, d)
            ]
        steps, fulls = [], []
        for _ in range(data.draw(st.integers(1, 6), label="steps")):
            if pairs and data.draw(st.booleans(), label="oracle call"):
                i, v = data.draw(st.sampled_from(pairs), label="oracle pair")
                steps.append(OracleCall(i, v))
                fulls.append(full_space_oracle(dims, table.values, i, v))
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
        oracle = StandardOracle(table) if table else None
        for step, full in zip(steps, fulls):
            if isinstance(step, OracleCall):
                tensor = oracle.apply_tensor(tensor, step.index_reg, step.value_reg)
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
        oracle = StandardOracle(table) if table else None
        assert abs(run(alg, oracle)[1] - p_one) <= 1e-12


def stepwise_p_one(alg, oracle):
    """p_one from |0...0> with every step applied by apply_unitary or apply_tensor."""
    tensor = basis_state(alg.layout)
    for step in alg.steps:
        if isinstance(step, OracleCall):
            tensor = oracle.apply_tensor(tensor, step.index_reg, step.value_reg)
        else:
            tensor = apply_unitary(tensor, step.matrix, step.targets)
    probs = np.abs(tensor) ** 2
    regs, ones = alg.output_rule.registers, alg.output_rule.ones
    return sum(probs[b] for b in np.ndindex(probs.shape) if tuple(b[r] for r in regs) in ones)


def oracle_first_alg():
    steps = (
        OracleCall(0, 1),
        Unitary(haar_unitary(6, 1), (1, 0)),
        OracleCall(0, 1),
        Unitary(haar_unitary(3, 2), (0,)),
    )
    rule = OutputRule((0, 1), frozenset({(1, 0), (2, 1)}))
    return QueryAlgorithm(RegisterLayout((3, 2)), steps, rule)


def oracle_free_alg():
    steps = (
        Unitary(haar_unitary(6, 3), (1, 0)),
        Unitary(haar_unitary(2, 4), (1,)),
        Unitary(haar_unitary(3, 5), (0,)),
    )
    return QueryAlgorithm(RegisterLayout((3, 2)), steps, OutputRule((1,), frozenset({(1,)})))


class TestStartState:
    @pytest.mark.parametrize(
        "alg, table",
        [
            (oracle_first_alg(), (1, 0, 1)),
            (oracle_free_alg(), None),
            (constant_function(0).algorithm, None),
        ],
        ids=["oracle-first", "oracle-free", "const0"],
    )
    def test_run_matches_stepwise_reference(self, alg, table):
        def oracle():
            return StandardOracle(InputString(3, 2, table)) if table else None

        assert abs(run(alg, oracle())[1] - stepwise_p_one(alg, oracle())) <= 1e-12

    def test_start_state_is_read_only_and_unchanged_by_runs(self):
        alg = grover_unique_or(8, 2).algorithm  # two unitaries, then the first query
        prefix = basis_state(alg.layout)
        for step in alg.steps[:2]:
            prefix = apply_unitary(prefix, step.matrix, step.targets)
        assert not alg._start.flags.writeable
        assert np.array_equal(alg._start, prefix)
        for hot in range(8):
            x = InputString(8, 2, tuple(int(i == hot) for i in range(8)))
            run(alg, StandardOracle(x))
            assert np.array_equal(alg._start, prefix)

    @pytest.mark.parametrize("targets", [(0,), (0, 1), (1, 0), (0, 2), (2, 1)])
    def test_leading_and_permuted_targets_match_dense_reference(self, targets):
        dims = (2, 3, 2)
        side = int(np.prod([dims[t] for t in targets]))
        matrix = haar_unitary(side, 6)
        rng = np.random.default_rng(7)
        tensor = rng.normal(size=dims) + 1j * rng.normal(size=dims)
        full = full_space_matrix(dims, matrix, targets)
        got = apply_unitary(tensor, matrix, targets)
        assert got.shape == dims
        assert np.max(np.abs(got.reshape(-1) - full @ tensor.reshape(-1))) <= 1e-12
        # the whole circuit is the start state: P(register 0 reads 1) from column 0
        rule = OutputRule((0,), frozenset({(1,)}))
        alg = QueryAlgorithm(RegisterLayout(dims), (Unitary(matrix, targets),), rule)
        p_one = np.sum(np.abs(full[:, 0].reshape(dims)[1]) ** 2)
        assert abs(run(alg)[1] - p_one) <= 1e-12


# two sizes per catalog id
CATALOG_SIZES = {
    "dj": (4, 8),
    "grover": (4, 8),
    "const0": (3, 4),
    "const1": (3, 4),
    "collision-sniffer": (4, 6),
    "zero-query": (3, 5),
}
CATALOG_CASES = [(i, n) for i, sizes in CATALOG_SIZES.items() for n in sizes]


def catalog_algorithm(catalog_id, n):
    if catalog_id in ZOO_IDS:
        return build_zoo_entry(catalog_id, n).algorithm
    return build_distinguisher(catalog_id, n).algorithm


def random_table(catalog_id, n, rng):
    """A table the catalog entry's oracle calls can read: an input string for
    a decision algorithm, an index map for a distinguisher."""
    if catalog_id in ZOO_IDS:
        return InputString(n, 2, rng.integers(0, 2, n))
    return IndexFunction(n, rng.integers(0, n, n))


class ContiguitySpy(StandardOracle):
    """Records whether each tensor it is given is C-contiguous."""

    def __init__(self, table):
        super().__init__(table)
        self.contiguous = []

    def apply_tensor(self, tensor, *args, **kwargs):
        self.contiguous.append(tensor.flags.c_contiguous)
        return super().apply_tensor(tensor, *args, **kwargs)


class TestStartLayout:
    """The start state is stored C-contiguous, which changes its layout only."""

    def test_catalog_sizes_cover_every_id(self):
        assert set(CATALOG_SIZES) == set(ZOO_IDS + DISTINGUISHER_IDS)

    @pytest.mark.parametrize("catalog_id, n", CATALOG_CASES)
    def test_start_is_c_contiguous_and_read_only(self, catalog_id, n):
        alg = catalog_algorithm(catalog_id, n)
        for form in (alg, amplify_majority3(alg), with_gadget_ancilla(alg, n)[0]):
            assert form._start.flags.c_contiguous
            assert not form._start.flags.writeable

    @pytest.mark.parametrize("catalog_id, n", [("dj", 4), ("grover", 8), ("collision-sniffer", 6)])
    def test_every_oracle_call_gathers_from_a_contiguous_tensor(self, catalog_id, n):
        alg = catalog_algorithm(catalog_id, n)
        table = random_table(catalog_id, n, np.random.default_rng(15))
        for form in (alg, amplify_majority3(alg)):
            spy = ContiguitySpy(table)
            run(form, spy)
            assert len(spy.contiguous) == query_count(form)
            assert all(spy.contiguous)

    @pytest.mark.parametrize("catalog_id, n", CATALOG_CASES)
    def test_a_strided_start_evolves_to_the_same_bits(self, catalog_id, n):
        alg = catalog_algorithm(catalog_id, n)
        # an equal start laid out with reversed strides
        strided = np.empty(alg._start.shape[::-1], dtype=complex).T
        strided[...] = alg._start
        assert strided.flags.c_contiguous == (alg._start.ndim == 1)
        rng = np.random.default_rng(14)
        for _ in range(5):
            oracle = StandardOracle(random_table(catalog_id, n, rng))
            tensor, norm_sq = evolved(alg, oracle)
            other, other_norm_sq = sv._evolve(strided, alg._start_norm_sq, alg._ops, oracle)
            assert np.array_equal(tensor, other) and norm_sq == other_norm_sq
            assert sv._output_probability_one(tensor, norm_sq, alg) == (
                sv._output_probability_one(other, other_norm_sq, alg)
            )

    @pytest.mark.parametrize("registers", [(1,), (2,), (1, 2), (2, 0)])
    def test_an_oracle_free_start_reads_the_same_bits_in_any_layout(self, registers):
        # `run` reads such an algorithm's output from its start; the last
        # leading step trails, so `_contract` left it a transposed view
        rng = np.random.default_rng(16)
        for seed in range(60):
            dims = tuple(int(d) for d in rng.integers(2, 10, size=3))
            steps = [Unitary(haar_unitary(dims[0], seed), (0,))]
            last = [(1,), (2,), (2, 1)][seed % 3]
            steps.append(Unitary(haar_unitary(math.prod(dims[t] for t in last), seed + 1), last))
            outcomes = list(itertools.product(*(range(dims[r]) for r in registers)))
            ones = frozenset(o for o in outcomes if rng.random() < 0.5)
            alg = QueryAlgorithm(RegisterLayout(dims), tuple(steps), OutputRule(registers, ones))
            assert alg._ops == () and alg._output[0] is not None
            p_one = sv._output_probability_one(alg._start, alg._start_norm_sq, alg)
            for memory in itertools.permutations(range(3)):
                copy = np.ascontiguousarray(alg._start.transpose(memory)).transpose(np.argsort(memory))
                assert sv._output_probability_one(copy, alg._start_norm_sq, alg) == p_one
            assert run(alg)[1] == p_one


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

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Unitary([[1, 1], [0, 1]], (0,)), "^matrix is not unitary"),
            (lambda: Unitary(np.eye(2), ()), "^a unitary step needs at least one target register$"),
            (lambda: Unitary(np.eye(4), (1, 1)), r"^duplicate target registers: \(1, 1\)$"),
            (lambda: OracleCall(1, 1), "^oracle call needs two distinct registers$"),
        ],
        ids=["non-unitary", "no-targets", "duplicate-targets", "oracle-call"],
    )
    def test_step_checks_itself_at_construction(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("step", ["H", [0, 1]], ids=["hashable", "unhashable"])
    def test_unknown_step_type_rejected(self, step):
        with pytest.raises(TypeError, match="^unknown step type"):
            QueryAlgorithm(RegisterLayout((2, 2)), (OracleCall(0, 1), step), OutputRule((0,), frozenset()))

    def test_oracle_call_distinct_registers(self):
        with pytest.raises(ValueError, match="distinct"):
            QueryAlgorithm(
                RegisterLayout((2, 2)),
                (OracleCall(1, 1),),
                OutputRule((0,), frozenset()),
            )

    def test_oracle_call_registers_coerced_to_int(self):
        call = OracleCall(0, 1.0)
        assert (call.index_reg, call.value_reg) == (0, 1)
        assert type(call.value_reg) is int
        alg = QueryAlgorithm(RegisterLayout((2, 2)), (call,), OutputRule((1,), frozenset({(1,)})))
        assert run(alg, StandardOracle(InputString(2, 2, (1, 0))))[1] == 1.0

    @pytest.mark.parametrize(
        "make, what, bad",
        [
            (lambda: OracleCall(0, 1.5), "oracle register", "1.5"),
            (lambda: Unitary(np.eye(2), (0.5,)), "target register", "0.5"),
            (lambda: OutputRule((1.2,), frozenset()), "output register", "1.2"),
            (lambda: OutputRule((0,), frozenset({(0.5,)})), "outcome digit", "0.5"),
            (lambda: RegisterLayout((2, 2.5)), "register dimension", "2.5"),
            (
                lambda: apply_unitary(basis_state(RegisterLayout((2,))), np.eye(2), (0.5,)),
                "target register",
                "0.5",
            ),
        ],
        ids=["oracle-call", "unitary", "output-register", "outcome", "layout", "apply-unitary"],
    )
    def test_non_integral_register_rejected_not_truncated(self, make, what, bad):
        with pytest.raises(ValueError, match=rf"^{what} {bad} is not an integer$"):
            make()

    def test_oversized_start_state_fails_before_allocating(self, monkeypatch):
        monkeypatch.setattr(sv, "DENSE_ENTRIES_MAX", 100)
        rule = OutputRule((0,), frozenset({(1,)}))
        assert run(QueryAlgorithm(RegisterLayout((10, 10)), (), rule))[1] == 0.0  # exactly 100

        def forbidden(*args, **kwargs):
            raise AssertionError("basis_state ran")

        monkeypatch.setattr(sv, "basis_state", forbidden)
        with pytest.raises(ValueError, match="^a start state of 110 amplitudes exceeds 100 entries$"):
            QueryAlgorithm(RegisterLayout((10, 11)), (), rule)

    def test_outcome_digit_range(self):
        with pytest.raises(ValueError, match="outside register"):
            QueryAlgorithm(
                RegisterLayout((2,)),
                (),
                OutputRule((0,), frozenset({(5,)})),
            )



class ScalingOracle:
    """Duck-typed oracle that multiplies the tensor by a constant."""

    def __init__(self, factor):
        self.factor = factor

    def apply_tensor(self, tensor, index_reg, value_reg):
        return tensor * self.factor


class TestValidityChecks:
    def test_norm_drift_raises(self):
        with pytest.raises(RuntimeError, match="state norm drifted to 1.01"):
            run(deutsch_jozsa(4).algorithm, ScalingOracle(1.01))

    def test_output_sum_checked(self):
        alg = deutsch_jozsa(4).algorithm
        oracle = StandardOracle(InputString(4, 2, (0, 1, 1, 0)))
        tensor, norm_sq = sv._evolve(alg._start, alg._start_norm_sq, alg._ops, oracle)
        assert norm_sq == np.vdot(tensor, tensor).real
        assert sv._output_probability_one(tensor, norm_sq, alg) == pytest.approx(1.0)
        scaled = tensor * 1.01
        with pytest.raises(RuntimeError, match="output distribution sums to 1.020"):
            sv._output_probability_one(scaled, np.vdot(scaled, scaled).real, alg)

    def test_nan_matrix_rejected_in_an_algorithm(self):
        with pytest.raises(ValueError, match="not unitary"):
            QueryAlgorithm(
                RegisterLayout((2,)),
                (Unitary(np.full((2, 2), np.nan), (0,)),),
                OutputRule((0,), frozenset({(1,)})),
            )

    def test_nan_matrix_rejected_by_apply_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            apply_unitary(basis_state(RegisterLayout((2,))), np.full((2, 2), np.nan), 0)

    def test_nan_state_raises(self):
        with pytest.raises(RuntimeError, match="state norm drifted to nan"):
            run(collision_sniffer(4).algorithm, ScalingOracle(np.nan))


def gadget_dj_run():
    # amplified DJ n=4 through the gadget: a ComposedOracle declares no permutation
    rewritten, anc = with_gadget_ancilla(amplify_majority3(deutsch_jozsa(4).algorithm), 4)
    x, g = InputString(4, 2, (0, 1, 1, 0)), IndexFunction(4, (1, 0, 3, 3))
    return rewritten, ComposedOracle(StandardOracle(x), StandardOracle(g), anc)


class TestNormCarriedAcrossPermutations:
    """A `StandardOracle` call permutes the basis, so its norm is carried, not measured."""

    @pytest.mark.parametrize(
        "case, vdots",
        [
            # 5 ops a pass, 3 of them oracle calls (15 norms before the carry)
            (lambda: (amplify_majority3(grover_unique_or(8, 2).algorithm),
                      StandardOracle(InputString(8, 2, (0, 0, 0, 1, 0, 0, 0, 0)))), 6),
            # 2 ops a pass, 1 of them an oracle call (6 norms before the carry)
            (lambda: (amplify_majority3(deutsch_jozsa(4).algorithm),
                      StandardOracle(InputString(4, 2, (0, 1, 1, 0)))), 3),
            (gadget_dj_run, 6),
            (lambda: (deutsch_jozsa(4).algorithm, ScalingOracle(1.0)), 2),
        ],
        ids=["grover-8", "dj-4", "gadget-dj-4", "undeclared"],
    )  # fmt: skip
    def test_norms_computed_in_one_run(self, monkeypatch, case, vdots):
        alg, oracle = case()
        calls, vdot = [], np.vdot

        def counted(a, b):
            calls.append(1)
            return vdot(a, b)

        monkeypatch.setattr(sv.np, "vdot", counted)
        run(alg, oracle)
        monkeypatch.undo()
        assert len(calls) == vdots

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_carried_norm_equals_the_measured_one(self, data):
        k = data.draw(st.integers(2, 4), label="registers")
        index_reg, value_reg = data.draw(
            st.permutations(range(k)).map(lambda p: (p[0], p[1])), label="registers (i, v)"
        )
        # value dims up to 6 against index dims up to 4: both gather paths
        dims = [data.draw(st.integers(1, 3), label="spectator dim") for _ in range(k)]
        dims[index_reg] = n = data.draw(st.integers(1, 4), label="index dim")
        dims[value_reg] = d = data.draw(st.integers(1, 6), label="value dim")
        values = data.draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n), label="table")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        tensor, norm_sq = unit_tensor(tuple(dims), rng)
        oracle = StandardOracle(InputString(n, d, values))
        out, carried = sv._evolve(tensor, norm_sq, ((None, (index_reg, value_reg)),), oracle)
        assert carried == norm_sq
        assert abs(carried - np.vdot(out, out).real) <= 1e-14


def frozen_output_probability_one(tensor, alg):
    # the output rule as evaluated before it was precomputed at construction
    registers = alg.output_rule.registers
    dims = alg.layout.dims
    order = registers + tuple(a for a in range(len(dims)) if a not in registers)
    marginal = (np.abs(tensor) ** 2).transpose(order).sum(axis=tuple(range(len(registers), len(dims))))
    total = float(marginal.sum())
    assert abs(total - 1.0) <= 1e-9
    p_one = float(math.fsum(float(marginal[o]) for o in alg.output_rule.ones))
    return min(max(p_one, 0.0), 1.0)


def evolved(alg, oracle):
    return sv._evolve(alg._start, alg._start_norm_sq, alg._ops, oracle)


def unit_tensor(dims, rng):
    tensor = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    tensor /= np.linalg.norm(tensor)
    return tensor, np.vdot(tensor, tensor).real


class TestPrecomputedOutputRule:
    """The precomputed output rule reproduces the former formula bit for bit."""

    @pytest.mark.parametrize(
        "alg, table",
        [
            (deutsch_jozsa(4).algorithm, lambda rng: InputString(4, 2, rng.integers(0, 2, 4))),
            # output register last: the transpose path
            (grover_unique_or(8, 2).algorithm, lambda rng: InputString(8, 2, rng.integers(0, 2, 8))),
            (collision_sniffer(6).algorithm, lambda rng: IndexFunction(6, rng.integers(0, 6, 6))),
            (constant_function(0).algorithm, None),
            (constant_function(1).algorithm, None),
        ],
        ids=["dj", "grover", "sniffer", "const0", "const1"],
    )
    def test_matches_frozen_formula_on_zoo(self, alg, table):
        rng = np.random.default_rng(11)
        for _ in range(20):
            oracle = StandardOracle(table(rng)) if table else None
            tensor, norm_sq = evolved(alg, oracle)
            assert sv._output_probability_one(tensor, norm_sq, alg) == (
                frozen_output_probability_one(tensor, alg)
            )

    @pytest.mark.parametrize("bit", [0, 1])
    def test_zero_step_algorithm_reads_the_start_norm(self, bit):
        alg = constant_function(bit).algorithm
        assert alg.steps == () and alg._ops == ()
        assert alg._start_norm_sq == 1.0
        tensor, norm_sq = evolved(alg, None)
        assert tensor is alg._start and norm_sq == 1.0
        assert sv._output_probability_one(tensor, norm_sq, alg) == bit
        assert run(alg) == {0: 1.0 - bit, 1: float(bit)}

    @pytest.mark.parametrize(
        "registers", [(), (0,), (1,), (2,), (0, 1), (0, 2), (2, 0), (1, 2, 0)]
    )
    def test_matches_frozen_formula_on_register_orders(self, registers):
        dims = (3, 2, 4)
        rng = np.random.default_rng(12)
        outcomes = list(itertools.product(*(range(dims[r]) for r in registers)))
        for _ in range(10):
            picked = [o for o in outcomes if rng.random() < 0.5]
            rule = OutputRule(registers, frozenset(picked))
            alg = QueryAlgorithm(RegisterLayout(dims), (), rule)
            tensor, norm_sq = unit_tensor(dims, rng)
            assert sv._output_probability_one(tensor, norm_sq, alg) == (
                frozen_output_probability_one(tensor, alg)
            )
        # fixed sets of every shape; `outcomes` runs in flat order
        fixed = {"empty": [], "one": outcomes[-1:], "run": outcomes[1:4]}
        if len(outcomes) >= 3:
            fixed["gaps"] = outcomes[::2]
        for picked in fixed.values():
            alg = QueryAlgorithm(RegisterLayout(dims), (), OutputRule(registers, frozenset(picked)))
            for _ in range(3):
                tensor, norm_sq = unit_tensor(dims, rng)
                assert sv._output_probability_one(tensor, norm_sq, alg) == (
                    frozen_output_probability_one(tensor, alg)
                )

    @pytest.mark.parametrize("ones", [{(1,)}, {(1,), (2,)}], ids=["one", "run"])
    def test_reads_a_transposed_tensor_by_its_row_major_gather(self, ones):
        # the last unitary's target trails, so the tensor is a transposed view
        # and its rows are not row-major; numpy sums a strided row in another
        # order, so the read must sum each row as the gathered (row-major)
        # rows are summed
        layout = RegisterLayout((4, 32))
        alg = QueryAlgorithm(layout, (), OutputRule((0,), frozenset(ones)))
        for seed in range(10):
            tensor = apply_unitary(basis_state(layout), haar_unitary(4, seed), 0)
            tensor = apply_unitary(tensor, haar_unitary(32, seed), 1)
            norm_sq = np.vdot(tensor, tensor).real
            assert not tensor.flags.c_contiguous
            rows = tensor.reshape(4, -1).take(sorted(o for (o,) in ones), axis=0)
            gathered = math.fsum(np.add.reduce(np.abs(rows) ** 2, axis=1).tolist())
            assert sv._output_probability_one(tensor, norm_sq, alg) == gathered

    @pytest.mark.parametrize("registers", [(), (0,), (0, 1), (2,)])
    def test_scaled_tensor_fails_the_sum_check(self, registers):
        dims = (3, 2, 4)
        alg = QueryAlgorithm(RegisterLayout(dims), (), OutputRule(registers, frozenset()))
        tensor, _ = unit_tensor(dims, np.random.default_rng(13))
        scaled = tensor * 1.01
        with pytest.raises(RuntimeError, match="output distribution sums to 1.020"):
            sv._output_probability_one(scaled, np.vdot(scaled, scaled).real, alg)


class TestLeadingRowsRead:
    """Any outcome set of leading output registers is read bit for bit as
    `math.fsum` of its row-major gathered rows, whatever the memory order."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_the_gathered_rows(self, data):
        dims, budget = [], 256
        for _ in range(data.draw(st.integers(1, 4), label="registers")):
            dims.append(data.draw(st.integers(1, min(16, budget)), label="dim"))
            budget //= dims[-1]
        dims = tuple(dims)
        lead = data.draw(st.integers(1, len(dims)), label="output registers")
        out_side = math.prod(dims[:lead])
        kind = data.draw(st.sampled_from(["empty", "one", "run", "gaps", "any"]), label="kind")
        if kind == "empty":
            flat = []
        elif kind == "any":
            flat = sorted(data.draw(st.sets(st.integers(0, out_side - 1)), label="positions"))
        else:
            step = data.draw(st.integers(2, 4), label="step") if kind == "gaps" else 1
            start = data.draw(st.integers(0, out_side - 1), label="start")
            span = range(start, out_side, step)
            flat = list(span[: 1 if kind == "one" else data.draw(st.integers(1, len(span)))])
        ones = {tuple(int(v) for v in np.unravel_index(f, dims[:lead])) for f in flat}
        alg = QueryAlgorithm(RegisterLayout(dims), (), OutputRule(tuple(range(lead)), ones))
        assert alg._output[0] is None
        # the tensor's axes lie in memory in a drawn order, so its rows may be strided
        memory = data.draw(st.permutations(range(len(dims))), label="memory order")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        tensor, _ = unit_tensor(tuple(dims[a] for a in memory), rng)
        tensor = tensor.transpose(np.argsort(memory))
        assert tensor.shape == dims
        norm_sq = np.vdot(tensor, tensor).real
        rows = tensor.reshape(out_side, -1).take(np.array(flat, dtype=np.intp), axis=0)
        gathered = math.fsum(np.add.reduce(np.abs(rows) ** 2, axis=1).tolist())
        assert sv._output_probability_one(tensor, norm_sq, alg) == min(max(gathered, 0.0), 1.0)
        # the sum-to-1 check still reads the squared norm first, NaN included
        for bad in (float("nan"), 1.01**2 * norm_sq):
            with pytest.raises(RuntimeError, match="output distribution sums to"):
                sv._output_probability_one(tensor, bad, alg)
