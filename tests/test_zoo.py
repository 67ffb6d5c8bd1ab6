import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qsymlab import statevector, zoo
from qsymlab.core import InputString, is_symmetric_first_type
from qsymlab.oracles import StandardOracle
from qsymlab.statevector import OracleCall, QueryAlgorithm, Unitary, query_count, run
from qsymlab.zoo import (
    build_distinguisher,
    build_zoo_entry,
    collision_sniffer,
    constant_function,
    deutsch_jozsa,
    diffusion_matrix,
    fourier_matrix,
    grover_unique_or,
    optimal_grover_iterations,
    phase_value_prep,
    zero_query_probe,
    zoo_catalog,
)


class TestBuildingBlocks:
    def test_fourier_unitary(self):
        for d in (2, 3, 4, 16):
            f = fourier_matrix(d)
            assert np.max(np.abs(f.conj().T @ f - np.eye(d))) < 1e-12

    def test_fourier_column_zero_uniform(self):
        f = fourier_matrix(5)
        assert np.allclose(f[:, 0], np.full(5, 1 / np.sqrt(5)))

    def test_phase_prep_gives_shift_eigenstate(self):
        d = 3
        prep = phase_value_prep(d)
        chi = prep[:, 0]
        shifted = np.roll(chi, 1)  # the "add 1 mod d" action
        omega = np.exp(2j * np.pi / d)
        assert np.allclose(shifted, omega * chi)

    def test_diffusion_is_reflection(self):
        d = 4
        diff = diffusion_matrix(d)
        assert np.allclose(diff @ diff, np.eye(d))
        uniform = np.full(d, 1 / np.sqrt(d))
        assert np.allclose(diff @ uniform, uniform)


class TestDenseSizeGuard:
    @pytest.mark.parametrize(
        "build, allocator",
        [(fourier_matrix, "meshgrid"), (diffusion_matrix, "full")],
        ids=["fourier", "diffusion"],
    )
    def test_oversized_matrix_fails_before_allocating(self, monkeypatch, build, allocator):
        monkeypatch.setattr(zoo, "DENSE_ENTRIES_MAX", 100)
        assert build(10).shape == (10, 10)  # exactly 100 entries still build

        def forbidden(*args, **kwargs):
            raise AssertionError(f"np.{allocator} ran")

        monkeypatch.setattr(np, allocator, forbidden)
        with pytest.raises(ValueError, match=r"a dense 16x16 \w+ matrix exceeds 100 entries"):
            build(16)

    def test_grover_at_2048_fits(self):
        assert 2048 * 2048 <= zoo.DENSE_ENTRIES_MAX


class TestDeutschJozsa:
    def test_constant_inputs(self):
        entry = deutsch_jozsa(4)
        for bit in (0, 1):
            dist = run(entry.algorithm, StandardOracle(InputString(4, 2, (bit,) * 4)))
            assert dist[0] == pytest.approx(1.0, abs=1e-9)

    def test_all_balanced_inputs(self):
        entry = deutsch_jozsa(4)
        for ones in itertools.combinations(range(4), 2):
            values = tuple(1 if i in ones else 0 for i in range(4))
            dist = run(entry.algorithm, StandardOracle(InputString(4, 2, values)))
            assert dist[1] == pytest.approx(1.0, abs=1e-9)

    def test_one_query(self):
        assert query_count(deutsch_jozsa(8).algorithm) == 1

    def test_power_of_two_guard(self):
        with pytest.raises(ValueError, match="power of two"):
            deutsch_jozsa(6)

    def test_function_is_symmetric(self):
        assert is_symmetric_first_type(deutsch_jozsa(4).function)

    def test_total_on_non_promise_inputs(self):
        entry = deutsch_jozsa(4)
        for values in itertools.product((0, 1), repeat=4):
            dist = run(entry.algorithm, StandardOracle(InputString(4, 2, values)))
            assert dist[0] + dist[1] == pytest.approx(1.0, abs=1e-9)


class TestGrover:
    def test_exact_at_four(self):
        entry = grover_unique_or(4, 1)
        for marked in range(4):
            values = tuple(1 if i == marked else 0 for i in range(4))
            dist = run(entry.algorithm, StandardOracle(InputString(4, 2, values)))
            assert dist[1] == pytest.approx(1.0, abs=1e-9)

    def test_all_zeros_never_accepts(self):
        for k in (0, 1, 3):
            entry = grover_unique_or(4, k)
            dist = run(entry.algorithm, StandardOracle(InputString(4, 2, (0, 0, 0, 0))))
            assert dist[1] == pytest.approx(0.0, abs=1e-9)

    def test_two_iterations_at_eight(self):
        entry = grover_unique_or(8, 2)
        values = tuple(1 if i == 5 else 0 for i in range(8))
        dist = run(entry.algorithm, StandardOracle(InputString(8, 2, values)))
        assert dist[1] == pytest.approx(0.9453125, abs=1e-7)

    def test_success_matches_rotation_formula(self):
        for n, k in ((4, 0), (8, 1), (16, 3)):
            entry = grover_unique_or(n, k)
            values = tuple(1 if i == 1 else 0 for i in range(n))
            got = run(entry.algorithm, StandardOracle(InputString(n, 2, values)))[1]
            theta = math.asin(1 / math.sqrt(n))
            assert got == pytest.approx(math.sin((2 * k + 1) * theta) ** 2, abs=1e-9)

    def test_query_count(self):
        assert query_count(grover_unique_or(4, 0).algorithm) == 1
        assert query_count(grover_unique_or(4, 5).algorithm) == 6

    def test_optimal_iterations(self):
        assert optimal_grover_iterations(4) == 1
        assert optimal_grover_iterations(8) == 2

    def test_function_is_symmetric(self):
        assert is_symmetric_first_type(grover_unique_or(4, 1).function)
        assert is_symmetric_first_type(grover_unique_or(8, 2).function)

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            grover_unique_or(4, -1)

    def test_steps_over_budget_rejected_before_listing_them(self, monkeypatch):
        # (2k + 3) steps on 4n amplitudes: k = 1 at n = 4 is 5 * 16 = 80 entries
        monkeypatch.setenv("QSYMLAB_BUDGET", "80")
        assert len(grover_unique_or(4, 1).algorithm.steps) == 5
        monkeypatch.setenv("QSYMLAB_BUDGET", "79")
        monkeypatch.setattr(zoo, "OracleCall", lambda *args: pytest.fail("a step was listed"))
        with pytest.raises(zoo.StepBudgetError, match="^5 steps on 16 amplitudes exceed the budget of 79"):
            grover_unique_or(4, 1)
        monkeypatch.setenv("QSYMLAB_BUDGET", "3247")  # k = 100: 203 * 16 = 3248 entries
        with pytest.raises(zoo.StepBudgetError, match="^203 steps on 16 amplitudes"):
            grover_unique_or(4, 100)


class TestGroverHoldsOneDiffusion:
    def test_one_array_per_distinct_matrix_checked_once(self, monkeypatch):
        checked = []
        require_unitary = statevector.require_unitary
        monkeypatch.setattr(
            statevector, "require_unitary", lambda m: checked.append(m) or require_unitary(m)
        )
        alg = grover_unique_or(512, optimal_grover_iterations(512)).algorithm
        matrices = {id(step.matrix) for step in alg.steps if isinstance(step, Unitary)}
        assert optimal_grover_iterations(512) == 17
        assert len(matrices) <= 3
        assert len(checked) == len(matrices)

    def test_same_run_as_a_fresh_diffusion_per_iteration(self):
        n, k = 8, 2
        alg = grover_unique_or(n, k).algorithm
        steps = [Unitary(s.matrix.copy(), s.targets) if isinstance(s, Unitary) else s for s in alg.steps]
        fresh = QueryAlgorithm(alg.layout, tuple(steps), alg.output_rule)
        assert sum(isinstance(s, OracleCall) for s in steps) == k + 1
        for hot in range(n):
            oracle = StandardOracle(InputString(n, 2, tuple(int(i == hot) for i in range(n))))
            assert run(alg, oracle) == run(fresh, oracle)


class TestGroverIterationCost:
    def test_an_iteration_retains_a_few_references(self):
        # each iteration adds one shared query and one shared diffusion to the
        # steps and their two ops to the algorithm's op tuple: 4 references
        grover_unique_or(4, 1)  # caches filled before measuring

        def retained(iterations):
            tracemalloc.start()
            try:
                entry = grover_unique_or(4, iterations)
                return tracemalloc.get_traced_memory()[0], entry
            finally:
                tracemalloc.stop()

        base, _ = retained(0)
        grown, entry = retained(20_000)
        assert len(entry.algorithm.steps) == 2 * 20_000 + 3
        assert (grown - base) / 20_000 < 64


class TestConstant:
    def test_always_outputs_bit(self):
        for bit in (0, 1):
            entry = constant_function(bit)
            assert run(entry.algorithm)[bit] == 1.0

    def test_zero_queries(self):
        assert query_count(constant_function(1).algorithm) == 0

    def test_function_is_symmetric(self):
        assert is_symmetric_first_type(constant_function(0, n=3).function)


class TestCollisionSniffer:
    def test_permutation_vs_constant_separation(self):
        probe = collision_sniffer(4)
        from qsymlab.core import IndexFunction

        perm = run(probe.algorithm, StandardOracle(IndexFunction(4, (2, 0, 3, 1))))
        const = run(probe.algorithm, StandardOracle(IndexFunction(4, (1, 1, 1, 1))))
        assert perm[1] == pytest.approx(0.25, abs=1e-9)
        assert const[1] == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_given_table(self):
        from qsymlab.core import IndexFunction

        probe = collision_sniffer(4)
        g = IndexFunction(4, (0, 0, 2, 3))
        assert run(probe.algorithm, StandardOracle(g)) == run(
            probe.algorithm, StandardOracle(g)
        )

    def test_zero_query_variant(self):
        probe = zero_query_probe(4)
        assert query_count(probe.algorithm) == 0
        assert run(probe.algorithm)[1] == 1


class TestRegistry:
    def test_build_zoo_entries(self):
        assert build_zoo_entry("dj", 4).id == "dj"
        assert build_zoo_entry("grover", 4, 1).id == "grover"
        assert build_zoo_entry("const0", 4).id == "const0"
        with pytest.raises(ValueError, match="unknown zoo id"):
            build_zoo_entry("nope", 4)

    def test_build_distinguishers(self):
        assert build_distinguisher("collision-sniffer", 4).id == "collision-sniffer"
        assert build_distinguisher("zero-query", 4).id == "zero-query"
        with pytest.raises(ValueError, match="unknown"):
            build_distinguisher("nope", 4)

    def test_catalog_covers_ids(self):
        ids = {row["id"] for row in zoo_catalog()}
        assert {"dj", "grover", "const0", "const1", "collision-sniffer", "zero-query"} <= ids

    def test_declared_counts_match(self):
        assert query_count(zero_query_probe(4).algorithm) == 0
        assert query_count(collision_sniffer(4).algorithm) == 1

    def test_oracle_counter_matches_declared_count(self):
        from qsymlab.compiler import amplify_majority3
        from qsymlab.core import IndexFunction

        cases = [
            (deutsch_jozsa(4).algorithm, InputString(4, 2, (0, 1, 1, 0))),
            (grover_unique_or(4, 2).algorithm, InputString(4, 2, (0, 1, 0, 0))),
            (amplify_majority3(deutsch_jozsa(4).algorithm), InputString(4, 2, (1, 1, 1, 1))),
        ]
        for alg, x in cases:
            oracle = StandardOracle(x)
            run(alg, oracle)
            assert oracle.queries == query_count(alg)
        probe = collision_sniffer(4)
        oracle = StandardOracle(IndexFunction(4, (0, 0, 1, 2)))
        run(probe.algorithm, oracle)
        assert oracle.queries == 1
