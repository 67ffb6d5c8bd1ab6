import concurrent.futures
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qsymlab import compiler, distributions, oracles, statevector
from qsymlab.compiler import (
    CompiledRunResult,
    amplify_majority3,
    compile_and_run_once,
    compiled_distribution,
    estimate_success,
    exact_success,
    majority3_prob,
    r_from_q,
    wilson_interval,
    with_gadget_ancilla,
)
from qsymlab.core import IndexFunction, InputString, compose_input
from qsymlab.distributions import (
    SmallRangeParams,
    enumerate_small_range_support,
    sample_small_range,
    stream_rows,
    stream_seeds,
)
from qsymlab.oracles import ClassicalOracle, ComposedOracle, StandardOracle
from qsymlab.statevector import (
    OutputRule,
    QueryAlgorithm,
    RegisterLayout,
    Unitary,
    query_count,
    run,
)
from qsymlab.zoo import deutsch_jozsa, fourier_matrix, grover_unique_or


def base_two_thirds_alg():
    """Zero-query algorithm accepting with probability exactly 2/3."""
    return QueryAlgorithm(
        layout=RegisterLayout((3,)),
        steps=(Unitary(fourier_matrix(3), (0,)),),
        output_rule=OutputRule((0,), frozenset({(0,), (1,)})),
    )


def composed_table(x, values):
    return tuple(x.values[j] for j in values)


@pytest.fixture
def fake_pool(monkeypatch):
    """An in-process stand-in for `ProcessPoolExecutor`; no process starts.

    It records each pool's width and each task's seeds. A task goes through
    pickle first, as it would on its way to a worker.
    """
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            self.max_workers, self.tasks = max_workers, []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, seed_slices):
            for seeds in seed_slices:
                task, seeds = pickle.loads(pickle.dumps((fn, seeds)))
                yield task(seeds)
                self.tasks.append(seeds)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return pools


class TestMajority3:
    def test_two_thirds_rational(self):
        assert majority3_prob(Fraction(2, 3)) == Fraction(20, 27)

    def test_endpoints(self):
        assert majority3_prob(0.0) == 0.0
        assert majority3_prob(1.0) == 1.0

    def test_half_is_fixed_point(self):
        assert majority3_prob(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_point_nine(self):
        assert majority3_prob(0.9) == pytest.approx(0.972, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            majority3_prob(1.5)


class TestAmplify:
    def test_query_count_triples(self):
        alg = deutsch_jozsa(4).algorithm
        assert query_count(amplify_majority3(alg)) == 3 * query_count(alg)

    def test_harness_level_twenty_twenty_sevenths(self):
        amplified = amplify_majority3(base_two_thirds_alg())
        assert run(amplified)[1] == pytest.approx(20 / 27, abs=1e-9)

    def test_certain_stays_certain(self):
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (1, 1, 1, 1))
        dist = run(amplify_majority3(entry.algorithm), StandardOracle(x))
        assert dist[0] == pytest.approx(1.0, abs=1e-9)

    def test_amplified_matches_cubic_of_base(self):
        entry = grover_unique_or(8, 1)
        x = InputString(8, 2, (0, 0, 0, 0, 1, 0, 0, 0))
        base_p = run(entry.algorithm, StandardOracle(x))[1]
        amp_p = run(amplify_majority3(entry.algorithm), StandardOracle(x))[1]
        assert amp_p == pytest.approx(majority3_prob(base_p), abs=1e-9)

    @pytest.mark.parametrize(
        "rebuild",
        [amplify_majority3, lambda alg: with_gadget_ancilla(alg, 4)[0]],
        ids=["amplify", "gadget-ancilla"],
    )
    def test_rebuild_verifies_no_matrix(self, monkeypatch, rebuild):
        alg = deutsch_jozsa(4).algorithm
        checked = []
        require_unitary = statevector.require_unitary
        monkeypatch.setattr(
            statevector, "require_unitary", lambda m: checked.append(m) or require_unitary(m)
        )
        rebuilt = rebuild(alg)
        assert checked == []
        assert rebuilt.steps == alg.steps

    def test_amplifying_grover_at_1024_verifies_no_matrix(self, monkeypatch):
        alg = grover_unique_or(1024, 2).algorithm
        checked = []
        monkeypatch.setattr(statevector, "require_unitary", checked.append)
        assert amplify_majority3(alg).repeats == 3
        assert checked == []

    def test_double_amplification_rejected(self):
        alg = amplify_majority3(deutsch_jozsa(4).algorithm)
        with pytest.raises(ValueError, match="already"):
            amplify_majority3(alg)


class TestRFromQ:
    def test_unit_case(self):
        assert r_from_q(1, 6) == 1

    def test_q_two(self):
        assert r_from_q(2, 6) == 8

    def test_monotone_in_q(self):
        values = [r_from_q(q, 2.5) for q in range(1, 12)]
        assert values == sorted(values)

    def test_budget_inequality_holds(self):
        for q in range(1, 8):
            for lam in (0.5, 1.0, 3.7, 6.0):
                r = r_from_q(q, lam)
                assert (6 * q) ** 3 <= lam**3 * r * (1 + 1e-12)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError, match="positive"):
            r_from_q(2, 0)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            r_from_q(0, 6)


class TestCompiledDistribution:
    def test_bit_identical_to_direct_simulation(self):
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (0, 1, 1, 0))
        for c_values in ((2, 2, 0, 1), (0, 0, 0, 0), (0, 1, 2, 3), (3, 1, 3, 1)):
            fixed = IndexFunction(4, c_values)
            dist, used = compiled_distribution(entry.algorithm, x, fixed.values)
            direct = run(
                amplify_majority3(entry.algorithm),
                StandardOracle(compose_input(x, fixed)),
            )
            assert dist == direct
            assert used == len(set(fixed.values))

    def test_lookup_counter_is_image_size(self):
        entry = deutsch_jozsa(8)
        x = InputString(8, 2, (0, 1, 0, 1, 0, 1, 0, 1))
        fixed = IndexFunction(8, (5, 5, 5, 2, 2, 0, 0, 0))
        _, used = compiled_distribution(entry.algorithm, x, fixed.values)
        assert used == 3

    def test_injective_maps_behave_like_permutations(self):
        # conditioned on an injective map the compiled run is the amplified
        # algorithm on a permuted promise input, so success stays >= 20/27
        import itertools

        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (0, 1, 0, 1))
        for values in itertools.permutations(range(4)):
            pi = IndexFunction(4, values)
            dist, _ = compiled_distribution(entry.algorithm, x, pi.values)
            direct = run(
                amplify_majority3(entry.algorithm),
                StandardOracle(compose_input(x, pi)),
            )
            assert dist == direct
            assert dist[1] >= 20 / 27

    @pytest.mark.parametrize("values", [(0, 1, 2, 4), (-1, 0, 0, 0)], ids=["past-n", "negative"])
    def test_value_outside_the_domain_raises_before_composing(self, values):
        x = InputString(4, 2, (0, 1, 1, 0))
        built: dict = {}
        with pytest.raises(IndexError, match=r"out of range \[0, 4\)"):
            compiled_distribution(deutsch_jozsa(4).algorithm, x, values, built)
        assert built == {}


class TestCompileAndRunOnce:
    def test_r_range_enforced(self):
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (0, 0, 1, 1))
        with pytest.raises(ValueError, match="outside"):
            compile_and_run_once(entry.algorithm, x, 5, seed=0)

    def test_queries_bounded_by_r(self):
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (0, 0, 1, 1))
        for seed in range(100):
            result = compile_and_run_once(entry.algorithm, x, 2, seed=seed)
            assert result.classical_queries_used <= 2
            assert result.classical_queries_used == len(set(result.sampled_C))

    def test_seed_replays_exactly(self):
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (0, 1, 0, 1))
        first = compile_and_run_once(entry.algorithm, x, 3, seed=2)
        assert first.seed == 2
        assert compile_and_run_once(entry.algorithm, x, 3, seed=first.seed) == first

    def test_seed_is_required(self):
        x = InputString(4, 2, (0, 1, 1, 0))
        with pytest.raises(TypeError, match="seed"):
            compile_and_run_once(deutsch_jozsa(4).algorithm, x, 2)

    def test_passed_draws_are_the_seeds_own(self):
        # the checked row and uniform a trial is passed, made by the row sampler
        params = SmallRangeParams(4, 2)
        x = InputString(4, 2, (0, 1, 1, 0))
        row, uniform = next(stream_rows(params.bounds, [5]))
        values = sample_small_range(params, row)
        passed = compile_and_run_once(
            deutsch_jozsa(4).algorithm, x, 2, seed=5, draws=(values, uniform)
        )
        assert passed.sampled_C == values
        assert passed == compile_and_run_once(deutsch_jozsa(4).algorithm, x, 2, seed=5)

    def test_replay_samples_and_checks_a_block_of_one_seed(self, count_calls):
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (0, 1, 1, 0))
        # rows of 8 draws: the 600 trials come in stream blocks of 512 and 88
        est = estimate_success(entry.algorithm, x, 1, 4, 600, 9)
        picked = est.results[509:515] + est.results[-2:]
        counts = count_calls(
            [
                (distributions, "sample_small_range"),
                (compiler, "sample_small_range_block"),
                (compiler, "index_map_block"),
                (compiler, "stream_blocks"),
            ]
        )
        replayed = [compile_and_run_once(entry.algorithm, x, 4, seed=t.seed) for t in picked]
        assert replayed == list(picked)
        # per replay one block of one seed: one draw, one block sampler pass
        # and one check, and no row sampler
        assert counts == {"stream_blocks": 8, "sample_small_range_block": 8, "index_map_block": 8}

    def test_constant_input_always_succeeds(self):
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (0, 0, 0, 0))
        for seed in range(50):
            assert compile_and_run_once(entry.algorithm, x, 2, seed=seed).output_bit == 0


class TestEstimateSuccess:
    def test_constant_input_estimate_is_one(self):
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (1, 1, 1, 1))
        est = estimate_success(entry.algorithm, x, 0, 2, 500, 4)
        assert est.estimate == 1.0
        assert est.ci_low > 0.99

    def test_same_seed_reproduces(self):
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (0, 1, 1, 0))
        a = estimate_success(entry.algorithm, x, 1, 4, 200, 7)
        b = estimate_success(entry.algorithm, x, 1, 4, 200, 7)
        assert a == b

    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize("trials", [1, 2, 5, 60, 1100])
    def test_parallel_jobs_match_serial(self, monkeypatch, jobs, trials):
        # a real pool, never wider than two processes; 1100 trials span stream
        # blocks of 512 rows on both sides: 512/512/76 in this process, 512/38
        # in each of the two workers
        cpus = os.cpu_count() or 1
        monkeypatch.setattr(os, "cpu_count", lambda: min(cpus, 2))
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (0, 1, 1, 0))
        serial = estimate_success(entry.algorithm, x, 1, 4, trials, 8)
        parallel = estimate_success(
            entry.algorithm, x, 1, 4, trials, 8, jobs=jobs
        )
        assert [t.seed for t in parallel.results] == [t.seed for t in serial.results]
        assert serial == parallel

    @pytest.mark.parametrize(
        "jobs, trials, cpus, width",
        [(10_000, 3, 64, 3), (10_000, 3, 2, 2), (3, 60, 64, 3), (2, 5, 64, 2), (3, 2, 64, 2),
         (10_000, 1, 64, 1), (10_000, 60, 1, 1), (10_000, 60, None, 1), (1, 60, 64, 1)],
    )  # fmt: skip
    def test_pool_width_is_capped(self, monkeypatch, fake_pool, jobs, trials, cpus, width):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        x = InputString(4, 2, (0, 1, 1, 0))
        est = estimate_success(
            deutsch_jozsa(4).algorithm, x, 1, 4, trials, 8, jobs=jobs
        )
        assert len(est.results) == trials
        if width == 1:
            assert fake_pool == []  # in this process, no pool
        else:
            [pool] = fake_pool
            assert pool.max_workers == width == len(pool.tasks)

    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize("trials", [2, 5, 60])
    def test_pool_tasks_are_contiguous_slices(self, monkeypatch, fake_pool, jobs, trials):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (0, 1, 1, 0))
        serial = estimate_success(entry.algorithm, x, 1, 4, trials, 8)
        parallel = estimate_success(
            entry.algorithm, x, 1, 4, trials, 8, jobs=jobs
        )
        assert parallel == serial
        [pool] = fake_pool
        slices = [seeds.tolist() for seeds in pool.tasks]
        assert len(slices) == min(jobs, trials) and all(slices)
        assert sum(slices, []) == [t.seed for t in serial.results]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("r", [0, 5])
    def test_r_outside_range_rejected_before_any_draw(self, monkeypatch, fake_pool, jobs, r):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        def no_draw(*args):
            raise AssertionError("a seed was drawn")

        monkeypatch.setattr(compiler, "stream_seeds", no_draw)
        x = InputString(4, 2, (0, 1, 1, 0))
        with pytest.raises(ValueError, match="r outside"):
            estimate_success(deutsch_jozsa(4).algorithm, x, 1, r, 3, 8, jobs=jobs)
        assert fake_pool == []  # no pool was started

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, jobs):
        x = InputString(4, 2, (0, 1, 1, 0))
        with pytest.raises(ValueError, match="jobs must be positive"):
            estimate_success(deutsch_jozsa(4).algorithm, x, 1, 4, 3, 8, jobs=jobs)

    @pytest.mark.parametrize("trials", [0, -2])
    def test_trials_below_one_rejected(self, trials):
        x = InputString(4, 2, (0, 1, 1, 0))
        with pytest.raises(ValueError, match="^trials must be positive$"):
            estimate_success(deutsch_jozsa(4).algorithm, x, 1, 4, trials, 8)

    @pytest.mark.parametrize("trials", [1, 2, 2000])
    def test_trial_seeds_are_the_words_of_the_seed_stream(self, monkeypatch, trials):
        def record_seed(alg, x, r, *, seed, oracles=None, draws=None):
            return CompiledRunResult(0, 1, (0, 0, 0, 0), False, seed)

        monkeypatch.setattr(compiler, "compile_and_run_once", record_seed)
        x = InputString(4, 2, (0, 1, 1, 0))
        for seed in (0, 1, 8, 2**32 + 5, 2**64 - 1):
            est = estimate_success(deutsch_jozsa(4).algorithm, x, 0, 4, trials, seed)
            assert [t.seed for t in est.results] == stream_seeds(seed, trials).tolist()
            assert all(type(t.seed) is int and 0 <= t.seed < 2**63 for t in est.results)

    def test_import_leaves_the_process_pool_unloaded(self):
        # only jobs > 1 needs concurrent.futures.process and multiprocessing
        code = "import sys, qsymlab; print('concurrent.futures.process' in sys.modules)"
        src = str(Path(compiler.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
            timeout=60,
        )
        assert out.stdout.strip() == "False"

    def test_monte_carlo_matches_exact_dj(self):
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (0, 0, 1, 1))
        exact = exact_success(entry.algorithm, x, 1, 4)
        assert exact == pytest.approx(51 / 64, abs=1e-9)
        est = estimate_success(entry.algorithm, x, 1, 4, 2000, 9)
        sigma = math.sqrt(exact * (1 - exact) / 2000)
        assert abs(est.estimate - exact) <= 4 * sigma


class TestExactSuccess:
    def test_dj_constant_any_r(self):
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (1, 1, 1, 1))
        for r in (1, 2, 4):
            assert exact_success(entry.algorithm, x, 0, r) == pytest.approx(1.0, abs=1e-9)

    def test_grover_small_instance_target(self):
        # fixes the expected value exactly before any larger-scale smoke run
        entry = grover_unique_or(4, 1)
        x = InputString(4, 2, (0, 0, 1, 0))
        value = exact_success(entry.algorithm, x, 1, 4)
        assert value == pytest.approx(17 / 32, abs=1e-9)
        assert value >= 0.5

    def test_grover_larger_instance_against_closed_form(self):
        # w marked cells of x.C follow Bin(n, 1/n) at r = n; per-w success is
        # the standard amplitude geometry, majority-combined
        n, k = 8, 2
        entry = grover_unique_or(n, k)
        x = InputString(n, 2, tuple(1 if i == 3 else 0 for i in range(n)))
        expected = 0.0
        for w in range(n + 1):
            weight = math.comb(n, w) * (1 / n) ** w * (1 - 1 / n) ** (n - w)
            p_w = math.sin((2 * k + 1) * math.asin(math.sqrt(w / n))) ** 2 if w else 0.0
            expected += weight * majority3_prob(p_w)
        est = estimate_success(entry.algorithm, x, 1, n, 2000, 10)
        sigma = math.sqrt(expected * (1 - expected) / 2000)
        assert abs(est.estimate - expected) <= 4 * sigma


@pytest.mark.parametrize(
    "success",
    [
        lambda alg, x, bit: estimate_success(alg, x, bit, 2, 50, 1),
        lambda alg, x, bit: exact_success(alg, x, bit, 2),
    ],
    ids=["estimate", "exact"],
)
@pytest.mark.parametrize("expected_bit", [2, -1])
def test_bad_expected_bit_rejected_before_any_work(monkeypatch, success, expected_bit):
    calls = []
    for name in ("run", "stream_seeds", "enumerate_small_range_support"):
        monkeypatch.setattr(compiler, name, lambda *args, name=name: calls.append(name))
    x = InputString(4, 2, (0, 1, 1, 0))
    with pytest.raises(ValueError, match=f"^expected_bit must be 0 or 1, got {expected_bit}$"):
        success(deutsch_jozsa(4).algorithm, x, expected_bit)
    assert calls == []  # no seed drawn, no support walked, no run


def per_map_exact_success(alg, x, expected_bit, r):
    """exact_success as a plain per-map loop: a fresh oracle for every map.

    An amplified run's three passes are bit-identical, so one pass of the
    base algorithm, majority-combined, gives each map's distribution.
    """
    support = enumerate_small_range_support(SmallRangeParams(x.n, r))
    terms = []
    for block, mass in support.blocks():
        for values in block.tolist():
            reader = ClassicalOracle(x)
            known = {i: reader.lookup(i) for i in sorted(set(values))}
            composed = InputString(x.n, x.M, tuple(known[j] for j in values))
            p_one = majority3_prob(run(alg, StandardOracle(composed))[1])
            terms.append(float(mass) * {0: 1.0 - p_one, 1: p_one}[expected_bit])
    return float(math.fsum(terms))


class TestExactSuccessSharesOracles:
    @pytest.mark.parametrize(
        "entry, x, expected_bit, r_values",
        [
            (deutsch_jozsa(4), InputString(4, 2, (0, 1, 1, 0)), 1, (1, 2, 3, 4)),
            (deutsch_jozsa(4), InputString(4, 2, (1, 1, 1, 1)), 0, (1, 2, 3, 4)),
            (grover_unique_or(4, 1), InputString(4, 2, (0, 0, 1, 0)), 1, (1, 2)),
            (grover_unique_or(8, 2), InputString(8, 2, (0, 0, 0, 0, 0, 1, 0, 0)), 1, (1, 2)),
        ],
        ids=["dj-balanced", "dj-constant", "grover-4", "grover-8"],
    )
    def test_equals_the_per_map_loop(self, entry, x, expected_bit, r_values):
        for r in r_values:
            value = exact_success(entry.algorithm, x, expected_bit, r)
            assert value == per_map_exact_success(entry.algorithm, x, expected_bit, r)

    def test_one_oracle_per_distinct_table(self, count_calls):
        counts = count_calls(
            [
                (StandardOracle, "__init__"),
                (StandardOracle, "apply_tensor"),
                (ClassicalOracle, "lookup"),
                (oracles, "_gather_sources"),
            ],
        )
        x = InputString(8, 2, (0, 0, 0, 1, 0, 0, 0, 0))
        value = exact_success(grover_unique_or(8, 2).algorithm, x, 1, 2)
        assert value == pytest.approx(1 / 8, abs=1e-9)
        # 7120 maps compose x to 256 tables; every map still reads and queries
        assert counts == {
            "__init__": 256,
            "_gather_sources": 512,
            "lookup": 14_232,
            "apply_tensor": 64_080,
        }

    def test_builds_no_index_function_and_reads_each_image_cell_once(self, count_calls):
        counts = count_calls(
            [
                (IndexFunction, "__post_init__"),
                (compiler, "compiled_distribution"),
                (ClassicalOracle, "lookup"),
            ],
        )
        x = InputString(8, 2, (0, 0, 0, 0, 0, 1, 0, 0))
        exact_success(grover_unique_or(8, 2).algorithm, x, 1, 2)
        # 8 maps of image size 1 and 7,112 of size 2, each a row of a checked block
        assert counts["__post_init__"] == 0
        assert counts == {"compiled_distribution": 7120, "lookup": 8 + 2 * 7112}


def tables_per_block(x, r, results):
    """The distinct composed tables of each stream block of trials, in order."""
    per_block = max(1, distributions._BLOCK_INTS // (x.n + r))
    tables = [composed_table(x, t.sampled_C) for t in results]
    return [len(set(tables[start : start + per_block])) for start in range(0, len(tables), per_block)]


def fresh_oracle_trials(alg, x, r, trials, seed):
    """estimate_success's trials as a plain loop: each seed's row from the row
    sampler, and a fresh oracle per trial."""
    params = SmallRangeParams(x.n, r)
    seeds = stream_seeds(seed, trials).tolist()
    results = []
    for s, (row, uniform) in zip(seeds, stream_rows(params.bounds, seeds)):
        values = sample_small_range(params, row)
        dist, used = compiled_distribution(alg, x, values)
        results.append(CompiledRunResult(int(uniform < dist[1]), used, values, used == x.n, s))
    return results


ONE_HOT_64 = InputString(64, 2, tuple(int(i == 17) for i in range(64)))


class TestEstimateSuccessSharesOracles:
    def test_one_oracle_per_distinct_table_of_each_block(self, count_calls):
        counts = count_calls(
            [
                (StandardOracle, "__init__"),
                (StandardOracle, "apply_tensor"),
                (ClassicalOracle, "lookup"),
                (compiler, "oracle_from_partial"),
                (compiler, "sample_small_range_block"),
                (compiler, "index_map_block"),
                (distributions, "sample_small_range"),
                (IndexFunction, "__post_init__"),
            ],
        )
        x = InputString(4, 2, (0, 1, 1, 0))
        est = estimate_success(deutsch_jozsa(4).algorithm, x, 1, 4, 2000, 14)
        # each of the 4 stream blocks of 512 rows composes x to its 16 tables
        assert tables_per_block(x, 4, est.results) == [16, 16, 16, 16]
        # every trial still reads, composes and runs three passes; its map is
        # sampled and checked with its stream block, and no row sampler runs
        # and no `IndexFunction` is built
        assert counts["sample_small_range"] == counts["__post_init__"] == 0
        assert counts == {
            "__init__": 4 * 16,
            "apply_tensor": 6000,
            "lookup": sum(t.classical_queries_used for t in est.results),
            "oracle_from_partial": 2000,
            "sample_small_range_block": 4,
            "index_map_block": 4,
        }

    @pytest.mark.parametrize(
        "entry, x, trials",
        [
            (grover_unique_or(16, 3), InputString(16, 2, (0,) * 5 + (1,) + (0,) * 10), 10),
            (deutsch_jozsa(4), InputString(4, 2, (0, 1, 1, 0)), 15),
            (deutsch_jozsa(4), InputString(4, 2, (0, 1, 1, 0)), 600),
            # 2^64 possible tables; 120 trials in two stream blocks of 60
            (grover_unique_or(64, 1), ONE_HOT_64, 120),
        ],
        ids=["grover-16", "dj-15", "dj-two-blocks", "grover-64"],
    )
    def test_trials_share_within_their_stream_block(self, count_calls, entry, x, trials):
        counts = count_calls([(StandardOracle, "__init__")])
        est = estimate_success(entry.algorithm, x, 1, 4, trials, 15)
        assert counts["__init__"] == sum(tables_per_block(x, 4, est.results)) < trials
        assert list(est.results) == fresh_oracle_trials(entry.algorithm, x, 4, trials, 15)

    def test_each_jobs_slice_shares_within_its_own_blocks(
        self, monkeypatch, fake_pool, count_calls
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        alg, x = grover_unique_or(64, 1).algorithm, ONE_HOT_64
        serial = estimate_success(alg, x, 1, 4, 120, 3)
        counts = count_calls([(StandardOracle, "__init__")])
        parallel = estimate_success(alg, x, 1, 4, 120, 3, jobs=3)
        assert parallel == serial
        # three slices of 40 seeds, each one block of its own
        [pool] = fake_pool
        assert [len(seeds) for seeds in pool.tasks] == [40, 40, 40]
        slices = [parallel.results[start : start + 40] for start in range(0, 120, 40)]
        assert [tables_per_block(x, 4, part) for part in slices] == [[2], [5], [4]]
        assert counts["__init__"] == 2 + 5 + 4

    @pytest.mark.parametrize("trials", [16, 300, 600])  # 600 spans two blocks of 585 rows
    def test_trial_replays_alone(self, trials):
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (1, 0, 0, 1))
        est = estimate_success(entry.algorithm, x, 1, 3, trials, 16)
        replayed = [compile_and_run_once(entry.algorithm, x, 3, seed=t.seed) for t in est.results]
        assert replayed == list(est.results)


class TestCompiledTrialStaysOnImage:
    @pytest.mark.parametrize(
        "entry, x, r, trials",
        [
            (deutsch_jozsa(4), InputString(4, 2, (0, 1, 1, 0)), 3, 200),
            (grover_unique_or(8, 2), InputString(8, 2, (0, 0, 1, 0, 0, 0, 0, 0)), 3, 300),
        ],
        ids=["dj-4", "grover-8"],
    )
    def test_lookups_are_the_image_and_off_image_entries_do_not_matter(
        self, monkeypatch, entry, x, r, trials
    ):
        assert x.M**x.n <= trials  # the trials must repeat tables, so they share oracles
        looked: list[list[int]] = []
        lookup = ClassicalOracle.lookup
        single_trial = compiler.compile_and_run_once

        def recording_lookup(self, i):
            looked[-1].append(i)
            return lookup(self, i)

        def recording_trial(*args, **kwargs):
            looked.append([])
            return single_trial(*args, **kwargs)

        monkeypatch.setattr(ClassicalOracle, "lookup", recording_lookup)
        monkeypatch.setattr(compiler, "compile_and_run_once", recording_trial)
        est = estimate_success(entry.algorithm, x, 1, r, trials, 17)
        monkeypatch.undo()
        assert len(looked) == trials
        off_image_differs = 0
        shared_x, shared_y = {}, {}
        for trial, indices in zip(est.results, looked):
            cells = set(trial.sampled_C)
            assert set(indices) <= cells
            assert len(indices) == len(cells) == trial.classical_queries_used
            # y agrees with x on the image and differs from it everywhere else
            y = InputString(
                x.n, x.M, tuple(v if i in cells else 1 - v for i, v in enumerate(x.values))
            )
            off_image_differs += y != x
            values = trial.sampled_C
            assert compiled_distribution(entry.algorithm, y, values, shared_y) == (
                compiled_distribution(entry.algorithm, x, values, shared_x)
            )
        assert off_image_differs > 0


class TestGadgetRewrite:
    def test_rewritten_run_equals_direct(self):
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (0, 1, 1, 0))
        g = IndexFunction(4, (1, 0, 3, 3))
        rewritten, anc = with_gadget_ancilla(entry.algorithm, 4)
        assert anc == 2
        comp = ComposedOracle(StandardOracle(x), StandardOracle(g), anc)
        via_gadget = run(rewritten, comp)
        direct = run(entry.algorithm, StandardOracle(compose_input(x, g)))
        assert via_gadget[1] == pytest.approx(direct[1], abs=1e-12)

    def test_amplified_rewrite_counts_six_q(self):
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (0, 1, 1, 0))
        g = IndexFunction(4, (2, 2, 1, 0))
        rewritten, anc = with_gadget_ancilla(amplify_majority3(entry.algorithm), 4)
        comp = ComposedOracle(StandardOracle(x), StandardOracle(g), anc)
        run(rewritten, comp)
        assert comp.query_counts == {"x_queries": 3, "g_queries": 6}


class TestWilson:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(80, 100)
        assert low < 0.8 < high

    def test_degenerate_all_successes(self):
        low, high = wilson_interval(50, 50)
        assert high == 1.0
        assert low > 0.9

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)
