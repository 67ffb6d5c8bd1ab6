import concurrent.futures
import math
import os
import pickle
from collections import Counter
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qsymlab import compiler, oracles
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
from qsymlab.core import IndexFunction, InputString, compose_input, image
from qsymlab.distributions import SmallRangeParams, enumerate_small_range_support
from qsymlab.oracles import ClassicalOracle, ComposedOracle, StandardOracle, standard_oracle
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


def count_calls(monkeypatch, targets):
    """Count the calls of each (owner, attribute) in `targets`, by attribute name."""
    counts = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    for owner, name in targets:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    return counts


def composed_table(x, index_map):
    return tuple(x.values[j] for j in index_map.values)


@pytest.fixture
def fake_pool(monkeypatch):
    """An in-process stand-in for `ProcessPoolExecutor`; no process starts.

    It records each pool's width and, per task, the task's seeds and the
    `PCG64` generators the task built. A task goes through pickle first, as
    it would on its way to a worker.
    """
    pools, built = [], []
    pcg64 = np.random.PCG64

    def counting(*args, **kwargs):
        built.append(args)
        return pcg64(*args, **kwargs)

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
                before = len(built)
                yield task(seeds)
                self.tasks.append((seeds, len(built) - before))

    monkeypatch.setattr(np.random, "PCG64", counting)
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
        dist = run(amplify_majority3(entry.algorithm), standard_oracle(x))
        assert dist[0] == pytest.approx(1.0, abs=1e-9)

    def test_amplified_matches_cubic_of_base(self):
        entry = grover_unique_or(8, 1)
        x = InputString(8, 2, (0, 0, 0, 0, 1, 0, 0, 0))
        base_p = run(entry.algorithm, standard_oracle(x))[1]
        amp_p = run(amplify_majority3(entry.algorithm), standard_oracle(x))[1]
        assert amp_p == pytest.approx(majority3_prob(base_p), abs=1e-9)

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
            dist, used = compiled_distribution(entry.algorithm, x, fixed)
            direct = run(
                amplify_majority3(entry.algorithm),
                standard_oracle(compose_input(x, fixed)),
            )
            assert dist == direct
            assert used == len(image(fixed))

    def test_lookup_counter_is_image_size(self):
        entry = deutsch_jozsa(8)
        x = InputString(8, 2, (0, 1, 0, 1, 0, 1, 0, 1))
        fixed = IndexFunction(8, (5, 5, 5, 2, 2, 0, 0, 0))
        _, used = compiled_distribution(entry.algorithm, x, fixed)
        assert used == 3

    def test_injective_maps_behave_like_permutations(self):
        # conditioned on an injective map the compiled run is the amplified
        # algorithm on a permuted promise input, so success stays >= 20/27
        import itertools

        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (0, 1, 0, 1))
        for values in itertools.permutations(range(4)):
            pi = IndexFunction(4, values)
            dist, _ = compiled_distribution(entry.algorithm, x, pi)
            direct = run(
                amplify_majority3(entry.algorithm),
                standard_oracle(compose_input(x, pi)),
            )
            assert dist == direct
            assert dist[1] >= 20 / 27


class TestCompileAndRunOnce:
    def test_r_range_enforced(self):
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (0, 0, 1, 1))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="outside"):
            compile_and_run_once(entry.algorithm, x, 5, rng)

    def test_queries_bounded_by_r(self):
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (0, 0, 1, 1))
        rng = np.random.default_rng(1)
        for _ in range(100):
            result = compile_and_run_once(entry.algorithm, x, 2, rng)
            assert result.classical_queries_used <= 2
            assert result.classical_queries_used == len(image(result.sampled_C))

    def test_seed_replays_exactly(self):
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (0, 1, 0, 1))
        rng = np.random.default_rng(2)
        first = compile_and_run_once(entry.algorithm, x, 3, rng)
        replay = compile_and_run_once(entry.algorithm, x, 3, seed=first.seed)
        assert replay == first

    def test_constant_input_always_succeeds(self):
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (0, 0, 0, 0))
        rng = np.random.default_rng(3)
        for _ in range(50):
            assert compile_and_run_once(entry.algorithm, x, 2, rng).output_bit == 0


class TestEstimateSuccess:
    def test_constant_input_estimate_is_one(self):
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (1, 1, 1, 1))
        rng = np.random.default_rng(4)
        est = estimate_success(entry.algorithm, x, 0, 2, 500, rng)
        assert est.estimate == 1.0
        assert est.ci_low > 0.99

    def test_same_seed_reproduces(self):
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (0, 1, 1, 0))
        a = estimate_success(entry.algorithm, x, 1, 4, 200, np.random.default_rng(7))
        b = estimate_success(entry.algorithm, x, 1, 4, 200, np.random.default_rng(7))
        assert a == b

    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize("trials", [1, 2, 5, 60])
    def test_parallel_jobs_match_serial(self, monkeypatch, jobs, trials):
        # a real pool, never wider than two processes
        cpus = os.cpu_count() or 1
        monkeypatch.setattr(os, "cpu_count", lambda: min(cpus, 2))
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (0, 1, 1, 0))
        serial = estimate_success(entry.algorithm, x, 1, 4, trials, np.random.default_rng(8))
        parallel = estimate_success(
            entry.algorithm, x, 1, 4, trials, np.random.default_rng(8), jobs=jobs
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
            deutsch_jozsa(4).algorithm, x, 1, 4, trials, np.random.default_rng(8), jobs=jobs
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
        serial = estimate_success(entry.algorithm, x, 1, 4, trials, np.random.default_rng(8))
        parallel = estimate_success(
            entry.algorithm, x, 1, 4, trials, np.random.default_rng(8), jobs=jobs
        )
        assert parallel == serial
        [pool] = fake_pool
        slices = [seeds.tolist() for seeds, _ in pool.tasks]
        assert len(slices) == min(jobs, trials) and all(slices)
        assert sum(slices, []) == [t.seed for t in serial.results]
        assert all(generators <= 1 for _, generators in pool.tasks)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("r", [0, 5])
    def test_r_outside_range_rejected_before_any_draw(self, monkeypatch, fake_pool, jobs, r):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        x, rng = InputString(4, 2, (0, 1, 1, 0)), np.random.default_rng(8)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="r outside"):
            estimate_success(deutsch_jozsa(4).algorithm, x, 1, r, 3, rng, jobs=jobs)
        assert rng.bit_generator.state == before  # no seed was drawn
        assert fake_pool == []  # no pool was started

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, jobs):
        x, rng = InputString(4, 2, (0, 1, 1, 0)), np.random.default_rng(8)
        with pytest.raises(ValueError, match="jobs must be positive"):
            estimate_success(deutsch_jozsa(4).algorithm, x, 1, 4, 3, rng, jobs=jobs)

    @pytest.mark.parametrize("trials", [1, 2, 2000])
    def test_trial_seeds_match_one_draw_per_trial(self, monkeypatch, trials):
        # the seeds come from one generator call; it must consume the stream
        # as the former one-call-per-trial loop did
        def record_seed(alg, x, r, *, seed, oracles=None, draws=None):
            return CompiledRunResult(0, 1, IndexFunction(4, (0, 0, 0, 0)), False, seed)

        monkeypatch.setattr(compiler, "compile_and_run_once", record_seed)
        x = InputString(4, 2, (0, 1, 1, 0))
        for seed in (0, 1, 8, 2**32 + 5):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            est = estimate_success(deutsch_jozsa(4).algorithm, x, 0, 4, trials, rng)
            want = [int(reference.integers(0, 2**63)) for _ in range(trials)]
            assert [t.seed for t in est.results] == want
            assert all(type(t.seed) is int for t in est.results)
            assert rng.integers(0, 2**63) == reference.integers(0, 2**63)

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
        rng = np.random.default_rng(9)
        est = estimate_success(entry.algorithm, x, 1, 4, 2000, rng)
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
        rng = np.random.default_rng(10)
        est = estimate_success(entry.algorithm, x, 1, n, 2000, rng)
        sigma = math.sqrt(expected * (1 - expected) / 2000)
        assert abs(est.estimate - expected) <= 4 * sigma


def per_map_exact_success(alg, x, expected_bit, r):
    """exact_success as a plain per-map loop: a fresh oracle for every map.

    An amplified run's three passes are bit-identical, so one pass of the
    base algorithm, majority-combined, gives each map's distribution.
    """
    support = enumerate_small_range_support(SmallRangeParams(x.n, r))
    terms = []
    for index_map, weight in support.entries:
        reader = ClassicalOracle(x)
        known = {i: reader.lookup(i) for i in sorted(image(index_map))}
        composed = InputString(x.n, x.M, tuple(known[j] for j in index_map.values))
        p_one = majority3_prob(run(alg, StandardOracle(composed))[1])
        terms.append(float(weight) * {0: 1.0 - p_one, 1: p_one}[expected_bit])
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

    def test_one_oracle_per_distinct_table(self, monkeypatch):
        counts = count_calls(
            monkeypatch,
            [
                (StandardOracle, "__init__"),
                (StandardOracle, "apply_tensor"),
                (ClassicalOracle, "lookup"),
                (oracles, "_gather_source"),
            ],
        )
        x = InputString(8, 2, (0, 0, 0, 1, 0, 0, 0, 0))
        value = exact_success(grover_unique_or(8, 2).algorithm, x, 1, 2)
        assert value == pytest.approx(1 / 8, abs=1e-9)
        # 7120 maps compose x to 256 tables; every map still reads and queries
        assert counts == {
            "__init__": 256,
            "_gather_source": 512,
            "lookup": 14_232,
            "apply_tensor": 64_080,
        }


class TestEstimateSuccessSharesOracles:
    def test_one_oracle_per_distinct_table(self, monkeypatch):
        counts = count_calls(
            monkeypatch,
            [
                (StandardOracle, "__init__"),
                (StandardOracle, "apply_tensor"),
                (ClassicalOracle, "lookup"),
                (compiler, "oracle_from_partial"),
                (compiler, "sample_small_range"),
            ],
        )
        x = InputString(4, 2, (0, 1, 1, 0))
        est = estimate_success(deutsch_jozsa(4).algorithm, x, 1, 4, 2000, np.random.default_rng(14))
        tables = {composed_table(x, t.sampled_C) for t in est.results}
        assert len(tables) <= 16
        # every trial still samples, reads, composes and runs three passes
        assert counts == {
            "__init__": len(tables),
            "apply_tensor": 6000,
            "lookup": sum(t.classical_queries_used for t in est.results),
            "oracle_from_partial": 2000,
            "sample_small_range": 2000,
        }

    @pytest.mark.parametrize(
        "entry, x, trials, built",
        [
            (grover_unique_or(16, 3), InputString(16, 2, (0,) * 5 + (1,) + (0,) * 10), 10, 10),
            (deutsch_jozsa(4), InputString(4, 2, (0, 1, 1, 0)), 15, 15),
            (deutsch_jozsa(4), InputString(4, 2, (0, 1, 1, 0)), 16, None),
        ],
        ids=["grover-16", "dj-below-M^n", "dj-at-M^n"],
    )
    def test_shared_only_when_tables_cannot_outnumber_trials(
        self, monkeypatch, entry, x, trials, built
    ):
        counts = count_calls(monkeypatch, [(StandardOracle, "__init__")])
        est = estimate_success(entry.algorithm, x, 1, 4, trials, np.random.default_rng(15))
        if built is None:  # M^n <= trials: one oracle per distinct table
            built = len({composed_table(x, t.sampled_C) for t in est.results})
            assert built < trials
        assert counts["__init__"] == built

    @pytest.mark.parametrize("trials", [16, 300])
    def test_trial_replays_alone(self, trials):
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (1, 0, 0, 1))
        est = estimate_success(entry.algorithm, x, 1, 3, trials, np.random.default_rng(16))
        replayed = [compile_and_run_once(entry.algorithm, x, 3, seed=t.seed) for t in est.results]
        assert replayed == list(est.results)

    @pytest.mark.parametrize("seed", [0, 1, 2**63 - 1])
    def test_trial_generator_draws_the_default_rng_stream(self, seed):
        fast, reference = np.random.Generator(np.random.PCG64(seed)), np.random.default_rng(seed)
        assert fast.bit_generator.state == reference.bit_generator.state
        bounds = np.array([4] * 8 + [8, 7, 6, 5])
        for _ in range(20):
            assert fast.integers(0, bounds).tolist() == reference.integers(0, bounds).tolist()
        assert fast.random(50).tolist() == reference.random(50).tolist()

    def test_bulk_states_equal_numpy_seeding(self):
        edges = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]
        seeds = edges + np.random.default_rng(2024).integers(0, 2**63, size=10**4).tolist()
        assert state_dicts(seeds) == [np.random.PCG64(s).state for s in seeds]

    @pytest.mark.parametrize("trials", [1, 17, 600])
    def test_one_job_builds_at_most_one_generator(self, monkeypatch, trials):
        built = []
        pcg64 = np.random.PCG64

        def counting(*args, **kwargs):
            built.append(args)
            return pcg64(*args, **kwargs)

        monkeypatch.setattr(np.random, "PCG64", counting)
        x = InputString(4, 2, (0, 1, 1, 0))
        est = estimate_success(deutsch_jozsa(4).algorithm, x, 1, 4, trials, np.random.default_rng(3))
        assert len(est.results) == trials
        assert built == []  # none at all: the bulk pass makes every trial's draws

    def test_draws_need_their_seed(self):
        x = InputString(4, 2, (0, 1, 1, 0))
        draws = numpy_draws(SmallRangeParams(4, 2), 5)
        with pytest.raises(ValueError, match="seed"):
            compile_and_run_once(deutsch_jozsa(4).algorithm, x, 2, draws=draws)
        passed = compile_and_run_once(deutsch_jozsa(4).algorithm, x, 2, seed=5, draws=draws)
        assert passed == compile_and_run_once(deutsch_jozsa(4).algorithm, x, 2, seed=5)


def state_dicts(seeds):
    """`PCG64(s).state` for each seed, from the vectorized seeding pass."""
    (state_high, state_low), (inc_high, inc_low) = compiler._pcg64_states(seeds)
    columns = (a.tolist() for a in (state_high, state_low, inc_high, inc_low))
    return [
        {
            "bit_generator": "PCG64",
            "state": {"state": sh << 64 | sl, "inc": ih << 64 | il},
            "has_uint32": 0,
            "uinteger": 0,
        }
        for sh, sl, ih, il in zip(*columns)
    ]


def numpy_draws(params, seed):
    """A trial's (row, uniform) as numpy draws them: `integers(0, bounds)`, then `random()`."""
    bounds = [params.r] * params.n + list(range(params.n, params.n - params.r, -1))
    rng = np.random.default_rng(seed)
    return rng.integers(0, bounds).tolist(), rng.random()


def rejecting_state(inc):
    """A PCG64 (state, inc) whose next state has equal halves, so its next output is 0."""
    after = (7 << 64) | 7
    return (after - inc) * pow(compiler._PCG64_MULT, -1, 2**128) % 2**128, inc


class TestTrialDraws:
    EDGES = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]

    @pytest.mark.parametrize(
        "n, r", [(4, 4), (7, 3), (16, 4), (5, 1), (1, 1), (2, 2), (3, 2)],
        ids=["dj-4-4", "7-3", "16-4", "5-1", "1-1", "2-2", "3-2"],
    )  # fmt: skip
    def test_equal_numpy_draws(self, n, r):
        # r = n ends the row with a bound of 1, which draws nothing; (4, 4)
        # draws an odd number of 32-bit halves, so random() skips a buffered one
        params = SmallRangeParams(n, r)
        count = 10**4 if (n, r) in ((4, 4), (7, 3)) else 700
        drawn = np.random.default_rng(n * 31 + r).integers(0, 2**63, size=count).tolist()
        seeds = self.EDGES + drawn
        got = list(compiler._trial_draws(params, np.array(seeds)))
        assert got == [numpy_draws(params, s) for s in seeds]

    def test_long_jump_ahead(self):
        params = SmallRangeParams(2048, 2048)
        seeds = [0, 2**63 - 1, 91]
        got = list(compiler._trial_draws(params, np.array(seeds)))
        assert got == [numpy_draws(params, s) for s in seeds]

    @pytest.mark.parametrize("trials", [1, 511, 512, 513, 3 * 512 + 5])
    def test_partial_blocks(self, trials):
        # 4096 row ints hold 512 DJ n=4 r=4 rows
        params = SmallRangeParams(4, 4)
        seeds = np.random.default_rng(trials).integers(0, 2**63, size=trials)
        got = list(compiler._trial_draws(params, seeds))
        assert got == [numpy_draws(params, s) for s in seeds.tolist()]

    def test_blocks_stay_within_block_ints(self, monkeypatch):
        widths = []
        xsl_rr = compiler._xsl_rr

        def recording(high, low):
            widths.append(high.shape[1])
            return xsl_rr(high, low)

        monkeypatch.setattr(compiler, "_xsl_rr", recording)
        seeds = np.arange(2000)
        assert len(list(compiler._trial_draws(SmallRangeParams(4, 4), seeds))) == 2000
        assert widths == [512, 512, 512, 464]

    def test_rejected_lane_is_flagged_and_replayed(self, monkeypatch):
        # at bound 3, Lemire rejects exactly the 32-bit half 0; the crafted
        # lane's first output is 0, so its first draw would be rejected
        seeds = np.random.default_rng(19).integers(0, 2**63, size=40)
        lane = 13
        states = compiler._pcg64_states(seeds)
        inc = states[1][0][lane].item() << 64 | states[1][1][lane].item()
        state, _ = rejecting_state(inc)
        states[0][0][lane], states[0][1][lane] = state >> 64, state & (2**64 - 1)
        params = SmallRangeParams(4, 3)

        crafted = np.random.Generator(np.random.PCG64(0))
        crafted.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        assert crafted.integers(0, 2**32, dtype=np.uint64) == 0
        monkeypatch.setattr(compiler, "_pcg64_states", lambda _: states)
        draws = list(compiler._trial_draws(params, seeds))
        assert [k for k, d in enumerate(draws) if d is None] == [lane]

        x = InputString(4, 2, (0, 1, 1, 0))
        alg = amplify_majority3(deutsch_jozsa(4).algorithm)
        trials = compiler._run_trials(alg, x, 3, seeds)
        monkeypatch.undo()
        assert trials == [compile_and_run_once(alg, x, 3, seed=s) for s in seeds.tolist()]


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
        assert x.M**x.n <= trials  # the trials share oracles
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
        est = estimate_success(entry.algorithm, x, 1, r, trials, np.random.default_rng(17))
        monkeypatch.undo()
        assert len(looked) == trials
        off_image_differs = 0
        shared_x, shared_y = {}, {}
        for trial, indices in zip(est.results, looked):
            cells = image(trial.sampled_C)
            assert set(indices) <= cells
            assert len(indices) == len(cells) == trial.classical_queries_used
            # y agrees with x on the image and differs from it everywhere else
            y = InputString(
                x.n, x.M, tuple(v if i in cells else 1 - v for i, v in enumerate(x.values))
            )
            off_image_differs += y != x
            assert compiled_distribution(entry.algorithm, y, trial.sampled_C, shared_y) == (
                compiled_distribution(entry.algorithm, x, trial.sampled_C, shared_x)
            )
        assert off_image_differs > 0


class TestGadgetRewrite:
    def test_rewritten_run_equals_direct(self):
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (0, 1, 1, 0))
        g = IndexFunction(4, (1, 0, 3, 3))
        rewritten, anc = with_gadget_ancilla(entry.algorithm, 4)
        assert anc == 2
        comp = ComposedOracle(standard_oracle(x), standard_oracle(g), anc)
        via_gadget = run(rewritten, comp)
        direct = run(entry.algorithm, standard_oracle(compose_input(x, g)))
        assert via_gadget[1] == pytest.approx(direct[1], abs=1e-12)

    def test_amplified_rewrite_counts_six_q(self):
        entry = deutsch_jozsa(4)
        x = InputString(4, 2, (0, 1, 1, 0))
        g = IndexFunction(4, (2, 2, 1, 0))
        rewritten, anc = with_gadget_ancilla(amplify_majority3(entry.algorithm), 4)
        comp = ComposedOracle(standard_oracle(x), standard_oracle(g), anc)
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
