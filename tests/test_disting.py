import csv
import dataclasses
import itertools
import math
import operator
import tracemalloc

import numpy as np
import pytest

from qsymlab import cli, compiler, disting, distributions, oracles
from qsymlab.compiler import Z_95, compile_and_run_once
from qsymlab.core import IndexFunction, InputString
from qsymlab.disting import AdvantageReport, advantage_exact, advantage_monte_carlo, sweep_r
from qsymlab.distributions import (
    SmallRangeParams,
    enumerate_small_range_support,
    sample_permutation,
    sample_small_range,
    stream_rows,
    stream_seeds,
)
from qsymlab.statevector import run
from qsymlab.zoo import collision_sniffer, deutsch_jozsa, zero_query_probe


class TestAdvantageExact:
    def test_zero_query_is_exactly_zero(self):
        probe = zero_query_probe(4)
        report = advantage_exact(probe.algorithm, 4, 2, algorithm_id=probe.id)
        assert report.advantage == 0.0

    def test_constant_output_rule_is_zero(self):
        # the zero-query probe outputs 1 on every oracle, so both sides agree
        probe = zero_query_probe(4)
        report = advantage_exact(probe.algorithm, 4, 2)
        assert report.perm_prob[1] == report.smallrange_prob[1] == pytest.approx(1.0, abs=1e-12)
        assert report.advantage == 0.0

    def test_sniffer_regression_value(self):
        # permutations: 1/n = 1/4; image-2 maps: E[k^2 + (n-k)^2]/n^2 = 5/8
        probe = collision_sniffer(4)
        report = advantage_exact(probe.algorithm, 4, 2, algorithm_id=probe.id)
        assert report.perm_prob[1] == pytest.approx(0.25, abs=1e-12)
        assert report.smallrange_prob[1] == pytest.approx(0.625, abs=1e-12)
        assert report.advantage == pytest.approx(0.375, abs=1e-12)

    def test_full_range_still_distinguishable(self):
        probe = collision_sniffer(4)
        report = advantage_exact(probe.algorithm, 4, 4)
        assert report.advantage > 0.1

    def test_deterministic_and_seedless(self):
        probe = collision_sniffer(4)
        a = advantage_exact(probe.algorithm, 4, 2)
        b = advantage_exact(probe.algorithm, 4, 2)
        assert a == b
        assert a.seed is None

    def test_per_bit_magnitudes_coincide(self):
        probe = collision_sniffer(4)
        rep = advantage_exact(probe.algorithm, 4, 3)
        diff1 = abs(rep.perm_prob[1] - rep.smallrange_prob[1])
        diff0 = abs(rep.perm_prob[0] - rep.smallrange_prob[0])
        assert diff1 == diff0

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setenv("QSYMLAB_BUDGET", "5")
        probe = collision_sniffer(4)
        with pytest.raises(ValueError, match="budget"):
            advantage_exact(probe.algorithm, 4, 2)

    def test_over_budget_support_fails_before_simulating(self, monkeypatch):
        # 4! = 24 permutations fit in 100, the 424 maps of image size <= 3 do not
        monkeypatch.setenv("QSYMLAB_BUDGET", "100")
        calls = []
        monkeypatch.setattr(disting, "run", lambda *args: calls.append(args) or {0: 0.0, 1: 1.0})
        probe = collision_sniffer(4)
        with pytest.raises(ValueError, match="budget"):
            advantage_exact(probe.algorithm, 4, 3)
        assert calls == []

    def test_full_range_within_small_budget(self, monkeypatch):
        # r = n = 4 visits 680 maps (6,144 map-injection pairs); E[sum of
        # squared preimage sizes]/n^2 is 7/16 against 1/4 for permutations
        monkeypatch.setenv("QSYMLAB_BUDGET", "1000")
        probe = collision_sniffer(4)
        report = advantage_exact(probe.algorithm, 4, 4)
        assert report.smallrange_prob[1] == pytest.approx(7 / 16, abs=1e-12)
        assert report.advantage == pytest.approx(3 / 16, abs=1e-12)


class TestAdvantageMonteCarlo:
    def test_matches_exact_within_four_sigma(self):
        probe = collision_sniffer(4)
        exact = advantage_exact(probe.algorithm, 4, 2)
        sampled = advantage_monte_carlo(probe.algorithm, 4, 2, 3000, 11)
        se = (sampled.ci_high - sampled.ci_low) / (2 * 1.959963984540054)
        assert abs(sampled.advantage - exact.advantage) <= max(4 * se, 1e-12)

    def test_in_unit_interval(self):
        probe = collision_sniffer(8)
        for r in (1, 4, 8):
            rep = advantage_monte_carlo(probe.algorithm, 8, r, 100, 12)
            assert 0.0 <= rep.advantage <= 1.0
            assert 0.0 <= rep.ci_low <= rep.ci_high <= 1.0

    def test_seed_recorded_and_reproducible(self):
        probe = collision_sniffer(4)
        a = advantage_monte_carlo(probe.algorithm, 4, 2, 50, 13)
        b = advantage_monte_carlo(probe.algorithm, 4, 2, 50, 13)
        assert a == b
        assert a.seed == 13

    def test_one_sample_collapses_the_interval(self):
        probe = collision_sniffer(4)
        rep = advantage_monte_carlo(probe.algorithm, 4, 2, 1, 16)
        assert rep.samples == 1
        assert rep.ci_low == rep.ci_high == rep.advantage

    def test_zero_query_sampled_is_zero(self):
        probe = zero_query_probe(6)
        rep = advantage_monte_carlo(probe.algorithm, 6, 3, 40, 14)
        assert rep.advantage == 0.0

    def test_each_row_comes_from_its_own_seed(self):
        n, r, samples = 16, 4, 300
        probe = collision_sniffer(n)
        report = advantage_monte_carlo(probe.algorithm, n, r, samples, 15)
        assert report.seed == 15
        assert advantage_monte_carlo(probe.algorithm, n, r, samples, report.seed) == report

        # row i of each side drawn alone: words i and samples + i of the report's stream
        row_seeds = stream_seeds(report.seed, 2 * samples).tolist()
        params = SmallRangeParams(n, r)

        def p_one(index_map):
            return run(probe.algorithm, oracles.StandardOracle(index_map))[1]

        def alone(bounds, seed):
            return next(stream_rows(bounds, [seed]))[0]

        perm_vals = [
            p_one(IndexFunction(n, sample_permutation(n, alone(range(n, 0, -1), s))))
            for s in row_seeds[:samples]
        ]
        small_vals = [
            p_one(IndexFunction(n, sample_small_range(params, alone(params.bounds, s))))
            for s in row_seeds[samples:]
        ]
        assert report.perm_prob[1] == float(np.array(perm_vals).mean())
        assert report.smallrange_prob[1] == float(np.array(small_vals).mean())


def naive_p_one(algorithm, g):
    return run(algorithm, oracles.StandardOracle(g))[1]


def naive_exact_report(algorithm, n, r):
    """advantage_exact as a plain loop: a checked map and a fresh oracle per
    simulation, over every permutation and every map of [n] into [n]."""
    p_perm = math.fsum(
        naive_p_one(algorithm, IndexFunction(n, p)) for p in itertools.permutations(range(n))
    ) / math.factorial(n)
    support = enumerate_small_range_support(SmallRangeParams(n, r))
    # fsum rounds correctly, so the order of the terms does not matter; maps of
    # image size above r have mass 0
    p_small = math.fsum(
        float(support.probability_of(g)) * naive_p_one(algorithm, g)
        for g in (IndexFunction(n, values) for values in itertools.product(range(n), repeat=n))
    )
    adv = abs(p_perm - p_small)
    return AdvantageReport(n, r, "s", "exact", p_perm, p_small, None, adv, adv, None)


def naive_monte_carlo_report(algorithm, n, r, samples, seed):
    """advantage_monte_carlo as a plain loop: one sampled map and a fresh oracle per row."""
    params = SmallRangeParams(n, r)
    row_seeds = stream_seeds(seed, 2 * samples)
    perm_vals = np.array(
        [
            naive_p_one(algorithm, IndexFunction(n, sample_permutation(n, swaps)))
            for swaps, _ in stream_rows(range(n, 0, -1), row_seeds[:samples])
        ]
    )
    small_vals = np.array(
        [
            naive_p_one(algorithm, IndexFunction(n, sample_small_range(params, draws)))
            for draws, _ in stream_rows(params.bounds, row_seeds[samples:])
        ]
    )
    p_perm, p_small = float(perm_vals.mean()), float(small_vals.mean())
    se = math.sqrt(perm_vals.var(ddof=1) / samples + small_vals.var(ddof=1) / samples)
    adv = abs(p_perm - p_small)
    ci = (max(0.0, adv - Z_95 * se), min(1.0, adv + Z_95 * se))
    return AdvantageReport(n, r, "s", "monte-carlo", p_perm, p_small, samples, *ci, seed)


class TestBlockSweepsEqualNaiveLoops:
    # the default blocks (256 maps at n=4, 163 at n=5) and blocks of 6 and 4 maps
    @pytest.fixture(params=[None, 100], ids=["default-blocks", "small-blocks"])
    def block_ints(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(disting, "_BLOCK_INTS", request.param)

    @pytest.mark.parametrize("n, r_values", [(4, [3, 1, 4, 2]), (5, [2, 5, 3])])
    def test_exact_sweep(self, block_ints, n, r_values):
        for probe in (collision_sniffer(n), zero_query_probe(n)):
            reports = sweep_r(
                probe.algorithm, n, r_values, None, None, exact=True, algorithm_id="s"
            )
            naive = [naive_exact_report(probe.algorithm, n, r) for r in r_values]
            assert [dataclasses.asdict(rep) for rep in reports] == [
                dataclasses.asdict(rep) for rep in naive
            ]

    @pytest.mark.parametrize("n, r_values", [(4, [3, 1, 4]), (5, [2, 5])])
    def test_monte_carlo_sweep(self, block_ints, n, r_values):
        samples, seed = 400, 21
        probe = collision_sniffer(n)
        reports = sweep_r(probe.algorithm, n, r_values, samples, seed, algorithm_id="s")
        naive = [
            naive_monte_carlo_report(probe.algorithm, n, r, samples, s)
            for r, s in zip(r_values, stream_seeds(seed, len(r_values)).tolist())
        ]
        assert [dataclasses.asdict(rep) for rep in reports] == [
            dataclasses.asdict(rep) for rep in naive
        ]

    def test_exact_sweep_holds_one_block_not_the_support(self):
        # the 11,736 maps of image size <= 3 as oracles would take several MB,
        # and as one array of blocks over 0.5 MB; a block of 113 takes about 0.1 MB
        probe = collision_sniffer(6)
        tracemalloc.start()
        try:
            report = advantage_exact(probe.algorithm, 6, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.advantage == pytest.approx(5 / 18, abs=1e-12)
        assert peak < 2**19


class TestSampledMapsCheckedOnce:
    """A sampler returns bare values; the block that holds them checks them."""

    def test_an_out_of_range_cell_fails_in_its_holder(self, monkeypatch):
        # every sampled cell becomes n, one past the last index
        monkeypatch.setattr(distributions, "_injection_prefix", lambda n, swaps: [n] * len(swaps))
        assert sample_permutation(4, [0, 0, 0, 0]) == (4, 4, 4, 4)
        assert sample_small_range(SmallRangeParams(4, 2), [0] * 6) == (4, 4, 4, 4)

        probe = collision_sniffer(4)
        with pytest.raises(ValueError, match=r"entry 4 outside \[0, 4\)") as raised:
            advantage_monte_carlo(probe.algorithm, 4, 2, 10, 0)
        assert raised.traceback[-1].name == "index_map_block"

        # a compiled trial's block sampler makes every cell n
        monkeypatch.setattr(
            compiler, "sample_small_range_block", lambda params, draws: np.full((len(draws), 4), 4)
        )
        x = InputString(4, 2, (0, 1, 1, 0))
        with pytest.raises(ValueError, match=r"entry 4 outside \[0, 4\)") as raised:
            compile_and_run_once(deutsch_jozsa(4).algorithm, x, 2, seed=0)
        assert raised.traceback[-1].name == "index_map_block"
        assert "__post_init__" not in [entry.name for entry in raised.traceback]

    def test_sampled_sweep_checks_each_block_once_and_builds_no_index_function(self, count_calls):
        counts = count_calls(
            [
                (disting, "sample_permutation"),
                (disting, "sample_small_range"),
                (disting, "index_map_block"),
                (disting, "run"),
                (IndexFunction, "__post_init__"),
            ],
        )
        n, r_values, samples = 16, [1, 4], 40
        probe = collision_sniffer(n)
        # a stack holds 2^16 source ints per call: 256 rows of 256 amplitudes
        assert disting._STACK_INTS // probe.algorithm.layout.total_dim == 256
        sweep_r(probe.algorithm, n, r_values, samples, 3)
        # each side of each r: one sampler call and one run per row, and its
        # 40 rows checked as one stack; no `__post_init__`
        # entry, so no `IndexFunction` was built
        assert counts == {
            "sample_permutation": 2 * samples,
            "sample_small_range": 2 * samples,
            "index_map_block": 2 * 2 * 1,
            "run": 2 * 2 * samples,
        }

    @pytest.mark.parametrize(
        "stack_ints, stacks",
        [
            # 256 rows of 256 amplitudes a stack: each side's 300 rows, in stream
            # blocks of 256 and 44 (permutations) or 204 and 96 (20 draws a row)
            (None, [256, 44, 256, 44]),
            # stacks of 100 rows cross the stream blocks of both sides
            (100 * 256, [100, 100, 100, 100, 100, 100]),
        ],
        ids=["default-stacks", "stacks-of-100"],
    )
    def test_stacks_cross_stream_blocks(self, monkeypatch, stack_ints, stacks):
        if stack_ints is not None:
            monkeypatch.setattr(disting, "_STACK_INTS", stack_ints)
        checked, built = [], []
        check, build = disting.index_map_block, disting.index_map_oracles
        monkeypatch.setattr(
            disting, "index_map_block", lambda n, rows: checked.append(len(rows)) or check(n, rows)
        )
        monkeypatch.setattr(
            disting, "index_map_oracles", lambda block: built.append(len(block)) or build(block)
        )
        n, r, samples, seed = 16, 4, 300, 8
        probe = collision_sniffer(n)
        report = advantage_monte_carlo(probe.algorithm, n, r, samples, seed, algorithm_id="s")
        # one check per stack of _STACK_INTS // N rows, each checked block built as one stack
        assert checked == built == stacks
        assert report == naive_monte_carlo_report(probe.algorithm, n, r, samples, seed)


class TestSweep:
    def test_empty_r_list(self):
        probe = collision_sniffer(4)
        assert sweep_r(probe.algorithm, 4, [], 10, 0) == []
        assert sweep_r(probe.algorithm, 4, [], None, None, exact=True) == []

    def test_exact_sweep_builds_the_permutation_oracles_once(self, monkeypatch):
        built = []
        original = disting.index_map_oracles

        def recording(*args):
            block_oracles = original(*args)
            built.extend(block_oracles)
            return block_oracles

        monkeypatch.setattr(disting, "index_map_oracles", recording)
        runs = []
        monkeypatch.setattr(disting, "run", lambda *args: runs.append(args) or run(*args))
        probe = collision_sniffer(4)
        reports = sweep_r(probe.algorithm, 4, [3, 1, 2], None, None, exact=True)
        # 4! permutations once, then the 232, 4 and 88 maps of image size <= 3, 1, 2;
        # every r still simulates all 24 permutations, each on its one oracle
        assert len(built) == 24 + 232 + 4 + 88
        assert len(runs) == 3 * 24 + 232 + 4 + 88
        assert [id(oracle) for _, oracle in runs] == [
            id(oracle) for oracle in built[:24] for _ in range(3)
        ] + [id(oracle) for oracle in built[24:]]
        assert [rep.r for rep in reports] == [3, 1, 2]

    def test_exact_sweep_equals_per_r_reports(self):
        probe = collision_sniffer(4)
        reports = sweep_r(probe.algorithm, 4, [3, 1, 2], None, None, exact=True, algorithm_id="s")
        singles = [advantage_exact(probe.algorithm, 4, r, algorithm_id="s") for r in (3, 1, 2)]
        assert [dataclasses.asdict(rep) for rep in reports] == [
            dataclasses.asdict(rep) for rep in singles
        ]

    @pytest.mark.parametrize(
        "budget, message",
        [
            # 4! = 24 permutations do not fit
            ("23", "enumerating 4! permutations exceeds budget 23"),
            # they do, and r = 1, 2 visit 4 and 100 maps, but r = 3 visits 424
            ("100", "enumeration visits 424 maps, budget is 100"),
        ],
    )
    def test_over_budget_exact_sweep_fails_before_any_build(self, monkeypatch, budget, message):
        monkeypatch.setenv("QSYMLAB_BUDGET", budget)
        calls = []
        monkeypatch.setattr(disting, "run", lambda *args: calls.append(args))
        monkeypatch.setattr(disting, "index_map_oracles", lambda *args: calls.append(args))
        probe = collision_sniffer(4)
        with pytest.raises(ValueError, match=message):
            sweep_r(probe.algorithm, 4, [1, 2, 3], None, None, exact=True)
        assert calls == []

    def test_permutation_budget_never_computes_a_factorial_past_it(self, monkeypatch):
        # 11! = 39,916,800 is the first factorial past the default budget of 10^7
        monkeypatch.delenv("QSYMLAB_BUDGET", raising=False)
        monkeypatch.setattr(math, "factorial", lambda k: pytest.fail(f"{k}! was computed"))
        products = []
        mul = operator.mul
        monkeypatch.setattr(operator, "mul", lambda a, b: products.append(mul(a, b)) or products[-1])
        n = 2_000_000
        probe = zero_query_probe(n)
        with pytest.raises(ValueError, match=rf"^enumerating {n}! permutations exceeds budget 10000000"):
            sweep_r(probe.algorithm, n, [1], None, None, exact=True)
        assert [p for p in products if p > 10**7] == [39_916_800]

    def test_duplicates_warn_and_dedupe(self):
        probe = collision_sniffer(4)
        with pytest.warns(UserWarning, match="duplicate"):
            reports = sweep_r(probe.algorithm, 4, [2, 2, 3], 20, 1)
        assert [rep.r for rep in reports] == [2, 3]

    def test_report_k_is_seeded_by_word_k_and_replays(self):
        probe = collision_sniffer(4)
        reports = sweep_r(probe.algorithm, 4, [3, 1, 2], 40, 9, algorithm_id="s")
        assert [rep.seed for rep in reports] == stream_seeds(9, 3).tolist()
        for rep in reports:
            replay = advantage_monte_carlo(probe.algorithm, 4, rep.r, 40, rep.seed, algorithm_id="s")
            assert replay == rep

    @pytest.mark.parametrize("samples, seed, missing", [(None, 3, "samples"), (10, None, "seed")])
    def test_sampled_sweep_names_a_missing_argument(self, samples, seed, missing):
        probe = collision_sniffer(4)
        with pytest.raises(ValueError, match=f"^a sampled sweep needs {missing}$"):
            sweep_r(probe.algorithm, 4, [1, 2], samples, seed)

    def test_r_validated(self):
        probe = collision_sniffer(4)
        with pytest.raises(ValueError, match="outside"):
            sweep_r(probe.algorithm, 4, [0], 20, 2)

    def test_curve_at_sixteen(self):
        probe = collision_sniffer(16)
        reports = sweep_r(
            probe.algorithm, 16, [1, 2, 4, 8, 16], 150, 3
        )
        assert len(reports) == 5
        # r = 1 forces constant maps: the probe accepts them always, so the
        # gap to the 1/16 permutation rate is large
        assert reports[0].advantage > 0.5

    def test_csv_round_trip(self, tmp_path):
        # the CLI's CSV of a sweep reads back as the sweep's own reports
        probe = collision_sniffer(4)
        reports = sweep_r(probe.algorithm, 4, [1, 2], 30, 4)
        path = tmp_path / "curve.csv"
        code = cli.main(
            [
                "distinguish",
                "--algo", "collision-sniffer",
                "--n", "4",
                "--r-list", "1,2",
                "--samples", "30",
                "--seed", "4",
                "--out", str(tmp_path / "adv.json"),
                "--csv", str(path),
            ]
        )
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "r", "method", "adv", "ci_low", "ci_high", "samples", "seed"]
        assert len(rows) == 3
        assert [row[1] for row in rows[1:]] == ["1", "2"]
        for row, rep in zip(rows[1:], reports):
            assert (int(row[0]), int(row[1]), row[2]) == (rep.n, rep.r, rep.method)
            assert [float(v) for v in row[3:6]] == [rep.advantage, rep.ci_low, rep.ci_high]
            assert (int(row[6]), int(row[7])) == (rep.samples, rep.seed)
