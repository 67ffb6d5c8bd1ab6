"""Acceptance suite: one test per release criterion, each printing a
PASS line once its assertions at the stated tolerances have run."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from qsymlab import cli
from qsymlab.compiler import (
    amplify_majority3,
    compile_and_run_once,
    compiled_distribution,
    estimate_success,
    exact_success,
    majority3_prob,
)
from qsymlab.core import (
    BooleanFunctionTable,
    IndexFunction,
    InputString,
    compose_input,
    first_type_asymmetry_witness,
)
from qsymlab.distributions import (
    SmallRangeParams,
    enumerate_small_range_support,
    sample_small_range,
    stream_rows,
    stream_seeds,
)
from qsymlab.oracles import ComposedOracle, StandardOracle
from qsymlab.statevector import RegisterLayout, basis_state, run
from qsymlab.zoo import collision_sniffer, deutsch_jozsa, fourier_matrix, zero_query_probe
from qsymlab.statevector import OutputRule, QueryAlgorithm, Unitary


def report(criterion, text):
    print(f"\n[criterion {criterion}] {text}: PASS")


def test_criterion_1_gadget_exactness():
    n, m = 4, 3
    layout = RegisterLayout((n, m, n))
    rng = np.random.default_rng(2024)
    cases = []
    for values in itertools.permutations(range(n)):  # 24 permutations as maps
        cases.append((InputString(n, m, (0, 1, 2, 0)), IndexFunction(n, values)))
    for c in range(n):  # constants, both table roles stressed
        cases.append((InputString(n, m, (2, 2, 2, 2)), IndexFunction(n, (c,) * n)))
        cases.append((InputString(n, m, (0, 1, 2, 1)), IndexFunction(n, (c,) * n)))
    for shift in range(n):
        rolled = tuple((i + shift) % n for i in range(n))
        cases.append((InputString(n, m, (1, 0, 2, 2)), IndexFunction(n, rolled)))
    cases.extend(
        (InputString(n, m, (0, 0, 0, 0)), IndexFunction(n, (3, 1, 0, 2)))
        for _ in range(50 - len(cases))
    )
    assert len(cases) == 50
    for _ in range(1000):
        x = InputString(n, m, tuple(rng.integers(0, m, size=n)))
        g = IndexFunction(n, tuple(rng.integers(0, n, size=n)))
        cases.append((x, g))

    anc_zero_cols = [
        int(np.ravel_multi_index((i, j, 0), layout.dims)) for i in range(n) for j in range(m)
    ]
    worst = 0.0
    for x, g in cases:
        gadget = ComposedOracle(StandardOracle(x), StandardOracle(g), 2)
        expected = np.kron(StandardOracle(compose_input(x, g)).matrix(), np.eye(n))
        for col in anc_zero_cols:
            start = basis_state(layout, np.unravel_index(col, layout.dims))
            got = gadget.apply_tensor(start, 0, 1).reshape(-1)
            worst = max(worst, float(np.max(np.abs(got - expected[:, col]))))
    assert worst <= 1e-12

    single = ComposedOracle(
        StandardOracle(InputString(n, m, (0, 1, 2, 0))),
        StandardOracle(IndexFunction(n, (1, 1, 3, 3))),
        2,
    )
    single.apply_tensor(basis_state(layout, (0, 0, 0)), 0, 1)
    assert single.query_counts == {"x_queries": 1, "g_queries": 2}
    report(1, "gadget matches the rebuilt-table oracle on 1050 pairs at 1e-12")


def test_criterion_2_amplification():
    assert majority3_prob(Fraction(2, 3)) == Fraction(20, 27)
    base = QueryAlgorithm(
        layout=RegisterLayout((3,)),
        steps=(Unitary(fourier_matrix(3), (0,)),),
        output_rule=OutputRule((0,), frozenset({(0,), (1,)})),
    )
    assert run(base)[1] == pytest.approx(2 / 3, abs=1e-12)
    amplified_success = run(amplify_majority3(base))[1]
    assert abs(amplified_success - 20 / 27) <= 1e-9
    report(2, "majority-of-three lifts an exact 2/3 to 20/27")


def test_criterion_3_permutation_invariance():
    entry = deutsch_jozsa(4)
    f = entry.function
    for key in sorted(f.outputs):
        x = InputString(4, 2, key)
        for values in itertools.permutations(range(4)):
            pi = IndexFunction(4, values)
            moved = compose_input(x, pi)
            assert moved in f and f.value(moved) == f.value(x)
            dist = run(entry.algorithm, StandardOracle(moved))
            assert dist[f.value(moved)] == pytest.approx(1.0, abs=1e-9)

    asym = BooleanFunctionTable(2, 2, {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 1})
    witness = first_type_asymmetry_witness(asym)
    assert witness is not None
    x, pi = witness
    moved = compose_input(x, pi)
    assert moved not in asym or asym.value(moved) != asym.value(x)
    report(3, "24 permutations preserve the answer; asymmetry yields a witness")


def test_criterion_4_small_range_distribution():
    params = SmallRangeParams(16, 4)
    for draws, _ in stream_rows(params.bounds, stream_seeds(99, 10_000)):
        assert len(set(IndexFunction(16, sample_small_range(params, draws)).values)) <= 4

    support = enumerate_small_range_support(SmallRangeParams(2, 2))
    assert support.probability_of(IndexFunction.identity(2)) == Fraction(1, 4)
    non_injective = sum(
        (
            p
            for block, p in support.blocks()
            for row in block.tolist()
            if len(set(IndexFunction(2, row).values)) < 2
        ),
        Fraction(0),
    )
    assert non_injective == Fraction(1, 2)

    small = SmallRangeParams(3, 2)
    exact = enumerate_small_range_support(small)
    draws = 100_000
    counts: dict[tuple[int, ...], int] = {}
    for row, _ in stream_rows(small.bounds, stream_seeds(7, draws)):
        key = sample_small_range(small, row)
        counts[key] = counts.get(key, 0) + 1
    for block, prob in exact.blocks():
        p = float(prob)
        sigma = math.sqrt(p * (1 - p) / draws)
        for values in map(tuple, block.tolist()):
            assert abs(counts.get(values, 0) / draws - p) <= 4 * sigma
    report(4, "image bounds hold; enumerator masses exact; sampler within 4 sigma")


class TrappingTable(BooleanFunctionTable):
    """Function table that records every lookup for off-domain policing."""

    def __init__(self, base: BooleanFunctionTable):
        super().__init__(base.n, base.M, base.outputs)
        object.__setattr__(self, "lookups", [])

    def value(self, x: InputString) -> int:
        self.lookups.append(x.values)
        if x.values not in self.outputs:
            raise AssertionError(f"function consulted off-domain at {x.values}")
        return super().value(x)


def test_criterion_5_compiler_exactness():
    entry = deutsch_jozsa(4)
    trapped = TrappingTable(entry.function)
    x = InputString(4, 2, (0, 1, 0, 1))
    expected_bit = trapped.value(x)

    for c_values in itertools.product(range(4), repeat=4):
        if sum(c_values) % 3:  # thin the 256 maps, keep variety
            continue
        fixed = IndexFunction(4, c_values)
        dist, used = compiled_distribution(entry.algorithm, x, fixed.values)
        direct = run(
            amplify_majority3(entry.algorithm),
            StandardOracle(compose_input(x, fixed)),
        )
        assert dist == direct  # bit-identical floats, same arithmetic path
        assert used == len(set(fixed.values))

    for seed in stream_seeds(5, 200).tolist():
        result = compile_and_run_once(entry.algorithm, x, 2, seed=seed)
        assert result.classical_queries_used <= 2
        assert result.output_bit in (0, 1)

    assert trapped.lookups == [x.values]
    report(5, "fixed-map runs are bit-identical; lookups bounded; f touched only at x")


def test_criterion_6_end_to_end_pipeline():
    entry = deutsch_jozsa(4)

    constant = InputString(4, 2, (1, 1, 1, 1))
    for r in (1, 3):
        assert exact_success(entry.algorithm, constant, 0, r) == pytest.approx(1.0, abs=1e-9)
    est_const = estimate_success(entry.algorithm, constant, 0, 2, 1000, 11)
    assert est_const.estimate == 1.0

    balanced = InputString(4, 2, (0, 0, 1, 1))
    exact = exact_success(entry.algorithm, balanced, 1, 4)
    assert exact == pytest.approx(51 / 64, abs=1e-9)  # frozen regression constant
    est = estimate_success(entry.algorithm, balanced, 1, 4, 10_000, 12)
    sigma = math.sqrt(exact * (1 - exact) / 10_000)
    assert abs(est.estimate - exact) <= 4 * sigma
    assert all(t.classical_queries_used <= 4 for t in est.results)
    report(6, "constant compiles to success 1; balanced matches 51/64 within 4 sigma")


def test_criterion_7_distinguisher_sanity(tmp_path):
    from qsymlab.disting import advantage_exact, advantage_monte_carlo

    zero = zero_query_probe(8)
    assert advantage_exact(zero.algorithm, 8, [1])[0].advantage == 0.0
    assert advantage_exact(zero_query_probe(4).algorithm, 4, [4])[0].advantage == 0.0
    # full-range support at n=8 is not enumerable; sampling is still exact
    # for a 0-query circuit because every per-oracle probability coincides
    mc_zero = advantage_monte_carlo(zero.algorithm, 8, 8, 200, 44)
    assert mc_zero.advantage == 0.0

    probe = collision_sniffer(4)
    exact = advantage_exact(probe.algorithm, 4, [2], algorithm_id=probe.id)[0]
    sampled = advantage_monte_carlo(
        probe.algorithm, 4, 2, 3000, 13, algorithm_id=probe.id
    )
    se = (sampled.ci_high - sampled.ci_low) / (2 * 1.959963984540054)
    assert abs(sampled.advantage - exact.advantage) <= max(4 * se, 1e-12)
    assert 0.0 <= sampled.advantage <= 1.0
    assert 0.0 <= exact.advantage <= 1.0

    path = tmp_path / "advantage_curve.csv"
    curve_args = [
        "distinguish",
        "--algo", "collision-sniffer",
        "--n", "16",
        "--r-list", "1,2,4,8,16",
        "--samples", "300",
        "--seed", "14",
        "--csv", str(path),
    ]
    assert cli.main(curve_args) == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 6  # header + one row per r, reported not asserted
    assert all(0.0 <= float(line.split(",")[3]) <= 1.0 for line in lines[1:])
    report(7, "zero-query advantage 0; exact/MC agree; n=16 curve emitted as CSV")


def test_criterion_8_reproducibility(tmp_path):
    def payload(path):
        with open(path) as fh:
            return json.dumps(json.load(fh)["results"], sort_keys=True).encode()

    run_args = [
        "compile-run",
        "--zoo", "dj",
        "--n", "4",
        "--input", "random-promise",
        "--r", "4",
        "--trials", "300",
        "--seed", "31",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(run_args + ["--out", str(a)]) == 0
    assert cli.main(run_args + ["--out", str(b)]) == 0
    assert payload(a) == payload(b)

    dist_args = [
        "distinguish",
        "--algo", "collision-sniffer",
        "--n", "8",
        "--r-list", "1,4,8",
        "--samples", "100",
        "--seed", "32",
    ]
    c, d = tmp_path / "c.json", tmp_path / "d.json"
    assert cli.main(dist_args + ["--out", str(c)]) == 0
    assert cli.main(dist_args + ["--out", str(d)]) == 0
    assert payload(c) == payload(d)
    report(8, "identical seeds give byte-identical results payloads")
