"""Experiment runner: compiled-pipeline estimates, distinguishing sweeps, a
one-shot invariant suite, and the algorithm catalog.

Exit codes: 0 success, 1 failed property or assertion, 2 usage error.
Reports are JSON (plus CSV for curves); rerunning a command with the same
flags and seed reproduces the results payload byte for byte (timestamps
live outside the payload).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import __version__, compiler, core, disting, distributions, oracles, statevector, zoo

MAX_EMBEDDED_TRIALS = 10_000


@dataclass
class ExperimentReport:
    """Reproducible record: kind + parameter echo + seed determine results."""

    kind: str
    params: dict
    seed: int
    results: dict
    artifact_version: str = __version__
    created: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat())

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "artifact_version": self.artifact_version,
            "created": self.created,
            "params": self.params,
            "seed": self.seed,
            "results": self.results,
        }

    def payload_bytes(self) -> bytes:
        """Canonical bytes of the results payload, timestamps excluded."""
        return json.dumps(self.results, sort_keys=True).encode()


def _emit_report(report: ExperimentReport, out_path: str | None) -> None:
    text = json.dumps(report.to_json(), indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _parse_input_spec(spec: str, entry: zoo.ZooEntry, rng: np.random.Generator) -> core.InputString:
    n, M = entry.function.n, entry.function.M
    if spec == "random-promise":
        domain = sorted(entry.function.outputs)
        choice = domain[int(rng.integers(0, len(domain)))]
        return core.InputString(n, M, choice)
    if spec == "constant0":
        return core.InputString(n, M, (0,) * n)
    if spec == "constant1":
        return core.InputString(n, M, (1,) * n)
    if spec == "balanced":
        return core.InputString(n, M, (0,) * (n - n // 2) + (1,) * (n // 2))
    if spec.startswith("one-hot:"):
        i = int(spec.split(":", 1)[1])
        if not 0 <= i < n:
            raise ValueError(f"one-hot index {i} outside [0, {n})")
        values = [0] * n
        values[i] = 1
        return core.InputString(n, M, tuple(values))
    values = tuple(int(v) for v in spec.split(","))
    return core.InputString(n, M, values)


def _cmd_compile_run(args) -> int:
    rng = np.random.default_rng(args.seed)
    try:
        entry = zoo.build_zoo_entry(args.zoo, args.n, args.iterations)
        x = _parse_input_spec(args.input, entry, rng)
    except (ValueError, IndexError) as exc:
        return _usage_error(str(exc))
    if x not in entry.function:
        return _usage_error(f"input {x.values} is outside the promise domain of {args.zoo}")
    if not 1 <= args.r <= args.n:
        return _usage_error(f"--r must lie in [1, {args.n}]")
    if args.trials < 0:
        return _usage_error("--trials must be >= 0")
    if args.jobs < 1:
        return _usage_error("--jobs must be >= 1")
    expected = entry.function.value(x)

    results: dict = {
        "zoo": entry.id,
        "input_values": list(x.values),
        "expected_bit": expected,
        "quantum_queries_base": statevector.query_count(entry.algorithm),
        "quantum_queries_amplified": 3 * statevector.query_count(entry.algorithm),
        "r": args.r,
    }
    if args.exact:
        try:
            results["exact_success"] = compiler.exact_success(entry.algorithm, x, expected, args.r)
        except ValueError as exc:  # enumeration over budget
            return _usage_error(str(exc))
    if args.trials > 0:
        estimate = compiler.estimate_success(
            entry.algorithm, x, expected, args.r, args.trials, rng, jobs=args.jobs
        )
        results["estimate"] = estimate.to_json()
        # quantum-side counters are zero by construction: the compiled path
        # only ever touches x through the classical lookups of step 2
        results["counters"] = {
            "x_queries": 0,
            "g_queries": 0,
            "classical_queries": sum(t.classical_queries_used for t in estimate.results),
        }
        if args.trials <= MAX_EMBEDDED_TRIALS:
            results["trials_detail"] = [t.to_json() for t in estimate.results]
        if args.csv:
            with open(args.csv, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(("trial", "output_bit", "classical_queries", "c_injective", "seed"))
                for idx, t in enumerate(estimate.results):
                    writer.writerow(
                        (idx, t.output_bit, t.classical_queries_used, int(t.C_was_injective), t.seed)
                    )
    params = {
        "zoo": args.zoo,
        "n": args.n,
        "input": args.input,
        "r": args.r,
        "trials": args.trials,
        "exact": args.exact,
        "jobs": args.jobs,
        "iterations": args.iterations,
    }
    _emit_report(ExperimentReport("compile-run", params, args.seed, results), args.out)
    return 0


def _cmd_distinguish(args) -> int:
    try:
        r_values = [int(v) for v in args.r_list.split(",")]
        probe = zoo.build_distinguisher(args.algo, args.n)
    except ValueError as exc:
        return _usage_error(str(exc))
    rng = np.random.default_rng(args.seed)
    try:
        reports = disting.sweep_r(
            probe.algorithm,
            args.n,
            r_values,
            args.samples,
            rng,
            exact=args.exact,
            algorithm_id=probe.id,
        )
    except ValueError as exc:
        return _usage_error(str(exc))
    results = {"algorithm_id": probe.id, "reports": [rep.to_json() for rep in reports]}
    params = {
        "algo": args.algo,
        "n": args.n,
        "r_list": args.r_list,
        "samples": args.samples,
        "exact": args.exact,
    }
    _emit_report(ExperimentReport("distinguish", params, args.seed, results), args.out)
    if args.csv:
        disting.write_csv(reports, args.csv)
    return 0


def _cmd_zoo(args) -> int:
    if args.action != "list":
        return _usage_error(f"unknown zoo action {args.action!r}")
    rows = zoo.zoo_catalog()
    width = max(len(row["id"]) for row in rows)
    for row in rows:
        print(f"{row['id']:<{width}}  {row['kind']:<13}  queries: {row['queries']:<16}  {row['constraints']}")
    return 0


# one-shot invariant suite ----------------------------------------------------


def _check_gadget_exactness() -> None:
    rng = np.random.default_rng(11)
    n, M = 4, 3
    layout = statevector.RegisterLayout((n, M, n))
    cases = [
        (core.InputString(n, M, (0, 1, 2, 0)), core.IndexFunction.identity(n)),
        (core.InputString(n, M, (2, 2, 2, 2)), core.IndexFunction(n, (1, 1, 3, 3))),
    ]
    for _ in range(20):
        x = core.InputString(n, M, tuple(rng.integers(0, M, size=n)))
        g = core.IndexFunction(n, tuple(rng.integers(0, n, size=n)))
        cases.append((x, g))
    for x, g in cases:
        comp = oracles.ComposedOracle(oracles.standard_oracle(x), oracles.standard_oracle(g), 2)
        expected = np.kron(oracles.standard_oracle(core.compose_input(x, g)).matrix(), np.eye(n))
        for i in range(n):
            for j in range(M):
                state = statevector.basis_state(layout, (i, j, 0))
                got = comp.apply_tensor(state, layout, 0, 1).reshape(-1)
                col = int(np.ravel_multi_index((i, j, 0), layout.dims))
                if np.max(np.abs(got - expected[:, col])) > statevector.EXACT_ATOL:
                    raise AssertionError(f"gadget mismatch at x={x.values}, g={g.values}")


def _check_gadget_counters() -> None:
    n, M = 4, 3
    x = core.InputString(n, M, (0, 1, 2, 0))
    g = core.IndexFunction(n, (1, 1, 3, 3))
    comp = oracles.ComposedOracle(oracles.standard_oracle(x), oracles.standard_oracle(g), 2)
    layout = statevector.RegisterLayout((n, M, n))
    comp.apply_tensor(statevector.basis_state(layout), layout, 0, 1)
    if comp.query_counts != {"x_queries": 1, "g_queries": 2}:
        raise AssertionError(f"counters read {comp.query_counts}")


def _check_amplification_20_27() -> None:
    if compiler.majority3_prob(Fraction(2, 3)) != Fraction(20, 27):
        raise AssertionError("rational majority value is off")
    base = statevector.QueryAlgorithm(
        layout=statevector.RegisterLayout((3,)),
        steps=(statevector.Unitary(zoo.fourier_matrix(3), (0,)),),
        output_rule=statevector.OutputRule((0,), frozenset({(0,), (1,)})),
    )
    amplified = compiler.amplify_majority3(base)
    p = statevector.run(amplified)[1]
    if abs(p - 20 / 27) > 1e-9:
        raise AssertionError(f"amplified success {p} is not 20/27")


def _check_majority_fixed_points() -> None:
    for p in (0.0, 0.5, 1.0):
        if abs(compiler.majority3_prob(p) - p) > 1e-15:
            raise AssertionError(f"{p} should be a fixed point")


def _check_symmetry_checkers() -> None:
    n = 4
    or_outputs = {values: int(any(values)) for values in itertools.product((0, 1), repeat=n)}
    if not core.is_symmetric_first_type(core.BooleanFunctionTable(n, 2, or_outputs)):
        raise AssertionError("OR should be position-symmetric")
    proj = core.BooleanFunctionTable(
        2, 2, {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 1}
    )
    witness = core.first_type_asymmetry_witness(proj)
    if witness is None:
        raise AssertionError("first-coordinate projection should have a witness")
    x, pi = witness
    permuted = core.compose_input(x, pi)
    if permuted in proj and proj.value(permuted) == proj.value(x):
        raise AssertionError("witness does not actually break symmetry")
    dj = zoo.deutsch_jozsa(4)
    if not core.is_symmetric_first_type(dj.function):
        raise AssertionError("constant-vs-balanced table should be symmetric")


def _check_image_bounds() -> None:
    rng = np.random.default_rng(5)
    params = distributions.SmallRangeParams(8, 3)
    for _ in range(200):
        sample = distributions.sample_small_range(params, rng)
        if len(core.image(sample)) > 3:
            raise AssertionError("image bound violated")


def _check_enumerator_exact_values() -> None:
    support = distributions.enumerate_small_range_support(distributions.SmallRangeParams(2, 2))
    ident = support.probability_of(core.IndexFunction.identity(2))
    if ident != Fraction(1, 4):
        raise AssertionError(f"identity mass {ident} != 1/4")
    non_inj = sum(
        (p for g, p in support.entries if not distributions.is_injective(g)), Fraction(0)
    )
    if non_inj != Fraction(1, 2):
        raise AssertionError(f"non-injective mass {non_inj} != 1/2")


def _check_sampler_matches_enumerator() -> None:
    params = distributions.SmallRangeParams(2, 2)
    support = distributions.enumerate_small_range_support(params)
    rng = np.random.default_rng(17)
    draws = 20_000
    counts: dict[tuple[int, ...], int] = {}
    for _ in range(draws):
        g = distributions.sample_small_range(params, rng)
        counts[g.values] = counts.get(g.values, 0) + 1
    for g, prob in support.entries:
        p = float(prob)
        sigma = (p * (1 - p) / draws) ** 0.5
        if abs(counts.get(g.values, 0) / draws - p) > 4 * sigma:
            raise AssertionError(f"sampler disagrees with enumerator at {g.values}")


def _check_compiled_equals_direct() -> None:
    entry = zoo.deutsch_jozsa(4)
    x = core.InputString(4, 2, (0, 1, 1, 0))
    fixed = core.IndexFunction(4, (2, 2, 0, 1))
    dist, used = compiler.compiled_distribution(entry.algorithm, x, fixed)
    direct = statevector.run(
        compiler.amplify_majority3(entry.algorithm),
        oracles.standard_oracle(core.compose_input(x, fixed)),
    )
    if dist != direct:
        raise AssertionError("compiled path deviates from direct simulation")
    if used > 4 or used != len(core.image(fixed)):
        raise AssertionError("classical lookup accounting is off")


def _check_compiled_constant_success() -> None:
    entry = zoo.deutsch_jozsa(4)
    x = core.InputString(4, 2, (1, 1, 1, 1))
    exact = compiler.exact_success(entry.algorithm, x, 0, 2)
    if abs(exact - 1.0) > 1e-9:
        raise AssertionError(f"constant-input compiled success {exact} != 1")


def _check_composed_counter_law() -> None:
    entry = zoo.deutsch_jozsa(4)
    x = core.InputString(4, 2, (0, 1, 1, 0))
    g = core.IndexFunction(4, (1, 0, 3, 3))
    rewritten, anc = compiler.with_gadget_ancilla(compiler.amplify_majority3(entry.algorithm), 4)
    comp = oracles.ComposedOracle(oracles.standard_oracle(x), oracles.standard_oracle(g), anc)
    statevector.run(rewritten, comp)
    if comp.query_counts != {"x_queries": 3, "g_queries": 6}:
        raise AssertionError(f"counter law broken: {comp.query_counts}")


def _check_oracle_is_permutation() -> None:
    n = 3
    layout = statevector.RegisterLayout((n, n))
    for values in itertools.product(range(n), repeat=n):
        oracle = oracles.standard_oracle(core.IndexFunction(n, values))
        matrix = oracles.oracle_full_matrix(oracle, layout, 0, 1)
        if np.max(np.abs(matrix @ matrix.conj().T - np.eye(n * n))) > 1e-12:
            raise AssertionError(f"oracle for {values} is not a basis permutation")


def _dense_embedding(
    dims: tuple[int, ...], matrix: np.ndarray, targets: tuple[int, ...]
) -> np.ndarray:
    """Full-space matrix of `matrix` on the targeted registers, entry by entry."""
    tdims = tuple(dims[t] for t in targets)
    basis = list(itertools.product(*(range(d) for d in dims)))
    full = np.zeros((len(basis), len(basis)), dtype=complex)
    for col, c in enumerate(basis):
        for row, r in enumerate(basis):
            if all(r[a] == c[a] for a in range(len(dims)) if a not in targets):
                full[row, col] = matrix[
                    np.ravel_multi_index(tuple(r[t] for t in targets), tdims),
                    np.ravel_multi_index(tuple(c[t] for t in targets), tdims),
                ]
    return full


def _check_kernel_dense_reference() -> None:
    rng = np.random.default_rng(13)
    dims = (3, 3, 2, 3)
    layout = statevector.RegisterLayout(dims)

    def random_unitary(targets):
        side = math.prod(dims[t] for t in targets)
        z = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
        return statevector.Unitary(np.linalg.qr(z)[0], targets)

    # one 3x3 oracle on three register pairs: value before and after index,
    # and one index register feeding two value registers
    steps = (
        random_unitary((3, 0)),
        random_unitary((2,)),
        statevector.OracleCall(3, 0),
        random_unitary((3, 2, 1)),
        statevector.OracleCall(3, 1),
        random_unitary((1, 0)),
        statevector.OracleCall(0, 3),
        random_unitary((2, 3)),
    )
    table = (2, 0, 1)
    ones = frozenset({(0, 1), (1, 2), (2, 0), (2, 2)})
    alg = statevector.QueryAlgorithm(layout, steps, statevector.OutputRule((3, 1), ones))

    expected = statevector.basis_state(layout).reshape(-1)
    tensor = statevector.basis_state(layout)
    oracle = oracles.StandardOracle(table, 3, 3)
    for step in steps:
        if isinstance(step, statevector.OracleCall):
            targets = (step.index_reg, step.value_reg)
            full = _dense_embedding(dims, oracle.matrix(), targets)
            tensor = oracle.apply_tensor(tensor, layout, *targets)
        else:
            targets = step.targets
            full = _dense_embedding(dims, step.matrix, targets)
            tensor = statevector.apply_unitary(tensor, step.matrix, targets)
        expected = full @ expected
        if np.max(np.abs(tensor.reshape(-1) - expected)) > statevector.EXACT_ATOL:
            raise AssertionError(f"step on registers {targets} deviates from the dense matrix")
    probs = np.abs(expected.reshape(dims)) ** 2
    p_one = sum(probs[:, b, :, a].sum() for a, b in ones)
    got = statevector.run(alg, oracles.StandardOracle(table, 3, 3))[1]
    if abs(got - p_one) > statevector.EXACT_ATOL:
        raise AssertionError(f"run gives {got}, dense reference {p_one}")


VERIFY_CHECKS = (
    ("gadget exactness (n=4, M=3)", _check_gadget_exactness),
    ("gadget counters x:1 g:2 per call", _check_gadget_counters),
    ("amplification 20/27", _check_amplification_20_27),
    ("majority fixed points 0, 1/2, 1", _check_majority_fixed_points),
    ("symmetry checkers and witness", _check_symmetry_checkers),
    ("small-range image bound", _check_image_bounds),
    ("enumerator exact masses (n=2, r=2)", _check_enumerator_exact_values),
    ("sampler matches enumerator (4 sigma)", _check_sampler_matches_enumerator),
    ("compiled path equals direct simulation", _check_compiled_equals_direct),
    ("compiled constant-input success 1", _check_compiled_constant_success),
    ("composed counter law x:3q g:6q", _check_composed_counter_law),
    ("standard oracle is a basis permutation", _check_oracle_is_permutation),
    ("simulator kernel equals dense reference (mixed dims, unsorted targets)", _check_kernel_dense_reference),
)


def _cmd_verify(args) -> int:
    failures = 0
    width = max(len(name) for name, _ in VERIFY_CHECKS)
    for name, check in VERIFY_CHECKS:
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - any failure fails the suite
            failures += 1
            print(f"FAIL  {name:<{width}}  {exc}")
        else:
            print(f"PASS  {name:<{width}}")
    print(f"{len(VERIFY_CHECKS) - failures}/{len(VERIFY_CHECKS)} checks passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsymlab",
        description="Exact query-algorithm simulation and small-range classical compilation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("compile-run", help="run the compiled pipeline on a zoo function")
    p_run.add_argument("--zoo", required=True, choices=zoo.ZOO_IDS)
    p_run.add_argument("--n", type=int, required=True)
    p_run.add_argument(
        "--input",
        required=True,
        help="comma-separated values, constant0/constant1, balanced, one-hot:<i>, or random-promise",
    )
    p_run.add_argument("--r", type=int, required=True, help="image-size budget in [1, n]")
    p_run.add_argument("--trials", type=int, default=1000)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", default=None, help="JSON report path (default: stdout)")
    p_run.add_argument("--csv", default=None, help="optional per-trial CSV path")
    p_run.add_argument("--exact", action="store_true", help="also average exactly over all maps")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel trial workers")
    p_run.add_argument("--iterations", type=int, default=None, help="grover only")
    p_run.set_defaults(func=_cmd_compile_run)

    p_dist = sub.add_parser("distinguish", help="advantage sweep over image-size budgets")
    p_dist.add_argument("--algo", required=True, choices=zoo.DISTINGUISHER_IDS)
    p_dist.add_argument("--n", type=int, required=True)
    p_dist.add_argument("--r-list", required=True, help="comma-separated r values")
    p_dist.add_argument("--samples", type=int, default=1000)
    p_dist.add_argument("--seed", type=int, default=0)
    p_dist.add_argument("--out", default=None)
    p_dist.add_argument("--csv", default=None)
    p_dist.add_argument("--exact", action="store_true")
    p_dist.set_defaults(func=_cmd_distinguish)

    p_verify = sub.add_parser("verify", help="one-shot invariant suite at small sizes")
    p_verify.set_defaults(func=_cmd_verify)

    p_zoo = sub.add_parser("zoo", help="catalog of functions and probes")
    p_zoo.add_argument("action", choices=("list",))
    p_zoo.set_defaults(func=_cmd_zoo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
