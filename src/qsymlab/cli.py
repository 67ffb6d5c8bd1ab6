"""Experiment runner: compiled-pipeline estimates, distinguishing sweeps, a
one-shot invariant suite, and the algorithm catalog.

Exit codes: 0 success, 1 failed property or assertion, 2 usage error. Checks
raise or warn where they find the problem; `main` alone prints both: a
ValueError, IndexError, MemoryError or closed stdout as exit 2 and one `error:`
line, as the parser does its own, and each warning shown as one `warning:` line.
This module alone owns the report format: JSON (plus CSV with `--csv`)
built from the plain records of `compiler` and `disting`, whose `params`
echo the flags; rerunning a command with the same flags and seed reproduces
the results payload byte for byte (timestamps live outside the payload).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import itertools
import json
import math
import os
import sys
import time
import warnings
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import __version__, compiler, core, disting, distributions, oracles, statevector, zoo

MAX_EMBEDDED_TRIALS = 10_000
DEFAULT_SAMPLES = 1000


# not echoed in params: the seed has its own key, the rest pick the command or the output
_NOT_PARAMS = frozenset({"command", "func", "seed", "out", "csv"})


def _emit_report(kind: str, args, results: dict, csv_rows=None) -> int:
    """Write `csv_rows` (header first) to `args.csv` if it is set, then the JSON
    report whose `params` echo the other flags; a failed write names its path."""
    report = {
        "kind": kind,
        "artifact_version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "params": {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS},
        "seed": args.seed,
        "results": results,
    }
    text = _report_text(report)
    path = args.csv
    try:
        if args.csv:
            with open(args.csv, "w", newline="") as fh:
                csv.writer(fh).writerows(csv_rows)
        path = args.out or "<stdout>"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None
    return 0


def _report_text(report: dict) -> str:
    """`report` as JSON with sorted keys, indented by two, except that each
    `trials_detail` record sits on one line: the indenting encoder is pure
    Python, and the C encoder writes 2000 records about four times faster."""
    results = report["results"]
    if "trials_detail" not in results:
        return json.dumps(report, indent=2, sort_keys=True)
    slot = "<trials_detail>"
    envelope = {**report, "results": {**results, "trials_detail": slot}}
    text = json.dumps(envelope, indent=2, sort_keys=True)
    encode = json.JSONEncoder(sort_keys=True).encode
    records = ",\n      ".join(map(encode, results["trials_detail"]))
    # only results has a trials_detail key, and a quote inside a string is
    # always escaped, so nothing else matches
    return text.replace(
        f'"trials_detail": "{slot}"', f'"trials_detail": [\n      {records}\n    ]', 1
    )


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _reason(exc: Exception) -> str:
    """The one-line message of a caught error; numpy's MemoryError may have none."""
    if isinstance(exc, MemoryError):
        return f"out of memory: {exc}" if str(exc) else "out of memory"
    return str(exc)


def _check_writable(args) -> None:
    """Raise if the `--out` and `--csv` paths cannot both be written, checked
    before any work; the write itself still catches what this cannot see."""
    if args.out and args.csv and os.path.realpath(args.out) == os.path.realpath(args.csv):
        raise ValueError(f"--out and --csv name the same file {args.csv}")
    for path in filter(None, (args.out, args.csv)):
        parent = os.path.dirname(path) or "."
        if not os.path.exists(parent):
            code = errno.ENOENT
        elif not os.path.isdir(parent):
            code = errno.ENOTDIR
        elif os.path.isdir(path):
            code = errno.EISDIR
        elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise ValueError(f"cannot write {path}: {os.strerror(code)}")


def _parse_input_spec(spec: str, entry: zoo.ZooEntry, seed: int) -> core.InputString:
    n, M = entry.function.n, entry.function.M
    if spec == "random-promise":
        domain = sorted(entry.function.outputs)
        (pick,), _ = next(distributions.stream_rows([len(domain)], [seed]))
        return core.InputString(n, M, domain[pick])
    if spec == "constant0":
        return core.InputString(n, M, (0,) * n)
    if spec == "constant1":
        return core.InputString(n, M, (1,) * n)
    if spec == "balanced":
        return core.InputString(n, M, (0,) * (n - n // 2) + (1,) * (n // 2))
    if spec.startswith("one-hot:"):
        try:
            i = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"--input one-hot:<i> needs an integer index, got {spec!r}") from None
        if not 0 <= i < n:
            raise ValueError(f"one-hot index {i} outside [0, {n})")
        values = [0] * n
        values[i] = 1
        return core.InputString(n, M, tuple(values))
    try:
        values = tuple(int(v) for v in spec.split(","))
    except ValueError:
        raise ValueError(f"--input must be integers or a named input, got {spec!r}") from None
    try:
        return core.InputString(n, M, values)
    except ValueError as exc:  # InputString's own check, named after the flag
        raise ValueError(f"--input {spec!r}: {exc}") from None


def _check_seed(seed: int) -> None:
    """Raise if `--seed` cannot key a stream."""
    if seed < 0:
        raise ValueError("--seed must be >= 0")
    if seed >= 2**64:
        raise ValueError(f"a stream seed must lie in [0, 2^64), got {seed}")


def _cmd_compile_run(args) -> int:
    _check_seed(args.seed)
    if args.iterations is not None and args.zoo != "grover":
        raise ValueError("--iterations applies to grover only")
    if args.iterations is not None and args.iterations < 0:
        raise ValueError("--iterations must be >= 0")
    if args.trials < 0:
        raise ValueError("--trials must be >= 0")
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    if args.csv and args.trials == 0:
        raise ValueError("--csv has no trials to write with --trials 0")
    # words 0 and 1 of the --seed stream key the random-promise choice and the trials
    choice_seed, trials_seed = distributions.stream_seeds(args.seed, 2).tolist()
    try:
        entry = zoo.build_zoo_entry(args.zoo, args.n, args.iterations)
    except ValueError as exc:
        # with --iterations checked, every rule left is on --n, bar the step count of a given k
        given_k = args.iterations is not None and isinstance(exc, zoo.StepBudgetError)
        flag = f"--iterations {args.iterations}" if given_k else f"--n {args.n}"
        raise ValueError(f"{flag}: {exc}") from None
    x = _parse_input_spec(args.input, entry, choice_seed)
    if x not in entry.function:
        raise ValueError(f"input {x.values} is outside the promise domain of {args.zoo}")
    if not 1 <= args.r <= args.n:
        raise ValueError(f"--r must lie in [1, {args.n}]")
    _check_writable(args)
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
        results["exact_success"] = compiler.exact_success(entry.algorithm, x, expected, args.r)
    if args.trials == 0:
        return _emit_report("compile-run", args, results)
    estimate = compiler.estimate_success(
        entry.algorithm, x, expected, args.r, args.trials, trials_seed, jobs=args.jobs
    )
    runs = estimate.results
    results["estimate"] = {
        **{k: v for k, v in vars(estimate).items() if k != "results"},
        "classical_queries_max": max(t.classical_queries_used for t in runs),
        "injective_fraction": sum(t.C_was_injective for t in runs) / estimate.trials,
    }
    # quantum-side counters are zero by construction: the compiled path
    # only ever touches x through the classical lookups of step 2
    results["counters"] = {
        "x_queries": 0,
        "g_queries": 0,
        "classical_queries": sum(t.classical_queries_used for t in runs),
    }
    if args.trials <= MAX_EMBEDDED_TRIALS:
        results["trials_detail"] = [
            {
                "output_bit": t.output_bit,
                "classical_queries": t.classical_queries_used,
                "C": list(t.sampled_C),
                "C_injective": t.C_was_injective,
                "seed": t.seed,
            }
            for t in runs
        ]
    rows = None
    if args.csv:
        rows = [("trial", "output_bit", "classical_queries", "c_injective", "seed")]
        rows += [
            (idx, t.output_bit, t.classical_queries_used, int(t.C_was_injective), t.seed)
            for idx, t in enumerate(runs)
        ]
    return _emit_report("compile-run", args, results, rows)


def _cmd_distinguish(args) -> int:
    _check_seed(args.seed)
    if args.exact and args.samples is not None:
        raise ValueError("--samples does not apply to --exact")
    if args.samples is not None and args.samples < 1:
        raise ValueError("--samples must be >= 1")
    if not args.exact and args.samples is None:
        args.samples = DEFAULT_SAMPLES
    try:
        r_values = [int(v) for v in args.r_list.split(",")]
    except ValueError:
        raise ValueError(f"--r-list must be comma-separated integers, got {args.r_list!r}") from None
    _check_writable(args)
    try:
        probe = zoo.build_distinguisher(args.algo, args.n)
    except ValueError as exc:  # a probe's only parameter is --n
        raise ValueError(f"--n {args.n}: {exc}") from None
    for r in r_values:
        try:
            distributions.SmallRangeParams(args.n, r)
        except ValueError as exc:
            raise ValueError(f"--r-list {r}: {exc}") from None
    reports = disting.sweep_r(
        probe.algorithm,
        args.n,
        r_values,
        args.samples,
        args.seed,
        exact=args.exact,
        algorithm_id=probe.id,
    )
    results = {"algorithm_id": probe.id, "reports": [dataclasses.asdict(rep) for rep in reports]}
    rows = [("n", "r", "method", "adv", "ci_low", "ci_high", "samples", "seed")]
    rows += [
        (rep.n, rep.r, rep.method, rep.advantage, rep.ci_low, rep.ci_high, rep.samples, rep.seed)
        for rep in reports
    ]
    return _emit_report("distinguish", args, results, rows)


def _cmd_zoo(args) -> int:
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
        comp = oracles.ComposedOracle(oracles.StandardOracle(x), oracles.StandardOracle(g), 2)
        expected = np.kron(oracles.StandardOracle(core.compose_input(x, g)).matrix(), np.eye(n))
        for i in range(n):
            for j in range(M):
                state = statevector.basis_state(layout, (i, j, 0))
                got = comp.apply_tensor(state, 0, 1).reshape(-1)
                col = int(np.ravel_multi_index((i, j, 0), layout.dims))
                if np.max(np.abs(got - expected[:, col])) > statevector.EXACT_ATOL:
                    raise AssertionError(f"gadget mismatch at x={x.values}, g={g.values}")


def _check_gadget_counters() -> None:
    n, M = 4, 3
    x = core.InputString(n, M, (0, 1, 2, 0))
    g = core.IndexFunction(n, (1, 1, 3, 3))
    comp = oracles.ComposedOracle(oracles.StandardOracle(x), oracles.StandardOracle(g), 2)
    layout = statevector.RegisterLayout((n, M, n))
    comp.apply_tensor(statevector.basis_state(layout), 0, 1)
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
    # the paper's class against AA14's
    classes = ((zoo.build_zoo_entry("grover", 16), False), (zoo.deutsch_jozsa(8), True))
    for entry, relabel_symmetric in classes:
        f = entry.function
        if not core.is_symmetric_first_type(f) or core.is_symmetric_second_type(f) != relabel_symmetric:
            raise AssertionError(f"{entry.id} n={f.n} is in the wrong symmetry class")


def _check_image_bounds() -> None:
    # `compile-run`'s sampling path, row by row against the row sampler
    params = distributions.SmallRangeParams(8, 3)
    for draws, _ in distributions.stream_blocks(params.bounds, distributions.stream_seeds(5, 200)):
        block = core.index_map_block(params.n, distributions.sample_small_range_block(params, draws))
        for row, values in zip(draws.tolist(), block.tolist()):
            if tuple(values) != distributions.sample_small_range(params, row):
                raise AssertionError("block sampler differs from the row sampler")
            if len(set(values)) > 3:
                raise AssertionError("image bound violated")


def _check_enumerator_exact_values() -> None:
    support = distributions.enumerate_small_range_support(distributions.SmallRangeParams(2, 2))
    ident = support.probability_of(core.IndexFunction.identity(2))
    if ident != Fraction(1, 4):
        raise AssertionError(f"identity mass {ident} != 1/4")
    non_inj = sum(
        (p for block, p in support.blocks() for row in block.tolist() if len(set(row)) < len(row)),
        Fraction(0),
    )
    if non_inj != Fraction(1, 2):
        raise AssertionError(f"non-injective mass {non_inj} != 1/2")


def _check_sampler_matches_enumerator() -> None:
    params = distributions.SmallRangeParams(2, 2)
    support = distributions.enumerate_small_range_support(params)
    draws = 20_000
    counts: dict[tuple[int, ...], int] = {}
    for row, _ in distributions.stream_rows(params.bounds, distributions.stream_seeds(17, draws)):
        g = core.IndexFunction(params.n, distributions.sample_small_range(params, row))
        counts[g.values] = counts.get(g.values, 0) + 1
    for block, mass in support.blocks():
        p = float(mass)
        sigma = (p * (1 - p) / draws) ** 0.5
        for values in map(tuple, block.tolist()):
            if abs(counts.get(values, 0) / draws - p) > 4 * sigma:
                raise AssertionError(f"sampler disagrees with enumerator at {values}")


def _check_compiled_equals_direct() -> None:
    entry = zoo.deutsch_jozsa(4)
    x = core.InputString(4, 2, (0, 1, 1, 0))
    fixed = core.IndexFunction(4, (2, 2, 0, 1))
    dist, used = compiler.compiled_distribution(entry.algorithm, x, fixed.values)
    direct = statevector.run(
        compiler.amplify_majority3(entry.algorithm),
        oracles.StandardOracle(core.compose_input(x, fixed)),
    )
    if dist != direct:
        raise AssertionError("compiled path deviates from direct simulation")
    if used > 4 or used != len(set(fixed.values)):
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
    comp = oracles.ComposedOracle(oracles.StandardOracle(x), oracles.StandardOracle(g), anc)
    statevector.run(rewritten, comp)
    if comp.query_counts != {"x_queries": 3, "g_queries": 6}:
        raise AssertionError(f"counter law broken: {comp.query_counts}")


def _check_oracle_is_permutation() -> None:
    n = 3
    layout = statevector.RegisterLayout((n, n))
    for values in itertools.product(range(n), repeat=n):
        oracle = oracles.StandardOracle(core.IndexFunction(n, values))
        matrix = oracles.oracle_full_matrix(oracle, layout, 0, 1)
        if np.max(np.abs(matrix @ matrix.conj().T - np.eye(n * n))) > 1e-12:
            raise AssertionError(f"oracle for {values} is not a basis permutation")


# `stream_rows` at these seeds, frozen: each seed's uniform, and its rows as
# digits; (4, 4) has only power-of-two bounds and ends on a bound of 1, and
# (7, 3) has bounds that are not powers of two
_STREAM_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 271041745)
_FROZEN_UNIFORMS = (0.8833108082136426, 0.5665615751722809, 0.4519231102166881,
                    0.766301757339086, 0.16564699010451844, 0.7669214899241017)  # fmt: skip
_FROZEN_ROWS = {
    (4, 4): ("10301010", "23113210", "13023110", "02120100", "33010010", "10302210"),
    (7, 3): ("1020002151", "2211221142", "1202212001", "0211010632", "2200001554", "1020222121"),
}


def _check_frozen_stream() -> None:
    for (n, r), frozen in _FROZEN_ROWS.items():
        rows = distributions.stream_rows(distributions.SmallRangeParams(n, r).bounds, _STREAM_SEEDS)
        for seed, (row, uniform), digits, want in zip(_STREAM_SEEDS, rows, frozen, _FROZEN_UNIFORMS):
            if "".join(map(str, row)) != digits or uniform != want:
                raise AssertionError(f"stream row differs from the frozen one at n={n}, r={r}, seed {seed}")


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
    table = core.IndexFunction(3, (2, 0, 1))
    ones = frozenset({(0, 1), (1, 2), (2, 0), (2, 2)})
    alg = statevector.QueryAlgorithm(layout, steps, statevector.OutputRule((3, 1), ones))

    expected = statevector.basis_state(layout).reshape(-1)
    tensor = statevector.basis_state(layout)
    oracle = oracles.StandardOracle(table)
    for step in steps:
        if isinstance(step, statevector.OracleCall):
            targets = (step.index_reg, step.value_reg)
            full = _dense_embedding(dims, oracle.matrix(), targets)
            tensor = oracle.apply_tensor(tensor, *targets)
        else:
            targets = step.targets
            full = _dense_embedding(dims, step.matrix, targets)
            tensor = statevector.apply_unitary(tensor, step.matrix, targets)
        expected = full @ expected
        if np.max(np.abs(tensor.reshape(-1) - expected)) > statevector.EXACT_ATOL:
            raise AssertionError(f"step on registers {targets} deviates from the dense matrix")
    probs = np.abs(expected.reshape(dims)) ** 2
    p_one = sum(probs[:, b, :, a].sum() for a, b in ones)
    got = statevector.run(alg, oracles.StandardOracle(table))[1]
    if abs(got - p_one) > statevector.EXACT_ATOL:
        raise AssertionError(f"run gives {got}, dense reference {p_one}")


VERIFY_CHECKS = (
    ("gadget exactness (n=4, M=3)", _check_gadget_exactness),
    ("gadget counters x:1 g:2 per call", _check_gadget_counters),
    ("amplification 20/27", _check_amplification_20_27),
    ("majority fixed points 0, 1/2, 1", _check_majority_fixed_points),
    ("symmetry checkers and witness", _check_symmetry_checkers),
    ("small-range block sampler equals row sampler; image bound", _check_image_bounds),
    ("enumerator exact masses (n=2, r=2)", _check_enumerator_exact_values),
    ("sampler matches enumerator (4 sigma)", _check_sampler_matches_enumerator),
    ("compiled path equals direct simulation", _check_compiled_equals_direct),
    ("compiled constant-input success 1", _check_compiled_constant_success),
    ("composed counter law x:3q g:6q", _check_composed_counter_law),
    ("standard oracle is a basis permutation", _check_oracle_is_permutation),
    ("simulator kernel equals dense reference (mixed dims, unsorted targets)", _check_kernel_dense_reference),
    ("stream rows and uniforms equal the frozen ones", _check_frozen_stream),
)


def _cmd_verify(args) -> int:
    failures = 0
    width = max(len(name) for name, _ in VERIFY_CHECKS)
    for name, check in VERIFY_CHECKS:
        start = time.perf_counter()
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - any failure fails the suite
            failures += 1
            print(f"FAIL  {name:<{width}}  {exc}  ({time.perf_counter() - start:.3f} s)")
        else:
            print(f"PASS  {name:<{width}}  ({time.perf_counter() - start:.3f} s)")
    print(f"{len(VERIFY_CHECKS) - failures}/{len(VERIFY_CHECKS)} checks passed")
    return 1 if failures else 0


class _Parser(argparse.ArgumentParser):
    """Prints its errors as `main` does, one `error:` line and exit 2; the
    usage block prints only with `--help`. Its subparsers share the class."""

    def error(self, message):
        sys.exit(_usage_error(message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_dist.add_argument(
        "--samples", type=int, default=None, help=f"Monte Carlo draws per r (default {DEFAULT_SAMPLES})"
    )
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
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():  # each shown warning is one line, repeats too
            warnings.filterwarnings("always", category=UserWarning)
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            # read once before any work, so a malformed value is not blamed on a flag
            distributions.enumeration_budget()
            return args.func(args)
    except (ValueError, IndexError, MemoryError) as exc:  # bad input or no memory
        return _usage_error(_reason(exc))
    except BrokenPipeError as exc:  # a reader such as `head` closed stdout early
        # the flush at exit then writes to devnull, not to the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _usage_error(f"cannot write <stdout>: {exc.strerror}")


if __name__ == "__main__":
    sys.exit(main())
