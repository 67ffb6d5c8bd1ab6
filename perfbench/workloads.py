"""The four benchmark workloads: command lines made from a seed, the units of
work each one does, and the correctness gates every run must pass.

Every gate uses a closed form that holds for every seed, so no expected
value comes from the program under test:

* compile-mc: every balanced 4-bit string has compiled success exactly 51/64.
* compile-exact: Grover n=8 with r=2 succeeds with probability exactly 1/8
  for every hot index.
* distinguish-*: the collision sniffer's advantage is (n-1)/(n r), because
  a uniform map into [r] collides on each pair with probability 1/r. Over
  ``samples`` draws its standard error is sqrt(4 C(n,2) (1/r)(1-1/r) / n^4
  / samples); the permutation side has no variance.

Unit counts are derived from the inputs alone, never read from the
program's report, so a change that skips work reads as faster, not as less
work.
"""

from __future__ import annotations

import math
import random

COMPILE_MC_TRIALS = 2000
DISTINGUISH_MC_SAMPLES = 1000
EXACT_TOL = 1e-9
SIGMAS = 4


def maps_with_small_image(n: int, r: int) -> int:
    """Number of maps [n] -> [n] whose image has at most r points."""
    total = 0
    for k in range(1, r + 1):
        onto_k = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
        total += math.comb(n, k) * onto_k
    return total


def _sniffer_advantage(n: int, r: int) -> float:
    return (n - 1) / (n * r)


def _sniffer_sigma(n: int, r: int, samples: int) -> float:
    variance = 4 * math.comb(n, 2) * (1 / r) * (1 - 1 / r) / n**4
    return math.sqrt(variance / samples)


def _flag(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


class Workload:
    """One CLI command shape; subclasses fill in inputs, units and gates."""

    name = ""
    build: tuple[str, str, int] = ("", "", 0)  # (zoo|probe, id, n) built during set-up

    def argv(self, seed: int) -> list[str]:
        raise NotImplementedError

    def units(self, argv: list[str]) -> int:
        raise NotImplementedError

    def check(self, argv: list[str], results: dict) -> list[str]:
        """Failures of the output's correctness gate (empty when it passes)."""
        raise NotImplementedError

    def check_counts(self, argv: list[str], trace: dict) -> list[str]:
        """Failures of the exact call-count laws in a traced run."""
        raise NotImplementedError


def _law(failures: list[str], what: str, got, want) -> None:
    if got != want:
        failures.append(f"{what}: counted {got}, law says {want}")


class CompileMC(Workload):
    name = "compile-mc"
    build = ("zoo", "dj", 4)
    n, r = 4, 4
    success = 51 / 64  # exact compiled success of every balanced 4-bit string

    def argv(self, seed):
        rng = random.Random(seed)
        ones = set(rng.sample(range(self.n), self.n // 2))
        x = ",".join("1" if i in ones else "0" for i in range(self.n))
        return [
            "compile-run", "--zoo", "dj", "--n", str(self.n), "--input", x, "--r", str(self.r),
            "--trials", str(COMPILE_MC_TRIALS), "--jobs", "1", "--seed", str(rng.randrange(2**31)),
        ]  # fmt: skip

    def units(self, argv):
        return int(_flag(argv, "--trials"))

    def check(self, argv, results):
        trials = self.units(argv)
        failures = []
        estimate = results["estimate"]
        sigma = math.sqrt(self.success * (1 - self.success) / trials)
        if abs(estimate["estimate"] - self.success) > SIGMAS * sigma:
            failures.append(f"estimate {estimate['estimate']} is over {SIGMAS} sigma from 51/64")
        _law(failures, "estimate.trials", estimate["trials"], trials)
        _law(failures, "expected_bit", results["expected_bit"], 1)
        detail = results["trials_detail"]
        _law(failures, "trials_detail length", len(detail), trials)
        bad = [t for t in detail if t["classical_queries"] != len(set(t["C"])) or t["classical_queries"] > self.r]
        if bad:
            failures.append(f"{len(bad)} trials used lookups off the image or over r={self.r}")
        _law(
            failures,
            "counters.classical_queries",
            results["counters"]["classical_queries"],
            sum(t["classical_queries"] for t in detail),
        )
        return failures

    def check_counts(self, argv, trace):
        trials = self.units(argv)
        calls, failures = trace["calls"], []
        _law(failures, "statevector.run.calls", calls.get("statevector.run", 0), trials)
        _law(failures, "apply_tensor.calls", calls.get("oracles.StandardOracle.apply_tensor", 0), 3 * trials)
        if trace["counters"].get("compiler.lookups_max", 0) > self.r:
            failures.append(f"a trial made more than r={self.r} lookups")
        return failures


class CompileExact(Workload):
    name = "compile-exact"
    build = ("zoo", "grover", 8)
    n, r = 8, 2
    queries = 3  # Grover at n=8: two iterations plus the verification query
    success = 1 / 8  # exact compiled success for every hot index

    def argv(self, seed):
        rng = random.Random(seed)
        return [
            "compile-run", "--zoo", "grover", "--n", str(self.n),
            "--input", f"one-hot:{rng.randrange(self.n)}", "--r", str(self.r),
            "--exact", "--trials", "0", "--jobs", "1", "--seed", str(rng.randrange(2**31)),
        ]  # fmt: skip

    def units(self, argv):
        return maps_with_small_image(self.n, self.r)

    def check(self, argv, results):
        failures = []
        if abs(results["exact_success"] - self.success) > EXACT_TOL:
            failures.append(f"exact_success {results['exact_success']} is not 1/8")
        _law(failures, "expected_bit", results["expected_bit"], 1)
        return failures

    def check_counts(self, argv, trace):
        maps = self.units(argv)
        calls, failures = trace["calls"], []
        _law(failures, "statevector.run.calls", calls.get("statevector.run", 0), maps)
        _law(
            failures,
            "apply_tensor.calls",
            calls.get("oracles.StandardOracle.apply_tensor", 0),
            3 * self.queries * maps,
        )
        if trace["counters"].get("compiler.lookups_max", 0) > self.r:
            failures.append(f"a map made more than r={self.r} lookups")
        return failures


class _Distinguish(Workload):
    algo = "collision-sniffer"
    n = 0
    r_values: tuple[int, ...] = ()

    def _r_list(self, rng: random.Random) -> str:
        r_values = list(self.r_values)
        rng.shuffle(r_values)
        return ",".join(map(str, r_values))

    def _check_reports(self, argv, results, method, tolerance) -> list[str]:
        r_list = [int(v) for v in _flag(argv, "--r-list").split(",")]
        reports = results["reports"]
        failures = []
        _law(failures, "report r values", [rep["r"] for rep in reports], r_list)
        for rep in reports:
            r = rep["r"]
            want = _sniffer_advantage(self.n, r)
            _law(failures, f"r={r} method", rep["method"], method)
            if abs(rep["advantage"] - want) > tolerance(r):
                failures.append(f"r={r}: advantage {rep['advantage']} is not (n-1)/(n r) = {want}")
        return failures


class DistinguishMC(_Distinguish):
    name = "distinguish-mc"
    n = 16
    r_values = (1, 2, 4, 8, 16)
    build = ("probe", "collision-sniffer", 16)

    def argv(self, seed):
        rng = random.Random(seed)
        return [
            "distinguish", "--algo", self.algo, "--n", str(self.n), "--r-list", self._r_list(rng),
            "--samples", str(DISTINGUISH_MC_SAMPLES), "--seed", str(rng.randrange(2**31)),
        ]  # fmt: skip

    def units(self, argv):
        draws_per_r = 2 * int(_flag(argv, "--samples"))
        return draws_per_r * len(_flag(argv, "--r-list").split(","))

    def check(self, argv, results):
        samples = int(_flag(argv, "--samples"))

        def tolerance(r):
            return max(SIGMAS * _sniffer_sigma(self.n, r, samples), EXACT_TOL)

        return self._check_reports(argv, results, "monte-carlo", tolerance)

    def check_counts(self, argv, trace):
        draws = self.units(argv)
        calls, failures = trace["calls"], []
        _law(failures, "statevector.run.calls", calls.get("statevector.run", 0), draws)
        _law(failures, "sample_small_range.calls", calls.get("distributions.sample_small_range", 0), draws // 2)
        _law(failures, "sample_permutation.calls", calls.get("distributions.sample_permutation", 0), draws // 2)
        return failures


class DistinguishExact(_Distinguish):
    name = "distinguish-exact"
    n = 6
    r_values = (1, 2, 3)
    build = ("probe", "collision-sniffer", 6)

    def argv(self, seed):
        rng = random.Random(seed)
        return [
            "distinguish", "--algo", self.algo, "--n", str(self.n), "--r-list", self._r_list(rng),
            "--exact", "--seed", str(rng.randrange(2**31)),
        ]  # fmt: skip

    def _support_entries(self, argv) -> int:
        return sum(maps_with_small_image(self.n, int(r)) for r in _flag(argv, "--r-list").split(","))

    def units(self, argv):
        r_count = len(_flag(argv, "--r-list").split(","))
        return math.factorial(self.n) * r_count + self._support_entries(argv)

    def check(self, argv, results):
        return self._check_reports(argv, results, "exact", lambda r: EXACT_TOL)

    def check_counts(self, argv, trace):
        calls, failures = trace["calls"], []
        _law(failures, "statevector.run.calls", calls.get("statevector.run", 0), self.units(argv))
        _law(
            failures,
            "distributions.support_entries",
            trace["counters"].get("distributions.support_entries", 0),
            self._support_entries(argv),
        )
        return failures


WORKLOADS = {w.name: w for w in (CompileMC(), CompileExact(), DistinguishMC(), DistinguishExact())}
