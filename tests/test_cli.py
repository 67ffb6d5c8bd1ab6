import csv
import errno
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qsymlab import cli, compiler, disting, distributions, oracles, statevector, zoo


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def payload_bytes(report):
    return json.dumps(report["results"], sort_keys=True).encode()


NUMPY_OOM = "Unable to allocate 16.0 TiB for an array with shape (1048576, 1048576)"


def raise_memory_error(*args, **kwargs):
    raise MemoryError(NUMPY_OOM)


def disk_full_writer(*args, **kwargs):
    # a write that fails on flush: the OSError carries no filename
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


COMPILE_DJ = [
    "compile-run", "--zoo", "dj", "--n", "4", "--input", "balanced", "--r", "3", "--seed", "4",
]  # fmt: skip


def written_report(monkeypatch, capsys, argv):
    """The report dict a command built, and the text it printed."""
    built = []
    report_text = cli._report_text

    def recording(report):
        built.append(report)
        return report_text(report)

    monkeypatch.setattr(cli, "_report_text", recording)
    assert cli.main(argv) == 0
    return built[0], capsys.readouterr().out


REPORT_KEYS = ["artifact_version", "created", "kind", "params", "results", "seed"]


class TestCompileRun:
    def test_constant_input_estimate_one(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(
            [
                "compile-run",
                "--zoo", "dj",
                "--n", "4",
                "--input", "constant0",
                "--r", "2",
                "--trials", "500",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = read_report(out)
        assert report["results"]["estimate"]["estimate"] == 1.0
        assert report["results"]["expected_bit"] == 0
        assert len(report["results"]["trials_detail"]) == 500

    def test_exact_flag(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(
            [
                "compile-run",
                "--zoo", "dj",
                "--n", "4",
                "--input", "balanced",
                "--r", "4",
                "--trials", "0",
                "--seed", "1",
                "--exact",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = read_report(out)
        assert report["results"]["exact_success"] == pytest.approx(51 / 64, abs=1e-9)

    def test_benchmark_payload_is_frozen(self, tmp_path):
        # the perfbench compile-mc command at seed 1; the digest is the payload
        # of a tree where every trial still drew its row from its own seed alone
        out = tmp_path / "report.json"
        argv = [
            "compile-run", "--zoo", "dj", "--n", "4", "--input", "0,1,1,0", "--r", "4",
            "--trials", "2000", "--jobs", "1", "--seed", "271041745", "--out", str(out),
        ]  # fmt: skip
        assert cli.main(argv) == 0
        assert hashlib.sha256(payload_bytes(read_report(out))).hexdigest() == (
            "d94c20a1bd314eacbfcc7113036e20c52dc96f9c3f334b0ad513208a509cd486"
        )

    def test_exact_benchmark_payload_is_frozen(self, tmp_path):
        # the perfbench compile-exact command at seed 1; the digest is the payload
        # of the tree whose block rows had a second, trusting oracle constructor
        out = tmp_path / "report.json"
        argv = [
            "compile-run", "--zoo", "grover", "--n", "8", "--input", "one-hot:2", "--r", "2",
            "--exact", "--trials", "0", "--jobs", "1", "--seed", "271041745", "--out", str(out),
        ]  # fmt: skip
        assert cli.main(argv) == 0
        assert hashlib.sha256(payload_bytes(read_report(out))).hexdigest() == (
            "fff4bf1a32c89976bddfa50d18e0ef62a7d7f4e6d7faee0e957d520709ec4426"
        )

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["--n", "16", "--r-list", "4,8,16,1,2", "--samples", "1000",
                 "--seed", "2127877499"],  # fmt: skip
                "db5eba632e488305eb5b89a25f024da06f54337260a5c79b8c4922052e647a34",
            ),
            (
                ["--n", "6", "--r-list", "2,3,1", "--exact", "--seed", "1095513148"],
                "f728fc4e6851f4f1e5c981858d831435583ef09c2ec9c9e4f43215ffd87d885f",
            ),
        ],
        ids=["distinguish-mc", "distinguish-exact"],
    )
    def test_distinguish_benchmark_payloads_are_frozen(self, tmp_path, argv, digest):
        # the perfbench distinguish commands at seed 1; the Monte Carlo digest
        # is the payload of a tree that drew each map's row from its own seed alone
        out = tmp_path / "report.json"
        command = ["distinguish", "--algo", "collision-sniffer", *argv, "--out", str(out)]
        assert cli.main(command) == 0
        assert hashlib.sha256(payload_bytes(read_report(out))).hexdigest() == digest

    def test_payloads_never_touch_numpys_generator(self, tmp_path, monkeypatch):
        # the compile-mc and distinguish-mc benchmark commands, and a random-promise run
        def forbidden(*args, **kwargs):
            raise AssertionError("numpy's generator was used")

        for name in ("default_rng", "Generator", "PCG64"):
            monkeypatch.setattr(np.random, name, forbidden)
        out = str(tmp_path / "report.json")
        commands = [
            ["compile-run", "--zoo", "dj", "--n", "4", "--input", "0,1,1,0", "--r", "4",
             "--trials", "2000", "--jobs", "1", "--seed", "271041745"],
            ["distinguish", "--algo", "collision-sniffer", "--n", "16", "--r-list", "4,8,16,1,2",
             "--samples", "1000", "--seed", "2127877499"],
            ["compile-run", "--zoo", "grover", "--n", "8", "--input", "random-promise", "--r", "3",
             "--trials", "50", "--seed", "5"],
        ]  # fmt: skip
        for argv in commands:
            assert cli.main(argv + ["--out", out]) == 0

    @pytest.mark.parametrize("seed", [0, 5, 21])
    def test_random_promise_and_trials_are_keyed_by_seed_words(self, tmp_path, seed):
        # word 0 of the --seed stream seeds the choice's row, word 1 the trial seeds
        out = tmp_path / "report.json"
        argv = ["compile-run", "--zoo", "dj", "--n", "4", "--input", "random-promise", "--r", "2",
                "--trials", "3", "--seed", str(seed), "--out", str(out)]  # fmt: skip
        assert cli.main(argv) == 0
        results = read_report(out)["results"]
        choice_seed, trials_seed = distributions.stream_seeds(seed, 2).tolist()
        domain = sorted(zoo.deutsch_jozsa(4).function.outputs)
        (pick,), _ = next(distributions.stream_rows([len(domain)], [choice_seed]))
        assert tuple(results["input_values"]) == domain[pick]
        want = distributions.stream_seeds(trials_seed, 3).tolist()
        assert [t["seed"] for t in results["trials_detail"]] == want

    def test_seed_beyond_64_bits_is_usage_error(self, capsys):
        assert cli.main(COMPILE_DJ[:-1] + [str(2**64), "--trials", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: a stream seed must lie in [0, 2^64), got {2**64}\n"
        assert captured.out == ""

    def test_oversized_dense_matrix_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setattr(zoo, "DENSE_ENTRIES_MAX", 100)
        argv = ["distinguish", "--algo", "collision-sniffer", "--n", "16", "--r-list", "1"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --n 16: a dense 16x16 Fourier matrix exceeds 100 entries\n"
        assert captured.out == ""

    def test_oversized_start_state_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setattr(statevector, "DENSE_ENTRIES_MAX", 100)
        argv = ["distinguish", "--algo", "collision-sniffer", "--n", "16", "--r-list", "1"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --n 16: a start state of 256 amplitudes exceeds 100 entries\n"
        assert captured.out == ""

    def test_missing_r_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["compile-run", "--zoo", "dj", "--n", "4", "--input", "constant0"])
        assert exc.value.code == 2

    def test_off_promise_input_rejected(self, tmp_path):
        code = cli.main(
            [
                "compile-run",
                "--zoo", "dj",
                "--n", "4",
                "--input", "1,0,0,0",
                "--r", "2",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 2

    def test_r_out_of_range_rejected(self, tmp_path):
        code = cli.main(
            [
                "compile-run",
                "--zoo", "dj",
                "--n", "4",
                "--input", "constant0",
                "--r", "9",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("r", ["9", "0", "-1"])
    def test_r_out_of_range_names_the_flag(self, tmp_path, capsys, r):
        # the same rule and message as each entry of distinguish's --r-list
        out = tmp_path / "r.json"
        argv = ["compile-run", "--zoo", "dj", "--n", "4", "--input", "balanced", "--r", r]
        assert cli.main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: --r {r}: r outside [1, 4]: {r}\n")
        assert not out.exists()

    def test_exact_over_budget_is_usage_error(self, capsys):
        code = cli.main(
            [
                "compile-run",
                "--zoo", "dj",
                "--n", "8",
                "--input", "balanced",
                "--r", "8",
                "--exact",
                "--trials", "0",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "budget" in err
        assert len(err.splitlines()) == 1

    def test_negative_one_hot_index_rejected(self, capsys):
        code = cli.main(
            [
                "compile-run",
                "--zoo", "grover",
                "--n", "4",
                "--input", "one-hot:-1",
                "--r", "2",
                "--trials", "3",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: one-hot index -1 outside [0, 4)\n"

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("a,b", "--input must be integers or a named input, got 'a,b'"),
            ("one-hot:x", "--input one-hot:<i> needs an integer index, got 'one-hot:x'"),
            ("0,1,1", "--input '0,1,1': expected 4 entries, got 3"),
            ("0,1,2,0", "--input '0,1,2,0': entry 2 outside [0, 2)"),
        ],
        ids=["values", "one-hot", "entry-count", "entry-range"],
    )
    def test_malformed_input_names_the_flag(self, capsys, spec, message):
        argv = ["compile-run", "--zoo", "grover", "--n", "4", "--input", spec, "--r", "2",
                "--trials", "3"]  # fmt: skip
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("n", ["0", "-4"])
    def test_grover_size_below_one_is_usage_error(self, capsys, n):
        argv = ["compile-run", "--zoo", "grover", "--n", n, "--input", "constant0", "--r", "1"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --n {n}: n must be >= 1, got {n}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compile-run", "--zoo", "const0", "--n", "0"], "--n 0: n must be positive"),
            (["compile-run", "--zoo", "const1", "--n", "-1"], "--n -1: n must be positive"),
            (["compile-run", "--zoo", "dj", "--n", "3"], "--n 3: n must be a power of two, got 3"),
            (
                ["compile-run", "--zoo", "grover", "--n", "4", "--iterations", "-1"],
                "--iterations must be >= 0",
            ),
            (["distinguish", "--algo", "collision-sniffer", "--n", "1"], "--n 1: n must be at least 2"),
            (["distinguish", "--algo", "zero-query", "--n", "0"], "--n 0: n must be positive"),
        ],
        ids=["const-zero", "const-negative", "dj-three", "grover-iterations", "sniffer-one", "probe-zero"],
    )
    def test_size_errors_name_their_flag(self, capsys, argv, message):
        if argv[0] == "distinguish":
            rest = ["--r-list", "1"]
        else:
            rest = ["--input", "constant0", "--r", "1"]
        assert cli.main(argv + rest) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_grover_rejects_a_dense_size_before_building_its_table(self, monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("the promise table was built before the size check")

        monkeypatch.setattr(zoo, "BooleanFunctionTable", forbidden)
        argv = ["compile-run", "--zoo", "grover", "--n", "8192", "--input", "one-hot:1", "--r", "2"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: --n 8192: a dense 8192x8192 Fourier matrix exceeds 16777216 entries\n"
        )
        assert captured.out == ""

    def test_negative_trials_rejected(self, capsys):
        code = cli.main(
            [
                "compile-run",
                "--zoo", "grover",
                "--n", "4",
                "--input", "one-hot:1",
                "--r", "2",
                "--trials", "-5",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --trials must be >= 0\n"
        assert captured.out == ""

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, capsys, jobs):
        code = cli.main(
            [
                "compile-run",
                "--zoo", "dj",
                "--n", "4",
                "--input", "balanced",
                "--r", "2",
                "--trials", "3",
                "--jobs", jobs,
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --jobs must be >= 1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("trials", ["2", "60"])
    def test_jobs_leave_the_files_unchanged(self, tmp_path, trials):
        out, csv_path = tmp_path / "report.json", tmp_path / "trials.csv"
        reports, csvs = [], []
        for jobs in ("1", "2"):
            argv = ["--trials", trials, "--jobs", jobs, "--out", str(out), "--csv", str(csv_path)]
            assert cli.main(COMPILE_DJ + argv) == 0
            reports.append(read_report(out))
            csvs.append(csv_path.read_bytes())
        assert payload_bytes(reports[0]) == payload_bytes(reports[1])
        assert csvs[0] == csvs[1]
        assert [r["params"].pop("jobs") for r in reports] == [1, 2]
        for report in reports:
            del report["created"]
        assert reports[0] == reports[1]

    def test_reproducible_payload(self, tmp_path):
        args = [
            "compile-run",
            "--zoo", "dj",
            "--n", "4",
            "--input", "random-promise",
            "--r", "3",
            "--trials", "200",
            "--seed", "21",
        ]
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(args + ["--out", str(out_a)]) == 0
        assert cli.main(args + ["--out", str(out_b)]) == 0
        assert payload_bytes(read_report(out_a)) == payload_bytes(read_report(out_b))

    def test_per_trial_csv(self, tmp_path):
        out = tmp_path / "report.json"
        csv_path = tmp_path / "trials.csv"
        code = cli.main(
            [
                "compile-run",
                "--zoo", "grover",
                "--n", "4",
                "--input", "one-hot:2",
                "--r", "4",
                "--trials", "50",
                "--seed", "3",
                "--out", str(out),
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "trial,output_bit,classical_queries,c_injective,seed"
        assert len(lines) == 51

    def test_csv_rows_built_only_for_csv(self, tmp_path, monkeypatch):
        rows_seen = []
        emit = cli._emit_report

        def recording(kind, args, results, csv_rows=None):
            rows_seen.append(csv_rows)
            return emit(kind, args, results, csv_rows)

        monkeypatch.setattr(cli, "_emit_report", recording)
        out, csv_path = tmp_path / "report.json", tmp_path / "trials.csv"
        assert cli.main(COMPILE_DJ + ["--trials", "3", "--out", str(out)]) == 0
        assert rows_seen == [None]
        assert cli.main(COMPILE_DJ + ["--trials", "3", "--out", str(out), "--csv", str(csv_path)]) == 0
        detail = read_report(out)["results"]["trials_detail"]
        rows = "".join(
            f"{i},{t['output_bit']},{t['classical_queries']},{int(t['C_injective'])},{t['seed']}\r\n"
            for i, t in enumerate(detail)
        )
        header = "trial,output_bit,classical_queries,c_injective,seed\r\n"
        assert csv_path.read_bytes() == (header + rows).encode()

    def test_constant_one_input(self, capsys):
        argv = ["compile-run", "--zoo", "dj", "--n", "4", "--input", "constant1", "--r", "2",
                "--trials", "20"]  # fmt: skip
        assert cli.main(argv) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["input_values"] == [1, 1, 1, 1]
        assert results["expected_bit"] == 0
        assert results["estimate"]["estimate"] == 1.0

    @pytest.mark.parametrize("code", [errno.ENOTDIR, errno.EISDIR], ids=["not-a-dir", "is-a-dir"])
    def test_unwritable_out_names_the_reason(self, tmp_path, capsys, code):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "report.json" if code == errno.ENOTDIR else tmp_path
        argv = ["compile-run", "--zoo", "dj", "--n", "4", "--input", "balanced", "--r", "2",
                "--trials", "5", "--out", str(out)]  # fmt: skip
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out}: {os.strerror(code)}\n"
        assert captured.out == ""

    def test_out_without_write_permission_names_the_reason(self, tmp_path, monkeypatch, capsys):
        # root may write anywhere, so the permission bit is read through os.access
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        out = tmp_path / "report.json"
        argv = ["compile-run", "--zoo", "dj", "--n", "4", "--input", "balanced", "--r", "2",
                "--trials", "5", "--out", str(out)]  # fmt: skip
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out}: {os.strerror(errno.EACCES)}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        code = cli.main(
            [
                "compile-run",
                "--zoo", "dj",
                "--n", "4",
                "--input", "balanced",
                "--r", "2",
                "--trials", "5",
                "--out", str(out),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    def test_negative_seed_rejected(self, capsys):
        code = cli.main(
            [
                "compile-run",
                "--zoo", "dj",
                "--n", "4",
                "--input", "balanced",
                "--r", "2",
                "--trials", "3",
                "--seed", "-1",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be >= 0\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "iterations, message",
        [
            # 203 steps on the 16 amplitudes of n = 4 pass a budget of 1000 entries
            (["--iterations", "100"], "--iterations 100: 203 steps on 16 amplitudes"),
            # the optimal k at n = 4 is 1: 5 steps, within 1000; the budget of 79 rejects them, as --n
            ([], "--n 4: 5 steps on 16 amplitudes"),
        ],
        ids=["explicit", "default"],
    )
    def test_too_many_grover_steps_is_usage_error(self, monkeypatch, capsys, iterations, message):
        budget = "1000" if iterations else "79"
        monkeypatch.setenv("QSYMLAB_BUDGET", budget)
        argv = ["compile-run", "--zoo", "grover", "--n", "4", "--input", "constant0", "--r", "2"]
        assert cli.main(argv + iterations) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message} exceed the budget of {budget} (QSYMLAB_BUDGET)\n"
        assert captured.out == ""

    def test_iterations_off_grover_rejected_before_building(self, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the zoo entry was built before --iterations was checked")

        monkeypatch.setattr(zoo, "build_zoo_entry", never)
        code = cli.main(
            [
                "compile-run",
                "--zoo", "dj",
                "--n", "4",
                "--input", "balanced",
                "--r", "2",
                "--trials", "2",
                "--iterations", "3",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --iterations applies to grover only\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--trials", "-1"], "--trials must be >= 0"),
            (["--trials", "2", "--jobs", "0"], "--jobs must be >= 1"),
            (["--trials", "0", "--csv", "trials.csv"], "--csv has no trials to write with --trials 0"),
        ],
        ids=["trials", "jobs", "csv"],
    )
    def test_trial_flags_rejected_before_building(self, tmp_path, monkeypatch, capsys, flags, message):
        def never(*args, **kwargs):
            raise AssertionError("the zoo entry was built before the trial flags were checked")

        monkeypatch.setattr(zoo, "build_zoo_entry", never)
        monkeypatch.chdir(tmp_path)
        argv = ["compile-run", "--zoo", "grover", "--n", "2048", "--input", "one-hot:1", "--r", "2"]
        assert cli.main(argv + flags) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_iterations_echoed_for_grover(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(
            [
                "compile-run",
                "--zoo", "grover",
                "--n", "4",
                "--input", "one-hot:1",
                "--r", "2",
                "--trials", "0",
                "--iterations", "0",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = read_report(out)
        assert report["params"]["iterations"] == 0
        # zero iterations: one verification query, no amplification
        assert report["results"]["quantum_queries_base"] == 1

    def test_unwritable_out_fails_before_computing(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("exact_success ran before the output path was checked")

        monkeypatch.setattr(compiler, "exact_success", never)
        out = tmp_path / "missing" / "r.json"
        code = cli.main(
            [
                "compile-run",
                "--zoo", "dj",
                "--n", "4",
                "--input", "balanced",
                "--r", "2",
                "--trials", "0",
                "--exact",
                "--out", str(out),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out}: No such file or directory\n"
        assert captured.out == ""
        assert not out.parent.exists()

    @pytest.mark.parametrize("zoo_id, entries", [("dj", 72), ("const0", 256)])
    def test_promise_table_over_budget_is_usage_error(self, monkeypatch, capsys, zoo_id, entries):
        # both tables at n=8 hold more entries than the budget of 50
        monkeypatch.setenv("QSYMLAB_BUDGET", "50")
        code = cli.main(
            ["compile-run", "--zoo", zoo_id, "--n", "8", "--input", "constant0", "--r", "2"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --n 8: {zoo_id} table exceeds the budget of 50 entries\n"
        assert captured.out == ""

    def test_malformed_budget_is_named_before_any_work(self, monkeypatch, capsys):
        monkeypatch.setenv("QSYMLAB_BUDGET", "abc")
        monkeypatch.setattr(zoo, "build_zoo_entry", raise_memory_error)
        assert cli.main(["compile-run", "--zoo", "dj", "--n", "4", "--input", "balanced", "--r", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: QSYMLAB_BUDGET must be an integer, got 'abc'\n"
        assert captured.out == ""

    def test_promise_table_budget_counts_cells(self, monkeypatch, capsys):
        # 32 strings of 5 cells: within a budget of 100 strings, not of 100 cells
        monkeypatch.setenv("QSYMLAB_BUDGET", "100")
        code = cli.main(
            ["compile-run", "--zoo", "const0", "--n", "5", "--input", "constant0", "--r", "2"]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: --n 5: const0 table exceeds the budget of 100 entries\n"

    def test_exact_support_past_int64_codes_is_usage_error(self, monkeypatch, capsys):
        # the budget admits the 2016 * 2^64 maps, but their words' codes overflow int64
        monkeypatch.setenv("QSYMLAB_BUDGET", str(10**23))
        argv = ["compile-run", "--zoo", "grover", "--n", "64", "--input", "one-hot:0", "--r", "2"]
        assert cli.main(argv + ["--exact", "--trials", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: the support walk codes words as int64, so it needs r^n < 2^63, got 2^64\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "target, message",
        [
            ("qsymlab.zoo.fourier_matrix", NUMPY_OOM),
            ("qsymlab.zoo.fourier_matrix", ""),
            ("qsymlab.compiler.estimate_success", NUMPY_OOM),
        ],
        ids=["numpy-message", "bare", "estimate_success"],
    )
    def test_out_of_memory_is_usage_error(self, monkeypatch, capsys, target, message):
        def raise_memory_error(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(target, raise_memory_error)
        code = cli.main(
            ["compile-run", "--zoo", "grover", "--n", "8", "--input", "constant0", "--r", "2"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: out of memory" + (f": {message}" if message else "") + "\n")
        assert captured.out == ""

    def test_write_error_names_its_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(csv, "writer", disk_full_writer)
        csv_path = tmp_path / "trials.csv"
        code = cli.main(
            [
                "compile-run",
                "--zoo", "dj",
                "--n", "4",
                "--input", "balanced",
                "--r", "4",
                "--trials", "2",
                "--csv", str(csv_path),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {csv_path}: No space left on device\n"
        assert captured.out == ""

    def test_params_echo_the_flags(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(
            [
                "compile-run",
                "--zoo", "dj",
                "--n", "4",
                "--input", "balanced",
                "--r", "3",
                "--trials", "2",
                "--seed", "4",
                "--out", str(out),
                "--csv", str(tmp_path / "trials.csv"),
            ]
        )
        assert code == 0
        report = read_report(out)
        assert sorted(report) == REPORT_KEYS
        assert report["kind"] == "compile-run"
        assert report["seed"] == 4
        assert report["params"] == {
            "zoo": "dj",
            "n": 4,
            "input": "balanced",
            "r": 3,
            "trials": 2,
            "exact": False,
            "jobs": 1,
            "iterations": None,
        }

    def test_entry_keys(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(
            [
                "compile-run",
                "--zoo", "dj",
                "--n", "4",
                "--input", "balanced",
                "--r", "3",
                "--trials", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        results = read_report(out)["results"]
        assert sorted(results["estimate"]) == [
            "ci_high",
            "ci_low",
            "classical_queries_max",
            "estimate",
            "expected_bit",
            "injective_fraction",
            "r",
            "successes",
            "trials",
        ]
        assert sorted(results["trials_detail"][0]) == [
            "C",
            "C_injective",
            "classical_queries",
            "output_bit",
            "seed",
        ]

    def test_csv_without_trials_rejected(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("exact_success ran before --csv was checked")

        monkeypatch.setattr(compiler, "exact_success", never)
        csv_path = tmp_path / "trials.csv"
        code = cli.main(
            [
                "compile-run",
                "--zoo", "dj",
                "--n", "4",
                "--input", "balanced",
                "--r", "2",
                "--trials", "0",
                "--exact",
                "--csv", str(csv_path),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --csv has no trials to write with --trials 0\n"
        assert captured.out == ""
        assert not csv_path.exists()

    def test_out_and_csv_same_file_rejected(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("estimate_success ran before the output paths were checked")

        monkeypatch.setattr(compiler, "estimate_success", never)
        path = tmp_path / "report"
        code = cli.main(
            [
                "compile-run",
                "--zoo", "dj",
                "--n", "4",
                "--input", "balanced",
                "--r", "2",
                "--trials", "3",
                "--out", str(path),
                "--csv", f"{tmp_path}/./report",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --out and --csv name the same file {tmp_path}/./report\n"
        assert captured.out == ""
        assert not path.exists()


class TestDistinguish:
    def test_zero_query_advantages_vanish(self, tmp_path):
        out = tmp_path / "adv.json"
        code = cli.main(
            [
                "distinguish",
                "--algo", "zero-query",
                "--n", "8",
                "--r-list", "1,8",
                "--samples", "50",
                "--seed", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = read_report(out)
        assert [rep["advantage"] for rep in report["results"]["reports"]] == [0.0, 0.0]

    def test_duplicate_r_warns(self, tmp_path, capsys):
        # one plain line on stderr, not a UserWarning with its source path and code line
        code = cli.main(
            [
                "distinguish",
                "--algo", "collision-sniffer",
                "--n", "4",
                "--r-list", "2,2,3,2",
                "--samples", "20",
                "--seed", "5",
                "--out", str(tmp_path / "adv.json"),
            ]
        )
        assert code == 0
        assert capsys.readouterr().err == (
            "warning: duplicate r value 2 dropped\n" "warning: duplicate r value 2 dropped\n"
        )
        reports = read_report(tmp_path / "adv.json")["results"]["reports"]
        assert [rep["r"] for rep in reports] == [2, 3]

    def test_r_outside_range_is_usage_error(self, tmp_path, capsys):
        code = cli.main(
            [
                "distinguish",
                "--algo", "collision-sniffer",
                "--n", "4",
                "--r-list", "5",
                "--samples", "20",
                "--out", str(tmp_path / "adv.json"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: --r-list 5: r outside [1, 4]: 5\n"

    @pytest.mark.parametrize("r_list, bad", [("0", 0), ("2,5,1", 5), ("2,2,-1", -1)])
    def test_r_list_names_the_entry_out_of_range(self, tmp_path, capsys, r_list, bad):
        out = tmp_path / "adv.json"
        argv = ["distinguish", "--algo", "collision-sniffer", "--n", "4", "--r-list", r_list]
        assert cli.main(argv + ["--exact", "--out", str(out)]) == 2
        # no warning for the duplicate 2: the range error comes first
        assert capsys.readouterr().err == f"error: --r-list {bad}: r outside [1, 4]: {bad}\n"
        assert not out.exists()

    def test_bad_n_is_named_before_bad_r(self, capsys):
        argv = ["distinguish", "--algo", "collision-sniffer", "--n", "1", "--r-list", "5"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: --n 1: n must be at least 2\n"

    def test_too_many_permutations_names_the_budget(self, monkeypatch, capsys):
        monkeypatch.delenv("QSYMLAB_BUDGET", raising=False)  # the default budget
        runs = []
        monkeypatch.setattr(disting, "run", lambda *args: runs.append(args))
        code = cli.main(
            ["distinguish", "--algo", "collision-sniffer", "--n", "11", "--r-list", "1", "--exact"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: enumerating 11! permutations exceeds budget 10000000 (QSYMLAB_BUDGET)\n"
        )
        assert runs == []

    def test_huge_n_exact_sweep_fails_on_the_budget(self, monkeypatch, capsys):
        # 2000000! is never computed: the product stops at 11!, the first past the budget
        monkeypatch.delenv("QSYMLAB_BUDGET", raising=False)  # the default budget
        argv = ["distinguish", "--algo", "zero-query", "--n", "2000000", "--r-list", "1", "--exact"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: enumerating 2000000! permutations exceeds budget 10000000 (QSYMLAB_BUDGET)\n"
        )
        assert captured.out == ""

    def test_exact_and_sampled_agree(self, tmp_path):
        base = [
            "distinguish",
            "--algo", "collision-sniffer",
            "--n", "4",
            "--r-list", "2",
            "--seed", "6",
        ]
        exact_out = tmp_path / "exact.json"
        mc_out = tmp_path / "mc.json"
        assert cli.main(base + ["--exact", "--out", str(exact_out)]) == 0
        assert cli.main(base + ["--samples", "3000", "--out", str(mc_out)]) == 0
        exact = read_report(exact_out)["results"]["reports"][0]
        sampled = read_report(mc_out)["results"]["reports"][0]
        se = (sampled["ci_high"] - sampled["ci_low"]) / (2 * 1.959963984540054)
        assert abs(sampled["advantage"] - exact["advantage"]) <= max(4 * se, 1e-12)

    def test_constant_map_probabilities_stay_in_unit_interval(self, capsys):
        # r = 1 makes every small-range map constant; rounding once put the
        # sniffer's Born probability an ulp above 1
        code = cli.main(
            ["distinguish", "--algo", "collision-sniffer", "--n", "3", "--r-list", "1", "--exact"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)["results"]["reports"][0]
        assert report["smallrange_prob"] == {"0": 0.0, "1": 1.0}

    def test_oversized_exact_sweep_fails_before_simulating(self, monkeypatch, capsys):
        # r = 1 and 2 fit a budget of 100 at n = 4, but r = 3 visits 424 maps
        monkeypatch.setenv("QSYMLAB_BUDGET", "100")
        runs = []
        monkeypatch.setattr(disting, "run", lambda *args: runs.append(args))
        code = cli.main(
            ["distinguish", "--algo", "collision-sniffer", "--n", "4", "--r-list", "1,2,3", "--exact"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: enumeration visits 424 maps, budget is 100 (QSYMLAB_BUDGET)\n"
        )
        assert runs == []

    def test_csv_emitted(self, tmp_path):
        csv_path = tmp_path / "curve.csv"
        code = cli.main(
            [
                "distinguish",
                "--algo", "collision-sniffer",
                "--n", "4",
                "--r-list", "1,2,4",
                "--samples", "30",
                "--seed", "9",
                "--out", str(tmp_path / "adv.json"),
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "r", "method", "adv", "ci_low", "ci_high", "samples", "seed"]
        assert [row[1] for row in rows[1:]] == ["1", "2", "4"]

    def test_unwritable_csv_is_usage_error(self, tmp_path, capsys):
        csv_path = tmp_path / "missing" / "curve.csv"
        code = cli.main(
            [
                "distinguish",
                "--algo", "collision-sniffer",
                "--n", "4",
                "--r-list", "1,2",
                "--samples", "10",
                "--csv", str(csv_path),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {csv_path}")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    def test_negative_seed_rejected(self, capsys):
        code = cli.main(
            [
                "distinguish",
                "--algo", "collision-sniffer",
                "--n", "4",
                "--r-list", "1,2",
                "--seed", "-5",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be >= 0\n"
        assert captured.out == ""

    @pytest.mark.parametrize("method", [["--exact"], ["--samples", "5"]], ids=["exact", "monte-carlo"])
    def test_seed_beyond_64_bits_rejected_before_sweeping(self, monkeypatch, capsys, method):
        # the exact sweep never reads the seed's stream, so only the early check can refuse it
        def never(*args, **kwargs):
            raise AssertionError("sweep_r ran before the seed was checked")

        monkeypatch.setattr(disting, "sweep_r", never)
        argv = ["distinguish", "--algo", "collision-sniffer", "--n", "3", "--r-list", "1",
                "--seed", str(2**64), *method]  # fmt: skip
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: a stream seed must lie in [0, 2^64), got {2**64}\n"
        assert captured.out == ""

    def test_unwritable_out_fails_before_computing(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("sweep_r ran before the output path was checked")

        monkeypatch.setattr(disting, "sweep_r", never)
        out = tmp_path / "missing" / "a.json"
        code = cli.main(
            [
                "distinguish",
                "--algo", "collision-sniffer",
                "--n", "4",
                "--r-list", "1,2",
                "--samples", "10",
                "--out", str(out),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out}: No such file or directory\n"
        assert captured.out == ""
        assert not out.parent.exists()

    def test_out_of_memory_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setattr(zoo, "fourier_matrix", raise_memory_error)
        code = cli.main(
            ["distinguish", "--algo", "collision-sniffer", "--n", "4", "--r-list", "1,2"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: out of memory: {NUMPY_OOM}\n"
        assert captured.out == ""

    def test_write_error_names_its_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(csv, "writer", disk_full_writer)
        csv_path = tmp_path / "curve.csv"
        code = cli.main(
            [
                "distinguish",
                "--algo", "collision-sniffer",
                "--n", "4",
                "--r-list", "1,2",
                "--samples", "10",
                "--csv", str(csv_path),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {csv_path}: No space left on device\n"
        assert captured.out == ""

    def test_params_echo_the_flags(self, tmp_path):
        out = tmp_path / "adv.json"
        code = cli.main(
            [
                "distinguish",
                "--algo", "collision-sniffer",
                "--n", "4",
                "--r-list", "1,2",
                "--seed", "6",
                "--exact",
                "--out", str(out),
                "--csv", str(tmp_path / "curve.csv"),
            ]
        )
        assert code == 0
        report = read_report(out)
        assert sorted(report) == REPORT_KEYS
        assert report["kind"] == "distinguish"
        assert report["seed"] == 6
        assert report["params"] == {
            "algo": "collision-sniffer",
            "n": 4,
            "r_list": "1,2",
            "samples": None,
            "exact": True,
        }

    def test_monte_carlo_samples_default_echoed(self, capsys):
        code = cli.main(
            ["distinguish", "--algo", "zero-query", "--n", "2", "--r-list", "1", "--seed", "3"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["params"]["samples"] == 1000
        assert report["results"]["reports"][0]["samples"] == 1000

    def test_samples_with_exact_rejected(self, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("sweep_r ran before --samples was checked")

        monkeypatch.setattr(disting, "sweep_r", never)
        code = cli.main(
            [
                "distinguish",
                "--algo", "collision-sniffer",
                "--n", "4",
                "--r-list", "2",
                "--samples", "5",
                "--exact",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --samples does not apply to --exact\n"
        assert captured.out == ""

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_rejected_before_sweeping(self, monkeypatch, capsys, samples):
        def never(*args, **kwargs):
            raise AssertionError("sweep_r ran before --samples was checked")

        monkeypatch.setattr(disting, "sweep_r", never)
        code = cli.main(
            ["distinguish", "--algo", "collision-sniffer", "--n", "4", "--r-list", "2",
             "--samples", samples]  # fmt: skip
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --samples must be >= 1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("r_list", ["1,,2", "1,two", ""])
    def test_malformed_r_list_names_the_flag(self, r_list, capsys):
        code = cli.main(
            ["distinguish", "--algo", "collision-sniffer", "--n", "4", "--r-list", r_list]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --r-list must be comma-separated integers, got {r_list!r}\n"
        )
        assert captured.out == ""

    def test_exact_entry_keys_and_csv_row(self, tmp_path):
        out, csv_path = tmp_path / "adv.json", tmp_path / "curve.csv"
        code = cli.main(
            [
                "distinguish",
                "--algo", "collision-sniffer",
                "--n", "4",
                "--r-list", "2",
                "--exact",
                "--out", str(out),
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        entry = read_report(out)["results"]["reports"][0]
        assert sorted(entry) == [
            "advantage",
            "algorithm_id",
            "ci_high",
            "ci_low",
            "method",
            "n",
            "perm_prob",
            "r",
            "samples",
            "seed",
            "smallrange_prob",
        ]
        assert entry["perm_prob"] == {"0": 0.75, "1": 0.25}
        with open(csv_path, newline="") as fh:
            row = list(csv.reader(fh))[1]
        assert row[:3] == ["4", "2", "exact"]
        assert row[-2:] == ["", ""]

    def test_out_and_csv_same_file_rejected(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("sweep_r ran before the output paths were checked")

        monkeypatch.setattr(disting, "sweep_r", never)
        path = tmp_path / "adv"
        code = cli.main(
            [
                "distinguish",
                "--algo", "collision-sniffer",
                "--n", "4",
                "--r-list", "1,2",
                "--samples", "10",
                "--out", str(path),
                "--csv", f"{tmp_path}/./adv",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --out and --csv name the same file {tmp_path}/./adv\n"
        assert captured.out == ""
        assert not path.exists()

    def test_reproducible_payload(self, tmp_path):
        args = [
            "distinguish",
            "--algo", "collision-sniffer",
            "--n", "4",
            "--r-list", "1,2",
            "--samples", "40",
            "--seed", "12",
        ]
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(args + ["--out", str(out_a)]) == 0
        assert cli.main(args + ["--out", str(out_b)]) == 0
        assert payload_bytes(read_report(out_a)) == payload_bytes(read_report(out_b))


class TestReportLayout:
    @pytest.mark.parametrize(
        "argv",
        [
            COMPILE_DJ + ["--trials", "1"],
            COMPILE_DJ + ["--trials", "3"],
            COMPILE_DJ + ["--exact", "--trials", "0"],
            [
                "distinguish", "--algo", "collision-sniffer", "--n", "4", "--r-list", "1,2",
                "--samples", "40",
            ],  # fmt: skip
        ],
        ids=["trials-1", "trials-3", "exact-trials-0", "distinguish"],
    )
    def test_parses_like_the_indented_report(self, monkeypatch, capsys, argv):
        report, text = written_report(monkeypatch, capsys, argv)
        indented = json.dumps(report, indent=2, sort_keys=True)
        assert json.loads(text) == json.loads(indented)
        if "trials_detail" not in report["results"]:
            assert text == indented + "\n"

    def test_one_line_per_trial_record(self, monkeypatch, capsys):
        report, text = written_report(monkeypatch, capsys, COMPILE_DJ + ["--trials", "3"])
        lines = text.splitlines()
        start = lines.index('    "trials_detail": [')
        assert lines[start + 4].removesuffix(",") == "    ]"
        records = [json.loads(line.removesuffix(",")) for line in lines[start + 1 : start + 4]]
        assert records == report["results"]["trials_detail"]
        # around the records, the layout is the indented one
        indented = json.dumps(report, indent=2, sort_keys=True).splitlines()
        tail = len(lines) - start - 4
        assert lines[: start + 1] == indented[: start + 1]
        assert lines[start + 4 :] == indented[-tail:]

    def test_trials_over_the_embedding_limit_keep_the_indented_report(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_EMBEDDED_TRIALS", 2)
        report, text = written_report(monkeypatch, capsys, COMPILE_DJ + ["--trials", "3"])
        assert "trials_detail" not in report["results"]
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"

    def test_strings_like_the_record_slot_are_kept(self):
        slot = '"trials_detail": "<trials_detail>"'
        report = {
            "params": {"input": slot},
            "results": {
                "note": slot,
                "trials_detail": [
                    {"C": [0], "seed": 1, "note": "}, {"},
                    {"C": [1], "seed": 2, "note": slot},
                ],
            },
        }
        text = cli._report_text(report)
        assert json.loads(text) == report
        records = [line.strip().removesuffix(",") for line in text.splitlines() if "seed" in line]
        assert [json.loads(line) for line in records] == report["results"]["trials_detail"]


class TestVerify:
    def test_fresh_checkout_passes(self, capsys):
        assert cli.main(["verify"]) == 0
        captured = capsys.readouterr().out
        assert "amplification 20/27" in captured
        assert "FAIL" not in captured

    def test_stream_that_differs_from_the_frozen_one_fails(self, capsys, monkeypatch):
        # one wrong mixing constant: every row and uniform would differ
        monkeypatch.setattr(distributions, "_MIX_A", distributions._MIX_A ^ np.uint64(1))
        assert cli.main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  stream rows and uniforms equal the frozen ones" in out
        assert "13/14 checks passed" in out

    def test_draws_from_the_low_half_fail(self, capsys, monkeypatch):
        # the low 32-bit half of each word in place of the high one
        words = distributions._words
        monkeypatch.setattr(distributions, "_words", lambda *args: words(*args) << np.uint64(32))
        assert cli.main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  stream rows and uniforms equal the frozen ones" in out
        assert "13/14 checks passed" in out

    def test_injected_gadget_bug_fails(self, capsys, monkeypatch):
        # off-by-one in the oracle shift arithmetic; a value of d reads past the
        # shift table's last row, so this one fails as an IndexError
        original = oracles._gather_sources

        def broken(shape, index_reg, value_reg, stack, sign):
            return original(shape, index_reg, value_reg, stack + 1, sign)

        monkeypatch.setattr(oracles, "_gather_sources", broken)
        assert cli.main(["verify"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_in_range_shift_bug_fails(self, capsys, monkeypatch):
        # the same off-by-one kept inside [0, d): a wrong but valid permutation,
        # which only the checks against independently built matrices can catch
        original = oracles._gather_sources

        def broken(shape, index_reg, value_reg, stack, sign):
            return original(shape, index_reg, value_reg, (stack + 1) % shape[value_reg], sign)

        monkeypatch.setattr(oracles, "_gather_sources", broken)
        assert cli.main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  gadget exactness" in out
        assert "FAIL  simulator kernel equals dense reference" in out
        assert "out of bounds" not in out

    def test_broken_gadget_application_fails(self, capsys, monkeypatch):
        def skip_uncompute(self, tensor, index_reg, value_reg):
            tensor = self.index_oracle.apply_tensor(tensor, index_reg, self.ancilla)
            return self.x_oracle.apply_tensor(tensor, self.ancilla, value_reg)

        monkeypatch.setattr(oracles.ComposedOracle, "apply_tensor", skip_uncompute)
        assert cli.main(["verify"]) == 1

    def test_closed_stdout_is_one_error_line(self):
        # unbuffered, so each check's line is written as it prints, and the
        # first write after the reader closes the pipe fails inside the suite
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": "1"}
        with subprocess.Popen(
            [sys.executable, "-m", "qsymlab", "verify"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            assert proc.stdout.readline().startswith("PASS  gadget exactness")
            proc.stdout.close()
            assert proc.wait(timeout=60) == 2
            assert proc.stderr.read() == "error: cannot write <stdout>: Broken pipe\n"


class TestZooListing:
    def test_lists_all_ids(self, capsys):
        assert cli.main(["zoo", "list"]) == 0
        out = capsys.readouterr().out
        for zoo_id in ("dj", "grover", "const0", "const1", "collision-sniffer", "zero-query"):
            assert zoo_id in out

    def test_listing_bytes(self, capsys):
        assert cli.main(["zoo", "list"]) == 0
        assert capsys.readouterr().out == (
            "dj                 decision       queries: 1                 n power of two, M = 2\n"
            "grover             decision       queries: iterations + 1    n power of two, M = 2\n"
            "const0             decision       queries: 0                 any n, M = 2\n"
            "const1             decision       queries: 0                 any n, M = 2\n"
            "collision-sniffer  distinguisher  queries: 1                 n >= 2\n"
            "zero-query         distinguisher  queries: 0                 n >= 1\n"
        )

    def test_stdout_report_when_no_out(self, capsys):
        code = cli.main(
            [
                "compile-run",
                "--zoo", "const1",
                "--n", "4",
                "--input", "random-promise",
                "--r", "1",
                "--trials", "20",
                "--seed", "2",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "compile-run"
        assert report["results"]["estimate"]["estimate"] == 1.0


class TestWarnings:
    """`main` prints each warning it shows as one `warning:` line, and adds a
    filter for UserWarning only."""

    def warn_in_zoo(self, monkeypatch, category):
        def command(args):
            warnings.warn("from inside the command", category)
            return 0

        monkeypatch.setattr(cli, "_cmd_zoo", command)

    def test_deprecation_still_raises_under_an_error_filter(self, monkeypatch):
        self.warn_in_zoo(monkeypatch, DeprecationWarning)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DeprecationWarning, match="from inside the command"):
                cli.main(["zoo", "list"])

    def test_runtime_warning_is_one_line(self, monkeypatch, capsys):
        self.warn_in_zoo(monkeypatch, RuntimeWarning)
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            shown = warnings.showwarning
            assert cli.main(["zoo", "list"]) == 0
            assert warnings.showwarning is shown
        assert capsys.readouterr().err == "warning: from inside the command\n"


class TestParserErrors:
    """Argparse's own errors print as every other usage error: one line, exit 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compile-run", "--zoo", "nope", "--n", "4", "--input", "balanced", "--r", "2"],
             "argument --zoo: invalid choice: 'nope'"),
            (["compile-run", "--zoo", "dj", "--n", "four", "--input", "balanced", "--r", "2"],
             "argument --n: invalid int value: 'four'"),
            (["distinguish", "--algo", "collision-sniffer", "--n", "4"],
             "the following arguments are required: --r-list"),
            ([], "the following arguments are required: command"),
            (["zoo", "list", "--bogus"], "unrecognized arguments: --bogus"),
            (["zoo", "bad"], "argument action: invalid choice: 'bad'"),
        ],
        ids=["unknown-zoo", "non-integer-n", "missing-r-list", "no-command", "unknown-flag", "bad-zoo-action"],
    )  # fmt: skip
    def test_one_error_line_and_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: {message}")

    def test_help_still_prints_the_usage_block(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["compile-run", "--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: qsymlab compile-run")
        assert "--zoo" in captured.out and captured.err == ""
