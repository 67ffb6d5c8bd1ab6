import json

import pytest

from qsymlab import cli, oracles


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def payload_bytes(report):
    return json.dumps(report["results"], sort_keys=True).encode()


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

    def test_duplicate_r_warns(self, tmp_path):
        with pytest.warns(UserWarning, match="duplicate"):
            code = cli.main(
                [
                    "distinguish",
                    "--algo", "collision-sniffer",
                    "--n", "4",
                    "--r-list", "2,2",
                    "--samples", "20",
                    "--seed", "5",
                    "--out", str(tmp_path / "adv.json"),
                ]
            )
        assert code == 0

    def test_r_outside_range_is_usage_error(self, tmp_path):
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
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("n,r,method,adv")
        assert len(lines) == 4

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


class TestVerify:
    def test_fresh_checkout_passes(self, capsys):
        assert cli.main(["verify"]) == 0
        captured = capsys.readouterr().out
        assert "amplification 20/27" in captured
        assert "FAIL" not in captured

    def test_injected_gadget_bug_fails(self, capsys, monkeypatch):
        # off-by-one in the oracle shift arithmetic: a mutation the suite
        # must catch against the independently built permutation matrix
        original = oracles._shift_along_value_axis

        def broken(tensor, index_axis, value_axis, table, sign):
            return original(tensor, index_axis, value_axis, table + 1, sign)

        monkeypatch.setattr(oracles, "_shift_along_value_axis", broken)
        assert cli.main(["verify"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_broken_gadget_application_fails(self, capsys, monkeypatch):
        def skip_uncompute(self, tensor, layout, index_reg, value_reg):
            tensor = self.index_oracle.apply_tensor(tensor, layout, index_reg, self.ancilla)
            tensor = self.x_oracle.apply_tensor(tensor, layout, self.ancilla, value_reg)
            self.calls += 1
            return tensor

        monkeypatch.setattr(oracles.ComposedOracle, "apply_tensor", skip_uncompute)
        assert cli.main(["verify"]) == 1


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
