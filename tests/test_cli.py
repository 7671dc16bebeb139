import numpy as np
import pytest

from tailrho import mc
from tailrho.cli import build_parser, main


def write_file(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def comonotone_file(tmp_path):
    return write_file(tmp_path / "data.csv", "1,1\n2,2\n")


class TestEstimate:
    def test_comonotone_pair_empirical(self, comonotone_file, capsys):
        code = main(
            ["estimate", "--input", comonotone_file, "--p", "1.0",
             "--method", "empirical"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "n = 2" in out
        assert "rho_empirical = -1.5" in out
        assert "m =" not in out

    def test_both_methods_report_degree(self, tmp_path, capsys):
        from tailrho import FgmModel

        xy = FgmModel(1.0).sample(200, np.random.default_rng(0))
        lines = "\n".join(f"{x} {y}" for x, y in xy)
        path = write_file(tmp_path / "d.txt", lines + "\n")
        code = main(["estimate", "--input", path, "--p", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "m = 34" in out
        assert "rho_empirical" in out and "rho_bernstein" in out
        # both estimates land near the true tail rho of the generator, 0.2667
        values = [
            float(line.split("=")[1])
            for line in out.strip().split("\n")
            if line.startswith("rho_")
        ]
        assert len(values) == 2
        for value in values:
            assert abs(value - 0.2667) < 0.22  # 3 sigma at n = 200

    def test_explicit_degree(self, comonotone_file, capsys):
        code = main(
            ["estimate", "--input", comonotone_file, "--p", "1.0", "--degree", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "m = 2" in out
        assert "rho_bernstein = 0.333333" in out

    def test_ties_exit_code_and_hint(self, tmp_path, capsys):
        path = write_file(tmp_path / "t.csv", "1,1\n1,2\n")
        code = main(["estimate", "--input", path, "--p", "0.5"])
        err = capsys.readouterr().err
        assert code == 3
        assert "--jitter" in err

    def test_jitter_resolves_ties(self, tmp_path, capsys):
        path = write_file(tmp_path / "t.csv", "1,1\n1,2\n3,4\n")
        code = main(["estimate", "--input", path, "--p", "0.9", "--jitter"])
        assert code == 0

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = write_file(tmp_path / "bad.csv", "1,1\n2,oops\n")
        code = main(["estimate", "--input", path, "--p", "0.5"])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 2" in err

    def test_wrong_column_count(self, tmp_path, capsys):
        path = write_file(tmp_path / "bad.csv", "1 2 3\n4 5 6\n")
        code = main(["estimate", "--input", path, "--p", "0.5"])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["estimate", "--input", str(tmp_path / "nope.csv"), "--p", "0.5"])
        assert code == 2

    def test_comments_and_whitespace(self, tmp_path, capsys):
        path = write_file(
            tmp_path / "c.csv", "# header comment\n1 1\n\n2,2  # inline\n"
        )
        code = main(["estimate", "--input", path, "--p", "1.0",
                     "--method", "empirical"])
        assert code == 0
        assert "n = 2" in capsys.readouterr().out

    def test_bad_threshold(self, comonotone_file, capsys):
        code = main(["estimate", "--input", comonotone_file, "--p", "1.5"])
        assert code == 2

    def test_report_written_to_file(self, comonotone_file, tmp_path, capsys):
        out_path = tmp_path / "report.txt"
        code = main(
            ["estimate", "--input", comonotone_file, "--p", "1.0",
             "--method", "empirical", "--out", str(out_path)]
        )
        assert code == 0
        assert "rho_empirical = -1.5" in out_path.read_text()


class TestSimulate:
    def test_small_grid(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = main(
            ["simulate", "--theta=-0.5,0.5", "--n", "20", "--p", "0.5,1.0",
             "--reps", "50", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == (
            "theta,n,p,m,abs_bias_emp,abs_bias_bern,var_emp,var_bern,"
            "mse_emp,mse_bern,mse_reduction_pct"
        )
        assert len(lines) == 5
        assert lines[1].startswith("-0.5,20,0.5,7,")
        assert lines[2].startswith("-0.5,20,1,7,")
        assert lines[3].startswith("0.5,20,0.5,7,")

    def test_single_replicate_na_variance(self, tmp_path):
        out = tmp_path / "t.csv"
        code = main(
            ["simulate", "--theta", "0", "--n", "20", "--p", "0.5",
             "--reps", "1", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        assert row[6] == "NA" and row[7] == "NA"
        assert row[8] != "NA" and row[9] != "NA"

    def test_rerun_byte_identical(self, tmp_path):
        args = ["simulate", "--theta", "0.5", "--n", "25", "--p", "0.5",
                "--reps", "40", "--seed", "3"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_env_invariance(self, tmp_path, monkeypatch):
        args = ["simulate", "--theta=-1,1", "--n", "20", "--p", "1.0",
                "--reps", "30", "--seed", "5"]
        monkeypatch.setenv("TAILRHO_THREADS", "1")
        out1 = tmp_path / "w1.csv"
        assert main(args + ["--out", str(out1)]) == 0
        monkeypatch.setenv("TAILRHO_THREADS", "8")
        out8 = tmp_path / "w8.csv"
        assert main(args + ["--out", str(out8)]) == 0
        assert out1.read_bytes() == out8.read_bytes()

    def test_invalid_grid_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(
            ["simulate", "--theta", "2.0", "--n", "20", "--p", "0.5",
             "--reps", "5", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()

    def test_fixed_degree(self, tmp_path):
        out = tmp_path / "f.csv"
        code = main(
            ["simulate", "--theta", "0", "--n", "20", "--p", "1.0",
             "--reps", "10", "--degree", "5", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().strip().split("\n")[1].split(",")[3] == "5"

    def test_round_trip_six_significant_digits(self, tmp_path):
        out = tmp_path / "r.csv"
        main(["simulate", "--theta", "0.5", "--n", "30", "--p", "0.5",
              "--reps", "60", "--seed", "11", "--out", str(out)])
        header, *rows = out.read_text().strip().split("\n")
        for row in rows:
            fields = row.split(",")
            for field in fields:
                if field == "NA":
                    continue
                value = float(field)
                rendered = f"{value:.6g}"
                assert rendered == field or float(rendered) == value


class TestSweep:
    def test_single_degree(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(
            ["sweep", "--theta", "0.5", "--n", "20", "--p", "0.5",
             "--m-max", "1", "--reps", "30", "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == (
            "theta,n,p,m,abs_bias_emp,abs_bias_bern,var_emp,var_bern,"
            "mse_emp,mse_bern"
        )
        assert len(lines) == 2

    def test_full_series_and_determinism(self, tmp_path):
        args = ["sweep", "--theta=-1", "--n", "20", "--p", "0.5",
                "--m-max", "12", "--reps", "40", "--seed", "6"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        content = out1.read_text().strip().split("\n")
        assert len(content) == 13
        assert [row.split(",")[3] for row in content[1:]] == [
            str(m) for m in range(1, 13)
        ]
        # empirical columns constant across the series
        emp_cols = {tuple(row.split(",")[4:5] + row.split(",")[6:7] + row.split(",")[8:9])
                    for row in content[1:]}
        assert len(emp_cols) == 1
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_m_max(self, tmp_path):
        code = main(
            ["sweep", "--theta", "0", "--n", "20", "--p", "0.5",
             "--m-max", "0", "--reps", "5", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2


class TestAsympt:
    def test_regular_report(self, capsys):
        code = main(["asympt", "--theta", "1", "--p", "1.0", "--n", "200"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bias integral (closed form) = -0.666667" in out
        assert "bias integral (quadrature) = -0.666667" in out
        assert "rule-of-thumb degree = 34" in out
        assert "optimal degree" in out
        assert "expansion MSE difference" in out

    def test_small_sample_rule(self, capsys):
        code = main(["asympt", "--theta", "0.5", "--p", "0.5", "--n", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rule-of-thumb degree = 13" in out

    def test_degenerate_bias_note(self, capsys):
        code = main(["asympt", "--theta", "0", "--p", "0.5", "--n", "100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "undefined" in out and "rule of thumb" in out

    def test_invalid_threshold(self, capsys):
        code = main(["asympt", "--theta", "0.5", "--p", "0", "--n", "100"])
        assert code == 2


class TestParser:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["estimate", "--p", "0.5"])  # missing --input
        assert info.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


SIMULATE = ["simulate", "--theta", "0.5", "--n", "20", "--p", "0.5", "--reps", "5"]
SWEEP = ["sweep", "--theta", "0.5", "--n", "20", "--p", "0.5", "--m-max", "3", "--reps", "5"]


class TestFailFast:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_sweep_zero_reps(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("TAILRHO_THREADS", threads)
        out = tmp_path / "s.csv"
        code = main(SWEEP[:-1] + ["0", "--out", str(out)])
        assert code == 2
        assert "reps must be >= 1" in one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", [SIMULATE, SWEEP])
    def test_bad_thread_count(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("TAILRHO_THREADS", "abc")
        code = main(command + ["--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "TAILRHO_THREADS" in one_error_line(capsys)

    @pytest.mark.parametrize(
        "command, engine", [(SIMULATE, "run_table"), (SWEEP, "degree_sweep")]
    )
    def test_missing_out_dir_checked_before_simulating(
        self, tmp_path, capsys, monkeypatch, command, engine
    ):
        def no_simulation(*args, **kwargs):
            raise AssertionError("the simulation ran")

        monkeypatch.setattr(mc, engine, no_simulation)
        code = main(command + ["--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 2
        assert "does not exist" in one_error_line(capsys)

    def test_estimate_missing_out_dir(self, comonotone_file, tmp_path, capsys):
        code = main(["estimate", "--input", comonotone_file, "--p", "1.0",
                     "--out", str(tmp_path / "missing" / "r.txt")])
        assert code == 2
        assert "does not exist" in one_error_line(capsys)

    @pytest.mark.parametrize(
        "command",
        [
            ["estimate", "--p", "0.5", "--degree", "100000000"],
            SIMULATE + ["--degree", "100000000"],
            SWEEP[:8] + ["100000000"] + SWEEP[9:],
        ],
    )
    def test_degree_beyond_cap(self, comonotone_file, tmp_path, capsys, command):
        if command[0] == "estimate":
            command = command + ["--input", comonotone_file]
        out = tmp_path / "x.csv"
        code = main(command + ["--out", str(out)])
        assert code == 2
        assert "100000" in one_error_line(capsys)
        assert not out.exists()


@pytest.mark.parametrize("command", [SIMULATE, ["estimate", "--input", "f", "--p", "0.5"]])
@pytest.mark.parametrize("degree", [[], ["--degree", "rule"], ["--degree", "rule_of_thumb"]])
def test_degree_rule_spelling(command, degree):
    out = [] if command[0] == "estimate" else ["--out", "x.csv"]
    assert build_parser().parse_args(command + degree + out).degree == "rule_of_thumb"
