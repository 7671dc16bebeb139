import contextlib
import io
import os
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailrho import FgmModel, cli, mc
from tailrho.cli import DataFileError, build_parser, load_pairs, main
from tailrho.quadrature import QuadratureError


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

    def test_jitter_resolves_ties_one_float_spacing_apart(self, tmp_path, capsys):
        path = write_file(tmp_path / "t.csv", "1,1\n1,2\n1.0000000000000002,3\n")
        code = main(["estimate", "--input", path, "--p", "0.5", "--jitter"])
        assert code == 0
        assert capsys.readouterr().err == ""

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

    def test_non_utf8_input(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"1,1\n2,2 # caf\xe9\n3,3\n")
        code = main(["estimate", "--input", str(path), "--p", "0.5"])
        assert code == 2
        assert "not UTF-8" in one_error_line(capsys)

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


# Pieces of generated input files: every character Python counts as
# whitespace, number spellings numpy's C reader and float() may read
# differently, non-finite and malformed values, and empty fields.
SPACES = [chr(c) for c in range(0x3001) if chr(c).isspace()]
SEPARATORS = st.one_of(st.sampled_from([",", " ", "\t", ", ", ",,", ""]), st.sampled_from(SPACES))
ODD_TOKENS = [
    "1_0", "\u0663", "\uff11", "inf", "-inf", "nan", "1e400", "-0", "0x10", "1e", "abc",
    "\ufeff1", "1\x00", "+.5", "1.", "",
]
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda v: f"{v:.17g}"),
    st.integers(-1000, 1000).map(str),
)
TOKENS = st.one_of(NUMBERS, st.sampled_from(ODD_TOKENS))
ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])
COMMENTS = st.sampled_from(["", "", "# note", "#", "#1,2", " # x y z"])


@st.composite
def messy_line(draw):
    """0 to 3 tokens with any separators, leading and trailing ones too."""
    tokens = draw(st.lists(TOKENS, max_size=3))
    seps = draw(st.lists(SEPARATORS, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    body = seps[0] + "".join(t + sep for t, sep in zip(tokens, seps[1:]))
    return body + draw(COMMENTS) + draw(ENDINGS)


@st.composite
def input_file(draw) -> bytes:
    """Rows of two numbers with one delimiter, which numpy's C reader
    accepts, then maybe one value respelled as an odd token, blank, comment
    and messy lines in between, a BOM, and bytes that are not UTF-8."""
    delimiter = draw(st.sampled_from([",", ", ", " ", "\t", "  "]))
    values = [v for row in draw(st.lists(st.tuples(NUMBERS, NUMBERS), max_size=8)) for v in row]
    if values and draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(ODD_TOKENS))
    lines = [
        x + delimiter + y + draw(COMMENTS) + draw(ENDINGS)
        for x, y in zip(values[::2], values[1::2])
    ]
    blank = st.builds(lambda c, e: c + e, st.sampled_from(["", "# header", "#"]), ENDINGS)
    for extra in draw(st.lists(st.one_of(blank, messy_line()), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    rarely = st.sampled_from([False, False, False, True])
    data = (("\ufeff" if draw(rarely) else "") + "".join(lines)).encode("utf-8")
    if draw(rarely):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3"])) + data[at:]
    return data


def line_parser_only():
    """load_pairs with numpy's C reader switched off: the format's definition."""
    return mock.patch.object(cli, "_read_table", lambda handle: None)


def parsed(path):
    """load_pairs' arrays as bytes, or its error message."""
    try:
        x, y = load_pairs(path)
    except DataFileError as exc:
        return str(exc)
    assert x.dtype == y.dtype == np.float64
    assert x.flags.c_contiguous and y.flags.c_contiguous
    return x.tobytes(), y.tobytes()


def run_estimate(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["estimate", "--input", path, "--p", "0.5"])
    return code, out.getvalue(), err.getvalue()


class TestLoadPairs:
    """numpy's C reader only speeds up `load_pairs`: the line parser defines
    the format, so every array, message and exit code is the line parser's."""

    @pytest.fixture(scope="class")
    def input_path(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("generated") / "input.txt")

    @given(data=input_file())
    @settings(max_examples=400, deadline=None)
    def test_matches_line_parser(self, input_path, data):
        with open(input_path, "wb") as handle:
            handle.write(data)
        got, got_run = parsed(input_path), run_estimate(input_path)
        with line_parser_only():
            assert got == parsed(input_path)
            assert got_run == run_estimate(input_path)

    @pytest.mark.parametrize(
        "text",
        ["# x, y\r\n1.5,2\r\n\r\n-3e-2 , 4 # inline\r\n5,\t6\r\n",
         "1.5 2\n# note\n\n-3e-2\t4\n  5  6  \n"],
        ids=["comma", "whitespace"],
    )
    def test_clean_file_skips_line_parser(self, tmp_path, text):
        path = write_file(tmp_path / "clean.txt", text)
        with mock.patch.object(cli, "_parse_lines", side_effect=AssertionError):
            x, y = load_pairs(path)
        assert x.tolist() == [1.5, -0.03, 5.0] and y.tolist() == [2.0, 4.0, 6.0]

    @pytest.mark.parametrize(
        "data, message",
        [(b"", "need at least 2 data rows, found 0"),
         (b"# only\n# comments\n", "need at least 2 data rows, found 0"),
         (b"1,2\n", "need at least 2 data rows, found 1"),
         (b"1,2\n3,4\n5,1_0\n7,inf\n", "line 4: non-finite value"),
         # text is decoded in blocks: a bad line is reported first only if
         # the bad bytes lie in a later block
         (b"1,2\n3,4,5\n" + b"5,6\n" * 5000 + b"\xff\n", "line 2: expected two columns, got 3"),
         (b"1,2\n3,4,5\n\xff\n", "{path} is not UTF-8 text: invalid start byte")],
        ids=["empty", "comments", "one-row", "non-finite", "bad-line-first", "bad-bytes-first"],
    )
    def test_error_is_one_line_without_warning(self, tmp_path, capsys, data, message):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        message = message.format(path=path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["estimate", "--input", str(path), "--p", "0.5"])
        assert code == 2
        assert one_error_line(capsys) == f"error: {message}\n"
        assert caught == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reads_a_pipe(self, tmp_path):
        path = tmp_path / "pipe"
        os.mkfifo(path)

        def feed():
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("1,2\n3,4\n")

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        x, y = load_pairs(str(path))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert x.tolist() == [1.0, 3.0] and y.tolist() == [2.0, 4.0]


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


ASYMPT_REGULAR = """\
theta = 1
p = 1
n = 200
bias integral (closed form) = -0.666667
bias integral (quadrature) = -0.666667
variance-gain integral = 0.841916
optimal degree = 56.2893 (floored: 56)
rule-of-thumb degree = 34
expansion MSE difference at optimal degree m=56: -0.000420805
expansion MSE difference at rule-of-thumb degree m=34: -0.000337469
"""

ASYMPT_DEGENERATE = """\
theta = 0
p = 0.5
n = 100
bias integral (closed form) = -0
bias integral (quadrature) = 0
variance-gain integral = 0.708982
optimal degree = undefined (bias term vanishes; using rule of thumb)
rule-of-thumb degree = 21
expansion MSE difference at optimal degree m=21: -0.00154712
expansion MSE difference at rule-of-thumb degree m=21: -0.00154712
"""

ASYMPT_NEGATIVE = """\
theta = -1
p = 0.1
n = 50
bias integral (closed form) = 0.141261
bias integral (quadrature) = 0.141261
variance-gain integral = 0.0656393
optimal degree = 15.4623 (floored: 15)
rule-of-thumb degree = 13
expansion MSE difference at optimal degree m=15: -0.000250272
expansion MSE difference at rule-of-thumb degree m=13: -0.000246026
"""


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

    @pytest.mark.parametrize(
        "flags, text",
        [
            (["--theta=1", "--p", "1.0", "--n", "200"], ASYMPT_REGULAR),
            (["--theta=0", "--p", "0.5", "--n", "100"], ASYMPT_DEGENERATE),
            (["--theta=-1", "--p", "0.1", "--n", "50"], ASYMPT_NEGATIVE),
        ],
        ids=["regular", "degenerate", "negative"],
    )
    def test_full_report(self, capsys, flags, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the degenerate report warns of nothing
            code = main(["asympt"] + flags)
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == text
        assert captured.err == ""

    def test_sample_size_checked_before_threshold(self, capsys):
        code = main(["asympt", "--theta=0.5", "--p", "0", "--n", "0"])
        assert code == 2
        assert one_error_line(capsys) == "error: sample size n=0 must be >= 1\n"

    def test_huge_sample_size_exact_rule_of_thumb(self, capsys):
        # floor((10^40)^(2/3)) = floor(10^26.67): a float start is off by ~1e10
        code = main(["asympt", "--theta=0.5", "--p", "0.5", "--n", str(10**40)])
        out = capsys.readouterr().out
        assert code == 0
        assert "rule-of-thumb degree = 464158883361277889241007635\n" in out

    @pytest.mark.parametrize(
        "theta, p, n, message",
        [
            ("0.5", "0.5", 10**400, "beyond the float range"),
            ("0.5", "0", 10**400, "beyond the float range"),  # n before p
            ("1", "1", 10**308, "balancing degree beyond the float range"),
        ],
    )
    def test_sample_size_beyond_float_range(self, capsys, theta, p, n, message):
        code = main(["asympt", f"--theta={theta}", "--p", p, "--n", str(n)])
        assert code == 2
        assert message in one_error_line(capsys)


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

    @pytest.mark.parametrize("command", [SIMULATE, SWEEP])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--p", "1e-7", "(1e-06, 1]"),
            ("--p", "1e-6", "(1e-06, 1]"),
            ("--n", "0", ">= 1"),
            ("--n", "1000000000000", "<= 10000000"),
            ("--theta", "nan", "[-1, 1]"),
        ],
    )
    def test_cell_checked_before_simulating(
        self, tmp_path, capsys, monkeypatch, command, flag, value, message
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("replicates were scheduled")

        monkeypatch.setattr(mc, "_pool_map", no_pool)
        command = list(command)
        command[command.index(flag) + 1] = value
        out = tmp_path / "x.csv"
        code = main(command + ["--out", str(out)])
        assert code == 2
        assert message in one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [
            SIMULATE[:-1] + [str(10**13)],
            SWEEP[:-1] + [str(10**13)],
            # one replicate, but 31 score tables of 10^7 + 1 scores each
            ["sweep", "--theta", "0", "--n", "10000000", "--p", "0.5", "--m-max", "30",
             "--reps", "1"],
        ],
    )
    def test_result_slots_bounded_before_simulating(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("replicates were scheduled")

        monkeypatch.setattr(mc, "_pool_map", no_pool)
        out = tmp_path / "x.csv"
        code = main(command + ["--out", str(out)])
        assert code == 2
        assert "result slots" in one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["estimate", "simulate", "sweep"])
    @pytest.mark.parametrize("kind", ["directory", "trailing-separator", "empty"])
    def test_out_names_no_file(
        self, comonotone_file, tmp_path, capsys, monkeypatch, command, kind
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        monkeypatch.setattr(mc, "_pool_map", no_work)
        monkeypatch.setattr(cli, "load_pairs", no_work)
        out = {
            "directory": str(tmp_path),
            "trailing-separator": str(tmp_path / "x.csv") + "/",
            "empty": "",
        }[kind]
        argv = {
            "estimate": ["estimate", "--input", comonotone_file, "--p", "1.0"],
            "simulate": SIMULATE,
            "sweep": SWEEP,
        }[command]
        code = main(argv + ["--out", out])
        assert code == 2
        assert "must name a file" in one_error_line(capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    @pytest.mark.parametrize("command", [SIMULATE, SWEEP])
    def test_negative_seed_checked_before_simulating(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("replicates were scheduled")

        monkeypatch.setattr(mc, "_pool_map", no_pool)
        out = tmp_path / "x.csv"
        code = main(command + ["--seed", "-1", "--out", str(out)])
        assert code == 2
        assert "seed must be >= 0, got -1" in one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["estimate", "simulate", "sweep"])
    def test_unwritable_out_dir(self, comonotone_file, tmp_path, capsys, monkeypatch, command):
        # the tests may run as root, which ignores permission bits, so the
        # directory is made unwritable by answering os.access for it
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        real_access = os.access
        target = tmp_path / "locked"
        target.mkdir()

        def access(path, mode, **kwargs):
            if os.path.abspath(path) == str(target):
                return False
            return real_access(path, mode, **kwargs)

        monkeypatch.setattr(cli.os, "access", access)
        monkeypatch.setattr(mc, "_pool_map", no_work)
        monkeypatch.setattr(cli, "load_pairs", no_work)
        argv = {
            "estimate": ["estimate", "--input", comonotone_file, "--p", "1.0"],
            "simulate": SIMULATE,
            "sweep": SWEEP,
        }[command]
        code = main(argv + ["--out", str(target / "x.csv")])
        assert code == 2
        assert f"output directory {target} is not writable" in one_error_line(capsys)
        assert list(target.iterdir()) == []

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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--p", "2"], "(1e-06, 1]"),
            (["--p", "1e-7"], "(1e-06, 1]"),
            (["--p", "nan"], "(1e-06, 1]"),
            (["--p", "0.5", "--degree", "-3", "--method", "empirical"], "1..100000"),
            (["--p", "0.5", "--degree", "0"], "1..100000"),
        ],
    )
    def test_estimate_flags_checked_before_reading(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        def no_read(path):
            raise AssertionError("the input was read")

        monkeypatch.setattr(cli, "load_pairs", no_read)
        tied = write_file(tmp_path / "t.csv", "1,1\n1,2\n")  # would exit 3 if read
        code = main(["estimate", "--input", tied] + flags)
        assert code == 2
        assert message in one_error_line(capsys)


@pytest.mark.parametrize(
    "flag, value, commands, message",
    [
        ("--theta", "2", ("simulate", "sweep"), "theta=2.0 outside [-1, 1]"),
        ("--n", "0", ("simulate", "sweep"), "sample size n=0 must be >= 1 and <= 10000000"),
        ("--p", "2", ("simulate", "sweep", "estimate"), "threshold p=2.0 outside (1e-06, 1]"),
        ("--degree", "0", ("simulate", "estimate"), "degree m=0 outside 1..100000"),
        ("--reps", "0", ("simulate", "sweep"), "reps must be >= 1, got 0"),
    ],
    ids=["theta", "n", "p", "degree", "reps"],
)
def test_one_error_line_per_fault(comonotone_file, tmp_path, capsys, flag, value, commands, message):
    """Every command that takes a bad value words it the same way."""
    base = {
        "simulate": SIMULATE,
        "sweep": SWEEP,
        "estimate": ["estimate", "--input", comonotone_file, "--p", "0.5"],
    }
    for command in commands:
        argv = list(base[command])
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
        out = tmp_path / f"{command}.out"
        assert main(argv + ["--out", str(out)]) == 2, command
        assert one_error_line(capsys) == f"error: {message}\n", command
        assert not out.exists()


@pytest.mark.parametrize("command", [SIMULATE, ["estimate", "--input", "f", "--p", "0.5"]])
@pytest.mark.parametrize("degree", [[], ["--degree", "rule"], ["--degree", "rule_of_thumb"]])
def test_degree_rule_spelling(command, degree):
    out = [] if command[0] == "estimate" else ["--out", "x.csv"]
    assert build_parser().parse_args(command + degree + out).degree == "rule_of_thumb"


class TestWorkerFailure:
    """A replicate that raises ends the command with exit 1 and one line."""

    @pytest.fixture(autouse=True)
    def failing_sampler(self, monkeypatch):
        def from_uniforms(self, u, t):
            raise FloatingPointError("sampler broke")

        monkeypatch.setattr(FgmModel, "from_uniforms", from_uniforms)
        monkeypatch.setenv("TAILRHO_THREADS", "1")  # the patch lives in this process

    @pytest.mark.parametrize("command", [SIMULATE, SWEEP])
    def test_exit_one_without_output(self, tmp_path, capsys, command):
        out = tmp_path / "x.csv"
        code = main(command + ["--out", str(out)])
        assert code == 1
        err = one_error_line(capsys)
        assert "simulation cell (theta=0.5, n=20, p=0.5) failed: sampler broke" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, name",
    [
        (["asympt", "--theta", "0.5", "--p", "0.1", "--n", "200"], "asymptotic_report"),
        (["estimate", "--p", "1.0"], "rho_hat_bernstein"),
    ],
)
def test_computation_failure_exits_one(comonotone_file, capsys, monkeypatch, argv, name):
    def fail(*args, **kwargs):
        raise QuadratureError("no convergence")

    monkeypatch.setattr(cli, name, fail)
    if argv[0] == "estimate":
        argv = argv + ["--input", comonotone_file]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: no convergence\n")
