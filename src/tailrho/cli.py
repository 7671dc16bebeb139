"""Command-line front end: data ingestion, experiment orchestration, and
machine-readable outputs.

Exit codes: 0 success, 1 a simulation cell failed, 2 usage or parse errors,
3 data precondition failures (tied margins).  Bad flags are reported before
any input is read or any replicate runs.  Result files are plain
comma-separated text with a fixed header, written atomically (temp file, then
rename) so partial results never appear.  All commands are deterministic
given identical flags and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
import tempfile

import numpy as np

from . import mc
from .asympt import _asymptotic_report, rule_of_thumb_degree
from .copula import TiesError, jitter_margin, pseudo_observations
from .estimators import P_MIN, rho_hat_bernstein, rho_hat_empirical
from .fgm import FgmModel
from .special import MAX_DEGREE

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_DATA = 3

JITTER_SEED = 20_2408

SIMULATE_HEADER = (
    "theta,n,p,m,abs_bias_emp,abs_bias_bern,var_emp,var_bern,"
    "mse_emp,mse_bern,mse_reduction_pct"
)
SWEEP_HEADER = SIMULATE_HEADER.rsplit(",", 1)[0]


class DataFileError(ValueError):
    """Input file violates the two-column numeric format."""


def _fmt(value: float | None) -> str:
    """Six significant digits; the literal token NA for undefined values."""
    if value is None:
        return "NA"
    return f"{value:.6g}"


def load_pairs(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column numeric UTF-8 table: comma or whitespace separated,
    '#' starts a comment, blank lines ignored, at least two rows required."""
    xs: list[float] = []
    ys: list[float] = []
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise DataFileError(f"cannot open {path}: {exc}") from exc
    with handle:
        try:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.replace(",", " ").split()
                if len(parts) != 2:
                    raise DataFileError(
                        f"line {lineno}: expected two columns, got {len(parts)}"
                    )
                try:
                    x, y = float(parts[0]), float(parts[1])
                except ValueError as exc:
                    raise DataFileError(f"line {lineno}: {exc}") from exc
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise DataFileError(f"line {lineno}: non-finite value")
                xs.append(x)
                ys.append(y)
        except UnicodeDecodeError as exc:
            raise DataFileError(f"{path} is not UTF-8 text: {exc.reason}") from exc
    if len(xs) < 2:
        raise DataFileError(f"need at least 2 data rows, found {len(xs)}")
    return np.asarray(xs), np.asarray(ys)


def _write_atomic(path: str, lines: list[str]) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tailrho-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _bad_out(path: str | None) -> bool:
    """True, with a message on stderr, if `path` cannot become a result file:
    it names no file (empty, ends in a separator, or is a directory) or its
    directory is missing.  None means no --out was given."""
    if path is None:
        return False
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.basename(path) or os.path.isdir(path):
        print(f"error: --out {path!r} must name a file", file=sys.stderr)
    elif not os.path.isdir(directory):
        print(f"error: output directory {directory} does not exist", file=sys.stderr)
    else:
        return False
    return True


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}: {exc}") from exc


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}: {exc}") from exc


def _degree_arg(text: str) -> str | int:
    if text in ("rule", "rule_of_thumb"):
        return "rule_of_thumb"
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"degree must be an integer or 'rule', got {text!r}"
        ) from exc


def _summary_row(cell: mc.CellSummary, columns: int) -> str:
    """CSV row of the cell's first `columns` fields: ints as is, floats via _fmt."""
    fields = [getattr(cell, f.name) for f in dataclasses.fields(cell)][:columns]
    return ",".join(str(v) if isinstance(v, int) else _fmt(v) for v in fields)


def _run_and_write(out: str, run, header: str, noun: str) -> int:
    """Check `out`, call `run` for the summaries, write them as CSV under
    `header` (one column per header field), and report the file written.

    A ValueError from `run` is a usage error (exit 2), a RuntimeError a
    failed simulation cell (exit 1); either way no file is written.
    """
    if _bad_out(out):
        return EXIT_USAGE
    try:
        rows = run()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    columns = header.count(",") + 1
    _write_atomic(out, [header] + [_summary_row(row, columns) for row in rows])
    print(f"wrote {len(rows)} {noun} to {out}")
    return EXIT_OK


def _estimate_flag_error(args) -> str | None:
    """What is wrong with estimate's --p or a fixed --degree, if anything."""
    if not P_MIN < args.p <= 1.0:
        return f"threshold p={args.p} outside ({P_MIN:g}, 1]"
    if args.degree != "rule_of_thumb" and not 1 <= args.degree <= MAX_DEGREE:
        return f"degree m={args.degree} outside 1..{MAX_DEGREE}"
    return None


def cmd_estimate(args) -> int:
    problem = _estimate_flag_error(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    if _bad_out(args.out):
        return EXIT_USAGE
    try:
        x, y = load_pairs(args.input)
    except DataFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.jitter:
        rng = np.random.default_rng(JITTER_SEED)
        x = jitter_margin(x, rng)
        y = jitter_margin(y, rng)
    try:
        ps = pseudo_observations(x, y)
    except TiesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: rerun with --jitter to break ties", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    lines = [f"n = {ps.n}", f"p = {_fmt(args.p)}"]
    try:
        if args.method in ("bernstein", "both"):
            m = rule_of_thumb_degree(ps.n) if args.degree == "rule_of_thumb" else args.degree
            lines.append(f"m = {m}")
        if args.method in ("empirical", "both"):
            emp = rho_hat_empirical(ps, args.p)
            lines.append(f"rho_empirical = {_fmt(emp.value)}")
        if args.method in ("bernstein", "both"):
            bern = rho_hat_bernstein(ps, args.p, m)
            lines.append(f"rho_bernstein = {_fmt(bern.value)}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = "\n".join(lines)
    print(report)
    if args.out:
        _write_atomic(args.out, lines)
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        config = mc.ExperimentConfig(
            thetas=args.theta,
            ns=args.n,
            ps=args.p,
            degree_rule=args.degree,
            reps=args.reps,
            seed=args.seed,
        )
        workers = mc.resolve_workers()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    run = functools.partial(mc.run_table, config, workers=workers)
    return _run_and_write(args.out, run, SIMULATE_HEADER, "cells")


def cmd_sweep(args) -> int:
    run = functools.partial(
        mc.degree_sweep, args.theta, args.n, args.p, 1, args.m_max, reps=args.reps, seed=args.seed
    )
    return _run_and_write(args.out, run, SWEEP_HEADER, "degrees")


def cmd_asympt(args) -> int:
    try:
        model = FgmModel(args.theta)
        report = _asymptotic_report(model, args.p, args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # for this family the bias coefficient integrates to -2 * tail rho
    bias_closed = -2.0 * model.rho_tail_analytic(args.p)
    print(f"theta = {_fmt(args.theta)}")
    print(f"p = {_fmt(args.p)}")
    print(f"n = {args.n}")
    print(f"bias integral (closed form) = {_fmt(bias_closed)}")
    print(f"bias integral (quadrature) = {_fmt(report.bias_term)}")
    print(f"variance-gain integral = {_fmt(report.gain_term)}")
    if report.m_opt is None:
        print("optimal degree = undefined (bias term vanishes; using rule of thumb)")
    else:
        print(f"optimal degree = {_fmt(report.m_opt)} (floored: {report.degree})")
    print(f"rule-of-thumb degree = {report.rule_degree}")
    for label, m in (("optimal", report.degree), ("rule-of-thumb", report.rule_degree)):
        diff = report.expansion(m).difference
        print(f"expansion MSE difference at {label} degree m={m}: {_fmt(diff)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailrho",
        description=(
            "Lower-tail Spearman's rho via the empirical copula and its "
            "Bernstein-smoothed version, plus a Monte Carlo comparison engine."
        ),
        epilog=(
            "Values starting with a dash must use the equals form, "
            "e.g. --theta=-1,-0.5,0,0.5,1."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate tail rho from a data file")
    est.add_argument("--input", required=True, help="two-column numeric file")
    est.add_argument("--p", type=float, required=True, help="tail threshold in (0, 1]")
    est.add_argument(
        "--method",
        choices=("both", "empirical", "bernstein"),
        default="both",
    )
    est.add_argument(
        "--degree",
        type=_degree_arg,
        default="rule",
        help="Bernstein degree: an integer or 'rule' for floor(n^(2/3))",
    )
    est.add_argument(
        "--jitter",
        action="store_true",
        help="break ties with seeded uniform noise of half the smallest gap",
    )
    est.add_argument("--out", default=None, help="also write the report to this file")
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", help="run a simulation grid, write CSV")
    sim.add_argument("--theta", type=_float_list, required=True, metavar="LIST")
    sim.add_argument("--n", type=_int_list, required=True, metavar="LIST")
    sim.add_argument("--p", type=_float_list, required=True, metavar="LIST")
    sim.add_argument("--reps", type=int, default=mc.DEFAULT_REPS)
    sim.add_argument("--seed", type=int, default=mc.DEFAULT_SEED)
    sim.add_argument("--degree", type=_degree_arg, default="rule",
                     help="fixed integer degree (default: rule of thumb)")
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    swp = sub.add_parser("sweep", help="sweep the Bernstein degree, write CSV")
    swp.add_argument("--theta", type=float, required=True)
    swp.add_argument("--n", type=int, required=True)
    swp.add_argument("--p", type=float, required=True)
    swp.add_argument("--m-max", type=int, required=True, dest="m_max")
    swp.add_argument("--reps", type=int, default=mc.DEFAULT_REPS)
    swp.add_argument("--seed", type=int, default=mc.DEFAULT_SEED)
    swp.add_argument("--out", required=True)
    swp.set_defaults(func=cmd_sweep)

    asy = sub.add_parser("asympt", help="print expansion quantities for a setting")
    asy.add_argument("--theta", type=float, required=True)
    asy.add_argument("--p", type=float, required=True)
    asy.add_argument("--n", type=int, required=True)
    asy.set_defaults(func=cmd_asympt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
