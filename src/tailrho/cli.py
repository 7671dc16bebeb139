"""Command-line front end: data ingestion, experiment orchestration, and
machine-readable outputs.

Exit codes: 0 success, 2 usage or parse errors, 3 data precondition failures
(tied margins).  Result files are plain comma-separated text with a fixed
header, written atomically (temp file, then rename) so partial results never
appear.  All commands are deterministic given identical flags and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import tempfile

import numpy as np

from . import mc
from .asympt import (
    DegenerateBiasError,
    MseExpansion,
    balancing_degree,
    corner_integrals,
    rule_of_thumb_degree,
)
from .copula import TiesError, jitter_margin, pseudo_observations
from .estimators import rho_hat_bernstein, rho_hat_empirical
from .fgm import FgmModel

EXIT_OK = 0
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
    """Read a two-column numeric table: comma or whitespace separated,
    '#' starts a comment, blank lines ignored, at least two rows required."""
    xs: list[float] = []
    ys: list[float] = []
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise DataFileError(f"cannot open {path}: {exc}") from exc
    with handle:
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


def _missing_out_dir(path: str | None) -> bool:
    """True, with a message on stderr, if the directory of `path` is missing."""
    directory = os.path.dirname(os.path.abspath(path)) if path else os.curdir
    missing = not os.path.isdir(directory)
    if missing:
        print(f"error: output directory {directory} does not exist", file=sys.stderr)
    return missing


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


def _summary_row(cell: mc.CellSummary, with_reduction: bool) -> str:
    """CSV row of the cell's fields in order: ints as is, floats via _fmt."""
    fields = dataclasses.astuple(cell)[: None if with_reduction else -1]
    return ",".join(str(v) if isinstance(v, int) else _fmt(v) for v in fields)


def cmd_estimate(args) -> int:
    if _missing_out_dir(args.out):
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
    if _missing_out_dir(args.out):
        return EXIT_USAGE
    summaries = mc.run_table(config, workers=workers)
    lines = [SIMULATE_HEADER]
    lines += [_summary_row(cell, with_reduction=True) for cell in summaries]
    _write_atomic(args.out, lines)
    print(f"wrote {len(summaries)} cells to {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if _missing_out_dir(args.out):
        return EXIT_USAGE
    try:
        rows = mc.degree_sweep(
            args.theta,
            args.n,
            args.p,
            1,
            args.m_max,
            reps=args.reps,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    lines = [SWEEP_HEADER]
    lines += [_summary_row(cell, with_reduction=False) for cell in rows]
    _write_atomic(args.out, lines)
    print(f"wrote {len(rows)} degrees to {args.out}")
    return EXIT_OK


def cmd_asympt(args) -> int:
    try:
        model = FgmModel(args.theta)
        rule_m = rule_of_thumb_degree(args.n)
        # for this family the bias coefficient integrates to -2 * tail rho
        bias_closed = -2.0 * model.rho_tail_analytic(args.p)
        bias_quad, gain_quad = corner_integrals(model, args.p)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"theta = {_fmt(args.theta)}")
    print(f"p = {_fmt(args.p)}")
    print(f"n = {args.n}")
    print(f"bias integral (closed form) = {_fmt(bias_closed)}")
    print(f"bias integral (quadrature) = {_fmt(bias_quad)}")
    print(f"variance-gain integral = {_fmt(gain_quad)}")
    try:
        m_opt = balancing_degree(bias_quad, gain_quad, args.n)
        m_star = max(1, math.floor(m_opt))
        print(f"optimal degree = {_fmt(m_opt)} (floored: {m_star})")
    except DegenerateBiasError:
        m_star = rule_m
        print("optimal degree = undefined (bias term vanishes; using rule of thumb)")
    print(f"rule-of-thumb degree = {rule_m}")
    for label, m in (("optimal", m_star), ("rule-of-thumb", rule_m)):
        diff = MseExpansion.from_integrals(bias_quad, gain_quad, args.n, m).difference
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
