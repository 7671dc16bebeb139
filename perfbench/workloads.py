"""The workloads, each a stream of tailrho CLI commands with an oracle.

A workload hands out one command at a time (`next_command`); the closed loop
in `closed_loop` runs it through `tailrho.cli.main` in-process and starts the
next one only when the previous one has returned.  Each command carries a
`check` that reads the command's output and returns how many of its
operations (cells, sweep rows, estimates, reports) are wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from oracles import (
    NullCell,
    bernstein_scores,
    close,
    empirical_scores,
    rank_statistic,
    rho_tail_fgm,
    rule_degree,
    summary_consistent,
)

GRID_THETAS = (-1.0, -0.5, 0.0, 0.5, 1.0)
GRID_NS = (50, 200)
GRID_PS = (0.1, 0.5, 1.0)
# The acceptance grid in output order: theta-major, then n, then p.
REFERENCE_CELLS = [(t, n, p) for t in GRID_THETAS for n in GRID_NS for p in GRID_PS]
GRID_REPS = 100

SWEEP_THETA, SWEEP_N, SWEEP_P, SWEEP_M_MAX = 0.0, 200, 0.5, 60
SWEEP_REPS = 100

LARGE_N = 200_000
LARGE_FILES = 3
LARGE_P = 0.1


def _csv_list(values) -> str:
    return ",".join(f"{v:g}" for v in values)


@dataclass
class Command:
    argv: list[str]
    units: int  # work units the command completes (replicates, rows, reports)
    ops: int  # operations checked (cells, sweep rows, estimates, reports)
    check: Callable[[str], int]  # captured stdout -> number of wrong operations


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    digests: list[str] = field(default_factory=list)

    def add(self, ops: int, failed: int) -> None:
        self.attempted += ops
        self.failed += failed

    def fingerprint(self) -> str:
        """SHA-256 over the ordered SHA-256 digests of every CSV written."""
        return hashlib.sha256("".join(self.digests).encode()).hexdigest()


def _read_rows(path: Path, header_fields: int, tally: Tally) -> list[list[str]]:
    data = path.read_bytes()
    tally.digests.append(hashlib.sha256(data).hexdigest())
    lines = data.decode("utf-8").splitlines()
    if not lines or len(lines[0].split(",")) != header_fields:
        raise ValueError("unexpected CSV header")
    return [line.split(",") for line in lines[1:]]


def _summary_ok(fields: list[str], reps: int) -> bool:
    """Both estimators' (bias, var, mse) triples are mutually consistent."""
    bias_e, bias_b, var_e, var_b, mse_e, mse_b = map(float, fields[4:10])
    return summary_consistent(reps, bias_e, var_e, mse_e) and summary_consistent(
        reps, bias_b, var_b, mse_b
    )


def _null_ok(fields: list[str], reps: int, emp: NullCell, bern: NullCell) -> bool:
    bias_e, bias_b, _, _, mse_e, mse_b = map(float, fields[4:10])
    return emp.check(reps, bias_e, mse_e) and bern.check(reps, bias_b, mse_b)


class Grid:
    """`simulate` on the 30-cell reference grid, cell-level worker pool."""

    name = "grid"
    unit = "replicates"

    def __init__(self, rng: np.random.Generator, workdir: Path, tally: Tally) -> None:
        self.rng = rng
        self.out = workdir / "grid.csv"
        self.tally = tally
        self.nulls = {
            (n, p): (
                NullCell(empirical_scores(n, n + 1, p), p),
                NullCell(bernstein_scores(n, n + 1, p, rule_degree(n)), p),
            )
            for n in GRID_NS
            for p in GRID_PS
        }

    def next_command(self) -> Command:
        seed = int(self.rng.integers(2**31))
        argv = [
            "simulate", f"--theta={_csv_list(GRID_THETAS)}",
            "--n", _csv_list(GRID_NS), "--p", _csv_list(GRID_PS),
            "--reps", str(GRID_REPS), "--seed", str(seed), "--out", str(self.out),
        ]
        return Command(argv, len(REFERENCE_CELLS) * GRID_REPS, len(REFERENCE_CELLS), self.check)

    def _row_ok(self, fields: list[str], cell: tuple[float, int, float]) -> bool:
        theta, n, p = cell
        if len(fields) != 11 or (float(fields[0]), int(fields[1]), float(fields[2])) != cell:
            return False
        if int(fields[3]) != rule_degree(n) or not _summary_ok(fields, GRID_REPS):
            return False
        mse_e, mse_b, reduction = float(fields[8]), float(fields[9]), float(fields[10])
        if abs(reduction - 100.0 * (1.0 - mse_b / mse_e)) > 1e-3 * (1.0 + abs(reduction)):
            return False
        return theta != 0.0 or _null_ok(fields, GRID_REPS, *self.nulls[(n, p)])

    def check(self, stdout: str) -> int:
        rows = _read_rows(self.out, 11, self.tally)
        if len(rows) != len(REFERENCE_CELLS):
            return len(REFERENCE_CELLS)
        return sum(not self._row_ok(f, c) for f, c in zip(rows, REFERENCE_CELLS))


class Sweep:
    """`sweep` over degrees 1..60 at theta = 0, replicate-block worker pool."""

    name = "sweep"
    unit = "replicates"

    def __init__(self, rng: np.random.Generator, workdir: Path, tally: Tally) -> None:
        self.rng = rng
        self.out = workdir / "sweep.csv"
        self.tally = tally
        self.emp_null = NullCell(empirical_scores(SWEEP_N, SWEEP_N + 1, SWEEP_P), SWEEP_P)
        self.bern_nulls = [
            NullCell(bernstein_scores(SWEEP_N, SWEEP_N + 1, SWEEP_P, m), SWEEP_P)
            for m in range(1, SWEEP_M_MAX + 1)
        ]

    def next_command(self) -> Command:
        seed = int(self.rng.integers(2**31))
        argv = [
            "sweep", f"--theta={SWEEP_THETA:g}", "--n", str(SWEEP_N), "--p", f"{SWEEP_P:g}",
            "--m-max", str(SWEEP_M_MAX), "--reps", str(SWEEP_REPS),
            "--seed", str(seed), "--out", str(self.out),
        ]
        return Command(argv, SWEEP_REPS, SWEEP_M_MAX, self.check)

    def _row_ok(self, fields: list[str], m: int) -> bool:
        if len(fields) != 10:
            return False
        if (float(fields[0]), int(fields[1]), float(fields[2]), int(fields[3])) != (
            SWEEP_THETA, SWEEP_N, SWEEP_P, m
        ):
            return False
        return _summary_ok(fields, SWEEP_REPS) and _null_ok(
            fields, SWEEP_REPS, self.emp_null, self.bern_nulls[m - 1]
        )

    def check(self, stdout: str) -> int:
        rows = _read_rows(self.out, 10, self.tally)
        if len(rows) != SWEEP_M_MAX:
            return SWEEP_M_MAX
        return sum(not self._row_ok(f, m) for m, f in enumerate(rows, start=1))


def write_pairs(rng: np.random.Generator, path: Path, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Write n tie-free pairs with Gaussian dependence and skewed margins.

    Values are written with 17 significant digits, so the file parses back
    to exactly the returned arrays.
    """
    while True:
        rho = rng.uniform(0.2, 0.8)
        z = rng.standard_normal((n, 2))
        x = np.exp(z[:, 0])
        y = 3.0 * (rho * z[:, 0] + np.sqrt(1.0 - rho * rho) * z[:, 1]) + 1.0
        if np.unique(x).size == n and np.unique(y).size == n:
            break
    header = f"generated pairs, n={n}, gaussian dependence rho={rho:.3f}"
    np.savetxt(path, np.column_stack((x, y)), fmt="%.17g", delimiter=",", header=header)
    return x, y


def _ranks(values: np.ndarray) -> np.ndarray:
    ranks = np.empty(values.size, dtype=np.int64)
    ranks[np.argsort(values)] = np.arange(1, values.size + 1)
    return ranks


def _report(stdout: str) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)
    return {key: value for key, value in pairs}


class EstimateLarge:
    """`estimate --p 0.1` on benchmark-generated files of 200000 rows."""

    name = "estimate-large"
    unit = "rows"

    def __init__(self, rng: np.random.Generator, workdir: Path, tally: Tally) -> None:
        self.m = rule_degree(LARGE_N)
        emp_scores = empirical_scores(LARGE_N, LARGE_N, LARGE_P)
        bern_scores = bernstein_scores(LARGE_N, LARGE_N, LARGE_P, self.m)
        self.files = []
        for index in range(LARGE_FILES):
            path = workdir / f"pairs-{index}.csv"
            x, y = write_pairs(rng, path, LARGE_N)
            rx, ry = _ranks(x), _ranks(y)
            expected = (
                rank_statistic(emp_scores, rx, ry, LARGE_P),
                rank_statistic(bern_scores, rx, ry, LARGE_P),
            )
            self.files.append((path, expected))
        self.count = 0

    def next_command(self) -> Command:
        path, expected = self.files[self.count % LARGE_FILES]
        self.count += 1
        argv = ["estimate", "--input", str(path), "--p", f"{LARGE_P:g}"]
        return Command(argv, LARGE_N, 2, lambda stdout: self.check(stdout, expected))

    def check(self, stdout: str, expected: tuple[float, float]) -> int:
        report = _report(stdout)
        header = (report.get("n"), report.get("m"), report.get("p"))
        if header != (str(LARGE_N), str(self.m), f"{LARGE_P:g}"):
            return 2
        emp = float(report.get("rho_empirical", "nan"))
        bern = float(report.get("rho_bernstein", "nan"))
        return int(not close(emp, expected[0])) + int(not close(bern, expected[1]))


def asympt_command(theta: float, n: int, p: float) -> Command:
    """One `asympt` report, checked against the closed-form bias integral."""
    argv = ["asympt", f"--theta={theta:g}", "--p", f"{p:g}", "--n", str(n)]
    return Command(argv, 1, 1, lambda stdout: asympt_errors(stdout, theta, p))


def asympt_errors(stdout: str, theta: float, p: float) -> int:
    report = _report(stdout)
    closed = -2.0 * rho_tail_fgm(theta, p)
    quad = float(report.get("bias integral (quadrature)", "nan"))
    printed_closed = float(report.get("bias integral (closed form)", "nan"))
    if not (close(quad, closed, atol=1e-9) and close(printed_closed, closed, atol=1e-15)):
        return 1
    degree = report.get("optimal degree", "")
    # theta = 0 has a vanishing bias term: the CLI reports DegenerateBiasError
    if (theta == 0.0) != degree.startswith("undefined"):
        return 1
    return int(stdout.count("expansion MSE difference") != 2)


WORKLOADS = {w.name: w for w in (Grid, Sweep, EstimateLarge)}


def run_command(cli_main, command: Command) -> tuple[float, int]:
    """Run one command in-process; returns (seconds, wrong operations)."""
    captured = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli_main(command.argv)
    except (Exception, SystemExit):
        traceback.print_exc()
        return perf_counter() - start, command.ops
    elapsed = perf_counter() - start
    if code != 0:
        print(f"exit code {code}: {' '.join(command.argv)}", file=sys.stderr)
        return elapsed, command.ops
    try:
        failed = command.check(captured.getvalue())
    except (ValueError, OSError, KeyError):
        traceback.print_exc()
        failed = command.ops
    if failed:
        print(f"{failed} wrong of {command.ops}: {' '.join(command.argv)}", file=sys.stderr)
    return elapsed, failed


def closed_loop(workload, cli_main, seconds: float, tally: Tally) -> tuple[list[float], int]:
    """Issue commands back to back for `seconds`; returns latencies and units."""
    latencies: list[float] = []
    units = 0
    deadline = perf_counter() + seconds
    while not latencies or perf_counter() < deadline:
        command = workload.next_command()
        elapsed, failed = run_command(cli_main, command)
        tally.add(command.ops, failed)
        latencies.append(elapsed)
        units += command.units
    return latencies, units


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with 10 samples beyond it.

    Below 100 samples that percentile would fall under the 90th, so the 90th
    stands in, with fewer samples beyond it.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    if count >= 100:
        return ordered[count - 11], 100.0 * (count - 10) / count
    return ordered[-(-9 * count // 10) - 1], 90.0


def end_to_end(latencies: list[float], units: int) -> dict[str, float]:
    return {
        "throughput_per_s": units / sum(latencies),
        "cmd_ms_p50": 1e3 * statistics.median(latencies),
        "cmd_ms_tail": 1e3 * tail(latencies)[0],
    }
