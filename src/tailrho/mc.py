"""Seeded, parallel Monte Carlo engine comparing the empirical and
Bernstein-smoothed tail-rho estimators under the FGM model.

Determinism contract: the replicates of a cell are cut into stream chunks
of STREAM = 64.  Chunk c of cell k owns one generator, derived statelessly
from (seed, k, c) via SeedSequence spawn keys, and it draws, for each of
its replicates in order, u (n values) and then t (n values).  Replicate
results land in preallocated slot arrays by index, every step after the
draws treats each replicate on its own, and all reductions run in fixed
index order with compensated summation.  Output is therefore bit-identical
for any worker count, any scheduling order, any chunk size and any BLAS
thread count (no step calls BLAS); powers are written as products, so the
C library's `pow` plays no part either.  STREAM is part of the numbers, not
a tuning knob: changing it changes every result.

A replicate block starts at a multiple of STREAM and fills each kernel
chunk's uniforms with one draw per stream chunk it meets; a stream chunk
longer than a kernel chunk carries its generator on to the next one.  The
kernel works on chunks of at most max(1, CHUNK // n) replicates at once: the
FGM inversion, the ranks and their checks, and one rank statistic per score
table (see `estimators`) run over (rows, n) arrays, so a replicate's value
is the one `sample`, `pseudo_observations` and `rho_hat_*` give on its
stream; the chunk only bounds memory to O(CHUNK) floats per array plus one
degree's tail weights.

Every entry point (a grid, one cell, a degree sweep) runs its cells as
replicate blocks on one path.  A job whose estimated work (reps * n *
(RANK_COST + score tables), summed over its cells; no clock) is below
POOL_MIN_WORK runs in this process, one block per cell, since a
process pool costs more to start than such a job takes.  A larger job cuts
its cells into about four blocks per process and sends all of them through
one process pool, so a single cell uses every CPU too.  Either way the
summaries are reduced in this process, and the numbers do not depend on
the choice.  Worker count: pass `workers` explicitly, or set
TAILRHO_THREADS (0 or unset means one worker per usable CPU).  No more
processes start than the CPUs this process may run on.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .asympt import rule_of_thumb_degree
from .copula import _margin_ranks
from .estimators import P_MIN, bernstein_scores, empirical_scores, rank_integral, tail_rho
from .fgm import FgmModel
from .special import MAX_DEGREE, tail_weights

__all__ = [
    "DEFAULT_REPS",
    "DEFAULT_SEED",
    "MAX_N",
    "ExperimentConfig",
    "CellSummary",
    "resolve_workers",
    "run_cell",
    "run_table",
    "degree_sweep",
]

DEFAULT_REPS = 10_000
DEFAULT_SEED = 42

# Largest sample size accepted, checked before any work.  It bounds the
# kernel's (rows, n) arrays, one row apiece once n exceeds CHUNK (80 MB each
# at the cap), and its rule-of-thumb degree floor(n^(2/3)) = 46415 stays
# below MAX_DEGREE.
MAX_N = 10_000_000

# Elements per (rows, n) array of the replicate kernel: it works on
# max(1, CHUNK // n) replicates at a time.  Each row is computed on its own,
# so the chunk size bounds memory and changes no value.
CHUNK = 2**16

# Replicates per random stream (see the module docstring).  A replicate
# block must start at a multiple of it.
STREAM = 64

# The pool rule (see `_processes`).  A job's work is estimated, with no
# clock, as the sum over its cells of reps * n * (RANK_COST + score tables):
# one unit is one sample value's share of a rank integral over one score
# table, and RANK_COST prices the draws, the FGM inversion and the ranks in
# those units.  A job below POOL_MIN_WORK units runs in this process, since
# starting a process pool would cost more than it saves.  Both are measured
# on a 2-CPU x86-64 machine: RANK_COST from the kernel's time per replicate
# with 0 and 60 score tables (15-25 at n = 50, 200 and 1000), and
# POOL_MIN_WORK where two processes started to beat one (1.0-1.8e7 units,
# about 100 ms of work, for grids, single cells and sweeps).
RANK_COST = 20
POOL_MIN_WORK = 15 * 10**6

# Most result values (reps x score tables, summed over the cells) a job may
# ask for: 800 MB of float64.
MAX_SLOTS = 10**8

THREADS_ENV = "TAILRHO_THREADS"


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid of simulation cells: one cell per (theta, n, p) combination.

    degree_rule is either the string "rule_of_thumb" (degree floor(n^(2/3)))
    or a fixed integer degree applied to every cell.
    """

    thetas: tuple[float, ...]
    ns: tuple[int, ...]
    ps: tuple[float, ...]
    degree_rule: str | int = "rule_of_thumb"
    reps: int = DEFAULT_REPS
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        object.__setattr__(self, "ns", tuple(int(n) for n in self.ns))
        object.__setattr__(self, "ps", tuple(float(p) for p in self.ps))
        if not self.thetas or not self.ns or not self.ps:
            raise ValueError("thetas, ns and ps must all be nonempty")
        if not all(abs(t) <= 1.0 for t in self.thetas):  # NaN fails too
            raise ValueError("every theta must lie in [-1, 1]")
        if any(not 1 <= n <= MAX_N for n in self.ns):
            raise ValueError(f"every sample size must be >= 1 and <= {MAX_N}")
        if any(not P_MIN < p <= 1.0 for p in self.ps):
            raise ValueError(f"every threshold must lie in ({P_MIN:g}, 1]")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if isinstance(self.degree_rule, str):
            if self.degree_rule != "rule_of_thumb":
                raise ValueError(f"unknown degree rule {self.degree_rule!r}")
        elif not 1 <= self.degree_rule <= MAX_DEGREE:
            raise ValueError(f"fixed degree {self.degree_rule} outside 1..{MAX_DEGREE}")

    def degree_for(self, n: int) -> int:
        if self.degree_rule == "rule_of_thumb":
            return rule_of_thumb_degree(n)
        return int(self.degree_rule)

    def cells(self) -> list[tuple[float, int, float]]:
        """Grid in output order: theta-major, then n, then p."""
        return [(t, n, p) for t in self.thetas for n in self.ns for p in self.ps]


@dataclass(frozen=True)
class CellSummary:
    """Replicate summaries for one cell, both estimators against the truth.

    var_* use the (K-1)-divisor sample variance and are None for a single
    replicate; mse_* average squared deviations from the true tail rho, so
    mse == var*(K-1)/K + bias^2 holds to rounding.  mse_reduction_pct is
    100*(1 - mse_bern/mse_emp), None when mse_emp is zero.
    """

    theta: float
    n: int
    p: float
    m: int
    abs_bias_emp: float
    abs_bias_bern: float
    var_emp: float | None
    var_bern: float | None
    mse_emp: float
    mse_bern: float
    mse_reduction_pct: float | None


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument, else TAILRHO_THREADS (0 = one per
    usable CPU).  Returned as requested; `_pool_map` caps the processes."""
    if workers is None:
        raw = os.environ.get(THREADS_ENV, "0")
        try:
            workers = int(raw)
        except ValueError as exc:
            raise ValueError(f"{THREADS_ENV}={raw!r} is not an integer") from exc
    if workers < 0:
        raise ValueError(f"worker count {workers} must be >= 0")
    return workers or _usable_cpus()


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_map(fn, tasks: list, workers: int) -> list:
    """[fn(task) for task in tasks], in a pool of at most `workers` processes,
    one per task and one per usable CPU; in this process if that is one."""
    workers = min(workers, len(tasks), _usable_cpus())
    if workers <= 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _processes(cells: list[tuple], reps: int, workers: int) -> int:
    """Processes a job runs on: one if its estimated work (see RANK_COST) is
    below POOL_MIN_WORK, else `workers` capped at the usable CPUs."""
    work = reps * sum(n * (RANK_COST + 1 + len(m)) for _, n, _, m, _ in cells)
    if work < POOL_MIN_WORK:
        return 1
    return min(workers, _usable_cpus())


def _replicate_block(args) -> tuple[np.ndarray, np.ndarray]:
    """Run replicates [start, stop) of one cell; returns their values in order.

    start must be a multiple of STREAM.  The replicates run in kernel chunks
    of max(1, CHUNK // n).  A chunk's (rows, 2, n) uniforms (u, then t, of
    each replicate) take one draw per stream chunk it meets; a stream's
    generator carries over into the next kernel chunk.  Then come the FGM
    inversion, the ranks with their finite and tie checks (the
    boundary-avoiding rank/(n+1) scaling standard rank-copula software
    applies), and one rank integral per score table.  The tables (empirical,
    then one per requested degree) are built one at a time from their tail
    weights, so memory does not grow with the number of degrees, and the
    same sample serves all degrees (common random numbers).  A failure is
    re-raised with the cell's (theta, n, p) attached.
    """
    (theta, n, p, m_values, cell_index), seed, start, stop = args
    if start % STREAM:
        raise ValueError(f"replicate block starts at {start}, not a multiple of STREAM={STREAM}")
    try:
        model = FgmModel(theta)
        integrals = np.empty((stop - start, 1 + len(m_values)))
        rows = max(1, CHUNK // n)
        for lo in range(start, stop, rows):
            hi = min(lo + rows, stop)
            draws = np.empty((hi - lo, 2, n))
            cuts = [lo, *range((lo // STREAM + 1) * STREAM, hi, STREAM), hi]
            for a, b in zip(cuts, cuts[1:]):
                if a % STREAM == 0:
                    seq = np.random.SeedSequence(seed, spawn_key=(cell_index, a // STREAM))
                    rng = np.random.default_rng(seq)
                rng.random(out=draws[a - lo : b - lo])
            u, t = draws[:, 0], draws[:, 1]
            rx, ry = _margin_ranks(u, model.from_uniforms(u, t))
            chunk = integrals[lo - start : hi - start]
            chunk[:, 0] = rank_integral(rx, ry, empirical_scores(p, n + 1))
            for j, m in enumerate(m_values, 1):
                scores = bernstein_scores(tail_weights(p, m), n + 1)
                chunk[:, j] = rank_integral(rx, ry, scores)
        values = tail_rho(integrals, p)
    except Exception as exc:
        raise RuntimeError(
            f"simulation cell (theta={theta}, n={n}, p={p}) failed: {exc}"
        ) from exc
    return values[:, 0], values[:, 1:]


def _true_rho(theta: float, n: int, p: float) -> float:
    """Check one cell's inputs; returns its true tail rho."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"sample size n={n} must be >= 1 and <= {MAX_N}")
    return FgmModel(theta).rho_tail_analytic(p)  # checks theta and p


def _simulate(
    cells: list[tuple], reps: int, seed: int, workers: int
) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """(true rho, emp, bern) of every cell, in cell order.

    A cell is (theta, n, p, m_values, cell_index); bern has one column per
    degree in m_values.  Every cell, and the job's MAX_SLOTS bound, is
    checked before any work.  A job that runs in this process (see
    `_processes`) makes one block per cell, so
    each score table is built once per kernel chunk.  A pooled job cuts each
    cell into replicate blocks, about four per process for the whole job,
    rounded up to a multiple of STREAM and never spanning two cells.  Each
    block's values land in its cell's slots.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    slots = reps * sum(1 + len(m_values) for _, _, _, m_values, _ in cells)
    if slots > MAX_SLOTS:
        raise ValueError(f"{slots} result slots (reps x score tables) exceed {MAX_SLOTS}")
    truths = [_true_rho(theta, n, p) for theta, n, p, _, _ in cells]
    processes = _processes(cells, reps, workers)
    if processes == 1:
        block = reps
    else:
        block = -(-reps * len(cells) // (4 * processes))
        block = min(reps, -(-block // STREAM) * STREAM)
    spans = [
        (k, start, min(start + block, reps))
        for k in range(len(cells))
        for start in range(0, reps, block)
    ]
    tasks = [(cells[k], seed, start, stop) for k, start, stop in spans]
    emps = [np.empty(reps) for _ in cells]
    berns = [np.empty((reps, len(cell[3]))) for cell in cells]
    blocks = _pool_map(_replicate_block, tasks, processes)
    for (k, start, stop), (emp, bern) in zip(spans, blocks):
        emps[k][start:stop] = emp
        berns[k][start:stop] = bern
    return list(zip(truths, emps, berns))


def _stats(x: np.ndarray, true_rho: float) -> tuple[float, float | None, float]:
    """(|bias|, variance, mse) of one estimator's replicate values, reduced
    in index order with math.fsum."""
    reps = x.size
    # Squares are IEEE products (numpy's d*d rounds like Python's), the same
    # everywhere; Python's d**2 calls the C library's pow, whose last bit
    # differs between platforms.
    mean = math.fsum(x.tolist()) / reps
    dev = x - mean
    err = x - true_rho
    sq_dev = math.fsum((dev * dev).tolist())
    sq_err = math.fsum((err * err).tolist())
    var = sq_dev / (reps - 1) if reps > 1 else None
    return abs(mean - true_rho), var, sq_err / reps


def _summary(theta: float, n: int, p: float, m: int, emp: tuple, bern: tuple) -> CellSummary:
    """One cell's summary from the `_stats` of both estimators."""
    (bias_e, var_e, mse_e), (bias_b, var_b, mse_b) = emp, bern
    reduction = 100.0 * (1.0 - mse_b / mse_e) if mse_e > 0.0 else None
    return CellSummary(theta, n, p, m, bias_e, bias_b, var_e, var_b, mse_e, mse_b, reduction)


def run_cell(
    theta: float,
    n: int,
    p: float,
    m: int,
    reps: int = DEFAULT_REPS,
    seed: int = DEFAULT_SEED,
    *,
    cell_index: int = 0,
    workers: int | None = None,
) -> CellSummary:
    """Simulate one (theta, n, p, m) cell and summarize both estimators: the
    one-degree `degree_sweep`."""
    return degree_sweep(theta, n, p, m, m, reps, seed, cell_index=cell_index, workers=workers)[0]


def run_table(config: ExperimentConfig, *, workers: int | None = None) -> list[CellSummary]:
    """Run every cell of the grid; rows come back in grid order.

    A cell failure is re-raised with the offending (theta, n, p) attached.
    Each cell's replicates use streams keyed by its grid position, so the
    output is independent of how the replicate blocks are distributed.
    """
    workers = resolve_workers(workers)
    cells = [
        (theta, n, p, [config.degree_for(n)], index)
        for index, (theta, n, p) in enumerate(config.cells())
    ]
    values = _simulate(cells, config.reps, config.seed, workers)
    return [
        _summary(theta, n, p, m, _stats(emp, true_rho), _stats(bern[:, 0], true_rho))
        for (theta, n, p, [m], _), (true_rho, emp, bern) in zip(cells, values)
    ]


def degree_sweep(
    theta: float,
    n: int,
    p: float,
    m_min: int,
    m_max: int,
    reps: int = DEFAULT_REPS,
    seed: int = DEFAULT_SEED,
    *,
    cell_index: int = 0,
    workers: int | None = None,
) -> list[CellSummary]:
    """Summaries for every degree m_min..m_max at one (theta, n, p).

    All degrees see the same replicate samples (common random numbers), so
    the per-degree curves vary only through m; the empirical summary,
    reduced once, is repeated on every row for plotting convenience.
    """
    if not 1 <= m_min <= m_max <= MAX_DEGREE:
        raise ValueError(f"need 1 <= m_min <= m_max <= {MAX_DEGREE}, got {m_min}..{m_max}")
    workers = resolve_workers(workers)
    m_values = list(range(m_min, m_max + 1))
    [(true_rho, emp, bern)] = _simulate([(theta, n, p, m_values, cell_index)], reps, seed, workers)
    emp_stats = _stats(emp, true_rho)
    return [
        _summary(theta, n, p, m, emp_stats, _stats(bern[:, j], true_rho))
        for j, m in enumerate(m_values)
    ]

