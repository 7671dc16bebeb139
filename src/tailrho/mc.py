"""Seeded, parallel Monte Carlo engine comparing the empirical and
Bernstein-smoothed tail-rho estimators under the FGM model.

Determinism contract: a replicate's sample depends only on (seed, theta,
n) and its index.  The replicates are cut into stream chunks of STREAM =
64.  Chunk c of the cells with values (theta, n) owns one generator,
derived statelessly via SeedSequence(seed, spawn_key=(b, n, c)), where b is
the IEEE-754 bit pattern of theta + 0.0 as an unsigned 64-bit integer (so
-0.0 and 0.0 share a stream).  It draws, for each of its replicates in
order, u (n values) and then t (n values).  The replicate's sample is the n
pairs (sort(u)_j, v_j) with v = FgmModel.from_uniforms(sort(u), t), listed
in increasing v: u and t are independent i.i.d. uniforms, so sorting u
first leaves the pairs' joint law alone, and both estimators are symmetric
in pair order.  Its two values are, bit for bit, what
`pseudo_observations(..., "n+1")` and `rho_hat_*` give on that list.

The cells of one (theta, n), a grid's p-cells, form one unit: the kernel
draws each of the unit's samples once and runs every cell's score tables
on it.  So a cell's numbers depend only on (seed, theta, n, p, degree,
reps), not on the grid around it; the cells of one (theta, n) are
positively correlated across p; and repeated theta, n or p values give
identical rows.  Replicate results land in preallocated slot arrays by
index, every step after the draws treats each replicate on its own, and
all reductions run in fixed index order with compensated summation.
Output is therefore bit-identical for any worker count, any scheduling
order, any chunk size and any BLAS thread count (no step calls BLAS);
powers are written as products, so the C library's `pow` plays no part
either.  STREAM and the recipe are part of the numbers, not tuning knobs:
changing either changes every result.

A replicate block starts at a multiple of STREAM and fills each kernel
chunk's uniforms with one draw per stream chunk it meets; a stream chunk
longer than a kernel chunk carries its generator on to the next one.  The
kernel works on chunks of at most max(1, CHUNK // n) replicates at once,
over (rows, n) arrays: it sorts the rows of u in place, so the first
margin's ranks are 1..n; inverts; orders each row of v with one argsort;
checks both sorted margins with `pseudo_observations`' own checks
(`copula._check_sorted`); and then pays one gather per score table (see
`_rank_sums`).  The chunk bounds each work array to O(CHUNK) floats.  Each
thread keeps one set of work arrays (the draws, v's flat sort indices, the
sorted v and one table's products, with room for CHUNK values each) for all
its later chunks, blocks and jobs; a block with n > CHUNK allocates its own
and drops it.  A thread keeps the score tables (see `_score_tables`) of its
last block's unit for its next blocks, so a process builds a unit's tables
at most once per job and holds one unit's tables at a time; units run in
the order of their tables, so units of equal tables follow each other.

Every entry point (a grid, one cell, a degree sweep) runs its units as
replicate blocks on one path.  A job whose estimated work (reps * n *
(RANK_COST + score tables), summed over its units; no clock) is below
POOL_MIN_WORK runs in this process, one block per unit, since a process
pool costs more to start than it would save.  A larger job cuts its units
into about four blocks per process and sends all of them through one
process pool, so a single cell uses every CPU too.  Either way the
summaries are reduced in this process, and the numbers do not depend on
the choice.  Worker count: pass `workers` explicitly, or set
TAILRHO_THREADS (0 or unset means one worker per usable CPU).  No more
processes start than the CPUs this process may run on.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .asympt import rule_of_thumb_degree
from .copula import _check_sorted
from .estimators import bernstein_scores, empirical_scores, tail_rho
from .fgm import FgmModel
from .special import MAX_DEGREE, _check_degree, tail_weights

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

# The pool rule (see `_processes`).  A job's kernel work is estimated, with
# no clock, as the sum over its (theta, n) units of reps * n * (RANK_COST +
# the unit's score tables): one work unit is one sample value's share of a
# rank integral over one score table, and RANK_COST prices the draws, the
# FGM inversion and the ranks in those work units.  A job whose kernel work
# is below POOL_MIN_WORK runs in this process, since a pool would cost more
# than it saves.  Both are measured on a 2-CPU x86-64 machine: RANK_COST
# from the kernel's time per replicate with 0 and 60 score tables, (t0 /
# ((t60 - t0) / 60) / n) - 1 over blocks of two kernel chunks (13-15 at
# n = 50, 200 and 1000, one work unit about 4 ns); POOL_MIN_WORK where two
# processes started to beat one: 1.3-2.6e7 work units for single cells and
# sweeps, 2.4-3.6e7 for 30-cell grids (about 100 ms of work).  Rechecked
# with each table built once per process: grids win at 3.6e7, 60-degree
# sweeps at n = 200 tie at 4.5e7 and a 1000-degree sweep at n = 5 from 2e7
# to 5.1e7.  Rechecked with the thresholds of a (theta, n) sharing its
# samples: the reference grid pools worse at 2.5e7 (1000 replicates) and
# better from 3.1e7.  The two CPUs' parallel capacity varied from run to
# run, so these crossings are approximate; below the threshold a pool would
# save at most about 10%, above it a grid would lose up to half.
RANK_COST = 14
POOL_MIN_WORK = 25 * 10**6

# Most values a job's result slots and score tables may hold (800 MB of
# float64): reps per score table summed over the cells, and in each process
# one unit's score tables, n + 2 values each, counted for the largest unit.
# A pool starts no more processes than it leaves room for.
MAX_SLOTS = 10**8

THREADS_ENV = "TAILRHO_THREADS"


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid of simulation cells: one cell per (theta, n, p) combination.

    A cell's numbers depend on (seed, theta, n, p, degree, reps) alone, not
    on the rest of the grid; the cells of one (theta, n) see the same
    replicate samples, and repeated values give identical rows.

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
        for cell in self.cells():
            _true_rho(*cell)
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if isinstance(self.degree_rule, str):
            if self.degree_rule != "rule_of_thumb":
                raise ValueError(f"unknown degree rule {self.degree_rule!r}")
        else:
            _check_degree(self.degree_rule)

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
    # imported here: loading multiprocessing costs every command line start
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _processes(units: list[tuple], reps: int, workers: int) -> int:
    """Processes a job runs on: `workers` capped at the usable CPUs, or one if
    the job's kernel work is below POOL_MIN_WORK."""
    processes = min(workers, _usable_cpus())
    work = reps * sum(n * (RANK_COST + _width(cells)) for _, n, cells in units)
    return 1 if work < POOL_MIN_WORK else processes


def _pooled_block(reps: int, units: int, processes: int) -> int:
    """Replicates per block of a pooled job: about four blocks per process
    for the whole job, rounded up to a multiple of STREAM, at most a unit."""
    block = -(-reps * units // (4 * processes))
    return min(reps, -(-block // STREAM) * STREAM)


def _width(cells: tuple) -> int:
    """Score tables of a unit's ((p, degrees), ...) cells: one empirical
    table and one per degree for each cell."""
    return sum(1 + len(m_values) for _, m_values in cells)


def _replicate_block(args) -> np.ndarray:
    """Run replicates [start, stop) of one (theta, n, cells) unit; returns
    their corner integrals, one row per replicate and one column per score
    table.

    start must be a multiple of STREAM.  The replicates run in kernel chunks
    of max(1, CHUNK // n).  A chunk's (rows, 2, n) uniforms (u, then t, of
    each replicate) take one draw per stream chunk it meets; a stream's
    generator carries over into the next kernel chunk.  Each row of u is
    sorted in place, so its ranks are 1..n, and v = from_uniforms(u, t).
    One argsort of v per chunk orders each replicate's pairs by v; the
    sorted u and v get `pseudo_observations`' checks, and each of the unit's
    `tables` T costs one gather: the corner integral is
    (1/n) * sum_k T[order_k + 1] * T[k + 1], summed in increasing v.  This
    is the value `pseudo_observations(..., "n+1")` and `rho_hat_*` give on
    the pairs (sort(u)_j, v_j) listed in increasing v, bit for bit.  The
    same sample serves every p and degree of the unit (common random
    numbers).  A failure is re-raised with the unit's theta, n and every p
    of its cells attached.
    """
    (theta, n, cells), tables, seed, start, stop = args
    if start % STREAM:
        raise ValueError(f"replicate block starts at {start}, not a multiple of STREAM={STREAM}")
    try:
        model = FgmModel(theta)
        key = (int(np.float64(theta + 0.0).view(np.uint64)), n)
        integrals = np.empty((stop - start, len(tables)))
        rows = max(1, CHUNK // n)
        work = _work_arrays(min(rows, stop - start) * n)
        offsets = np.arange(0, rows * n, n)[:, None]
        for lo in range(start, stop, rows):
            hi = min(lo + rows, stop)
            size = (hi - lo) * n
            draws = work.draws[: 2 * size].reshape(hi - lo, 2, n)
            cuts = [lo, *range((lo // STREAM + 1) * STREAM, hi, STREAM), hi]
            for a, b in zip(cuts, cuts[1:]):
                if a % STREAM == 0:
                    seq = np.random.SeedSequence(seed, spawn_key=(*key, a // STREAM))
                    rng = np.random.default_rng(seq)
                rng.random(out=draws[a - lo : b - lo])
            u, t = draws[:, 0], draws[:, 1]
            u.sort(axis=-1)
            v = model.from_uniforms(u, t)
            order = v.argsort(axis=-1)
            flat = np.add(order, offsets[: hi - lo], out=work.flat[:size].reshape(hi - lo, n))
            sorted_v = np.take(v, flat, out=work.sorted[:size].reshape(hi - lo, n), mode="clip")
            _check_sorted(u, sorted_v)
            products = work.products[:size].reshape(hi - lo, n)
            chunk = integrals[lo - start : hi - start]
            for j, scores in enumerate(tables):
                chunk[:, j] = _rank_sums(scores, order, products)
    except Exception as exc:
        ps = ",".join(str(p) for p, _ in cells)
        raise RuntimeError(f"simulation cell (theta={theta}, n={n}, p={ps}) failed: {exc}") from exc
    return integrals


class _WorkArrays:
    """A kernel chunk's work arrays, with room for `size` sample values: the
    draws (u and t), the flat index of each v in sorted order, the sorted v,
    and one score table's products."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.draws = np.empty(2 * size)
        self.flat = np.empty(size, dtype=np.intp)
        self.sorted = np.empty(size)
        self.products = np.empty(size)


_thread = threading.local()


def _work_arrays(size: int) -> _WorkArrays:
    """Work arrays for chunks of up to `size` values.  Up to CHUNK values
    this thread keeps one set, with room for CHUNK, for every later chunk,
    block and job; a larger size gets a set of its own, freed with its
    block, so no thread keeps more than CHUNK values per array."""
    if size > CHUNK:
        return _WorkArrays(size)
    work = getattr(_thread, "work", None)
    if work is None or work.size < size:
        work = _thread.work = _WorkArrays(CHUNK)
    return work


def _rank_sums(scores: np.ndarray, order: np.ndarray, products: np.ndarray) -> np.ndarray:
    """(1/n) * sum_k scores[order_k + 1] * scores[k + 1] of each row of
    `order` (shape (rows, n)), through `products`: a row's value is
    `rank_integral` of its ranks (order + 1, 1..n).  Each row's sum is
    numpy's pairwise summation of its n products, with no BLAS."""
    n = order.shape[-1]
    np.take(scores[1:], order, out=products, mode="clip")
    products *= scores[1 : n + 1]
    return products.sum(axis=-1) / n


def _score_tables(n: int, cells: tuple) -> np.ndarray:
    """A unit's score tables over the ranks 0..d, d = n + 1, one per row: for
    each (p, degrees) of `cells`, the empirical table, then one per degree."""
    tables = np.empty((_width(cells), n + 2))
    rows = iter(tables)
    for p, m_values in cells:
        next(rows)[:] = empirical_scores(p, n + 1)
        for m in m_values:
            next(rows)[:] = bernstein_scores(tail_weights(p, m), n + 1)
    return tables


def _cell_block(task) -> np.ndarray:
    """`_replicate_block` of a (unit, seed, start, stop) task.  The thread
    keeps the score tables it built last, for blocks of equal (n, cells)."""
    unit, seed, start, stop = task
    key = unit[1:]  # (n, ((p, degrees), ...))
    held = getattr(_thread, "tables", None)
    if held is None or held[0] != key:
        _thread.tables = None  # let the last unit's tables go first
        held = _thread.tables = (key, _score_tables(*key))
    return _replicate_block((unit, held[1], seed, start, stop))


def _true_rho(theta: float, n: int, p: float) -> float:
    """Check one cell's inputs; returns its true tail rho."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"sample size n={n} must be >= 1 and <= {MAX_N}")
    return FgmModel(theta).rho_tail_analytic(p)  # checks theta and p


def _simulate(
    cells: list[tuple], reps: int, seed: int, workers: int
) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """(true rho, emp, bern) of every cell, in cell order.

    A cell is (theta, n, p, m_values); bern has one column per degree in
    m_values.  The reps, the seed, every cell and then the job's MAX_SLOTS
    bound are checked before any work.  The cells of equal (theta, n) form
    one unit, in the order of first appearance, which draws each sample
    once for all of them.  A job that runs in this process (see
    `_processes`) makes one block per unit; a pooled job cuts each unit
    into replicate blocks (see `_pooled_block`), never spanning two units.
    Blocks run in the order of their units' score tables, so a thread
    builds a run of units with equal tables once.  Each block's corner
    integrals land in its unit's slots, and each cell's columns then get
    `tail_rho` with the cell's p.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    truths = [_true_rho(theta, n, p) for theta, n, p, _ in cells]
    members: dict = {}  # (theta + 0.0, n) -> its cells' indices
    for k, (theta, n, _, _) in enumerate(cells):
        members.setdefault((theta + 0.0, n), []).append(k)
    units = [
        (*cells[ks[0]][:2], tuple((cells[k][2], tuple(cells[k][3])) for k in ks))
        for ks in members.values()
    ]
    widths = [_width(unit_cells) for _, _, unit_cells in units]
    results = reps * sum(widths)
    tables = max((n + 2) * width for (_, n, _), width in zip(units, widths))  # per process
    if results + tables > MAX_SLOTS:
        raise ValueError(
            f"{results + tables} result slots and score-table entries exceed {MAX_SLOTS}"
            " (reps per score table, plus n + 2 per score table of the largest (theta, n))"
        )
    processes = min(_processes(units, reps, workers), (MAX_SLOTS - results) // tables)
    block = reps if processes == 1 else _pooled_block(reps, len(units), processes)
    spans = [
        (u, start, min(start + block, reps))
        for u in sorted(range(len(units)), key=lambda u: units[u][1:])
        for start in range(0, reps, block)
    ]
    tasks = [(units[u], seed, start, stop) for u, start, stop in spans]
    slots = [np.empty((reps, width)) for width in widths]
    try:
        blocks = _pool_map(_cell_block, tasks, processes)
    finally:
        _thread.tables = None
    for (u, start, stop), integrals in zip(spans, blocks):
        slots[u][start:stop] = integrals
    out = [None] * len(cells)
    for ks, slot in zip(members.values(), slots):
        col = 0
        for k in ks:
            _, _, p, m_values = cells[k]
            values = tail_rho(slot[:, col : col + 1 + len(m_values)], p)
            out[k] = (truths[k], values[:, 0], values[:, 1:])
            col += 1 + len(m_values)
    return out


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
    one-degree `degree_sweep`.  It equals the cell's row of any `run_table`
    grid with the same seed and reps.  cell_index has no effect: the
    replicate streams are keyed by (theta, n)."""
    return degree_sweep(theta, n, p, m, m, reps, seed, workers=workers)[0]


def run_table(config: ExperimentConfig, *, workers: int | None = None) -> list[CellSummary]:
    """Run every cell of the grid; rows come back in grid order.

    A cell failure is re-raised with the offending (theta, n) and its p
    values attached.  Each cell's replicates use the streams of its (theta,
    n), shared by that pair's p-cells, so each row equals `run_cell` of its
    cell and the output is independent of how the replicate blocks are
    distributed.
    """
    workers = resolve_workers(workers)
    cells = [(theta, n, p, [config.degree_for(n)]) for theta, n, p in config.cells()]
    values = _simulate(cells, config.reps, config.seed, workers)
    return [
        _summary(theta, n, p, m, _stats(emp, true_rho), _stats(bern[:, 0], true_rho))
        for (theta, n, p, [m]), (true_rho, emp, bern) in zip(cells, values)
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
    [(true_rho, emp, bern)] = _simulate([(theta, n, p, m_values)], reps, seed, workers)
    emp_stats = _stats(emp, true_rho)
    return [
        _summary(theta, n, p, m, emp_stats, _stats(bern[:, j], true_rho))
        for j, m in enumerate(m_values)
    ]
