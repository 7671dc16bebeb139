"""Seeded, parallel Monte Carlo engine comparing the empirical and
Bernstein-smoothed tail-rho estimators under the FGM model.

Determinism contract: every replicate owns a private generator derived
statelessly from (seed, cell_index, replicate_index) via SeedSequence spawn
keys, replicate results land in preallocated slot arrays by index, and all
reductions run in fixed index order with compensated summation.  Output is
therefore bit-identical for any worker count and any scheduling order.

Worker count: pass `workers` explicitly, or set TAILRHO_THREADS (0 or unset
means one worker per usable CPU).  No more processes start than the CPUs this
process may run on.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .asympt import rule_of_thumb_degree
from .copula import pseudo_observations
from .estimators import rho_hat_bernstein, rho_hat_empirical
from .fgm import FgmModel
from .special import MAX_DEGREE, tail_weights

__all__ = [
    "DEFAULT_REPS",
    "DEFAULT_SEED",
    "ExperimentConfig",
    "CellSummary",
    "resolve_workers",
    "run_cell",
    "run_table",
    "degree_sweep",
    "estimate_limit_variance",
]

DEFAULT_REPS = 10_000
DEFAULT_SEED = 42

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
        if any(abs(t) > 1.0 for t in self.thetas):
            raise ValueError("every theta must lie in [-1, 1]")
        if any(n < 1 for n in self.ns):
            raise ValueError("every sample size must be >= 1")
        if any(not 0.0 < p <= 1.0 for p in self.ps):
            raise ValueError("every threshold must lie in (0, 1]")
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


def _replicate_block(args) -> tuple[int, np.ndarray, np.ndarray]:
    """Run replicates [start, stop) of one cell; returns slot-indexed arrays.

    Each replicate draws a fresh FGM sample, rank-transforms it with the
    boundary-avoiding rank/(n+1) scaling standard rank-copula software
    applies, and evaluates the empirical estimator plus the smoothed
    estimator at every requested degree (the same sample serves all degrees:
    common random numbers).
    """
    theta, n, p, m_values, seed, cell_index, start, stop = args
    model = FgmModel(theta)
    weight_vectors = [tail_weights(p, m) for m in m_values]
    emp = np.empty(stop - start)
    bern = np.empty((stop - start, len(m_values)))
    for i, rep in enumerate(range(start, stop)):
        seq = np.random.SeedSequence(seed, spawn_key=(cell_index, rep))
        rng = np.random.default_rng(seq)
        xy = model.sample(n, rng)
        ps = pseudo_observations(xy[:, 0], xy[:, 1], denominator="n+1")
        emp[i] = rho_hat_empirical(ps, p).value
        for j, (m, w) in enumerate(zip(m_values, weight_vectors)):
            bern[i, j] = rho_hat_bernstein(ps, p, m, weights=w).value
    return start, emp, bern


def _run_replicates(
    theta: float,
    n: int,
    p: float,
    m_values: list[int],
    reps: int,
    seed: int,
    cell_index: int,
    workers: int,
) -> tuple[np.ndarray, np.ndarray]:
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    emp = np.empty(reps)
    bern = np.empty((reps, len(m_values)))
    # four blocks per process that _pool_map will actually start
    block = -(-reps // (4 * min(workers, _usable_cpus())))
    tasks = [
        (theta, n, p, list(m_values), seed, cell_index, start, min(start + block, reps))
        for start in range(0, reps, block)
    ]
    for start, emp_blk, bern_blk in _pool_map(_replicate_block, tasks, workers):
        emp[start : start + emp_blk.size] = emp_blk
        bern[start : start + emp_blk.size] = bern_blk
    return emp, bern


def _summarize(
    theta: float, n: int, p: float, m: int, emp: np.ndarray, bern: np.ndarray, true_rho: float
) -> CellSummary:
    """Reduce one cell's replicate values, in index order with math.fsum."""
    reps = emp.size

    def stats(x: np.ndarray) -> tuple[float, float | None, float]:
        # Squares go through Python's ** (the C library pow), not np.square:
        # the two differ in the last bit of some elements, which can change
        # the last bit of a sum and so the output bytes.
        mean = math.fsum(x.tolist()) / reps
        sq_dev = math.fsum([d**2 for d in (x - mean).tolist()])
        sq_err = math.fsum([d**2 for d in (x - true_rho).tolist()])
        var = sq_dev / (reps - 1) if reps > 1 else None
        return abs(mean - true_rho), var, sq_err / reps

    (bias_e, var_e, mse_e), (bias_b, var_b, mse_b) = stats(emp), stats(bern)
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
    """Simulate one (theta, n, p, m) cell and summarize both estimators."""
    workers = resolve_workers(workers)
    true_rho = FgmModel(theta).rho_tail_analytic(p)
    emp, bern = _run_replicates(theta, n, p, [m], reps, seed, cell_index, workers)
    return _summarize(theta, n, p, m, emp, bern[:, 0], true_rho)


def _cell_task(args) -> CellSummary:
    theta, n, p, m, reps, seed, cell_index = args
    try:
        return run_cell(
            theta, n, p, m, reps=reps, seed=seed, cell_index=cell_index, workers=1
        )
    except Exception as exc:
        raise RuntimeError(
            f"simulation cell (theta={theta}, n={n}, p={p}) failed: {exc}"
        ) from exc


def run_table(config: ExperimentConfig, *, workers: int | None = None) -> list[CellSummary]:
    """Run every cell of the grid; rows come back in grid order.

    A cell failure is re-raised with the offending (theta, n, p) attached.
    Cells are farmed out whole to worker processes; each cell's replicates use
    streams keyed by its grid position, so the output is independent of how
    cells are distributed.
    """
    workers = resolve_workers(workers)
    tasks = [
        (theta, n, p, config.degree_for(n), config.reps, config.seed, index)
        for index, (theta, n, p) in enumerate(config.cells())
    ]
    return _pool_map(_cell_task, tasks, workers)


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
    the per-degree curves vary only through m; the empirical summary is
    repeated on every row for plotting convenience.
    """
    if not 1 <= m_min <= m_max <= MAX_DEGREE:
        raise ValueError(f"need 1 <= m_min <= m_max <= {MAX_DEGREE}, got {m_min}..{m_max}")
    workers = resolve_workers(workers)
    m_values = list(range(m_min, m_max + 1))
    true_rho = FgmModel(theta).rho_tail_analytic(p)
    emp, bern = _run_replicates(theta, n, p, m_values, reps, seed, cell_index, workers)
    return [
        _summarize(theta, n, p, m, emp, bern[:, j], true_rho)
        for j, m in enumerate(m_values)
    ]


def estimate_limit_variance(
    theta: float,
    p: float,
    n: int = 4000,
    reps: int = DEFAULT_REPS,
    seed: int = DEFAULT_SEED,
    *,
    workers: int | None = None,
) -> float:
    """Monte Carlo estimate of the limiting variance of the root-n estimator.

    Computes n times the sample variance of the empirical-copula estimator
    across replicates; by the central limit theorem this stabilizes (in n) at
    the limiting variance, which has no closed form available here.
    """
    if reps < 2:
        raise ValueError("need at least two replicates for a variance")
    workers = resolve_workers(workers)
    true_rho = FgmModel(theta).rho_tail_analytic(p)
    emp, _ = _run_replicates(theta, n, p, [], reps, seed, 0, workers)
    # no smoothed estimator runs; the empirical values fill both columns
    return n * _summarize(theta, n, p, 0, emp, emp, true_rho).var_emp
