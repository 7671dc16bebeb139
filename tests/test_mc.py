import math

import numpy as np
import pytest

from tailrho import (
    CellSummary,
    ExperimentConfig,
    degree_sweep,
    estimate_limit_variance,
    run_cell,
    run_table,
)
from tailrho import mc
from tailrho.mc import resolve_workers
from tailrho.special import MAX_DEGREE


class TestConfig:
    def test_grid_order_theta_major(self):
        config = ExperimentConfig(thetas=(-1.0, 1.0), ns=(50, 200), ps=(0.1, 0.5))
        cells = config.cells()
        assert cells[0] == (-1.0, 50, 0.1)
        assert cells[1] == (-1.0, 50, 0.5)
        assert cells[2] == (-1.0, 200, 0.1)
        assert cells[4] == (1.0, 50, 0.1)
        assert len(cells) == 8

    def test_rule_of_thumb_degrees(self):
        config = ExperimentConfig(thetas=(0.0,), ns=(50, 200), ps=(1.0,))
        assert config.degree_for(50) == 13
        assert config.degree_for(200) == 34

    def test_fixed_degree(self):
        config = ExperimentConfig(
            thetas=(0.0,), ns=(50,), ps=(1.0,), degree_rule=7
        )
        assert config.degree_for(50) == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(thetas=(), ns=(50,), ps=(0.5,))
        with pytest.raises(ValueError):
            ExperimentConfig(thetas=(2.0,), ns=(50,), ps=(0.5,))
        with pytest.raises(ValueError):
            ExperimentConfig(thetas=(0.0,), ns=(0,), ps=(0.5,))
        with pytest.raises(ValueError):
            ExperimentConfig(thetas=(0.0,), ns=(50,), ps=(1.5,))
        with pytest.raises(ValueError):
            ExperimentConfig(thetas=(0.0,), ns=(50,), ps=(0.5,), reps=0)
        with pytest.raises(ValueError):
            ExperimentConfig(thetas=(0.0,), ns=(50,), ps=(0.5,), degree_rule="median")

    def test_resolve_workers_env(self, monkeypatch):
        monkeypatch.setenv("TAILRHO_THREADS", "3")
        assert resolve_workers() == 3
        monkeypatch.setenv("TAILRHO_THREADS", "0")
        assert resolve_workers() >= 1
        monkeypatch.setenv("TAILRHO_THREADS", "x")
        with pytest.raises(ValueError):
            resolve_workers()
        assert resolve_workers(5) == 5


class TestRunCell:
    def test_decomposition_identity(self):
        cell = run_cell(0.5, 40, 0.5, 11, reps=400, seed=9, workers=1)
        for var, bias, mse in (
            (cell.var_emp, cell.abs_bias_emp, cell.mse_emp),
            (cell.var_bern, cell.abs_bias_bern, cell.mse_bern),
        ):
            assert mse == pytest.approx(var * 399 / 400 + bias**2, abs=1e-12)

    def test_deterministic_across_workers(self):
        a = run_cell(0.5, 30, 0.5, 9, reps=200, seed=4, workers=1)
        b = run_cell(0.5, 30, 0.5, 9, reps=200, seed=4, workers=2)
        assert a == b  # bit-identical fields

    def test_deterministic_rerun(self):
        a = run_cell(-1.0, 25, 1.0, 8, reps=150, seed=77, workers=2)
        b = run_cell(-1.0, 25, 1.0, 8, reps=150, seed=77, workers=2)
        assert a == b

    def test_single_replicate_variance_is_none(self):
        cell = run_cell(0.0, 20, 0.5, 7, reps=1, seed=1, workers=1)
        assert cell.var_emp is None and cell.var_bern is None
        assert math.isfinite(cell.mse_emp) and math.isfinite(cell.mse_bern)

    def test_reduction_definition(self):
        cell = run_cell(0.0, 30, 0.5, 9, reps=300, seed=2, workers=1)
        assert cell.mse_reduction_pct == pytest.approx(
            100.0 * (1.0 - cell.mse_bern / cell.mse_emp), rel=1e-12
        )


class TestRunTable:
    def test_singleton_matches_run_cell(self):
        config = ExperimentConfig(
            thetas=(0.5,), ns=(40,), ps=(0.5,), reps=250, seed=11
        )
        rows = run_table(config, workers=1)
        direct = run_cell(0.5, 40, 0.5, 11, reps=250, seed=11, workers=1)
        assert rows == [direct]

    def test_grid_shape_and_order(self):
        config = ExperimentConfig(
            thetas=(-0.5, 0.5), ns=(20, 40), ps=(0.5, 1.0), reps=60, seed=3
        )
        rows = run_table(config, workers=2)
        assert len(rows) == 8
        assert [(r.theta, r.n, r.p) for r in rows] == config.cells()
        assert all(isinstance(r, CellSummary) for r in rows)
        assert {r.m for r in rows} == {7, 11}

    def test_worker_count_invariance(self):
        config = ExperimentConfig(
            thetas=(-1.0, 1.0), ns=(25,), ps=(0.5,), reps=120, seed=5
        )
        assert run_table(config, workers=1) == run_table(config, workers=2)


class TestDegreeSweep:
    def test_empirical_summary_constant_across_rows(self):
        rows = degree_sweep(0.0, 30, 1.0, 1, 12, reps=300, seed=6, workers=2)
        assert len(rows) == 12
        first = rows[0]
        for row in rows[1:]:
            assert row.abs_bias_emp == first.abs_bias_emp
            assert row.var_emp == first.var_emp
            assert row.mse_emp == first.mse_emp
        assert [row.m for row in rows] == list(range(1, 13))

    def test_sweep_depth_under_independence(self):
        # smoothing always helps when the bias coefficient vanishes; the dip
        # is at least the 20% seen at the n^(2/3) rule
        rows = degree_sweep(0.0, 50, 1.0, 1, 20, reps=2000, seed=10, workers=2)
        mse = {row.m: row.mse_bern for row in rows}
        emp = rows[0].mse_emp
        assert min(mse.values()) <= emp * 0.80
        assert mse[13] <= emp * 0.80

    def test_u_shape_under_dependence(self):
        # degree 1 collapses the smoother onto the independence surface: with
        # real dependence that is pure squared bias, so the curve dips at an
        # interior degree and climbs back toward the empirical MSE
        rows = degree_sweep(1.0, 50, 1.0, 1, 40, reps=2000, seed=10, workers=2)
        mse = {row.m: row.mse_bern for row in rows}
        assert mse[1] == pytest.approx((1.0 / 3.0) ** 2, rel=1e-12)
        assert mse[1] > mse[13]
        best = min(mse, key=mse.get)
        assert 1 < best < 40

    def test_matches_run_cell_with_common_seed(self):
        rows = degree_sweep(0.5, 25, 0.5, 4, 6, reps=100, seed=12, workers=1)
        direct = run_cell(0.5, 25, 0.5, 5, reps=100, seed=12, workers=1)
        middle = rows[1]
        assert middle == direct

    def test_degree_range_validation(self):
        with pytest.raises(ValueError):
            degree_sweep(0.0, 20, 0.5, 3, 2, reps=10, seed=1, workers=1)


class TestLimitVariance:
    def test_seed_stability_and_scaling(self):
        est_a = estimate_limit_variance(0.0, 1.0, n=4000, reps=10_000, seed=101)
        est_b = estimate_limit_variance(0.0, 1.0, n=4000, reps=10_000, seed=707)
        assert abs(est_a - est_b) / est_a <= 0.05
        est_small = estimate_limit_variance(0.0, 1.0, n=1000, reps=10_000, seed=101)
        assert abs(est_small - est_a) / est_a <= 0.10

    def test_first_order_match_with_small_sample_variance(self):
        # var of the empirical estimator at n = 50 is close to the n-scaled limit
        sigma2 = estimate_limit_variance(0.0, 1.0, n=2000, reps=8000, seed=55)
        cell = run_cell(0.0, 50, 1.0, 13, reps=8000, seed=56, workers=2)
        assert abs(cell.var_emp - sigma2 / 50) / cell.var_emp <= 0.15

    def test_needs_two_replicates(self):
        with pytest.raises(ValueError):
            estimate_limit_variance(0.0, 1.0, n=100, reps=1, seed=1)


class TestDegreeCap:
    def test_fixed_degree_capped(self):
        ExperimentConfig(thetas=(0.0,), ns=(50,), ps=(0.5,), degree_rule=MAX_DEGREE)
        with pytest.raises(ValueError, match="outside 1..100000"):
            ExperimentConfig(thetas=(0.0,), ns=(50,), ps=(0.5,), degree_rule=MAX_DEGREE + 1)

    def test_sweep_degree_capped(self):
        with pytest.raises(ValueError, match="m_max <= 100000"):
            degree_sweep(0.5, 20, 0.5, 1, 10**8, reps=5, seed=1, workers=1)


class TestReplicateCount:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_reps_rejected(self, workers):
        with pytest.raises(ValueError, match="reps must be >= 1"):
            run_cell(0.5, 20, 0.5, 7, reps=0, seed=1, workers=workers)
        with pytest.raises(ValueError, match="reps must be >= 1"):
            degree_sweep(0.5, 20, 0.5, 1, 3, reps=0, seed=1, workers=workers)


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    started: list[int] = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def negate(x):
    return -x


class TestPoolCap:
    @pytest.fixture
    def pool(self, monkeypatch):
        """Three usable CPUs and a recording executor; yields the record."""
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(mc, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(RecordingExecutor, "started", [])
        return RecordingExecutor.started

    @pytest.mark.parametrize(
        "workers, tasks, started",
        [(8, 10, [3]), (2, 10, [2]), (8, 2, [2]), (1, 10, []), (8, 1, [])],
    )
    def test_processes_capped(self, pool, workers, tasks, started):
        assert mc._pool_map(negate, list(range(tasks)), workers) == [-t for t in range(tasks)]
        assert pool == started

    def test_single_usable_cpu_runs_in_process(self, pool, monkeypatch):
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert mc._pool_map(negate, [1, 2, 3], 4) == [-1, -2, -3]
        assert pool == []

    def test_auto_count_is_usable_cpus(self, pool, monkeypatch):
        monkeypatch.setenv("TAILRHO_THREADS", "0")
        assert resolve_workers() == 3
        monkeypatch.setenv("TAILRHO_THREADS", "7")
        assert resolve_workers() == 7  # the request is kept; only the pool is capped

    def test_run_table_through_capped_pool(self, pool):
        config = ExperimentConfig(
            thetas=(-1.0, 1.0), ns=(15,), ps=(0.5, 1.0), reps=20, seed=8
        )
        assert run_table(config, workers=6) == run_table(config, workers=1)
        assert pool == [3]

    def test_blocks_sized_from_started_processes(self, pool, monkeypatch):
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        task_counts = []
        pool_map = mc._pool_map

        def recording_pool_map(fn, tasks, workers):
            task_counts.append(len(tasks))
            return pool_map(fn, tasks, workers)

        monkeypatch.setattr(mc, "_pool_map", recording_pool_map)
        wide = degree_sweep(0.5, 15, 0.5, 1, 4, reps=1000, seed=3, workers=64)
        assert task_counts == [8]  # four blocks for each of the two processes
        assert wide == degree_sweep(0.5, 15, 0.5, 1, 4, reps=1000, seed=3, workers=2)
        assert task_counts == [8, 8]
        assert pool == [2, 2]


def loop_stats(x, true_rho):
    """The summary reduction as a loop over numpy scalars: the reference."""
    reps = x.size
    mean = math.fsum(x) / reps
    var = math.fsum((xi - mean) ** 2 for xi in x) / (reps - 1) if reps > 1 else None
    mse = math.fsum((xi - true_rho) ** 2 for xi in x) / reps
    return abs(mean - true_rho), var, mse


class TestSummaryReduction:
    # with seed 971 np.square in place of ** changes mse_emp's last bit
    # (x86-64 Linux), so that case tells the two apart
    @pytest.mark.parametrize("seed, reps", [(971, 200), (5, 3000), (6, 2), (7, 1)])
    def test_bit_identical_to_loop(self, seed, reps):
        rng = np.random.default_rng(seed)
        emp, bern = rng.uniform(-1, 1, reps), rng.uniform(-1, 1, reps)
        cell = mc._summarize(0.5, 20, 0.5, 4, emp, bern, 0.1)
        bias_e, var_e, mse_e = loop_stats(emp, 0.1)
        bias_b, var_b, mse_b = loop_stats(bern, 0.1)
        assert (cell.abs_bias_emp, cell.var_emp, cell.mse_emp) == (bias_e, var_e, mse_e)
        assert (cell.abs_bias_bern, cell.var_bern, cell.mse_bern) == (bias_b, var_b, mse_b)
        assert cell.mse_reduction_pct == 100.0 * (1.0 - mse_b / mse_e)
