import concurrent.futures
import dataclasses
import math
import pickle
import struct
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tailrho import (
    CellSummary,
    ExperimentConfig,
    degree_sweep,
    pseudo_observations,
    rho_hat_bernstein,
    rho_hat_empirical,
    rule_of_thumb_degree,
    run_cell,
    run_table,
)
from tailrho import TiesError, mc
from tailrho.estimators import P_MIN
from tailrho.fgm import FgmModel
from tailrho.mc import resolve_workers
from tailrho.special import MAX_DEGREE
from definitions import estimate_limit_variance


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

    @pytest.mark.parametrize("p", [P_MIN, 1e-7, 0.0, -0.5, 1.5, math.nan])
    def test_threshold_domain(self, p):
        with pytest.raises(ValueError, match=r"threshold"):
            ExperimentConfig(thetas=(0.0,), ns=(50,), ps=(0.5, p))
        with pytest.raises(ValueError, match=r"outside \(1e-06, 1\]"):
            degree_sweep(0.0, 50, p, 1, 3, reps=5, seed=1, workers=1)
        ExperimentConfig(thetas=(0.0,), ns=(50,), ps=(2 * P_MIN, 1.0))

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
            100.0 * (1.0 - cell.mse_bern / cell.mse_emp), rel=1e-12, abs=0
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

    def test_rows_independent_of_grid(self):
        # each row equals run_cell of its cell and its row in a larger grid:
        # a cell's streams are keyed by its (theta, n), not its grid position
        small = ExperimentConfig(
            thetas=(-0.5, 1.0), ns=(50, 200), ps=(0.1, 1.0), reps=70, seed=7
        )
        reference = ExperimentConfig(
            thetas=(-1.0, -0.5, 0.0, 0.5, 1.0), ns=(50, 200), ps=(0.1, 0.5, 1.0),
            reps=70, seed=7,
        )
        rows = run_table(small, workers=2)
        wide = {(r.theta, r.n, r.p): r for r in run_table(reference, workers=1)}
        for row, (theta, n, p) in zip(rows, small.cells()):
            assert row == run_cell(theta, n, p, small.degree_for(n), reps=70, seed=7, workers=1)
            assert row == wide[(theta, n, p)]

    def test_repeated_values_repeat_rows(self):
        # -0.0 and 0.0 share a stream, as do repeated n and p values
        config = ExperimentConfig(
            thetas=(-0.0, 0.0), ns=(30, 30), ps=(0.5, 0.5), reps=90, seed=4
        )
        rows = run_table(config, workers=1)
        assert len(rows) == 8
        assert all(dataclasses.astuple(row)[1:] == dataclasses.astuple(rows[0])[1:]
                   for row in rows)

    def test_p_cells_share_samples(self):
        # the p-cells of one (theta, n) see the same samples: their values are
        # strongly correlated, those of another theta are not
        [(_, low, _), (_, high, _), (_, other, _)] = mc._simulate(
            [(0.5, 50, 0.5, [13]), (0.5, 50, 1.0, [13]), (-0.5, 50, 1.0, [13])], 500, 3, 1
        )
        assert np.corrcoef(low, high)[0, 1] > 0.5
        assert abs(np.corrcoef(low, other)[0, 1]) < 0.2

    def test_sample_drawn_once_per_theta_and_n(self, monkeypatch):
        # the 100-replicate reference grid, one kernel chunk per (theta, n)
        calls = []
        from_uniforms = FgmModel.from_uniforms

        def counted(self, u, t):
            calls.append(u.shape)
            return from_uniforms(self, u, t)

        monkeypatch.setattr(FgmModel, "from_uniforms", counted)
        config = ExperimentConfig(
            thetas=(-1.0, -0.5, 0.0, 0.5, 1.0), ns=(50, 200), ps=(0.1, 0.5, 1.0), reps=100
        )
        run_table(config, workers=1)
        assert len(calls) == 10


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
        assert mse[1] == pytest.approx((1.0 / 3.0) ** 2, rel=1e-12, abs=0)
        assert mse[1] > mse[13]
        best = min(mse, key=mse.get)
        assert 1 < best < 40

    def test_matches_run_cell_with_common_seed(self):
        rows = degree_sweep(0.5, 25, 0.5, 4, 6, reps=100, seed=12, workers=1)
        direct = run_cell(0.5, 25, 0.5, 5, reps=100, seed=12, workers=1)
        middle = rows[1]
        assert middle == direct

    def test_empirical_fields_match_run_cell(self):
        rows = degree_sweep(-0.5, 40, 0.5, 1, 8, reps=200, seed=13, workers=1)
        direct = run_cell(-0.5, 40, 0.5, 3, reps=200, seed=13, workers=1)
        for row in rows:
            assert (row.abs_bias_emp, row.var_emp, row.mse_emp) == (
                direct.abs_bias_emp, direct.var_emp, direct.mse_emp
            )

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

    @pytest.mark.parametrize("theta, p", [(0.5, 0.5), (-1.0, 0.1), (1.0, 1.0)])
    def test_matches_closed_form(self, theta, p):
        """Within 4 normal-theory SEs of a sample variance, 2 sigma^4/(reps-1)."""
        reps = 4000
        sigma2 = FgmModel(theta).limit_variance(p)
        estimate = estimate_limit_variance(theta, p, n=4000, reps=reps, seed=31, workers=2)
        assert abs(estimate - sigma2) <= 4.0 * sigma2 * math.sqrt(2.0 / (reps - 1))


class TestDegreeCap:
    def test_fixed_degree_capped(self):
        ExperimentConfig(thetas=(0.0,), ns=(50,), ps=(0.5,), degree_rule=MAX_DEGREE)
        with pytest.raises(ValueError, match="outside 1..100000"):
            ExperimentConfig(thetas=(0.0,), ns=(50,), ps=(0.5,), degree_rule=MAX_DEGREE + 1)

    def test_sweep_degree_capped(self):
        with pytest.raises(ValueError, match="m_max <= 100000"):
            degree_sweep(0.5, 20, 0.5, 1, 10**8, reps=5, seed=1, workers=1)

    @pytest.mark.parametrize("m", [0, MAX_DEGREE + 1])
    def test_run_cell_degree_checked_before_work(self, monkeypatch, m):
        def no_pool(*args, **kwargs):
            raise AssertionError("replicates were scheduled")

        monkeypatch.setattr(mc, "_pool_map", no_pool)
        with pytest.raises(ValueError, match="m_max <= 100000"):
            run_cell(0.5, 50, 0.1, m, reps=10, seed=1, workers=1)


class TestSlotBound:
    @pytest.fixture
    def past_the_check(self, monkeypatch):
        def past_the_check(*args):
            raise AssertionError("past the check")

        monkeypatch.setattr(mc, "_processes", past_the_check)

    def test_bound_counts_every_score_table(self, past_the_check):
        # 1 + 60 tables per replicate, each also holding n + 2 = 12 scores:
        # one replicate more than fits fails before any work, and the most
        # that fit pass the check (and stop before any allocation)
        reps = mc.MAX_SLOTS // 61 - 12
        with pytest.raises(ValueError, match=f"{61 * (reps + 1 + 12)} result slots"):
            degree_sweep(0.0, 10, 0.5, 1, 60, reps=reps + 1, seed=1, workers=2)
        with pytest.raises(AssertionError, match="past the check"):
            degree_sweep(0.0, 10, 0.5, 1, 60, reps=reps, seed=1, workers=2)

    def test_bound_counts_table_entries(self, past_the_check):
        # at n = 10^6 the 99 tables' scores, not the results, fill the bound:
        # 99 * (10099 + 10^6 + 2) fits, one replicate more does not
        n, reps = 10**6, 10_099
        assert 99 * (reps + n + 2) <= mc.MAX_SLOTS < 99 * (reps + 1 + n + 2)
        with pytest.raises(ValueError, match=f"{99 * (reps + 1 + n + 2)} result slots"):
            degree_sweep(0.0, n, 0.5, 1, 98, reps=reps + 1, seed=1, workers=2)
        with pytest.raises(AssertionError, match="past the check"):
            degree_sweep(0.0, n, 0.5, 1, 98, reps=reps, seed=1, workers=2)

    def test_bound_counts_one_cells_tables(self, past_the_check):
        # a process holds one (theta, n) unit's tables at a time: the 20 cells
        # at n = 10^7 fit with 4 * 2 * (10^7 + 2) scores, not 5 times that
        config = ExperimentConfig(
            thetas=(-1.0, -0.5, 0.0, 0.5, 1.0), ns=(10**7,), ps=(0.1, 0.2, 0.5, 1.0),
            degree_rule=1, reps=100, seed=1,
        )
        with pytest.raises(AssertionError, match="past the check"):
            run_table(config, workers=2)

    def test_fifth_threshold_at_max_n_refused(self, past_the_check):
        # 5 thresholds of one (theta, n) make 10 tables of 10^7 + 2 scores
        config = ExperimentConfig(
            thetas=(0.5,), ns=(10**7,), ps=(0.1, 0.2, 0.3, 0.4, 0.5),
            degree_rule=1, reps=1, seed=1,
        )
        with pytest.raises(ValueError, match=f"{10 * (1 + 10**7 + 2)} result slots"):
            run_table(config, workers=2)

    @pytest.mark.parametrize("degrees, processes", [(60, 1), (40, 2), (10, 8)])
    def test_pool_fits_the_bound(self, monkeypatch, degrees, processes):
        # at n = 10^6 each process holds its cell's 1 + degrees tables of
        # 10^6 + 2 scores: a pool starts no more processes than fit in
        # MAX_SLOTS next to the result slots
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 8)
        started = []

        def fake_pool_map(fn, tasks, processes):
            started.append(processes)
            return [np.zeros((stop - start, 1 + degrees)) for _, _, start, stop in tasks]

        monkeypatch.setattr(mc, "_pool_map", fake_pool_map)
        degree_sweep(0.5, 10**6, 0.5, 1, degrees, reps=1000, seed=1, workers=8)
        results, tables = 1000 * (1 + degrees), (1 + degrees) * (10**6 + 2)
        assert started == [processes]
        assert results + processes * tables <= mc.MAX_SLOTS
        assert processes == 8 or results + (processes + 1) * tables > mc.MAX_SLOTS


class TestReplicateCount:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_reps_rejected(self, workers):
        with pytest.raises(ValueError, match="reps must be >= 1"):
            run_cell(0.5, 20, 0.5, 7, reps=0, seed=1, workers=workers)
        with pytest.raises(ValueError, match="reps must be >= 1"):
            degree_sweep(0.5, 20, 0.5, 1, 3, reps=0, seed=1, workers=workers)


class TestFailureContext:
    """A failing replicate names its cell, whichever entry point ran it."""

    CONTEXT = r"simulation cell \(theta=0.5, n=20, p=0.25\) failed: sampler broke"

    @pytest.fixture(autouse=True)
    def failing_sampler(self, monkeypatch):
        def from_uniforms(self, u, t):
            raise FloatingPointError("sampler broke")

        monkeypatch.setattr(FgmModel, "from_uniforms", from_uniforms)

    def test_run_cell(self):
        with pytest.raises(RuntimeError, match=self.CONTEXT):
            run_cell(0.5, 20, 0.25, 7, reps=5, seed=1, workers=1)

    def test_degree_sweep(self):
        with pytest.raises(RuntimeError, match=self.CONTEXT):
            degree_sweep(0.5, 20, 0.25, 1, 3, reps=5, seed=1, workers=1)

    def test_run_table(self):
        config = ExperimentConfig(thetas=(0.5,), ns=(20,), ps=(0.25,), reps=5, seed=1)
        with pytest.raises(RuntimeError, match=self.CONTEXT) as info:
            run_table(config, workers=1)
        assert isinstance(info.value.__cause__, FloatingPointError)

    def test_unit_names_every_threshold(self):
        config = ExperimentConfig(thetas=(0.5,), ns=(20,), ps=(0.25, 1.0), reps=5, seed=1)
        context = r"simulation cell \(theta=0.5, n=20, p=0.25,1.0\) failed: sampler broke"
        with pytest.raises(RuntimeError, match=context):
            run_table(config, workers=1)


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
        """Three usable CPUs, a recording executor and a pool for every job,
        however small; yields the record."""
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(mc, "POOL_MIN_WORK", 0)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(RecordingExecutor, "started", [])
        return RecordingExecutor.started

    @pytest.fixture
    def task_counts(self, monkeypatch):
        """Two usable CPUs; records the task count of every _pool_map call."""
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        counts = []
        pool_map = mc._pool_map

        def recording_pool_map(fn, tasks, workers):
            counts.append(len(tasks))
            return pool_map(fn, tasks, workers)

        monkeypatch.setattr(mc, "_pool_map", recording_pool_map)
        return counts

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
            thetas=(-1.0, 1.0), ns=(15, 16), ps=(0.5, 1.0), reps=20, seed=8
        )
        assert run_table(config, workers=6) == run_table(config, workers=1)
        assert pool == [3]

    def test_blocks_sized_from_started_processes(self, pool, task_counts):
        wide = degree_sweep(0.5, 15, 0.5, 1, 4, reps=1000, seed=3, workers=64)
        assert task_counts == [8]  # four blocks for each of the two processes
        assert wide == degree_sweep(0.5, 15, 0.5, 1, 4, reps=1000, seed=3, workers=2)
        assert task_counts == [8, 8]
        assert pool == [2, 2]

    def test_one_cell_table_uses_every_process(self, pool, task_counts):
        config = ExperimentConfig(
            thetas=(0.5,), ns=(15,), ps=(0.5,), degree_rule=4, reps=100, seed=3
        )
        wide = run_table(config, workers=2)
        # four blocks per process would hold 13 replicates; rounded up to a
        # stream chunk of 64, the 100 replicates make one block per process
        assert task_counts == [2]
        assert pool == [2]
        assert wide == [run_cell(0.5, 15, 0.5, 4, reps=100, seed=3, workers=1)]

    def test_grid_blocks_never_span_cells(self, pool, task_counts):
        config = ExperimentConfig(
            thetas=(-1.0, 0.0, 1.0), ns=(15, 30), ps=(0.1, 0.5, 1.0), reps=6, seed=8
        )
        wide = run_table(config, workers=2)
        assert task_counts == [6]  # one block per (theta, n): 6 replicates fit one stream
        assert pool == [2]
        assert wide == run_table(config, workers=1)


class TestPoolRule:
    """A job starts a pool only when its estimated work reaches POOL_MIN_WORK;
    the choice depends on the job's shape and the worker count alone, and a
    job run in this process makes one block per (theta, n) unit."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Two usable CPUs; records every _pool_map call's process count and
        ((theta, n), start, stop) spans, and computes nothing."""
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
        record = []

        def fake_pool_map(fn, tasks, processes):
            record.append((processes, [(unit[:2], start, stop) for unit, _, start, stop in tasks]))
            return [np.zeros((stop - start, mc._width(unit[2]))) for unit, _, start, stop in tasks]

        monkeypatch.setattr(mc, "_pool_map", fake_pool_map)
        return record

    def reference_grid(self, reps):
        return ExperimentConfig(
            thetas=(-1.0, -0.5, 0.0, 0.5, 1.0), ns=(50, 200), ps=(0.1, 0.5, 1.0),
            reps=reps, seed=42,
        )

    # the reference grid's 10 units in the order of their tables: n = 50 first
    UNITS = [(theta, n) for n in (50, 200) for theta in (-1.0, -0.5, 0.0, 0.5, 1.0)]

    # the benchmark's workloads (perfbench/workloads.py): a 60-degree sweep
    # at n = 200 and the reference grid, 100 replicates each
    def test_benchmark_sweep_runs_in_process(self, calls):
        degree_sweep(0.0, 200, 0.5, 1, 60, reps=100, seed=1, workers=2)
        assert calls == [(1, [((0.0, 200), 0, 100)])]

    def test_benchmark_grid_runs_in_process(self, calls):
        run_table(self.reference_grid(100), workers=2)
        assert calls == [(1, [(unit, 0, 100) for unit in self.UNITS])]

    def test_reference_grid_starts_pool(self, calls):
        run_table(self.reference_grid(10_000), workers=2)
        # 10 units outnumber four blocks per process: one block each
        assert calls == [(2, [(unit, 0, 10_000) for unit in self.UNITS])]

    def test_large_cell_starts_pool(self, calls):
        run_cell(0.5, 200, 0.1, 34, reps=10_000, seed=1, workers=2)
        [(processes, spans)] = calls
        assert processes == 2
        assert len(spans) == 8  # four blocks per process

    def test_one_worker_never_pools(self, calls):
        run_table(self.reference_grid(10_000), workers=1)
        assert calls == [(1, [(unit, 0, 10_000) for unit in self.UNITS])]

    def test_many_degrees_at_small_n_run_in_process(self, calls):
        # 4000 * 5 * (14 + 1 + 1000) = 2.03e7 kernel units, below the threshold
        degree_sweep(0.5, 5, 0.5, 1, 1000, reps=4000, seed=1, workers=2)
        assert calls == [(1, [((0.5, 5), 0, 4000)])]

    def test_threshold_is_the_work_estimate(self, monkeypatch):
        # reps * n * (RANK_COST + 1 + degrees) units: 250 per replicate here
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(mc, "RANK_COST", 20)
        monkeypatch.setattr(mc, "POOL_MIN_WORK", 2500)
        units = [(0.5, 10, ((0.5, (4, 5, 6, 7)),))]
        assert mc._processes(units, 10, 8) == 2
        assert mc._processes(units, 9, 8) == 1
        assert mc._processes(units * 2, 5, 8) == 2  # summed over units
        two_cells = [(0.5, 10, ((0.5, (4, 5)), (0.1, (6,))))]  # 3 + 2 tables
        assert mc._processes(two_cells, 10, 8) == 2
        assert mc._processes(two_cells, 9, 8) == 1
        assert mc._processes(units, 10, 1) == 1


def loop_stats(x, true_rho):
    """The summary reduction as a loop over numpy scalars: the reference."""
    reps = x.size
    mean = math.fsum(x) / reps
    var = math.fsum((xi - mean) * (xi - mean) for xi in x) / (reps - 1) if reps > 1 else None
    mse = math.fsum((xi - true_rho) * (xi - true_rho) for xi in x) / reps
    return abs(mean - true_rho), var, mse


class TestSummaryReduction:
    # with seed 971 Python's ** (the C library pow) in place of d*d changes
    # mse_emp's last bit (x86-64 glibc), so that case tells the two apart
    @pytest.mark.parametrize("seed, reps", [(971, 200), (5, 3000), (6, 2), (7, 1)])
    def test_bit_identical_to_loop(self, seed, reps):
        rng = np.random.default_rng(seed)
        emp, bern = rng.uniform(-1, 1, reps), rng.uniform(-1, 1, reps)
        cell = mc._summary(0.5, 20, 0.5, 4, mc._stats(emp, 0.1), mc._stats(bern, 0.1))
        bias_e, var_e, mse_e = loop_stats(emp, 0.1)
        bias_b, var_b, mse_b = loop_stats(bern, 0.1)
        assert (cell.abs_bias_emp, cell.var_emp, cell.mse_emp) == (bias_e, var_e, mse_e)
        assert (cell.abs_bias_bern, cell.var_bern, cell.mse_bern) == (bias_b, var_b, mse_b)
        assert cell.mse_reduction_pct == 100.0 * (1.0 - mse_b / mse_e)


def stream_sample(theta, n, seed, rep):
    """Replicate rep's sample, rebuilt with the public sampler's formula: its
    stream chunk rep // 64, keyed by theta + 0.0's IEEE-754 bits and n, first
    draws u and t for each earlier replicate in it; the sample is the pairs
    (sort(u)_j, v_j) with v = from_uniforms(sort(u), t), listed in
    increasing v."""
    [bits] = struct.unpack("<Q", struct.pack("<d", theta + 0.0))
    seq = np.random.SeedSequence(seed, spawn_key=(bits, n, rep // 64))
    rng = np.random.default_rng(seq)
    rng.random(2 * n * (rep % 64))
    u = np.sort(rng.random(n))
    v = FgmModel(theta).from_uniforms(u, rng.random(n))
    order = np.argsort(v)
    return u[order], v[order]


def kernel(unit, seed, start, stop):
    """`mc._replicate_block` on replicates [start, stop) of the (theta, n,
    ((p, degrees), ...)) `unit`, with the unit's score tables."""
    _, n, cells = unit
    return mc._replicate_block((unit, mc._score_tables(n, cells), seed, start, stop))


class TestKernelMatchesPublicApi:
    """The replicate kernel's score tables give, bit for bit, what the public
    estimators give on the same replicate sample."""

    # at n = 20000 a chunk holds 3 replicates, so the 6-replicate block spans
    # two chunks and one stream; the other blocks cross a stream boundary
    @pytest.mark.parametrize(
        "n, start, stop",
        [pytest.param(n, start, 134, id=str(n))
         for n, start in [(1, 64), (2, 64), (50, 64), (20_000, 128)]],
    )
    def test_every_replicate(self, n, start, stop):
        theta, seed = 0.5, 11
        m_values = (1, rule_of_thumb_degree(n), n + 7)
        cells = ((0.9, m_values), (0.3, m_values[1:]))  # two cells share each sample
        integrals = kernel((theta, n, cells), seed, start, stop)
        for i, rep in enumerate(range(start, stop)):
            x, y = stream_sample(theta, n, seed, rep)
            ps = pseudo_observations(x, y, denominator="n+1")
            assert integrals[i].tolist() == [
                result.integral
                for p, degrees in cells
                for result in [rho_hat_empirical(ps, p)]
                + [rho_hat_bernstein(ps, p, m) for m in degrees]
            ]


class TestChunking:
    """The kernel's chunk size bounds memory and changes no bit."""

    @pytest.mark.parametrize("n, m_values", [(1, [1]), (9, [1, 4, 16]), (50, [13])])
    @pytest.mark.parametrize("rows", [1, 7])
    def test_chunk_size_leaves_bits(self, monkeypatch, n, m_values, rows):
        args = ((-0.5, n, ((0.5, tuple(m_values)),)), 17, 64, 84)
        values = kernel(*args)
        assert mc.CHUNK // n >= 20  # the default runs this block as one chunk
        monkeypatch.setattr(mc, "CHUNK", rows * n)
        assert kernel(*args).tolist() == values.tolist()


class TestScoreTables:
    def test_built_once_per_cell(self, monkeypatch):
        # at n = 2000 a kernel chunk holds 32 replicates, so the one block
        # of 150 spans 5 chunks; each degree's weights are built once
        calls = []
        tail_weights = mc.tail_weights

        def counted(p, m):
            calls.append(m)
            return tail_weights(p, m)

        monkeypatch.setattr(mc, "tail_weights", counted)
        degree_sweep(0.5, 2000, 0.1, 1, 60, reps=150, seed=1, workers=1)
        assert -(-150 // (mc.CHUNK // 2000)) == 5
        assert sorted(calls) == list(range(1, 61))

    def test_kept_across_a_threads_blocks(self, monkeypatch):
        # a pooled job whose 8 blocks all run in this thread builds each
        # cell's tables once, sends none in its tasks, and lets them go after
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(mc, "POOL_MIN_WORK", 0)
        jobs, built = [], []

        def map_in_this_thread(fn, tasks, processes):
            jobs.append((processes, len(tasks), max(len(pickle.dumps(t)) for t in tasks)))
            return [fn(task) for task in tasks]

        score_tables = mc._score_tables

        def counted(n, cells):
            built.append((n, cells))
            return score_tables(n, cells)

        monkeypatch.setattr(mc, "_pool_map", map_in_this_thread)
        monkeypatch.setattr(mc, "_score_tables", counted)
        grid = [(0.5, 20, 0.5, [4, 9]), (-1.0, 20, 0.1, [4, 9])]
        pooled = mc._simulate(grid, 1000, 3, 2)
        [(processes, tasks, largest)] = jobs
        assert (processes, tasks) == (2, 8) and largest < 200  # bytes per task
        # units run in the order of their tables: p = 0.1 first
        assert built == [(20, ((0.1, (4, 9)),)), (20, ((0.5, (4, 9)),))]
        assert mc._thread.tables is None
        monkeypatch.setattr(mc, "POOL_MIN_WORK", 10**9)
        for (rho, emp, bern), (rho1, emp1, bern1) in zip(pooled, mc._simulate(grid, 1000, 3, 2)):
            assert (rho, emp.tolist(), bern.tolist()) == (rho1, emp1.tolist(), bern1.tolist())
        assert jobs[1][:2] == (1, 2)

    def test_units_of_equal_tables_share_a_build(self, monkeypatch):
        # the in-process reference grid's 10 units need one build per n
        built = []
        score_tables = mc._score_tables

        def counted(n, cells):
            built.append(n)
            return score_tables(n, cells)

        monkeypatch.setattr(mc, "_score_tables", counted)
        config = ExperimentConfig(
            thetas=(-1.0, -0.5, 0.0, 0.5, 1.0), ns=(50, 200), ps=(0.1, 0.5, 1.0), reps=100
        )
        run_table(config, workers=1)
        assert built == [50, 200]


def in_new_thread(fn):
    """fn() in a thread of its own, which starts with no work arrays."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result()


class TestWorkArrays:
    """A thread keeps one set of kernel work arrays, for CHUNK values, and
    reuses it for every block; a larger block's arrays are not kept."""

    def test_reused_across_blocks_of_any_n(self):
        sizes = (200, 7, 1000, 1, 50)

        def block(n):
            return kernel((0.5, n, ((0.5, (1, 3 * n)),)), 5, 0, 70).tolist()

        def blocks():
            values, kept = [], []
            for n in sizes:
                values.append(block(n))
                kept.append(mc._thread.work)
            return values, kept

        values, kept = in_new_thread(blocks)
        assert all(work is kept[0] for work in kept)
        assert kept[0].size == mc.CHUNK
        # each block alone in a fresh thread gives the same bits
        assert values == [in_new_thread(lambda n=n: block(n)) for n in sizes]

    def test_threads_keep_their_own(self):
        # more threads than CPUs, switching often, each running blocks of
        # several sizes: a set shared between threads would mix their rows
        units = [(theta, n, ((0.5, (1, 2 * n)),))
                 for theta in (0.5, -0.5, 1.0) for n in (20, 300, 3, 80)]
        serial = [kernel(unit, 9, 0, 90).tolist() for unit in units]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(kernel, unit, 9, 0, 90) for unit in units]
                threaded = [future.result(timeout=60).tolist() for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_block_above_chunk_keeps_nothing(self):
        n = mc.CHUNK + 1

        def large_cell():
            return run_cell(0.5, n, 0.5, rule_of_thumb_degree(n), reps=1, seed=1, workers=1)

        def kept_after(small_first):
            if small_first:
                kernel((0.5, 50, ((0.5, (13,)),)), 1, 0, 10)
            large_cell()
            return getattr(mc._thread, "work", None)

        assert in_new_thread(lambda: kept_after(False)) is None
        work = in_new_thread(lambda: kept_after(True))
        assert work.size == mc.CHUNK
        assert work.draws.size == 2 * mc.CHUNK
        assert max(work.flat.size, work.sorted.size, work.products.size) == mc.CHUNK


class TestStreams:
    """Replicate r of a (theta, n) draws from stream chunk r // 64
    (mc.STREAM); how the replicates are cut into blocks, kernel chunks and
    workers changes no bit."""

    def test_stream_is_fixed(self):
        assert mc.STREAM == 64

    # n = 2000 > CHUNK / 64: at the default CHUNK a stream spans kernel chunks
    @pytest.mark.parametrize("n", [40, 2000])
    def test_block_starts_and_chunks_leave_bits(self, monkeypatch, n):
        unit = (0.5, n, ((0.5, (1, rule_of_thumb_degree(n))),))
        whole = kernel(unit, 7, 0, 150).tolist()
        for cuts in ([0, 64, 128, 150], [0, 128, 150], [0, 64, 150]):
            blocks = [kernel(unit, 7, a, b) for a, b in zip(cuts, cuts[1:])]
            assert np.concatenate(blocks).tolist() == whole
        # kernel chunks of 1 and 7 rows hold part of a stream, of 100 rows
        # parts of two streams, of 150 rows the whole block
        for rows in (1, 7, 100, 150):
            monkeypatch.setattr(mc, "CHUNK", rows * n + n // 2)
            assert kernel(unit, 7, 0, 150).tolist() == whole

    @pytest.fixture
    def spans(self, monkeypatch):
        """Records every task's (n, start, stop); computes nothing."""
        record = []

        def fake_pool_map(fn, tasks, workers):
            record.extend((unit[1], start, stop) for unit, _, start, stop in tasks)
            return [np.zeros((stop - start, mc._width(unit[2]))) for unit, _, start, stop in tasks]

        monkeypatch.setattr(mc, "_pool_map", fake_pool_map)
        return record

    @pytest.mark.parametrize("reps", [1, 63, 64, 65, 100, 1000, 10_000])
    @pytest.mark.parametrize("cells, processes", [(1, 1), (1, 2), (1, 8), (30, 2), (7, 8)])
    def test_blocks_start_at_stream_multiples(self, monkeypatch, spans, reps, cells, processes):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: processes)
        grid = [(0.5, 20 + k, 0.5, [4]) for k in range(cells)]  # one unit per cell
        mc._simulate(grid, reps, 1, processes)
        for k in range(cells):
            cuts = [(start, stop) for n, start, stop in spans if n == 20 + k]
            assert all(start % mc.STREAM == 0 for start, _ in cuts)
            assert [start for start, _ in cuts] == [0] + [stop for _, stop in cuts[:-1]]
            assert cuts[-1][1] == reps

    def test_hundred_replicates_make_two_blocks(self, monkeypatch, spans):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(mc, "POOL_MIN_WORK", 0)  # pooled, however small
        mc._simulate([(0.5, 20, 0.5, [4])], 100, 1, 2)
        assert spans == [(20, 0, 64), (20, 64, 100)]

    @pytest.mark.parametrize("workers", [2, 8])
    def test_worker_counts_leave_bits(self, monkeypatch, workers):
        grid = [(0.5, 30, 0.5, [9]), (-1.0, 12, 1.0, [1, 5]), (0.5, 30, 0.1, [2, 9])]
        serial = mc._simulate(grid, 300, 5, 1)
        # as many usable CPUs as workers, served in this process, and a pool
        # for this small job
        monkeypatch.setattr(mc, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(mc, "POOL_MIN_WORK", 0)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(RecordingExecutor, "started", [])
        wide = mc._simulate(grid, 300, 5, workers)
        assert RecordingExecutor.started == [workers]
        for (truth, emp, bern), (wide_truth, wide_emp, wide_bern) in zip(serial, wide):
            assert (truth, emp.tolist(), bern.tolist()) == (
                wide_truth, wide_emp.tolist(), wide_bern.tolist()
            )

    @pytest.mark.parametrize("start", [1, 5, 63, 65, 100])
    def test_misaligned_block_rejected(self, start):
        message = f"replicate block starts at {start}, not a multiple of STREAM=64"
        with pytest.raises(ValueError, match=message):
            kernel((0.5, 20, ((0.5, (4,)),)), 1, start, start + 10)


class TestBatchedChecks:
    """A tie or a non-finite value in any row of a chunk fails the cell, named."""

    @pytest.mark.parametrize(
        "bad, cause, message",
        [
            ("tie", TiesError, "duplicate values in the second margin"),
            (np.nan, ValueError, "sample contains non-finite values"),
        ],
    )
    def test_last_row_corrupted(self, monkeypatch, bad, cause, message):
        from_uniforms = FgmModel.from_uniforms

        def patched(self, u, t):
            v = from_uniforms(self, u, t)
            v[-1, 3] = v[-1, 11] if bad == "tie" else bad
            return v

        monkeypatch.setattr(FgmModel, "from_uniforms", patched)
        with pytest.raises(RuntimeError) as info:  # one block of eight rows
            run_cell(0.5, 20, 0.25, 7, reps=8, seed=1, workers=1)
        cell = "simulation cell (theta=0.5, n=20, p=0.25) failed: "
        assert str(info.value).startswith(cell + message)
        assert type(info.value.__cause__) is cause

    # the kernel checks sorted rows: a non-finite value anywhere in a row
    # must still be seen, and the first margin's tie check runs on the
    # sorted u that from_uniforms receives
    @pytest.mark.parametrize(
        "margin, bad, cause, message",
        [
            ("v", np.inf, ValueError, "sample contains non-finite values"),
            ("v", -np.inf, ValueError, "sample contains non-finite values"),
            ("u", "tie", TiesError, "duplicate values in the first margin"),
        ],
    )
    def test_any_position_in_sorted_rows(self, monkeypatch, margin, bad, cause, message):
        from_uniforms = FgmModel.from_uniforms

        def patched(self, u, t):
            v = from_uniforms(self, u, t)
            rows = v if margin == "v" else u
            rows[2, 9] = rows[2, 10] if bad == "tie" else bad
            return v

        monkeypatch.setattr(FgmModel, "from_uniforms", patched)
        with pytest.raises(RuntimeError) as info:
            run_cell(0.5, 20, 0.25, 7, reps=8, seed=1, workers=1)
        cell = "simulation cell (theta=0.5, n=20, p=0.25) failed: "
        assert str(info.value).startswith(cell + message)
        assert type(info.value.__cause__) is cause


NON_FINITE = "sample contains non-finite values"
FIRST_TIE = "duplicate values in the first margin"
SECOND_TIE = "duplicate values in the second margin"

# Defective samples of n = 20 pairs: (margin, position, value) edits, then
# the error that must win.  A "tie" copies the value one position before.
# The first margin's edits keep it sorted, as the kernel's first margin is.
DEFECTS = {
    **{
        f"{value} at {where}": ([(1, position, value)], ValueError, NON_FINITE)
        for value in (np.nan, np.inf, -np.inf)
        for where, position in (("start", 0), ("middle", 10), ("end", 19))
    },
    "-inf first": ([(0, 0, -np.inf)], ValueError, NON_FINITE),
    "nan last": ([(0, 19, np.nan)], ValueError, NON_FINITE),
    "tie in first": ([(0, 10, "tie")], TiesError, FIRST_TIE),
    "tie in second": ([(1, 10, "tie")], TiesError, SECOND_TIE),
    "ties in both": ([(1, 5, "tie"), (0, 10, "tie")], TiesError, FIRST_TIE),
    "tie and nan": ([(0, 10, "tie"), (1, 5, np.nan)], ValueError, NON_FINITE),
}


class TestOneCheck:
    """pseudo_observations and the kernel make one check: each defective
    sample fails both with the same error, and the same fault wins."""

    @pytest.mark.parametrize("edits, cause, message", DEFECTS.values(), ids=DEFECTS)
    def test_both_paths_agree(self, monkeypatch, edits, cause, message):
        samples = []
        from_uniforms = FgmModel.from_uniforms

        def patched(self, u, t):
            v = from_uniforms(self, u, t)
            for margin, position, value in edits:
                row = (u, v)[margin][-1]  # the chunk's last replicate
                row[position] = row[position - 1] if value == "tie" else value
            samples.append((u[-1].copy(), v[-1].copy()))
            return v

        monkeypatch.setattr(FgmModel, "from_uniforms", patched)
        with pytest.raises(RuntimeError) as kernel:  # one chunk of eight rows
            run_cell(0.5, 20, 0.25, 7, reps=8, seed=1, workers=1)
        [(x, y)] = samples
        with pytest.raises(ValueError) as direct:
            pseudo_observations(x, y, "n+1")
        cell = "simulation cell (theta=0.5, n=20, p=0.25) failed: "
        assert str(kernel.value) == cell + str(direct.value)
        assert type(kernel.value.__cause__) is type(direct.value) is cause
        assert str(direct.value).startswith(message)
