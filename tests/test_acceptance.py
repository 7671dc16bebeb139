"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[PASS] criterion N` line (visible with `pytest -s`);
the simulation-grid block shares one K = 10000 run.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate, stats

from tailrho import (
    FgmModel,
    normalizer,
    pseudo_observations,
    rho_hat_bernstein,
    rho_hat_empirical,
    rule_of_thumb_degree,
    tail_weights,
)
from tailrho.mc import ExperimentConfig, _simulate, run_table
from definitions import bernstein_copula, copula_grid, pointwise_variance, rho_tail_population

THETAS = (-1.0, -0.5, 0.0, 0.5, 1.0)
PS = (0.1, 0.5, 1.0)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def reference_grid():
    config = ExperimentConfig(
        thetas=THETAS, ns=(50, 200), ps=PS, reps=10_000, seed=42
    )
    rows = run_table(config)
    return {(r.theta, r.n, r.p): r for r in rows}


class TestReferenceGridReproduction:
    def test_criterion_1_independence_deep_tail(self, reference_grid):
        cell = reference_grid[(0.0, 50, 0.1)]
        ok = (
            abs(cell.mse_emp - 0.0122) <= 0.1 * 0.0122
            and abs(cell.mse_bern - 0.0037) <= 0.1 * 0.0037
            and abs(cell.mse_reduction_pct - 69.9) <= 5.0
        )
        report(
            1,
            ok,
            f"mse_emp={cell.mse_emp:.5f} (0.0122±10%), "
            f"mse_bern={cell.mse_bern:.5f} (0.0037±10%), "
            f"reduction={cell.mse_reduction_pct:.1f}% (69.9±5)",
        )

    def test_criterion_2_negative_dependence_deep_tail(self, reference_grid):
        cell = reference_grid[(-0.5, 50, 0.1)]
        ok = abs(cell.mse_reduction_pct - 68.5) <= 5.0
        report(2, ok, f"reduction={cell.mse_reduction_pct:.1f}% (68.5±5)")

    def test_criterion_3_smoothing_hurts_full_range(self, reference_grid):
        cell = reference_grid[(-1.0, 200, 1.0)]
        ok = abs(cell.mse_reduction_pct - (-4.8)) <= 4.0 and cell.mse_reduction_pct < 0
        report(3, ok, f"reduction={cell.mse_reduction_pct:.1f}% (-4.8±4, negative)")

    def test_criterion_4_bias_matches_table_and_expansion(self, reference_grid):
        cell = reference_grid[(1.0, 200, 1.0)]
        expansion = (2.0 / 3.0) / 34.0
        ok = (
            abs(cell.abs_bias_bern - 0.0240) <= 0.3 * 0.0240
            and abs(cell.abs_bias_bern - expansion) <= 0.5 * expansion
        )
        report(
            4,
            ok,
            f"|bias_bern|={cell.abs_bias_bern:.4f} "
            f"(0.0240±30%, expansion {expansion:.4f}±50%)",
        )

    def test_criterion_5_variance_ordering_everywhere(self, reference_grid):
        bad = [
            key
            for key, cell in reference_grid.items()
            if not cell.var_bern < cell.var_emp
        ]
        report(5, not bad, f"var_bern < var_emp in all 30 cells (violations: {bad})")

    def test_supplementary_unbiased_cell_under_independence(self, reference_grid):
        # full-range independence: both estimators essentially unbiased
        cell = reference_grid[(0.0, 50, 1.0)]
        assert cell.abs_bias_emp <= 0.005
        assert cell.abs_bias_bern <= 0.005


class TestExactSuite:
    def test_criterion_6_weight_sum_identity(self):
        worst = max(
            abs(math.fsum(tail_weights(p, m).w) - p)
            for p in (0.1, 0.37, 0.5, 1.0)
            for m in range(1, 1001)
        )
        report(6, worst <= 1e-12, f"max |sum(w)-p| = {worst:.2e} (<= 1e-12)")

    def test_criterion_7_empirical_closed_form(self):
        def rectangle_integral(ps, p):
            xs = np.array(sorted({0.0, p} | {u for u in ps.u.tolist() if u < p}))
            ys = np.array(sorted({0.0, p} | {v for v in ps.v.tolist() if v < p}))
            below_x = ps.u[:, None] <= xs[None, :-1]
            below_y = ps.v[:, None] <= ys[None, :-1]
            corner = (below_x.T.astype(float) @ below_y.astype(float)) / ps.n
            return float(np.diff(xs) @ corner @ np.diff(ys))

        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(500):
            n = int(rng.integers(2, 51))
            p = float(rng.uniform(0.05, 1.0))
            ps = pseudo_observations(rng.random(n), rng.random(n))
            res = rho_hat_empirical(ps, p)
            oracle = (rectangle_integral(ps, p) - p**4 / 4) / normalizer(p)
            worst = max(worst, abs(res.value - oracle))
        report(7, worst <= 1e-12, f"max |closed form - oracle| = {worst:.2e}")

    def test_criterion_8_bernstein_sum_vs_quadrature(self):
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(5, 31))
            m = int(rng.integers(1, 9))
            p = float(rng.uniform(0.2, 1.0))
            ps = pseudo_observations(rng.random(n), rng.random(n))
            res = rho_hat_bernstein(ps, p, m)
            grid = copula_grid(ps, m)
            integral, _ = integrate.dblquad(
                lambda v, u: bernstein_copula(grid, u, v),
                0.0, p, 0.0, p, epsabs=1e-11, epsrel=1e-11,
            )
            worst = max(worst, abs(res.integral - integral))
        report(8, worst <= 1e-8, f"max |sum form - dblquad| = {worst:.2e}")

    def test_criterion_9_analytic_vs_quadrature(self):
        worst = 0.0
        for theta in THETAS:
            model = FgmModel(theta)
            for p in PS:
                diff = abs(
                    model.rho_tail_analytic(p) - rho_tail_population(model.cdf, p)
                )
                worst = max(worst, diff)
        full_range = max(
            abs(FgmModel(theta).rho_tail_analytic(1.0) - theta / 3.0)
            for theta in THETAS
        )
        ok = worst <= 1e-9 and full_range <= 1e-12
        report(
            9, ok,
            f"max quadrature gap {worst:.2e} (<=1e-9), "
            f"max |rho(1)-theta/3| = {full_range:.2e} (<=1e-12)",
        )

    def test_criterion_10_partials_and_sampler(self):
        h = np.longdouble(1e-5)
        pts = np.linspace(0.05, 0.95, 21)
        worst_fd = 0.0
        for theta in (-1.0, 0.5, 1.0):
            model = FgmModel(theta)
            for u64 in pts:
                for v64 in pts:
                    u, v = np.longdouble(u64), np.longdouble(v64)
                    c_u, c_v, c_uu, c_vv = model.partials(u64, v64)
                    fd = (
                        float((model.cdf(u + h, v) - model.cdf(u - h, v)) / (2 * h)),
                        float((model.cdf(u, v + h) - model.cdf(u, v - h)) / (2 * h)),
                        float(
                            (model.cdf(u + h, v) - 2 * model.cdf(u, v)
                             + model.cdf(u - h, v)) / h**2
                        ),
                        float(
                            (model.cdf(u, v + h) - 2 * model.cdf(u, v)
                             + model.cdf(u, v - h)) / h**2
                        ),
                    )
                    worst_fd = max(
                        worst_fd,
                        abs(c_u - fd[0]), abs(c_v - fd[1]),
                        abs(c_uu - fd[2]), abs(c_vv - fd[3]),
                    )
        worst_resid = 0.0
        for theta in (-1.0, -0.5, 0.5, 1.0):
            model = FgmModel(theta)
            rng = np.random.default_rng(31)
            xy = model.sample(10_000, rng)
            rng2 = np.random.default_rng(31)
            u, t = rng2.random(10_000), rng2.random(10_000)
            resid = np.abs(model.conditional_cdf(xy[:, 1], u) - t).max()
            worst_resid = max(worst_resid, float(resid))
        ok = worst_fd <= 1e-6 and worst_resid <= 1e-12
        report(
            10, ok,
            f"max FD gap {worst_fd:.2e} (<=1e-6), "
            f"max inversion residual {worst_resid:.2e} (<=1e-12)",
        )

    def test_criterion_11_variance_coefficient_hand_value(self):
        got = pointwise_variance(FgmModel(0.0), 0.5, 0.5)
        report(
            11, abs(got - 0.0625) <= 1e-14,
            f"sigma2(0.5,0.5) under independence = {got!r} (0.0625 ± 1e-14)",
        )

    def test_criterion_12_byte_identical_determinism(self, tmp_path):
        args = [
            sys.executable, "-m", "tailrho", "simulate",
            "--theta=-0.5,0.5", "--n", "30", "--p", "0.5,1.0",
            "--reps", "200", "--seed", "9",
        ]
        outputs = []
        for tag, threads in (("a", "1"), ("b", "8"), ("c", "1")):
            out = tmp_path / f"{tag}.csv"
            env = dict(os.environ, TAILRHO_THREADS=threads)
            proc = subprocess.run(
                args + ["--out", str(out)], env=env, capture_output=True
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(out.read_bytes())
        ok = outputs[0] == outputs[1] == outputs[2]
        report(12, ok, "simulate byte-identical across reruns and worker counts 1/8")


class TestAsymptoticSuite:
    def test_criterion_13_consistency_in_n(self):
        theta = 0.5
        model = FgmModel(theta)
        ok = True
        details = []
        for p in PS:
            true_rho = model.rho_tail_analytic(p)
            medians = []
            for n in (50, 200, 800):
                m = rule_of_thumb_degree(n)
                [(_, _, bern)] = _simulate([(theta, n, p, [m])], 200, 4242, 2)
                medians.append(float(np.median(np.abs(bern[:, 0] - true_rho))))
            details.append(f"p={p}: " + " > ".join(f"{v:.4f}" for v in medians))
            ok = ok and medians[0] > medians[1] > medians[2]
        report(13, ok, "median |error| decreasing over n=50,200,800; " + "; ".join(details))

    def test_criterion_14_gaussian_limit_shape(self):
        theta, p, n, reps = 0.5, 0.5, 2000, 5000
        m = rule_of_thumb_degree(n)
        model = FgmModel(theta)
        [(_, _, bern)] = _simulate([(theta, n, p, [m])], reps, 777, 2)
        z = math.sqrt(n) * (bern[:, 0] - model.rho_tail_analytic(p))
        skew = float(stats.skew(z))
        kurt = float(stats.kurtosis(z))
        ok = abs(skew) < 0.2 and abs(kurt) < 0.5
        report(
            14, ok,
            f"standardized replicates: skew={skew:.3f} (<0.2), "
            f"excess kurtosis={kurt:.3f} (<0.5)",
        )
