import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from tailrho import (
    FgmModel,
    QuadratureError,
    normalizer,
    pseudo_observations,
    rho_hat_bernstein,
    rho_hat_empirical,
    tail_weights,
)
from tailrho.quadrature import integrate_square
from definitions import bernstein_copula, copula_grid, empirical_copula, rho_tail_population


def rectangle_integral(ps, p):
    """Exact integral of the empirical copula over [0, p]^2.

    Independent oracle: sums value * area over the rectangles on which the
    step function is constant (breakpoints at the pseudo-observations).
    """
    xs = sorted({0.0, p} | {u for u in ps.u.tolist() if u < p})
    ys = sorted({0.0, p} | {v for v in ps.v.tolist() if v < p})
    total = 0.0
    for x0, x1 in zip(xs, xs[1:]):
        for y0, y1 in zip(ys, ys[1:]):
            total += empirical_copula(ps, x0, y0) * (x1 - x0) * (y1 - y0)
    return total


class TestNormalizer:
    def test_closed_forms(self):
        assert normalizer(1.0) == pytest.approx(1.0 / 12.0, rel=1e-14, abs=0)
        assert normalizer(0.5) == pytest.approx(5.0 / 192.0, rel=1e-14, abs=0)
        assert normalizer(0.1) == pytest.approx(1 / 3000 - 1 / 40000, rel=1e-14, abs=0)

    def test_domain(self):
        with pytest.raises(ValueError):
            normalizer(0.0)
        with pytest.raises(ValueError):
            normalizer(1.2)
        with pytest.raises(ValueError):
            normalizer(1e-7)  # degenerate thresholds are rejected
        assert normalizer(1e-3) > 0.0


class TestPopulationRho:
    def test_independence_is_zero(self):
        for p in (0.1, 0.5, 1.0):
            assert rho_tail_population(lambda u, v: u * v, p) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_upper_bound_is_one(self):
        # min(u, v) has a diagonal kink, so ask for a modest tolerance
        for p in (0.3, 1.0):
            got = rho_tail_population(np.minimum, p, tol=1e-6)
            assert got == pytest.approx(1.0, abs=5e-4)

    def test_fgm_full_range(self):
        model = FgmModel(1.0)
        assert rho_tail_population(model.cdf, 1.0) == pytest.approx(
            1.0 / 3.0, abs=1e-9
        )

    @pytest.mark.parametrize("theta", [-1.0, -0.5, 0.0, 0.5, 1.0])
    @pytest.mark.parametrize("p", [0.1, 0.5, 1.0])
    def test_fgm_matches_analytic(self, theta, p):
        model = FgmModel(theta)
        assert rho_tail_population(model.cdf, p) == pytest.approx(
            model.rho_tail_analytic(p), abs=1e-9
        )

    @pytest.mark.parametrize("theta", [-1.0, 0.0, 1.0])
    def test_full_range_recovers_classical_rho(self, theta):
        # at p = 1 the functional is 12 * integral - 3
        model = FgmModel(theta)
        got = rho_tail_population(model.cdf, 1.0)
        assert got == pytest.approx(theta / 3.0, abs=1e-9)

    def test_nonconvergence_raises(self):
        with pytest.raises(QuadratureError):
            integrate_square(np.minimum, 1.0, tol=1e-14, max_doublings=2)


class TestEmpiricalEstimator:
    def test_comonotone_pair(self):
        ps = pseudo_observations([1, 2], [1, 2])
        res = rho_hat_empirical(ps, 1.0)
        assert res.integral == pytest.approx(0.125, abs=1e-15)
        assert res.value == pytest.approx(-1.5, abs=1e-12)

    def test_empty_corner_floor(self):
        # n = 5, p = 0.1: every pseudo-observation exceeds p
        ps = pseudo_observations([1, 2, 3, 4, 5], [5, 4, 3, 2, 1])
        res = rho_hat_empirical(ps, 0.1)
        assert res.integral == 0.0
        assert res.value == pytest.approx(-3 * 0.1 / (4 - 3 * 0.1), rel=1e-12, abs=0)
        assert res.value == pytest.approx(-0.081081, abs=1e-6)

    def test_rectangle_oracle_small(self):
        rng = np.random.default_rng(3)
        ps = pseudo_observations(rng.random(4), rng.random(4))
        res = rho_hat_empirical(ps, 0.6)
        oracle = (rectangle_integral(ps, 0.6) - 0.6**4 / 4) / normalizer(0.6)
        assert res.value == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("seed", range(50))
    def test_rectangle_oracle_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 51))
        p = float(rng.uniform(0.05, 1.0))
        ps = pseudo_observations(rng.random(n), rng.random(n))
        res = rho_hat_empirical(ps, p)
        assert res.integral == pytest.approx(rectangle_integral(ps, p), abs=1e-12)

    def test_result_fields(self):
        ps = pseudo_observations([1, 2, 3], [3, 2, 1])
        res = rho_hat_empirical(ps, 0.8)
        assert res.method == "empirical"
        assert res.m is None
        assert res.value == pytest.approx(
            (res.integral - 0.8**4 / 4) / normalizer(0.8), rel=1e-14, abs=0
        )


class TestBernsteinEstimator:
    def test_hand_example(self):
        ps = pseudo_observations([1, 2], [1, 2])
        res = rho_hat_bernstein(ps, 1.0, 2)
        assert res.integral == pytest.approx(2.5 / 9.0, rel=1e-14, abs=0)
        assert res.value == pytest.approx((2.5 / 9.0 - 0.25) * 12.0, rel=1e-12, abs=0)

    def test_quadrature_oracle(self):
        rng = np.random.default_rng(42)
        xy = FgmModel(0.0).sample(50, rng)
        ps = pseudo_observations(xy[:, 0], xy[:, 1])
        p, m = 0.5, 13
        res = rho_hat_bernstein(ps, p, m)
        grid = copula_grid(ps, m)
        integral, _ = integrate.dblquad(
            lambda v, u: bernstein_copula(grid, u, v),
            0.0,
            p,
            0.0,
            p,
            epsabs=1e-10,
            epsrel=1e-10,
        )
        assert res.integral == pytest.approx(integral, abs=1e-8)

    def test_weights_mismatch_rejected(self):
        from tailrho import tail_weights

        ps = pseudo_observations([1, 2, 3], [1, 3, 2])
        with pytest.raises(ValueError):
            rho_hat_bernstein(ps, 0.5, 4, weights=tail_weights(0.5, 5))

    @given(
        seed=st.integers(min_value=0, max_value=9999),
        p=st.floats(min_value=0.05, max_value=1.0),
        m=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_value_bounds(self, seed, p, m):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        ps = pseudo_observations(rng.random(n), rng.random(n))
        res = rho_hat_bernstein(ps, p, m)
        assert res.value <= 1.0 + 1e-12
        assert res.value >= -3 * p / (4 - 3 * p) - 1e-12


def grid_integral(ps, p, m):
    """The smoothed corner integral by its definition, w @ grid @ w."""
    w = tail_weights(p, m).w
    return float(w @ copula_grid(ps, m).values @ w)


class TestRankScoreForm:
    """The rank-score evaluation against the (m+1)^2 grid contraction."""

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("denominator", ["n", "n+1"])
    def test_matches_grid_contraction(self, seed, denominator):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 300))
        m = int(rng.integers(1, 80))
        p = float(rng.uniform(0.01, 1.0))
        ps = pseudo_observations(rng.random(n), rng.random(n), denominator=denominator)
        got = rho_hat_bernstein(ps, p, m).integral
        assert abs(got - grid_integral(ps, p, m)) <= 2e-15

    @pytest.mark.parametrize("denominator", ["n", "n+1"])
    @pytest.mark.parametrize(
        "n, m, p",
        [(1, 1, 0.5), (1, 7, 1.0), (3, 40, 0.3), (5, 200, 0.1), (30, 13, 1.0), (12, 1, 1.0)],
    )
    def test_edge_cases(self, denominator, n, m, p):
        rng = np.random.default_rng(n * 1000 + m)
        ps = pseudo_observations(rng.random(n), rng.random(n), denominator=denominator)
        got = rho_hat_bernstein(ps, p, m).integral
        assert abs(got - grid_integral(ps, p, m)) <= 2e-15


# Eight n = 200000 samples: both integrals of each, as float.hex.
BLAS_SCRIPT = """
import numpy as np
from tailrho import FgmModel, pseudo_observations, rho_hat_bernstein, rho_hat_empirical
from tailrho import rule_of_thumb_degree

n = 200_000
for seed in range(8):
    xy = FgmModel(0.5).sample(n, np.random.default_rng(seed))
    ps = pseudo_observations(xy[:, 0], xy[:, 1], denominator="n+1")
    emp = rho_hat_empirical(ps, 0.5).integral
    bern = rho_hat_bernstein(ps, 0.5, rule_of_thumb_degree(n)).integral
    print(emp.hex(), bern.hex())
"""


class TestBlasThreads:
    """The rank integral calls no BLAS, so its bits do not depend on the
    BLAS thread count (a threaded dot splits long rows between threads)."""

    def test_same_bits_at_one_and_two_threads(self):
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", BLAS_SCRIPT], env=env, capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert len(outputs[0].split()) == 16
        assert outputs[0] == outputs[1]
