from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailrho import FgmModel
from definitions import fgm_inversion, limit_variance_quadrature, rho_tail_population


def ks_uniform_distance(sample):
    """One-sample Kolmogorov-Smirnov distance to the uniform law on [0, 1]."""
    x = np.sort(sample)
    n = x.size
    i = np.arange(1, n + 1)
    return max(np.max(i / n - x), np.max(x - (i - 1) / n))


class TestCdf:
    def test_independence(self):
        assert FgmModel(0.0).cdf(0.3, 0.8) == pytest.approx(0.24, rel=1e-14, abs=0)

    def test_positive_dependence_center(self):
        assert FgmModel(1.0).cdf(0.5, 0.5) == pytest.approx(0.3125, rel=1e-14, abs=0)

    def test_uniform_margin(self):
        assert FgmModel(-1.0).cdf(1.0, 0.7) == pytest.approx(0.7, rel=1e-14, abs=0)
        assert FgmModel(0.5).cdf(0.0, 0.7) == 0.0

    def test_parameter_and_domain_validation(self):
        with pytest.raises(ValueError):
            FgmModel(1.5)
        with pytest.raises(ValueError):
            FgmModel(0.5).cdf(1.2, 0.5)


class TestPartials:
    def test_independence_partials(self):
        c_u, c_v, c_uu, c_vv = FgmModel(0.0).partials(0.3, 0.8)
        assert (c_u, c_v, c_uu, c_vv) == (0.8, 0.3, 0.0, 0.0)

    def test_center_values(self):
        c_u, _, c_uu, _ = FgmModel(1.0).partials(0.5, 0.5)
        assert c_u == pytest.approx(0.5, rel=1e-14, abs=0)
        assert c_uu == pytest.approx(-0.5, rel=1e-14, abs=0)

    @pytest.mark.parametrize("theta", [-1.0, -0.3, 0.7, 1.0])
    def test_finite_difference_lattice(self, theta):
        # the oracle differences run in extended precision: the second
        # difference divides a ~1e-10 cancellation by h^2, which float64
        # cannot resolve to 1e-6
        model = FgmModel(theta)
        h = np.longdouble(1e-5)
        pts = np.linspace(0.05, 0.95, 21)
        for u64 in pts:
            for v64 in pts:
                c_u, c_v, c_uu, c_vv = model.partials(u64, v64)
                u, v = np.longdouble(u64), np.longdouble(v64)
                fd_u = (model.cdf(u + h, v) - model.cdf(u - h, v)) / (2 * h)
                fd_v = (model.cdf(u, v + h) - model.cdf(u, v - h)) / (2 * h)
                fd_uu = (
                    model.cdf(u + h, v) - 2 * model.cdf(u, v) + model.cdf(u - h, v)
                ) / h**2
                fd_vv = (
                    model.cdf(u, v + h) - 2 * model.cdf(u, v) + model.cdf(u, v - h)
                ) / h**2
                assert c_u == pytest.approx(float(fd_u), abs=1e-6)
                assert c_v == pytest.approx(float(fd_v), abs=1e-6)
                assert c_uu == pytest.approx(float(fd_uu), abs=1e-6)
                assert c_vv == pytest.approx(float(fd_vv), abs=1e-6)


class TestSampler:
    def test_independence_passthrough(self):
        rng = np.random.default_rng(0)
        xy = FgmModel(0.0).sample(1000, rng)
        rng2 = np.random.default_rng(0)
        u, t = rng2.random(1000), rng2.random(1000)
        np.testing.assert_array_equal(xy[:, 0], u)
        np.testing.assert_array_equal(xy[:, 1], t)

    def test_hand_inversion(self):
        # u = 0.2, t = 0.7, theta = 1: a = 0.6, v = (1.6 - sqrt(0.88)) / 1.2
        a = 0.6
        v = 2 * 0.7 / ((1 + a) + np.sqrt((1 + a) ** 2 - 4 * a * 0.7))
        assert v == pytest.approx(0.551595, abs=5e-6)
        assert v == pytest.approx(0.5515973733627616, rel=1e-14, abs=0)
        residual = v + a * (v - v * v) - 0.7
        assert abs(residual) <= 1e-12

    @pytest.mark.parametrize("theta", [-1.0, -0.5, 0.5, 1.0])
    def test_inversion_residual(self, theta):
        model = FgmModel(theta)
        rng = np.random.default_rng(8)
        xy = model.sample(10_000, rng)
        rng2 = np.random.default_rng(8)
        u = rng2.random(10_000)
        t = rng2.random(10_000)
        v = xy[:, 1]
        residual = model.conditional_cdf(v, u) - t
        assert np.abs(residual).max() <= 1e-12
        assert np.all((v >= 0.0) & (v <= 1.0))

    @pytest.mark.parametrize("theta", [-1.0, 0.0, 0.3, 1.0])
    def test_block_matches_row_samples(self, theta):
        # the Monte Carlo engine inverts a (k, n) block in one call; every row
        # must carry the bits of one sample() call from the same generator
        model, k, n = FgmModel(theta), 7, 33
        u, t = np.empty((k, n)), np.empty((k, n))
        for i in range(k):
            rng = np.random.default_rng(i)
            u[i], t[i] = rng.random(n), rng.random(n)
        v = model.from_uniforms(u, t)
        for i in range(k):
            xy = model.sample(n, np.random.default_rng(i))
            assert xy[:, 0].tolist() == u[i].tolist()
            assert xy[:, 1].tolist() == v[i].tolist()

    @pytest.mark.parametrize("theta", [-1.0, -0.3, -0.0, 0.0, 1e-13, 0.7, 1.0])
    @pytest.mark.parametrize("shape", [(200,), (6, 200)])
    def test_inversion_matches_expression(self, theta, shape):
        # the in-place inversion carries the bits of the one-expression form,
        # also on both sides of the linear branch's cut |a| < 1e-12 (a =
        # theta*(1-2u) is about +-2e-12 theta at u = 0.5 -+ 1e-12), at the
        # ends of [0, 1) and on the engine's strided rows of u (every other
        # row of draws)
        rng = np.random.default_rng(3)
        draws = rng.random((2, *shape))
        draws[0].flat[:8] = [0.5, 0.5 + 1e-14, 0.5 - 1e-14, 0.5 + 1e-12,
                             0.5 - 1e-12, 0.5 + 4e-13, 0.0, 1.0 - 2**-53]
        u, t = draws
        v = FgmModel(theta).from_uniforms(u, t)
        assert v.tobytes() == fgm_inversion(theta, u, t).tobytes()
        stacked = rng.random((*shape[:-1], 2, shape[-1]))
        u, t = stacked[..., 0, :], stacked[..., 1, :]
        v = FgmModel(theta).from_uniforms(u, t)
        assert v.tobytes() == fgm_inversion(theta, u, t).tobytes()
        v[...] = -1.0  # a fresh array, even at theta = 0
        assert np.all(t >= 0.0)
        scalar = FgmModel(theta).from_uniforms(0.5 + 1e-12, 0.75)
        assert scalar.tobytes() == fgm_inversion(theta, 0.5 + 1e-12, 0.75).tobytes()

    def test_margin_uniformity(self):
        n = 100_000
        xy = FgmModel(1.0).sample(n, np.random.default_rng(21))
        crit = 1.95 / np.sqrt(n)
        assert ks_uniform_distance(xy[:, 0]) < crit
        assert ks_uniform_distance(xy[:, 1]) < crit

    def test_joint_law_at_center(self):
        n = 100_000
        model = FgmModel(1.0)
        xy = model.sample(n, np.random.default_rng(5))
        frac = np.mean((xy[:, 0] <= 0.5) & (xy[:, 1] <= 0.5))
        target = model.cdf(0.5, 0.5)
        bound = 3 * np.sqrt(target * (1 - target) / n)
        assert abs(frac - target) < bound

    def test_sample_size_validation(self):
        with pytest.raises(ValueError):
            FgmModel(0.5).sample(0, np.random.default_rng(0))


class TestAnalyticTailRho:
    def test_full_range(self):
        for theta in (-1.0, -0.25, 0.5, 1.0):
            assert FgmModel(theta).rho_tail_analytic(1.0) == pytest.approx(
                theta / 3.0, abs=1e-12
            )

    def test_independence(self):
        for p in (0.1, 0.5, 1.0):
            assert FgmModel(0.0).rho_tail_analytic(p) == 0.0

    def test_half_threshold(self):
        assert FgmModel(1.0).rho_tail_analytic(0.5) == pytest.approx(
            0.266667, abs=1e-6
        )

    @pytest.mark.parametrize("theta", [-1.0, -0.5, 0.0, 0.5, 1.0])
    @pytest.mark.parametrize("p", [0.1, 0.5, 1.0])
    def test_matches_population_quadrature(self, theta, p):
        model = FgmModel(theta)
        assert model.rho_tail_analytic(p) == pytest.approx(
            rho_tail_population(model.cdf, p), abs=1e-9
        )

    @given(
        theta=st.floats(min_value=-1.0, max_value=1.0),
        p=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=50)
    def test_sign_follows_theta(self, theta, p):
        value = FgmModel(theta).rho_tail_analytic(p)
        if abs(theta) > 1e-12:
            assert (value > 0) == (theta > 0)
        else:
            assert abs(value) <= 1e-12


class TestLimitVariance:
    @pytest.mark.parametrize("p", [1e-3, 0.1, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("theta", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_matches_influence_function_quadrature(self, theta, p):
        got = FgmModel(theta).limit_variance(p)
        assert got == pytest.approx(limit_variance_quadrature(theta, p), rel=1e-12, abs=0)

    @given(st.floats(1e-6, 1.0, exclude_min=True))
    @settings(max_examples=50, deadline=None)
    def test_independence_is_one(self, p):
        assert FgmModel(0.0).limit_variance(p) == 1.0

    def test_spearman_rho_at_full_range(self):
        # the influence-function variance of Spearman's rho under FGM
        assert FgmModel(1.0).limit_variance(1.0) == pytest.approx(34 / 45, rel=1e-15, abs=0)
        assert FgmModel(-1.0).limit_variance(1.0) == pytest.approx(34 / 45, rel=1e-15, abs=0)
        assert FgmModel(0.5).limit_variance(1.0) == pytest.approx(169 / 180, rel=1e-15, abs=0)

    @pytest.mark.parametrize("p", [2e-6, 1e-5, 1e-4, 1e-3, 0.1, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("theta", [-1.0, -1.0 + 2**-20, -0.75, -0.5, 0.5])
    def test_exact_rational_value(self, theta, p):
        # the closed form in exact arithmetic; at theta = -1 and small p the
        # variance is about p, and 1 + theta * (...) in floats cancelled
        # down to 1.4e-10 relative accuracy at p = 2e-6
        th, pf = Fraction(theta), Fraction(p)
        q, r, s = 1 - pf, 2 * pf - 3, 3 * pf - 4
        quad = pf * r * r * (((160 * pf - 396) * pf + 345) * pf - 120)
        cubic = 90 * pf * pf * q**4 * r * r
        exact = 1 + th * (720 * q**4 + th * (quad + th * cubic)) / (45 * s * s)
        got = FgmModel(theta).limit_variance(p)
        assert got == pytest.approx(float(exact), rel=1e-13, abs=0)

    @pytest.mark.parametrize("p", [0.0, 1e-6, 1.5, float("nan")])
    def test_rejects_bad_threshold(self, p):
        with pytest.raises(ValueError, match="threshold"):
            FgmModel(0.5).limit_variance(p)
