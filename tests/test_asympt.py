import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from tailrho import (
    DegenerateBiasError,
    FgmModel,
    asymptotic_report,
    bias_coeff,
    mse_expansions,
    normalized_tail_integral,
    normalizer,
    optimal_degree,
    pseudo_observations,
    rule_of_thumb_degree,
    var_gain,
)
from definitions import pointwise_variance

THETAS = (-1.0, -0.5, 0.0, 0.5, 1.0)
PS = (0.1, 0.5, 1.0)


class TestBiasCoeff:
    def test_independence_vanishes(self):
        model = FgmModel(0.0)
        for u in (0.1, 0.5, 0.9):
            assert bias_coeff(model, u, 0.3) == 0.0

    def test_center_value(self):
        assert bias_coeff(FgmModel(1.0), 0.5, 0.5) == pytest.approx(
            -0.125, rel=1e-14
        )

    def test_factorized_form_and_sign(self):
        # for this family the coefficient is -2 theta u(1-u) v(1-v)
        rng = np.random.default_rng(1)
        for theta in (-1.0, -0.5, 0.5, 1.0):
            model = FgmModel(theta)
            for _ in range(20):
                u, v = rng.uniform(0.01, 0.99, 2)
                expect = -2.0 * theta * u * (1 - u) * v * (1 - v)
                assert bias_coeff(model, u, v) == pytest.approx(expect, rel=1e-12)
                assert np.sign(bias_coeff(model, u, v)) == -np.sign(theta)


class TestVarGain:
    def test_independence_center(self):
        got = var_gain(FgmModel(0.0), 0.5, 0.5)
        assert got == pytest.approx(2 * 0.25 * 0.5 / math.sqrt(math.pi), rel=1e-12)
        assert got == pytest.approx(0.141047, abs=1e-6)

    def test_boundary_zero(self):
        model = FgmModel(0.7)
        assert var_gain(model, 0.0, 0.4) == pytest.approx(0.0, abs=1e-15)
        assert var_gain(model, 0.6, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_duplicate_formula_oracle(self):
        model = FgmModel(1.0)
        u, v = 0.25, 0.75
        c_u, c_v, _, _ = model.partials(u, v)
        expect = c_u * (1 - c_u) * math.sqrt(u * (1 - u) / math.pi) + c_v * (
            1 - c_v
        ) * math.sqrt(v * (1 - v) / math.pi)
        assert var_gain(model, u, v) == pytest.approx(expect, abs=1e-14)

    def test_nonnegative_on_lattice(self):
        pts = np.linspace(0.0, 1.0, 21)
        for theta in THETAS:
            model = FgmModel(theta)
            vals = var_gain(model, pts[:, None], pts[None, :])
            assert np.all(vals >= -1e-15)


class TestPointwiseVariance:
    def test_independence_center_hand_value(self):
        assert pointwise_variance(FgmModel(0.0), 0.5, 0.5) == pytest.approx(
            0.0625, abs=1e-14
        )

    def test_boundary_zero(self):
        model = FgmModel(0.5)
        for t in (0.0, 0.3, 1.0):
            assert pointwise_variance(model, 0.0, t) == pytest.approx(0.0, abs=1e-14)
            assert pointwise_variance(model, t, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_nonnegative_on_lattice(self):
        pts = np.linspace(0.0, 1.0, 21)
        for theta in THETAS:
            vals = pointwise_variance(FgmModel(theta), pts[:, None], pts[None, :])
            assert np.all(vals >= -1e-14)

    def test_monte_carlo_oracle(self):
        # n * Var[empirical copula at (0.5, 0.5)] vs the coefficient
        theta, n, reps = 0.5, 4000, 10_000
        model = FgmModel(theta)
        vals = np.empty(reps)
        for r in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence(77, spawn_key=(0, r)))
            xy = model.sample(n, rng)
            ps = pseudo_observations(xy[:, 0], xy[:, 1])
            vals[r] = np.count_nonzero((ps.u <= 0.5) & (ps.v <= 0.5)) / n
        sample_var = vals.var(ddof=1)
        centered = vals - vals.mean()
        m4 = np.mean(centered**4)
        se_var = math.sqrt(max(m4 - sample_var**2, 0.0) / reps)
        got = n * sample_var
        expect = pointwise_variance(model, 0.5, 0.5)
        assert abs(got - expect) <= 3 * n * se_var


class TestNormalizedTailIntegral:
    def test_constant_integrand(self):
        p = 0.5
        got = normalized_tail_integral(
            lambda u, v: np.ones(np.broadcast(u, v).shape), p
        )
        assert got == pytest.approx(p * p / normalizer(p), rel=1e-12)
        assert got == pytest.approx(9.6, rel=1e-12)

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("p", PS)
    def test_bias_integral_matches_closed_form(self, theta, p):
        model = FgmModel(theta)
        closed = -2.0 * theta * (p**2 / 2 - p**3 / 3) ** 2 / normalizer(p)
        got = normalized_tail_integral(lambda u, v: bias_coeff(model, u, v), p)
        assert got == pytest.approx(closed, abs=1e-9)

    def test_bias_integral_full_range(self):
        model = FgmModel(1.0)
        got = normalized_tail_integral(lambda u, v: bias_coeff(model, u, v), 1.0)
        assert got == pytest.approx(-2.0 / 3.0, abs=1e-9)

    def test_normalizer_integrand_is_one(self):
        f = lambda u, v: np.minimum(u, v) - u * v
        for p in (0.3, 1.0):
            assert normalized_tail_integral(f, p, tol=1e-5) == pytest.approx(
                1.0, abs=1e-4
            )

    @pytest.mark.parametrize("theta,p", [(1.0, 1.0), (0.5, 0.5), (-1.0, 0.1)])
    def test_var_gain_integral_vs_adaptive_oracle(self, theta, p):
        model = FgmModel(theta)
        oracle, _ = integrate.dblquad(
            lambda v, u: var_gain(model, u, v), 0, p, 0, p,
            epsabs=1e-12, epsrel=1e-12,
        )
        got = normalized_tail_integral(lambda u, v: var_gain(model, u, v), p)
        assert got == pytest.approx(oracle / normalizer(p), abs=1e-9)


class TestRuleOfThumbDegree:
    def test_paper_grid_degrees(self):
        assert rule_of_thumb_degree(50) == 13
        assert rule_of_thumb_degree(200) == 34

    def test_exact_integer_floor(self):
        # every n below 30000, and n far beyond float precision
        for n in (*range(1, 30_000), 46_340, 10**24 + 7, 10**40, 3**300, 10**400):
            m = rule_of_thumb_degree(n)
            assert m**3 <= n * n < (m + 1) ** 3

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            rule_of_thumb_degree(0)


class TestOptimalDegree:
    def test_degenerate_at_independence(self):
        with pytest.raises(DegenerateBiasError):
            optimal_degree(FgmModel(0.0), 0.5, 100)

    def test_cross_check_full_expression(self):
        # independent route for each ingredient
        model, p, n = FgmModel(1.0), 1.0, 200
        bias_term = -2.0 / 3.0
        gain_term, _ = integrate.dblquad(
            lambda v, u: var_gain(model, u, v), 0, p, 0, p,
            epsabs=1e-12, epsrel=1e-12,
        )
        gain_term /= normalizer(p)
        expect = (4.0 * bias_term**2 / gain_term * n) ** (2.0 / 3.0)
        assert optimal_degree(model, p, n) == pytest.approx(expect, rel=1e-8)

    def test_n_scaling_identity(self):
        model = FgmModel(0.5)
        for n in (25, 100, 400):
            ratio = optimal_degree(model, 0.5, 8 * n) / optimal_degree(model, 0.5, n)
            assert ratio == pytest.approx(4.0, rel=1e-12)

    def test_monotone_in_n(self):
        model = FgmModel(-0.5)
        values = [optimal_degree(model, 0.1, n) for n in (50, 100, 200, 400)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestMseExpansions:
    def test_difference_composition(self):
        model, p, n, m = FgmModel(1.0), 1.0, 50, 13
        bias_term = normalized_tail_integral(
            lambda u, v: bias_coeff(model, u, v), p
        )
        gain_term = normalized_tail_integral(lambda u, v: var_gain(model, u, v), p)
        expect = -gain_term / (n * math.sqrt(m)) + (bias_term / m) ** 2
        got = mse_expansions(model, p, n, m)
        assert got.difference == pytest.approx(expect, rel=1e-12)

    def test_difference_vanishes_for_large_degree(self):
        model = FgmModel(1.0)
        diffs = [
            abs(mse_expansions(model, 1.0, 50, m).difference)
            for m in (100, 10_000, 10**8, 10**14)
        ]
        assert all(a > b for a, b in zip(diffs, diffs[1:]))
        assert diffs[-1] < 1e-8

    def test_independence_always_negative(self):
        model = FgmModel(0.0)
        for p in PS:
            for m in (1, 13, 64):
                assert mse_expansions(model, p, 50, m).difference < 0.0

    def test_absolute_expansions_with_limit_variance(self):
        # sigma^2/n and sigma^2/n + difference, sigma^2 the model's closed form
        for theta, p in ((0.5, 0.5), (-1.0, 0.1), (0.0, 1.0)):
            model = FgmModel(theta)
            exp = mse_expansions(model, p, 100, 20)
            base = model.limit_variance(p) / 100
            assert exp.mse_empirical == base
            assert exp.mse_bernstein == base + exp.difference


class TestAsymptoticReport:
    def test_regular_setting(self):
        report = asymptotic_report(FgmModel(1.0), 1.0, 200)
        assert report.bias_term == pytest.approx(-2.0 / 3.0, abs=1e-9)
        assert report.rule_degree == 34
        assert report.m_opt is not None and report.m_opt > 0
        assert report.limit_variance == FgmModel(1.0).limit_variance(1.0) == 34 / 45
        assert report.mse_empirical_expansion == report.limit_variance / 200

    def test_degenerate_setting_warns(self):
        with pytest.warns(UserWarning):
            report = asymptotic_report(FgmModel(0.0), 0.5, 50)
        assert report.m_opt is None
        assert report.rule_degree == 13

    def test_degree_and_expansions_read_one_report(self):
        model, p, n = FgmModel(-1.0), 0.1, 50
        report = asymptotic_report(model, p, n)
        assert report.m_opt == optimal_degree(model, p, n)
        assert report.degree == math.floor(report.m_opt) == 15
        at_degree = mse_expansions(model, p, n, report.degree)
        assert report.expansion(report.degree) == at_degree
        sigma2 = model.limit_variance(p)
        assert report.mse_bernstein_expansion == at_degree.mse_bernstein
        assert at_degree.mse_bernstein == sigma2 / n + at_degree.difference
        assert report.mse_empirical_expansion == at_degree.mse_empirical == sigma2 / n
        with pytest.raises(ValueError, match="degree m=0"):
            report.expansion(0)

    def test_degenerate_degree_is_rule_of_thumb(self):
        with pytest.warns(UserWarning):
            report = asymptotic_report(FgmModel(0.0), 0.5, 100)
        assert report.degree == report.rule_degree == 21

    def test_optimal_degree_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateBiasError):
                optimal_degree(FgmModel(0.0), 0.5, 100)
