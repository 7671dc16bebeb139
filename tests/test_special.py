import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import special as sp

from tailrho import tail_weights
from tailrho.special import MAX_DEGREE
from definitions import kernel_vector


def binomial_kernel(k: int, m: int, w: float) -> float:
    """Bernstein basis polynomial C(m,k) w^k (1-w)^(m-k): kernel_vector's
    scalar oracle.

    Stable for degrees up to (at least) m = 1000: the direct product is used
    while the binomial coefficient fits in a double and the power factors stay
    clear of the subnormal range; otherwise the whole product is assembled in
    log space.
    """
    if not 0 <= k <= m:
        raise ValueError(f"index k={k} outside 0..{m}")
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"evaluation point w={w} outside [0, 1]")
    if w == 0.0:
        return 1.0 if k == 0 else 0.0
    if w == 1.0:
        return 1.0 if k == m else 0.0
    log_pow = k * math.log(w) + (m - k) * math.log1p(-w)
    if log_pow > -690.0:
        try:
            coeff = float(math.comb(m, k))
        except OverflowError:
            coeff = None
        if coeff is not None:
            return coeff * w**k * (1.0 - w) ** (m - k)
    log_coeff = math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
    return math.exp(log_coeff + log_pow)


def incomplete_beta(x: float, a: float, b: float) -> float:
    """Unnormalized incomplete beta: integral of t^(a-1) (1-t)^(b-1) over [0, x].

    Nondecreasing in x, with the complete beta function recovered at x = 1.
    The oracle for the tail weights' defining formula.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"upper limit x={x} outside [0, 1]")
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if x == 0.0:
        return 0.0
    return float(sp.betainc(a, b, x)) * math.exp(float(sp.betaln(a, b)))


def simpson_incomplete_beta(x, a, b, panels=200_000):
    """Composite Simpson oracle for the incomplete beta integral (a, b >= 1)."""
    t = np.linspace(0.0, x, 2 * panels + 1)
    f = t ** (a - 1.0) * (1.0 - t) ** (b - 1.0)
    h = x / (2 * panels)
    return h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-2:2].sum())


class TestBinomialKernel:
    def test_endpoint_degenerate(self):
        assert binomial_kernel(0, 5, 0.0) == 1.0
        assert binomial_kernel(3, 5, 0.0) == 0.0
        assert binomial_kernel(5, 5, 1.0) == 1.0

    def test_hand_value(self):
        assert binomial_kernel(1, 2, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_normalization(self):
        total = math.fsum(binomial_kernel(k, 10, 0.3) for k in range(11))
        assert total == pytest.approx(1.0, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_kernel(3, 2, 0.5)
        with pytest.raises(ValueError):
            binomial_kernel(1, 2, 1.5)
        with pytest.raises(ValueError):
            binomial_kernel(1, 2, -0.1)

    def test_large_degree_stable(self):
        # against the direct log-space evaluation at m = 1000
        for k in (0, 1, 137, 500, 863, 1000):
            for w in (0.01, 0.3, 0.5, 0.9):
                log_val = (
                    math.lgamma(1001)
                    - math.lgamma(k + 1)
                    - math.lgamma(1001 - k)
                    + k * math.log(w)
                    + (1000 - k) * math.log1p(-w)
                )
                expect = math.exp(log_val)
                got = binomial_kernel(k, 1000, w)
                assert got == pytest.approx(expect, rel=1e-10, abs=1e-300)

    def test_kernel_vector_matches_scalar(self):
        vec = kernel_vector(17, 0.42)
        direct = np.array([binomial_kernel(k, 17, 0.42) for k in range(18)])
        np.testing.assert_allclose(vec, direct, rtol=1e-12)

    @given(
        m=st.integers(min_value=1, max_value=300),
        w=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_kernel_in_unit_interval_and_normalized(self, m, w):
        vec = kernel_vector(m, w)
        assert np.all(vec >= 0.0)
        assert np.all(vec <= 1.0)
        assert math.fsum(vec) == pytest.approx(1.0, abs=1e-13)


class TestIncompleteBeta:
    def test_unit_integrand(self):
        assert incomplete_beta(0.5, 1, 1) == pytest.approx(0.5, abs=1e-15)

    def test_complete_beta(self):
        assert incomplete_beta(1.0, 2, 3) == pytest.approx(1.0 / 12.0, rel=1e-13)

    def test_half_range(self):
        # integral of t(1-t) from 0 to 1/2 is 1/8 - 1/24
        assert incomplete_beta(0.5, 2, 2) == pytest.approx(1.0 / 12.0, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            incomplete_beta(1.5, 1, 1)
        with pytest.raises(ValueError):
            incomplete_beta(0.5, 0.0, 1)
        with pytest.raises(ValueError):
            incomplete_beta(0.5, 1, -2)

    @pytest.mark.parametrize("a", [1.0, 2.0, 3.5, 10.0, 100.0])
    @pytest.mark.parametrize("b", [1.0, 2.5, 7.0, 100.0])
    @pytest.mark.parametrize("x", [0.1, 0.37, 0.9, 1.0])
    def test_simpson_oracle(self, x, a, b):
        assert incomplete_beta(x, a, b) == pytest.approx(
            simpson_incomplete_beta(x, a, b), abs=1e-9
        )

    @pytest.mark.parametrize("a,b", [(0.5, 2.0), (0.3, 0.7), (2.0, 0.4)])
    def test_fractional_parameters_quad_oracle(self, a, b):
        # integrable endpoint singularities: adaptive quadrature oracle
        val, err = integrate.quad(
            lambda t: t ** (a - 1.0) * (1.0 - t) ** (b - 1.0), 0.0, 0.6
        )
        assert incomplete_beta(0.6, a, b) == pytest.approx(val, rel=1e-8)

    @given(
        x=st.floats(min_value=0.0, max_value=1.0),
        x2=st.floats(min_value=0.0, max_value=1.0),
        a=st.floats(min_value=0.1, max_value=50.0),
        b=st.floats(min_value=0.1, max_value=50.0),
    )
    def test_monotone_in_x(self, x, x2, a, b):
        lo, hi = sorted((x, x2))
        assert incomplete_beta(lo, a, b) <= incomplete_beta(hi, a, b) + 1e-15


class TestTailWeights:
    def test_full_threshold_uniform(self):
        tw = tail_weights(1.0, 4)
        np.testing.assert_allclose(tw.w, 0.2, rtol=1e-14)

    def test_degree_one_hand_values(self):
        tw = tail_weights(0.5, 1)
        np.testing.assert_allclose(tw.w, [0.375, 0.125], rtol=1e-14)

    def test_sum_identity_spot(self):
        tw = tail_weights(0.37, 20)
        assert math.fsum(tw.w) == pytest.approx(0.37, abs=1e-14)

    @pytest.mark.parametrize("p", [0.05, 0.37, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("m", [1, 7, 60])
    def test_defining_formula(self, p, m):
        # w_k = C(m,k) * ibeta(p, k+1, m-k+1), term by term
        expect = [
            math.comb(m, k) * incomplete_beta(p, k + 1, m - k + 1) for k in range(m + 1)
        ]
        np.testing.assert_allclose(tail_weights(p, m).w, expect, rtol=1e-11, atol=1e-16)

    @pytest.mark.parametrize("p", [0.1, 0.37, 1.0])
    @pytest.mark.parametrize("m", [1, 13, 60, 1000])
    def test_suffix_sums_stored(self, p, m):
        tw = tail_weights(p, m)
        assert np.array_equal(tw.tail, np.cumsum(tw.w[::-1])[::-1])

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            tail_weights(0.0, 5)
        with pytest.raises(ValueError):
            tail_weights(1.2, 5)
        with pytest.raises(ValueError):
            tail_weights(0.5, 0)

    @pytest.mark.parametrize("p", [0.1, 0.37, 0.5, 1.0])
    def test_sum_identity_all_degrees(self, p):
        worst = max(
            abs(math.fsum(tail_weights(p, m).w) - p) for m in range(1, 1001)
        )
        assert worst <= 1e-12

    @pytest.mark.parametrize(
        "p,k,m",
        [
            (0.2, 0, 3),
            (0.5, 2, 7),
            (0.73, 11, 25),
            (0.1, 1, 60),
            (0.95, 40, 41),
            (0.37, 100, 300),
        ],
    )
    def test_quadrature_oracle_forward_and_reflected(self, p, k, m):
        # integrate the comb-scaled integrand so quad works at O(1) magnitudes,
        # splitting at the integrand's mode when it falls inside the range
        def piecewise_quad(f, upper, mode):
            cuts = sorted({0.0, upper} | ({mode} if 0.0 < mode < upper else set()))
            return math.fsum(
                integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-12)[0]
                for lo, hi in zip(cuts, cuts[1:])
            )

        w_k = tail_weights(p, m).w[k]
        log_comb = math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
        forward = lambda t: math.exp(
            log_comb + k * math.log(t) + (m - k) * math.log1p(-t)
        )
        assert w_k == pytest.approx(piecewise_quad(forward, p, k / m), abs=1e-10)
        # reflected route: complement of the integral of t^(m-k) (1-t)^k
        reflected = lambda t: math.exp(
            log_comb + (m - k) * math.log(t) + k * math.log1p(-t)
        )
        complete = piecewise_quad(reflected, 1.0, (m - k) / m)
        upper_part = piecewise_quad(reflected, 1.0 - p, (m - k) / m)
        assert w_k == pytest.approx(complete - upper_part, abs=1e-10)

    @given(
        p=st.floats(min_value=0.01, max_value=1.0),
        m=st.integers(min_value=1, max_value=400),
    )
    @settings(max_examples=80)
    def test_nonnegative_and_sum_to_p(self, p, m):
        tw = tail_weights(p, m)
        assert np.all(tw.w >= 0.0)
        assert math.fsum(tw.w) == pytest.approx(p, abs=1e-12)


class TestDegreeCap:
    def test_largest_degree_accepted(self):
        w = tail_weights(0.3, MAX_DEGREE).w
        assert w.size == MAX_DEGREE + 1
        assert abs(w.sum() - 0.3) < 1e-14

    def test_beyond_cap_rejected(self):
        with pytest.raises(ValueError, match="outside 1..100000"):
            tail_weights(0.5, MAX_DEGREE + 1)
        with pytest.raises(ValueError, match="outside 1..100000"):
            tail_weights(0.5, 10**8)
