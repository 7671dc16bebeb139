"""The FGM copula family: closed-form CDF, partial derivatives, an exact
sampler, the analytic lower-tail rho used as simulation ground truth, and
the limit variance of the empirical estimator.

The sampler's inversion formula lives in one place, `from_uniforms`, which
works on arrays of any shape: `sample` calls it on one row of uniforms, and
the Monte Carlo engine on a whole chunk of replicates' rows at once.

The family is uv * (1 + theta*(1-u)*(1-v)) for theta in [-1, 1]; it has
moderate dependence and closed forms for everything needed here, which is
exactly why it serves as the Monte Carlo test bed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import _check_p, normalizer

__all__ = ["FgmModel"]


def _check_unit_square(u, v) -> None:
    u = np.asarray(u)
    v = np.asarray(v)
    if np.any(u < 0.0) or np.any(u > 1.0) or np.any(v < 0.0) or np.any(v > 1.0):
        raise ValueError("(u, v) outside the unit square")


@dataclass(frozen=True)
class FgmModel:
    """One member of the FGM family, pinned by the dependence parameter."""

    theta: float

    def __post_init__(self) -> None:
        if not -1.0 <= self.theta <= 1.0:
            raise ValueError(f"theta={self.theta} outside [-1, 1]")

    def cdf(self, u, v):
        """Copula value u*v*(1 + theta*(1-u)*(1-v)); broadcasts over arrays."""
        _check_unit_square(u, v)
        return u * v * (1.0 + self.theta * (1.0 - u) * (1.0 - v))

    def partials(self, u, v):
        """First and second partial derivatives (C_u, C_v, C_uu, C_vv)."""
        _check_unit_square(u, v)
        th = self.theta
        c_u = v + th * v * (1.0 - v) * (1.0 - 2.0 * u)
        c_v = u + th * u * (1.0 - u) * (1.0 - 2.0 * v)
        c_uu = -2.0 * th * v * (1.0 - v)
        c_vv = -2.0 * th * u * (1.0 - u)
        return c_u, c_v, c_uu, c_vv

    def conditional_cdf(self, v, u):
        """Distribution of V given U=u: v + theta*(1-2u)*(v - v^2)."""
        _check_unit_square(u, v)
        return v + self.theta * (1.0 - 2.0 * u) * (v - v * v)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n i.i.d. pairs with this copula and uniform margins.

        Draws u = rng.random(n), then t = rng.random(n), and returns the
        columns (u, from_uniforms(u, t)).  The generator must be exclusively
        owned by the caller.
        """
        if n < 1:
            raise ValueError(f"sample size n={n} must be >= 1")
        u = rng.random(n)
        t = rng.random(n)
        return np.column_stack((u, self.from_uniforms(u, t)))

    def from_uniforms(self, u: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Second coordinate v of the pairs (u, v) for uniforms u, t of any
        (equal) shape, elementwise.

        Conditional inversion: with a = theta*(1-2u), solve
        v + a*(v - v^2) = t.  The root is evaluated as
        2t / ((1+a) + sqrt((1+a)^2 - 4at)), which is algebraically the
        quadratic root but free of the catastrophic cancellation the
        subtractive form suffers as a -> 0; a linear branch covers |a| below
        1e-12.  Every operation is correctly rounded and elementwise, so a
        (k, n) block gives the same bits as k separate rows.

        The operations run in place on three arrays, in the order the
        formula reads (sums and products of two operands commute exactly in
        IEEE arithmetic; -1e-12 < a < 1e-12 is |a| < 1e-12).  At theta = 0,
        a is a signed zero for every finite u, so the result is a copy of t.
        """
        if self.theta == 0.0:
            return np.array(t, dtype=float)
        shape = np.shape(u)  # out= keeps scalars' results 0-d arrays
        a = np.multiply(u, 2.0, out=np.empty(shape))
        np.subtract(1.0, a, out=a)
        a *= self.theta  # a = theta * (1 - 2u)
        linear = (a < 1e-12) & (a > -1e-12)
        b = np.add(a, 1.0, out=np.empty(shape))
        disc = np.multiply(b, b, out=np.empty(shape))
        a *= 4.0
        a *= t
        disc -= a  # (1 + a)^2 - 4at
        np.maximum(disc, 0.0, out=disc)
        np.sqrt(disc, out=disc)
        disc += b
        v = np.multiply(t, 2.0, out=a)
        v /= disc  # 2t / ((1 + a) + sqrt(disc))
        np.copyto(v, t, where=linear)
        return v

    def rho_tail_analytic(self, p: float) -> float:
        """Exact lower-tail rho: theta * (p^2/2 - p^3/3)^2 / (p^3/3 - p^4/4).

        At p = 1 this reduces to theta/3, the classical Spearman's rho of the
        family.
        """
        corner = p * p / 2.0 - p * p * p / 3.0
        return self.theta * (corner * corner) / normalizer(p)

    def limit_variance(self, p: float) -> float:
        """Limit variance of sqrt(n) * (empirical tail rho - tail rho):
        E[IF^2] / normalizer(p)^2 for the influence function IF of the corner
        integral under the empirical copula process limit (Segers 2012).  For
        this family it is rational in (theta, p), and 1 at independence.

        Below theta = -0.5 it is a cubic in e = 1 + theta, which is exact
        there (Sterbenz), so no cancellation is left as the variance tends to
        0 at theta = -1 and small p; elsewhere it is 1 + theta * (...), so
        independence gives exactly 1."""
        _check_p(p)
        th, q, r, s = self.theta, 1.0 - p, 2.0 * p - 3.0, 3.0 * p - 4.0
        q4 = q * q * q * q
        cubic = 90.0 * p * p * q4 * r * r
        if th < -0.5:
            e = 1.0 + th
            c0 = -2.0 * p * (((((((180.0 * p - 1260.0) * p + 3325.0) * p - 3828.0) * p
                                + 1344.0) * p + 492.0) * p + 90.0) * p - 360.0)
            c1 = 2.0 * ((((((((540.0 * p - 3780.0) * p + 10295.0) * p - 13236.0) * p
                            + 7098.0) * p + 264.0) * p - 1170.0) * p - 360.0) * p + 360.0)
            c2 = -p * r * r * (((((270.0 * p - 1080.0) * p + 1460.0) * p - 684.0) * p
                                - 75.0) * p + 120.0)
            return (c0 + e * (c1 + e * (c2 + e * cubic))) / (45.0 * s * s)
        quad = p * r * r * (((160.0 * p - 396.0) * p + 345.0) * p - 120.0)
        return 1.0 + th * (720.0 * q4 + th * (quad + th * cubic)) / (45.0 * s * s)
