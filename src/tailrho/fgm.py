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
        """
        a = self.theta * (1.0 - 2.0 * u)
        disc = (1.0 + a) ** 2 - 4.0 * a * t
        return np.where(
            np.abs(a) < 1e-12,
            t,
            2.0 * t / ((1.0 + a) + np.sqrt(np.maximum(disc, 0.0))),
        )

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
        this family it is rational in (theta, p), and 1 at independence."""
        _check_p(p)
        th, q, r, s = self.theta, 1.0 - p, 2.0 * p - 3.0, 3.0 * p - 4.0
        q4 = q * q * q * q
        quad = p * r * r * (((160.0 * p - 396.0) * p + 345.0) * p - 120.0)
        cubic = 90.0 * p * p * q4 * r * r
        return 1.0 + th * (720.0 * q4 + th * (quad + th * cubic)) / (45.0 * s * s)
