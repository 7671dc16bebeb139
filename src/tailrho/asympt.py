"""First-order asymptotics: pointwise bias and variance-gain coefficients for
Bernstein smoothing, the normalized corner-square integral operator, and one
`AsymptoticReport` per (model, p, n) setting holding the two corner
integrals, the limit variance, the MSE-balancing smoothing degree and the
MSE expansions.

Smoothing a degree-m Bernstein copula trades a deterministic bias of order
1/m against a variance reduction of order 1/(n*sqrt(m)); balancing the two
leading terms gives a degree proportional to n^(2/3).  `asymptotic_report`
is the one place those quantities are computed; `optimal_degree` and the
`asympt` command read its report, and `report.expansion(m)` gives the MSE
expansions at any degree m.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .estimators import normalizer
from .quadrature import integrate_square

__all__ = [
    "DegenerateBiasError",
    "AsymptoticReport",
    "MseExpansion",
    "bias_coeff",
    "var_gain",
    "normalized_tail_integral",
    "rule_of_thumb_degree",
    "optimal_degree",
    "asymptotic_report",
]


class DegenerateBiasError(ValueError):
    """The leading bias term vanishes, so no finite degree balances the MSE."""


def bias_coeff(model, u, v):
    """Leading smoothing-bias coefficient (u(1-u) C_uu + v(1-v) C_vv) / 2.

    Scaled by 1/m, this is the first-order bias of the degree-m smoothed
    copula at (u, v).  `model` must expose partials(u, v).
    """
    _, _, c_uu, c_vv = model.partials(u, v)
    return 0.5 * (u * (1.0 - u) * c_uu + v * (1.0 - v) * c_vv)


def var_gain(model, u, v):
    """Leading variance-reduction coefficient of Bernstein smoothing.

    C_u(1-C_u) sqrt(u(1-u)/pi) + C_v(1-C_v) sqrt(v(1-v)/pi): nonnegative,
    vanishing on the boundary of the unit square.  Scaled by 1/(n*sqrt(m)),
    this is how much pointwise variance smoothing removes.
    """
    c_u, c_v, _, _ = model.partials(u, v)
    root_u = np.sqrt(u * (1.0 - u) / math.pi)
    root_v = np.sqrt(v * (1.0 - v) / math.pi)
    return c_u * (1.0 - c_u) * root_u + c_v * (1.0 - c_v) * root_v


def normalized_tail_integral(f, p: float, tol: float = 1e-9) -> float:
    """Integral of f over [0, p]^2 divided by the tail normalizer.

    Integration maps the square through u = p*sin(s)^2 per axis before the
    64-node Gauss-Legendre panels: the map keeps every node strictly inside
    the square and turns the sqrt(u(1-u)) boundary factors of the
    variance-gain coefficient into analytic functions, so panel doubling
    reaches 1e-9 agreement instead of stalling on the root singularity.
    `f(u, v)` must broadcast over numpy arrays.  Raises QuadratureError if
    the panels never agree.
    """
    scale = normalizer(p)

    def transformed(s, t):
        su = np.sin(s)
        sv = np.sin(t)
        u = p * su * su
        v = p * sv * sv
        jac = (p * np.sin(2.0 * s)) * (p * np.sin(2.0 * t))
        return f(u, v) * jac

    integral = integrate_square(
        transformed, math.pi / 2.0, tol * scale, order=64, max_doublings=7
    )
    return integral / scale


def rule_of_thumb_degree(n: int) -> int:
    """Largest integer m with m^3 <= n^2, i.e. floor(n^(2/3)), by bisection in
    integer arithmetic: exact for every n, where a float estimate drops units."""
    if n < 1:
        raise ValueError(f"sample size n={n} must be >= 1")
    lo, hi = 1, 1 << -(-2 * n.bit_length() // 3)  # lo^3 <= n^2 < hi^3
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid * mid * mid <= n * n:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class MseExpansion:
    """First-order MSE expansions at a given (n, m): `difference` (smoothed
    minus empirical) is -V/(n*sqrt(m)) + (B/m)^2, `mse_empirical` is
    sigma^2/n for the limit variance sigma^2, and `mse_bernstein` their sum.
    """

    difference: float
    mse_bernstein: float
    mse_empirical: float


@dataclass(frozen=True)
class AsymptoticReport:
    """Expansion summary for one (model, p, n) setting.

    bias_term and gain_term are the normalized corner integrals B and V of
    the bias and variance-gain coefficients; limit_variance is the model's
    sigma^2 of the root-n empirical estimator; m_opt is None when the bias
    term is degenerate, and `degree` then falls back to the rule of thumb.
    `expansion(degree)` holds both estimators' MSE expansions at that degree.
    """

    p: float
    n: int
    bias_term: float
    gain_term: float
    m_opt: float | None
    rule_degree: int
    limit_variance: float

    @property
    def degree(self) -> int:
        """The degree to use: floor(m_opt), at least 1, else the rule of thumb."""
        return self.rule_degree if self.m_opt is None else max(1, math.floor(self.m_opt))

    def expansion(self, m: int) -> MseExpansion:
        """First-order MSE of both estimators at degree m: limit_variance/n
        for the empirical one, minus V/(n*sqrt(m)) plus (B/m)^2 when smoothed."""
        if m < 1:
            raise ValueError(f"degree m={m} must be >= 1")
        difference = -self.gain_term / (self.n * math.sqrt(m)) + (self.bias_term / m) ** 2
        base = self.limit_variance / self.n
        return MseExpansion(difference, base + difference, base)


def asymptotic_report(model, p: float, n: int) -> AsymptoticReport:
    """The one computation of the corner integrals (B, V), the model's limit
    variance and the MSE-balancing degree m_opt = {4 B^2 / V * n}^(2/3),
    None when B vanishes (independence); the rule-of-thumb degree is always
    reported as the practical fallback.

    Checks n before p, so the command line reports a bad n first; an n that
    m_opt cannot take as a float, or that makes it overflow, is a bad n.
    """
    rule_degree = rule_of_thumb_degree(n)
    if n > sys.float_info.max:
        raise ValueError(f"sample size n above {sys.float_info.max:.6g} is beyond the float range")
    bias_term = normalized_tail_integral(lambda u, v: bias_coeff(model, u, v), p)
    gain_term = normalized_tail_integral(lambda u, v: var_gain(model, u, v), p)
    limit_variance = model.limit_variance(p)
    degenerate = abs(bias_term) < 1e-12
    m_opt = None if degenerate else (4.0 * bias_term**2 / gain_term * n) ** (2.0 / 3.0)
    if m_opt == math.inf:
        raise ValueError(f"sample size n={n:.6g} puts the balancing degree beyond the float range")
    return AsymptoticReport(p, n, bias_term, gain_term, m_opt, rule_degree, limit_variance)


def optimal_degree(model, p: float, n: int) -> float:
    """MSE-balancing Bernstein degree {4 B^2 / V * n}^(2/3).

    B and V are the normalized corner-square integrals of the bias and
    variance-gain coefficients.  Returned unrounded; callers floor it before
    use.  Raises DegenerateBiasError when the bias term vanishes (independence)
    and every degree large enough is asymptotically fine.
    """
    m_opt = asymptotic_report(model, p, n).m_opt
    if m_opt is None:
        raise DegenerateBiasError(
            "leading bias term vanishes; fall back to the n^(2/3) rule of thumb"
        )
    return m_opt

