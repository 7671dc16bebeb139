"""The lower-tail Spearman's rho functional and its two plug-in estimators.

The population functional integrates a copula over the corner square
[0, p]^2, centers it at the independence value p^4/4, and scales by the
normalizer p^3/3 - p^4/4 so that perfect positive dependence scores 1.

The empirical estimator never touches a quadrature rule: integrating the
rank-based step function over the corner square collapses to the closed form
(1/n) * sum_i max(0, p - U_i) * max(0, p - V_i).  The smoothed estimator is
by definition a double contraction of the copula grid with the tail weight
vector; because the grid counts pairs, that contraction collapses to
(1/n) * sum_i t(R_i) * t(S_i), with t the suffix sums of the weights taken at
each rank's lattice index.  Both are linear rank statistics, evaluated in
O(n + m) without building the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .copula import PseudoSample
from .quadrature import QuadratureError, integrate_square
from .special import TailWeights, tail_weights

__all__ = [
    "P_MIN",
    "TailRhoResult",
    "normalizer",
    "rho_tail_population",
    "rho_hat_empirical",
    "rho_hat_bernstein",
    "QuadratureError",
]

# Thresholds this close to 0 blow up the normalizer's reciprocal without any
# statistical meaning at realistic sample sizes.
P_MIN = 1e-6


@dataclass(frozen=True)
class TailRhoResult:
    """One tail-rho estimate: value = (integral - p^4/4) / (p^3/3 - p^4/4).

    `integral` is the raw integral of the estimated copula over [0, p]^2;
    `m` is the smoothing degree (None for the empirical estimator).  The
    value is at most 1 and at least -3p/(4-3p).
    """

    p: float
    method: str
    m: int | None
    value: float
    integral: float


def _check_p(p: float) -> None:
    if not P_MIN < p <= 1.0:
        raise ValueError(f"threshold p={p} outside ({P_MIN:g}, 1]")


def normalizer(p: float) -> float:
    """Normalizing constant p^3/3 - p^4/4 (positive on the allowed range)."""
    _check_p(p)
    return p**3 / 3.0 - p**4 / 4.0


def _finish(integral: float, p: float, method: str, m: int | None) -> TailRhoResult:
    value = (integral - p**4 / 4.0) / normalizer(p)
    return TailRhoResult(p=p, method=method, m=m, value=value, integral=integral)


def rho_tail_population(copula_cdf, p: float, tol: float = 1e-10) -> float:
    """Population lower-tail rho of a copula given as a callable.

    `copula_cdf(u, v)` must broadcast over numpy arrays.  The corner-square
    integral uses tensor Gauss-Legendre with panel doubling until successive
    estimates agree to `tol`; QuadratureError signals failure to converge
    (e.g. for copulas with kinks at very tight tolerances).
    """
    _check_p(p)
    integral = integrate_square(copula_cdf, p, tol)
    return _finish(integral, p, "population", None).value


def rho_hat_empirical(ps: PseudoSample, p: float) -> TailRhoResult:
    """Tail rho of the empirical copula, via the exact closed form.

    The step-function integral is (1/n) sum_i (p - U_i)+ (p - V_i)+, so the
    result is exact up to rounding: no quadrature error enters.
    """
    _check_p(p)
    du = np.maximum(p - ps.u, 0.0)
    dv = np.maximum(p - ps.v, 0.0)
    integral = float(du @ dv) / ps.n
    return _finish(integral, p, "empirical", None)


def rho_hat_bernstein(
    ps: PseudoSample,
    p: float,
    m: int,
    weights: TailWeights | None = None,
) -> TailRhoResult:
    """Tail rho of the Bernstein-smoothed copula of degree m.

    The smoothed integral over [0, p]^2 is the copula grid contracted on both
    axes with the tail weight vector, w @ grid @ w.  Each pair adds 1/n to the
    grid cells at or above its lattice indices (bx, by), so the contraction is
    (1/n) * sum_i tail[bx_i] * tail[by_i] with tail[j] = sum_{k >= j} w_k,
    and no grid is built.  Pass a precomputed `weights` to amortize the
    weight vector across many samples sharing (p, m).
    """
    _check_p(p)
    if weights is None:
        weights = tail_weights(p, m)
    elif weights.p != p or weights.m != m:
        raise ValueError(
            f"weights were built for (p={weights.p}, m={weights.m}), "
            f"not (p={p}, m={m})"
        )
    tail = np.cumsum(weights.w[::-1])[::-1]
    bx, by = ps.lattice_indices(m)
    integral = float(tail[bx] @ tail[by]) / ps.n
    return _finish(integral, p, "bernstein", m)
