"""The two plug-in estimators of lower-tail Spearman's rho.

The tail-rho functional integrates a copula over the corner square [0, p]^2,
centers it at the independence value p^4/4, and scales by the normalizer
p^3/3 - p^4/4 so that perfect positive dependence scores 1.

Both estimators are one linear rank statistic, (1/n) * sum_i a(R_i) * a(S_i),
over a per-rank score table a(0..d).  Integrating the empirical copula's step
function gives a(r) = (p - r/d)+, with no quadrature.  The smoothed estimator
is by definition the (m+1)^2 copula grid contracted on both axes with the
tail weights; because the grid counts pairs, that collapses to
a(r) = tail[ceil(r*m/d)], the weights' suffix sums at each rank's lattice
index.  A table costs O(d + m), and one table serves every sample of a size;
`rank_integral` evaluates the statistic on one sample's ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .copula import PseudoSample
from .special import TailWeights, tail_weights

__all__ = [
    "P_MIN",
    "TailRhoResult",
    "normalizer",
    "empirical_scores",
    "bernstein_scores",
    "rank_integral",
    "tail_rho",
    "rho_hat_empirical",
    "rho_hat_bernstein",
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
    """Normalizing constant p^3/3 - p^4/4 (positive on the allowed range).

    Powers here and in `tail_rho` are chains of IEEE products, which give the
    same bits on every platform; Python's ** calls the C library's pow, whose
    last bit varies between libraries.
    """
    _check_p(p)
    return p * p * p / 3.0 - p * p * p * p / 4.0


def empirical_scores(p: float, d: int) -> np.ndarray:
    """Empirical-copula scores (p - r/d)+ of the ranks r = 0..d."""
    return np.maximum(p - np.arange(d + 1) / d, 0.0)


def bernstein_scores(weights: TailWeights, d: int) -> np.ndarray:
    """Degree-m scores tail[ceil(r*m/d)] of the ranks r = 0..d (exact ceiling)."""
    return weights.tail[-((-np.arange(d + 1) * weights.m) // d)]


def rank_integral(ranks_x: np.ndarray, ranks_y: np.ndarray, scores: np.ndarray) -> float:
    """The corner integral (1/n) * sum_i scores[R_i] * scores[S_i] of one
    sample's integer ranks.

    The sum is numpy's pairwise summation of the n products, in this thread
    and without BLAS, so its value does not depend on the BLAS thread count
    (a BLAS dot splits long vectors over threads).
    """
    products = scores[ranks_x] * scores[ranks_y]
    return float(products.sum() / ranks_x.size)


def tail_rho(integral, p: float):
    """Tail rho of corner integrals: a float, or an array elementwise."""
    return (integral - p * p * p * p / 4.0) / normalizer(p)


def _finish(
    ps: PseudoSample, scores: np.ndarray, p: float, method: str, m: int | None
) -> TailRhoResult:
    integral = rank_integral(ps.ranks_x, ps.ranks_y, scores)
    return TailRhoResult(p, method, m, tail_rho(integral, p), integral)


def rho_hat_empirical(ps: PseudoSample, p: float) -> TailRhoResult:
    """Tail rho of the empirical copula, exact up to rounding: its corner
    integral needs no quadrature.  tail_rho checks p."""
    return _finish(ps, empirical_scores(p, ps.denom), p, "empirical", None)


def rho_hat_bernstein(
    ps: PseudoSample, p: float, m: int, weights: TailWeights | None = None
) -> TailRhoResult:
    """Tail rho of the Bernstein-smoothed copula of degree m, from the scores
    tail[ceil(rank*m/d)]: no copula grid is built.  Pass a precomputed
    `weights` to amortize the weight vector across samples sharing (p, m).
    """
    _check_p(p)
    if weights is None:
        weights = tail_weights(p, m)
    elif weights.p != p or weights.m != m:
        raise ValueError(
            f"weights were built for (p={weights.p}, m={weights.m}), "
            f"not (p={p}, m={m})"
        )
    return _finish(ps, bernstein_scores(weights, ps.denom), p, "bernstein", m)
