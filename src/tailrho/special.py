"""Special functions: the tail-integration weight vector of the Bernstein
smoother and its suffix sums, the per-rank scores of the smoothed estimator.

Everything here is a pure function of its arguments and safe to call
concurrently.  The weight computation avoids the classic overflow/underflow
trap (a huge binomial coefficient multiplying a vanishing beta integral) by
working with binomial probability masses throughout, which stay in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_DEGREE",
    "TailWeights",
    "tail_weights",
]

# Largest Bernstein degree accepted.  It bounds the O(m) weight vectors (about
# 800 kB each at the cap) and exceeds the rule-of-thumb degree floor(n^(2/3))
# for every n up to 3e7.
MAX_DEGREE = 100_000


@dataclass(frozen=True)
class TailWeights:
    """Weights w_k = C(m,k) * ibeta(p, k+1, m-k+1) for k = 0..m.

    Contracting a grid of copula values at (k/m, l/m) with this vector on both
    axes integrates the degree-m Bernstein smoother exactly over [0, p]^2.

    `tail` holds the suffix sums tail[j] = sum_{k >= j} w_k, the per-rank
    scores of the smoothed estimator.

    Invariants: all w_k >= 0, sum(w) == p, and for p == 1 every entry equals
    1/(m+1).
    """

    p: float
    m: int
    w: np.ndarray
    tail: np.ndarray


def _binom_pmf(n_trials: int, prob: float) -> np.ndarray:
    """Probability masses of Binomial(n_trials, prob) for j = 0..n_trials.

    Mode-anchored multiplicative recurrence: start from 1 at the mode, sweep
    outward with the pmf ratio, then normalize.  Entries only shrink away from
    the mode, so nothing overflows; far tails may flush to zero, which is
    harmless at the absolute accuracies required here.
    """
    out = np.zeros(n_trials + 1)
    if prob == 0.0:
        out[0] = 1.0
        return out
    if prob == 1.0:
        out[-1] = 1.0
        return out
    mode = min(n_trials, int((n_trials + 1) * prob))
    out[mode] = 1.0
    odds = prob / (1.0 - prob)
    if mode < n_trials:
        j = np.arange(mode + 1, n_trials + 1, dtype=float)
        out[mode + 1 :] = np.cumprod((n_trials - j + 1.0) / j * odds)
    if mode > 0:
        j = np.arange(mode, 0, -1, dtype=float)
        down = np.cumprod(j / (n_trials - j + 1.0) / odds)
        out[:mode] = down[::-1]
    return out / math.fsum(out)


def tail_weights(p: float, m: int) -> TailWeights:
    """Weight vector w_k = C(m,k) * ibeta(p, k+1, m-k+1), k = 0..m.

    Because the beta parameters are integers, each weight equals the survival
    probability P[Binomial(m+1, p) >= k+1] divided by m+1, so the whole vector
    comes from one pmf sweep and a suffix sum.  The suffix sum runs from the
    far tail upward (smallest terms first), which keeps |sum(w) - p| below
    1e-14 up to the degree cap MAX_DEGREE.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"threshold p={p} outside (0, 1]")
    if not 1 <= m <= MAX_DEGREE:
        raise ValueError(f"degree m={m} outside 1..{MAX_DEGREE}")
    if p == 1.0:
        w = np.full(m + 1, 1.0 / (m + 1))
    else:
        pmf = _binom_pmf(m + 1, p)
        survival = np.cumsum(pmf[::-1])[::-1]
        w = survival[1:] / (m + 1)
    return TailWeights(p=p, m=m, w=w, tail=np.cumsum(w[::-1])[::-1])
