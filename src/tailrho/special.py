"""Special functions: binomial kernels, the incomplete beta integral, and the
tail-integration weight vector.

Everything here is a pure function of its arguments and safe to call
concurrently.  The weight computation avoids the classic overflow/underflow
trap (a huge binomial coefficient multiplying a vanishing beta integral) by
working with binomial probability masses throughout, which stay in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

__all__ = [
    "MAX_DEGREE",
    "TailWeights",
    "binomial_kernel",
    "kernel_vector",
    "incomplete_beta",
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

    Invariants: all w_k >= 0, sum(w) == p, and for p == 1 every entry equals
    1/(m+1).
    """

    p: float
    m: int
    w: np.ndarray


def binomial_kernel(k: int, m: int, w: float) -> float:
    """Bernstein basis polynomial C(m,k) w^k (1-w)^(m-k).

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


def kernel_vector(m: int, w: float) -> np.ndarray:
    """All degree-m Bernstein basis values P_{0..m} at a point w in [0, 1]."""
    if m < 0:
        raise ValueError("degree m must be nonnegative")
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"evaluation point w={w} outside [0, 1]")
    return _binom_pmf(m, w)


def incomplete_beta(x: float, a: float, b: float) -> float:
    """Unnormalized incomplete beta: integral of t^(a-1) (1-t)^(b-1) over [0, x].

    Nondecreasing in x, with the complete beta function recovered at x = 1.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"upper limit x={x} outside [0, 1]")
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if x == 0.0:
        return 0.0
    return float(sp.betainc(a, b, x)) * math.exp(float(sp.betaln(a, b)))


def tail_weights(p: float, m: int) -> TailWeights:
    """Weight vector w_k = C(m,k) * ibeta(p, k+1, m-k+1), k = 0..m.

    Because the beta parameters are integers, each weight equals the survival
    probability P[Binomial(m+1, p) >= k+1] divided by m+1, so the whole vector
    comes from one pmf sweep and a suffix sum.  The suffix sum runs from the
    far tail upward (smallest terms first), which keeps |sum(w) - p| at the
    1e-15 level even at m = 1000.
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
    return TailWeights(p=p, m=m, w=w)
