"""Independent oracles for the benchmark's outputs.

Nothing here imports tailrho: every reference value is rebuilt from numpy and
scipy.stats, so a defect in the package cannot hide inside its own oracle.

Both estimators are linear rank statistics, (1/n) * sum_i a(R_i) * a(S_i),
with a score a(r) over ranks 1..n:

- empirical: a(r) = (p - r/d)+;
- Bernstein of degree m: a(r) = S[ceil(r m / d)], where S_j = sum_{k>=j} w_k
  are the suffix sums of the tail weights w_k = P[Binomial(m+1, p) >= k+1]/(m+1).

Under independence the ranks pair up as a uniform random permutation, so the
corner integral has the exact permutation moments (Hajek, Sidak and Sen,
Theory of Rank Tests): mean (sum a)^2 / n^2 and variance
(sum (a - mean a)^2)^2 / ((n-1) n^2).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

# Failure probability of one Monte Carlo check. Bernstein's inequality holds
# for any bounded i.i.d. replicates, so at this level no seed trips a check.
CHECK_DELTA = 1e-9
# The CLI prints six significant digits.
PRINT_RTOL = 1e-5


def normalizer(p: float) -> float:
    return p**3 / 3.0 - p**4 / 4.0


def rho_tail_fgm(theta: float, p: float) -> float:
    """Exact lower-tail rho of the FGM copula."""
    corner = p**2 / 2.0 - p**3 / 3.0
    return theta * corner**2 / normalizer(p)


def rule_degree(n: int) -> int:
    """Largest m >= 1 with m^3 <= n^2, by integer search."""
    m = 1
    while (m + 1) ** 3 <= n * n:
        m += 1
    return m


def empirical_scores(n: int, d: int, p: float) -> np.ndarray:
    r = np.arange(1, n + 1)
    return np.maximum(p - r / d, 0.0)


def bernstein_scores(n: int, d: int, p: float, m: int) -> np.ndarray:
    weights = stats.binom.sf(np.arange(m + 1), m + 1, p) / (m + 1)
    suffix = np.cumsum(weights[::-1])[::-1]
    r = np.arange(1, n + 1)
    return suffix[-((-r * m) // d)]


def rank_statistic(
    scores: np.ndarray, ranks_x: np.ndarray, ranks_y: np.ndarray, p: float
) -> float:
    """Tail rho of the linear rank statistic with the given score table."""
    integral = float(scores[ranks_x - 1] @ scores[ranks_y - 1]) / ranks_x.size
    return (integral - p**4 / 4.0) / normalizer(p)


def close(printed: float, exact: float, atol: float = 1e-12) -> bool:
    return abs(printed - exact) <= PRINT_RTOL * abs(exact) + atol


def _bernstein_tolerance(reps: int, variance: float, bound: float) -> float:
    """t with P(|mean of reps draws - expectation| >= t) <= CHECK_DELTA.

    Bernstein's inequality: P <= 2 exp(-R t^2 / (2 (v + B t / 3))) for draws
    with variance v and |draw - expectation| <= B.
    """
    log_term = math.log(2.0 / CHECK_DELTA)
    b = 2.0 * log_term * bound / 3.0
    return (b + math.sqrt(b * b + 8.0 * reps * log_term * variance)) / (2.0 * reps)


class NullCell:
    """Exact permutation law of one estimator's tail rho at independence."""

    def __init__(self, scores: np.ndarray, p: float) -> None:
        n = scores.size
        scale = normalizer(p)
        centred = scores - scores.mean()
        mean_integral = scores.sum() ** 2 / n**2
        var_integral = float(centred @ centred) ** 2 / ((n - 1) * n**2)
        ordered = np.sort(scores)
        # rearrangement inequality: the integral lies between these two
        low = (float(ordered @ ordered[::-1]) / n - p**4 / 4.0) / scale
        high = (float(ordered @ ordered) / n - p**4 / 4.0) / scale
        self.mean = (mean_integral - p**4 / 4.0) / scale
        self.var = var_integral / scale**2
        self.low, self.high = low, high

    def check(self, reps: int, abs_bias: float, mse: float) -> bool:
        """Compare a cell's |mean| and mean square (truth is 0) with the law."""
        t_mean = _bernstein_tolerance(
            reps, self.var, max(self.high - self.mean, self.mean - self.low)
        )
        if abs(abs_bias - abs(self.mean)) > t_mean + PRINT_RTOL * abs_bias + 1e-15:
            return False
        second = self.var + self.mean**2
        top = max(self.low**2, self.high**2)
        bottom = 0.0 if self.low <= 0.0 <= self.high else min(self.low**2, self.high**2)
        # Bhatia-Davis bounds the variance of a square confined to [bottom, top]
        var_square = (second - bottom) * (top - second)
        t_mse = _bernstein_tolerance(reps, var_square, max(top - second, second - bottom))
        return abs(mse - second) <= t_mse + PRINT_RTOL * mse + 1e-15


def summary_consistent(reps: int, abs_bias: float, var: float, mse: float) -> bool:
    """mse = var (R-1)/R + bias^2, up to the printed digits."""
    if not all(map(math.isfinite, (abs_bias, var, mse))) or min(abs_bias, var, mse) < 0.0:
        return False
    rebuilt = var * (reps - 1) / reps + abs_bias**2
    return abs(rebuilt - mse) <= 3.0 * PRINT_RTOL * max(mse, rebuilt) + 1e-15
