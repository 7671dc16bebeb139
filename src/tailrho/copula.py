"""Rank transforms: pseudo-observations and a ties policy.

All types are immutable once built and all operations are pure, so everything
here can be shared freely across threads.  `_check_sorted` is the one
definition of a sample's checks (finite values, no ties), made on its margins
sorted ascending: `pseudo_observations` applies it to one sample, and the
Monte Carlo engine to each replicate row of a kernel chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TiesError",
    "PseudoSample",
    "pseudo_observations",
    "jitter_margin",
]


class TiesError(ValueError):
    """A margin contains duplicate values, so within-margin ranks are undefined."""


@dataclass(frozen=True)
class PseudoSample:
    """Rank-transformed observations (r_i/d, s_i/d).

    u, v hold the normalized ranks; ranks_x, ranks_y the integer ranks in
    1..n.  The denominator d is n by default, making each margin of u (and of
    v) exactly {1/n, 2/n, ..., 1} up to permutation; the alternative d = n+1
    keeps all values strictly inside (0, 1).
    """

    u: np.ndarray
    v: np.ndarray
    ranks_x: np.ndarray
    ranks_y: np.ndarray
    denom: int

    @property
    def n(self) -> int:
        return self.u.size


def _check_sorted(x: np.ndarray, y: np.ndarray) -> None:
    """A sample's checks, on both margins sorted ascending along the last
    axis (one sample, or one replicate per row).  A sort puts any -inf
    first and any +inf or NaN last, and equal values next to each other, so
    a row's end values and its neighbours decide: ValueError if an end value
    is not finite, else TiesError for a tie in the first margin, then in the
    second."""
    if not (np.isfinite(x[..., [0, -1]]).all() and np.isfinite(y[..., [0, -1]]).all()):
        raise ValueError("sample contains non-finite values")
    for rows, label in ((x, "first"), (y, "second")):
        if np.any(rows[..., 1:] == rows[..., :-1]):
            raise TiesError(
                f"duplicate values in the {label} margin; ranks are undefined "
                "(continuous data expected; consider jittering)"
            )


def _ranks(order: np.ndarray) -> np.ndarray:
    """Integer ranks 1..n of the values that `order` sorts ascending."""
    ranks = np.empty(order.size, dtype=np.int64)
    ranks[order] = np.arange(1, order.size + 1)
    return ranks


def pseudo_observations(x, y, denominator: str = "n") -> PseudoSample:
    """Rank-transform a bivariate sample to (rank/d, rank/d) pairs.

    denominator selects d: "n" (the default, so the largest value maps to 1)
    or "n+1" (the boundary-avoiding scaling common in rank-based copula
    software, used by the simulation engine).  Raises TiesError if either
    margin contains duplicates; ties have probability zero for continuous
    data, and silently averaging ranks would change the estimators downstream.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise ValueError(f"margins have different lengths ({x.size} vs {y.size})")
    if x.size < 1:
        raise ValueError("sample must contain at least one pair")
    if denominator == "n":
        d = x.size
    elif denominator == "n+1":
        d = x.size + 1
    else:
        raise ValueError(f"denominator must be 'n' or 'n+1', got {denominator!r}")
    # A sample that passes the checks has distinct values, so exactly one
    # permutation sorts each margin and any sort gives the same ranks; the
    # default (unstable) sort is several times faster than a stable one.
    order_x, order_y = np.argsort(x), np.argsort(y)
    _check_sorted(x[order_x], y[order_y])
    rx, ry = _ranks(order_x), _ranks(order_y)
    u = rx / d
    v = ry / d
    for arr in (u, v, rx, ry):
        arr.flags.writeable = False
    return PseudoSample(u=u, v=v, ranks_x=rx, ranks_y=ry, denom=d)


def jitter_margin(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Break ties by adding uniform noise of half the smallest nonzero gap,
    or of max(1, max|v|) for a constant margin.

    Strictly ordered pairs keep their order; tied values become distinct
    almost surely.  Deterministic for a fixed generator state.
    """
    values = np.asarray(values, dtype=float).ravel()
    gaps = np.diff(np.sort(values))
    positive = gaps[gaps > 0]
    # A constant margin's noise must be wider than its values' spacing, about
    # 2^-52 |v|: at 1e20 a width of 1 would change nothing.
    eps = 0.5 * positive.min() if positive.size else max(1.0, np.abs(values).max())
    return values + rng.uniform(0.0, eps, size=values.size)
