"""Rank transforms: pseudo-observations and a ties policy.

All types are immutable once built and all operations are pure, so everything
here can be shared freely across threads.  The ranking and its checks work
along the last axis, so the Monte Carlo engine ranks a whole chunk of
replicate samples in one call with exactly the checks `pseudo_observations`
applies to one sample.
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


def _ranks(values: np.ndarray, label: str) -> np.ndarray:
    """Integer ranks 1..n along the last axis; TiesError if any row ties.

    A row that passes the tie check has distinct values, so exactly one
    permutation sorts it and any sort gives the same ranks; the default
    (unstable) sort is several times faster than a stable one.  A tied row
    still sorts its equal values next to each other, so the check sees them.
    """
    order = np.argsort(values, axis=-1)
    sorted_vals = np.take_along_axis(values, order, axis=-1)
    if np.any(sorted_vals[..., 1:] == sorted_vals[..., :-1]):
        raise TiesError(
            f"duplicate values in the {label} margin; ranks are undefined "
            "(continuous data expected; consider jittering)"
        )
    ranks = np.empty(values.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, values.shape[-1] + 1), axis=-1)
    return ranks


def _margin_ranks(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks of both margins along the last axis, each row on its own.

    Works on one sample (shape (n,)) or a stack of them (shape (k, n)), with
    the same checks: ValueError for a non-finite value, TiesError for a tie.
    """
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("sample contains non-finite values")
    return _ranks(x, "first"), _ranks(y, "second")


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
    rx, ry = _margin_ranks(x, y)
    u = rx / d
    v = ry / d
    for arr in (u, v, rx, ry):
        arr.flags.writeable = False
    return PseudoSample(u=u, v=v, ranks_x=rx, ranks_y=ry, denom=d)


def jitter_margin(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Break ties by adding uniform noise of half the smallest nonzero gap.

    Strictly ordered pairs keep their order; tied values become distinct
    almost surely.  Deterministic for a fixed generator state.
    """
    values = np.asarray(values, dtype=float).ravel()
    gaps = np.diff(np.sort(values))
    positive = gaps[gaps > 0]
    eps = 0.5 * positive.min() if positive.size else 1.0
    return values + rng.uniform(0.0, eps, size=values.size)
