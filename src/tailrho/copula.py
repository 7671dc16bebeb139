"""Rank transforms, the empirical copula, grid extraction, and Bernstein smoothing.

All types are immutable once built and all operations are pure, so everything
here can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .special import kernel_vector

__all__ = [
    "TiesError",
    "PseudoSample",
    "CopulaGrid",
    "pseudo_observations",
    "jitter_margin",
    "empirical_copula",
    "copula_grid",
    "bernstein_copula",
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

    def lattice_indices(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Per margin, the first lattice index k with rank/d <= k/m.

        That is ceil(rank*m/d), decided in exact integer arithmetic; every
        index lies in 1..m.
        """
        return -((-self.ranks_x * m) // self.denom), -((-self.ranks_y * m) // self.denom)


@dataclass(frozen=True)
class CopulaGrid:
    """Empirical copula sampled at ((k/m, l/m)) for k, l = 0..m.

    values[k, l] is the empirical copula at (k/m, l/m); the first row and
    column are zero, the corner values[m, m] is 1, entries are nondecreasing
    along rows and columns, and every 2x2 sub-block has nonnegative increment.
    """

    m: int
    n: int
    values: np.ndarray


def _ranks(values: np.ndarray, label: str) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    if np.any(sorted_vals[1:] == sorted_vals[:-1]):
        raise TiesError(
            f"duplicate values in the {label} margin; ranks are undefined "
            "(continuous data expected; consider jittering)"
        )
    ranks = np.empty(values.size, dtype=np.int64)
    ranks[order] = np.arange(1, values.size + 1)
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
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("sample contains non-finite values")
    if denominator == "n":
        d = x.size
    elif denominator == "n+1":
        d = x.size + 1
    else:
        raise ValueError(f"denominator must be 'n' or 'n+1', got {denominator!r}")
    rx = _ranks(x, "first")
    ry = _ranks(y, "second")
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


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name}={value} outside [0, 1]")


def empirical_copula(ps: PseudoSample, u: float, v: float) -> float:
    """Empirical copula (1/n) * #{i : U_i <= u and V_i <= v}."""
    _check_unit("u", u)
    _check_unit("v", v)
    return float(np.count_nonzero((ps.u <= u) & (ps.v <= v))) / ps.n


def copula_grid(ps: PseudoSample, m: int) -> CopulaGrid:
    """Empirical copula on the (m+1) x (m+1) lattice {0, 1/m, ..., 1}^2.

    Sorting is already paid for in the ranks, so the grid is assembled in
    O(n + m^2) by bucketing each pair at its lattice indices (the first cell
    that counts it) and taking a two-dimensional prefix sum.  The estimators
    never build it: it is the definition their rank-score form is tested
    against.
    """
    if m < 1:
        raise ValueError(f"degree m={m} must be >= 1")
    n = ps.n
    bx, by = ps.lattice_indices(m)
    counts = np.bincount(bx * (m + 1) + by, minlength=(m + 1) ** 2)
    counts = counts.reshape(m + 1, m + 1)
    values = counts.cumsum(axis=0).cumsum(axis=1) / n
    values.flags.writeable = False
    return CopulaGrid(m=m, n=n, values=values)


def bernstein_copula(grid: CopulaGrid, u: float, v: float) -> float:
    """Bernstein-smoothed copula: the grid contracted with binomial kernels.

    Evaluates sum_{k,l} values[k,l] P_{k,m}(u) P_{l,m}(v), an infinitely
    smooth surface through the grid that stays inside [0, 1].
    """
    _check_unit("u", u)
    _check_unit("v", v)
    pu = kernel_vector(grid.m, u)
    pv = kernel_vector(grid.m, v)
    return float(pu @ grid.values @ pv)
