"""The paper's definitions the package is checked against.

The package computes both estimators as linear rank statistics and never
builds the objects they are defined through.  Those objects live here: the
empirical copula, its lattice extraction (the copula grid), the Bernstein
smoother of that grid, the population tail-rho functional, the pointwise
limiting variance of the empirical copula, the exact permutation moments
of a linear rank statistic under independence, the limit variance of the
empirical tail rho, both by quadrature of its influence function and by
Monte Carlo, and the FGM conditional inversion as one array expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tailrho.copula import PseudoSample
from tailrho.estimators import normalizer
from tailrho.fgm import FgmModel
from tailrho.mc import DEFAULT_REPS, DEFAULT_SEED, _simulate, _stats, resolve_workers
from tailrho.quadrature import integrate_square
from tailrho.special import _binom_pmf


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

    Each pair is bucketed at its lattice indices ceil(rank*m/d), the first
    cell that counts it, and a two-dimensional prefix sum turns the counts
    into the grid.
    """
    if m < 1:
        raise ValueError(f"degree m={m} must be >= 1")
    n = ps.n
    bx, by = (-((-ranks * m) // ps.denom) for ranks in (ps.ranks_x, ps.ranks_y))
    counts = np.bincount(bx * (m + 1) + by, minlength=(m + 1) ** 2)
    counts = counts.reshape(m + 1, m + 1)
    values = counts.cumsum(axis=0).cumsum(axis=1) / n
    values.flags.writeable = False
    return CopulaGrid(m=m, n=n, values=values)


def kernel_vector(m: int, w: float) -> np.ndarray:
    """All degree-m Bernstein basis values P_{0..m} at a point w in [0, 1]."""
    if m < 0:
        raise ValueError("degree m must be nonnegative")
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"evaluation point w={w} outside [0, 1]")
    return _binom_pmf(m, w)


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


def rho_tail_population(copula_cdf, p: float, tol: float = 1e-10) -> float:
    """Population lower-tail rho of a copula given as a callable.

    `copula_cdf(u, v)` must broadcast over numpy arrays.  The corner-square
    integral uses tensor Gauss-Legendre with panel doubling until successive
    estimates agree to `tol`; QuadratureError signals failure to converge
    (e.g. for copulas with kinks at very tight tolerances).
    """
    scale = normalizer(p)  # checks p
    integral = integrate_square(copula_cdf, p, tol)
    return (integral - p**4 / 4.0) / scale


def fgm_inversion(theta: float, u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """FGM conditional inversion as one expression: with a = theta*(1-2u),
    the root 2t / ((1+a) + sqrt((1+a)^2 - 4at)) of v + a*(v - v^2) = t,
    and t itself where |a| < 1e-12.  `FgmModel.from_uniforms` must give
    these bits."""
    a = theta * (1.0 - 2.0 * u)
    disc = (1.0 + a) ** 2 - 4.0 * a * t
    return np.where(
        np.abs(a) < 1e-12,
        t,
        2.0 * t / ((1.0 + a) + np.sqrt(np.maximum(disc, 0.0))),
    )


def pointwise_variance(model, u, v):
    """Limiting variance coefficient of the empirical copula at (u, v).

    The six-term expression combining C, C_u, C_v; n times the variance of
    the empirical copula converges to this.  Zero on the boundary.
    """
    c = model.cdf(u, v)
    c_u, c_v, _, _ = model.partials(u, v)
    return (
        c * (1.0 - c)
        + u * (1.0 - u) * c_u**2
        + v * (1.0 - v) * c_v**2
        - 2.0 * (1.0 - u) * c * c_u
        - 2.0 * (1.0 - v) * c * c_v
        + 2.0 * c_u * c_v * (c - u * v)
    )


def null_moments(scores, n: int) -> tuple[float, float]:
    """Exact mean and variance of (1/n) * sum_i a(R_i) * a(S_i) under independence.

    `scores` maps an array of ranks to their scores a(r); it is called once,
    on the ranks 1..n.  With independent margins the ranks pair up as a
    uniform random permutation, so the statistic has the permutation moments
    of a linear rank statistic (Hajek, Sidak and Sen, Theory of Rank Tests):
    mean (sum a)^2 / n^2 and variance (sum (a - mean a)^2)^2 / ((n-1) n^2).
    Needs n >= 2.
    """
    a = np.asarray(scores(np.arange(1, n + 1)), dtype=float)
    centred = a - a.mean()
    mean = math.fsum(a) ** 2 / n**2
    variance = math.fsum(centred * centred) ** 2 / ((n - 1) * n**2)
    return mean, variance


def limit_variance_quadrature(theta: float, p: float, order: int = 16) -> float:
    """Limit variance of sqrt(n) * (empirical tail rho - tail rho) under
    FGM(theta), as Var IF(U, V) / normalizer(p)^2.

    IF is the influence function of the corner integral under the empirical
    copula process limit B(u,v) - C_u B(u,1) - C_v B(1,v) (Segers 2012), up
    to a constant: with S(a) = int_0^p C(min(a, p), t) dt, which by the
    symmetry of C is also int_0^p C(t, min(a, p)) dt,
        IF(a, b) = (p - a)+ (p - b)+ - (S(p) - S(a)) - (S(p) - S(b)).
    Every piece is a polynomial on each side of p, so tensor Gauss-Legendre
    split at p, weighted by the FGM density 1 + theta (1-2a)(1-2b), is exact.
    """
    model = FgmModel(theta)
    x, w = np.polynomial.legendre.leggauss(order)
    t, wt = p * (x + 1.0) / 2.0, p * w / 2.0
    a = np.concatenate((t, p + (1.0 - p) * (x + 1.0) / 2.0))
    wa = np.concatenate((wt, (1.0 - p) * w / 2.0))

    def section(s):
        return model.cdf(np.minimum(s, p)[..., None], t) @ wt

    u, v = np.meshgrid(a, a, indexing="ij")
    influence = np.maximum(p - u, 0.0) * np.maximum(p - v, 0.0) + section(u) + section(v)
    weight = np.outer(wa, wa) * (1.0 + theta * (1.0 - 2.0 * u) * (1.0 - 2.0 * v))
    dev = influence - np.sum(weight * influence)
    return float(np.sum(weight * dev * dev)) / normalizer(p) ** 2


def estimate_limit_variance(
    theta: float,
    p: float,
    n: int = 4000,
    reps: int = DEFAULT_REPS,
    seed: int = DEFAULT_SEED,
    *,
    workers: int | None = None,
) -> float:
    """Monte Carlo estimate of the limiting variance of the root-n estimator.

    Computes n times the sample variance of the empirical-copula estimator
    across replicates; by the central limit theorem this stabilizes (in n) at
    the limiting variance, `FgmModel.limit_variance` in closed form.
    """
    if reps < 2:
        raise ValueError("need at least two replicates for a variance")
    workers = resolve_workers(workers)
    [(true_rho, emp, _)] = _simulate([(theta, n, p, [])], reps, seed, workers)
    return n * _stats(emp, true_rho)[1]
