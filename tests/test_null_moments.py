"""Exact permutation moments of both estimators at independence.

At theta = 0 both estimators are linear rank statistics of a uniform random
permutation, so their mean and variance are known exactly for every n.  The
formula is checked against full enumeration, then the simulated theta = 0
reference cells are checked against it.
"""

import itertools
import math

import numpy as np
import pytest

from tailrho import ExperimentConfig, FgmModel, mc, normalizer, rule_of_thumb_degree, tail_weights
from definitions import null_moments

P = 0.5


def empirical_scores(n, p):
    """a(r) = (p - r/(n+1))+, the empirical estimator's score at rank/(n+1)."""
    return lambda r: np.maximum(p - r / (n + 1), 0.0)


def bernstein_scores(n, p, m):
    """a(r) = tail[ceil(r m / (n+1))], the smoothed estimator's score."""
    tail = tail_weights(p, m).tail
    return lambda r: tail[-((-r * m) // (n + 1))]


class TestEnumeration:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kind", ["random", "empirical", "bernstein"])
    def test_matches_all_permutations(self, n, kind):
        if kind == "random":
            table = np.random.default_rng(n).normal(size=n)

            def scores(r):
                return table[r - 1]

        elif kind == "empirical":
            scores = empirical_scores(n, P)
        else:
            scores = bernstein_scores(n, P, rule_of_thumb_degree(n))
        a = scores(np.arange(1, n + 1))
        values = [
            math.fsum(a * a[list(perm)]) / n for perm in itertools.permutations(range(n))
        ]
        mean = math.fsum(values) / len(values)
        variance = math.fsum((x - mean) ** 2 for x in values) / len(values)
        got_mean, got_variance = null_moments(scores, n)
        assert got_mean == pytest.approx(mean, rel=1e-12, abs=1e-15)
        assert got_variance == pytest.approx(variance, rel=1e-12, abs=1e-15)



@pytest.mark.parametrize("n", [4000, 20000])
@pytest.mark.parametrize("p", [0.1, 0.5, 1.0])
def test_exact_null_variance_tends_to_limit_variance(n, p):
    """n Var(empirical tail rho) under independence is the closed-form limit
    variance up to an O(1/n) term, about -3/(p n) on this grid."""
    _, var_integral = null_moments(empirical_scores(n, p), n)
    scaled = n * var_integral / normalizer(p) ** 2
    assert abs(scaled - FgmModel(0.0).limit_variance(p)) <= 4.0 / (p * n)


@pytest.mark.parametrize("m", [10**3, 10**4, 10**5])
@pytest.mark.parametrize("p", [0.1, 0.5, 1.0])
def test_bernstein_score_variance_deficit_is_kappa_over_m(p, m):
    """The degree-m step scores x -> tail[ceil(x m)] on (0, 1] have variance
    L_m = N - kappa/m + lambda(p)/m^(3/2) + ..., where N = normalizer(p) is
    the empirical scores' limit and kappa = p^2/2 - p^3/3, the integral of
    x(1 - x) over [0, p].  At theta = 0 an estimator's variance is L^2/(n-1)
    over its ranks' scores, so smoothing lowers it by order 1/m.

    The bound 0.06/sqrt(m) on the remainder rounds up the largest
    sqrt(m) * (kappa - m (N - L_m)) measured over m = 10^2..10^5: 0.0545, at
    p = 0.5 and m = 10^2.  The same measure is 0.0102 throughout at p = 0.1,
    and at p = 1, where lambda vanishes, it falls from 0.0165 to 0.0005.
    """
    t = tail_weights(p, m).tail[1:]
    spread = np.mean(t * t) - np.mean(t) ** 2
    kappa = p * p / 2 - p * p * p / 3
    deficit = kappa - m * (normalizer(p) - spread)
    assert 0.0 <= deficit <= 0.06 / math.sqrt(m)

# The theta = 0 cells of the reference grid: their replicate streams are
# keyed by (theta, n), so they are the reference table's first REPS replicates.
REFERENCE = ExperimentConfig(
    thetas=(-1.0, -0.5, 0.0, 0.5, 1.0), ns=(50, 200), ps=(0.1, 0.5, 1.0), reps=4000
)
NULL_CELLS = [
    (theta, n, p, [REFERENCE.degree_for(n)])
    for theta, n, p in REFERENCE.cells()
    if theta == 0.0
]


@pytest.fixture(scope="module")
def null_runs():
    values = mc._simulate(NULL_CELLS, REFERENCE.reps, REFERENCE.seed, mc.resolve_workers())
    return {
        (n, p): (m, emp, bern[:, 0], mc._summary(
            0.0, n, p, m, mc._stats(emp, truth), mc._stats(bern[:, 0], truth)
        ))
        for (_, n, p, [m]), (truth, emp, bern) in zip(NULL_CELLS, values)
    }


@pytest.mark.parametrize("n, p", [(cell[1], cell[2]) for cell in NULL_CELLS])
@pytest.mark.parametrize("method", ["emp", "bern"])
def test_null_cell_matches_exact_moments(null_runs, n, p, method):
    """abs_bias within 4 SE of the exact |mean|; var within 5 SE of the exact
    variance, the SE of a sample variance estimated from the replicates'
    squared deviations."""
    m, emp, bern, summary = null_runs[(n, p)]
    values = emp if method == "emp" else bern
    scores = empirical_scores(n, p) if method == "emp" else bernstein_scores(n, p, m)
    mean_integral, var_integral = null_moments(scores, n)
    scale = normalizer(p)
    mean = (mean_integral - p**4 / 4.0) / scale
    variance = var_integral / scale**2
    reps = values.size

    abs_bias = getattr(summary, f"abs_bias_{method}")
    assert abs(abs_bias - abs(mean)) <= 4.0 * math.sqrt(variance / reps)

    var = getattr(summary, f"var_{method}")
    squares = (values - values.mean()) ** 2
    var_se = math.sqrt(squares.var(ddof=1) / reps)
    assert abs(var - variance) <= 5.0 * var_se
