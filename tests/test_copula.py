import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tailrho import (
    FgmModel,
    TailWeights,
    TiesError,
    jitter_margin,
    pseudo_observations,
    rule_of_thumb_degree,
)
from tailrho.estimators import bernstein_scores
from definitions import bernstein_copula, copula_grid, empirical_copula, kernel_vector


def brute_force_bernstein(grid, u, v):
    """Independent direct double sum with exact-integer binomial coefficients."""
    total = 0.0
    m = grid.m
    for k in range(m + 1):
        pk = math.comb(m, k) * u**k * (1.0 - u) ** (m - k)
        for el in range(m + 1):
            pl = math.comb(m, el) * v**el * (1.0 - v) ** (m - el)
            total += grid.values[k, el] * pk * pl
    return total


class TestPseudoObservations:
    def test_two_points(self):
        ps = pseudo_observations([1, 2], [1, 2])
        np.testing.assert_array_equal(ps.u, [0.5, 1.0])
        np.testing.assert_array_equal(ps.v, [0.5, 1.0])

    def test_three_points_reordered(self):
        ps = pseudo_observations([3, 1, 2], [9, 7, 8])
        np.testing.assert_allclose(ps.u, [1.0, 1 / 3, 2 / 3])
        np.testing.assert_allclose(ps.v, [1.0, 1 / 3, 2 / 3])

    def test_ties_raise(self):
        with pytest.raises(TiesError):
            pseudo_observations([1, 1], [1, 2])
        with pytest.raises(TiesError):
            pseudo_observations([1, 2], [5, 5])

    def test_boundary_avoiding_scale(self):
        ps = pseudo_observations([1, 2, 3], [3, 1, 2], denominator="n+1")
        np.testing.assert_allclose(ps.u, [0.25, 0.5, 0.75])
        assert ps.denom == 4

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            pseudo_observations([1.0, np.nan], [1.0, 2.0])
        with pytest.raises(ValueError):
            pseudo_observations([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            pseudo_observations([1, 2], [1, 2], denominator="n+2")

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25)
    def test_margins_are_permutations(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        x, y = rng.random(n), rng.random(n)
        ps = pseudo_observations(x, y)
        expect = np.arange(1, n + 1) / n
        np.testing.assert_allclose(np.sort(ps.u), expect)
        np.testing.assert_allclose(np.sort(ps.v), expect)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25)
    def test_pairing_invariant_under_shuffling(self, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.random(15), rng.random(15)
        ps = pseudo_observations(x, y)
        perm = rng.permutation(15)
        ps2 = pseudo_observations(x[perm], y[perm])
        pairs = set(zip(ps.u.tolist(), ps.v.tolist()))
        pairs2 = set(zip(ps2.u.tolist(), ps2.v.tolist()))
        assert pairs == pairs2


def stable_ranks(values):
    """Ranks 1..n along the last axis from a stable argsort: the reference."""
    order = np.argsort(values, axis=-1, kind="stable")
    ranks = np.empty(values.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, values.shape[-1] + 1), axis=-1)
    return ranks


@st.composite
def distinct_rows(draw, min_n=1):
    """A (k, n) pair of margins, k samples of n pairs, every value distinct;
    wide floats, or small integers so that neighbouring ranks are one apart."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(min_n, 30))
    elements = draw(st.sampled_from([
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-200, 200).map(float),
    ]))
    return tuple(draw(arrays(np.float64, (k, n), elements=elements, unique=True)) for _ in "xy")


class TestRankProperties:
    """Ranks sort without a stable sort: a sample that passes the checks has
    one sorting permutation, and a failing sample still fails."""

    @given(rows=distinct_rows())
    @settings(max_examples=60)
    def test_equal_stable_ranks(self, rows):
        for x, y in zip(*rows):
            ps = pseudo_observations(x, y)
            np.testing.assert_array_equal(ps.ranks_x, stable_ranks(x))
            np.testing.assert_array_equal(ps.ranks_y, stable_ranks(y))

    @given(rows=distinct_rows(min_n=2), data=st.data())
    @settings(max_examples=60)
    def test_tie_anywhere_raises(self, rows, data):
        k, n = rows[0].shape
        margin = data.draw(st.sampled_from([0, 1]))
        row = data.draw(st.integers(0, k - 1))
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[margin][row, j] = rows[margin][row, i]
        label = ["first", "second"][margin]
        for r, (x, y) in enumerate(zip(*rows)):
            if r != row:
                pseudo_observations(x, y)
                continue
            with pytest.raises(TiesError, match=f"duplicate values in the {label} margin"):
                pseudo_observations(x, y)

    @given(rows=distinct_rows(), data=st.data())
    @settings(max_examples=30)
    def test_nan_anywhere_raises(self, rows, data):
        k, n = rows[0].shape
        margin = data.draw(st.sampled_from([0, 1]))
        row = data.draw(st.integers(0, k - 1))
        rows[margin][row, data.draw(st.integers(0, n - 1))] = np.nan
        for r, (x, y) in enumerate(zip(*rows)):
            if r != row:
                pseudo_observations(x, y)
                continue
            with pytest.raises(ValueError, match="sample contains non-finite values") as info:
                pseudo_observations(x, y)
            assert not isinstance(info.value, TiesError)


class TestJitter:
    def test_breaks_ties_preserves_order(self):
        values = np.array([1.0, 1.0, 2.0, 3.0, 3.0, 3.0])
        out = jitter_margin(values, np.random.default_rng(0))
        assert np.unique(out).size == out.size
        assert out[2] < out[3]  # 2.0 stays below every jittered 3.0
        assert out[1] < out[2]
        out2 = jitter_margin(values, np.random.default_rng(0))
        np.testing.assert_array_equal(out, out2)

    def test_all_equal_margin(self):
        # at 1e20 floats are 16384 apart, so noise of width 1 would change nothing
        for value in (7.0, 1e20):
            out = jitter_margin(np.full(5, value), np.random.default_rng(1))
            assert np.unique(out).size == 5

    def test_gap_of_one_float_spacing(self):
        # the tie and the value above it are one float spacing apart
        for low in (1.0, 1e20):
            values = np.array([low, low, np.nextafter(low, np.inf)])
            out = jitter_margin(values, np.random.default_rng(0))
            assert np.unique(out).size == 3
            assert max(out[:2]) < out[2]


class TestEmpiricalCopula:
    def test_two_point_center(self):
        ps = pseudo_observations([1, 2], [1, 2])
        assert empirical_copula(ps, 0.5, 0.5) == 0.5

    def test_zero_edge(self):
        ps = pseudo_observations([3, 1, 4], [2, 7, 5])
        assert empirical_copula(ps, 0.0, 0.7) == 0.0

    def test_full_corner(self):
        ps = pseudo_observations([3, 1, 4], [2, 7, 5])
        assert empirical_copula(ps, 1.0, 1.0) == 1.0

    def test_domain_errors(self):
        ps = pseudo_observations([1, 2], [1, 2])
        with pytest.raises(ValueError):
            empirical_copula(ps, -0.1, 0.5)
        with pytest.raises(ValueError):
            empirical_copula(ps, 0.5, 1.1)


class TestCopulaGrid:
    def test_hand_example(self):
        ps = pseudo_observations([1, 2], [1, 2])
        grid = copula_grid(ps, 2)
        np.testing.assert_allclose(
            grid.values, [[0, 0, 0], [0, 0.5, 0.5], [0, 0.5, 1.0]]
        )

    def test_degree_one_corners(self):
        ps = pseudo_observations([5, 1, 3], [2, 9, 4])
        grid = copula_grid(ps, 1)
        np.testing.assert_allclose(grid.values, [[0, 0], [0, 1.0]])

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_point_evaluations_and_invariants(self, seed):
        n, m = 25, 13
        rng = np.random.default_rng(seed)
        ps = pseudo_observations(rng.random(n), rng.random(n))
        grid = copula_grid(ps, m)
        direct = np.array(
            [[empirical_copula(ps, k / m, el / m) for el in range(m + 1)]
             for k in range(m + 1)]
        )
        np.testing.assert_array_equal(grid.values, direct)
        g = grid.values
        assert np.all(g[0, :] == 0.0) and np.all(g[:, 0] == 0.0)
        assert g[m, m] == 1.0
        assert np.all(np.diff(g, axis=0) >= 0.0)
        assert np.all(np.diff(g, axis=1) >= 0.0)
        increments = g[1:, 1:] - g[1:, :-1] - g[:-1, 1:] + g[:-1, :-1]
        assert np.all(increments >= -1e-15)
        assert np.allclose(g * n, np.round(g * n), atol=1e-9)


class TestLatticeIndices:
    """With tail[k] = k, each Bernstein score is its rank's lattice index."""

    @pytest.mark.parametrize("denominator", ["n", "n+1"])
    @pytest.mark.parametrize("n, m", [(1, 1), (7, 3), (20, 20), (9, 40)])
    def test_first_lattice_point_at_or_above(self, denominator, n, m):
        rng = np.random.default_rng(n + m)
        ps = pseudo_observations(rng.random(n), rng.random(n), denominator=denominator)
        # only m and tail are read
        identity = TailWeights(p=1.0, m=m, w=np.zeros(m + 1), tail=np.arange(m + 1.0))
        scores = bernstein_scores(identity, ps.denom)
        assert scores[0] == 0
        for ranks in (ps.ranks_x, ps.ranks_y):
            index = scores[ranks]
            # smallest k with rank/d <= k/m, found by integer search
            expected = [min(k for k in range(m + 1) if r * m <= k * ps.denom) for r in ranks]
            assert index.tolist() == expected
            assert index.min() >= 1 and index.max() <= m


class TestBernsteinCopula:
    def test_zero_edge(self):
        ps = pseudo_observations([1, 2, 3], [2, 3, 1])
        grid = copula_grid(ps, 3)
        assert bernstein_copula(grid, 0.0, 0.4) == 0.0

    def test_one_corner(self):
        ps = pseudo_observations([1, 2, 3], [2, 3, 1])
        grid = copula_grid(ps, 3)
        assert bernstein_copula(grid, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_brute_force_double_sum(self):
        ps = pseudo_observations([1, 2], [1, 2])
        grid = copula_grid(ps, 2)
        for u, v in [(0.5, 0.5), (0.2, 0.9), (0.77, 0.31)]:
            assert bernstein_copula(grid, u, v) == pytest.approx(
                brute_force_bernstein(grid, u, v), abs=1e-14
            )

    def test_brute_force_random_grids(self):
        rng = np.random.default_rng(5)
        for n, m in [(10, 4), (25, 13), (40, 7)]:
            ps = pseudo_observations(rng.random(n), rng.random(n))
            grid = copula_grid(ps, m)
            for _ in range(5):
                u, v = rng.random(2)
                assert bernstein_copula(grid, u, v) == pytest.approx(
                    brute_force_bernstein(grid, u, v), abs=1e-14
                )

    def test_domain_errors(self):
        ps = pseudo_observations([1, 2], [1, 2])
        grid = copula_grid(ps, 2)
        with pytest.raises(ValueError):
            bernstein_copula(grid, 1.2, 0.5)

    @given(
        seed=st.integers(min_value=0, max_value=9999),
        u1=st.floats(min_value=0.0, max_value=1.0),
        u2=st.floats(min_value=0.0, max_value=1.0),
        v=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60)
    def test_monotone_in_each_argument(self, seed, u1, u2, v):
        rng = np.random.default_rng(seed)
        ps = pseudo_observations(rng.random(20), rng.random(20))
        grid = copula_grid(ps, 6)
        lo, hi = sorted((u1, u2))
        assert bernstein_copula(grid, lo, v) <= bernstein_copula(grid, hi, v) + 1e-12
        assert bernstein_copula(grid, v, lo) <= bernstein_copula(grid, v, hi) + 1e-12

    def test_dominance_on_lattice(self):
        # smoothed empirical <= smoothed upper-bound grid <= min(u, v)
        rng = np.random.default_rng(11)
        n, m = 30, 10
        ps = pseudo_observations(rng.random(n), rng.random(n))
        grid = copula_grid(ps, m)
        k = np.arange(m + 1) / m
        bound_grid = np.minimum(k[:, None], k[None, :])
        axis = np.linspace(0.0, 1.0, 101)
        kernels = np.array([kernel_vector(m, t) for t in axis])
        smoothed = kernels @ grid.values @ kernels.T
        smoothed_bound = kernels @ bound_grid @ kernels.T
        upper = np.minimum(axis[:, None], axis[None, :])
        assert np.all(smoothed <= smoothed_bound + 1e-12)
        assert np.all(smoothed_bound <= upper + 1e-12)


class TestUniformCloseness:
    def test_sup_distance_shrinks_with_n(self):
        # median sup-lattice distance to the true copula falls as n grows,
        # with the n^(2/3) degree rule
        model = FgmModel(0.5)
        axis = np.linspace(0.0, 1.0, 51)
        truth = model.cdf(axis[:, None], axis[None, :])
        medians = []
        for n in (50, 200, 800, 3200):
            m = rule_of_thumb_degree(n)
            kernels = np.array([kernel_vector(m, t) for t in axis])
            dists = []
            for rep in range(11):
                rng = np.random.default_rng(
                    np.random.SeedSequence(314, spawn_key=(n, rep))
                )
                xy = model.sample(n, rng)
                ps = pseudo_observations(xy[:, 0], xy[:, 1])
                smoothed = kernels @ copula_grid(ps, m).values @ kernels.T
                dists.append(np.abs(smoothed - truth).max())
            medians.append(float(np.median(dists)))
        assert medians[0] > medians[1] > medians[2] > medians[3]
