"""Tests for repro.geometry.points."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import (
    as_point,
    as_points,
    diameter,
    distances_to,
    euclidean,
    pairwise_distances,
    total_pair_distance,
)
from repro.geometry.points import as_xy

finite_coord = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestAsPoint:
    def test_tuple(self):
        assert np.array_equal(as_point((1, 2)), [1.0, 2.0])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            as_point((1, 2, 3))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_point((float("nan"), 0.0))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            as_point((float("inf"), 0.0))


class TestAsXy:
    @given(finite_coord, finite_coord)
    def test_matches_as_point(self, x, y):
        for p in ((x, y), [x, y], np.array([x, y])):
            xy = as_xy(p)
            assert all(type(v) is float for v in xy)
            assert xy == tuple(as_point(p).tolist())


class TestAsPoints:
    def test_promotes_single_point(self):
        assert as_points((1, 2)).shape == (1, 2)

    def test_empty(self):
        assert as_points([]).shape == (0, 2)

    def test_list_of_tuples(self):
        arr = as_points([(0, 0), (3, 4)])
        assert arr.shape == (2, 2)
        assert arr.dtype == np.float64

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            as_points([[1, 2, 3]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_points([[0.0, np.inf]])


class TestEuclidean:
    def test_pythagoras(self):
        assert euclidean((0, 0), (3, 4)) == pytest.approx(5.0)

    def test_zero(self):
        assert euclidean((2, 2), (2, 2)) == 0.0

    @given(finite_coord, finite_coord, finite_coord, finite_coord)
    def test_symmetry(self, ax, ay, bx, by):
        assert euclidean((ax, ay), (bx, by)) == pytest.approx(
            euclidean((bx, by), (ax, ay))
        )

    @given(finite_coord, finite_coord, finite_coord, finite_coord)
    def test_nonnegative(self, ax, ay, bx, by):
        assert euclidean((ax, ay), (bx, by)) >= 0.0


class TestDistancesTo:
    def test_matches_scalar_function(self):
        pts = [(0, 0), (3, 4), (-5, 12)]
        expected = [euclidean(p, (0, 0)) for p in pts]
        assert np.allclose(distances_to(pts, (0, 0)), expected)

    def test_empty(self):
        assert distances_to([], (0, 0)).shape == (0,)


class TestPairwiseDistances:
    def test_symmetric_zero_diagonal(self):
        mat = pairwise_distances([(0, 0), (1, 0), (0, 2)])
        assert np.allclose(mat, mat.T)
        assert np.allclose(np.diag(mat), 0.0)

    def test_values(self):
        mat = pairwise_distances([(0, 0), (3, 4)])
        assert mat[0, 1] == pytest.approx(5.0)


class TestDiameter:
    def test_small_set(self):
        assert diameter([(0, 0), (1, 0), (0, 1)]) == pytest.approx(np.sqrt(2))

    def test_single_point(self):
        assert diameter([(5, 5)]) == 0.0

    def test_empty(self):
        assert diameter([]) == 0.0

    def test_hull_path_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        pts = rng.random((200, 2)) * 100
        assert diameter(pts) == pytest.approx(pairwise_distances(pts).max())

    def test_collinear_large_set_falls_back(self):
        xs = np.arange(100, dtype=np.float64)
        pts = np.column_stack([xs, 2.0 * xs])
        assert diameter(pts) == pytest.approx(euclidean(pts[0], pts[-1]))


class TestTotalPairDistance:
    def test_sums_rowwise(self):
        left = [(0, 0), (0, 0)]
        right = [(3, 4), (6, 8)]
        assert total_pair_distance(left, right) == pytest.approx(15.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            total_pair_distance([(0, 0)], [(0, 0), (1, 1)])

    def test_empty(self):
        assert total_pair_distance([], []) == 0.0
