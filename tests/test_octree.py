"""Tests for linear-octree operations and construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.octree import build_leaves, is_complete, points_to_octree
from repro.octree.linear import fill_cell_range, is_sorted_unique
from repro.util import morton
from repro.datasets import ellipsoid_surface, uniform_cube


class TestLinearOps:
    def test_fill_cell_range_whole_cube(self):
        out = fill_cell_range(0, 1 << (3 * morton.MAX_DEPTH))
        assert out.size == 1 and out[0] == morton.ROOT

    @given(st.integers(0, 4000), st.integers(0, 4000))
    @settings(max_examples=100, deadline=None)
    def test_fill_cell_range_covers_exactly(self, a, b):
        lo, hi = sorted((a, b))
        out = fill_cell_range(lo, hi)
        assert is_sorted_unique(out)
        # total cells covered equals the range length
        sizes = 8 ** (morton.MAX_DEPTH - morton.level(out))
        assert sizes.sum() == hi - lo


class TestBuild:
    def test_counts_and_completeness(self, any_points):
        ob = points_to_octree(any_points, 25)
        assert is_complete(ob.leaves)
        assert ob.leaf_counts.sum() == len(any_points)
        assert ob.leaf_counts.max() <= 25

    def test_sorted_points_match_leaf_ranges(self, uniform_points):
        ob = points_to_octree(uniform_points, 30)
        sorted_keys = ob.point_keys
        assert np.all(np.diff(sorted_keys.astype(np.float64)) >= 0)
        for i in np.flatnonzero(ob.leaf_counts)[:50]:
            lo = morton.deepest_first_descendant(ob.leaves[i : i + 1])[0]
            hi = morton.deepest_last_descendant(ob.leaves[i : i + 1])[0]
            chunk = sorted_keys[ob.leaf_begin[i] : ob.leaf_end[i]]
            assert np.all((chunk >= lo) & (chunk <= hi))

    def test_max_depth_cap(self):
        pts = np.full((100, 3), 0.3)  # all identical: cannot separate
        ob = points_to_octree(pts, 5, max_depth=4)
        assert morton.level(ob.leaves).max() <= 4
        assert ob.leaf_counts.max() == 100

    def test_single_point(self):
        ob = points_to_octree(np.array([[0.7, 0.2, 0.9]]), 10)
        assert ob.leaves.size == 1
        assert ob.leaves[0] == morton.ROOT

    def test_deeper_refinement_for_clusters(self):
        uni = points_to_octree(uniform_cube(2000, 5), 25)
        ell = points_to_octree(ellipsoid_surface(2000, 5), 25)
        assert morton.level(ell.leaves).max() > morton.level(uni.leaves).max()

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            build_leaves(np.array([], dtype=np.uint64), 0)
