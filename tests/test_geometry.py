"""Tests for octant physical geometry."""

import numpy as np

from repro.util import geometry, morton


class TestBoxGeometry:
    def test_root_center_and_half_width(self):
        c = geometry.box_center(np.array([morton.ROOT]))
        np.testing.assert_allclose(c, [[0.5, 0.5, 0.5]])
        assert geometry.box_half_width(0) == 0.5

    def test_half_width_halves_per_level(self):
        levels = np.arange(10)
        hw = geometry.box_half_width(levels)
        np.testing.assert_allclose(hw[1:] / hw[:-1], 0.5)

    def test_children_centers_offset(self):
        root = np.array([morton.ROOT], dtype=np.uint64)
        kids = morton.children(root)[0]
        centers = geometry.box_center(kids)
        # all eight (+-0.25) offsets around the root centre
        assert set(np.unique((centers - 0.5).round(6))) == {-0.25, 0.25}
        assert len(np.unique(centers, axis=0)) == 8

    def test_corners_contain_encoded_points(self, rng):
        pts = rng.random((300, 3))
        keys = morton.encode_points(pts)
        boxes = morton.ancestor_at(keys, np.full(300, 4))
        c, r = geometry.box_center(boxes), geometry.box_half_width(4)
        assert np.all(np.abs(pts - c) <= r + 1e-12)
