"""Unit and property tests for the Morton key algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import morton


coords = st.integers(min_value=0, max_value=(1 << morton.MAX_DEPTH) - 1)
levels = st.integers(min_value=0, max_value=morton.MAX_DEPTH)


def aligned(c: int, lev: int) -> int:
    step = 1 << (morton.MAX_DEPTH - lev)
    return (c // step) * step


class TestEncodeDecode:
    @given(coords, coords, coords)
    @settings(max_examples=200, deadline=None)
    def test_anchor_roundtrip(self, x, y, z):
        oct_id = morton.make_oct(x, y, z, morton.MAX_DEPTH)
        ax, ay, az = morton.anchor(oct_id)
        assert (ax, ay, az) == (x, y, z)

    @given(coords, coords, coords, levels)
    @settings(max_examples=200, deadline=None)
    def test_level_roundtrip(self, x, y, z, lev):
        oct_id = morton.make_oct(
            aligned(x, lev), aligned(y, lev), aligned(z, lev), lev
        )
        assert morton.level(oct_id) == lev
        assert morton.is_valid(np.array([oct_id]))[0]

    def test_encode_points_matches_scaling(self, rng):
        pts = rng.random((500, 3))
        keys = morton.encode_points(pts)
        x, y, z = morton.anchor(keys)
        scaled = (pts * (1 << morton.MAX_DEPTH)).astype(np.int64)
        np.testing.assert_array_equal(np.stack([x, y, z], axis=1), scaled)

    def test_encode_points_clips_boundary(self):
        pts = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [2.0, -1.0, 0.5]])
        keys = morton.encode_points(pts)
        assert morton.is_valid(keys).all()

    def test_encode_points_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            morton.encode_points(np.zeros((5, 2)))

    def test_coarser_depth_encoding(self, rng):
        pts = rng.random((100, 3))
        keys = morton.encode_points(pts, depth=5)
        assert np.all(morton.level(keys) == 5)
        fine = morton.encode_points(pts)
        assert np.all(morton.ancestor_at(fine, np.full(100, 5)) == keys)


class TestHierarchy:
    @given(coords, coords, coords, st.integers(min_value=1, max_value=morton.MAX_DEPTH))
    @settings(max_examples=200, deadline=None)
    def test_parent_inverts_children(self, x, y, z, lev):
        oct_id = morton.make_oct(
            aligned(x, lev - 1), aligned(y, lev - 1), aligned(z, lev - 1), lev - 1
        )
        kids = morton.children(np.array([oct_id], dtype=np.uint64))[0]
        assert len(set(kids.tolist())) == 8
        assert np.all(morton.parent(kids) == oct_id)

    def test_root_parent_is_root(self):
        assert morton.parent(np.array([morton.ROOT]))[0] == morton.ROOT

    def test_children_of_max_depth_raises(self):
        deepest = morton.make_oct(0, 0, 0, morton.MAX_DEPTH)
        with pytest.raises(ValueError):
            morton.children(np.array([deepest], dtype=np.uint64))

    @given(coords, coords, coords, levels, levels)
    @settings(max_examples=200, deadline=None)
    def test_ancestor_at(self, x, y, z, l1, l2):
        fine, coarse = max(l1, l2), min(l1, l2)
        oct_id = morton.make_oct(
            aligned(x, fine), aligned(y, fine), aligned(z, fine), fine
        )
        anc = morton.ancestor_at(oct_id, np.int64(coarse))
        assert morton.level(anc) == coarse
        assert morton.is_ancestor_or_equal(anc, oct_id)

    def test_descendant_id_interval(self, rng):
        """All descendants of a box lie in (id, deepest_last_descendant]."""
        pts = rng.random((200, 3))
        keys = np.sort(morton.encode_points(pts))
        box = morton.ancestor_at(keys[50], np.int64(3))
        lo = morton.deepest_first_descendant(np.array([box]))[0]
        hi = morton.deepest_last_descendant(np.array([box]))[0]
        inside = (keys >= lo) & (keys <= hi)
        covered = morton.ancestor_at(keys, np.full(keys.size, 3)) == box
        np.testing.assert_array_equal(inside, covered)

    def test_sorted_ids_are_preorder(self):
        """Parents sort before all their descendants."""
        root = np.array([morton.ROOT], dtype=np.uint64)
        kids = morton.children(root)[0]
        grand = morton.children(kids).ravel()
        for k, g8 in zip(kids, morton.children(kids)):
            assert k < g8.min()
        assert morton.ROOT < np.concatenate([kids, grand]).min()

    def test_ancestors_of(self, rng):
        keys = morton.encode_points(rng.random((50, 3)))
        anc = morton.ancestors_of(keys)
        assert morton.ROOT in anc
        # every ancestor's parent is present too (closed set)
        nonroot = anc[morton.level(anc) > 0]
        assert np.all(np.isin(morton.parent(nonroot), anc))


class TestAdjacency:
    def test_neighbors_are_adjacent(self, rng):
        keys = morton.encode_points(rng.random((20, 3)))
        boxes = morton.ancestor_at(keys, np.full(20, 4))
        ids, valid = morton.neighbors(boxes)
        for b, row, ok in zip(boxes, ids, valid):
            cand = row[ok]
            assert morton.adjacent(np.full(cand.size, b, np.uint64), cand).all()

    def test_interior_box_has_26_neighbors(self):
        x = 1 << (morton.MAX_DEPTH - 1)  # centre of the cube
        box = morton.make_oct(x, x, x, 3)
        _, valid = morton.neighbors(np.array([box], dtype=np.uint64))
        assert valid.sum() == 26

    def test_corner_box_has_7_neighbors(self):
        box = morton.make_oct(0, 0, 0, 2)
        _, valid = morton.neighbors(np.array([box], dtype=np.uint64))
        assert valid.sum() == 7

    def test_not_adjacent_to_self_or_descendants(self):
        box = morton.make_oct(0, 0, 0, 2)
        kid = morton.children(np.array([box], dtype=np.uint64))[0][3]
        b = np.array([box], dtype=np.uint64)
        assert not morton.adjacent(b, b)[0]
        assert not morton.adjacent(b, np.array([kid]))[0]
        assert morton.closures_touch(b, np.array([kid]))[0]

    def test_adjacency_is_symmetric(self, rng):
        keys = morton.encode_points(rng.random((60, 3)))
        a = morton.ancestor_at(keys[:30], np.full(30, 3))
        b = morton.ancestor_at(keys[30:], np.full(30, 5))
        np.testing.assert_array_equal(morton.adjacent(a, b), morton.adjacent(b, a))

    def test_diagonal_touch_counts_as_adjacent(self):
        half = 1 << (morton.MAX_DEPTH - 1)
        a = morton.make_oct(0, 0, 0, 1)
        b = morton.make_oct(half, half, half, 1)
        assert morton.adjacent(np.array([a]), np.array([b]))[0]
