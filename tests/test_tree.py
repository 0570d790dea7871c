"""Tests for the FMM tree structure."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tree import build_tree, concat_ranges, leaf_batches, pad_class
from repro.util import morton


class TestConcatRanges:
    """Every ragged gather (point slices of boxes, CSR rows of lists, rank
    runs of users) goes through ``concat_ranges``: it must equal the
    per-box loop it replaced, element for element, in int64."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 12)), max_size=40),
        st.sampled_from([np.int64, np.intp, np.int32]),
    )
    def test_equals_the_per_box_loop(self, ranges, dtype):
        ranges = [(b % 2**31, c) if dtype is np.int32 else (b, c) for b, c in ranges]
        begin = np.array([b for b, _ in ranges], dtype=dtype)
        counts = np.array([c for _, c in ranges], dtype=np.intp)
        ref = np.concatenate(
            [np.arange(b, b + c, dtype=np.int64) for b, c in ranges] + [np.empty(0, np.int64)]
        )
        got = concat_ranges(begin, counts)
        assert got.dtype == np.int64 and np.array_equal(got, ref)

    def test_empty_and_zero_counts(self):
        assert concat_ranges(np.empty(0, np.int64), np.empty(0, np.int64)).shape == (0,)
        assert concat_ranges([5, 9], [0, 0]).size == 0
        assert concat_ranges([5, 9, 2], [0, 2, 1]).tolist() == [9, 10, 2]

    def test_point_rows_are_the_slices_of_the_boxes(self, plummer_points):
        tree = build_tree(plummer_points, 30)
        nodes = np.random.default_rng(0).permutation(tree.n_nodes)[:50]
        ref = np.concatenate([np.arange(tree.pt_begin[i], tree.pt_end[i]) for i in nodes])
        assert np.array_equal(tree.point_rows(nodes), ref)


class TestTreeStructure:
    def test_validate_passes(self, any_points):
        tree = build_tree(any_points, 25)
        tree.validate()

    def test_point_partition_by_leaves(self, uniform_points):
        tree = build_tree(uniform_points, 30)
        leaves = tree.leaf_indices
        counts = tree.point_counts()
        assert counts[leaves].sum() == tree.n_points
        assert counts[0] == tree.n_points  # root covers everything

    def test_points_sorted_by_key(self, uniform_points):
        tree = build_tree(uniform_points, 30)
        keys = morton.encode_points(tree.points)
        assert np.all(keys[1:] >= keys[:-1])
        np.testing.assert_allclose(tree.points, uniform_points[tree.order])

    def test_find(self, uniform_points):
        tree = build_tree(uniform_points, 30)
        idx = tree.find(tree.keys[::3])
        np.testing.assert_array_equal(idx, np.arange(tree.n_nodes)[::3])
        ghost = morton.make_oct(0, 0, 0, morton.MAX_DEPTH)
        if ghost not in tree.keys:
            assert tree.find(np.array([ghost]))[0] == -1

    def test_nodes_at_level(self, uniform_points):
        tree = build_tree(uniform_points, 30)
        total = sum(
            tree.nodes_at_level(l).size for l in range(tree.max_level + 1)
        )
        assert total == tree.n_nodes
        assert tree.nodes_at_level(0).size == 1

    def test_levels_consistent_with_parents(self, ellipsoid_points):
        tree = build_tree(ellipsoid_points, 20)
        nz = np.arange(1, tree.n_nodes)
        np.testing.assert_array_equal(
            tree.levels[tree.parent[nz]], tree.levels[nz] - 1
        )

    def test_geometry_matches_keys(self, uniform_points):
        tree = build_tree(uniform_points, 50)
        np.testing.assert_allclose(
            tree.half_widths, 0.5 * 2.0 ** -tree.levels.astype(float)
        )
        # each leaf's points lie inside its box
        for i in tree.leaf_indices[:40]:
            pts = tree.leaf_points(i)
            if len(pts) == 0:
                continue
            c, r = tree.centers[i], tree.half_widths[i]
            assert np.all(np.abs(pts - c) <= r + 1e-12)

    def test_leaf_points_view(self, uniform_points):
        tree = build_tree(uniform_points, 30)
        i = tree.leaf_indices[np.argmax(tree.point_counts()[tree.leaf_indices])]
        pts = tree.leaf_points(i)
        assert pts.base is tree.points  # a view, not a copy


class TestPadClass:
    """Block sides come in two classes per octave: 2**k and 3 * 2**(k-1)."""

    def test_the_classes(self):
        assert sorted(set(pad_class(np.arange(100)).tolist())) == [
            1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128]
        assert pad_class(0) == 1 and pad_class(1053) == 1536

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10**6))
    def test_covers_with_bounded_waste_and_is_idempotent(self, n):
        p = int(pad_class(n))
        assert n <= p and 2 * p < 3 * n  # less than half of n again
        assert pad_class(p) == p
        assert pad_class(n + 1) >= p  # monotone

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=40))
    def test_array_call_equals_scalar_calls(self, ns):
        got = pad_class(np.array(ns))
        assert got.dtype == np.int64 and got.shape == (len(ns),)
        assert got.tolist() == [int(pad_class(n)) for n in ns]

    def test_leaf_batches_pad_each_leaf_by_its_own_count(self, plummer_points):
        tree = build_tree(plummer_points, 30)
        counts = tree.point_counts()
        sel = tree.is_leaf & (counts > 0)
        seen = []
        for lev, pad, grp in leaf_batches(tree, sel):
            assert np.all(tree.levels[grp] == lev)
            assert np.all(pad_class(counts[grp]) == pad)
            seen.append(grp)
        assert np.array_equal(np.sort(np.concatenate(seen)), np.flatnonzero(sel))
