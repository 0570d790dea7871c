"""Unit tests for work weights and leaf repartitioning."""

import numpy as np
import pytest

from repro.core.lists import build_lists
from repro.core.tree import build_tree
from repro.datasets import ellipsoid_surface, uniform_cube
from repro.dist.loadbalance import leaf_work_weights, repartition_leaves
from repro.kernels import get_kernel
from repro.mpi import run_spmd
from repro.octree.build import leaf_point_counts, points_to_octree


class TestLeafWorkWeights:
    @pytest.fixture(scope="class")
    def built(self):
        tree = build_tree(ellipsoid_surface(1500, seed=81), 25)
        lists = build_lists(tree)
        return tree, lists

    def test_nonnegative_and_finite(self, built):
        tree, lists = built
        leaf_nodes = tree.leaf_indices
        w = leaf_work_weights(tree, lists, get_kernel("laplace"), 152, leaf_nodes)
        assert np.all(w >= 0) and np.all(np.isfinite(w))
        assert w.shape == (leaf_nodes.size,)

    def test_list_sizes_drive_weights(self, built):
        """Weights must track the interaction-list work, not just points
        (V-list translations dominate at high surface order)."""
        tree, lists = built
        leaf_nodes = tree.leaf_indices
        w = leaf_work_weights(tree, lists, get_kernel("laplace"), 152, leaf_nodes)
        v_counts = lists.v.counts[leaf_nodes]
        order = np.argsort(w)
        k = max(leaf_nodes.size // 10, 1)
        assert v_counts[order[-k:]].mean() > v_counts[order[:k]].mean()

    def test_kernel_scales_weights(self, built):
        tree, lists = built
        leaf_nodes = tree.leaf_indices
        w_lap = leaf_work_weights(tree, lists, get_kernel("laplace"), 152, leaf_nodes)
        w_stk = leaf_work_weights(tree, lists, get_kernel("stokes"), 152, leaf_nodes)
        assert w_stk.sum() > 2.0 * w_lap.sum()

    @pytest.mark.parametrize("kernel", ["laplace", "stokes"])
    @pytest.mark.parametrize("cloud", ["uniform", "ellipsoid"])
    def test_equals_the_per_leaf_loop_bitwise(self, kernel, cloud):
        """The CSR row sums keep the loop's accumulation order, so the
        weights (and with them the repartition) are the loop's bits."""
        make = {"uniform": uniform_cube, "ellipsoid": ellipsoid_surface}[cloud]
        tree = build_tree(make(1500, seed=86), 25)
        lists = build_lists(tree)
        kern = get_kernel(kernel)
        leaf_nodes = tree.leaf_indices
        for nodes in (leaf_nodes, leaf_nodes[::-3]):
            got = leaf_work_weights(tree, lists, kern, 152, nodes)
            ref = _per_leaf_weights(tree, lists, kern, 152, nodes)
            assert got.dtype == ref.dtype and np.array_equal(got, ref)


def _per_leaf_weights(tree, lists, kernel, n_surf, leaf_nodes):
    """The per-leaf loop ``leaf_work_weights`` replaced: the reference."""
    counts = tree.point_counts()
    fpp = float(kernel.flops_per_pair)
    ns_src = float(n_surf) * kernel.source_dim
    ns_tgt = float(n_surf) * kernel.target_dim
    w = np.zeros(leaf_nodes.size, dtype=np.float64)
    for j, i in enumerate(leaf_nodes):
        npts = counts[i]
        w[j] = fpp * npts * counts[lists.u.of(i)].sum()
        w[j] += 2.0 * ns_src * ns_tgt * lists.v.counts[i]
        w[j] += fpp * npts * n_surf * lists.w.counts[i]
        w[j] += fpp * n_surf * counts[lists.x.of(i)].sum()
        w[j] += fpp * npts * n_surf * 2 + 4.0 * ns_src * ns_tgt
    return w


class TestRepartition:
    def _setup(self, comm, pts, q=25):
        from repro.dist.build import distributed_points_to_octree

        d = distributed_points_to_octree(comm, pts[comm.rank :: comm.size], q)
        begin, end = leaf_point_counts(d.point_keys, d.leaves)
        # synthetic weights: proportional to point counts squared
        w = (end - begin).astype(float) ** 2 + 1.0
        return d, w, begin, end

    def test_conservation(self):
        pts = ellipsoid_surface(2000, seed=82)

        def fn(comm):
            d, w, b, e = self._setup(comm, pts)
            leaves, points, keys = repartition_leaves(
                comm, d.leaves, w, d.points, d.point_keys, b, e
            )
            assert np.all(np.diff(keys.astype(np.int64)) >= 0)
            return leaves, len(points)

        res = run_spmd(4, fn, timeout=300)
        total_leaves = np.sort(np.concatenate([v[0] for v in res.values]))
        seq = points_to_octree(pts, 25)
        # leaves conserved as a set (they only moved)
        assert sum(v[1] for v in res.values) == 2000
        assert len(np.unique(total_leaves)) == total_leaves.size

    def test_weights_balance_improves(self):
        pts = ellipsoid_surface(3000, seed=83)

        def fn(comm):
            d, w, b, e = self._setup(comm, pts)
            before = float(w.sum())
            leaves, points, keys = repartition_leaves(
                comm, d.leaves, w, d.points, d.point_keys, b, e
            )
            nb, ne = leaf_point_counts(keys, leaves)
            after = float(((ne - nb).astype(float) ** 2 + 1.0).sum())
            return before, after

        res = run_spmd(4, fn, timeout=300)
        befores = np.array([v[0] for v in res.values])
        afters = np.array([v[1] for v in res.values])
        assert afters.max() / afters.mean() <= befores.max() / befores.mean()

    def test_zero_weights_noop(self):
        pts = ellipsoid_surface(800, seed=84)

        def fn(comm):
            d, w, b, e = self._setup(comm, pts)
            leaves, points, keys = repartition_leaves(
                comm, d.leaves, np.zeros_like(w), d.points, d.point_keys, b, e
            )
            return np.array_equal(leaves, d.leaves)

        assert all(run_spmd(2, fn, timeout=300).values)
