"""Tests for U/V/W/X interaction-list construction.

The key guarantees: exact agreement with the brute-force definitions of
paper Table I, and the symmetry properties the LET correctness proof
relies on (U and V symmetric; X is the transpose of W).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lists import CsrList, ListInvariantError, build_lists, check_lists
from repro.core.tree import build_tree
from repro.datasets import ellipsoid_surface, plummer_cluster, uniform_cube
from repro.dist.driver import DistributedFmm
from repro.mpi import run_spmd
from repro.util import morton


def brute_force_lists(tree):
    """Literal implementation of the Table I definitions."""
    n = tree.n_nodes
    keys, lev, par, isleaf = tree.keys, tree.levels, tree.parent, tree.is_leaf
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        adj[i] = morton.adjacent(np.full(n, keys[i], dtype=np.uint64), keys)
    U = {i: set() for i in range(n)}
    V = {i: set() for i in range(n)}
    W = {i: set() for i in range(n)}
    for i in range(n):
        if isleaf[i]:
            U[i] = {j for j in range(n) if isleaf[j] and (adj[i, j] or j == i)}
        if par[i] >= 0:
            p = par[i]
            for c in range(n):
                if lev[c] == lev[p] and adj[p, c]:
                    for k in tree.children[c]:
                        if k >= 0 and not adj[i, k]:
                            V[i].add(k)
        if isleaf[i]:
            colleagues = [j for j in range(n) if lev[j] == lev[i] and adj[i, j]]
            stack = [k for c in colleagues for k in tree.children[c] if k >= 0]
            while stack:
                a = stack.pop()
                if not adj[i, a] and adj[i, par[a]]:
                    W[i].add(a)
                stack.extend(k for k in tree.children[a] if k >= 0)
    X = {i: set() for i in range(n)}
    for a, ws in W.items():
        for b in ws:
            X[b].add(a)
    return U, V, W, X


@pytest.fixture(
    params=[
        ("uniform", 250, 15),
        ("ellipsoid", 300, 12),
        ("plummer", 300, 12),
    ],
    ids=lambda p: p[0],
)
def small_tree(request):
    name, n, q = request.param
    maker = {
        "uniform": uniform_cube,
        "ellipsoid": ellipsoid_surface,
        "plummer": plummer_cluster,
    }[name]
    return build_tree(maker(n, seed=17), q)


class TestAgainstBruteForce:
    def test_all_lists_match(self, small_tree):
        lists = build_lists(small_tree)
        U, V, W, X = brute_force_lists(small_tree)
        for i in range(small_tree.n_nodes):
            assert set(lists.u.of(i).tolist()) == U[i], f"U mismatch at {i}"
            assert set(lists.v.of(i).tolist()) == V[i], f"V mismatch at {i}"
            assert set(lists.w.of(i).tolist()) == W[i], f"W mismatch at {i}"
            assert set(lists.x.of(i).tolist()) == X[i], f"X mismatch at {i}"


def _assert_brute_force(tree, lists):
    U, V, W, X = brute_force_lists(tree)
    for name, ref in zip("uvwx", (U, V, W, X)):
        csr = getattr(lists, name)
        got = [set(csr.of(i).tolist()) for i in range(tree.n_nodes)]
        assert got == [ref[i] for i in range(tree.n_nodes)], f"{name.upper()} mismatch"
    check_lists(tree, lists)


def _cloud(kind, seed, n):
    """``n`` points: uniform, Gaussian blobs down to 1e-5 wide, or the
    ellipsoid surface — the three refinement patterns of the workloads."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.random((n, 3))
    if kind == "surface":
        return ellipsoid_surface(n, seed=seed)
    centres = rng.random((3, 3))
    width = 10.0 ** rng.uniform(-5, -1, size=(3, 1))
    pick = rng.integers(3, size=n)
    return np.clip(centres[pick] + width[pick] * rng.standard_normal((n, 3)), 0.0, 1.0 - 1e-12)


class TestRandomTrees:
    """The table-driven build against the literal Table I definitions on
    random adaptive trees (q down to 1; 1e-5-wide blobs refine 15-18
    levels deep) and on every rank's LET."""

    @given(st.sampled_from(["uniform", "blobs", "surface"]), st.integers(0, 2**31 - 1),
           st.integers(2, 120), st.sampled_from([1, 2, 5, 16, 64]))
    @settings(max_examples=20, deadline=None)
    def test_build_matches_brute_force(self, kind, seed, n, q):
        tree = build_tree(_cloud(kind, seed, n), q)
        _assert_brute_force(tree, build_lists(tree))

    @pytest.mark.parametrize("p", [2, 3])
    def test_let_matches_brute_force(self, p):
        points = ellipsoid_surface(900, seed=8)

        def body(comm):
            fmm = DistributedFmm(order=4, max_points_per_box=30)
            fmm.setup(comm, points[comm.rank :: comm.size])
            return fmm.let.tree, fmm.lists

        for tree, lists in run_spmd(p, body).values:
            _assert_brute_force(tree, lists)


def _without(csr, row, col):
    """``csr`` minus its ``(row, col)`` entry."""
    rows, cols = csr.pairs()
    keep = ~((rows == row) & (cols == col))
    return CsrList.from_pairs(rows[keep], cols[keep], csr.offsets.size - 1)


class TestSymmetries:
    """The symmetry facts the paper's LET proof uses (its footnote 2), and
    that a plan's shared W/X blocks rest on: ``check_lists`` holds them on
    every tree built here and names the list and pair that break them."""

    @pytest.fixture(scope="class")
    def built(self):
        tree = build_tree(ellipsoid_surface(1200, seed=5), 20)
        return tree, build_lists(tree)

    @pytest.mark.parametrize("name", ["uniform", "plummer", "ellipsoid"])
    def test_check_lists_solo(self, name):
        maker = {"uniform": uniform_cube, "plummer": plummer_cluster,
                 "ellipsoid": ellipsoid_surface}[name]
        tree = build_tree(maker(1500, seed=9), 20)
        check_lists(tree, build_lists(tree))

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_check_lists_let(self, p):
        """Every rank's LET lists: ghost octants included, the four
        invariants hold on the local essential tree as on a solo tree."""
        points = ellipsoid_surface(2400, seed=3)

        def body(comm):
            fmm = DistributedFmm(order=4, max_points_per_box=30)
            fmm.setup(comm, points[comm.rank :: comm.size])
            check_lists(fmm.let.tree, fmm.lists)
            return fmm.lists.w.total(), fmm.lists.x.total()

        res = run_spmd(p, body)
        assert all(w > 0 and w == x for w, x in res.values)

    @given(
        st.integers(0, 2**31 - 1), st.integers(1, 4), st.integers(50, 600),
        st.sampled_from([1, 5, 20, 60]),
    )
    @settings(max_examples=25, deadline=None)
    def test_check_lists_random_clusters(self, seed, clusters, n, q):
        """Random clustered point sets x ``max_points_per_box``: tight
        Gaussian blobs force deep, strongly adaptive refinement."""
        rng = np.random.default_rng(seed)
        centres = rng.random((clusters, 3))
        width = 10.0 ** rng.uniform(-4, -1, size=(clusters, 1))
        pick = rng.integers(clusters, size=n)
        pts = centres[pick] + width[pick] * rng.standard_normal((n, 3))
        tree = build_tree(np.clip(pts, 0.0, 1.0 - 1e-12), q)
        check_lists(tree, build_lists(tree))

    def _breaks(self, built, name, other=None):
        """Dropping one entry of list ``name`` is reported against the
        list that still holds its mirror image, with the mirrored pair."""
        tree, lists = built
        check_lists(tree, lists)
        csr = getattr(lists, name)
        rows, cols = csr.pairs()
        j = int(np.argmax(rows != cols))
        row, col = int(rows[j]), int(cols[j])
        broken = replace(lists, **{name: _without(csr, row, col)})
        with pytest.raises(ListInvariantError) as err:
            check_lists(tree, broken)
        assert err.value.list_name == (other or name).upper()
        assert err.value.pair == (col, row)
        assert str((col, row)) in str(err.value)

    def test_u_symmetric(self, built):
        self._breaks(built, "u")

    def test_v_symmetric(self, built):
        self._breaks(built, "v")

    def test_x_is_transpose_of_w(self, built):
        self._breaks(built, "w", other="x")
        self._breaks(built, "x", other="w")

    def test_w_rows_are_leaves(self, built):
        tree, lists = built
        inner = int(np.flatnonzero(~tree.is_leaf & (tree.levels > 0))[0])
        far = int(lists.w.indices[0])
        w = CsrList.from_pairs(*(np.append(a, b) for a, b in
                                 zip(lists.w.pairs(), (inner, far))), tree.n_nodes)
        x = CsrList.from_pairs(*(np.append(a, b) for a, b in
                                 zip(lists.x.pairs(), (far, inner))), tree.n_nodes)
        with pytest.raises(ListInvariantError, match="not a leaf") as err:
            check_lists(tree, replace(lists, w=w, x=x))
        assert (err.value.list_name, err.value.pair) == ("W", (inner, far))

    def test_self_in_own_u_list(self, built):
        tree, lists = built
        for i in tree.leaf_indices:
            assert i in lists.u.of(i)

    def test_u_w_only_for_leaves(self, built):
        tree, lists = built
        internal = ~tree.is_leaf
        assert lists.u.counts[internal].sum() == 0
        assert lists.w.counts[internal].sum() == 0

    def test_v_same_level(self, built):
        tree, lists = built
        rows = np.repeat(np.arange(tree.n_nodes), lists.v.counts)
        np.testing.assert_array_equal(
            tree.levels[rows], tree.levels[lists.v.indices]
        )

    def test_x_members_are_coarser_leaves(self, built):
        tree, lists = built
        rows = np.repeat(np.arange(tree.n_nodes), lists.x.counts)
        assert np.all(tree.is_leaf[lists.x.indices])
        assert np.all(tree.levels[lists.x.indices] < tree.levels[rows])

    def test_interaction_decomposition_covers_all_pairs(self, built):
        """Every distinct leaf pair is connected through exactly one of:
        U directly, V/W/X at some ancestor level, or well-separated
        ancestors handled by M2L higher up.  We check the near-field split:
        adjacent leaves appear in U and nowhere in V/W/X."""
        tree, lists = built
        for i in tree.leaf_indices[:100]:
            u_set = set(lists.u.of(i).tolist()) - {i}
            for j in u_set:
                assert j not in set(lists.v.of(i).tolist())
                assert j not in set(lists.w.of(i).tolist())
                assert j not in set(lists.x.of(i).tolist())


class TestCsrList:
    def test_from_pairs_dedupes(self):
        csr = CsrList.from_pairs(
            np.array([1, 1, 0, 1]), np.array([2, 2, 1, 0]), 3
        )
        np.testing.assert_array_equal(csr.of(1), [0, 2])
        np.testing.assert_array_equal(csr.of(0), [1])
        assert csr.of(2).size == 0
        assert csr.total() == 3

    def test_empty(self):
        csr = CsrList.from_pairs(np.array([]), np.array([]), 4)
        assert csr.total() == 0
        assert all(csr.of(i).size == 0 for i in range(4))

    def test_invert_roundtrip(self, rng):
        rows = rng.integers(0, 20, 100)
        cols = rng.integers(0, 20, 100)
        csr = CsrList.from_pairs(rows, cols, 20)
        back = csr.invert().invert()
        np.testing.assert_array_equal(back.offsets, csr.offsets)
        np.testing.assert_array_equal(back.indices, csr.indices)
