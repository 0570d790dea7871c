"""Adaptive FMM tree: linear octree plus per-node topology and point data.

The tree stores *all* octants (leaves and ancestors) of a complete adaptive
octree as parallel arrays indexed by node id order (sorted Morton pre-order).
Points are kept in Morton-sorted order; each leaf records its contiguous
slice.  This array-of-struct-of-arrays layout is what makes both the
vectorised CPU evaluator and the GPU data-structure translation cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.octree import build as obuild
from repro.util import geometry, morton

__all__ = [
    "FmmTree", "TreeDelta", "build_tree", "concat_ranges", "diff_trees", "pad_class",
    "tree_from_nodes",
]


def concat_ranges(begin: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(begin[i], begin[i] + counts[i])``, vectorised.

    The one gather of a ragged set of ranges (point slices of boxes, CSR
    rows of lists); int64 out, empty for empty input.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    head = np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(np.asarray(begin, dtype=np.int64), counts) + (
        np.arange(total, dtype=np.int64) - head
    )


@dataclass
class FmmTree:
    """Topology + geometry + point storage of an adaptive FMM octree.

    Attributes
    ----------
    keys:
        Sorted ids of all nodes (leaves and internal), ``(n_nodes,)``.
    levels / is_leaf / parent / children / child_pos:
        Per-node topology.  ``children`` is ``(n_nodes, 8)`` with -1 where
        a child does not exist; ``child_pos`` is the Morton position of a
        node inside its parent (0 for the root).
    points:
        Morton-sorted point coordinates ``(n_points, 3)``.
    order:
        Permutation such that ``points == original_points[order]``.
    pt_begin / pt_end:
        Per-node ranges into ``points`` covering the node's subtree (for a
        leaf: its own points).
    centers / half_widths:
        Physical box geometry per node.
    """

    keys: np.ndarray
    levels: np.ndarray
    is_leaf: np.ndarray
    parent: np.ndarray
    children: np.ndarray
    child_pos: np.ndarray
    points: np.ndarray
    order: np.ndarray
    pt_begin: np.ndarray
    pt_end: np.ndarray
    centers: np.ndarray
    half_widths: np.ndarray
    _level_index: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.keys.size

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def max_level(self) -> int:
        return int(self.levels.max(initial=0))

    @property
    def leaf_indices(self) -> np.ndarray:
        return np.flatnonzero(self.is_leaf)

    def point_counts(self) -> np.ndarray:
        """Number of points in each node's subtree."""
        return self.pt_end - self.pt_begin

    def nodes_at_level(self, level: int) -> np.ndarray:
        """Indices of nodes at the given level (cached)."""
        idx = self._level_index.get(level)
        if idx is None:
            idx = self._level_index[level] = np.flatnonzero(self.levels == level)
        return idx

    def find(self, query_keys: np.ndarray) -> np.ndarray:
        """Node indices of the queried octant ids (-1 when absent)."""
        query_keys = np.asarray(query_keys, dtype=np.uint64)
        pos = np.searchsorted(self.keys, query_keys)
        pos = np.clip(pos, 0, self.keys.size - 1)
        return np.where(self.keys[pos] == query_keys, pos, -1)

    def point_rows(self, nodes: np.ndarray) -> np.ndarray:
        """Rows of ``points`` under each of ``nodes``, concatenated in order."""
        return concat_ranges(self.pt_begin[nodes], self.pt_end[nodes] - self.pt_begin[nodes])

    def leaf_points(self, node: int) -> np.ndarray:
        """Points of a leaf node (view into the sorted array)."""
        return self.points[self.pt_begin[node] : self.pt_end[node]]

    def validate(self) -> None:
        """Structural invariants; raises AssertionError on violation."""
        assert np.all(self.keys[1:] > self.keys[:-1]), "keys not sorted unique"
        root = 0
        assert self.parent[root] == -1 and self.levels[root] == 0
        nz = np.arange(1, self.n_nodes)
        assert np.all(self.parent[nz] >= 0), "non-root without parent"
        p = self.parent[nz]
        assert np.all(self.levels[p] == self.levels[nz] - 1)
        assert np.all(
            self.children[p, self.child_pos[nz]] == nz
        ), "children table inconsistent"
        leaf = self.is_leaf
        assert np.all(self.children[leaf] == -1), "leaf with children"
        assert np.all((self.children[~leaf] >= 0).any(axis=1) | ~(~leaf).any())
        # Point ranges of children partition the parent's range.
        internal = np.flatnonzero(~leaf)
        for i in internal:
            ch = self.children[i]
            ch = ch[ch >= 0]
            assert self.pt_begin[ch].min() == self.pt_begin[i]
            assert self.pt_end[ch].max() == self.pt_end[i]
            assert np.sum(self.pt_end[ch] - self.pt_begin[ch]) == (
                self.pt_end[i] - self.pt_begin[i]
            )


def pad_class(n):
    """Padded size of a block side holding ``n`` points: the smallest of
    1, 2, 3, 4, 6, 8, 12, 16, 24, ... (``2**k`` and ``3 * 2**(k-1)``, two
    classes per octave) that is ``>= n``; ``n = 0`` pads to 1.

    Every kernel-matrix section sizes its blocks with this one function,
    of a box's own count and nothing else: a box keeps its class whatever
    else is in the batch, the plan or the rank's LET.  The padding is less
    than half of ``n`` again (a power of two wastes up to ``n``).  Scalar
    or array in, int64 of the same shape out.
    """
    n = np.maximum(np.asarray(n, dtype=np.int64), 1)
    p = np.int64(1) << np.frexp(n - 1)[1]  # next power of two, exactly
    return np.where(4 * n <= 3 * p, 3 * p // 4, p)


def leaf_batches(tree: FmmTree, sel: np.ndarray, batch: int = 1024):
    """Yield ``(level, padded_count, node_indices)`` groups of leaves.

    Groups selected leaves by (level, :func:`pad_class` of the point
    count) so evaluator phases can process thousands of small leaves per
    broadcast kernel call; each group is additionally capped at ``batch``
    boxes to bound peak memory.
    """
    idx = np.flatnonzero(sel)
    if idx.size == 0:
        return
    kpad = pad_class(tree.point_counts()[idx])
    code = tree.levels[idx] * np.int64(1 << 24) + kpad
    for c in morton.sorted_unique(code):
        grp = idx[code == c]
        lev = int(tree.levels[grp[0]])
        pad = int(kpad[code == c][0])
        for s in range(0, grp.size, batch):
            yield lev, pad, grp[s : s + batch]


def tree_from_nodes(
    keys: np.ndarray,
    is_leaf: np.ndarray,
    points: np.ndarray,
    point_keys: np.ndarray,
    order: np.ndarray,
) -> FmmTree:
    """Assemble an :class:`FmmTree` over a sorted node set that holds every
    ancestor of its nodes: a solo tree's complete octree, or a rank's LET.

    ``points`` are Morton sorted with keys ``point_keys``; each node's
    point range is its subtree's slice of them.
    """
    levels = morton.level(keys)
    parent = np.searchsorted(keys, morton.parent(keys)).astype(np.int64)
    parent[0] = -1

    # Child position: the 3 interleaved anchor bits at the node's own level.
    shift = np.uint64(morton.LEVEL_BITS) + 3 * (
        morton.MAX_DEPTH - levels
    ).astype(np.uint64)
    child_pos = ((keys >> shift) & np.uint64(7)).astype(np.int64)
    child_pos[0] = 0

    children = np.full((keys.size, 8), -1, dtype=np.int64)
    nz = np.arange(1, keys.size)
    children[parent[nz], child_pos[nz]] = nz

    pt_begin, pt_end = obuild.leaf_point_counts(point_keys, keys)
    return FmmTree(
        keys=keys,
        levels=levels,
        is_leaf=is_leaf,
        parent=parent,
        children=children,
        child_pos=child_pos,
        points=points,
        order=order,
        pt_begin=pt_begin,
        pt_end=pt_end,
        centers=geometry.box_center(keys),
        half_widths=geometry.box_half_width(levels),
    )


def tree_from_leaves(
    leaves: np.ndarray,
    sorted_points: np.ndarray,
    point_keys: np.ndarray,
    order: np.ndarray,
) -> FmmTree:
    """Assemble an :class:`FmmTree` from a complete leaf set and sorted points."""
    leaves = np.asarray(leaves, dtype=np.uint64)
    keys = morton.sorted_unique(leaves, morton.ancestors_of(leaves))
    is_leaf = np.isin(keys, leaves, assume_unique=True)
    return tree_from_nodes(keys, is_leaf, sorted_points, point_keys, order)


def build_tree(
    points: np.ndarray,
    max_points_per_box: int,
    max_depth: int = morton.MAX_DEPTH,
) -> FmmTree:
    """Adaptive tree over the unit cube with at most ``q`` points per leaf."""
    points = np.asarray(points, dtype=np.float64)
    ob = obuild.points_to_octree(points, max_points_per_box, max_depth)
    return tree_from_leaves(ob.leaves, points[ob.order], ob.point_keys, ob.order)


# -- geometry updates ---------------------------------------------------------


@dataclass
class TreeDelta:
    """Structural diff between two trees, consumed by the plan patcher.

    Attributes
    ----------
    old_index:
        Old node index per new node (-1 where the octant did not exist).
    node_clean:
        Per new node: True when the octant existed before with the same
        leaf/internal role and its point slice is bitwise unchanged (same
        coordinates in the same order).  Clean nodes are the reuse
        frontier: every cached kernel-matrix slot whose geometry inputs
        are all clean can be copied instead of recomputed.
    refinement_changed:
        True when the node key sets differ at all.
    n_moved:
        Number of moved points when known (-1 otherwise).
    """

    old_index: np.ndarray
    node_clean: np.ndarray
    refinement_changed: bool
    n_moved: int = -1


def diff_trees(old: FmmTree, new: FmmTree, n_moved: int = -1) -> TreeDelta:
    """Content-based diff: which parts of ``new`` are unchanged from ``old``.

    Works for any pair of trees — the point sets need not match (the
    distributed driver diffs per-rank LET trees whose ghost membership
    shifts).  A leaf is clean iff its octant key survived as a leaf with a
    bitwise-identical point slice; an internal node is clean iff it
    survived as internal with all children clean.  That content criterion
    is exactly what makes per-slot kernel-matrix reuse bit-safe.
    """
    old_index = old.find(new.keys)
    clean = np.zeros(new.n_nodes, dtype=bool)

    new_counts = new.point_counts()
    old_counts = old.point_counts()
    leaves = np.flatnonzero(new.is_leaf)
    oi = old_index[leaves]
    oic = np.clip(oi, 0, old.n_nodes - 1)
    ok = (oi >= 0) & old.is_leaf[oic] & (old_counts[oic] == new_counts[leaves])
    cl, co = leaves[ok], oi[ok]
    cnt = new_counts[cl]
    eq = np.all(old.points[old.point_rows(co)] == new.points[new.point_rows(cl)], axis=1)
    leaf_ok = np.ones(cl.size, dtype=bool)
    nz = cnt > 0
    if eq.size:
        starts = (np.cumsum(cnt) - cnt)[nz]
        leaf_ok[nz] = np.add.reduceat(eq.astype(np.int64), starts) == cnt[nz]
    clean[cl[leaf_ok]] = True

    # Internal cleanliness propagates bottom-up: all 8 children clean and
    # the octant was internal before too (a split/merged node is dirty).
    for lev in range(new.max_level - 1, -1, -1):
        nodes = new.nodes_at_level(lev)
        nodes = nodes[~new.is_leaf[nodes]]
        if nodes.size == 0:
            continue
        oi = old_index[nodes]
        oic = np.clip(oi, 0, old.n_nodes - 1)
        iok = (oi >= 0) & ~old.is_leaf[oic]
        ch = new.children[nodes]
        clean[nodes] = iok & np.all(clean[np.clip(ch, 0, None)] | (ch < 0), axis=1)

    return TreeDelta(
        old_index=old_index,
        node_clean=clean,
        refinement_changed=not np.array_equal(old.keys, new.keys),
        n_moved=n_moved,
    )
