"""Construction of the FMM interaction lists (U, V, W, X).

Definitions (paper Table I), for octants of a complete adaptive tree:

* ``U(B)`` — leaves only: all leaves adjacent to leaf ``B``, including
  ``B`` itself.  Direct (exact) interactions.
* ``V(B)`` — all octants: children of the colleagues of ``P(B)`` that are
  not adjacent to ``B``.  Multipole-to-local translations.
* ``W(B)`` — leaves only: descendants ``A`` of colleagues of ``B`` with
  ``P(A)`` adjacent to ``B`` but ``A`` itself not adjacent (``A`` need not
  be a leaf).  Source-box multipole evaluated directly at ``B``'s targets.
* ``X(B)`` — all octants: the duals of W — leaves ``A`` with
  ``B ∈ W(A)``.  ``A``'s sources evaluated onto ``B``'s downward check
  surface.

The paper relies on the symmetry of U/V and of W∪X to prove LET
correctness; `tests/test_lists.py` checks those symmetries directly.

Everything here is built from vectorised passes over the sorted key array:
colleague resolution is a batched neighbour lookup, V a batched
gather+adjacency filter, U/W a breadth-first frontier over (leaf, node)
pairs, and X a direct formula (leaves adjacent to the parent but not to
the node itself, at coarser-or-parent level).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.tree import FmmTree, TreeDelta, concat_ranges
from repro.octree import linear
from repro.util import morton

__all__ = [
    "CsrList",
    "InteractionLists",
    "ListInvariantError",
    "build_lists",
    "check_lists",
    "evaluated_lists",
    "update_lists",
]


@dataclass
class CsrList:
    """Compressed adjacency: ``indices[offsets[i]:offsets[i+1]]`` per node."""

    offsets: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_pairs(cls, rows: np.ndarray, cols: np.ndarray, n: int) -> "CsrList":
        """Build from (row, col) pair arrays; sorts and de-duplicates."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size:
            code = morton.sorted_unique(rows * np.int64(n) + cols)
            rows = code // n
            cols = code % n
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
        return cls(offsets, cols)

    def of(self, i: int) -> np.ndarray:
        return self.indices[self.offsets[i] : self.offsets[i + 1]]

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def total(self) -> int:
        return int(self.indices.size)

    def pairs(self, scope: np.ndarray | None = None):
        """``(rows, cols)`` of every entry, row-major; ``scope`` (bool mask
        over rows) keeps the entries of in-scope rows."""
        rows = np.repeat(np.arange(self.offsets.size - 1), self.counts)
        if scope is None:
            return rows, self.indices
        keep = scope[rows]
        return rows[keep], self.indices[keep]

    def invert(self, n: int | None = None) -> "CsrList":
        """Transpose of the adjacency (``j in inv.of(i)`` iff ``i in of(j)``)."""
        n = self.offsets.size - 1 if n is None else n
        return CsrList.from_pairs(self.indices, self.pairs()[0], n)


@dataclass
class InteractionLists:
    """The four FMM lists plus the colleague table, all as :class:`CsrList`."""

    u: CsrList
    v: CsrList
    w: CsrList
    x: CsrList
    colleagues: CsrList

    def work_summary(self) -> dict[str, int]:
        return {
            "u_pairs": self.u.total(),
            "v_pairs": self.v.total(),
            "w_pairs": self.w.total(),
            "x_pairs": self.x.total(),
        }


class ListInvariantError(ValueError):
    """An interaction list breaks one of the Table I symmetries;
    ``list_name`` and ``pair`` name the list and its first offending
    ``(node, member)`` entry."""

    def __init__(self, list_name: str, pair: tuple[int, int], why: str):
        super().__init__(f"{list_name}-list invariant broken at {pair}: {why}")
        self.list_name, self.pair = list_name, pair


def check_lists(tree: FmmTree, lists: InteractionLists) -> None:
    """Raise :class:`ListInvariantError` unless U and V are symmetric, W
    and X are transposes of each other and only leaves have a W-list.

    These are the facts the paper's LET proof rests on, and W = Xᵀ is
    what lets a plan hold each (far box, leaf) kernel block once for
    both lists; they hold on solo trees and on per-rank LETs alike.  A
    checker for tests and fuzzers: nothing in the library calls it.
    """
    n = np.int64(tree.n_nodes)
    for name, a, b, why in (
        ("U", lists.u, lists.u, "member's own U-list lacks the node"),
        ("V", lists.v, lists.v, "member's own V-list lacks the node"),
        ("W", lists.w, lists.x, "A in W(B) without B in X(A)"),
        ("X", lists.x, lists.w, "A in X(B) without B in W(A)"),
    ):
        rows, cols = a.pairs()
        back_rows, back_cols = b.invert().pairs()
        lost = ~np.isin(rows * n + cols, back_rows * n + back_cols)
        if lost.any():
            j = int(np.argmax(lost))
            raise ListInvariantError(name, (int(rows[j]), int(cols[j])), why)
    rows, cols = lists.w.pairs()
    inner = ~tree.is_leaf[rows]
    if inner.any():
        j = int(np.argmax(inner))
        raise ListInvariantError(
            "W", (int(rows[j]), int(cols[j])), "the node is not a leaf"
        )


def _colleague_table(
    tree: FmmTree, chunk: int = 16384, nodes: np.ndarray | None = None
) -> np.ndarray:
    """(n_nodes, 26) node indices of same-level adjacent octants (-1 absent).

    With ``nodes`` given, only those rows are resolved (the rest stay -1)
    — the localized list rebuild needs colleague rows only for the dirty
    neighbourhood.
    """
    n = tree.n_nodes
    out = np.full((n, 26), -1, dtype=np.int64)
    idx = np.arange(n) if nodes is None else np.asarray(nodes, dtype=np.int64)
    for s in range(0, idx.size, chunk):
        sel = idx[s : s + chunk]
        ids, valid = morton.neighbors(tree.keys[sel])
        found = tree.find(ids.ravel()).reshape(ids.shape)
        out[sel] = np.where(valid, found, -1)
    return out


def _build_v(
    tree: FmmTree,
    coll: np.ndarray,
    chunk: int = 8192,
    nodes: np.ndarray | None = None,
):
    """V-list pairs: children of parent's colleagues, not adjacent."""
    rows_parts, cols_parts = [], []
    if nodes is None:
        cand_nodes = np.flatnonzero(tree.levels >= 2)
    else:
        nodes = np.asarray(nodes, dtype=np.int64)
        cand_nodes = nodes[tree.levels[nodes] >= 2]
    for s in range(0, cand_nodes.size, chunk):
        nodes = cand_nodes[s : s + chunk]
        pc = coll[tree.parent[nodes]]  # (m, 26)
        kids = np.where(pc[..., None] >= 0, tree.children[pc.clip(0)], -1)
        kids = kids.reshape(len(nodes), -1)  # (m, 208)
        ok = kids >= 0
        bkeys = np.broadcast_to(tree.keys[nodes][:, None], kids.shape)
        adj = np.zeros_like(ok)
        adj[ok] = morton.adjacent(bkeys[ok], tree.keys[kids[ok]])
        take = ok & ~adj
        rows_parts.append(np.broadcast_to(nodes[:, None], kids.shape)[take])
        cols_parts.append(kids[take])
    rows = np.concatenate(rows_parts) if rows_parts else np.empty(0, np.int64)
    cols = np.concatenate(cols_parts) if cols_parts else np.empty(0, np.int64)
    return rows, cols


def _adjacent_candidates(tree: FmmTree, nodes: np.ndarray):
    """For each node: same-level neighbour resolution.

    Returns (pair_node, pair_cand_node, pair_is_exact) where missing
    neighbours are replaced by the coarser leaf covering their region
    (``pair_is_exact`` False).  All returned candidates touch the node.
    """
    leaf_idx = tree.leaf_indices
    leaf_keys = tree.keys[leaf_idx]
    ids, valid = morton.neighbors(tree.keys[nodes])
    found = tree.find(ids.ravel()).reshape(ids.shape)
    rows = np.broadcast_to(nodes[:, None], ids.shape)

    exact = valid & (found >= 0)
    missing = valid & (found < 0)
    # Missing neighbours are strictly inside a coarser leaf.
    cover_rows = rows[missing]
    cover = linear.covering_leaf_indices(leaf_keys, ids[missing])
    okc = cover >= 0
    return (
        rows[exact],
        found[exact],
        cover_rows[okc],
        leaf_idx[cover[okc]],
    )


def _build_u_w(tree: FmmTree, leaves: np.ndarray | None = None):
    """U and W pairs via a frontier sweep from each leaf's colleagues."""
    leaves = tree.leaf_indices if leaves is None else np.asarray(leaves, np.int64)
    en_rows, en_nodes, cv_rows, cv_leaves = _adjacent_candidates(tree, leaves)

    u_rows = [leaves, cv_rows]  # self + coarser adjacent leaves
    u_cols = [leaves, cv_leaves]
    w_rows, w_cols = [], []

    is_leaf = tree.is_leaf
    lf = is_leaf[en_nodes]
    u_rows.append(en_rows[lf])
    u_cols.append(en_nodes[lf])

    fr_rows = en_rows[~lf]
    fr_nodes = en_nodes[~lf]
    while fr_rows.size:
        kids = tree.children[fr_nodes]  # (m, 8)
        ok = kids >= 0
        rows8 = np.broadcast_to(fr_rows[:, None], kids.shape)
        adj = np.zeros_like(ok)
        adj[ok] = morton.adjacent(tree.keys[rows8[ok]], tree.keys[kids[ok]])
        far = ok & ~adj
        w_rows.append(rows8[far])
        w_cols.append(kids[far])
        near = ok & adj
        near_rows = rows8[near]
        near_nodes = kids[near]
        nl = is_leaf[near_nodes]
        u_rows.append(near_rows[nl])
        u_cols.append(near_nodes[nl])
        fr_rows = near_rows[~nl]
        fr_nodes = near_nodes[~nl]

    return (
        np.concatenate(u_rows),
        np.concatenate(u_cols),
        np.concatenate(w_rows) if w_rows else np.empty(0, np.int64),
        np.concatenate(w_cols) if w_cols else np.empty(0, np.int64),
    )


def _build_x(tree: FmmTree, nodes: np.ndarray | None = None):
    """X pairs: leaves adjacent to the parent but not to the node itself."""
    if nodes is None:
        nodes = np.flatnonzero(tree.levels >= 1)
    else:
        nodes = np.asarray(nodes, dtype=np.int64)
        nodes = nodes[tree.levels[nodes] >= 1]
    if nodes.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    parents = tree.parent[nodes]
    uniq_parents, inv = np.unique(parents, return_inverse=True)
    en_rows, en_nodes, cv_rows, cv_leaves = _adjacent_candidates(tree, uniq_parents)
    lf = tree.is_leaf[en_nodes]
    # Per unique parent: candidate leaves (same level as parent, or coarser).
    cand_rows = np.concatenate([en_rows[lf], cv_rows])
    cand_leaves = np.concatenate([en_nodes[lf], cv_leaves])
    # Expand back to children: every node whose parent is cand_rows[k].
    order = np.argsort(cand_rows, kind="stable")
    cand_rows = cand_rows[order]
    cand_leaves = cand_leaves[order]
    # each node takes its parent's run of candidates
    counts = np.bincount(np.searchsorted(uniq_parents, cand_rows), minlength=uniq_parents.size)
    node_counts = counts[inv]
    rows_rep = np.repeat(nodes, node_counts)
    cols_rep = cand_leaves[concat_ranges((np.cumsum(counts) - counts)[inv], node_counts)]
    keep = ~morton.adjacent(tree.keys[rows_rep], tree.keys[cols_rep])
    return rows_rep[keep], cols_rep[keep]


def build_lists(tree: FmmTree) -> InteractionLists:
    """Build all four interaction lists for every node of the tree."""
    n = tree.n_nodes
    coll = _colleague_table(tree)
    v_rows, v_cols = _build_v(tree, coll)
    u_rows, u_cols, w_rows, w_cols = _build_u_w(tree)
    x_rows, x_cols = _build_x(tree)

    coll_rows = np.repeat(np.arange(n), (coll >= 0).sum(axis=1))
    coll_cols = coll[coll >= 0]
    return InteractionLists(
        u=CsrList.from_pairs(u_rows, u_cols, n),
        v=CsrList.from_pairs(v_rows, v_cols, n),
        w=CsrList.from_pairs(w_rows, w_cols, n),
        x=CsrList.from_pairs(x_rows, x_cols, n),
        colleagues=CsrList.from_pairs(coll_rows, coll_cols, n),
    )


def evaluated_lists(tree: FmmTree, lists: InteractionLists, ns: int) -> InteractionLists:
    """The lists as an evaluation runs them: ``U ∪ D``, ``V``, ``W \\ D``
    and ``X \\ D``.

    ``D`` holds the W pairs (leaf B <- far box A) whose far box is a leaf
    holding ``0 < n_A < ns`` points in ``tree`` — fewer than its
    equivalent surface — and their X duals (A <- B): such a pair costs
    less point to point than through A's ``ns`` surface values, and is
    exact.  On a LET the counts are the rank's own, so a ghost W source
    whose points this rank does not hold stays a W pair.  ``lists`` (the
    paper's Table I lists) is returned as is when ``D`` is empty.
    """
    counts = tree.point_counts()
    small = tree.is_leaf & (counts > 0) & (counts < ns)
    (wr, wc), (xr, xc) = lists.w.pairs(), lists.x.pairs()
    dw, dx = small[wc], small[xr]
    if not (dw.any() or dx.any()):
        return lists
    n = tree.n_nodes
    ur, uc = lists.u.pairs()
    return InteractionLists(
        u=CsrList.from_pairs(np.concatenate([ur, wr[dw], xr[dx]]),
                             np.concatenate([uc, wc[dw], xc[dx]]), n),
        v=lists.v,
        w=CsrList.from_pairs(wr[~dw], wc[~dw], n),
        x=CsrList.from_pairs(xr[~dx], xc[~dx], n),
        colleagues=lists.colleagues,
    )


# -- incremental updates ------------------------------------------------------

#: Above this (node x root) product, or this affected fraction, a full
#: rebuild is cheaper than the localized merge.
_AFFECT_PAIR_LIMIT = 50_000_000
_AFFECT_FRACTION_LIMIT = 0.5


def _affected_nodes(tree: FmmTree, roots: np.ndarray) -> np.ndarray | None:
    """Nodes whose interaction lists may differ after rebuilding ``roots``.

    Every member of U(B)/V(B)/W(B)/X(B)/colleagues(B) lives inside the
    closure of the 3x-expanded box of ``P(B)`` (the parent's colleague
    shell; W members reach at most ``side(B)`` past B's faces, which that
    shell contains).  A list can therefore only change when some rebuilt
    subtree's box intersects that shell — an integer interval-overlap
    test per axis, like :func:`repro.util.morton.closures_touch`.
    Returns None when the candidate product is too large to test cheaply.
    """
    n = tree.n_nodes
    if int(roots.size) * n > _AFFECT_PAIR_LIMIT:
        return None
    pk = tree.keys[tree.parent]
    pk[0] = tree.keys[0]  # the root's shell is its own expanded box
    ax, ay, az = (c.astype(np.int64) for c in morton.anchor(pk))
    s = morton.box_side_int(morton.level(pk)).astype(np.int64)
    rx, ry, rz = (c.astype(np.int64) for c in morton.anchor(roots))
    rs = morton.box_side_int(morton.level(roots)).astype(np.int64)
    touch = np.ones((n, roots.size), dtype=bool)
    for c, rc in ((ax, rx), (ay, ry), (az, rz)):
        c = c[:, None]
        rc = rc[None, :]
        touch &= (rc <= c + 2 * s[:, None]) & (c - s[:, None] <= rc + rs[None, :])
    return touch.any(axis=1)


class _ListReuseError(Exception):
    """A reused row referenced a vanished node — fall back to full build."""


def update_lists(
    new_tree: FmmTree,
    old_tree: FmmTree,
    old_lists: InteractionLists,
    delta: TreeDelta,
) -> InteractionLists:
    """Interaction lists for ``new_tree``, reusing rows from ``old_lists``.

    The lists depend only on the octant key set, so when the refinement
    did not change the old lists are returned as-is (node indices are
    identical).  Otherwise only nodes whose interaction neighbourhood
    intersects a rebuilt subtree get fresh rows; every other row is the
    old row with node indices remapped.  Identical to
    ``build_lists(new_tree)`` in all cases.
    """
    if not delta.refinement_changed or delta.changed_roots.size == 0:
        return old_lists
    n = new_tree.n_nodes
    affected = _affected_nodes(new_tree, delta.changed_roots)
    if affected is None or affected.mean() > _AFFECT_FRACTION_LIMIT:
        return build_lists(new_tree)
    un = np.flatnonzero(~affected)
    if np.any(delta.old_index[un] < 0):
        return build_lists(new_tree)

    aff = np.flatnonzero(affected)
    need_coll = morton.sorted_unique(aff, new_tree.parent[aff].clip(0))
    coll = _colleague_table(new_tree, nodes=need_coll)
    v_rows, v_cols = _build_v(new_tree, coll, nodes=aff)
    u_rows, u_cols, w_rows, w_cols = _build_u_w(
        new_tree, leaves=aff[new_tree.is_leaf[aff]]
    )
    x_rows, x_cols = _build_x(new_tree, nodes=aff)
    coll_aff = coll[aff]
    coll_rows = np.repeat(aff, (coll_aff >= 0).sum(axis=1))
    coll_cols = coll_aff[coll_aff >= 0]

    old_to_new = new_tree.find(old_tree.keys)
    old_of_un = delta.old_index[un]

    def merged(old_csr: CsrList, fresh_r, fresh_c) -> CsrList:
        cnts = old_csr.counts[old_of_un]
        rows = np.repeat(un, cnts)
        cols_old = old_csr.indices[concat_ranges(old_csr.offsets[old_of_un], cnts)]
        cols = old_to_new[cols_old]
        if cols.size and cols.min() < 0:
            raise _ListReuseError
        return CsrList.from_pairs(
            np.concatenate([np.asarray(fresh_r, np.int64), rows]),
            np.concatenate([np.asarray(fresh_c, np.int64), cols]),
            n,
        )

    try:
        return InteractionLists(
            u=merged(old_lists.u, u_rows, u_cols),
            v=merged(old_lists.v, v_rows, v_cols),
            w=merged(old_lists.w, w_rows, w_cols),
            x=merged(old_lists.x, x_rows, x_cols),
            colleagues=merged(old_lists.colleagues, coll_rows, coll_cols),
        )
    except _ListReuseError:  # pragma: no cover - conservative safety net
        return build_lists(new_tree)
