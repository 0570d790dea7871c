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

Everything is built from fixed tables over child positions and colleague
directions, with no Morton encode or decode at all:

* the *neighbourhood* (:func:`_neighbourhood`) is filled top-down, one
  gather per level: the neighbour in direction ``d`` of child ``c`` of
  ``P`` is child ``c'`` of ``P`` or of ``P``'s neighbour in direction
  ``e``, a fixed ``(8, 26)`` table ``(c, d) -> (e, c')``.  Where that
  child is missing the entry keeps the parent's, so it names the
  colleague when there is one, else the coarser node holding its box
  (U's coarser adjacent leaves).  A LET holds every ancestor of its
  octants, so this runs on a LET as on a solo tree;
* V is a table lookup: a candidate is child ``cs`` of the parent's
  colleague in direction ``d``, and it is adjacent to the node (child
  ``ct``) exactly where :data:`V_SLOT` ``[d, cs, ct]`` is the zero slot —
  the table that also indexes the FFT M2L's offset table;
* U and W sweep down from each leaf's colleagues: a box that touches the
  leaf from direction ``d`` has a child ``c`` that still touches it
  exactly where :data:`_FACING` ``[d, c]`` holds, so the frontier
  carries its direction and tests no geometry;
* X is W transposed — its definition.

The tests hold every list to the literal Table I definitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.tree import FmmTree

__all__ = [
    "COLLEAGUE_DIRS",
    "CsrList",
    "InteractionLists",
    "ListInvariantError",
    "build_lists",
    "check_lists",
    "evaluated_lists",
    "V_OFFSETS",
    "V_SLOT",
]


@dataclass
class CsrList:
    """Compressed adjacency: ``indices[offsets[i]:offsets[i+1]]`` per node."""

    offsets: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_pairs(cls, rows: np.ndarray, cols: np.ndarray, n: int) -> "CsrList":
        """Build from (row, col) pair arrays; sorts and de-duplicates."""
        code = np.asarray(rows, dtype=np.int64) * np.int64(n) + np.asarray(cols, dtype=np.int64)
        code.sort()
        if code.size:
            code = code[np.concatenate(([True], code[1:] != code[:-1]))]
        offsets = np.searchsorted(code, np.arange(n + 1, dtype=np.int64) * n)
        return cls(offsets, code % n)

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


#: The 26 colleague directions (colleague minus node, in the node's
#: sides), x-major: the columns of the colleague table, and the FFT M2L's
#: source-parent directions.  With the node itself (0, 0, 0) at entry 13
#: they are a node's 27-box neighbourhood.
_NBHD = np.array(
    [(x, y, z) for x in (-1, 0, 1) for y in (-1, 0, 1) for z in (-1, 0, 1)], dtype=np.int64
)
_SELF = 13
_DIRS27 = np.delete(np.arange(27), _SELF)  # neighbourhood column of direction d
COLLEAGUE_DIRS = _NBHD[_DIRS27]

#: The 316 V offsets ``(c_target - c_source) / side``: infinity-norm 2 or 3.
V_OFFSETS = np.array(
    [(x, y, z) for x in range(-3, 4) for y in range(-3, 4) for z in range(-3, 4)
     if max(abs(x), abs(y), abs(z)) > 1],
    dtype=np.int64,
)

#: Child positions (Morton: bit 2 = x, bit 1 = y, bit 0 = z) as ``(8, 3)`` bits.
_CHILD_BITS = (np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1


def _v_slot() -> np.ndarray:
    """``(26, 8, 8)``: (colleague direction of the source parent, source
    child, target child) -> index into :data:`V_OFFSETS`, or
    ``len(V_OFFSETS)`` where the two children are adjacent."""
    c = _CHILD_BITS
    off = c[None, None, :, :] - c[None, :, None, :] - 2 * COLLEAGUE_DIRS[:, None, None, :]
    slot_of = np.full(343, len(V_OFFSETS), dtype=np.int64)
    slot_of[(V_OFFSETS + 3) @ (49, 7, 1)] = np.arange(len(V_OFFSETS))
    return slot_of[(off + 3) @ (49, 7, 1)]


#: Where a V pair sits: the V-list's membership test and the FFT M2L's
#: offset-table index are this one table.
V_SLOT = _v_slot()

#: (target child, direction, source child) -> the pair is in V.
_IN_V = (V_SLOT != len(V_OFFSETS)).transpose(2, 0, 1)

#: (direction, child) -> child ``c`` of a box that touches a node from
#: colleague direction ``d`` (lies on the node's side ``d``) still touches
#: it: per axis ``d = 0``, or the child's bit faces the node.
_FACING = (
    (COLLEAGUE_DIRS[:, None, :] == 0) | (_CHILD_BITS[None] == (COLLEAGUE_DIRS[:, None, :] < 0))
).all(axis=2)

# The neighbour in direction d of child c of P is child _DOWN_KID[c, d] of
# P's neighbourhood entry _DOWN_UP[c, d]: per axis c + d in {-1, .., 2}
# splits into a parent step (c + d) >> 1 and a child bit (c + d) & 1.
_t = _CHILD_BITS[:, None, :] + COLLEAGUE_DIRS[None, :, :]
_DOWN_UP = ((_t >> 1) + 1) @ np.array([9, 3, 1])
_DOWN_KID = (_t & 1) @ np.array([4, 2, 1])
del _t


def _neighbourhood(tree: FmmTree) -> np.ndarray:
    """``(n_nodes, 27)``: per node and :data:`_NBHD` displacement, the
    deepest node whose box holds the same-level box there (the colleague
    itself when it exists), or -1 outside the cube or the tree.

    Built top-down, one gather per level: a node's entry is a child of
    its parent's entry (:data:`_DOWN_UP`, :data:`_DOWN_KID`) when that is
    the parent's same-level neighbour and has the child, else the
    parent's entry itself.  Needs every ancestor of every node, which a
    solo tree and a LET both hold.
    """
    n = tree.n_nodes
    near = np.full((n, 27), -1, dtype=np.int64)
    near[:, _SELF] = np.arange(n)
    for lev in range(1, tree.max_level + 1):
        nodes = tree.nodes_at_level(lev)
        cp = tree.child_pos[nodes]
        up = near[tree.parent[nodes][:, None], _DOWN_UP[cp]]  # (m, 26)
        exact = (up >= 0) & (tree.levels[up] == lev - 1)
        kid = np.where(exact, tree.children[up, _DOWN_KID[cp]], -1)
        near[nodes[:, None], _DIRS27] = np.where(kid >= 0, kid, up)
    return near


def _colleagues(tree: FmmTree, near: np.ndarray) -> np.ndarray:
    """(n_nodes, 26) node indices of same-level adjacent octants (-1 absent)."""
    nb = near[:, _DIRS27]
    same = (nb >= 0) & (tree.levels[nb] == tree.levels[:, None])
    return np.where(same, nb, -1)


def _build_v(tree: FmmTree, coll: np.ndarray, chunk: int = 1024):
    """V pairs: the children of the parent's colleagues that
    :data:`V_SLOT` does not mark adjacent to the node's child position,
    gathered per parent, whose children share one ``(26, 8)`` candidate
    block."""
    parents = np.flatnonzero(~tree.is_leaf & (tree.levels >= 1))
    rows_parts, cols_parts = [], []
    for s in range(0, parents.size, chunk):
        par = parents[s : s + chunk]
        tgt = tree.children[par]  # (m, 8)
        pc = coll[par]  # (m, 26)
        src = tree.children[pc]  # (m, 26, 8)
        ok = (pc >= 0)[..., None] & (src >= 0)
        take = (tgt >= 0)[:, :, None, None] & ok[:, None] & _IN_V  # (m, 8, 26, 8)
        rows_parts.append(np.broadcast_to(tgt[:, :, None, None], take.shape)[take])
        cols_parts.append(np.broadcast_to(src[:, None], take.shape)[take])
    return _cat(rows_parts), _cat(cols_parts)


def _cat(parts) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, np.int64)


def _build_u_w(tree: FmmTree, near: np.ndarray):
    """U and W pairs via a frontier sweep down from each leaf's
    colleagues.  A frontier node touches the leaf from the
    colleague's direction ``d``, and its child ``c`` still does exactly
    where :data:`_FACING` ``[d, c]``."""
    is_leaf, levels, leaves = tree.is_leaf, tree.levels, tree.leaf_indices
    nb = near[leaves][:, _DIRS27]  # (m, 26)
    rows = np.broadcast_to(leaves[:, None], nb.shape)
    dirs = np.broadcast_to(np.arange(26), nb.shape)
    found = nb >= 0
    exact = found & (levels[nb] == levels[rows])
    cover = found & ~exact & is_leaf[nb]  # a coarser leaf holds the missing colleague
    fr_rows, fr_nodes, fr_dirs = rows[exact], nb[exact], dirs[exact]
    u_rows, u_cols = [leaves, rows[cover]], [leaves, nb[cover]]
    w_rows, w_cols = [], []
    while fr_rows.size:
        lf = is_leaf[fr_nodes]
        u_rows.append(fr_rows[lf])
        u_cols.append(fr_nodes[lf])
        fr_rows, fr_nodes, fr_dirs = fr_rows[~lf], fr_nodes[~lf], fr_dirs[~lf]
        kids = tree.children[fr_nodes]  # (m, 8)
        ok = kids >= 0
        facing = _FACING[fr_dirs]
        far, go = ok & ~facing, ok & facing
        r, d = np.broadcast_to(fr_rows[:, None], kids.shape), np.broadcast_to(fr_dirs[:, None], kids.shape)
        w_rows.append(r[far])
        w_cols.append(kids[far])
        fr_rows, fr_nodes, fr_dirs = r[go], kids[go], d[go]
    return _cat(u_rows), _cat(u_cols), _cat(w_rows), _cat(w_cols)


def build_lists(tree: FmmTree) -> InteractionLists:
    """Build all four interaction lists for every node of the tree."""
    n = tree.n_nodes
    near = _neighbourhood(tree)
    coll = _colleagues(tree, near)
    u_rows, u_cols, w_rows, w_cols = _build_u_w(tree, near)
    w = CsrList.from_pairs(w_rows, w_cols, n)
    known = coll >= 0
    return InteractionLists(
        u=CsrList.from_pairs(u_rows, u_cols, n),
        v=CsrList.from_pairs(*_build_v(tree, coll), n),
        w=w,
        x=w.invert(),  # X is W's dual (Table I)
        colleagues=CsrList.from_pairs(np.nonzero(known)[0], coll[known], n),
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
