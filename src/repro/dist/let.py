"""Local Essential Tree construction (paper Algorithm 2).

Each rank starts from its owned leaves ``L_k`` plus their ancestors
``B_k = L_k ∪ A(L_k)``.  Octants are then exchanged by the
contributor/user rule: rank ``k`` sends ``β ∈ B_k`` to every rank whose
domain overlaps the (inclusive) colleague region of ``P(β)`` —
``I_kk' = {β ∈ B_k : N(P(β)) ∩ Ω_k' ≠ ∅}``.  Leaf octants travel with
their point coordinates so the receiver can later evaluate U- and X-list
(direct) interactions; densities are exchanged separately at evaluation
time along exactly the same routes.

The received octants (plus locally fabricated ancestors, which need no
communication) are merged with ``B_k`` into the LET; ghost points are
merged into the rank's Morton-sorted point array so the resulting
:class:`FmmTree` serves owned and ghost leaves uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.tree import FmmTree
from repro.dist.geometry import RankGeometry, cell_range
from repro.mpi.comm import SimComm
from repro.util import geometry as ugeom
from repro.util import morton

__all__ = ["LocalEssentialTree", "build_let"]

_TAG_DENS = 7300


@dataclass
class LocalEssentialTree:
    """Per-rank LET: tree + ownership masks + density-exchange routing."""

    tree: FmmTree
    geometry: RankGeometry
    #: Leaves owned by this rank (potentials are computed here).
    owned_leaf: np.ndarray
    #: Nodes overlapping this rank's domain: the scope of S2U/U2U partial
    #: sums and of the local downward pass.
    owned_contrib: np.ndarray
    #: Nodes whose octant holds a point on *some* rank: own and shipped
    #: ghost points, plus every ghost octant its sender reported non-empty.
    #: These are the W-list sources whose upward density can be non-zero.
    nonempty: np.ndarray
    #: Positions of the rank's own points inside the merged point array.
    own_positions: np.ndarray
    #: Per destination rank: node indices of own leaves whose densities
    #: must be shipped before the direct phases (order fixed at setup).
    send_leaves: list[np.ndarray]
    #: Per source rank: node indices of ghost leaves whose densities
    #: arrive, in the sender's order.
    recv_leaves: list[np.ndarray]

    @property
    def n_owned_points(self) -> int:
        return self.own_positions.size

    def scatter_own_densities(self, dens_own: np.ndarray, source_dim: int) -> np.ndarray:
        """Place owned-point densities into a merged-array density vector."""
        merged = np.zeros(self.tree.n_points * source_dim)
        merged.reshape(-1, source_dim)[self.own_positions] = dens_own.reshape(
            -1, source_dim
        )
        return merged

    def gather_own_values(self, merged: np.ndarray, dim: int) -> np.ndarray:
        """Extract owned-point values from a merged-array vector."""
        return merged.reshape(-1, dim)[self.own_positions].reshape(-1)

    def exchange_densities(
        self, comm: SimComm, merged_dens: np.ndarray, source_dim: int
    ) -> None:
        """Fill ghost-leaf density slots via the Algorithm-2 routes.

        The paper's "first communication step ... to communicate the exact
        densities for the direct calculation" (§III-C).
        """
        tree = self.tree
        blocks = []
        for dest in range(comm.size):
            nodes = self.send_leaves[dest]
            if nodes.size == 0:
                blocks.append(np.empty(0))
                continue
            parts = [
                merged_dens[tree.pt_begin[i] * source_dim : tree.pt_end[i] * source_dim]
                for i in nodes
            ]
            blocks.append(np.concatenate(parts) if parts else np.empty(0))
        received = comm.alltoall(blocks)
        for src in range(comm.size):
            nodes = self.recv_leaves[src]
            if nodes.size == 0:
                continue
            buf = received[src]
            pos = 0
            for i in nodes:
                n = (tree.pt_end[i] - tree.pt_begin[i]) * source_dim
                merged_dens[
                    tree.pt_begin[i] * source_dim : tree.pt_end[i] * source_dim
                ] = buf[pos : pos + n]
                pos += n
            assert pos == buf.size, "density exchange length mismatch"


def _let_tree(
    keys: np.ndarray,
    leaf_flags: np.ndarray,
    sorted_points: np.ndarray,
    sorted_point_keys: np.ndarray,
) -> FmmTree:
    """Assemble an :class:`FmmTree` over an explicit (incomplete) node set."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    leaf_flags = leaf_flags[order]
    levels = morton.level(keys)

    parent_keys = morton.parent(keys)
    parent = np.searchsorted(keys, parent_keys).astype(np.int64)
    parent[0] = -1
    # every non-root parent must be present (ancestors were fabricated)
    assert np.all(keys[np.clip(parent[1:], 0, None)] == parent_keys[1:]), (
        "LET is missing ancestors"
    )

    shift = np.uint64(morton.LEVEL_BITS) + 3 * (morton.MAX_DEPTH - levels).astype(
        np.uint64
    )
    child_pos = ((keys >> shift) & np.uint64(7)).astype(np.int64)
    child_pos[0] = 0
    children = np.full((keys.size, 8), -1, dtype=np.int64)
    nz = np.arange(1, keys.size)
    children[parent[nz], child_pos[nz]] = nz

    lo = morton.deepest_first_descendant(keys)
    hi = morton.deepest_last_descendant(keys)
    pt_begin = np.searchsorted(sorted_point_keys, lo, side="left").astype(np.int64)
    pt_end = np.searchsorted(sorted_point_keys, hi, side="right").astype(np.int64)

    return FmmTree(
        keys=keys,
        levels=levels,
        is_leaf=leaf_flags,
        parent=parent,
        children=children,
        child_pos=child_pos,
        points=sorted_points,
        order=np.arange(len(sorted_points)),
        pt_begin=pt_begin,
        pt_end=pt_end,
        centers=ugeom.box_center(keys),
        half_widths=ugeom.box_half_width(levels),
    )


def build_let(
    comm: SimComm,
    geometry: RankGeometry,
    owned_leaves: np.ndarray,
    sorted_points: np.ndarray,
    sorted_point_keys: np.ndarray,
) -> LocalEssentialTree:
    """Algorithm 2: exchange ghost octants and assemble the LET."""
    p, r = comm.size, comm.rank

    own_keys = morton.sorted_unique(owned_leaves, morton.ancestors_of(owned_leaves))
    own_is_leaf = np.isin(own_keys, owned_leaves, assume_unique=True)

    # Point ranges of own leaves in the (pre-merge) own point array.
    lo = morton.deepest_first_descendant(own_keys)
    hi = morton.deepest_last_descendant(own_keys)
    own_begin = np.searchsorted(sorted_point_keys, lo, side="left")
    own_end = np.searchsorted(sorted_point_keys, hi, side="right")

    # I_kk' membership: octant row -> user rank.
    rows, ranks = geometry.user_pairs(own_keys)
    send_specs: list[dict] = []
    send_leaf_keys: list[np.ndarray] = []
    for dest in range(p):
        sel = rows[ranks == dest]
        if dest == r:
            send_specs.append(None)
            send_leaf_keys.append(np.empty(0, dtype=np.uint64))
            continue
        keys_d = own_keys[sel]
        flags_d = own_is_leaf[sel]
        leaf_sel = sel[flags_d]
        pts = (
            np.concatenate(
                [sorted_points[own_begin[i] : own_end[i]] for i in leaf_sel]
            )
            if leaf_sel.size
            else np.empty((0, 3))
        )
        # subtree point counts: all the receiver learns about the points
        # under an internal octant, which stay on this rank
        counts = (own_end - own_begin)[sel]
        send_specs.append(
            {"keys": keys_d, "is_leaf": flags_d, "counts": counts, "points": pts}
        )
        send_leaf_keys.append(own_keys[leaf_sel])
    received = comm.alltoall(send_specs)

    # Merge ghosts into the node set; fabricate missing ancestors locally.
    ghost_keys_parts, ghost_flag_parts = [], []
    ghost_pts_parts, nonempty_parts = [], []
    recv_leaf_keys: list[np.ndarray] = [np.empty(0, dtype=np.uint64)] * p
    for src in range(p):
        msg = received[src]
        if msg is None:
            continue
        ghost_keys_parts.append(msg["keys"])
        ghost_flag_parts.append(msg["is_leaf"])
        leaf_keys = msg["keys"][msg["is_leaf"]]
        recv_leaf_keys[src] = leaf_keys
        nonempty_parts.append(msg["keys"][msg["counts"] > 0])
        if msg["points"].size:
            ghost_pts_parts.append(msg["points"])

    if ghost_keys_parts:
        ghost_keys = np.concatenate(ghost_keys_parts)
        ghost_flags = np.concatenate(ghost_flag_parts)
    else:
        ghost_keys = np.empty(0, dtype=np.uint64)
        ghost_flags = np.empty(0, dtype=bool)

    all_keys = np.concatenate([own_keys, ghost_keys])
    all_flags = np.concatenate([own_is_leaf, ghost_flags])
    uniq = morton.sorted_unique(all_keys)
    flags = np.zeros(uniq.size, dtype=bool)
    # a key is a leaf iff any copy says leaf (owners are authoritative and
    # internal copies agree, but ghosts of own ancestors may arrive too)
    leaf_keys_any = morton.sorted_unique(all_keys[all_flags])
    flags[np.isin(uniq, leaf_keys_any, assume_unique=True)] = True
    anc = morton.ancestors_of(uniq)
    extra = np.setdiff1d(anc, uniq, assume_unique=True)
    let_keys = np.concatenate([uniq, extra])
    let_flags = np.concatenate([flags, np.zeros(extra.size, dtype=bool)])

    # Merge ghost points with own points (Morton order).
    if ghost_pts_parts:
        g_pts = np.concatenate(ghost_pts_parts)
        # point keys of ghost points: encode directly (cheap, exact)
        g_keys = morton.encode_points(g_pts)
        m_keys = np.concatenate([sorted_point_keys, g_keys])
        m_pts = np.concatenate([sorted_points, g_pts])
        order = np.argsort(m_keys, kind="stable")
        m_keys, m_pts = m_keys[order], m_pts[order]
        # positions of the original (owned) points in the merged order
        own_positions = np.argsort(order, kind="stable")[: len(sorted_points)]
    else:
        m_keys, m_pts = sorted_point_keys, sorted_points
        own_positions = np.arange(len(sorted_points))

    tree = _let_tree(let_keys, let_flags, m_pts, m_keys)

    # Ownership masks.
    dom_lo, dom_hi = geometry.bounds[r], geometry.bounds[r + 1]
    n_lo, n_hi = cell_range(tree.keys)
    overlap = (n_lo < dom_hi) & (n_hi > dom_lo)
    owned_leaf = tree.is_leaf & (n_lo >= dom_lo) & (n_hi <= dom_hi)
    owned_contrib = overlap
    # merged counts cover own points and shipped ghost leaves (ancestors
    # included: a count is a subtree's); the senders' reports add the ghost
    # octants whose points were not shipped, and those octants' ancestors
    nonempty = tree.point_counts() > 0
    if nonempty_parts:
        reported = np.concatenate(nonempty_parts)
        nonempty[tree.find(morton.ancestors_of(reported, include_self=True))] = True

    # Density-exchange routing in tree-node indices.
    send_leaves = [tree.find(k) for k in send_leaf_keys]
    recv_leaves = [tree.find(k) for k in recv_leaf_keys]
    for arr in (*send_leaves, *recv_leaves):
        assert np.all(arr >= 0), "exchange leaf missing from LET"

    return LocalEssentialTree(
        tree=tree,
        geometry=geometry,
        owned_leaf=owned_leaf,
        owned_contrib=owned_contrib,
        nonempty=nonempty,
        own_positions=own_positions,
        send_leaves=send_leaves,
        recv_leaves=recv_leaves,
    )
