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
:class:`FmmTree` serves owned and ghost leaves uniformly.  The solo
tree's assembler (:func:`repro.core.tree.tree_from_nodes`) builds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.tree import FmmTree, concat_ranges, tree_from_nodes
from repro.dist.geometry import RankGeometry, cell_range
from repro.mpi.comm import SimComm
from repro.octree.build import leaf_point_counts
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
        dens = merged_dens.reshape(-1, source_dim)  # a view of the flat vector
        received = comm.alltoall(
            [dens[self.tree.point_rows(nodes)].reshape(-1) for nodes in self.send_leaves]
        )
        for nodes, buf in zip(self.recv_leaves, received):
            rows = self.tree.point_rows(nodes)
            assert buf.size == rows.size * source_dim, "density exchange length mismatch"
            dens[rows] = buf.reshape(-1, source_dim)


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

    # Subtree point ranges of own octants in the (pre-merge) own point array.
    own_begin, own_end = leaf_point_counts(sorted_point_keys, own_keys)
    own_counts = own_end - own_begin

    # I_kk' membership: octant row -> user rank.
    rows, ranks = geometry.user_pairs(own_keys)
    send_specs: list[dict | None] = []
    send_leaf_keys: list[np.ndarray] = []
    for dest in range(p):
        if dest == r:
            send_specs.append(None)
            send_leaf_keys.append(np.empty(0, dtype=np.uint64))
            continue
        sel = rows[ranks == dest]
        leaf_sel = sel[own_is_leaf[sel]]
        # subtree point counts: all the receiver learns about the points
        # under an internal octant, which stay on this rank
        send_specs.append({
            "keys": own_keys[sel],
            "is_leaf": own_is_leaf[sel],
            "counts": own_counts[sel],
            "points": sorted_points[concat_ranges(own_begin[leaf_sel], own_counts[leaf_sel])],
        })
        send_leaf_keys.append(own_keys[leaf_sel])
    received = comm.alltoall(send_specs)

    # Merge ghosts into the node set; fabricate missing ancestors locally.
    msgs = [msg for msg in received if msg is not None]
    recv_leaf_keys = [
        np.empty(0, dtype=np.uint64) if msg is None else msg["keys"][msg["is_leaf"]]
        for msg in received
    ]
    all_keys = np.concatenate([own_keys] + [msg["keys"] for msg in msgs])
    all_flags = np.concatenate([own_is_leaf] + [msg["is_leaf"] for msg in msgs])
    let_keys = morton.ancestors_of(all_keys, include_self=True)
    # a key is a leaf iff any copy says leaf (owners are authoritative and
    # internal copies agree, but ghosts of own ancestors may arrive too)
    let_is_leaf = np.isin(let_keys, morton.sorted_unique(all_keys[all_flags]),
                          assume_unique=True)

    # Merge ghost points with own points (Morton order).
    g_pts = np.concatenate([np.empty((0, 3))] + [msg["points"] for msg in msgs])
    if g_pts.size:
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

    tree = tree_from_nodes(let_keys, let_is_leaf, m_pts, m_keys, np.arange(len(m_pts)))

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
    if msgs:
        reported = np.concatenate([msg["keys"][msg["counts"] > 0] for msg in msgs])
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
