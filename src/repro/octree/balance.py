"""2:1 balance refinement of complete linear octrees.

The paper's FMM does *not* require a balanced tree (its U/V/W/X lists
handle arbitrary level jumps, and the Kraken runs span 20+ levels), but the
DENDRO substrate the paper builds on provides balancing and downstream
users frequently want it, so we reproduce the ripple-propagation balance as
an optional post-pass on a complete leaf array.

A complete linear octree is 2:1 balanced when, for every leaf, every
same-level neighbour region is covered by leaves no more than one level
coarser.
"""

from __future__ import annotations

import numpy as np

from repro.util import morton
from repro.octree import linear

__all__ = ["balance_2to1", "is_2to1_balanced"]


def _violations(leaves: np.ndarray) -> np.ndarray:
    """Indices of leaves that are too coarse next to some finer leaf.

    A leaf ``c`` violates balance when a leaf more than one level finer is
    adjacent to it; equivalently, when some leaf's *parent's* same-level
    neighbour candidate lies strictly inside ``c`` at a finer level than
    ``c``'s own.
    """
    fine = leaves[morton.level(leaves) > 1]
    if fine.size == 0:
        return np.empty(0, dtype=np.int64)
    parents = morton.sorted_unique(morton.parent(fine))
    ids, valid = morton.neighbors(parents)
    required = morton.sorted_unique(ids[valid])
    cover = linear.covering_leaf_indices(leaves, required)
    ok = cover >= 0
    too_coarse = ok & (morton.level(leaves[np.clip(cover, 0, None)]) < morton.level(required))
    return morton.sorted_unique(cover[too_coarse])


def balance_2to1(
    leaves: np.ndarray, max_rounds: int = morton.MAX_DEPTH + 1
) -> np.ndarray:
    """2:1-balanced refinement of a complete linear octree.

    Each round splits every leaf that is more than one level coarser than
    an adjacent leaf; splitting can create new violations one level up
    (the "ripple"), so rounds repeat until a fixed point — at most
    ``MAX_DEPTH`` rounds since minimum leaf level rises monotonically.
    """
    leaves = np.asarray(leaves, dtype=np.uint64)
    if not linear.is_complete(leaves):
        raise ValueError("balance_2to1 expects a complete linear octree")
    for _ in range(max_rounds):
        bad = _violations(leaves)
        if bad.size == 0:
            return leaves
        keep = np.ones(leaves.size, dtype=bool)
        keep[bad] = False
        kids = morton.children(leaves[bad]).ravel()
        leaves = np.sort(np.concatenate([leaves[keep], kids]))
    raise RuntimeError("2:1 balance did not converge")  # pragma: no cover


def is_2to1_balanced(leaves: np.ndarray) -> bool:
    """Check that every leaf's neighbourhood is within one level of it."""
    leaves = np.asarray(leaves, dtype=np.uint64)
    fine = leaves[morton.level(leaves) > 1]
    if fine.size == 0:
        return True
    ids, valid = morton.neighbors(fine)
    levels = np.broadcast_to(morton.level(fine)[:, None], ids.shape)
    flat_ids = ids[valid]
    flat_lev = levels[valid]
    cover = linear.covering_leaf_indices(leaves, flat_ids)
    ok = cover >= 0
    neighbor_levels = morton.level(leaves[np.clip(cover, 0, None)])
    return not np.any(ok & (flat_lev - neighbor_levels > 1))
