"""Adaptive octree construction from point sets (``Points2Octree``).

The tree is refined top-down: an octant containing more than ``q`` points
(the paper's maximum points-per-box parameter) is split into its 8 children
until every leaf holds at most ``q`` points or ``max_depth`` is reached.
Empty children are kept, so the resulting leaf set is a *complete* linear
octree — matching what the paper's DENDRO substrate produces.

Everything operates on the sorted array of point Morton keys, so per-octant
point counts are two ``searchsorted`` calls and the whole construction is
vectorised level by level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util import morton

__all__ = ["build_leaves", "leaf_point_counts", "points_to_octree", "OctreeBuild"]


def leaf_point_counts(sorted_point_keys: np.ndarray, octs: np.ndarray):
    """(begin, end) ranges of each octant's points in the sorted point
    keys: a leaf's own points, an internal octant's whole subtree.  The
    one home of the octant -> point-range rule.
    """
    keys = np.asarray(sorted_point_keys, dtype=np.uint64)
    begin = np.searchsorted(keys, morton.deepest_first_descendant(octs), side="left")
    end = np.searchsorted(keys, morton.deepest_last_descendant(octs), side="right")
    return begin, end


def build_leaves(
    sorted_point_keys: np.ndarray,
    max_points_per_box: int,
    max_depth: int = morton.MAX_DEPTH,
    roots: np.ndarray | None = None,
) -> np.ndarray:
    """Complete linear octree whose non-empty leaves hold <= q points.

    Parameters
    ----------
    sorted_point_keys:
        Morton ids of the points at ``MAX_DEPTH``, sorted ascending.
    max_points_per_box:
        The paper's ``q``.
    max_depth:
        Refinement stops here even if a box still exceeds ``q`` points.
    roots:
        Optional sorted seed octants to refine instead of the unit-cube
        root; the distributed builder passes each rank's domain cover.
    """
    if max_points_per_box < 1:
        raise ValueError("max_points_per_box must be >= 1")
    if not (0 < max_depth <= morton.MAX_DEPTH):
        raise ValueError(f"max_depth must be in (0, {morton.MAX_DEPTH}]")
    keys = np.asarray(sorted_point_keys, dtype=np.uint64)
    current = (
        np.array([morton.ROOT], dtype=np.uint64)
        if roots is None
        else np.asarray(roots, dtype=np.uint64)
    )
    leaf_parts: list[np.ndarray] = []
    while current.size:
        begin, end = leaf_point_counts(keys, current)
        counts = end - begin
        split = (counts > max_points_per_box) & (morton.level(current) < max_depth)
        leaf_parts.append(current[~split])
        current = morton.children(current[split]).ravel() if np.any(split) else np.empty(0, np.uint64)
    return np.sort(np.concatenate(leaf_parts))


@dataclass
class OctreeBuild:
    """Result of :func:`points_to_octree`.

    Attributes
    ----------
    leaves:
        Complete sorted linear octree (leaf octant ids).
    order:
        Permutation sorting the input points into Morton order.
    point_keys:
        Morton ids of the points, in sorted order.
    leaf_begin / leaf_end:
        Per-leaf index ranges into the Morton-sorted point array.
    """

    leaves: np.ndarray
    order: np.ndarray
    point_keys: np.ndarray
    leaf_begin: np.ndarray
    leaf_end: np.ndarray

    @property
    def leaf_counts(self) -> np.ndarray:
        return self.leaf_end - self.leaf_begin


def points_to_octree(
    points: np.ndarray,
    max_points_per_box: int,
    max_depth: int = morton.MAX_DEPTH,
) -> OctreeBuild:
    """Sequential ``Points2Octree``: sort points, refine, index leaf ranges."""
    keys = morton.encode_points(points)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    leaves = build_leaves(keys, max_points_per_box, max_depth)
    begin, end = leaf_point_counts(keys, leaves)
    return OctreeBuild(leaves, order, keys, begin, end)
