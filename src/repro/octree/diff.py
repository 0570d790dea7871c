"""Octant-structure diffing for incremental tree updates.

Given the previous leaf set and the re-sorted point keys after a motion
step, :func:`update_leaves` finds the *dirty subtrees* — the minimal set
of octants whose refinement must be recomputed — and rebuilds only those
via one batched :func:`repro.octree.build.build_leaves` call seeded with
the rebuild roots.  Leaves outside every rebuild root are carried over
unchanged, so a small-motion step touches a handful of octants instead of
re-refining the whole cube.

The rebuild root of a dirty leaf is the highest ancestor whose *new*
point count still fits in a box (<= q): that is exactly the octant the
global top-down refinement would leave as a leaf, so splicing the local
rebuild into the carried-over leaves reproduces the from-scratch
``build_leaves`` result octant for octant (merge steps walk up, splits
refine down, membership-only changes keep the leaf).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.octree.build import build_leaves, leaf_point_counts
from repro.util import morton

__all__ = ["LeafDiff", "update_leaves"]


@dataclass
class LeafDiff:
    """Result of :func:`update_leaves`.

    Attributes
    ----------
    leaves:
        The new complete sorted leaf set.
    roots:
        Sorted, disjoint rebuild roots (every structural or membership
        change is confined to these subtrees).
    refinement_changed:
        True when the leaf *key set* changed (a split or merge happened);
        False means only leaf membership moved.
    """

    leaves: np.ndarray
    roots: np.ndarray
    refinement_changed: bool


def _covered(keys: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Mask of ``keys`` lying at or below one of the sorted ``roots``."""
    if roots.size == 0 or keys.size == 0:
        return np.zeros(keys.size, dtype=bool)
    lo = morton.deepest_first_descendant(keys)
    hi = morton.deepest_last_descendant(keys)
    idx = np.searchsorted(morton.deepest_first_descendant(roots), lo, side="right") - 1
    idx = np.clip(idx, 0, roots.size - 1)
    rlo = morton.deepest_first_descendant(roots[idx])
    rhi = morton.deepest_last_descendant(roots[idx])
    return (rlo <= lo) & (hi <= rhi)


def update_leaves(
    old_leaves: np.ndarray,
    new_point_keys: np.ndarray,
    changed_cells: np.ndarray,
    max_points_per_box: int,
    max_depth: int = morton.MAX_DEPTH,
) -> LeafDiff:
    """Diff and locally rebuild the leaf set after a point-motion step.

    Parameters
    ----------
    old_leaves:
        Previous complete sorted leaf set.
    new_point_keys:
        Morton ids of all points under the new coordinates, sorted
        (:func:`repro.sort.delta.delta_sort` produces these).
    changed_cells:
        Sorted unique Morton cell ids (at ``MAX_DEPTH``) that gained or
        lost a point — the union of the moved points' old and new cells.
    """
    old_leaves = np.asarray(old_leaves, dtype=np.uint64)
    keys = np.asarray(new_point_keys, dtype=np.uint64)
    cells = np.asarray(changed_cells, dtype=np.uint64)
    if cells.size == 0:
        return LeafDiff(
            leaves=old_leaves, roots=np.empty(0, np.uint64), refinement_changed=False
        )

    # Dirty leaves: any changed cell inside the leaf's key range.
    b, e = leaf_point_counts(cells, old_leaves)
    dirty_leaves = old_leaves[e > b]
    if dirty_leaves.size == 0:
        return LeafDiff(
            leaves=old_leaves, roots=np.empty(0, np.uint64), refinement_changed=False
        )

    def count_of(octs: np.ndarray) -> np.ndarray:
        b, e = leaf_point_counts(keys, octs)
        return e - b

    # Rebuild root: the highest ancestor whose new count still fits; an
    # overfull leaf is its own root (split case).  Vectorised walk-up —
    # at most MAX_DEPTH iterations, each one batched searchsorted pair.
    roots = dirty_leaves.copy()
    climb = count_of(roots) <= max_points_per_box  # overfull leaves stay put
    while True:
        idx = np.flatnonzero(climb & (morton.level(roots) > 0))
        if idx.size == 0:
            break
        par = morton.parent(roots[idx])
        ok = count_of(par) <= max_points_per_box
        roots[idx[ok]] = par[ok]
        climb[idx[~ok]] = False
        if not np.any(ok):
            break

    # Deduplicate: drop roots at or below an earlier (coarser) root.  The
    # sorted key order is pre-order, so one linear scan suffices.
    roots = morton.sorted_unique(roots)
    keep = np.ones(roots.size, dtype=bool)
    last = None
    for i, r in enumerate(roots):
        if last is not None and morton.is_ancestor_or_equal(last, r):
            keep[i] = False
        else:
            last = r
    roots = roots[keep]

    rebuilt = build_leaves(keys, max_points_per_box, max_depth, roots=roots)
    kept = old_leaves[~_covered(old_leaves, roots)]
    leaves = np.sort(np.concatenate([kept, rebuilt]))
    refinement_changed = not (
        leaves.size == old_leaves.size and np.array_equal(leaves, old_leaves)
    )
    return LeafDiff(leaves=leaves, roots=roots, refinement_changed=refinement_changed)
