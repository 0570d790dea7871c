"""Incremental Morton delta-sort for moving point sets.

Time-stepping workloads perturb a small fraction of the points each step.
Re-running the full ``argsort`` (and downstream tree construction) from
scratch wastes the fact that the overwhelming majority of the sorted order
is unchanged: only the moved points can change position.  This module
recomputes Morton keys *only* for the moved points and insertion-merges
the small sorted delta into the surviving order — O(m log m + n) instead
of O(n log n), and, more importantly, it yields the old-row -> new-row
permutation that lets the plan patcher reuse every untouched kernel-matrix
block downstream.

The merge reproduces ``np.argsort(keys, kind="stable")`` *exactly*,
including its tie semantics: points sharing a Morton cell are ordered by
original point index.  ``tests/test_dynamic_geometry.py`` checks this
against the full sort on adversarial key collisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util import morton

__all__ = ["DeltaSort", "delta_sort"]


@dataclass
class DeltaSort:
    """Result of :func:`delta_sort`.

    Attributes
    ----------
    point_keys:
        Morton ids of all points under the new coordinates, sorted.
    order:
        Permutation with ``new_points[order]`` Morton-sorted — identical
        to ``np.argsort(new_keys, kind="stable")``.
    perm:
        ``(n + 1,)`` map from old sorted row to new sorted row.  Entry
        ``n`` maps the sentinel row to the new sentinel row, so padded
        gather-index arrays remap with a single fancy index.
    moved:
        Original-order indices of the points whose coordinates changed.
    moved_rows:
        New sorted rows of the moved points (ascending).
    """

    point_keys: np.ndarray
    order: np.ndarray
    perm: np.ndarray
    moved: np.ndarray
    moved_rows: np.ndarray


def delta_sort(
    old_point_keys: np.ndarray,
    old_order: np.ndarray,
    new_points: np.ndarray,
    moved: np.ndarray,
) -> DeltaSort:
    """Merge re-keyed moved points into an existing Morton-sorted order.

    Parameters
    ----------
    old_point_keys / old_order:
        The previous sorted keys and the permutation that produced them.
    new_points:
        Full point array in *original* order (only rows listed in
        ``moved`` may differ from the previous geometry).
    moved:
        Original-order indices of the points that moved.
    """
    old_point_keys = np.asarray(old_point_keys, dtype=np.uint64)
    old_order = np.asarray(old_order, dtype=np.int64)
    n = old_order.size
    moved = morton.sorted_unique(np.asarray(moved, dtype=np.int64))
    if moved.size == 0:
        perm = np.arange(n + 1, dtype=np.int64)
        return DeltaSort(
            point_keys=old_point_keys,
            order=old_order,
            perm=perm,
            moved=moved,
            moved_rows=np.empty(0, np.int64),
        )

    moved_keys = morton.encode_points(np.asarray(new_points, dtype=np.float64)[moved])

    # Old sorted rows of the moved points, via the inverse permutation.
    inv = np.empty(n, dtype=np.int64)
    inv[old_order] = np.arange(n, dtype=np.int64)
    moved_old_rows = inv[moved]

    keep = np.ones(n, dtype=bool)
    keep[moved_old_rows] = False
    kept_rows = np.flatnonzero(keep)
    kept_keys = old_point_keys[kept_rows]
    kept_ids = old_order[kept_rows]

    # Sort the delta by (key, original index) — the stable-sort tie order.
    ds = np.lexsort((moved, moved_keys))
    mk = moved_keys[ds]
    mid = moved[ds]

    # Insertion positions into the kept sequence.  Where a moved key
    # collides with kept keys, the tie breaks on original index; within an
    # equal-key run kept_ids is ascending (inherited from the old stable
    # sort), so a second searchsorted on the id resolves it.
    lo = np.searchsorted(kept_keys, mk, side="left")
    hi = np.searchsorted(kept_keys, mk, side="right")
    pos = lo
    for j in np.flatnonzero(hi > lo):
        pos[j] = lo[j] + np.searchsorted(kept_ids[lo[j] : hi[j]], mid[j])

    m = mid.size
    moved_rows = pos + np.arange(m, dtype=np.int64)
    kept_final = np.arange(kept_rows.size, dtype=np.int64) + np.searchsorted(
        pos, np.arange(kept_rows.size, dtype=np.int64), side="right"
    )

    point_keys = np.empty(n, dtype=np.uint64)
    order = np.empty(n, dtype=np.int64)
    point_keys[kept_final] = kept_keys
    order[kept_final] = kept_ids
    point_keys[moved_rows] = mk
    order[moved_rows] = mid

    perm = np.empty(n + 1, dtype=np.int64)
    perm[kept_rows] = kept_final
    perm[inv[mid]] = moved_rows
    perm[n] = n
    return DeltaSort(
        point_keys=point_keys,
        order=order,
        perm=perm,
        moved=moved,
        moved_rows=moved_rows,
    )
