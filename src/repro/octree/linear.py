"""Operations on sorted linear octrees (arrays of octant ids).

A *linear octree* stores only leaves, as a Morton-sorted ``uint64`` array.
It is *complete* when the leaf regions tile the unit cube exactly.  The
routines here mirror the primitives of the DENDRO package the paper builds
on: completion of a region between two octants, completion of a partial
tree to the unit cube, ancestor removal, and validity checks.
"""

from __future__ import annotations

import numpy as np

from repro.util import morton

__all__ = [
    "is_sorted_unique",
    "remove_ancestors",
    "coarsest_common_ancestor",
    "fill_cell_range",
    "complete_region",
    "complete_to_unit_cube",
    "is_complete",
    "covering_leaf_indices",
]


def is_sorted_unique(keys: np.ndarray) -> bool:
    """True when ``keys`` is strictly increasing (valid linear octree order)."""
    keys = np.asarray(keys, dtype=np.uint64)
    return bool(np.all(keys[1:] > keys[:-1])) if keys.size > 1 else True


def remove_ancestors(keys: np.ndarray) -> np.ndarray:
    """Drop every octant that is an ancestor of another octant in the set.

    Input need not be sorted; output is sorted and unique.  In Morton
    pre-order an ancestor immediately precedes its first descendant chain,
    so a single linear sweep comparing each octant with the next retained
    one suffices.
    """
    keys = morton.sorted_unique(np.asarray(keys, dtype=np.uint64))
    if keys.size <= 1:
        return keys
    # In sorted Morton id order the descendants of an octant occupy the
    # contiguous id interval (oct, deepest_last_descendant(oct)], so an
    # octant is an ancestor of something iff its *immediate* successor lies
    # in that interval.
    keep = np.ones(keys.size, dtype=bool)
    keep[:-1] = keys[1:] > morton.deepest_last_descendant(keys[:-1])
    return keys[keep]


def coarsest_common_ancestor(a: np.uint64, b: np.uint64) -> np.uint64:
    """Finest octant containing both ``a`` and ``b``."""
    la = int(morton.level(a))
    lb = int(morton.level(b))
    lev = min(la, lb)
    while lev > 0:
        pa = morton.ancestor_at(a, np.int64(lev))
        pb = morton.ancestor_at(b, np.int64(lev))
        if pa == pb:
            return np.uint64(pa)
        lev -= 1
    return np.uint64(morton.ROOT)


def _cell_index(octs: np.ndarray) -> np.ndarray:
    """Morton cell index (interleaved key without level bits) of the first
    ``MAX_DEPTH`` cell inside each octant."""
    return np.asarray(octs, dtype=np.uint64) >> np.uint64(morton.LEVEL_BITS)


def fill_cell_range(cell_lo: int, cell_hi: int) -> np.ndarray:
    """Coarsest sorted octant cover of the Morton cell range ``[lo, hi)``.

    Cells are ``MAX_DEPTH``-level lattice positions in interleaved-key
    order.  Greedy: at each position emit the largest octant that is both
    aligned there and fits in the remaining range.  This primitive is what
    DENDRO's region completion reduces to in key space.
    """
    lo = int(cell_lo)
    hi = int(cell_hi)
    out: list[int] = []
    while lo < hi:
        k = 0
        # Largest aligned block: 8**k must divide lo and fit below hi.
        while k < morton.MAX_DEPTH:
            size = 1 << (3 * (k + 1))
            if lo % size != 0 or lo + size > hi:
                break
            k += 1
        block = 1 << (3 * k)
        out.append((lo << morton.LEVEL_BITS) | (morton.MAX_DEPTH - k))
        lo += block
    return np.array(out, dtype=np.uint64)


def complete_region(a: np.uint64, b: np.uint64) -> np.ndarray:
    """Coarsest complete linear octree strictly between octants ``a``, ``b``.

    ``a`` must precede ``b`` in Morton order and neither may be an ancestor
    of the other.  This is DENDRO's ``CompleteRegion``: the octants filling
    the key-space gap between the two, exclusive of both endpoints.
    """
    a = np.uint64(a)
    b = np.uint64(b)
    if not (a < b):
        raise ValueError("complete_region requires a < b in Morton order")
    if morton.is_ancestor(a, b) or morton.is_ancestor(b, a):
        raise ValueError("endpoints must not be ancestor-related")
    gap_lo = int(_cell_index(morton.deepest_last_descendant(a))) + 1
    gap_hi = int(_cell_index(morton.deepest_first_descendant(b)))
    return fill_cell_range(gap_lo, gap_hi)


def complete_to_unit_cube(leaves: np.ndarray) -> np.ndarray:
    """Extend a sorted, ancestor-free leaf set to tile the whole unit cube.

    Gaps between consecutive leaves — and before the first / after the last
    leaf — are filled with the coarsest octants that fit (DENDRO Algorithm 4
    at single-process scope).
    """
    leaves = remove_ancestors(leaves)
    if leaves.size == 0:
        return np.array([morton.ROOT], dtype=np.uint64)
    n_cells = 1 << (3 * morton.MAX_DEPTH)
    pieces = [leaves]
    starts = _cell_index(morton.deepest_first_descendant(leaves))
    stops = _cell_index(morton.deepest_last_descendant(leaves)) + np.uint64(1)
    pieces.append(fill_cell_range(0, int(starts[0])))
    for i in range(leaves.size - 1):
        pieces.append(fill_cell_range(int(stops[i]), int(starts[i + 1])))
    pieces.append(fill_cell_range(int(stops[-1]), n_cells))
    return np.sort(np.concatenate(pieces))


def is_complete(leaves: np.ndarray) -> bool:
    """True when the sorted leaf set tiles the unit cube with no overlap."""
    leaves = np.asarray(leaves, dtype=np.uint64)
    if leaves.size == 0 or not is_sorted_unique(leaves):
        return False
    span = np.uint64(1 << morton.LEVEL_BITS)  # one MAX_DEPTH cell in id units
    lo = morton.deepest_first_descendant(leaves)
    hi = morton.deepest_last_descendant(leaves)
    if lo[0] != morton.deepest_first_descendant(np.array([morton.ROOT]))[0]:
        return False
    if hi[-1] != morton.deepest_last_descendant(np.array([morton.ROOT]))[0]:
        return False
    return bool(np.all(hi[:-1] + span == lo[1:]))


def covering_leaf_indices(leaves: np.ndarray, octs: np.ndarray) -> np.ndarray:
    """Index of the leaf whose region contains each query octant.

    ``leaves`` must be a complete sorted linear octree.  Returns -1 when the
    query octant is not contained in (or equal to) any single leaf — i.e.
    when the query is coarser than the local refinement.
    """
    leaves = np.asarray(leaves, dtype=np.uint64)
    octs = np.asarray(octs, dtype=np.uint64)
    lo = morton.deepest_first_descendant(leaves)
    q_lo = morton.deepest_first_descendant(octs)
    q_hi = morton.deepest_last_descendant(octs)
    idx = np.searchsorted(lo, q_lo, side="right") - 1
    idx = np.clip(idx, 0, leaves.size - 1)
    ok = (morton.deepest_first_descendant(leaves[idx]) <= q_lo) & (
        q_hi <= morton.deepest_last_descendant(leaves[idx])
    )
    return np.where(ok, idx, -1)
