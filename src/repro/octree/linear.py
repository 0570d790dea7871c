"""Operations on sorted linear octrees (arrays of octant ids).

A *linear octree* stores only leaves, as a Morton-sorted ``uint64`` array.
It is *complete* when the leaf regions tile the unit cube exactly.  Of the
DENDRO primitives the paper builds on, the code keeps what it runs: the
coarsest cover of a Morton cell range (the distributed build's seed
octants, :mod:`repro.dist.build`), plus the order and completeness checks
the tests hold the built trees to.
"""

from __future__ import annotations

import numpy as np

from repro.util import morton

__all__ = [
    "is_sorted_unique",
    "fill_cell_range",
    "is_complete",
]


def is_sorted_unique(keys: np.ndarray) -> bool:
    """True when ``keys`` is strictly increasing (valid linear octree order)."""
    keys = np.asarray(keys, dtype=np.uint64)
    return bool(np.all(keys[1:] > keys[:-1])) if keys.size > 1 else True


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
