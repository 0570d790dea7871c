"""Vectorised 3-D Morton (Z-order) key algebra for linear octrees.

An *octant id* packs the octant's anchor (its minimum corner, expressed in
integer lattice coordinates at the maximum refinement depth) together with
its refinement level into a single ``uint64``::

    oct_id = (interleave(x, y, z) << LEVEL_BITS) | level

With ``MAX_DEPTH = 19`` the interleaved anchor occupies ``3 * 19 = 57`` bits
and the level 5 bits, for 62 bits total.  Sorting ids numerically yields the
Morton *pre-order* traversal of the octree: every ancestor precedes its
descendants and disjoint subtrees appear in Z-order.  This single-word
representation is what the paper's DENDRO substrate uses for distributed
linear octrees and what makes all tree algorithms expressible as operations
on sorted ``uint64`` arrays.

All functions are vectorised and accept scalars or ``ndarray``s of ids.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MAX_DEPTH",
    "LEVEL_BITS",
    "ROOT",
    "anchor",
    "ancestor_at",
    "ancestors_of",
    "adjacent",
    "box_side_int",
    "children",
    "closures_touch",
    "deepest_first_descendant",
    "deepest_last_descendant",
    "encode_points",
    "is_ancestor_or_equal",
    "is_valid",
    "level",
    "make_oct",
    "neighbors",
    "parent",
    "sorted_unique",
]

#: Maximum refinement depth supported by the 64-bit key encoding.
MAX_DEPTH = 19

#: Number of low-order bits reserved for the level field.
LEVEL_BITS = 5

_LEVEL_MASK = np.uint64((1 << LEVEL_BITS) - 1)
_COORD_BITS = MAX_DEPTH
_MAX_COORD = np.uint64(1 << _COORD_BITS)

#: The root octant (anchor 0, level 0).
ROOT = np.uint64(0)

# Magic-number bit spreading for interleaving up to 21-bit coordinates into
# every third bit of a 64-bit word (classic Morton dilation constants).
_SPREAD_MASKS = (
    (np.uint64(32), np.uint64(0x1F00000000FFFF)),
    (np.uint64(16), np.uint64(0x1F0000FF0000FF)),
    (np.uint64(8), np.uint64(0x100F00F00F00F00F)),
    (np.uint64(4), np.uint64(0x10C30C30C30C30C3)),
    (np.uint64(2), np.uint64(0x1249249249249249)),
)


def _spread(v: np.ndarray) -> np.ndarray:
    """Dilate the low 21 bits of ``v`` so bit *i* moves to bit ``3 i``."""
    v = v.astype(np.uint64) & np.uint64(0x1FFFFF)
    for shift, mask in _SPREAD_MASKS:
        v = (v | (v << shift)) & mask
    return v


def _compact(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_spread`: gather every third bit into the low bits."""
    v = v.astype(np.uint64) & np.uint64(0x1249249249249249)
    v = (v | (v >> np.uint64(2))) & np.uint64(0x10C30C30C30C30C3)
    v = (v | (v >> np.uint64(4))) & np.uint64(0x100F00F00F00F00F)
    v = (v | (v >> np.uint64(8))) & np.uint64(0x1F0000FF0000FF)
    v = (v | (v >> np.uint64(16))) & np.uint64(0x1F00000000FFFF)
    v = (v | (v >> np.uint64(32))) & np.uint64(0x1FFFFF)
    return v


def make_oct(x, y, z, lev) -> np.ndarray:
    """Build octant ids from integer anchor coordinates and levels.

    Anchor coordinates are lattice positions at ``MAX_DEPTH`` resolution and
    must be aligned to the octant's own grid (multiples of
    ``box_side_int(lev)``); this is not checked here for speed.
    """
    x = np.asarray(x, dtype=np.uint64)
    y = np.asarray(y, dtype=np.uint64)
    z = np.asarray(z, dtype=np.uint64)
    lev = np.asarray(lev, dtype=np.uint64)
    key = (_spread(x) << np.uint64(2)) | (_spread(y) << np.uint64(1)) | _spread(z)
    return (key << np.uint64(LEVEL_BITS)) | lev


def level(octs) -> np.ndarray:
    """Refinement level of each octant (0 = root)."""
    return (np.asarray(octs, dtype=np.uint64) & _LEVEL_MASK).astype(np.int64)


def anchor(octs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer anchor coordinates (min corner) at ``MAX_DEPTH`` resolution."""
    key = np.asarray(octs, dtype=np.uint64) >> np.uint64(LEVEL_BITS)
    x = _compact(key >> np.uint64(2))
    y = _compact(key >> np.uint64(1))
    z = _compact(key)
    return x.astype(np.int64), y.astype(np.int64), z.astype(np.int64)


def box_side_int(lev) -> np.ndarray:
    """Integer side length of a level-``lev`` octant at ``MAX_DEPTH`` units."""
    lev = np.asarray(lev, dtype=np.int64)
    return np.int64(1) << (MAX_DEPTH - lev)


def is_valid(octs) -> np.ndarray:
    """Check level range and anchor alignment of octant ids."""
    octs = np.asarray(octs, dtype=np.uint64)
    lev = level(octs)
    ok = (lev >= 0) & (lev <= MAX_DEPTH)
    x, y, z = anchor(octs)
    step = box_side_int(np.clip(lev, 0, MAX_DEPTH))
    for c in (x, y, z):
        ok &= (c % step) == 0
        ok &= c < np.int64(int(_MAX_COORD))
    return ok


def encode_points(points: np.ndarray, depth: int = MAX_DEPTH) -> np.ndarray:
    """Morton ids (at level ``depth``) of points in the unit cube.

    Points are clipped into ``[0, 1)`` so boundary points land in the last
    cell instead of overflowing the lattice.  Internal: the public entries
    validate their points first (:func:`repro.util.geometry.unit_cube_points`).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (n, 3) points, got {pts.shape}")
    scaled = np.clip(pts, 0.0, np.nextafter(1.0, 0.0)) * float(1 << depth)
    cells = scaled.astype(np.uint64) << np.uint64(MAX_DEPTH - depth)
    return make_oct(cells[:, 0], cells[:, 1], cells[:, 2], np.full(len(pts), depth))


def parent(octs) -> np.ndarray:
    """Parent octant id (the root maps to itself)."""
    octs = np.asarray(octs, dtype=np.uint64)
    lev = level(octs)
    plev = np.maximum(lev - 1, 0)
    # Clear anchor bits finer than the parent's resolution.  Each level
    # contributes 3 interleaved bits right above the level field.
    shift = (np.uint64(LEVEL_BITS) + 3 * (MAX_DEPTH - plev).astype(np.uint64))
    key = (octs >> shift) << shift
    return key | plev.astype(np.uint64)


def ancestor_at(octs, lev) -> np.ndarray:
    """Ancestor (or self) of each octant at the requested coarser level."""
    octs = np.asarray(octs, dtype=np.uint64)
    lev = np.asarray(lev, dtype=np.int64)
    shift = (np.uint64(LEVEL_BITS) + 3 * (MAX_DEPTH - lev).astype(np.uint64))
    key = (octs >> shift) << shift
    return key | lev.astype(np.uint64)


def children(octs) -> np.ndarray:
    """The 8 children of each octant, shape ``(..., 8)``, in Morton order."""
    octs = np.atleast_1d(np.asarray(octs, dtype=np.uint64))
    lev = level(octs)
    if np.any(lev >= MAX_DEPTH):
        raise ValueError("cannot refine an octant at MAX_DEPTH")
    clev = (lev + 1).astype(np.uint64)
    base = (octs >> np.uint64(LEVEL_BITS)) << np.uint64(LEVEL_BITS)
    # Child k differs from the parent in the 3 interleaved bits at the
    # child's resolution; k itself is the Morton order within the parent.
    offs = np.arange(8, dtype=np.uint64)
    shift = (np.uint64(LEVEL_BITS) + 3 * (MAX_DEPTH - 1 - lev).astype(np.uint64))
    kids = base[:, None] | (offs[None, :] << shift[:, None]) | clev[:, None].astype(np.uint64)
    return kids


def is_ancestor_or_equal(a, b) -> np.ndarray:
    """True where ``a`` is an ancestor of ``b`` or equal to it."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    la, lb = level(a), level(b)
    return (la <= lb) & (ancestor_at(b, np.minimum(la, lb)) == a)


def deepest_first_descendant(octs) -> np.ndarray:
    """Id of the first ``MAX_DEPTH``-level descendant (same anchor)."""
    octs = np.asarray(octs, dtype=np.uint64)
    key = (octs >> np.uint64(LEVEL_BITS)) << np.uint64(LEVEL_BITS)
    return key | np.uint64(MAX_DEPTH)


def deepest_last_descendant(octs) -> np.ndarray:
    """Id of the last ``MAX_DEPTH``-level descendant of each octant."""
    octs = np.asarray(octs, dtype=np.uint64)
    lev = level(octs)
    key = octs >> np.uint64(LEVEL_BITS)
    fill = (np.uint64(1) << (3 * (MAX_DEPTH - lev).astype(np.uint64))) - np.uint64(1)
    return ((key | fill) << np.uint64(LEVEL_BITS)) | np.uint64(MAX_DEPTH)


def ancestors_of(octs, include_self: bool = False) -> np.ndarray:
    """Sorted unique ancestors of a set of octants (root included)."""
    cur = sorted_unique(np.asarray(octs, dtype=np.uint64))
    out = [cur] if include_self else []
    while cur.size and np.any(level(cur) > 0):
        cur = sorted_unique(parent(cur[level(cur) > 0]))
        out.append(cur)
    if not out:
        return np.empty(0, dtype=np.uint64)
    return sorted_unique(*out)


def sorted_unique(*keys) -> np.ndarray:
    """``np.unique`` (``np.union1d`` of several arrays) by sort + adjacent
    difference, for the tree, list and LET builds: a plain ``np.unique``
    takes NumPy's hash path, 10-30x slower on integer keys (calls with
    ``return_inverse`` / ``return_index`` sort, and keep ``np.unique``)."""
    s = np.sort(np.concatenate([np.ravel(k) for k in keys]))
    return s[np.concatenate(([True], s[1:] != s[:-1]))] if s.size else s


# 26 neighbour offsets (all sign combinations except the zero offset).
_NEIGHBOR_OFFSETS = np.array(
    [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
        if (dx, dy, dz) != (0, 0, 0)
    ],
    dtype=np.int64,
)


def neighbors(octs) -> tuple[np.ndarray, np.ndarray]:
    """Same-level neighbour candidates of each octant.

    Returns ``(ids, valid)`` with shape ``(n, 26)``; ``valid`` is False for
    offsets that fall outside the unit cube.  Whether a candidate actually
    exists in a given tree is the caller's concern.
    """
    octs = np.atleast_1d(np.asarray(octs, dtype=np.uint64))
    x, y, z = anchor(octs)
    lev = level(octs)
    step = box_side_int(lev)
    nx = x[:, None] + _NEIGHBOR_OFFSETS[None, :, 0] * step[:, None]
    ny = y[:, None] + _NEIGHBOR_OFFSETS[None, :, 1] * step[:, None]
    nz = z[:, None] + _NEIGHBOR_OFFSETS[None, :, 2] * step[:, None]
    hi = np.int64(int(_MAX_COORD))
    valid = (
        (nx >= 0) & (nx < hi) & (ny >= 0) & (ny < hi) & (nz >= 0) & (nz < hi)
    )
    nxc = np.where(valid, nx, 0).astype(np.uint64)
    nyc = np.where(valid, ny, 0).astype(np.uint64)
    nzc = np.where(valid, nz, 0).astype(np.uint64)
    lev_b = np.broadcast_to(lev[:, None], nxc.shape)
    ids = make_oct(nxc, nyc, nzc, lev_b)
    return ids, valid


def closures_touch(a, b) -> np.ndarray:
    """True where the closed boxes of ``a`` and ``b`` intersect.

    This includes overlap (ancestor/descendant pairs) as well as shared
    faces, edges and corners.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    ax, ay, az = anchor(a)
    bx, by, bz = anchor(b)
    sa = box_side_int(level(a))
    sb = box_side_int(level(b))
    out = np.ones(np.broadcast_shapes(a.shape, b.shape), dtype=bool)
    for ca, cb in ((ax, bx), (ay, by), (az, bz)):
        out &= (ca <= cb + sb) & (cb <= ca + sa)
    return out


def adjacent(a, b) -> np.ndarray:
    """True where distinct, non-overlapping octants share a boundary point.

    Matches the paper's adjacency definition: ``a`` and ``b`` share a
    vertex, edge, or face.  Ancestor/descendant pairs (whose interiors
    overlap) and identical octants are *not* adjacent.
    """
    touch = closures_touch(a, b)
    related = is_ancestor_or_equal(a, b) | is_ancestor_or_equal(b, a)
    return touch & ~related
