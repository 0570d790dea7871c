"""Physical (unit-cube) geometry of octants.

The octree lives in the unit cube ``[0, 1]^3``.  A level-``l`` octant has
side ``2**-l``.  These helpers convert octant ids into floating-point
centres and half-widths used by the KIFMM surface constructions.
"""

from __future__ import annotations

import numpy as np

from repro.util import morton

__all__ = ["box_center", "box_half_width", "unit_cube_points"]

_SCALE = 1.0 / float(1 << morton.MAX_DEPTH)


def unit_cube_points(points, name: str = "points") -> np.ndarray:
    """``points`` as a float64 ``(n, 3)`` array in the closed unit cube (the
    root box), or a ``ValueError`` naming ``name`` and the first bad row.

    Morton keys clip a point outside into the cube, but the kernels read
    its real coordinates: its octant would be wrong, silently.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (n, 3) {name}, got {pts.shape}")
    bad = ~((pts >= 0.0) & (pts <= 1.0)).all(axis=1)  # NaN compares False
    if bad.any():
        row = int(np.argmax(bad))
        rule = "be finite" if not np.isfinite(pts[row]).all() else "lie in [0, 1]^3"
        raise ValueError(f"{name} must {rule}; row {row} is {pts[row]}")
    return pts


def box_half_width(lev) -> np.ndarray:
    """Half of the physical side length of a level-``lev`` octant."""
    lev = np.asarray(lev, dtype=np.float64)
    return 0.5 * np.exp2(-lev)


def box_center(octs) -> np.ndarray:
    """Physical centre of each octant, shape ``(n, 3)``."""
    octs = np.atleast_1d(np.asarray(octs, dtype=np.uint64))
    x, y, z = morton.anchor(octs)
    half = morton.box_side_int(morton.level(octs)).astype(np.float64) * 0.5
    out = np.empty((octs.size, 3), dtype=np.float64)
    out[:, 0] = (x.astype(np.float64) + half) * _SCALE
    out[:, 1] = (y.astype(np.float64) + half) * _SCALE
    out[:, 2] = (z.astype(np.float64) + half) * _SCALE
    return out
