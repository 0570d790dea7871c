"""Equivalent / check surfaces of the kernel-independent FMM.

In KIFMM (Ying, Biros & Zorin 2004) every expansion is a density living on
a discretised surface surrounding an octant:

* **UE** — *upward equivalent* surface: a small cube around the octant.
  The upward density ``u`` on it reproduces, outside the octant's
  colleague volume, the field of the sources inside the octant.
* **UC** — *upward check* surface: a larger cube; matching potentials
  there determines ``u``.
* **DE** — *downward equivalent* surface: the large cube; the downward
  density ``d`` on it reproduces, inside the octant, the field of all
  far sources.
* **DC** — *downward check* surface: the small cube; matching potentials
  there determines ``d``.

Each surface carries ``6 (p-1)^2 + 2`` points: the boundary nodes of a
``p x p x p`` lattice on the cube.

Surface scales
--------------
The small surfaces (UE/DC) use scale ``(p-1)/(p-2)`` relative to the box
half-width instead of the classic 1.05.  With that choice the surface
lattice spacing is exactly ``2 r / (p - 2)``, which divides the box side
``2 r`` — so for any V-list pair the *difference* of a target DC point and
a source UE point is a lattice vector, and the M2L translation becomes a
3-D convolution diagonalised by the FFT (the paper's "diagonal
translation ... based on a Fast Fourier Transform-based diagonalization of
the T operator").  The large surfaces (UC/DE) use the classic 2.95.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "MIN_ORDER",
    "inner_scale",
    "outer_scale",
    "n_surface_points",
    "surface_lattice",
    "surface_points",
]

#: Minimum supported surface order: below 4 the inner scale degenerates.
MIN_ORDER = 4

#: Scale of the large (UC / DE) surfaces relative to the box half-width.
OUTER_SCALE = 2.95


def inner_scale(order: int) -> float:
    """UE / DC surface scale: ``(p-1)/(p-2)`` (lattice-compatible)."""
    _check_order(order)
    return (order - 1) / (order - 2)


def outer_scale(order: int) -> float:
    """UC / DE surface scale (classic KIFMM value)."""
    _check_order(order)
    return OUTER_SCALE


def _check_order(order: int) -> None:
    if order < MIN_ORDER:
        raise ValueError(f"surface order must be >= {MIN_ORDER}, got {order}")


def n_surface_points(order: int) -> int:
    """Number of surface points: ``6 (p-1)^2 + 2``."""
    _check_order(order)
    return 6 * (order - 1) ** 2 + 2


@lru_cache(maxsize=None)
def _lattice_cached(order: int) -> np.ndarray:
    p = order
    grid = np.arange(p)
    ijk = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1).reshape(-1, 3)
    on_surface = np.any((ijk == 0) | (ijk == p - 1), axis=1)
    pts = ijk[on_surface]
    pts.setflags(write=False)
    return pts


def surface_lattice(order: int) -> np.ndarray:
    """Integer lattice coordinates of surface points, shape ``(n_s, 3)``.

    Entries are in ``{0, ..., p-1}``; the cube surface is where any
    coordinate equals 0 or ``p-1``.  Ordering is fixed (row-major over the
    full lattice) so densities are interchangeable across modules.
    """
    _check_order(order)
    return _lattice_cached(order)


def surface_points(
    order: int, center: np.ndarray, half_width: float, scale: float
) -> np.ndarray:
    """Physical surface points: cube of half-width ``scale * half_width``.

    The lattice ``{0..p-1}`` maps affinely onto ``[-s, s]`` per axis where
    ``s = scale * half_width``.
    """
    _check_order(order)
    ijk = surface_lattice(order).astype(np.float64)
    unit = 2.0 * ijk / (order - 1) - 1.0  # [-1, 1] lattice
    return np.asarray(center, dtype=np.float64) + scale * float(half_width) * unit
