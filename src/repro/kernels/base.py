"""Kernel interface used by every FMM translation operator.

A kernel maps a density vector attached to source points to a potential
vector at target points.  The FMM never needs anything else: all of S2M,
M2M, M2L, L2L, L2T, W- and X-list operators are built from plain kernel
matrix evaluations between point sets (that is the *kernel independence* of
Ying et al. 2004).

Every kernel matrix — a plan's cached blocks, the operator factory's
surface matrices, the direct-summation baseline — comes from one tiling
driver, :meth:`Kernel.matrix_batch`, built like the paper's direct
kernel (§IV, Algorithm 4): coordinates staged as separate component
arrays, pairs swept in tiles that stay in cache.  A concrete kernel
contributes one formula, :meth:`Kernel._fill`.  The driver guarantees it:

* **Tile shapes.**  Tiles are whole batch slots or, when one slot
  exceeds a tile, whole target rows of one slot; source columns are
  never split.  The differences ``d = (dx, dy, dz)``, ``r2`` and two
  ``tmp`` planes are C-contiguous float64 of the tile's ``(bt, mt, n)``.
* **Scratch.**  All planes live in one array allocated per call
  (concurrent serve workers share nothing), sized :data:`_TILE_BYTES`
  over the float64 planes a tile keeps live — these six plus the
  destination entries — so the working set fits L2 whatever the
  kernel's tensor rank.
* **The r2 association.**  ``r2 = (dx*dx + dz*dz) + dy*dy``, IEEE-exact:
  what NumPy's ``einsum("...k,...k->...")`` happened to produce for
  ``k = 3`` on the materialised displacement tensor, written out here
  so the bits no longer follow NumPy's dispatch or the input layout.
* **One rounding.**  Planes are float64; each destination entry is
  stored once, and that store rounds to the requested ``dtype``.

The formula guarantees back that every element depends on its own
(target, source) pair only — no reduction across the tile — which makes
a matrix independent of how it was tiled and lets
:func:`repro.core.plan._reserve` stitch blocks from separately
evaluated slots, rows and columns.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Kernel", "density_layout", "real_densities"]

#: Bytes of float64 planes one tile keeps live (differences, r2, two
#: temporaries, the destination entries): 1.5 MB of a 2 MB L2.
_TILE_BYTES = 3 << 19


def real_densities(densities, where: str) -> np.ndarray:
    """``densities`` as float64 of the same shape, or a ``ValueError`` that
    starts with ``where`` and names them: a complex value (its imaginary
    part would be dropped) or a NaN / Inf (it would poison every potential
    of its column).  Integer and float32 densities convert."""
    arr = np.asarray(densities)
    if np.iscomplexobj(arr):
        raise ValueError(f"{where}: densities must be real, got {arr.dtype}")
    arr = np.asarray(arr, dtype=np.float64)
    if not np.isfinite(arr).all():
        rows = np.atleast_1d(arr)
        row = int(np.argwhere(~np.isfinite(rows))[0, 0])
        raise ValueError(f"{where}: densities must be finite; row {row} is {rows[row]}")
    return arr


def density_layout(densities, n_points: int, ks: int, where: str, block: bool = False):
    """``(densities, is_block)``, checked as :func:`real_densities` does,
    for the three layouts an entry point accepts: a flat
    ``(n_points * ks,)`` vector; with ``block``, an ``(n_points * ks, q)``
    multi-RHS block, returned as it is (with ``ks = 1`` this also takes
    ``(n_points, 1)``); ``(n_points, ks)`` per-point vectors, returned
    flat.  Any other shape is a ``ValueError`` that starts with ``where``
    and names it: an array whose size happens to fit is never flattened.
    """
    arr = real_densities(densities, where)
    flat = n_points * ks
    if arr.shape == (flat,):
        return arr, False
    if block and arr.ndim == 2 and arr.shape[0] == flat:
        return arr, True
    if arr.shape == (n_points, ks):
        return arr.reshape(-1), False
    multi = f"an ({flat}, q) multi-RHS block, " if block else ""
    raise ValueError(
        f"{where}: densities shape {arr.shape} (densities size {arr.size}) is "
        f"none of the layouts expected for n_points*source_dim = {n_points}*{ks}: "
        f"a flat ({flat},) vector, {multi}or ({n_points}, {ks}) per-point vectors"
    )


class Kernel:
    """Two-point interaction kernel: one pair formula, :meth:`_fill`.

    :meth:`matrix` and :meth:`matrix_batch` are the driver's and are not
    overridden.  (A kernel that defines only :meth:`matrix` still works
    everywhere: ``matrix_batch`` then loops over the batch.)

    Attributes
    ----------
    name:
        Registry name.
    source_dim / target_dim:
        Degrees of freedom per source / target point (1 for Laplace,
        3 for Stokes).
    homogeneity:
        Exponent ``h`` such that ``K(λ x, λ y) = λ**h K(x, y)`` for all
        ``λ > 0``, or ``None`` when the kernel is not homogeneous.  A
        homogeneous kernel lets translation operators computed at one
        octree level be rescaled for every other level.
    flops_per_pair:
        Floating-point operations charged per source-target pair when the
        kernel is applied directly; used by the performance ledgers.
    default_rcond:
        Default relative singular-value cutoff for the equivalent-density
        pseudo-inverses.  Vector kernels (Stokes) are more ill-conditioned
        and need a looser cutoff than scalar kernels.
    transpose_symmetric:
        Whether ``K(x, y) = K(y, x)ᵀ`` holds *bitwise*, i.e.
        ``matrix(a, b)`` equals ``matrix(b, a).T`` element for element
        (the formula sees ``x - y`` only through even terms).  A plan
        then holds each W/X kernel block once and contracts it both ways.
    """

    name: str = "abstract"
    source_dim: int = 1
    target_dim: int = 1
    homogeneity: float | None = None
    flops_per_pair: int = 1
    default_rcond: float = 1e-9
    transpose_symmetric: bool = False

    def _fill(self, d, r2, tmp, dst) -> None:
        """Write one tile: ``d[0], d[1], d[2]`` are the target-minus-source
        differences, ``r2`` their squared distance, ``tmp[0], tmp[1]``
        scratch — all the formula's to overwrite.  ``dst[:, :, a, :, c]``
        (a ``(bt, mt, target_dim, n, source_dim)`` view of the output)
        couples target component ``a`` to source component ``c``.
        Coincident pairs store zero; division warnings are silenced.
        """
        raise NotImplementedError(
            f"{type(self).__name__} defines neither _fill nor matrix"
        )

    def matrix(self, targets: np.ndarray, sources: np.ndarray) -> np.ndarray:
        """Dense interaction matrix of shape ``(m*target_dim, n*source_dim)``.

        Degrees of freedom are interleaved per point (point-major layout):
        row ``i*target_dim + a`` is component ``a`` of target ``i``.
        Coincident target/source points contribute zero (the FMM convention
        for excluding self-interaction).  The one-slot :meth:`matrix_batch`.
        """
        return self.matrix_batch(np.asarray(targets)[None], np.asarray(sources)[None])[0]

    def matrix_batch(
        self, targets: np.ndarray, sources: np.ndarray, dtype=np.float64
    ) -> np.ndarray:
        """Batched interaction matrices, evaluated in cache tiles.

        ``targets``: ``(b, m, 3)``; ``sources``: ``(b, n, 3)``; returns
        ``(b, m*target_dim, n*source_dim)`` in ``dtype``:
        ``dtype=np.float32`` equals ``.astype(np.float32)`` of the float64
        result without ever holding it.  Thousands of small leaves cost
        one call, and a large block a tile of temporaries.
        """
        targets = np.asarray(targets, dtype=np.float64)
        sources = np.asarray(sources, dtype=np.float64)
        (b, m), n = targets.shape[:2], sources.shape[1]
        kt, ks = self.target_dim, self.source_dim
        out = np.empty((b, m * kt, n * ks), dtype=dtype)
        if type(self).matrix is not Kernel.matrix:
            for i in range(b):
                out[i] = self.matrix(targets[i], sources[i])
            return out
        if out.size == 0:
            return out
        # component planes (3, b, m) / (3, b, n): a tile's differences
        # broadcast unit-stride rows instead of gathering 3-vectors
        t = np.ascontiguousarray(targets.transpose(2, 0, 1))[..., None]
        s = np.ascontiguousarray(sources.transpose(2, 0, 1))[:, :, None]
        view = out.reshape(b, m, kt, n, ks)
        pairs = max(n, _TILE_BYTES // (8 * (6 + kt * ks)))
        bt, mt = (pairs // (m * n), m) if m * n <= pairs else (1, pairs // n)
        scratch = np.empty(6 * min(bt, b) * mt * n)
        with np.errstate(divide="ignore", invalid="ignore"):
            for b0 in range(0, b, bt):
                for r0 in range(0, m, mt):
                    dst = view[b0 : b0 + bt, r0 : r0 + mt]
                    shape = (6, *dst.shape[:2], n)
                    tile = scratch[: math.prod(shape)].reshape(shape)
                    d, r2, tmp = tile[:3], tile[3], tile[4:]
                    np.subtract(t[:, b0 : b0 + bt, r0 : r0 + mt], s[:, b0 : b0 + bt], out=d)
                    np.square(d[0], out=r2)
                    np.add(r2, np.square(d[2], out=tmp[0]), out=r2)
                    np.add(r2, np.square(d[1], out=tmp[0]), out=r2)
                    self._fill(d, r2, tmp, dst)
        return out

    def apply(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        density: np.ndarray,
        block: int = 2048,
    ) -> np.ndarray:
        """Apply the kernel without materialising the full matrix.

        Blocks over targets so peak memory is ``O(block * n)``; this is the
        building block of the direct-summation baseline.
        """
        targets = np.asarray(targets, dtype=np.float64)
        sources = np.asarray(sources, dtype=np.float64)
        density = np.asarray(density, dtype=np.float64).reshape(-1)
        if density.size != len(sources) * self.source_dim:
            raise ValueError(
                f"density size {density.size} != n_sources*source_dim "
                f"{len(sources) * self.source_dim}"
            )
        out = np.zeros(len(targets) * self.target_dim, dtype=np.float64)
        td = self.target_dim
        for start in range(0, len(targets), block):
            stop = min(start + block, len(targets))
            out[start * td : stop * td] = self.matrix(
                targets[start:stop], sources
            ) @ density
        return out

    def pair_flops(self, n_targets: int, n_sources: int) -> float:
        """Flop charge for a dense ``n_targets x n_sources`` interaction."""
        return float(self.flops_per_pair) * n_targets * n_sources

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
