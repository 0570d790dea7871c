"""The virtual device's arithmetic and its charge model (paper §IV, Algorithm 4).

All numerics run in single precision, on one tile: Algorithm 4's
shared-memory tile broadcast over a batch of boxes, contracted with the
source densities (:func:`pairwise_f32_batch`) and, for the U pairs a
leaf's block holds for its neighbours too, also transposed
(:func:`pairwise_f32_both`).  Its Laplace kernel uses the paper's IEEE trick to
skip self-interactions without a branch: the geometric factor ``1/r`` is
passed through ``x + (x - x)`` (infinity becomes NaN) and ``fmax(x, 0)``
(NaN becomes 0).  The accelerated phases run it over the compiled
:class:`~repro.core.plan.EvalPlan` records, whose padding slots read a
zero density and write the sentinel potential row.

Cost accounting follows the CUDA execution model of Algorithm 4's padded
streaming layout, computed from counts (:func:`uli_charge`): a thread
block of ``b`` threads owns ``b`` (padded) targets of a leaf and sweeps
the sources of the leaf's whole non-empty U-list in shared-memory tiles
of ``b``; flops are charged for the *padded* pair count (padding is real
work on a real device — this is what makes the points-per-box sweep of
Table III reproduce its U-shape).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import Kernel
from repro.kernels.laplace import LaplaceKernel

__all__ = ["pairwise_f32_batch", "pairwise_f32_both", "uli_charge"]

_F32_4PI_INV = np.float32(1.0 / (4.0 * np.pi))


def _laplace_inv_f32(tgt: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Batched Laplace ``1/r`` tiles: (b,m,3) x (b,n,3) -> (b,m,n) float32."""
    # r2 sums the squares per component (one (b, m, n) pass each, in the
    # order a k-reduction would) and the elementwise steps run in place
    r2 = None
    for k in range(3):
        dk = tgt[:, :, None, k] - src[:, None, :, k]
        dk *= dk
        r2 = dk if r2 is None else np.add(r2, dk, out=r2)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.divide(np.float32(1.0), np.sqrt(r2, out=r2), out=r2)
        # x + (x - x): infinity -> NaN, finite values unchanged
        inv += inv - inv
    # fmax(NaN, 0) = 0: drops self-interactions and NaN target rows
    return np.fmax(inv, np.float32(0.0), out=inv)


def _tile_f32(kernel: Kernel, tgt: np.ndarray, src: np.ndarray):
    """``(tile, scale)``: the float32 kernel tile of a batch, zero on NaN
    target rows, and the factor its contractions take afterwards.

    Laplace uses the branch-free CUDA formulation (``1/r``, then
    ``1/4π``); other kernels evaluate the kernel matrix on the (already
    float32-rounded) inputs and demote it to float32 — numerically a
    straightforward CUDA port.
    """
    if isinstance(kernel, LaplaceKernel) and kernel.softening == 0.0:
        return _laplace_inv_f32(tgt, src), _F32_4PI_INV
    k = kernel.matrix_batch(
        np.nan_to_num(tgt.astype(np.float64)), src.astype(np.float64)
    ).astype(np.float32)
    bad = np.isnan(tgt[:, :, 0])
    if bad.any():
        k.reshape(tgt.shape[0], tgt.shape[1], kernel.target_dim, -1)[bad] = 0.0
    return k, np.float32(1.0)


def pairwise_f32_batch(
    kernel: Kernel, tgt: np.ndarray, src: np.ndarray, dens: np.ndarray
) -> np.ndarray:
    """Single-precision tiles of Algorithm 4's inner loop, one per box.

    ``tgt``: (b, m, 3); ``src``: (b, n, 3); ``dens``: (b, n*source_dim);
    returns (b, m*target_dim) float32.  NaN target rows produce zeros.
    """
    k, scale = _tile_f32(kernel, tgt, src)
    return scale * np.einsum("bij,bj->bi", k, dens.astype(np.float32, copy=False))


def pairwise_f32_both(
    kernel: Kernel, tgt: np.ndarray, src: np.ndarray, dens: np.ndarray,
    back: np.ndarray,
):
    """One tile read both ways: :func:`pairwise_f32_batch`'s potentials
    at ``tgt``, and the potentials at ``src`` of the densities ``back``
    ``(b, m*source_dim)`` sitting at ``tgt`` — the transposed tile, valid
    for a kernel with ``K(x, y) = K(y, x)ᵀ``."""
    k, scale = _tile_f32(kernel, tgt, src)
    return (scale * np.einsum("bij,bj->bi", k, dens.astype(np.float32, copy=False)),
            scale * np.einsum("bij,bi->bj", k, back.astype(np.float32, copy=False)))


def uli_charge(kernel: Kernel, block: int, n_tgt: np.ndarray, n_src: np.ndarray):
    """``(flops, gbytes, padded target rows)`` of Algorithm 4 over leaves
    with ``n_tgt`` points whose non-empty U-lists hold ``n_src`` points.

    Each leaf's targets are padded to a multiple of the thread block and
    each thread block loads every source tile once (16 bytes per source
    point); flops count the padded target rows against the padded
    source tiles.  Every term is an integer, so the sums are exact.
    """
    tiles = -(-n_tgt // block)
    rows = tiles * block
    spad = -(-np.maximum(n_src, 1) // block) * block
    flops = float((kernel.flops_per_pair * rows * np.where(n_src > 0, spad, 0)).sum())
    per_leaf = tiles * (n_src * 16.0) + rows * (12.0 + 4.0 * kernel.target_dim)
    gbytes = float(np.where(n_src > 0, per_leaf, 0.0).sum())
    return flops, gbytes, int(rows.sum())
