"""Device kernels of the accelerated phases (paper §IV, Algorithm 4).

All numerics run in single precision.  The direct-interaction kernel uses
the paper's IEEE trick to skip self-interactions without a branch: the
geometric factor ``1/r`` is passed through ``x + (x - x)`` (infinity
becomes NaN) and ``fmax(x, 0)`` (NaN becomes 0), which also neutralises
the NaN-padded target slots of the streamed layout.

Cost accounting follows the CUDA execution model: a thread block of ``b``
threads owns ``b`` (padded) targets and sweeps the box's sources in
shared-memory tiles of ``b``; flops are charged for the *padded* pair
count (padding is real work on a real device — this is what makes the
points-per-box sweep of Table III reproduce its U-shape).  For host-side
simulation speed, boxes with the same padded shapes execute as one
broadcast batch; the charged cost is identical to per-box execution.
"""

from __future__ import annotations

import numpy as np

from repro.core.operators import OperatorCache
from repro.gpu.device import VirtualGpu
from repro.gpu.translate import LeafStream, UListStream
from repro.kernels.base import Kernel
from repro.kernels.laplace import LaplaceKernel

__all__ = ["gpu_uli", "gpu_s2u", "gpu_d2t", "pairwise_f32", "pairwise_f32_batch"]

_F32_4PI_INV = np.float32(1.0 / (4.0 * np.pi))


def _laplace_tile_f32(tgt: np.ndarray, src: np.ndarray, dens: np.ndarray):
    """One shared-memory tile of Algorithm 4's inner loop (Laplace).

    ``tgt``: (m, 3) float32 (NaN rows are padding); ``src``: (n, 3);
    ``dens``: (n,).  Returns the (m,) float32 partial potentials.
    """
    d = tgt[:, None, :] - src[None, :, :]
    r2 = np.einsum("mnk,mnk->mn", d, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.float32(1.0) / np.sqrt(r2)
        # x + (x - x): infinity -> NaN, finite values unchanged
        inv = inv + (inv - inv)
    # fmax(NaN, 0) = 0: drops self-interactions and NaN padding rows
    inv = np.fmax(inv, np.float32(0.0))
    return _F32_4PI_INV * (inv @ dens)


def _laplace_batch_f32(tgt: np.ndarray, src: np.ndarray, dens: np.ndarray):
    """Batched Laplace tiles: (b,m,3) x (b,n,3) x (b,n) -> (b,m) float32."""
    # r2 sums the squares per component (one (b, m, n) pass each, in the
    # order a k-reduction would) and the elementwise steps run in place
    r2 = None
    for k in range(3):
        dk = tgt[:, :, None, k] - src[:, None, :, k]
        dk *= dk
        r2 = dk if r2 is None else np.add(r2, dk, out=r2)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.divide(np.float32(1.0), np.sqrt(r2, out=r2), out=r2)
        inv += inv - inv
    inv = np.fmax(inv, np.float32(0.0), out=inv)
    return _F32_4PI_INV * np.einsum("bmn,bn->bm", inv, dens)


def pairwise_f32(
    kernel: Kernel, tgt: np.ndarray, src: np.ndarray, dens: np.ndarray
) -> np.ndarray:
    """Single-precision pairwise interaction of one tile.

    Laplace uses the branch-free CUDA formulation; other kernels fall back
    to the kernel matrix evaluated on the (already float32-rounded) inputs
    with the result demoted to float32 — numerically equivalent to a
    straightforward CUDA port.
    """
    if isinstance(kernel, LaplaceKernel) and kernel.softening == 0.0:
        return _laplace_tile_f32(tgt, src, dens)
    valid = ~np.isnan(tgt[:, 0])
    out = np.zeros(len(tgt) * kernel.target_dim, dtype=np.float32)
    if valid.any() and len(src):
        res = kernel.matrix(
            tgt[valid].astype(np.float64), src.astype(np.float64)
        ) @ dens.astype(np.float64)
        out.reshape(len(tgt), kernel.target_dim)[valid] = (
            res.astype(np.float32).reshape(-1, kernel.target_dim)
        )
    return out


def pairwise_f32_batch(
    kernel: Kernel, tgt: np.ndarray, src: np.ndarray, dens: np.ndarray
) -> np.ndarray:
    """Batched single-precision tiles.

    ``tgt``: (b, m, 3); ``src``: (b, n, 3); ``dens``: (b, n*source_dim);
    returns (b, m*target_dim) float32.  NaN target rows produce zeros.
    """
    if isinstance(kernel, LaplaceKernel) and kernel.softening == 0.0:
        return _laplace_batch_f32(tgt, src, dens)
    k = kernel.matrix_batch(
        np.nan_to_num(tgt.astype(np.float64)), src.astype(np.float64)
    ).astype(np.float32)
    out = np.einsum("bij,bj->bi", k, dens.astype(np.float32))
    bad = np.isnan(tgt[:, :, 0])
    if bad.any():
        kt = kernel.target_dim
        out.reshape(tgt.shape[0], tgt.shape[1], kt)[bad] = 0.0
    return out


def gpu_uli(
    gpu: VirtualGpu,
    stream: UListStream,
    dens_dev: np.ndarray,
    kernel: Kernel,
    phase: str = "ULI",
) -> np.ndarray:
    """Algorithm 4: direct (U-list) interactions on the device.

    ``dens_dev`` is the float32 density table indexed by
    ``stream.src_dens_index`` rows.  Returns padded float32 potentials
    aligned with ``stream.tgt_points``.  Boxes sharing padded shapes are
    batched; accounting is per the per-box CUDA model.
    """
    b = gpu.block_size
    kt = kernel.target_dim
    ks = kernel.source_dim
    out = np.zeros(len(stream.tgt_points) * kt, dtype=np.float32)
    n_tgt = np.diff(stream.tgt_offsets)
    n_real = np.diff(
        np.concatenate(([0], np.cumsum(stream.tgt_valid)))[stream.tgt_offsets]
    )
    n_src = np.diff(stream.src_offsets)
    n_src_pad = -(-np.maximum(n_src, 1) // b) * b
    flops = float(
        (kernel.flops_per_pair * n_tgt * np.where(n_src > 0, n_src_pad, 0)).sum()
    )
    gbytes = 0.0
    # group boxes by identical padded shapes and batch them
    code = n_tgt * np.int64(1 << 32) + n_src_pad
    active = np.flatnonzero((n_tgt > 0) & (n_src > 0))
    dens_rows = dens_dev.reshape(-1, ks)
    for c in np.unique(code[active]):
        grp = active[code[active] == c]
        # the charge is per padded target row, as on the device; the host
        # stops at the group's largest real count (NaN rows come out 0)
        rows = int(n_real[grp].max())
        spad = int(n_src_pad[grp[0]])
        # memory budget: ~64 MB of pair distances per chunk
        chunk = max(1, int(6e7 / max(rows * spad, 1)))
        for s in range(0, grp.size, chunk):
            boxes = grp[s : s + chunk]
            m = boxes.size
            tgt = np.empty((m, rows, 3), dtype=np.float32)
            src = np.full((m, spad, 3), np.nan, dtype=np.float32)
            den = np.zeros((m, spad * ks), dtype=np.float32)
            for j, i in enumerate(boxes):
                t0, t1 = stream.tgt_offsets[i], stream.tgt_offsets[i + 1]
                s0, s1 = stream.src_offsets[i], stream.src_offsets[i + 1]
                tgt[j] = stream.tgt_points[t0 : t0 + rows]
                src[j, : s1 - s0] = stream.src_points[s0:s1]
                den[j, : (s1 - s0) * ks] = dens_rows[
                    stream.src_dens_index[s0:s1]
                ].reshape(-1)
                # each target block loads every source tile once
                gbytes += (t1 - t0) // b * ((s1 - s0) * 16.0)
                gbytes += (t1 - t0) * (12.0 + 4.0 * kt)
            # NaN sources would poison even the fmax trick through the
            # density product; zero-density pad points at the box centre
            src = np.where(np.isnan(src), tgt[:, :1, :], src)
            vals = pairwise_f32_batch(kernel, tgt, src, den)
            for j, i in enumerate(boxes):
                t0 = stream.tgt_offsets[i]
                out[t0 * kt : (t0 + rows) * kt] += vals[j]
    gpu.charge_launch(phase, flops, gbytes)
    return out


def _leaf_batches(stream: LeafStream, ns: int):
    """``(level, boxes, pts)`` for the stream's non-empty leaves, batched
    by (level, power-of-two padded count) and chunked to ~6e7 pair slots;
    ``pts`` holds each box's points, padded with its centre."""
    counts = np.diff(stream.pt_offsets)
    kpad = np.maximum(1 << np.ceil(np.log2(np.maximum(counts, 1))).astype(np.int64), 1)
    code = stream.levels * np.int64(1 << 24) + kpad
    active = np.flatnonzero(counts > 0)
    for c in np.unique(code[active]):
        grp = active[code[active] == c]
        lev, pad = int(stream.levels[grp[0]]), int(kpad[grp[0]])
        chunk = max(1, int(6e7 / max(ns * pad, 1)))
        for s in range(0, grp.size, chunk):
            boxes = grp[s : s + chunk]
            pts = np.repeat(stream.centers[boxes][:, None, :], pad, axis=1)
            for j, i in enumerate(boxes):
                p0, p1 = stream.pt_offsets[i], stream.pt_offsets[i + 1]
                pts[j, : p1 - p0] = stream.points[p0:p1]
            yield lev, boxes, pts


def gpu_s2u(
    gpu: VirtualGpu,
    stream: LeafStream,
    dens_dev: np.ndarray,
    dens_offsets: np.ndarray,
    kernel: Kernel,
    ops: OperatorCache,
    phase: str = "S2U",
) -> np.ndarray:
    """Source-to-up on the device: check potentials + equivalent solve.

    Returns float32 upward densities, one row per streamed leaf.  Surface
    points are regenerated from (centre, level) — no global loads for
    geometry (the paper's 50x trick).
    """
    ks, kt = kernel.source_dim, kernel.target_dim
    ns = ops.n_surf
    nb = stream.boxes.size
    up = np.zeros((nb, ns * ks), dtype=np.float32)
    counts = np.diff(stream.pt_offsets)
    flops = float(
        (kernel.flops_per_pair * ns * counts).sum()
        + 2.0 * nb * (ns * ks) * (ns * kt)
    )
    gbytes = float(counts.sum() * (12.0 + 4.0 * ks) + up.nbytes)
    for lev, boxes, pts in _leaf_batches(stream, ns):
        den = np.zeros((boxes.size, pts.shape[1] * ks), dtype=np.float32)
        for j, i in enumerate(boxes):
            d = dens_dev[dens_offsets[i] * ks : dens_offsets[i + 1] * ks]
            den[j, : d.size] = d
        uc = ops.uc_points(lev).astype(np.float32)[None, :, :]
        q = pairwise_f32_batch(
            kernel, uc + stream.centers[boxes][:, None, :], pts, den
        )
        up[boxes] = q @ ops.uc2ue_f32(lev).astype(np.float32).T
    gpu.charge_launch(phase, flops, gbytes)
    return up


def gpu_d2t(
    gpu: VirtualGpu,
    stream: LeafStream,
    dequiv_dev: np.ndarray,
    kernel: Kernel,
    ops: OperatorCache,
    phase: str = "D2T",
) -> np.ndarray:
    """Down-to-targets on the device: evaluate DE densities at leaf points.

    ``dequiv_dev``: float32 (n_boxes, ns*ks) downward equivalent densities
    aligned with the stream.  Returns flat float32 potentials aligned with
    ``stream.points``.
    """
    kt = kernel.target_dim
    ns = ops.n_surf
    out = np.zeros(len(stream.points) * kt, dtype=np.float32)
    counts = np.diff(stream.pt_offsets)
    flops = float((kernel.flops_per_pair * counts * ns).sum())
    gbytes = float(counts.sum() * (12.0 + 4.0 * kt) + dequiv_dev.nbytes)
    for lev, boxes, pts in _leaf_batches(stream, ns):
        de = ops.de_points(lev).astype(np.float32)[None, :, :]
        vals = pairwise_f32_batch(
            kernel, pts, de + stream.centers[boxes][:, None, :],
            dequiv_dev[boxes],
        )
        for j, i in enumerate(boxes):
            p0, p1 = stream.pt_offsets[i], stream.pt_offsets[i + 1]
            out[p0 * kt : p1 * kt] += vals[j, : (p1 - p0) * kt]
    gpu.charge_launch(phase, flops, gbytes)
    return out
