"""GPU-accelerated FMM evaluator.

Subclasses :class:`FmmEvaluator`, overriding exactly the phases the paper
accelerates — S2U, VLI (diagonal translation; FFTs remain on the CPU),
D2T and ULI — with virtual-device arithmetic.  U2U, D2D, W- and X-lists
stay on the CPU, matching the paper's implementation ("The U2U and D2D
traversals and XLI, WLI remain sequential"), unless ``accelerate_wx``
moves W and X onto the device too.

A device phase runs the float32 tile of :mod:`repro.gpu.kernels` over its
section of the compiled :class:`~repro.core.plan.EvalPlan` — the blocks,
padded rows and scatter schedules the CPU apply reads — with padding slots
reading the zero density row and writing the sentinel potential row, as
in the CPU apply.  The device ledger is charged from the plan's counts:
Algorithm 4's padded streaming layout is the charge model, not a data
structure.  Staging the float32 inputs runs under the ``translate`` phase
so its (minor) cost is visible, as in the paper's analysis.  A multi-RHS
block runs each device phase once per column and charges the ledger in
column order, exactly what one evaluate per column charges.
"""

from __future__ import annotations

import logging

import numpy as np

from repro.core.evaluator import FmmEvaluator
from repro.gpu.device import GpuDeviceFault, VirtualGpu
from repro.gpu.kernels import pairwise_f32_batch, pairwise_f32_both, uli_charge
from repro.kernels.base import Kernel

__all__ = ["GpuFmmEvaluator"]

_log = logging.getLogger("repro.gpu")

_F32 = np.float32


def _cat(blocks, attr: str) -> np.ndarray:
    """The ``attr`` node arrays of a plan section's blocks, end to end."""
    return np.concatenate([getattr(b, attr) for b in blocks] + [np.zeros(0, np.int64)])


class GpuFmmEvaluator(FmmEvaluator):
    """Drop-in evaluator that offloads S2U / VLI / D2T / ULI to a GPU.

    ``accelerate_wx`` additionally moves the W- and X-list phases onto the
    device — the paper's stated *ongoing work* ("transferring the W,X-lists
    on the GPU"), implemented here as an optional extension.  The default
    matches the paper's configuration (W/X on the CPU).
    """

    def __init__(
        self,
        kernel: Kernel,
        order: int,
        gpu: VirtualGpu | None = None,
        m2l_mode: str = "fft",
        rcond: float | None = None,
        accelerate_wx: bool = False,
        precision: str = "fp64",
        precision_rtol: float | None = None,
    ):
        super().__init__(
            kernel,
            order,
            m2l_mode=m2l_mode,
            rcond=rcond,
            precision=precision,
            precision_rtol=precision_rtol,
        )
        self.gpu = gpu if gpu is not None else VirtualGpu()
        self.accelerate_wx = bool(accelerate_wx)

    #: Lazily compiled plans skip host-side kernel-matrix caches: the
    #: device phases evaluate their tiles from the plan's points and never
    #: read ``kmat``, so cached blocks would only burn memory.
    PLAN_CACHE_MATRICES = False

    # -- helpers -----------------------------------------------------------

    def _device_ok(self, phase: str, profile) -> bool:
        """Probe the device at phase entry; degrade to the CPU on a fault.

        The check happens *before* any device work or accumulator
        mutation, so the CPU path re-runs the whole phase and results
        stay bit-identical to a pure-CPU evaluator (all overrides call
        ``super()``).  The fallback is logged and marked with a
        zero-delta ``RECOVERY:gpu_fallback:<phase>`` span — a marker, not
        a wrapper, so the phase's flops stay attributed to the phase
        itself and ledgers remain comparable to the CPU baseline.
        """
        try:
            self.gpu.check_phase(phase)
        except GpuDeviceFault as exc:
            _log.warning(
                "virtual GPU unavailable for %s (%s): falling back to CPU",
                phase,
                exc.kind,
            )
            with profile.phase(f"RECOVERY:gpu_fallback:{phase}"):
                pass
            return False
        return True

    @staticmethod
    def _columns(state, *arrays):
        """Yield ``arrays`` as single-RHS views, one tuple per column.

        A ``(rows, q, features)`` state and its ``(n * ks, q)`` density
        block are sliced column by column; a single-RHS state is its own
        one column.  Potential tables come back as ``(rows, kt)`` views
        through ``reshape``, which never copies a same-size view.
        """
        if state["up"].ndim == 2:
            yield arrays
            return
        for j in range(state["up"].shape[1]):
            yield tuple(a[:, j] for a in arrays)

    def _stage_dens(self, profile, dens) -> np.ndarray:
        """Float32 ``(n_points + 1, ks)`` density rows; the last is the
        zero sentinel that padding slots read."""
        ks = self.kernel.source_dim
        with profile.phase("translate"):
            table = np.zeros((dens.size // ks + 1, ks), dtype=_F32)
            table[:-1] = dens.reshape(-1, ks)
        return table

    # -- accelerated phases -------------------------------------------------
    #
    # Box sets and padded layouts come from ``plan`` (they carry its
    # ownership scopes).  Surfaces are the plan's centre + level points —
    # the paper generates them on chip, so they cost no global loads.

    def s2u(self, tree, dens, state, profile, plan) -> None:
        if not self._device_ok("S2U", profile):
            super().s2u(tree, dens, state, profile, plan)
            return
        kern, ns = self.kernel, self.ns
        ks, kt = kern.source_dim, kern.target_dim
        n = tree.point_counts()[_cat(plan.s2u, "group")]
        flops = float((kern.flops_per_pair * ns * n).sum()
                      + 2.0 * n.size * (ns * ks) * (ns * kt))
        gbytes = float(n.sum() * (12.0 + 4.0 * ks) + n.size * ns * ks * 4)
        for up, d in self._columns(state, state["up"], dens):
            table = self._stage_dens(profile, d)
            self.gpu.charge_transfer("S2U", int(n.sum()) * ks * 4)
            for blk in plan.s2u:
                den = table[blk.den_rows].reshape(blk.group.size, -1)
                surf, pts = blk.surf.astype(_F32), blk.pts.astype(_F32)
                chk = pairwise_f32_batch(kern, surf, pts, den)
                up[blk.group] = chk @ self.ops.uc2ue_f32(blk.level).astype(_F32).T
            self.gpu.charge_launch("S2U", flops, gbytes)
            self.gpu.charge_transfer("S2U", n.size * ns * ks * 4)

    def vli(self, tree, lists, state, profile, plan) -> None:
        """FFT-diagonalised V-list with the multiply on the device.

        Per the paper, per-octant FFTs run on the CPU; only the
        frequency-space translation is offloaded, in complex64.  Dense mode
        has no GPU path and falls back to the CPU implementation.  The
        arithmetic is the shared sibling-group routine; the ledger charges
        the device per listed pair (each streams a source and an
        accumulator grid) plus one kernel transform per distinct offset.
        """
        if self.m2l_mode != "fft" or not self._device_ok("VLI", profile):
            super().vli(tree, lists, state, profile, plan)
            return
        fft = self.fft
        kt, ks = self.kernel.target_dim, self.kernel.source_dim
        grid = fft.paper_nfreq * np.dtype(np.complex64).itemsize
        for up, dcheck in self._columns(state, state["up"], state["dcheck"]):
            fft.translate(
                plan.vli_fft, up[:, None, :], dcheck[:, None, :], np.complex64, plan._buffer
            )
            for g in plan.vli_fft:
                # CPU: forward and inverse FFTs
                profile.add_flops(
                    (g.usrc.size * ks + g.utgt.size * kt) * fft.fft_flops_per_box()
                )
                self.gpu.charge_transfer("VLI", g.usrc.size * ks * grid)
                self.gpu.charge_launch(
                    "VLI",
                    g.n_pairs * fft.translate_flops_per_pair(),
                    # low arithmetic intensity: every pair streams a grid
                    g.n_pairs * 2.0 * ks * grid + g.n_offsets * kt * ks * grid,
                )
                self.gpu.charge_transfer("VLI", g.utgt.size * kt * grid)

    def d2t(self, tree, state, profile, plan) -> None:
        if not self._device_ok("D2T", profile):
            super().d2t(tree, state, profile, plan)
            return
        kern, ns = self.kernel, self.ns
        ks, kt = kern.source_dim, kern.target_dim
        n = tree.point_counts()[_cat(plan.d2t, "group")]
        flops = float((kern.flops_per_pair * n * ns).sum())
        gbytes = float(n.sum() * (12.0 + 4.0 * kt) + n.size * ns * ks * 4)
        for dequiv, pad in self._columns(state, state["dequiv"], state["_pot_pad"]):
            with profile.phase("translate"):
                deq = dequiv.astype(_F32)
            self.gpu.charge_transfer("D2T", n.size * ns * ks * 4)
            pot = pad.reshape(-1, kt)
            for blk in plan.d2t:
                pts, surf = blk.pts.astype(_F32), blk.surf.astype(_F32)
                vals = pairwise_f32_batch(kern, pts, surf, deq[blk.group])
                pot[blk.pot_rows] += vals.reshape(*blk.pot_rows.shape, kt)
            self.gpu.charge_launch("D2T", flops, gbytes)
            self.gpu.charge_transfer("D2T", int(n.sum()) * kt * 4)

    def wli(self, tree, lists, state, profile, plan) -> None:
        """W-list on the device when ``accelerate_wx`` is set.

        Source UE surface points are generated on the fly (as in S2U);
        only the target particles and up densities cross global memory:
        one density fetch per kept (leaf, far box) pair, one read of each
        target leaf's points and one write of its potentials.
        """
        if not self.accelerate_wx or not self._device_ok("WLI", profile):
            super().wli(tree, lists, state, profile, plan)
            return
        kern, ns = self.kernel, self.ns
        ks, kt = kern.source_dim, kern.target_dim
        counts = tree.point_counts()
        leaves = _cat(plan.wli, "rows")
        flops = float(kern.pair_flops(counts[leaves], ns).sum())
        gbytes = float(leaves.size * ns * ks * 4
                       + (counts[np.unique(leaves)] * (12 + 4 * kt)).sum())
        for up, pad in self._columns(state, state["up"], state["_pot_pad"]):
            with profile.phase("translate"):
                up32 = up.astype(_F32)
            pot = pad.reshape(-1, kt)
            for blk in plan.wli:
                pts, surf = blk.pts.astype(_F32), blk.surf.astype(_F32)
                vals = pairwise_f32_batch(kern, pts, surf, up32[blk.cols])
                sums = np.add.reduceat(vals[blk.order], blk.starts, axis=0)
                pot[blk.pot_rows] += sums.reshape(*blk.pot_rows.shape, kt)
            self.gpu.charge_launch("WLI", flops, gbytes)

    def xli(self, tree, lists, dens, state, profile, plan) -> None:
        """X-list on the device when ``accelerate_wx`` is set.

        Target DC surface points are generated on the fly; the leaf source
        particles and densities stream from global memory once per pair,
        and each far box writes its check potentials once.
        """
        if not self.accelerate_wx or not self._device_ok("XLI", profile):
            super().xli(tree, lists, dens, state, profile, plan)
            return
        kern, ns = self.kernel, self.ns
        ks, kt = kern.source_dim, kern.target_dim
        n = tree.point_counts()[_cat(plan.xli, "cols")]
        flops = float(kern.pair_flops(ns, n).sum())
        far = np.unique(_cat(plan.xli, "seg"))
        gbytes = float((n * (12 + 4 * ks)).sum() + far.size * ns * kt * 4)
        for dcheck, d in self._columns(state, state["dcheck"], dens):
            table = self._stage_dens(profile, d)
            for blk in plan.xli:
                den = table[blk.den_rows].reshape(blk.rows.size, -1)
                surf, pts = blk.surf.astype(_F32), blk.pts.astype(_F32)
                vals = pairwise_f32_batch(kern, surf, pts, den)
                dcheck[blk.seg] += np.add.reduceat(vals[blk.order], blk.starts, axis=0)
            self.gpu.charge_launch("XLI", flops, gbytes)

    def uli(self, tree, lists, dens, state, profile, plan) -> None:
        """Algorithm 4: the U-list on the device.

        Each block's stored sources are one tile into its own targets; the
        slots its in-scope higher neighbours read transposed come from the
        same tile, contracted transposed, and are added point by point.  The
        charge is the padded stream's: every target leaf against its
        *whole* non-empty U-list, the whole density vector up and the
        padded target rows back.
        """
        if not self._device_ok("ULI", profile):
            super().uli(tree, lists, dens, state, profile, plan)
            return
        kern, kt = self.kernel, self.kernel.target_dim
        counts = tree.point_counts()
        boxes = _cat(plan.uli, "boxes")
        urows, ucols = lists.u.pairs()
        n_src = np.bincount(urows, counts[ucols], tree.n_nodes).astype(np.int64)
        flops, gbytes, rows = uli_charge(kern, self.gpu.block_size, counts[boxes], n_src[boxes])
        for d, pad in self._columns(state, dens, state["_pot_pad"]):
            table = self._stage_dens(profile, d)
            self.gpu.charge_transfer("ULI", d.size * 4)
            pot = pad.reshape(-1, kt)
            for blk in plan.uli:
                b = blk.boxes.size
                tgt, src = blk.tgt_pts.astype(_F32), blk.src_pts.astype(_F32)
                den = table[blk.den_rows].reshape(b, -1)
                if blk.t_sel.size:  # the same tile, read transposed too
                    back_den = table[blk.pot_rows].reshape(b, -1)
                    vals, back = pairwise_f32_both(kern, tgt, src, den, back_den)
                else:
                    vals, back = pairwise_f32_batch(kern, tgt, src, den), None
                pot[blk.pot_rows] += vals.reshape(b, blk.tp, kt)
                if back is not None:  # a point's reads land one by one, in slot order
                    np.add.at(pot, blk.t_rows, back.reshape(-1, kt)[blk.t_sel])
            self.gpu.charge_launch("ULI", flops, gbytes)
            self.gpu.charge_transfer("ULI", rows * kt * 4)
