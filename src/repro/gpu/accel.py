"""GPU-accelerated FMM evaluator.

Subclasses :class:`FmmEvaluator`, overriding exactly the phases the paper
accelerates — S2U, VLI (diagonal translation; FFTs remain on the CPU),
D2T and ULI — with virtual-device kernels.  U2U, D2D, W- and X-lists stay
on the CPU, matching the paper's implementation ("The U2U and D2D
traversals and XLI, WLI remain sequential").

The CPU->GPU data-structure translation runs per evaluation and is timed
under the ``translate`` phase so its (minor) cost is visible, as in the
paper's analysis.
"""

from __future__ import annotations

import logging

import numpy as np

from repro.core.evaluator import FmmEvaluator
from repro.core.tree import concat_ranges
from repro.gpu.device import GpuDeviceFault, VirtualGpu
from repro.gpu.kernels import gpu_d2t, gpu_s2u, gpu_uli
from repro.gpu.translate import build_leaf_stream, build_u_stream
from repro.kernels.base import Kernel

__all__ = ["GpuFmmEvaluator"]

_log = logging.getLogger("repro.gpu")


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
        # the dual-kernel (gradient) evaluation path is CPU-only
        assert self.eval_kernel is self.kernel

    #: Lazily compiled plans skip host-side kernel-matrix caches: the
    #: device kernels regenerate surface geometry on chip, so the cached
    #: blocks would never be read on the accelerated phases.
    PLAN_CACHE_MATRICES = False

    #: Device staging moves one density vector per transfer; multi-RHS
    #: blocks fall back to a bit-identical per-column loop (see
    #: ``FmmEvaluator.evaluate``).
    SUPPORTS_MULTI_RHS = False

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _plan_cache(plan, key, builder):
        """Density-independent GPU staging schedule, cached on the plan."""
        val = plan.gpu.get(key)
        if val is None:
            val = plan.gpu[key] = builder()
        return val

    @staticmethod
    def _boxes_mask(tree, groups) -> np.ndarray:
        sel = np.zeros(tree.n_nodes, dtype=bool)
        for g in groups:
            sel[g] = True
        return sel

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

    # -- accelerated phases -------------------------------------------------
    #
    # Box sets come from ``plan`` (they carry its ownership scopes); the
    # device stream and the flat gather/scatter rows built from them are
    # density-independent and cached on the plan, so repeated applies
    # stage densities with one fancy index.

    def s2u(self, tree, dens, state, profile, plan) -> None:
        if not self._device_ok("S2U", profile):
            super().s2u(tree, dens, state, profile, plan)
            return

        def _stage():
            sel = self._boxes_mask(tree, (b.group for b in plan.s2u))
            stream = build_leaf_stream(tree, sel)
            return stream, tree.point_rows(stream.boxes)

        with profile.phase("translate"):
            stream, rows = self._plan_cache(plan, "s2u", _stage)
            ks = self.kernel.source_dim
            flat = dens.reshape(tree.n_points, ks)[rows].reshape(-1)
        dens_dev = self.gpu.to_device(flat, phase="S2U")
        up32 = gpu_s2u(
            self.gpu, stream, dens_dev, stream.pt_offsets, self.kernel, self.ops
        )
        up_host = self.gpu.to_host(up32, phase="S2U")
        state["up"][stream.boxes] = up_host
        profile.add_flops(0.0)  # CPU does no arithmetic here

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
        up, dcheck = state["up"][:, None, :], state["dcheck"][:, None, :]
        fft = self.fft
        kt, ks = self.kernel.target_dim, self.kernel.source_dim
        grid = fft.paper_nfreq * np.dtype(np.complex64).itemsize
        ledger, model = self.gpu.ledger, self.gpu.model
        fft.translate(plan.vli_fft, up, dcheck, np.complex64, plan._buffer)
        for g in plan.vli_fft:
            # CPU: forward and inverse FFTs
            profile.add_flops(
                (g.usrc.size * ks + g.utgt.size * kt) * fft.fft_flops_per_box()
            )
            nbytes = g.usrc.size * ks * grid
            ledger.charge_transfer("VLI", model.transfer_seconds(nbytes), nbytes)
            self.gpu.charge_launch(
                "VLI",
                g.n_pairs * fft.translate_flops_per_pair(),
                # low arithmetic intensity: every pair streams a grid
                g.n_pairs * 2.0 * ks * grid + g.n_offsets * kt * ks * grid,
            )
            nbytes = g.utgt.size * kt * grid
            ledger.charge_transfer("VLI", model.transfer_seconds(nbytes), nbytes)

    def d2t(self, tree, state, profile, plan) -> None:
        if not self._device_ok("D2T", profile):
            super().d2t(tree, state, profile, plan)
            return
        kt = self.kernel.target_dim

        # Device results come back contiguous in stream order, so the
        # cached target-point rows scatter them in one fancy add.
        def _stage():
            sel = self._boxes_mask(tree, (b.group for b in plan.d2t))
            stream = build_leaf_stream(tree, sel)
            return stream, tree.point_rows(stream.boxes)

        with profile.phase("translate"):
            stream, rows = self._plan_cache(plan, "d2t", _stage)
        deq_dev = self.gpu.to_device(
            state["dequiv"][stream.boxes], phase="D2T"
        )
        pot32 = gpu_d2t(self.gpu, stream, deq_dev, self.kernel, self.ops)
        pot_host = self.gpu.to_host(pot32, phase="D2T")
        state["pot"].reshape(-1, kt)[rows] += pot_host.reshape(-1, kt)

    def wli(self, tree, lists, state, profile, plan) -> None:
        """W-list on the device when ``accelerate_wx`` is set.

        Source UE surface points are generated on the fly (as in S2U);
        only the target particles and up densities cross global memory.
        The device path is per-box: the list is walked on the fly and a
        source counts iff the plan kept the pair (non-empty on some rank),
        whatever its density happens to be.
        """
        if not self.accelerate_wx or not self._device_ok("WLI", profile):
            super().wli(tree, lists, state, profile, plan)
            return
        from repro.gpu.kernels import pairwise_f32

        kt = self.kernel.target_dim
        up, pot = state["up"], state["pot"]
        w = lists.w
        flops = 0.0
        gbytes = 0.0
        kept = self._plan_cache(plan, "wli", lambda: {
            pair for blk in plan.wli
            for pair in zip(blk.rows.tolist(), blk.cols.tolist())})
        for i in sorted({i for i, _ in kept}):
            pts = tree.leaf_points(i).astype(np.float32)
            row = np.zeros(len(pts) * kt, dtype=np.float32)
            for a in w.of(i).tolist():
                if (i, a) not in kept:
                    continue
                ue = self.ops.ue_points(tree.levels[a], tree.centers[a]).astype(
                    np.float32
                )
                row += pairwise_f32(
                    self.kernel, pts, ue, up[a].astype(np.float32)
                )
                flops += self.kernel.pair_flops(len(pts), self.ns)
                gbytes += up[a].nbytes / 2  # float32 density fetch
            pot[tree.pt_begin[i] * kt : tree.pt_end[i] * kt] += row.astype(
                np.float64
            )
            gbytes += pts.nbytes + row.nbytes
        self.gpu.charge_launch("WLI", flops, gbytes)

    def xli(self, tree, lists, dens, state, profile, plan) -> None:
        """X-list on the device when ``accelerate_wx`` is set.

        Target DC surface points are generated on the fly; ghost-leaf
        source particles stream from global memory.  Per-box, like the
        device W-list: the plan names the target boxes (those with at
        least one non-empty X-list source).
        """
        if not self.accelerate_wx or not self._device_ok("XLI", profile):
            super().xli(tree, lists, dens, state, profile, plan)
            return
        from repro.gpu.kernels import pairwise_f32

        ks = self.kernel.source_dim
        dcheck = state["dcheck"]
        counts = tree.point_counts()
        x = lists.x
        flops = 0.0
        gbytes = 0.0
        segs = [blk.seg for blk in plan.xli]
        for i in np.unique(np.concatenate(segs)) if segs else ():
            dc = self.ops.dc_points(tree.levels[i], tree.centers[i]).astype(
                np.float32
            )
            acc = np.zeros(dcheck.shape[1], dtype=np.float32)
            for a in x.of(i):
                if counts[a] == 0:
                    continue
                pts = tree.points[tree.pt_begin[a] : tree.pt_end[a]].astype(
                    np.float32
                )
                den = dens[
                    tree.pt_begin[a] * ks : tree.pt_end[a] * ks
                ].astype(np.float32)
                acc += pairwise_f32(self.kernel, dc, pts, den)
                flops += self.kernel.pair_flops(self.ns, len(pts))
                gbytes += pts.nbytes + den.nbytes
            dcheck[i] += acc.astype(np.float64)
            gbytes += acc.nbytes
        self.gpu.charge_launch("XLI", flops, gbytes)

    def uli(self, tree, lists, dens, state, profile, plan) -> None:
        if not self._device_ok("ULI", profile):
            super().uli(tree, lists, dens, state, profile, plan)
            return
        kt = self.kernel.target_dim

        # Device targets are padded to block multiples, so unlike D2T
        # both sides of the scatter need cached row arrays: dst rows
        # into the potential table, src rows into the device result.
        def _stage():
            sel = self._boxes_mask(tree, (b.boxes for b in plan.uli))
            stream = build_u_stream(tree, lists, self.gpu.block_size, sel)
            src = concat_ranges(stream.tgt_offsets[:-1], tree.point_counts()[stream.boxes])
            return stream, tree.point_rows(stream.boxes), src

        with profile.phase("translate"):
            stream, dst, src = self._plan_cache(plan, "uli", _stage)
        dens_dev = self.gpu.to_device(dens, phase="ULI")
        pot32 = gpu_uli(self.gpu, stream, dens_dev, self.kernel)
        pot_host = self.gpu.to_host(pot32, phase="ULI")
        state["pot"].reshape(-1, kt)[dst] += pot_host.reshape(-1, kt)[src]
