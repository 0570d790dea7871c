"""GPU-accelerated FMM evaluator.

Subclasses :class:`FmmEvaluator`, overriding exactly the phases the paper
accelerates — S2U, VLI (diagonal translation; FFTs remain on the CPU),
D2T and ULI — with virtual-device phases.  U2U, D2D, W- and X-lists stay
on the CPU, matching the paper's implementation ("The U2U and D2D
traversals and XLI, WLI remain sequential"), unless ``accelerate_wx``
moves W and X onto the device too.

A device phase is the float32 plan's own apply: the compiled
:class:`~repro.core.plan.EvalPlan` read at ``precision="fp32"`` runs the
phase over the blocks, padded rows and scatter schedules every apply
reads — float32 kernel blocks, gathers and GEMMs, complex64 V-list
translation, float64 accumulators and ``uc2ue`` post-multiply — so the
device and an fp32 CPU evaluate are one implementation, bit for bit.  Its
flops go to a scratch profile; the device ledger is charged from the
plan's blocks and the :func:`~repro.core.work.work_table` instead:
Algorithm 4's padded streaming layout is the charge model
(:func:`uli_charge`), not a data structure.  Staging the
float32 inputs runs under the ``translate`` phase so its (minor) cost is
visible, as in the paper's analysis.  A multi-RHS block runs each device
phase once and charges the ledger once per column, in column order,
exactly what one evaluate per column charges.
"""

from __future__ import annotations

import logging
from dataclasses import replace

import numpy as np

from repro.core.evaluator import FmmEvaluator
from repro.core.work import work_table
from repro.gpu.device import GpuDeviceFault, VirtualGpu
from repro.kernels.base import Kernel
from repro.util import morton
from repro.util.timer import PhaseProfile

__all__ = ["GpuFmmEvaluator"]

_log = logging.getLogger("repro.gpu")


def _cat(blocks, attr: str) -> np.ndarray:
    """The ``attr`` node arrays of a plan section's blocks, end to end."""
    return np.concatenate([getattr(b, attr) for b in blocks] + [np.zeros(0, np.int64)])


def uli_charge(kernel: Kernel, block: int, n_tgt: np.ndarray, n_src: np.ndarray):
    """``(flops, gbytes, padded target rows)`` of Algorithm 4 over leaves
    with ``n_tgt`` points whose non-empty U-lists hold ``n_src`` points.

    A thread block of ``block`` threads owns ``block`` (padded) targets
    of a leaf and sweeps the sources of the leaf's whole non-empty U-list
    in shared-memory tiles of ``block``, loading every source tile once
    (16 bytes per source point).  Flops count the padded target rows
    against the padded source tiles: padding is real work on a real
    device, which is what makes the points-per-box sweep of Table III
    reproduce its U-shape.  Every term is an integer, so the sums are
    exact.
    """
    tiles = -(-n_tgt // block)
    rows = tiles * block
    spad = -(-np.maximum(n_src, 1) // block) * block
    flops = float((kernel.flops_per_pair * rows * np.where(n_src > 0, spad, 0)).sum())
    per_leaf = tiles * (n_src * 16.0) + rows * (12.0 + 4.0 * kernel.target_dim)
    gbytes = float(np.where(n_src > 0, per_leaf, 0.0).sum())
    return flops, gbytes, int(rows.sum())


class GpuFmmEvaluator(FmmEvaluator):
    """Drop-in evaluator that offloads S2U / VLI / D2T / ULI to a GPU.

    ``accelerate_wx`` additionally moves the W- and X-list phases onto the
    device — the paper's stated *ongoing work* ("transferring the W,X-lists
    on the GPU"), implemented here as an optional extension.  The default
    matches the paper's configuration (W/X on the CPU).  ``gpu`` is the
    :class:`~repro.gpu.device.VirtualGpu` to charge (a fresh one by
    default; :class:`~repro.dist.driver.DistributedFmm` passes each rank
    its own); ``precision`` is
    :class:`~repro.core.evaluator.FmmEvaluator`'s.  The V-list is the
    FFT-diagonal one, and the pseudo-inverses use the kernel's
    ``default_rcond``, as every evaluator's do.
    """

    def __init__(
        self,
        kernel: Kernel,
        order: int,
        gpu: VirtualGpu | None = None,
        accelerate_wx: bool = False,
        precision: str = "fp64",
    ):
        super().__init__(kernel, order, precision=precision)
        self.gpu = gpu if gpu is not None else VirtualGpu()
        self.accelerate_wx = bool(accelerate_wx)

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

    def _run(self, plan, phase: str, *args) -> None:
        """Apply ``phase`` of ``plan`` read at float32 (its reserved blocks
        are read and filled only when they are float32), charging its
        flops to a scratch profile: the device's work is the ledger's."""
        apply = getattr(replace(plan, precision="fp32"), f"apply_{phase}")
        apply(self, *args, PhaseProfile(), pool=self.task_pool)

    @staticmethod
    def _stage(profile, a: np.ndarray) -> np.ndarray:
        """``a`` rounded to float32 under the ``translate`` span: the
        one rounding the fp32 apply would make, done before the phase."""
        with profile.phase("translate"):
            return a.astype(np.float32)

    @staticmethod
    def _ncols(state) -> int:
        """Right-hand sides in ``state``: one per ledger charge sequence."""
        up = state["up"]
        return 1 if up.ndim == 2 else up.shape[1]

    # -- accelerated phases -------------------------------------------------
    #
    # Box sets come from ``plan`` (they carry its ownership scopes).
    # Surfaces are generated on chip in the paper, so they cost no global
    # loads.

    def s2u(self, tree, dens, state, profile, plan) -> None:
        if not self._device_ok("S2U", profile):
            return super().s2u(tree, dens, state, profile, plan)
        ns, ks = self.ns, self.kernel.source_dim
        n = tree.point_counts()[_cat(plan.s2u, "group")]
        gbytes = float(n.sum() * (12.0 + 4.0 * ks) + n.size * ns * ks * 4)
        self._run(plan, "s2u", self._stage(profile, dens), state)
        for _ in range(self._ncols(state)):
            self.gpu.charge_transfer("S2U", int(n.sum()) * ks * 4)
            self.gpu.charge_launch("S2U", sum(b.flops for b in plan.s2u), gbytes)
            self.gpu.charge_transfer("S2U", n.size * ns * ks * 4)

    def vli(self, tree, lists, state, profile, plan) -> None:
        """FFT-diagonalised V-list with the multiply on the device.

        Per the paper, per-octant FFTs run on the CPU; only the
        frequency-space translation is offloaded, in complex64.  The
        ledger charges the device per listed pair (each streams a source
        and an accumulator grid) plus one kernel transform per distinct
        offset.
        """
        if not self._device_ok("VLI", profile):
            return super().vli(tree, lists, state, profile, plan)
        fft = self.fft
        kt, ks = self.kernel.target_dim, self.kernel.source_dim
        grid = fft.paper_nfreq * np.dtype(np.complex64).itemsize
        self._run(plan, "vli_fft", state)
        for _ in range(self._ncols(state)):
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
            return super().d2t(tree, state, profile, plan)
        ns, ks, kt = self.ns, self.kernel.source_dim, self.kernel.target_dim
        n = tree.point_counts()[_cat(plan.d2t, "group")]
        gbytes = float(n.sum() * (12.0 + 4.0 * kt) + n.size * ns * ks * 4)
        self._run(plan, "d2t", {**state, "dequiv": self._stage(profile, state["dequiv"])})
        for _ in range(self._ncols(state)):
            self.gpu.charge_transfer("D2T", n.size * ns * ks * 4)
            self.gpu.charge_launch("D2T", sum(b.flops for b in plan.d2t), gbytes)
            self.gpu.charge_transfer("D2T", int(n.sum()) * kt * 4)

    def wli(self, tree, lists, state, profile, plan) -> None:
        """W-list on the device when ``accelerate_wx`` is set.

        Source UE surface points are generated on the fly (as in S2U);
        only the target particles and up densities cross global memory:
        one density fetch per kept (leaf, far box) pair, one read of each
        target leaf's points and one write of its potentials.  The W pairs
        ULI evaluates point to point add their flops (``direct_flops``).
        """
        if not self.accelerate_wx or not self._device_ok("WLI", profile):
            return super().wli(tree, lists, state, profile, plan)
        ns, ks, kt = self.ns, self.kernel.source_dim, self.kernel.target_dim
        leaves = _cat(plan.wli, "rows")
        gbytes = float(leaves.size * ns * ks * 4
                       + (tree.point_counts()[morton.sorted_unique(leaves)] * (12 + 4 * kt)).sum())
        self._run(plan, "wli", {**state, "up": self._stage(profile, state["up"])})
        for _ in range(self._ncols(state)):
            self.gpu.charge_launch("WLI", sum(b.flops for b in plan.wli)
                                   + plan.direct_flops["WLI"], gbytes)

    def xli(self, tree, lists, dens, state, profile, plan) -> None:
        """X-list on the device when ``accelerate_wx`` is set.

        Target DC surface points are generated on the fly; the leaf source
        particles and densities stream from global memory once per pair,
        and each far box writes its check potentials once.  The X pairs
        ULI evaluates point to point add their flops (``direct_flops``).
        """
        if not self.accelerate_wx or not self._device_ok("XLI", profile):
            return super().xli(tree, lists, dens, state, profile, plan)
        ns, ks, kt = self.ns, self.kernel.source_dim, self.kernel.target_dim
        n = tree.point_counts()[_cat(plan.xli, "cols")]
        far = morton.sorted_unique(_cat(plan.xli, "seg"))
        gbytes = float((n * (12 + 4 * ks)).sum() + far.size * ns * kt * 4)
        self._run(plan, "xli", self._stage(profile, dens), state)
        for _ in range(self._ncols(state)):
            self.gpu.charge_launch("XLI", sum(b.flops for b in plan.xli)
                                   + plan.direct_flops["XLI"], gbytes)

    def uli(self, tree, lists, dens, state, profile, plan) -> None:
        """Algorithm 4: the U-list on the device.

        The arithmetic is the fp32 apply's: each block's stored sources
        into its own targets, the same block read transposed for the
        in-scope higher neighbours.  The charge is the padded stream's:
        every target leaf against its *whole* non-empty U-list, the whole
        density vector up and the padded target rows back.
        """
        if not self._device_ok("ULI", profile):
            return super().uli(tree, lists, dens, state, profile, plan)
        kern, kt = self.kernel, self.kernel.target_dim
        t = work_table(tree, lists)
        boxes = _cat(plan.uli, "boxes")
        flops, gbytes, rows = uli_charge(kern, self.gpu.block_size, t.pts[boxes], t.u_src[boxes])
        self._run(plan, "uli", self._stage(profile, dens), state)
        for _ in range(self._ncols(state)):
            self.gpu.charge_transfer("ULI", len(dens) * 4)
            self.gpu.charge_launch("ULI", flops, gbytes)
            self.gpu.charge_transfer("ULI", rows * kt * 4)
