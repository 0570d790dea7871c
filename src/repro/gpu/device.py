"""The virtual GPU: device model, ledger, and execution bookkeeping.

A kernel launch on the virtual device is charged

    t = overhead + max(flops / peak_flops, global_bytes / mem_bandwidth)

— the classic roofline: ULI (many flops per byte) lands compute-bound,
the VLI diagonal translation (one multiply per loaded complex value; the
paper: "the ratio between computation and memory fetches is small") lands
bandwidth-bound.  Host/device transfers are charged at PCIe bandwidth.

Numerics run in ``float32``: the paper's GPU path is single precision
("the GPU acceleration is implemented in single precision").  The
device phases are the fp32 plan's applies, whose relative deviation from
the float64 CPU result measures 1e-7 to 4e-7 on Laplace order 4 and 6
clouds of 2 000 to 20 000 points, 6e-7 on Stokes order 6 and 8e-6 to
9e-6 on Stokes order 4; tests bound it at 5e-4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DeviceModel",
    "GpuDeviceFault",
    "GpuLedger",
    "VirtualGpu",
    "TESLA_S1070",
]


class GpuDeviceFault(RuntimeError):
    """The virtual device failed (injected ECC error or OOM).

    Raised by :meth:`VirtualGpu.check_phase` at the *entry* of an
    accelerated phase — before any state mutation — so the caller can
    fall back to the CPU path for that phase cleanly.  Once a fault
    fires, :attr:`VirtualGpu.failed` stays set: the device is gone for
    the rest of the run and every subsequent phase degrades to the CPU.
    """

    def __init__(self, kind: str, phase: str):
        super().__init__(f"virtual GPU fault ({kind}) at phase {phase}")
        self.kind = kind
        self.phase = phase


@dataclass(frozen=True)
class DeviceModel:
    """Performance constants of one GPU."""

    name: str
    peak_flops: float  # sustained single-precision flop/s on N-body kernels
    mem_bandwidth: float  # global memory bytes/s
    pcie_bandwidth: float  # host <-> device bytes/s
    launch_overhead: float  # seconds per kernel launch

    def kernel_seconds(self, flops: float, gbytes: float) -> float:
        return self.launch_overhead + max(
            flops / self.peak_flops, gbytes / self.mem_bandwidth
        )

    def transfer_seconds(self, nbytes: float) -> float:
        return nbytes / self.pcie_bandwidth


#: NVIDIA Tesla S1070 (paper's Lincoln): ~345 GFlop/s single-precision
#: multiply-add peak per GPU; ~100 GB/s; PCIe gen2 x8 effective ~3 GB/s.
TESLA_S1070 = DeviceModel(
    "tesla-s1070",
    peak_flops=200e9,  # sustained on irregular N-body (paper: ~8TF on 256)
    mem_bandwidth=102e9,
    pcie_bandwidth=3e9,
    launch_overhead=10e-6,
)


@dataclass
class GpuLedger:
    """Accumulated device activity, per phase."""

    kernel_seconds: dict[str, float] = field(default_factory=dict)
    kernel_flops: dict[str, float] = field(default_factory=dict)
    kernel_gbytes: dict[str, float] = field(default_factory=dict)
    transfer_seconds: dict[str, float] = field(default_factory=dict)
    transfer_bytes: dict[str, float] = field(default_factory=dict)
    launches: dict[str, int] = field(default_factory=dict)

    def charge_kernel(self, phase: str, seconds: float, flops: float, gbytes: float):
        self.kernel_seconds[phase] = self.kernel_seconds.get(phase, 0.0) + seconds
        self.kernel_flops[phase] = self.kernel_flops.get(phase, 0.0) + flops
        self.kernel_gbytes[phase] = self.kernel_gbytes.get(phase, 0.0) + gbytes
        self.launches[phase] = self.launches.get(phase, 0) + 1

    def charge_transfer(self, phase: str, seconds: float, nbytes: float):
        self.transfer_seconds[phase] = self.transfer_seconds.get(phase, 0.0) + seconds
        self.transfer_bytes[phase] = self.transfer_bytes.get(phase, 0.0) + nbytes

    def phase_seconds(self, phase: str) -> float:
        return self.kernel_seconds.get(phase, 0.0) + self.transfer_seconds.get(
            phase, 0.0
        )

    def total_seconds(self) -> float:
        return sum(self.kernel_seconds.values()) + sum(
            self.transfer_seconds.values()
        )


class VirtualGpu:
    """One simulated accelerator attached to one (virtual) MPI rank."""

    def __init__(self, model: DeviceModel = TESLA_S1070, block_size: int = 256):
        if block_size < 32 or block_size & (block_size - 1):
            raise ValueError("block_size must be a power of two >= 32")
        self.model = model
        self.block_size = int(block_size)
        self.ledger = GpuLedger()
        #: Set once an armed fault fires; the accelerated evaluator then
        #: routes every remaining phase to the CPU (graceful degradation).
        self.failed = False
        self._armed: list[dict] = []

    # -- fault injection ---------------------------------------------------

    def arm_fault(
        self, phase: str = "*", kind: str = "ecc", on_fire=None
    ) -> None:
        """Arm a one-shot device fault for ``phase`` (``"*"`` = any phase).

        The fault fires on the next :meth:`check_phase` whose name
        matches; ``on_fire(phase)`` (if given) is invoked first so chaos
        plans can log the injection deterministically.
        """
        self._armed.append({"phase": phase, "kind": kind, "on_fire": on_fire})

    def check_phase(self, phase: str) -> None:
        """Raise :class:`GpuDeviceFault` if a fault is armed for ``phase``.

        Called by the accelerated evaluator at phase entry, before any
        device work or state mutation, so a fallback re-runs the whole
        phase on the CPU without double-counting partial results.
        """
        if self.failed:
            raise GpuDeviceFault("dead", phase)
        for i, arm in enumerate(self._armed):
            if arm["phase"] in ("*", phase):
                del self._armed[i]
                self.failed = True
                if arm["on_fire"] is not None:
                    arm["on_fire"](phase)
                raise GpuDeviceFault(arm["kind"], phase)

    # -- memory ----------------------------------------------------------

    def to_device(self, arr: np.ndarray, phase: str = "H2D") -> np.ndarray:
        """Copy to the device (demotes to float32, charges PCIe)."""
        dev = np.ascontiguousarray(arr, dtype=np.float32)
        self.charge_transfer(phase, dev.nbytes)
        return dev

    def to_host(self, arr: np.ndarray, phase: str = "D2H") -> np.ndarray:
        """Copy back to the host (float64 promotion on arrival)."""
        self.charge_transfer(phase, arr.nbytes)
        return arr.astype(np.float64)

    def charge_transfer(self, phase: str, nbytes: float) -> None:
        """Account one host <-> device copy of ``nbytes`` at PCIe bandwidth."""
        self.ledger.charge_transfer(
            phase, self.model.transfer_seconds(nbytes), nbytes
        )

    # -- execution ---------------------------------------------------------

    def charge_launch(self, phase: str, flops: float, gbytes: float) -> None:
        """Account one kernel launch under the roofline model."""
        self.ledger.charge_kernel(
            phase, self.model.kernel_seconds(flops, gbytes), flops, gbytes
        )
