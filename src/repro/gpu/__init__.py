"""Virtual GPU acceleration (paper §IV).

The CUDA layer is reproduced as a *virtual device*: the accelerated
phases run their real numerics in single precision (as the paper's CUDA
code did) — the compiled plan's own applies, read at ``precision="fp32"``
— while a device performance model (S1070-era constants) converts the
flops, global-memory traffic and PCIe transfers that the paper's padded
streaming layout (Algorithm 4) would incur, counted from the plan, into
modelled times.  That ledger is the GPU layer's only state.  The accelerated
phases are the paper's: S2U, VLI (frequency-space diagonal translation;
FFTs stay on the CPU), ULI (Algorithm 4) and D2T.  U2U, D2D, W- and
X-lists remain on the CPU, exactly as in the paper's implementation
(``accelerate_wx`` moves W and X onto the device, the paper's ongoing
work).
"""

from repro.gpu.device import DeviceModel, GpuLedger, TESLA_S1070, VirtualGpu
from repro.gpu.accel import GpuFmmEvaluator

__all__ = [
    "DeviceModel",
    "GpuLedger",
    "TESLA_S1070",
    "VirtualGpu",
    "GpuFmmEvaluator",
]
