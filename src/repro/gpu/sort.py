"""Virtual-GPU radix sort of Morton keys (paper future work).

The paper's conclusions list "the acceleration of the setup phase using
GPU-accelerated sorting and tree construction" as the next step.  This
module provides that step for the virtual device: a least-significant-
digit radix sort of 64-bit Morton keys with an index payload, charged
under the device model (radix histogram/scatter passes are bandwidth
bound: each pass streams keys + payload through global memory).
"""

from __future__ import annotations

import numpy as np

from repro.gpu.device import VirtualGpu

__all__ = ["gpu_radix_argsort", "RADIX_BITS"]

#: Digit width per pass: 8 bits -> 8 passes over 64-bit Morton keys.
RADIX_BITS = 8


def gpu_radix_argsort(
    gpu: VirtualGpu, keys: np.ndarray, phase: str = "sort"
) -> np.ndarray:
    """Permutation sorting ``keys`` ascending, computed "on the device".

    Numerics use a stable host argsort (bit-identical to an LSD radix
    sort); the device ledger is charged for the real algorithm: per pass,
    one histogram read of the keys and one scatter of (key, index) pairs
    — ``ceil(64 / RADIX_BITS)`` passes, bandwidth bound.
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    n = keys.size
    passes = -(-64 // RADIX_BITS)
    bytes_per_pass = n * (8 + 8 + 4)  # key read + key write + index write
    flops = float(passes * n * 4)  # digit extract + histogram update
    gbytes = float(passes * bytes_per_pass)
    gpu.charge_launch(phase, flops, gbytes)
    gpu.charge_transfer(phase, keys.nbytes)
    order = np.argsort(keys, kind="stable")
    gpu.charge_transfer(phase, order.nbytes)
    return order
