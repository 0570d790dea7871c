"""Laplace single-layer kernel ``K(x, y) = 1 / (4 pi |x - y|)``.

The fundamental solution of the 3-D Laplace equation: the electrostatic /
gravitational potential kernel used throughout the paper's GPU experiments.
Homogeneous of degree -1.

An optional Plummer softening ``eps`` replaces ``|x-y|`` with
``sqrt(|x-y|^2 + eps^2)`` — the standard collisionless N-body
regularisation.  A softened kernel is smooth and non-oscillatory, so the
kernel-independent machinery handles it unchanged (it is, however, no
longer homogeneous, so operators are cached per level).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import Kernel

__all__ = ["LaplaceKernel"]

_FOUR_PI_INV = 1.0 / (4.0 * np.pi)


class LaplaceKernel(Kernel):
    name = "laplace"
    source_dim = 1
    target_dim = 1
    homogeneity = -1.0
    #: sub(3) + mul(3) + add(2) + rsqrt(~4) + scale/accumulate(~8): the
    #: conventional ~20 flops/pair charge of GPU N-body literature.
    flops_per_pair = 20
    transpose_symmetric = True

    def __init__(self, softening: float = 0.0):
        if softening < 0:
            raise ValueError("softening must be non-negative")
        self.softening = float(softening)
        if self.softening > 0.0:
            self.homogeneity = None  # softened kernel has a length scale

    def _fill(self, d, r2, tmp, dst) -> None:
        out = dst[:, :, 0, :, 0]
        if self.softening > 0.0:
            np.add(r2, self.softening**2, out=r2)
            np.divide(_FOUR_PI_INV, np.sqrt(r2, out=r2), out=out)
            return
        r = np.sqrt(r2, out=r2)
        np.divide(_FOUR_PI_INV, r, out=out)
        out[r == 0.0] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LaplaceKernel(softening={self.softening})"
