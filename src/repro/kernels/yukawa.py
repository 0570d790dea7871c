"""Yukawa (screened Laplace) kernel ``exp(-lambda r) / (4 pi r)``.

A non-oscillatory kernel that is *not* homogeneous: translation operators
must be computed per octree level instead of rescaled, which exercises the
kernel-independent operator cache on its general code path.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import Kernel

__all__ = ["YukawaKernel"]

_FOUR_PI_INV = 1.0 / (4.0 * np.pi)


class YukawaKernel(Kernel):
    name = "yukawa"
    source_dim = 1
    target_dim = 1
    homogeneity = None
    flops_per_pair = 26  # Laplace charge + exponential
    transpose_symmetric = True

    def __init__(self, lam: float = 1.0):
        if lam < 0:
            raise ValueError("screening parameter lam must be non-negative")
        self.lam = float(lam)

    def _fill(self, d, r2, tmp, dst) -> None:
        out = dst[:, :, 0, :, 0]
        r = np.sqrt(r2, out=r2)
        w = np.multiply(-self.lam, r, out=tmp[0])
        np.exp(w, out=w)
        np.multiply(_FOUR_PI_INV, w, out=w)
        np.divide(w, r, out=out)
        out[r == 0.0] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"YukawaKernel(lam={self.lam})"
