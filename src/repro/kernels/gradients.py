"""Gradient (field / force) evaluation kernels.

The KIFMM's equivalent densities reproduce the *potential field* of the
true sources; any derivative of that field is reproduced too.  Supplying
a gradient kernel for the target-side phases (D2T, W-list, U-list) turns
the same upward/downward machinery into a force evaluator:

    E_a(x) = d/dx_a K(x, y)   applied to equivalent densities / sources.

This is how production FMM codes (including the authors' kifmm3d) compute
potentials and forces from one pass.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import Kernel

__all__ = ["LaplaceGradientKernel"]


class LaplaceGradientKernel(Kernel):
    """``grad_x [1 / (4 pi |x-y|)] = -(x - y) / (4 pi |x-y|^3)``.

    Maps a scalar source density to the 3-vector potential gradient at
    each target (negate for the electrostatic field / gravitational
    acceleration convention).  Optional Plummer softening matches
    :class:`repro.kernels.LaplaceKernel`'s: the gradient of the softened
    potential is ``-(x - y) / (4 pi (|x-y|^2 + eps^2)^{3/2})``.
    """

    name = "laplace-gradient"
    source_dim = 1
    target_dim = 3
    homogeneity = -2.0
    flops_per_pair = 26

    def __init__(self, softening: float = 0.0):
        if softening < 0:
            raise ValueError("softening must be non-negative")
        self.softening = float(softening)
        if self.softening > 0.0:
            self.homogeneity = None

    def _fill(self, d, r2, tmp, dst) -> None:
        rinv3, w = tmp
        np.add(r2, self.softening**2, out=r2)
        np.power(r2, -1.5, out=rinv3)
        rinv3[r2 == 0.0] = 0.0
        for a in range(3):
            np.negative(d[a], out=w)
            np.multiply(w, rinv3, out=w)
            np.divide(w, 4.0 * np.pi, out=dst[:, :, a, :, 0])
