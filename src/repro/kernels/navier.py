"""Navier (linear elastostatics) kernel — the Kelvin solution.

``U_ab(x, y) = 1 / (16 pi mu (1 - nu)) * ((3 - 4 nu) delta_ab / r
+ r_a r_b / r^3)`` with ``r = x - y``: the fundamental solution of the
Navier-Cauchy equations for an isotropic elastic solid.  A vector kernel
(3 dof per point, the displacement field of point forces), homogeneous
of degree -1 and non-oscillatory — squarely in the class the
kernel-independent FMM covers (Ying et al. 2004 list it among their
supported kernels).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import Kernel
from repro.kernels.stokes import fill_point_force

__all__ = ["NavierKernel"]


class NavierKernel(Kernel):
    name = "navier"
    source_dim = 3
    target_dim = 3
    homogeneity = -1.0
    flops_per_pair = 75
    #: Same conditioning class as the Stokeslet.
    default_rcond = 1e-7
    transpose_symmetric = True

    def __init__(self, shear_modulus: float = 1.0, poisson: float = 0.3):
        if shear_modulus <= 0:
            raise ValueError("shear modulus must be positive")
        if not -1.0 < poisson < 0.5:
            raise ValueError("Poisson ratio must be in (-1, 0.5)")
        self.shear_modulus = float(shear_modulus)
        self.poisson = float(poisson)
        self._scale = 1.0 / (16.0 * np.pi * self.shear_modulus * (1.0 - self.poisson))
        self._diag = 3.0 - 4.0 * self.poisson

    def _fill(self, d, r2, tmp, dst) -> None:
        fill_point_force(d, r2, tmp, dst, self._diag, self._scale)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NavierKernel(shear_modulus={self.shear_modulus}, "
            f"poisson={self.poisson})"
        )
