"""Stokes single-layer kernel (the Stokeslet).

``G_ab(x, y) = 1/(8 pi mu) * (delta_ab / r + r_a r_b / r^3)`` with
``r = x - y``.  This vector kernel (3 unknowns per point) is the paper's
production kernel for the Kraken runs ("Stokes kernel with three unknowns
per point ... 30 billion potentials").  Homogeneous of degree -1.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import Kernel

__all__ = ["StokesKernel"]


def fill_point_force(d, r2, tmp, dst, diag, scale) -> None:
    """Tile formula ``scale * (diag * delta_ac / r + d_a d_c / r^3)``: the
    shape shared by the point-force fundamental solutions (Stokeslet,
    Kelvin).  Off-diagonal entries still add ``0.0`` so a ``-0.0``
    product does not survive; the tensor is symmetric, so six entries
    are formed and three stored twice."""
    rinv3, w = tmp
    r = np.sqrt(r2, out=r2)
    zero = r == 0.0
    rinv = np.divide(1.0, r, out=r)
    np.power(rinv, 3, out=rinv3)
    rinv[zero] = 0.0
    rinv3[zero] = 0.0
    np.multiply(diag, rinv, out=rinv)
    for a in range(3):
        for c in range(a, 3):
            np.multiply(d[a], d[c], out=w)
            np.multiply(w, rinv3, out=w)
            np.add(w, rinv if a == c else 0.0, out=w)
            np.multiply(w, scale, out=dst[:, :, a, :, c])
            if a != c:
                np.multiply(w, scale, out=dst[:, :, c, :, a])


class StokesKernel(Kernel):
    name = "stokes"
    source_dim = 3
    target_dim = 3
    homogeneity = -1.0
    #: 3x3 tensor contraction per pair: roughly 3x the Laplace charge plus
    #: the dyadic assembly.
    flops_per_pair = 75
    #: The Stokeslet equivalent-density systems are markedly worse
    #: conditioned than scalar ones; a tighter cutoff amplifies noise.
    default_rcond = 1e-7
    transpose_symmetric = True

    def __init__(self, viscosity: float = 1.0):
        if viscosity <= 0:
            raise ValueError("viscosity must be positive")
        self.viscosity = float(viscosity)
        self._scale = 1.0 / (8.0 * np.pi * self.viscosity)

    def _fill(self, d, r2, tmp, dst) -> None:
        fill_point_force(d, r2, tmp, dst, 1.0, self._scale)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StokesKernel(viscosity={self.viscosity})"
