"""FFT-diagonalised V-list (M2L) translation.

Because the UE and DC surfaces use the lattice-compatible scale
``(p-1)/(p-2)`` (see :mod:`repro.core.surfaces`), the displacement between
any target DC point and source UE point of a V-list pair is a vector of the
lattice with spacing ``h = 2 r / (p - 2)``:

    x_t - y_s = h * ((p-2) * offset + (g_t - g_s)),   g in {0..p-1}^3.

The check-potential accumulation is therefore a 3-D *circular convolution*
on a ``(2p)^3`` grid: per box one forward FFT of its (surface-embedded)
upward density, a pointwise multiply with the precomputed kernel transform
of the pair's offset, an accumulation in frequency space over all V-list
sources, and one inverse FFT per target box.  This is exactly the paper's
"diagonal translation (in the frequency space)" that the GPU accelerates.

Tensor kernels (Stokes) carry a small ``(target_dim, source_dim)`` matrix
per frequency; the pointwise multiply becomes a tiny matvec.
"""

from __future__ import annotations

import numpy as np

from repro.core import surfaces
from repro.core.operators import level_half_width
from repro.kernels.base import Kernel

__all__ = ["FftM2L"]

_REF_LEVEL = 2


class FftM2L:
    """Precomputed frequency-domain M2L translators plus grid embeddings."""

    def __init__(self, kernel: Kernel, order: int):
        self.kernel = kernel
        self.order = int(order)
        self.n = 2 * order  # convolution grid size per axis (>= 2p-1)
        self.nf = self.n // 2 + 1  # rfft last-axis length
        self.ns = surfaces.n_surface_points(order)
        # Surface flat indices in the n^3 embedding (p-grid sits at origin).
        ijk = surfaces.surface_lattice(order)
        self._surf_n = (ijk[:, 0] * self.n + ijk[:, 1]) * self.n + ijk[:, 2]
        # Signed wrap of grid indices: m -> m or m - n (circular support).
        m = np.arange(self.n)
        self._wrap = np.where(m < order, m, m - self.n)
        self._that: dict[tuple[int, tuple[int, int, int]], np.ndarray] = {}
        #: Per-(requested level, offset) transforms with the homogeneity
        #: scale folded in.  Bounded by (distinct levels) x 316 offsets; for
        #: non-homogeneous kernels entries alias ``_that`` (scale is 1).
        self._that_scaled: dict[
            tuple[int, tuple[int, int, int]], np.ndarray
        ] = {}

    # -- kernel transforms ----------------------------------------------------

    def _canonical(self, level: int) -> tuple[int, float]:
        h = self.kernel.homogeneity
        if h is None:
            return level, 1.0
        lam = 2.0 ** (_REF_LEVEL - level)
        return _REF_LEVEL, lam**h

    def kernel_hat(self, level: int, offset: tuple[int, int, int]) -> np.ndarray:
        """rfft of the kernel tensor for one V-list offset at one level.

        Shape ``(target_dim, source_dim, n, n, nf)`` complex.  The returned
        array is cached (including the homogeneity rescale to ``level``, so
        repeated calls never re-multiply the full grid) and must not be
        mutated by callers.
        """
        skey = (int(level), tuple(int(o) for o in offset))
        scaled = self._that_scaled.get(skey)
        if scaled is not None:
            return scaled
        lvl, fac = self._canonical(level)
        key = (lvl, skey[1])
        that = self._that.get(key)
        if that is None:
            p = self.order
            h = 2.0 * level_half_width(lvl) / (p - 2)
            d = self._wrap
            disp = np.stack(
                np.meshgrid(d, d, d, indexing="ij"), axis=-1
            ).reshape(-1, 3).astype(np.float64)
            disp = h * ((p - 2) * np.asarray(offset, dtype=np.float64) + disp)
            vals = self.kernel.matrix(disp, np.zeros((1, 3)))
            kt, ks = self.kernel.target_dim, self.kernel.source_dim
            t = vals.reshape(self.n, self.n, self.n, kt, ks)
            t = np.moveaxis(t, (3, 4), (0, 1))
            that = self._that[key] = np.fft.rfftn(t, axes=(-3, -2, -1))
            that.setflags(write=False)
        scaled = that if fac == 1.0 else that * fac
        scaled.setflags(write=False)
        self._that_scaled[skey] = scaled
        return scaled

    # -- grid embeddings --------------------------------------------------------

    def forward(self, u: np.ndarray, dtype=np.float64) -> np.ndarray:
        """Surface densities -> frequency grids.

        ``u`` has shape ``(..., ns * source_dim)`` with dof interleaved
        per point and any leading batch dims (boxes, or boxes x columns);
        output is ``(..., source_dim, n, n, nf)`` complex.  ``dtype``
        sets the grid precision: float32 grids yield complex64 transforms
        (the fp32 plans), float64 the historical complex128.

        Each batch slot is bit-identical whatever the leading shape: the
        grid embedding is pure data movement and pocketfft transforms
        are computed independently per slot.
        """
        lead = u.shape[:-1]
        ks = self.kernel.source_dim
        grids = np.zeros(lead + (ks, self.n**3), dtype=dtype)
        grids[..., self._surf_n] = np.swapaxes(
            u.reshape(lead + (self.ns, ks)), -1, -2
        )
        grids = grids.reshape(lead + (ks, self.n, self.n, self.n))
        return np.fft.rfftn(grids, axes=(-3, -2, -1))

    def translate(self, that: np.ndarray, uhat: np.ndarray) -> np.ndarray:
        """Pointwise (diagonal) frequency-space translation.

        ``that``: ``(kt, ks, n, n, nf)``; ``uhat``: ``(..., ks, n, n, nf)``
        with any leading batch dims (boxes, or boxes x columns); returns ``(..., kt, n, n, nf)``.

        Written as an explicit sum of elementwise products rather than an
        einsum: each output element is a fixed-order chain of complex
        multiply-adds, so the result is bit-identical for any leading
        batch shape — one call over ``(nb, q, ks, ...)`` matches ``q``
        one-column calls exactly.  (``einsum(optimize=True)`` picks
        shape-dependent contraction paths, which breaks that, and never
        vectorises this memory-bound product as well anyway.)
        """
        kt, ks = that.shape[0], that.shape[1]
        out = np.empty(
            uhat.shape[:-4] + (kt,) + uhat.shape[-3:],
            dtype=np.result_type(that, uhat),
        )
        for t in range(kt):
            acc = that[t, 0] * uhat[..., 0, :, :, :]
            for s in range(1, ks):
                acc += that[t, s] * uhat[..., s, :, :, :]
            out[..., t, :, :, :] = acc
        return out

    def inverse(self, acc: np.ndarray) -> np.ndarray:
        """Frequency accumulators -> check potentials on the surface points.

        ``acc``: ``(..., target_dim, n, n, nf)``; returns
        ``(..., ns * target_dim)`` with dof interleaved per point (batch
        slots independent, as in :meth:`forward`).
        """
        lead = acc.shape[:-4]
        kt = self.kernel.target_dim
        grids = np.fft.irfftn(acc, s=(self.n,) * 3, axes=(-3, -2, -1))
        vals = grids.reshape(lead + (kt, self.n**3))[..., self._surf_n]
        return np.swapaxes(vals, -1, -2).reshape(lead + (self.ns * kt,))

    # -- flop model ---------------------------------------------------------------

    def fft_flops_per_box(self) -> float:
        """Charge of one forward or inverse grid FFT (per dof component)."""
        n3 = self.n**3
        return 5.0 * n3 * np.log2(max(n3, 2))

    def translate_flops_per_pair(self) -> float:
        """Charge of one frequency-space pointwise translation."""
        kt, ks = self.kernel.target_dim, self.kernel.source_dim
        # complex multiply-add ~ 8 flops
        return 8.0 * kt * ks * self.n * self.n * self.nf
