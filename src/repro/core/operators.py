"""Translation-operator factory for the kernel-independent FMM.

All FMM operators are built from two primitives:

* kernel matrices between surface point sets (see
  :mod:`repro.core.surfaces`), and
* regularised pseudo-inverses of check-from-equivalent matrices.

Operators depend only on the octant *level* (and, for M2M/L2L, the child's
position within its parent; for M2L, the translation offset), so they are
computed lazily and memoised.  For kernels homogeneous of degree ``h``
(Laplace, Stokes) matrices at any level are a scalar multiple of the
reference level's, so only that level is ever evaluated; the ``uc2ue``,
``dc2de`` and ``l2l`` of another level are its rescaled copies, made once
and kept (a compile reads them per level and child position).
"""

from __future__ import annotations

import numpy as np

from repro.core import surfaces
from repro.kernels.base import Kernel
from repro.util.blas import limit_blas_threads

__all__ = ["OperatorCache", "regularized_pinv", "child_center_offset"]

#: Reference level used when homogeneous scaling allows cross-level reuse.
_REF_LEVEL = 2


def regularized_pinv(mat: np.ndarray, rcond: float) -> np.ndarray:
    """Truncated-SVD pseudo-inverse.

    The equivalent-from-check systems are severely ill-conditioned
    first-kind integral equations; truncating singular values below
    ``rcond * s_max`` is the standard KIFMM regularisation.
    """
    with limit_blas_threads(1):
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        cutoff = rcond * s[0]
        inv_s = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
        return (vt.T * inv_s) @ u.T


def child_center_offset(child_pos: int, child_half_width: float) -> np.ndarray:
    """Child-centre displacement from the parent centre.

    ``child_pos`` is the Morton position (bit 2 = x, bit 1 = y, bit 0 = z),
    matching :func:`repro.util.morton.children` ordering.
    """
    xo = (child_pos >> 2) & 1
    yo = (child_pos >> 1) & 1
    zo = child_pos & 1
    return child_half_width * np.array(
        [2 * xo - 1, 2 * yo - 1, 2 * zo - 1], dtype=np.float64
    )


def level_half_width(level: int) -> float:
    """Half-width of a level-``level`` octant in the unit cube."""
    return 0.5 * 2.0**-level


class OperatorCache:
    """Lazy, memoised source of all dense KIFMM translation operators.

    Every cache miss computes on one BLAS thread: operator bytes must not
    depend on the BLAS width ambient at first use (a Stokes ``uc2ue``
    built inside a pinned pooled phase and one built outside differ in
    the last bit), and matrices this small only lose to a second thread,
    which a freshly started process waits a scheduler tick per call for.

    Parameters
    ----------
    kernel:
        The interaction kernel; its ``source_dim``/``target_dim`` set the
        block structure and its ``homogeneity`` enables cross-level reuse.
    order:
        Surface order ``p`` (points per cube edge); accuracy parameter.

    The pseudo-inverses cut singular values at the kernel's
    ``default_rcond``, the one regularisation rule.
    """

    def __init__(self, kernel: Kernel, order: int):
        if order < surfaces.MIN_ORDER:
            raise ValueError(f"order must be >= {surfaces.MIN_ORDER}")
        self.kernel = kernel
        self.order = int(order)
        self.n_surf = surfaces.n_surface_points(order)
        self._inner = surfaces.inner_scale(order)
        self._outer = surfaces.outer_scale(order)
        self._uc2ue: dict[int, np.ndarray] = {}
        self._dc2de: dict[int, np.ndarray] = {}
        self._m2m: dict[tuple[int, int], np.ndarray] = {}
        self._l2l: dict[tuple[int, int], np.ndarray] = {}
        self._m2l: dict[tuple[int, tuple[int, int, int]], np.ndarray] = {}

    # -- surface helpers ---------------------------------------------------

    def ue_points(self, level: int, center=(0.0, 0.0, 0.0)) -> np.ndarray:
        """Upward-equivalent surface points of a box at ``level``."""
        return surfaces.surface_points(
            self.order, np.asarray(center), level_half_width(level), self._inner
        )

    def uc_points(self, level: int, center=(0.0, 0.0, 0.0)) -> np.ndarray:
        """Upward-check surface points of a box at ``level``."""
        return surfaces.surface_points(
            self.order, np.asarray(center), level_half_width(level), self._outer
        )

    def de_points(self, level: int, center=(0.0, 0.0, 0.0)) -> np.ndarray:
        """Downward-equivalent surface points of a box at ``level``."""
        return self.uc_points(level, center)

    def dc_points(self, level: int, center=(0.0, 0.0, 0.0)) -> np.ndarray:
        """Downward-check surface points of a box at ``level``."""
        return self.ue_points(level, center)

    # -- homogeneity bookkeeping -------------------------------------------

    def _canonical(self, level: int) -> tuple[int, float]:
        """(level to compute at, multiplier for kernel-matrix entries)."""
        h = self.kernel.homogeneity
        if h is None:
            return level, 1.0
        # K at `level` = lam**h * K at _REF_LEVEL with lam = r_level / r_ref.
        lam = 2.0 ** (_REF_LEVEL - level)
        return _REF_LEVEL, lam**h

    # -- operators ----------------------------------------------------------

    def uc2ue(self, level: int) -> np.ndarray:
        """Map check potentials on UC to the upward-equivalent density."""
        mat = self._uc2ue.get(level)
        if mat is None:
            lvl, fac = self._canonical(level)
            if lvl != level:
                mat = self.uc2ue(lvl) / fac
            else:
                k = self.kernel.matrix(self.uc_points(lvl), self.ue_points(lvl))
                mat = regularized_pinv(k, self.kernel.default_rcond)
            self._uc2ue[level] = mat
        return mat

    def dc2de(self, level: int) -> np.ndarray:
        """Map check potentials on DC to the downward-equivalent density."""
        mat = self._dc2de.get(level)
        if mat is None:
            lvl, fac = self._canonical(level)
            if lvl != level:
                mat = self.dc2de(lvl) / fac
            elif self.kernel.transpose_symmetric:
                # DC is UE and DE is UC: K(dc, de) is K(uc, ue)^T bit for
                # bit, and so is its pseudo-inverse
                mat = np.ascontiguousarray(self.uc2ue(lvl).T)
            else:
                k = self.kernel.matrix(self.dc_points(lvl), self.de_points(lvl))
                mat = regularized_pinv(k, self.kernel.default_rcond)
            self._dc2de[level] = mat
        return mat

    def m2m(self, child_level: int, child_pos: int) -> np.ndarray:
        """Child upward density -> parent upward density contribution.

        Level-independent for homogeneous kernels (the check-matrix scale
        cancels against the pseudo-inverse).
        """
        lvl, _ = self._canonical(child_level)
        key = (lvl, child_pos)
        mat = self._m2m.get(key)
        if mat is None:
            parent_level = lvl - 1
            off = child_center_offset(child_pos, level_half_width(lvl))
            k = self.kernel.matrix(
                self.uc_points(parent_level), self.ue_points(lvl, off)
            )
            with limit_blas_threads(1):
                mat = self._m2m[key] = self.uc2ue(parent_level) @ k
        return mat

    def l2l(self, child_level: int, child_pos: int) -> np.ndarray:
        """Parent downward density -> child downward *check* potentials."""
        mat = self._l2l.get((child_level, child_pos))
        if mat is None:
            lvl, fac = self._canonical(child_level)
            if lvl != child_level:
                mat = self.l2l(lvl, child_pos) * fac
            else:
                off = child_center_offset(child_pos, level_half_width(lvl))
                mat = self.kernel.matrix(self.dc_points(lvl, off), self.de_points(lvl - 1))
            self._l2l[(child_level, child_pos)] = mat
        return mat

    def m2l_dense(self, level: int, offset: tuple[int, int, int]) -> np.ndarray:
        """Source upward density -> target downward *check* potentials.

        ``offset`` is ``(c_target - c_source) / box_side`` — an integer
        vector with infinity-norm 2 or 3 for V-list pairs.  The dense
        operator is the ablation baseline for the FFT-diagonalised path.
        """
        lvl, fac = self._canonical(level)
        key = (lvl, tuple(int(o) for o in offset))
        mat = self._m2l.get(key)
        if mat is None:
            side = 2.0 * level_half_width(lvl)
            tgt_center = side * np.asarray(offset, dtype=np.float64)
            mat = self._m2l[key] = self.kernel.matrix(
                self.dc_points(lvl, tgt_center), self.ue_points(lvl)
            )
        return mat if fac == 1.0 else mat * fac
