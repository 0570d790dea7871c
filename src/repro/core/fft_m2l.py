"""FFT-diagonalised V-list (M2L) translation, streamed over sibling groups.

Because the UE and DC surfaces use the lattice-compatible scale
``(p-1)/(p-2)`` (see :mod:`repro.core.surfaces`), the displacement between
any target DC point and source UE point of a V-list pair is a vector of the
lattice with spacing ``h = 2 r / (p - 2)``:

    x_t - y_s = h * ((p-2) * offset + (g_t - g_s)),   g in {0..p-1}^3.

The check-potential accumulation is therefore a 3-D *circular convolution*
on a ``(2p)^3`` grid: per box one forward FFT of its (surface-embedded)
upward density, a pointwise multiply with the kernel transform of the
pair's offset, an accumulation in frequency space over all V-list sources,
and one inverse FFT per target box.  This is the paper's "diagonal
translation (in the frequency space)".

The multiply-accumulate runs per **sibling group**, as the paper's GPU
V-list does, not per pair.  The V-list of a box is the non-adjacent
children of its parent's 26 colleagues, so the 8 children of a target
parent read the same ``26 x 8`` source spectra, and at one frequency the
group is a ``(208 ks) x (8 kt)`` matrix ``K`` whose (direction, source
child, target child) entry is the kernel transform of one of the 316 V
offsets, or zero where the two children are adjacent (tensor kernels put a
``(kt, ks)`` block there).  :meth:`FftM2L.schedule` compiles ``lists.v``
into per-parent tables (:class:`VGroup`); :meth:`FftM2L.vlist` applies
them as one batched GEMM per frequency slab (DESIGN.md has the layout).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import surfaces
from repro.core.operators import level_half_width
from repro.core.plan import PlanMismatchError
from repro.kernels.base import Kernel

__all__ = ["FftM2L", "VGroup"]

_REF_LEVEL = 2

#: The 26 colleague directions (source parent minus target parent, in
#: parent sides) and ``_DIR_OF[(D + 1) . (9, 3, 1)]`` back to their index
#: (-1 for the centre, which no V pair has).
_DIRS = np.array(
    [(x, y, z) for x in (-1, 0, 1) for y in (-1, 0, 1) for z in (-1, 0, 1)
     if (x, y, z) != (0, 0, 0)],
    dtype=np.int64,
)
_DIR_OF = np.full(27, -1, dtype=np.int64)
_DIR_OF[(_DIRS + 1) @ (9, 3, 1)] = np.arange(26)

#: The 316 V offsets ``(c_target - c_source) / side``: infinity-norm 2 or 3.
_OFFSETS = np.array(
    [(x, y, z) for x in range(-3, 4) for y in range(-3, 4) for z in range(-3, 4)
     if max(abs(x), abs(y), abs(z)) > 1],
    dtype=np.int64,
)
_ZERO_SLOT = len(_OFFSETS)


def _slot_map() -> np.ndarray:
    """``(26, 8, 8)``: (direction, source child, target child) -> index into
    :data:`_OFFSETS`, or :data:`_ZERO_SLOT` where the children are adjacent.

    Child positions are Morton (bit 2 = x, bit 1 = y, bit 0 = z), as in
    :func:`repro.core.operators.child_center_offset`.
    """
    c = (np.arange(8)[:, None] >> (2, 1, 0)) & 1
    off = c[None, None, :, :] - c[None, :, None, :] - 2 * _DIRS[:, None, None, :]
    slot_of = np.full(343, _ZERO_SLOT, dtype=np.int64)
    slot_of[(_OFFSETS + 3) @ (49, 7, 1)] = np.arange(_ZERO_SLOT)
    return slot_of[(off + 3) @ (49, 7, 1)]


_SLOT = _slot_map()


@dataclass
class VGroup:
    """V-list schedule of one run of target parents at one level.

    Node tables hold tree node indices; ``-1`` marks a child that is
    absent, out of scope, or in no V pair.  Everything here is
    density-independent, so plans keep groups across applies.
    """

    level: int
    tchild: np.ndarray  # (ntp, 8) target nodes per target parent
    schild: np.ndarray  # (nsp, 8) source nodes per source parent
    dirs: np.ndarray  # (nd,) colleague directions any target parent has
    nbr: np.ndarray  # (ntp, nd) rows of schild; nsp = "no colleague"
    n_pairs: int  # listed V pairs of the group
    n_offsets: int  # distinct V offsets among them
    usrc: np.ndarray  # schild's nodes, flat
    utgt: np.ndarray  # tchild's nodes, flat
    srow: np.ndarray  # spectra-table rows of usrc's dof, (usrc.size * ks,)
    trow: np.ndarray  # accumulator-table rows of utgt's dof
    flops: float  # per right-hand side: listed pairs + FFTs


class FftM2L:
    """Frequency-domain M2L: offset tables, sibling-group schedule, translate."""

    #: Target parents per :class:`VGroup` (<= 2048 target boxes): bounds the
    #: frequency-grid working set and is what one ``TaskPool`` tile carries.
    GROUP_PARENTS = 256

    #: Scratch bytes of one frequency slab (gathered neighbour blocks +
    #: ``K``): cache-sized, the GEMM consumes the gather straight away.
    SLAB_BYTES = 2 * 2**20

    #: Bytes of frequency-major spectra + accumulators held at once: a
    #: column block walks a group in column runs that fit (at least one).
    SPECTRA_BYTES = 64 * 2**20

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
        kt, ks = kernel.target_dim, kernel.source_dim
        # K[(d, cs, s), (ct, t)] = table[slot(d, cs, ct), t, s]: per
        # direction, the flat take index into a table row.
        self._kidx = (
            _SLOT[:, :, None, :, None] * (kt * ks)
            + np.arange(kt)[None, None, None, None, :] * ks
            + np.arange(ks)[None, None, :, None, None]
        ).reshape(26, -1)
        #: (canonical level, complex dtype) -> frequency-major offset table.
        self._tables: dict[tuple, np.ndarray] = {}

    # -- kernel transforms ----------------------------------------------------

    def _canonical(self, level: int) -> tuple[int, float]:
        h = self.kernel.homogeneity
        if h is None:
            return level, 1.0
        lam = 2.0 ** (_REF_LEVEL - level)
        return _REF_LEVEL, lam**h

    def offset_table(self, level: int, cdtype=np.complex128):
        """``(table, scale)`` for the V-list at ``level``.

        ``table`` is ``(F, 317 * kt * ks)``, ``F = n * n * nf``: row ``f``
        holds the ``(kt, ks)`` block of each V offset's kernel transform at
        frequency ``f``, then a zero block (the slot of adjacent children).
        Levels of a homogeneous kernel share the reference level's table;
        ``scale`` multiplies the translated check potentials.  Cached.
        """
        lvl, fac = self._canonical(level)
        key = (lvl, np.dtype(cdtype))
        tab = self._tables.get(key)
        if tab is not None:
            return tab, fac
        if key[1] != np.complex128:
            tab = self.offset_table(level)[0].astype(cdtype)
        else:
            p, n = self.order, self.n
            kk = self.kernel.target_dim * self.kernel.source_dim
            h = 2.0 * level_half_width(lvl) / (p - 2)
            d = self._wrap
            grid = np.stack(np.meshgrid(d, d, d, indexing="ij"), axis=-1)
            grid = grid.reshape(1, -1, 3).astype(np.float64)
            tab = np.zeros((n * n * self.nf, (_ZERO_SLOT + 1) * kk), np.complex128)
            for s0 in range(0, _ZERO_SLOT, 64):  # bounds the transient grids
                offs = _OFFSETS[s0 : s0 + 64, None, :].astype(np.float64)
                disp = (h * ((p - 2) * offs + grid)).reshape(-1, 3)
                vals = self.kernel.matrix(disp, np.zeros((1, 3)))
                t = vals.reshape(len(offs), n, n, n, kk)
                that = np.fft.rfftn(np.moveaxis(t, 4, 1), axes=(-3, -2, -1))
                tab[:, s0 * kk : (s0 + len(offs)) * kk] = that.reshape(
                    len(offs) * kk, -1
                ).T
        tab.setflags(write=False)
        return self._tables.setdefault(key, tab), fac

    # -- sibling-group schedule -------------------------------------------------

    def schedule(self, tree, v, scope=None) -> list:
        """Compile ``v`` (the V-list ``CsrList``) into :class:`VGroup` runs.

        ``scope`` (bool mask over nodes) keeps the pairs of in-scope targets.
        The tables assume the V-list definition: a target child sees every
        listed source child of its parent's colleagues unless the two are
        adjacent.  That is checked — the pairs the tables imply are counted
        against the listed ones, per target parent, and a difference raises
        :class:`~repro.core.plan.PlanMismatchError`.
        """
        tgts, srcs = v.pairs(scope)
        kt, ks = self.kernel.target_dim, self.kernel.source_dim
        box_flops = self.fft_flops_per_box()
        pair_flops = self.translate_flops_per_pair()
        groups = []
        levels = tree.levels[tgts]
        for lev in np.unique(levels):
            sel = levels == lev
            t, s = tgts[sel], srcs[sel]
            tpar, spar = tree.parent[t], tree.parent[s]
            tp, ti = np.unique(tpar, return_inverse=True)
            sp, si = np.unique(spar, return_inverse=True)
            listed = np.zeros(tree.n_nodes, dtype=bool)
            listed[t] = True
            tchild = np.where(listed[tree.children[tp]], tree.children[tp], -1)
            listed[:] = False
            listed[s] = True
            schild = np.where(listed[tree.children[sp]], tree.children[sp], -1)
            dvec = np.rint(
                (tree.centers[spar] - tree.centers[tpar])
                / (2.0 * tree.half_widths[tpar])[:, None]
            ).astype(np.int64)
            d = _DIR_OF[np.clip(dvec + 1, 0, 2) @ (9, 3, 1)]
            ok = (np.abs(dvec) <= 1).all(axis=1) & (d >= 0)
            nbr = np.full((tp.size, 26), sp.size, dtype=np.intp)
            nbr[ti[ok], d[ok]] = si[ok]
            has_src = np.vstack([schild >= 0, np.zeros((1, 8), dtype=bool)])
            implied = np.einsum(
                "pdk,dkc,pc->p", has_src[nbr], _SLOT != _ZERO_SLOT, tchild >= 0,
                dtype=np.int64,
            )
            pairs = np.bincount(ti, minlength=tp.size)
            if not np.array_equal(implied, pairs):
                raise PlanMismatchError(
                    f"V-list at level {int(lev)} is not a sibling-group "
                    f"product: the parent tables imply {int(implied.sum())} "
                    f"pairs, the list holds {t.size}"
                )
            for p0 in range(0, tp.size, self.GROUP_PARENTS):
                run = slice(p0, p0 + self.GROUP_PARENTS)
                used, local = np.unique(
                    np.append(nbr[run].ravel(), sp.size), return_inverse=True
                )  # the "no colleague" row sorts last, so it stays last
                tch, sch = tchild[run], schild[used[:-1]]
                dirs = np.flatnonzero((nbr[run] < sp.size).any(axis=0))
                spos = np.flatnonzero(sch.ravel() >= 0)
                tpos = np.flatnonzero(tch.ravel() >= 0)
                n_pairs = int(pairs[run].sum())
                seen = np.einsum(  # (direction, source child, target child)
                    "pdk,pc->dkc", has_src[nbr[run]], tch >= 0, dtype=np.int64
                )
                groups.append(
                    VGroup(
                        level=int(lev),
                        tchild=tch,
                        schild=sch,
                        dirs=dirs,
                        nbr=local[:-1].reshape(-1, 26)[:, dirs].astype(np.intp),
                        n_pairs=n_pairs,
                        n_offsets=np.setdiff1d(_SLOT[seen > 0], _ZERO_SLOT).size,
                        usrc=sch.ravel()[spos],
                        utgt=tch.ravel()[tpos],
                        srow=(spos[:, None] * ks + np.arange(ks)).ravel(),
                        trow=(tpos[:, None] * kt + np.arange(kt)).ravel(),
                        flops=n_pairs * pair_flops
                        + (spos.size * ks + tpos.size * kt) * box_flops,
                    )
                )
        return groups

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

    # -- translation --------------------------------------------------------------

    def vlist(self, g: VGroup, up, dcheck, cdtype=np.complex128, buffer=None):
        """``dcheck[g.utgt] +=`` the V-list translations of ``up[g.usrc]``.

        ``up`` / ``dcheck`` are the ``(n_nodes, q, features)`` node states;
        ``cdtype`` picks the precision (complex64: float32 grids, for fp32
        plans and the device path); ``buffer(name, shape, dtype)`` supplies
        reusable scratch.  Column ``j`` of a block keeps its solo bits: FFTs
        are batch-stable and inside a slab every column runs its own gather
        and its own GEMM of the solo shapes; only the indices and the
        slab's ``K`` are shared.
        """
        if buffer is None:
            buffer = lambda _name, shape, dtype: np.empty(shape, dtype)
        kt, ks = self.kernel.target_dim, self.kernel.source_dim
        cdtype = np.dtype(cdtype)
        rdtype = np.float32 if cdtype == np.complex64 else np.float64
        table, fac = self.offset_table(g.level, cdtype)
        nfreq = table.shape[0]
        ntp, nsp = g.nbr.shape[0], g.schild.shape[0] + 1
        q = up.shape[1]
        kin, kout = g.dirs.size * 8 * ks, 8 * kt
        kidx = self._kidx[g.dirs].ravel()
        qc = max(1, self.SPECTRA_BYTES // (
            cdtype.itemsize * nfreq * 8 * (nsp * ks + ntp * kt)))
        fs = max(1, min(nfreq, self.SLAB_BYTES // (
            cdtype.itemsize * kin * (ntp + kout))))
        kbuf = buffer("vli_k", (fs, kin * kout), cdtype)
        gbuf = buffer("vli_g", (fs, ntp * g.dirs.size, 8 * ks), cdtype)
        nbr = g.nbr.ravel()
        for q0 in range(0, q, qc):
            cols = range(q0, min(q0 + qc, q))
            spec = buffer("vli_spec", (len(cols), nfreq, nsp * 8 * ks), cdtype)
            acc = buffer("vli_acc", (len(cols), nfreq, ntp * kout), cdtype)
            spec.fill(0.0)  # absent children and the "no colleague" parent
            for c, j in enumerate(cols):
                uhat = self.forward(up[g.usrc, j], dtype=rdtype)
                spec[c][:, g.srow] = uhat.reshape(-1, nfreq).T
            for f0 in range(0, nfreq, fs):
                m = min(fs, nfreq - f0)
                k = np.take(
                    table[f0 : f0 + m], kidx, axis=1,
                    out=kbuf[:m], mode="clip",
                ).reshape(m, kin, kout)
                for c in range(len(cols)):
                    blocks = np.take(
                        spec[c, f0 : f0 + m].reshape(m, nsp, 8 * ks), nbr,
                        axis=1, out=gbuf[:m], mode="clip",
                    )
                    np.matmul(
                        blocks.reshape(m, ntp, kin), k,
                        out=acc[c, f0 : f0 + m].reshape(m, ntp, kout),
                    )
            for c, j in enumerate(cols):
                grids = acc[c].T[g.trow].reshape(-1, kt, self.n, self.n, self.nf)
                check = self.inverse(grids)
                dcheck[g.utgt, j] += check if fac == 1.0 else check * fac

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
