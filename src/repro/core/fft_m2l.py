"""FFT-diagonalised V-list (M2L) translation, streamed over sibling groups.

Because the UE and DC surfaces use the lattice-compatible scale
``(p-1)/(p-2)`` (see :mod:`repro.core.surfaces`), the displacement between
any target DC point and source UE point of a V-list pair is a vector of the
lattice with spacing ``h = 2 r / (p - 2)``:

    x_t - y_s = h * ((p-2) * offset + (g_t - g_s)),   g in {0..p-1}^3.

The check-potential accumulation is therefore a 3-D *circular convolution*
on an ``n^3`` grid: per box one forward FFT of its (surface-embedded)
upward density, a pointwise multiply with the kernel transform of the
pair's offset, an accumulation in frequency space over all V-list sources,
and one inverse FFT per target box.  This is the paper's "diagonal
translation (in the frequency space)".  ``g_t - g_s`` spans ``2p - 1``
values per axis, so ``n = 2p - 1`` is the alias-free minimum and the grid.

The multiply-accumulate runs per **sibling group**, as the paper's GPU
V-list does, not per pair.  The V-list of a box is the non-adjacent
children of its parent's 26 colleagues, so the 8 children of a target
parent read the same ``26 x 8`` source spectra, and at one frequency the
group is a ``(208 ks) x (8 kt)`` matrix ``K`` whose (direction, source
child, target child) entry is the kernel transform of one of the 316 V
offsets, or zero where the two children are adjacent (tensor kernels put a
``(kt, ks)`` block there).  :meth:`FftM2L.schedule` compiles ``lists.v``
into per-parent tables (:class:`VGroup`).

:meth:`FftM2L.translate` applies them as the paper's three kernels over all
boxes — per-octant forward FFT, diagonal translation, inverse FFT — each a
data-parallel map over *box-last* arrays.  The data of a box sit in the
``p^3`` corner of its ``n^3`` grid and only that corner of the inverse is
read, so each 1-D transform is a product with a small DFT matrix cut to
the corner — ``(n, p)`` in, ``(p, n)`` out, ``n//2 + 1`` rows / columns
along the real z axis — and a stage is one batched BLAS GEMM: at
``n <= 15`` that measured 2-3x faster than an FFT library's line-by-line
transforms on a 2-core x86 host.  With the boxes on the last axis the forward stages write the
frequency-major ``(F, boxes)`` table the translation reads — no
transpose, no zero fill — and the inverse stages read the accumulator
table as it stands.  The offset table is built with the same matrices,
half of it mirrored for a transpose-symmetric kernel.  The
translation is one batched GEMM per frequency slab against a ``K`` taken
from the level's offset table once per slab and shared by every group that
has the same colleague directions (DESIGN.md §5 has the layout and the
numbers).
"""

from __future__ import annotations

import math
import queue
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core import surfaces
from repro.core.lists import COLLEAGUE_DIRS, V_OFFSETS, V_SLOT
from repro.core.operators import level_half_width
from repro.core.plan import PlanMismatchError
from repro.kernels.base import Kernel
from repro.util import morton
from repro.util.blas import limit_blas_threads

__all__ = ["FftM2L", "VGroup"]

_REF_LEVEL = 2

#: ``_DIR_OF[(D + 1) . (9, 3, 1)]``: the index of colleague direction
#: ``D`` (source parent minus target parent, in parent sides), -1 for the
#: centre, which no V pair has.
_DIR_OF = np.full(27, -1, dtype=np.int64)
_DIR_OF[(COLLEAGUE_DIRS + 1) @ (9, 3, 1)] = np.arange(26)

#: The slot of adjacent children in :data:`V_SLOT`: the offset table's
#: zero block.
_ZERO_SLOT = len(V_OFFSETS)


def _allocate(_name, shape, dtype):
    """The ``buffer`` of a caller that keeps no scratch."""
    return np.empty(shape, dtype)


def _run_inline(tiles, compute, done):
    """The ``run`` of a caller that has no tile pool."""
    for tile in tiles:
        done(tile, compute(tile))


def _nothing(_tile, _result):
    """``done`` of a stage whose tiles write disjoint rows from ``compute``."""


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
    srow: np.ndarray  # spectra-table columns of usrc's dof, (usrc.size * ks,)
    trow: np.ndarray  # accumulator-table columns of utgt's dof
    flops: float  # per right-hand side: listed pairs + FFTs


class FftM2L:
    """Frequency-domain M2L: offset tables, sibling-group schedule, translate."""

    #: Target parents per :class:`VGroup` (<= 2048 target boxes): bounds the
    #: tables of one (group, column) item, the tile of the two FFT stages.
    GROUP_PARENTS = 256

    #: Scratch bytes of one frequency slab (gathered neighbour blocks +
    #: ``K``) — cache-sized, the GEMM consumes the gather straight away —
    #: for the largest group of a wave; a slab is the translate stage's tile.
    SLAB_BYTES = 2 * 2**20

    #: Bytes of frequency-major spectra + accumulators held at once: the
    #: (group, column) items of an apply go in waves that fit (at least one).
    SPECTRA_BYTES = 64 * 2**20

    def __init__(self, kernel: Kernel, order: int):
        self.kernel = kernel
        self.order = int(order)
        self.n = 2 * self.order - 1  # convolution grid size per axis (alias-free)
        self.nf = self.n // 2 + 1  # frequencies kept along the real z axis
        #: Frequencies of the paper's (2p)^3 grid, which the charges count.
        self.paper_nfreq = 4 * order * order * (order + 1)
        self.ns = surfaces.n_surface_points(order)
        # Surface rows of the box-last (p, p, p) corner grid, as index column.
        ijk = surfaces.surface_lattice(order)
        self._surf = ((ijk[:, 0] * order + ijk[:, 1]) * order + ijk[:, 2])[:, None]
        # Signed wrap of grid indices: m -> m or m - n (circular support).
        m = np.arange(self.n)
        self._wrap = np.where(m < order, m, m - self.n)
        # The forward DFT matrix: (n, n) along x and y, its first nf rows
        # along z, for the offset table; translate reads only the p^3
        # corner, so its four are cut to p columns in and p rows out.  The
        # complex-to-real z step counts each kept frequency's conjugate
        # twin (weight 2, except at 0 and, were n even, n / 2).
        p, n, nf = self.order, self.n, self.nf
        w = self._dft_full = np.exp(-2j * np.pi * (np.outer(m, m) % n) / n)
        twin = np.where((m[:nf] == 0) | (2 * m[:nf] == n), 1.0, 2.0)
        mats = (w[:, :p], w[:nf, :p], w[:p].conj() / n, w[:p, :nf].conj() * twin / n)
        #: complex dtype -> (forward x/y (n, p), forward z (nf, p),
        #: inverse x/y (p, n), inverse z (p, nf)).
        self._dft = {
            np.dtype(c): tuple(np.ascontiguousarray(a, dtype=c) for a in mats)
            for c in (np.complex128, np.complex64)
        }
        kt, ks = kernel.target_dim, kernel.source_dim
        # K[(d, cs, s), (ct, t)] = table[slot(d, cs, ct), t, s]: per
        # direction, the flat take index into a table row.
        self._kidx = (
            V_SLOT[:, :, None, :, None] * (kt * ks)
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
            p, n, nf, w = self.order, self.n, self.nf, self._dft_full
            kt, ks = self.kernel.target_dim, self.kernel.source_dim
            h = 2.0 * level_half_width(lvl) / (p - 2)
            d = self._wrap
            grid = np.stack(np.meshgrid(d, d, d, indexing="ij"), axis=-1)
            grid = grid.reshape(-1, 1, 3).astype(np.float64)
            # Offset 315 - i is -(offset i).  Where K(-r) = K(r)^T its grid
            # is offset i's reflected and transposed, so its transform is
            # the conjugate of offset i's with each block transposed: only
            # the first half is evaluated.
            half = _ZERO_SLOT // 2 if self.kernel.transpose_symmetric else _ZERO_SLOT
            tab = np.zeros((n * n * nf, _ZERO_SLOT + 1, kt, ks), np.complex128)
            for s0 in range(0, half, 32):  # bounds the transient grids
                offs = V_OFFSETS[s0 : min(s0 + 32, half)].astype(np.float64)
                disp = (h * ((p - 2) * offs + grid)).reshape(-1, 3)
                # box-last (x, y, z, offset, kt, ks): z, y, then x
                vals = self.kernel.matrix(disp, np.zeros((1, 3)))
                with limit_blas_threads(1):
                    t = np.matmul(w[:nf], vals.reshape(n * n, n, -1))
                    t = np.matmul(w, t.reshape(n, n, -1))
                    t = np.matmul(w, t.reshape(n, -1))
                tab[:, s0 : s0 + len(offs)] = t.reshape(n * n * nf, len(offs), kt, ks)
            if half < _ZERO_SLOT:
                np.conjugate(
                    tab[:, half - 1 :: -1].transpose(0, 1, 3, 2),
                    out=tab[:, half:_ZERO_SLOT],
                )
            tab = tab.reshape(n * n * nf, -1)
        tab.setflags(write=False)
        return self._tables.setdefault(key, tab), fac

    # -- sibling-group schedule -------------------------------------------------

    def schedule(self, tree, v, scope=None, sources=None) -> list:
        """Compile ``v`` (the V-list ``CsrList``) into :class:`VGroup` runs.

        ``scope`` (bool mask over nodes) keeps the pairs of in-scope targets,
        ``sources`` (likewise) the pairs of kept sources — the plan passes
        the octants that hold a point (on some rank), so an empty source is
        neither transformed nor multiplied; an empty target stays.
        The tables assume the V-list definition: a target child sees every
        listed source child of its parent's colleagues unless the two are
        adjacent.  That is checked — the pairs the tables imply are counted
        against the listed ones, per target parent, and a difference raises
        :class:`~repro.core.plan.PlanMismatchError`.
        """
        tgts, srcs = v.pairs(scope)
        if sources is not None:
            keep = sources[srcs]
            tgts, srcs = tgts[keep], srcs[keep]
        kt, ks = self.kernel.target_dim, self.kernel.source_dim
        box_flops = self.fft_flops_per_box()
        pair_flops = self.translate_flops_per_pair()
        groups = []
        levels = tree.levels[tgts]
        for lev in morton.sorted_unique(levels):
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
            # one direction per (target parent, source parent) relation
            rel = morton.sorted_unique(ti * np.int64(sp.size) + si)
            rt, rs = rel // sp.size, rel % sp.size
            dvec = np.rint(
                (tree.centers[sp[rs]] - tree.centers[tp[rt]])
                / (2.0 * tree.half_widths[tp[rt]])[:, None]
            ).astype(np.int64)
            d = _DIR_OF[np.clip(dvec + 1, 0, 2) @ (9, 3, 1)]
            ok = (np.abs(dvec) <= 1).all(axis=1) & (d >= 0)
            nbr = np.full((tp.size, 26), sp.size, dtype=np.intp)
            nbr[rt[ok], d[ok]] = rs[ok]
            has_src = np.vstack([schild >= 0, np.zeros((1, 8), dtype=bool)])
            implied = np.einsum(
                "pdk,dkc,pc->p", has_src[nbr], V_SLOT != _ZERO_SLOT, tchild >= 0,
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
                        nbr=local[:-1].reshape(-1, 26)[:, dirs].astype(np.intp, order="C"),
                        n_pairs=n_pairs,
                        n_offsets=morton.sorted_unique(V_SLOT[(seen > 0) & (V_SLOT != _ZERO_SLOT)]).size,
                        usrc=sch.ravel()[spos],
                        utgt=tch.ravel()[tpos],
                        srow=(spos[:, None] * ks + np.arange(ks)).ravel(),
                        trow=(tpos[:, None] * kt + np.arange(kt)).ravel(),
                        flops=n_pairs * pair_flops
                        + (spos.size * ks + tpos.size * kt) * box_flops,
                    )
                )
        return groups

    # -- translation --------------------------------------------------------------

    def translate(self, groups, up, dcheck, cdtype=np.complex128,
                  buffer=_allocate, run=_run_inline):
        """``dcheck[g.utgt] +=`` the V-list translations of ``up[g.usrc]``
        for every group of ``groups``, as three staged kernels.

        ``up`` / ``dcheck`` are the ``(n_nodes, q, features)`` node states;
        ``cdtype`` picks the precision (complex64: float32 grids, for fp32
        plans, the device's included); ``buffer(name, shape, dtype)`` supplies
        the calling thread's reusable scratch and ``run(tiles, compute,
        done)`` executes the tiles of one stage, at most ``run.width`` at
        once (1 if unset; ``EvalPlan._buffer`` and ``EvalPlan._tiles``, the
        defaults allocate and run inline).  A tile's own scratch is one of
        ``run.width`` *lanes* the caller sizes up front for the largest
        tile of the apply, leased for the tile's duration: what a warm
        apply holds does not depend on which worker draws which tile.

        The (group, column) items are walked in *waves* whose
        frequency-major tables fit :attr:`SPECTRA_BYTES` (at least one
        item), each wave in three runs:

        1. **FFT-in**, a tile per item.  The surface densities go into the
           ``p^3`` corner grid, box-last ``(p, p, p, cols)`` with one column
           per spectra-table column (``g.srow``; absent children and the
           "no colleague" parent stay zero), and three DFT matrix products
           — z, each ``(p, cols)`` line block against ``(nf, p)``; y, each
           x-plane against ``(n, p)``; x, one GEMM against ``(n, p)`` —
           leave ``(n, n, nf, cols)``: in C order the ``(F, cols)`` table
           itself, ``F = n * n * nf``.  The grid and the z stage live in
           the table's own rows until the x stage overwrites them.
        2. **Translate**, a tile per frequency slab (disjoint table rows).
           ``K_slab`` is taken once per distinct (offset table, ``g.dirs``)
           and shared by every item of the wave that reads it; each item
           runs its own gather and its own ``np.matmul``.
        3. **FFT-out**, a tile per item: x and y against ``(p, n)``, then
           the complex-to-real z stage against ``(p, nf)`` (the real part of
           the product), so only the ``p^3`` corner is ever computed; the
           y stage lands in the accumulator table's own rows, and the
           surface rows are added into ``dcheck[g.utgt, j]``.

        Every stage is a GEMM whose shape depends on the item alone, and
        each frequency is its own GEMM whatever the slab length, so column
        ``j`` of a block keeps its solo bits under any wave and slab split.
        The flop *charge* (``VGroup.flops``, :meth:`fft_flops_per_box`)
        stays the paper's full ``(2p)^3`` grid.
        """
        p, n, nf, ns = self.order, self.n, self.nf, self.ns
        kt, ks = self.kernel.target_dim, self.kernel.source_dim
        kout = 8 * kt
        cdtype = np.dtype(cdtype)
        fxy, fz, ixy, iz = self._dft[cdtype]
        nfreq = n * n * nf

        def leased(body):
            """``body(tile, scratch)`` on a lane held for the tile's run."""
            def tile(t):
                lane = free.get()
                try:
                    return body(t, lambda name, shape: lane[name][
                        : math.prod(shape)].reshape(shape))
                finally:
                    free.put(lane)

            return tile

        def fft_in(item, scratch):
            g, j, spec, _ = item
            cols = spec.shape[1]
            rows = spec.reshape(-1)
            grid = rows[: p**3 * cols].reshape(p * p, p, cols)
            z = rows[p**3 * cols : (p**3 + p * p * nf) * cols].reshape(p, p, nf * cols)
            grid.fill(0)
            u = up[g.usrc, j].reshape(-1, ns, ks)
            grid.reshape(-1, cols)[self._surf, g.srow] = (
                u.transpose(1, 0, 2).reshape(ns, -1)
            )
            np.matmul(fz, grid, out=z.reshape(p * p, nf, cols))
            zy = scratch("vli_dft", (p, n, nf * cols))
            np.matmul(fxy, z, out=zy)
            np.matmul(fxy, zy.reshape(p, -1), out=spec.reshape(n, -1))

        def fft_out(item, scratch):
            g, j, _, acc = item
            cols = acc.shape[1]
            x = scratch("vli_dft", (p, n, nf * cols))
            np.matmul(ixy, acc.reshape(n, -1), out=x.reshape(p, -1))
            y = acc.reshape(-1)[: p * p * nf * cols].reshape(p * p, nf, cols)
            np.matmul(ixy, x, out=y.reshape(p, p, -1))
            grid = x.reshape(-1)[: p**3 * cols].reshape(p * p, p, cols)
            np.matmul(iz, y, out=grid)
            check = grid.real.reshape(-1, cols)[self._surf, g.trow]
            check = check.reshape(ns, -1, kt).transpose(1, 0, 2).reshape(-1, ns * kt)
            fac = self._canonical(g.level)[1]
            dcheck[g.utgt, j] += check if fac == 1.0 else check * fac

        def gemm_slab(slab, scratch, shared):
            f0, f1 = slab
            m = f1 - f0
            for table, kidx, readers in shared.values():
                k = np.take(
                    table[f0:f1], kidx, axis=1, mode="clip",
                    out=scratch("vli_k", (m, kidx.size)),
                ).reshape(m, -1, kout)
                for g, _, spec, acc in readers:
                    ntp = g.nbr.shape[0]
                    blocks = np.take(
                        spec[f0:f1].reshape(m, -1, 8 * ks), g.nbr.ravel(),
                        axis=1, mode="clip",
                        out=scratch("vli_g", (m, g.nbr.size, 8 * ks)),
                    )
                    np.matmul(
                        blocks.reshape(m, ntp, -1), k,
                        out=acc[f0:f1].reshape(m, ntp, kout),
                    )

        items = [(g, j) for g in groups for j in range(up.shape[1])]
        if not items:
            return
        # table elements of an item: spectra (the extra parent is the
        # all-zero "no colleague") and accumulators
        size = nfreq * np.array(
            [(8 * ks * (g.schild.shape[0] + 1), kout * g.nbr.shape[0])
             for g, _ in items]
        )
        limit = self.SPECTRA_BYTES // cdtype.itemsize
        spans, start = [], 0
        while start < len(items):
            stop = start + 1
            while stop < len(items) and size[start : stop + 1].sum() <= limit:
                stop += 1
            spans.append(slice(start, stop))
            start = stop
        # asked for once per apply, at the largest wave: growing them wave
        # by wave would hold the outgrown tables next to the new ones
        widest = np.max([size[w].sum(axis=0) for w in spans], axis=0)
        spectra = buffer("vli_spec", (widest[0],), cdtype)
        accums = buffer("vli_acc", (widest[1],), cdtype)
        waves = []
        for w in spans:
            cs, ct = np.cumsum(np.vstack([(0, 0), size[w]]), axis=0).T
            wave, shared, per_freq = [], {}, 1
            for i, (g, j) in enumerate(items[w]):
                item = (g, j, spectra[cs[i] : cs[i + 1]].reshape(nfreq, -1),
                        accums[ct[i] : ct[i + 1]].reshape(nfreq, -1))
                wave.append(item)
                table = self.offset_table(g.level, cdtype)[0]
                shared.setdefault(
                    (id(table), g.dirs.tobytes()),
                    (table, self._kidx[g.dirs].ravel(), []),
                )[2].append(item)
                # slab scratch per frequency: the item's gather and its K
                per_freq = max(
                    per_freq, g.dirs.size * 8 * ks * (g.nbr.shape[0] + kout)
                )
            fs = min(nfreq, max(1, self.SLAB_BYTES // (cdtype.itemsize * per_freq)))
            waves.append((wave, shared, fs))
        # the largest tile of the apply: (elements, dtype) per lane array
        cols_in, cols_out = (size // nfreq).max(axis=0)
        peak = {
            "vli_dft": (p * n * nf * max(cols_in, cols_out), cdtype),
            "vli_k": (max(fs * kidx.size for _, shared, fs in waves
                          for _, kidx, _ in shared.values()), cdtype),
            "vli_g": (max(fs * g.nbr.size * 8 * ks for wave, _, fs in waves
                          for g, *_ in wave), cdtype),
        }
        free = queue.SimpleQueue()
        for i in range(getattr(run, "width", 1)):
            free.put({name: buffer(f"{name}:{i}", (need,), dt)
                      for name, (need, dt) in peak.items()})
        for wave, shared, fs in waves:
            slabs = [(f0, min(f0 + fs, nfreq)) for f0 in range(0, nfreq, fs)]
            run(wave, leased(fft_in), _nothing)
            run(slabs, leased(partial(gemm_slab, shared=shared)), _nothing)
            run(wave, leased(fft_out), _nothing)

    # -- flop model ---------------------------------------------------------------

    def fft_flops_per_box(self) -> float:
        """Charge of one forward or inverse FFT (per dof component).  This
        and the next charge count the paper's ``(2p)^3`` grid, not :attr:`n`."""
        n3 = (2 * self.order) ** 3
        return 5.0 * n3 * np.log2(n3)

    def translate_flops_per_pair(self) -> float:
        """Charge of one frequency-space pointwise translation."""
        kt, ks = self.kernel.target_dim, self.kernel.source_dim
        # complex multiply-add ~ 8 flops
        return 8.0 * kt * ks * self.paper_nfreq
