"""End-to-end accuracy tests of the sequential FMM against direct sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Fmm, surfaces
from repro.core.fft_m2l import FftM2L
from repro.core.operators import OperatorCache
from repro.datasets import ellipsoid_surface, plummer_cluster, uniform_cube
from repro.kernels import direct_sum, get_kernel
from repro.util.timer import PhaseProfile


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestAccuracy:
    @pytest.mark.parametrize(
        "order,tol", [(4, 2e-3), (6, 2e-5), (8, 5e-7)]
    )
    def test_laplace_uniform_converges(self, order, tol):
        pts = uniform_cube(1500, seed=21)
        kern = get_kernel("laplace")
        dens = np.random.default_rng(3).standard_normal(1500)
        f = Fmm(kern, order=order, max_points_per_box=35).evaluate(pts, dens)
        assert rel_err(f, direct_sum(kern, pts, pts, dens)) < tol

    @pytest.mark.parametrize("dist", ["uniform", "ellipsoid", "plummer"])
    def test_laplace_all_distributions(self, dist):
        maker = {
            "uniform": uniform_cube,
            "ellipsoid": ellipsoid_surface,
            "plummer": plummer_cluster,
        }[dist]
        pts = maker(1800, seed=4)
        kern = get_kernel("laplace")
        dens = np.random.default_rng(8).standard_normal(1800)
        f = Fmm(kern, order=6, max_points_per_box=30).evaluate(pts, dens)
        assert rel_err(f, direct_sum(kern, pts, pts, dens)) < 5e-5

    def test_stokes(self):
        pts = uniform_cube(1000, seed=9)
        kern = get_kernel("stokes")
        dens = np.random.default_rng(1).standard_normal(3000)
        f = Fmm(kern, order=6, max_points_per_box=40).evaluate(pts, dens)
        assert rel_err(f, direct_sum(kern, pts, pts, dens)) < 1e-3
        assert f.shape == (3000,)

    def test_yukawa(self):
        pts = uniform_cube(1000, seed=9)
        kern = get_kernel("yukawa", lam=2.0)
        dens = np.random.default_rng(1).standard_normal(1000)
        f = Fmm(kern, order=6, max_points_per_box=40).evaluate(pts, dens)
        assert rel_err(f, direct_sum(kern, pts, pts, dens)) < 5e-5

    def test_kernel_by_name(self):
        pts = uniform_cube(400, seed=2)
        dens = np.ones(400)
        f = Fmm("laplace", order=4, max_points_per_box=20).evaluate(pts, dens)
        assert np.all(f > 0)  # positive charges: positive potential

    def test_q_parameter_insensitive_accuracy(self):
        """Accuracy must not depend on the points-per-box tuning knob."""
        pts = uniform_cube(1200, seed=6)
        kern = get_kernel("laplace")
        dens = np.random.default_rng(2).standard_normal(1200)
        ref = direct_sum(kern, pts, pts, dens)
        for q in (15, 60, 300):
            f = Fmm(kern, order=6, max_points_per_box=q).evaluate(pts, dens)
            assert rel_err(f, ref) < 5e-5, f"q={q}"

    def test_all_points_in_one_leaf_is_direct(self):
        """Tiny N: tree is a single root leaf and FMM equals direct sum."""
        pts = uniform_cube(50, seed=3)
        kern = get_kernel("laplace")
        dens = np.random.default_rng(5).standard_normal(50)
        f = Fmm(kern, order=4, max_points_per_box=64).evaluate(pts, dens)
        np.testing.assert_allclose(f, direct_sum(kern, pts, pts, dens), rtol=1e-12)


class TestM2LModes:
    def test_fft_equals_dense(self):
        pts = ellipsoid_surface(1200, seed=11)
        kern = get_kernel("laplace")
        dens = np.random.default_rng(4).standard_normal(1200)
        f1 = Fmm(kern, order=6, max_points_per_box=25, m2l_mode="fft").evaluate(pts, dens)
        f2 = Fmm(kern, order=6, max_points_per_box=25, m2l_mode="dense").evaluate(pts, dens)
        assert rel_err(f1, f2) < 1e-10

    def test_fft_equals_dense_stokes(self):
        pts = uniform_cube(600, seed=12)
        kern = get_kernel("stokes")
        dens = np.random.default_rng(4).standard_normal(1800)
        f1 = Fmm(kern, order=4, max_points_per_box=25, m2l_mode="fft").evaluate(pts, dens)
        f2 = Fmm(kern, order=4, max_points_per_box=25, m2l_mode="dense").evaluate(pts, dens)
        assert rel_err(f1, f2) < 1e-10

    @pytest.mark.parametrize("order", [4, 5, 6, 7, 8])
    @pytest.mark.parametrize("kernel", ["laplace", "stokes"])
    def test_fft_grid_is_alias_free_and_one_smaller_aliases(
        self, kernel, order, monkeypatch
    ):
        """The FFT V-list on its ``(2p - 1)^3`` grid equals the dense M2L on
        the two geometries above (the two cases the tests above run are not
        repeated); forced onto a ``(2p - 2)^3`` grid it wraps the extreme
        offsets onto each other and misses by orders of magnitude.  The
        bound is about 8x the largest error read (6.1e-11, Laplace p7 on one
        BLAS thread, 3.8e-11 on two): roundoff through the DC -> DE solve."""
        if kernel == "laplace":
            pts = ellipsoid_surface(1200, seed=11)
        else:
            pts = uniform_cube(600, seed=12)
        kern = get_kernel(kernel)
        dens = np.random.default_rng(4).standard_normal(pts.size // 3 * kern.source_dim)

        def run(mode):
            return Fmm(kern, order=order, max_points_per_box=25,
                       m2l_mode=mode).evaluate(pts, dens)

        fft = run("fft")
        if (kernel, order) not in (("laplace", 6), ("stokes", 4)):
            assert rel_err(fft, run("dense")) < 5e-10
        # a class property shadows the constructor's ``self.n = 2p - 1``
        small = property(lambda s: 2 * s.order - 2, lambda s, _n: None)
        monkeypatch.setattr(FftM2L, "n", small, raising=False)
        assert rel_err(run("fft"), fft) > 1e-3

    def test_grid_rule(self):
        """``n = 2p - 1``; the charges stay on the paper's ``(2p)^3`` grid."""
        for kernel in ("laplace", "stokes"):
            kern = get_kernel(kernel)
            kk = kern.source_dim * kern.target_dim
            for p in range(4, 17):
                fft = FftM2L(kern, p)
                assert (fft.n, fft.nf) == (2 * p - 1, p), p
                m3 = (2 * p) ** 3
                assert fft.fft_flops_per_box() == 5.0 * m3 * np.log2(m3)
                assert fft.translate_flops_per_pair() == 8.0 * kk * (2 * p) ** 2 * (p + 1)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            Fmm("laplace", m2l_mode="magic")

    def test_fft_translator_matches_dense_operator(self, rng, monkeypatch):
        """Unit-level: the staged sibling-group translation reproduces the
        dense M2L matvecs.  One target parent with all 26 colleagues, so
        every (direction, source child, target child) combination occurs,
        checked against ``OperatorCache.m2l_dense`` per listed pair; then
        again with absent source and target children and an out-of-scope
        target; then with a corner parent as a second group of the same
        wave, whose ``dirs`` (7 colleagues) need their own ``K``."""
        for name, order in (("laplace", 6), ("stokes", 4), ("yukawa", 4)):
            kern = get_kernel(name)
            ops, fft = OperatorCache(kern, order), FftM2L(kern, order)
            for holes, targets in ((False, (13,)), (True, (13,)), (True, (13, 0))):
                tree, v, scope, pairs = _colleague_block(rng, holes, targets)
                with monkeypatch.context() as m:
                    m.setattr(FftM2L, "GROUP_PARENTS", 1)
                    groups = fft.schedule(tree, v, scope)
                assert sum(g.n_pairs for g in groups) == len(pairs)
                assert sorted(g.dirs.size for g in groups) == [7, 26][-len(targets):]
                up = rng.standard_normal(
                    (tree.n_nodes, 1, ops.n_surf * kern.source_dim)
                )
                want = np.zeros((tree.n_nodes, ops.n_surf * kern.target_dim))
                for t, s, off in pairs:
                    want[t] += ops.m2l_dense(3, off) @ up[s, 0]
                for cdtype, tol in ((np.complex128, 1e-10), (np.complex64, 2e-4)):
                    got = np.zeros((tree.n_nodes, 1, want.shape[1]))
                    fft.translate(groups, up, got, cdtype)
                    np.testing.assert_allclose(
                        got[:, 0], want, rtol=0, atol=tol * np.abs(want).max()
                    )
                    # rows with no listed pair are never written
                    assert not got[~want.any(axis=1)].any()

    @given(st.integers(0, 2**31 - 1), st.sampled_from([(4, 2e-3), (6, 5e-5)]))
    @settings(max_examples=6, deadline=None)
    def test_random_adaptive_cloud_matches_direct_sum(self, seed, order_tol):
        """Clustered random clouds (deep, unbalanced trees) through the full
        evaluate, against direct summation under the order -> error ladder."""
        order, tol = order_tol
        rng = np.random.default_rng(seed)
        n = int(rng.integers(300, 900))
        centres = rng.random((int(rng.integers(1, 5)), 3))
        spread = 10.0 ** rng.uniform(-3, -0.5, size=(len(centres), 1))
        which = rng.integers(0, len(centres), n)
        pts = np.clip(
            centres[which] + spread[which] * rng.standard_normal((n, 3)), 0, 1
        )
        kern = get_kernel("laplace")
        dens = rng.standard_normal(n)
        f = Fmm(kern, order=order, max_points_per_box=20).evaluate(pts, dens)
        assert rel_err(f, direct_sum(kern, pts, pts, dens)) < tol


class TestStagedTransforms:
    """The box-last DFT stages of ``FftM2L.translate`` against their
    definition: ``rfftn`` / ``irfftn`` of the zero-embedded ``n^3`` grid
    (``n = fft.n``: 7, 11 and 15 at orders 4, 6 and 8), within
    ``8 n eps(dtype) max|ref|``."""

    @staticmethod
    def _bound(n, cdtype, ref):
        return 8 * n * np.finfo(cdtype).eps * np.abs(ref).max()

    @pytest.mark.parametrize("cdtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("kernel", ["laplace", "stokes"])
    @pytest.mark.parametrize("order", [4, 6, 8])
    def test_fft_in_and_out_equal_full_grid_transforms(
        self, rng, order, kernel, cdtype
    ):
        kern = get_kernel(kernel)
        fft = FftM2L(kern, order)
        ks, kt, n = kern.source_dim, kern.target_dim, fft.n
        rdtype = np.float32 if cdtype == np.complex64 else np.float64
        # absent source and target children; the corner parent reads the
        # "no colleague" column in 19 of its 26 directions
        tree, v, scope, _ = _colleague_block(rng, True, (13, 0))
        (g,) = fft.schedule(tree, v, scope)
        assert (g.schild < 0).any() and (g.tchild < 0).any()
        assert (g.nbr == len(g.schild)).any()
        up = rng.standard_normal((tree.n_nodes, 2, fft.ns * ks))
        got = np.zeros((tree.n_nodes, 2, fft.ns * kt))
        ijk = tuple(surfaces.surface_lattice(order).T)
        stages, wave, planted = [], [], []

        def run(tiles, compute, done):
            """FFT-in and FFT-out as they are; in between, seeded
            accumulators instead of the GEMM, and the tables checked."""
            stages.append(len(tiles))
            if len(stages) != 2:
                for tile in tiles:
                    compute(tile)
                if len(stages) == 1:
                    wave.extend(tiles)
                return
            for g, j, spec, acc in wave:
                want = np.zeros((n, n, fft.nf, len(g.schild) + 1, 8, ks), cdtype)
                for (r, c), node in np.ndenumerate(g.schild):
                    for d in range(ks if node >= 0 else 0):
                        grid = np.zeros((n, n, n), rdtype)
                        grid[ijk] = up[node, j, d::ks]
                        want[:, :, :, r, c, d] = np.fft.rfftn(grid)
                assert spec.dtype == cdtype
                want = want.reshape(spec.shape)
                assert np.abs(spec - want).max() <= self._bound(n, cdtype, want), j
                acc[...] = rng.standard_normal(acc.shape)
                acc.imag = rng.standard_normal(acc.shape)
                planted.append(acc.copy())

        fft.translate([g], up, got, cdtype, run=run)
        assert stages == [2, stages[1], 2]  # one wave of two columns
        fac = fft.offset_table(g.level, cdtype)[1]
        want = np.zeros_like(got)
        for (_, j, _, _), acc in zip(wave, planted):
            acc = acc.reshape(n, n, fft.nf, len(g.tchild), 8, kt)
            for (r, c), node in np.ndenumerate(g.tchild):
                for d in range(kt if node >= 0 else 0):
                    grid = np.fft.irfftn(
                        acc[:, :, :, r, c, d], s=(n, n, n), axes=(0, 1, 2)
                    )
                    assert grid.dtype == rdtype
                    want[node, j, d::kt] = grid[ijk] * fac
        assert np.abs(got - want).max() <= self._bound(n, cdtype, want)

    @pytest.mark.parametrize("cdtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("kernel", ["laplace", "stokes"])
    @pytest.mark.parametrize("order", [4, 6, 8])
    def test_round_trip_returns_the_corner(self, rng, order, kernel, cdtype):
        """FFT-in, an identity translation (target child ``(r, c)`` takes
        the spectrum of source child ``(r mod nsp, c)``), FFT-out: the
        surface densities come back, scaled by the level's factor."""
        kern = get_kernel(kernel)
        fft = FftM2L(kern, order)
        ks, n = kern.source_dim, fft.n
        tree, v, scope, _ = _colleague_block(rng, True, (13, 0))
        (g,) = fft.schedule(tree, v, scope)
        up = rng.standard_normal((tree.n_nodes, 1, fft.ns * ks))
        got = np.zeros_like(up)
        nsp, ntp = len(g.schild), len(g.tchild)
        stages, wave = [], []

        def run(tiles, compute, done):
            stages.append(len(tiles))
            if len(stages) != 2:
                for tile in tiles:
                    compute(tile)
                if len(stages) == 1:
                    wave.extend(tiles)
                return
            for g, _, spec, acc in wave:
                src = spec.reshape(-1, nsp + 1, 8 * ks)[:, np.arange(ntp) % nsp]
                acc[...] = src.reshape(acc.shape)

        fft.translate([g], up, got, cdtype, run=run)
        fac = fft.offset_table(g.level, cdtype)[1]
        want = np.zeros_like(up)
        for (r, c), node in np.ndenumerate(g.tchild):
            src = g.schild[r % nsp, c]
            if node >= 0 and src >= 0:
                want[node] = fac * up[src]
        assert want.any()
        assert np.abs(got - want).max() <= self._bound(n, cdtype, want)


class TestOffsetTable:
    """The offset table against its definition: ``rfftn`` of each of the
    316 offsets' kernel grids, within ``8 n eps max|ref|``."""

    @staticmethod
    def _rfftn_table(fft, level):
        from repro.core.lists import V_OFFSETS
        from repro.core.operators import level_half_width

        kern, p, n = fft.kernel, fft.order, fft.n
        kt, ks = kern.target_dim, kern.source_dim
        h = 2.0 * level_half_width(level) / (p - 2)
        m = np.arange(n)
        d = np.where(m < p, m, m - n)
        grid = np.stack(np.meshgrid(d, d, d, indexing="ij"), axis=-1).reshape(-1, 3)
        out = np.zeros((n * n * fft.nf, len(V_OFFSETS) + 1, kt, ks), np.complex128)
        for i, off in enumerate(V_OFFSETS):
            vals = kern.matrix(h * ((p - 2) * off + grid), np.zeros((1, 3)))
            out[:, i] = np.fft.rfftn(
                vals.reshape(n, n, n, kt, ks), axes=(0, 1, 2)
            ).reshape(-1, kt, ks)
        return out.reshape(n * n * fft.nf, -1)

    @pytest.mark.parametrize(
        "kname, kwargs, order, level",
        [("laplace", {}, 6, 2), ("laplace", {}, 8, 2), ("stokes", {}, 4, 2),
         ("yukawa", {"lam": 5.0}, 4, 3), ("laplace", {"softening": 1e-3}, 4, 3)],
    )
    def test_mirrored_table_matches_all_offsets(self, kname, kwargs, order, level):
        kern = get_kernel(kname, **kwargs)
        assert kern.transpose_symmetric
        fft = FftM2L(kern, order)
        got = fft.offset_table(level)[0]
        ref = self._rfftn_table(fft, level)
        assert np.abs(got - ref).max() <= 8 * fft.n * np.finfo(float).eps * np.abs(ref).max()
        assert not got[:, -kern.target_dim * kern.source_dim :].any()  # the zero slot

    def test_table_gemms_run_on_one_blas_thread(self, monkeypatch):
        """The table is built at compile, right before the first apply: an
        ambient multi-thread GEMM there leaves the BLAS library's workers
        spinning into that apply's V-list, where they take cores from the
        tile pool (its first translate stage read ~20 ms slow on a
        2-core host)."""
        import repro.core.fft_m2l as fft_m2l
        from repro.util.blas import blas_controller, blas_thread_count

        if blas_controller() is None or blas_thread_count() < 2:
            pytest.skip("ambient BLAS is single-threaded: nothing to pin")
        widths = []

        class Spy:
            def __getattr__(self, name):
                return getattr(np, name)

            def matmul(self, *args, **kw):
                widths.append(blas_thread_count())
                return np.matmul(*args, **kw)

        monkeypatch.setattr(fft_m2l, "np", Spy())
        FftM2L(get_kernel("laplace"), 4).offset_table(2)
        assert widths and set(widths) == {1}

    def test_undeclared_kernel_evaluates_every_offset(
        self, counting_laplace, undeclared_laplace
    ):
        fft = FftM2L(undeclared_laplace, 4)
        got = fft.offset_table(2)[0]
        assert undeclared_laplace.evaluated == 316 * fft.n**3
        ref = self._rfftn_table(fft, 2)
        assert np.abs(got - ref).max() <= 8 * fft.n * np.finfo(float).eps * np.abs(ref).max()
        FftM2L(counting_laplace, 4).offset_table(2)
        assert counting_laplace.evaluated == 158 * fft.n**3


def _colleague_block(rng, holes, targets=(13,)):
    """A 3 x 3 x 3 block of level-2 boxes with their level-3 children, as the
    arrays ``FftM2L.schedule`` reads, plus the V-list of the children of the
    ``targets`` parents (13 is the centre box, 0 a corner) from brute-force
    geometry: ``(tree, v, scope, [(t, s, offset)])``.

    With ``holes``, some source children and one target child are absent
    and one more target child is out of scope (its pairs stay in ``v``).
    """
    from types import SimpleNamespace

    from repro.core.lists import CsrList

    parents = np.array([(x, y, z) for x in range(3) for y in range(3) for z in range(3)])
    kids = (np.arange(8)[:, None] >> (2, 1, 0)) & 1
    keep = np.ones((27, 8), dtype=bool)
    if holes:
        keep[rng.integers(0, 27, 12), rng.integers(0, 8, 12)] = False
        keep[13, 5] = False  # a target child
        keep[13, 0] = True
    n = 27 + int(keep.sum())
    children = np.full((n, 8), -1)
    children[:27][keep] = np.arange(27, n)
    par, pos = np.nonzero(keep)
    coords = np.vstack([parents + 0.5, parents[par] + 0.25 + 0.5 * kids[pos]])
    tree = SimpleNamespace(
        n_nodes=n,
        levels=np.r_[np.full(27, 2), np.full(n - 27, 3)],
        parent=np.r_[np.full(27, -1), par],
        children=children,
        centers=coords / 4.0,
        half_widths=np.r_[np.full(27, 0.125), np.full(n - 27, 0.0625)],
    )
    scope = np.ones(n, dtype=bool)
    if holes:
        scope[children[13, 0]] = False
    rows, cols, pairs = [], [], []
    for tp in targets:
        for t, s in ((t, s) for t in children[tp][children[tp] >= 0]
                     for s in range(27, n)):
            off = np.rint((tree.centers[t] - tree.centers[s]) * 8).astype(int)
            colleagues = np.abs(parents[tree.parent[s]] - parents[tp]).max() <= 1
            if colleagues and np.abs(off).max() > 1:
                rows.append(t)
                cols.append(s)
                if scope[t]:
                    pairs.append((t, s, tuple(off)))
    return tree, CsrList.from_pairs(np.array(rows), np.array(cols), n), scope, pairs


class TestApiContract:
    def test_wrong_density_size(self):
        pts = uniform_cube(100, seed=1)
        with pytest.raises(ValueError, match=r"densities shape \(100,\)"):
            Fmm("stokes", order=4).evaluate(pts, np.zeros(100))

    def test_plan_reuse(self):
        pts = uniform_cube(800, seed=13)
        kern = get_kernel("laplace")
        fmm = Fmm(kern, order=4, max_points_per_box=30)
        plan = fmm.plan(pts)
        d1 = np.random.default_rng(0).standard_normal(800)
        d2 = np.random.default_rng(1).standard_normal(800)
        f1 = fmm.evaluate(pts, d1, plan=plan)
        f2 = fmm.evaluate(pts, d2, plan=plan)
        # linearity through a shared plan
        f12 = fmm.evaluate(pts, d1 + d2, plan=plan)
        np.testing.assert_allclose(f1 + f2, f12, rtol=1e-8, atol=1e-12)

    def test_profile_records_phases(self):
        pts = uniform_cube(600, seed=14)
        prof = PhaseProfile()
        Fmm("laplace", order=4, max_points_per_box=30).evaluate(
            pts, np.ones(600), profile=prof
        )
        for phase in ("tree", "lists", "S2U", "U2U", "VLI", "D2D", "D2T", "ULI"):
            assert phase in prof.events, phase
        assert prof.events["ULI"].flops > 0
        assert prof.events["VLI"].flops > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        """One non-finite coordinate is a ValueError naming ``points`` and
        the row, at ``plan`` and at ``evaluate`` — not a RuntimeWarning
        followed by non-finite potentials."""
        pts = uniform_cube(400, seed=16)
        pts[123, 1] = bad
        fmm = Fmm("laplace", order=4, max_points_per_box=40)
        with pytest.raises(ValueError, match=r"points must be finite; row 123"):
            fmm.plan(pts)
        with pytest.raises(ValueError, match=r"points must be finite; row 123"):
            fmm.evaluate(pts, np.ones(400))

    @pytest.mark.parametrize("move", ["+0.5", "-0.5", "x2"])
    def test_points_outside_unit_cube_rejected(self, move):
        """A point outside the root box is a ValueError naming ``points`` and
        the first bad row at ``plan``, ``evaluate`` and ``update_plan`` —
        not a key clipped into the cube and a garbage potential."""
        pts = uniform_cube(400, seed=16)
        bad = {"+0.5": pts + 0.5, "-0.5": pts - 0.5, "x2": 2.0 * pts}[move]
        row = int(np.argmax(((bad < 0.0) | (bad > 1.0)).any(axis=1)))
        fmm = Fmm("laplace", order=4, max_points_per_box=40)
        plan = fmm.plan(pts)
        for call in (lambda: fmm.plan(bad), lambda: fmm.evaluate(bad, np.ones(400)),
                     lambda: fmm.update_plan(plan, bad)):
            with pytest.raises(ValueError, match=rf"points must lie in .*; row {row} is"):
                call()

    def test_points_on_the_closed_boundary_accepted(self):
        """0.0 and 1.0 are inside, coincident corner points too: the answer
        is the direct sum's."""
        pts = uniform_cube(1000, seed=19)
        pts[:4] = [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.5], [1.0, 0.2, 0.0]]
        pts[4:54] = 1.0  # 50 points on the far corner
        kern = get_kernel("laplace")
        dens = np.random.default_rng(9).standard_normal(1000)
        f = Fmm(kern, order=6, max_points_per_box=40).evaluate(pts, dens)
        assert rel_err(f, direct_sum(kern, pts, pts, dens)) < 5e-5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j])
    def test_bad_densities_rejected(self, bad):
        """A NaN / Inf density (it would turn every potential of its column
        to NaN) or a complex one (its imaginary part would be dropped) is a
        ValueError naming ``densities``, flat or in a column block."""
        pts = uniform_cube(300, seed=18)
        fmm = Fmm("laplace", order=4, max_points_per_box=40)
        plan = fmm.plan(pts)
        rule = "real" if bad == 1j else "finite; row 57"
        for shape in ((300,), (300, 3)):
            dens = np.ones(shape, dtype=complex if bad == 1j else float)
            dens[57] += bad
            with pytest.raises(ValueError, match=rf"Fmm.evaluate: densities must be {rule}"):
                fmm.evaluate(pts, dens, plan=plan)

    def test_integer_and_float32_densities_accepted(self):
        pts = uniform_cube(300, seed=18)
        fmm = Fmm("laplace", order=4, max_points_per_box=40)
        plan = fmm.plan(pts)
        dens = np.arange(300) % 7 - 3
        want = fmm.evaluate(pts, dens.astype(np.float64), plan=plan)
        for cast in (dens, dens.astype(np.float32)):
            assert np.array_equal(fmm.evaluate(pts, cast, plan=plan), want)

    @pytest.mark.parametrize("kernel", ["laplace", "stokes"])
    def test_zero_column_block(self, kernel):
        """A ``(n * ks, 0)`` density block is the empty ``(n * kt, 0)``
        answer, and no phase runs for it."""
        pts = uniform_cube(300, seed=17)
        fmm = Fmm(kernel, order=4, max_points_per_box=40)
        plan, prof = fmm.plan(pts), PhaseProfile()
        kd = fmm.kernel.source_dim
        out = fmm.evaluate(pts, np.ones((300 * kd, 0)), plan=plan, profile=prof)
        assert out.shape == (300 * fmm.kernel.target_dim, 0)
        assert not prof.events

    def test_plan_for_other_points_rejected(self):
        """A plan answers only for the points it was built for: other
        points (a second draw, a reordering, a subset) are a
        PlanMismatchError naming ``points`` / ``sources``, not the
        potentials at the plan's own points."""
        from repro.core.plan import PlanMismatchError

        pts, other = uniform_cube(500, seed=21), uniform_cube(500, seed=22)
        dens = np.random.default_rng(8).standard_normal(500)
        fmm = Fmm("laplace", order=4, max_points_per_box=40)
        plan = fmm.plan(other)
        for bad in (pts, other[::-1], other[:250]):
            with pytest.raises(PlanMismatchError, match=r"^points are not the points"):
                fmm.evaluate(bad, dens, plan=plan)
            with pytest.raises(PlanMismatchError, match=r"^sources are not the points"):
                fmm.evaluate_targets(bad, dens, pts, plan=plan)
        # the points it was built for, in a copy, still pass
        want = fmm.evaluate(other, dens)
        assert np.array_equal(fmm.evaluate(other.copy(), dens, plan=plan), want)

    @pytest.mark.parametrize("arg", ["order", "max_points_per_box"])
    def test_non_integral_sizes_rejected(self, arg):
        """``order`` and ``max_points_per_box`` are integers: 6.9 or 1.5 is
        a ValueError naming the argument at ``Fmm``, ``DistributedFmm`` and
        (``order``) ``FmmEvaluator`` — not a silent truncation to 6 or 1.
        NumPy integers pass."""
        from repro.core.evaluator import FmmEvaluator
        from repro.dist.driver import DistributedFmm

        makers = [Fmm, DistributedFmm]
        if arg == "order":
            makers.append(lambda order: FmmEvaluator(get_kernel("laplace"), order))
        for make in makers:
            for bad in (6.9, 1.5, "6", None):
                with pytest.raises(ValueError, match=rf"{arg} must be an integer"):
                    make(**{arg: bad})
            assert getattr(make(**{arg: np.int64(6)}), arg) == 6

    def test_output_order_matches_input(self):
        """Permuting inputs permutes outputs identically."""
        pts = uniform_cube(500, seed=15)
        dens = np.random.default_rng(6).standard_normal(500)
        fmm = Fmm("laplace", order=4, max_points_per_box=25)
        f = fmm.evaluate(pts, dens)
        perm = np.random.default_rng(7).permutation(500)
        f_perm = fmm.evaluate(pts[perm], dens[perm])
        np.testing.assert_allclose(f_perm, f[perm], rtol=1e-9, atol=1e-12)


class TestSeparateTargets:
    """The evaluate_targets extension (beyond the paper's coincident sets)."""

    def test_matches_direct(self):
        src = uniform_cube(1500, seed=61)
        tgt = uniform_cube(400, seed=62)
        kern = get_kernel("laplace")
        dens = np.random.default_rng(3).standard_normal(1500)
        fmm = Fmm(kern, order=6, max_points_per_box=30)
        out = fmm.evaluate_targets(src, dens, tgt)
        ref = direct_sum(kern, tgt, src, dens)
        assert rel_err(out, ref) < 5e-5

    def test_stokes_targets(self):
        src = uniform_cube(800, seed=63)
        tgt = ellipsoid_surface(200, seed=64)
        kern = get_kernel("stokes")
        dens = np.random.default_rng(4).standard_normal(2400)
        fmm = Fmm(kern, order=6, max_points_per_box=40)
        out = fmm.evaluate_targets(src, dens, tgt)
        ref = direct_sum(kern, tgt, src, dens)
        assert rel_err(out, ref) < 1e-3
        assert out.shape == (600,)

    def test_targets_in_empty_leaves(self):
        """Targets far from all sources still get the correct far field."""
        src = plummer_cluster(1200, seed=65)  # tight cluster
        rng = np.random.default_rng(66)
        tgt = rng.random((100, 3)) * 0.05 + np.array([0.9, 0.9, 0.05])
        kern = get_kernel("laplace")
        dens = rng.standard_normal(1200)
        fmm = Fmm(kern, order=6, max_points_per_box=25)
        out = fmm.evaluate_targets(src, dens, tgt)
        ref = direct_sum(kern, tgt, src, dens)
        assert rel_err(out, ref) < 5e-5

    def test_coincident_targets_match_evaluate(self):
        pts = uniform_cube(900, seed=67)
        kern = get_kernel("laplace")
        dens = np.random.default_rng(5).standard_normal(900)
        fmm = Fmm(kern, order=4, max_points_per_box=30)
        a = fmm.evaluate(pts, dens)
        b = fmm.evaluate_targets(pts, dens, pts)
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_density_block_matches_direct(self):
        """A ``(n * ks, q)`` block: one column of targets per density."""
        src = uniform_cube(600, seed=70)
        tgt = uniform_cube(80, seed=71)
        kern = get_kernel("stokes")
        block = np.random.default_rng(9).standard_normal((1800, 2))
        fmm = Fmm(kern, order=6, max_points_per_box=40)
        out = fmm.evaluate_targets(src, block, tgt)
        assert out.shape == (240, 2)
        for j in range(2):
            ref = direct_sum(kern, tgt, src, block[:, j])
            assert rel_err(out[:, j], ref) < 1e-3

    @pytest.mark.parametrize("bad", [1.5, -0.1, np.nan])
    def test_targets_outside_unit_cube_rejected(self, bad):
        src = uniform_cube(300, seed=72)
        dens = np.ones(300)
        tgt = uniform_cube(5, seed=73)
        tgt[3, 0] = bad
        fmm = Fmm("laplace", order=4, max_points_per_box=40)
        with pytest.raises(ValueError, match=r"targets.*row 3"):
            fmm.evaluate_targets(src, dens, tgt)

    def test_targets_shape(self):
        src = uniform_cube(300, seed=72)
        dens = np.ones(300)
        fmm = Fmm("laplace", order=4, max_points_per_box=40)
        assert fmm.evaluate_targets(src, dens, np.empty((0, 3))).shape == (0,)
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            fmm.evaluate_targets(src, dens, np.zeros((4, 2)))

    @pytest.mark.parametrize("kernel", ["laplace", "stokes"])
    def test_empty_block_at_targets(self, kernel):
        """A ``(n * ks, 0)`` block has no column to run: ``(n_targets *
        kt, 0)`` at the targets, as ``evaluate`` gives ``(n * kt, 0)``."""
        src = uniform_cube(300, seed=72)
        fmm = Fmm(kernel, order=4, max_points_per_box=40)
        ks, kt = fmm.kernel.source_dim, fmm.kernel.target_dim
        empty = np.zeros((300 * ks, 0))
        assert fmm.evaluate(src, empty).shape == (300 * kt, 0)
        assert fmm.evaluate_targets(src, empty, src[:7]).shape == (7 * kt, 0)

    def test_plan_reuse_with_targets(self):
        src = uniform_cube(700, seed=68)
        kern = get_kernel("laplace")
        fmm = Fmm(kern, order=4, max_points_per_box=40)
        plan = fmm.plan(src)
        d = np.random.default_rng(6).standard_normal(700)
        t1 = uniform_cube(50, seed=69)
        out1 = fmm.evaluate_targets(src, d, t1, plan=plan)
        out2 = fmm.evaluate_targets(src, 2 * d, t1, plan=plan)
        np.testing.assert_allclose(out2, 2 * out1, rtol=1e-10)


    def test_targets_plan_is_cached_per_target_set(self):
        """The first call with a target set compiles a plan whose ULI, D2T
        and WLI sections run at those targets, the second fills it with
        the first call's bits, and ``evaluate`` refuses it; other targets
        replace it rather than reuse it, and the plan ``evaluate`` caches
        keeps its object and its bits."""
        from repro.core.plan import PlanMismatchError

        src = plummer_cluster(1500, seed=74)
        tgt, other = uniform_cube(120, seed=75), uniform_cube(120, seed=76)
        dens = np.random.default_rng(7).standard_normal(1500)
        fmm = Fmm("laplace", order=4, max_points_per_box=25)
        ev, plan = fmm.evaluator, fmm.plan(src)
        want = fmm.evaluate(src, dens, plan=plan)
        assert np.array_equal(fmm.evaluate(src, dens, plan=plan), want)
        full = ev._plan_obj
        assert full is not None and full.target_fingerprint is None
        first = fmm.evaluate_targets(src, dens, tgt, plan=plan)  # compiled
        tp = ev._plan_box["targets"]
        assert tp.uli and tp.d2t and tp.wli and tp.matrix_bytes() > 0
        assert all(b.kmat.array is None for b in tp.uli)  # ... and not filled
        again = fmm.evaluate_targets(src, dens, tgt, plan=plan)  # filled
        assert ev._plan_box["targets"] is tp
        assert all(b.kmat.array is not None for b in tp.uli)
        assert tp.n_targets == 120 and not tp.dual
        assert np.array_equal(first, again)
        with pytest.raises(PlanMismatchError, match="separate targets"):
            fmm.evaluate(src, dens, plan=plan, eval_plan=tp)
        assert np.array_equal(fmm.evaluate_targets(src, dens, tgt, plan=plan), first)
        assert ev._plan_box["targets"] is tp
        got = fmm.evaluate_targets(src, dens, other, plan=plan)
        assert ev._plan_box["targets"] is not tp
        fresh = Fmm("laplace", order=4, max_points_per_box=25)
        assert np.array_equal(got, fresh.evaluate_targets(src, dens, other))
        assert ev._plan_obj is full
        assert np.array_equal(fmm.evaluate(src, dens, plan=plan), want)
        assert ev._plan_obj is full
