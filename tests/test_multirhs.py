"""Multi-RHS evaluation: bit-identity, the GEMM contract, concurrency.

The serving engine's micro-batcher stacks densities as columns and runs
them through all eight phases in one apply.  That is only sound because
of the fixed-shape GEMM contract (:mod:`repro.core.contract`): output
column ``c`` of every batched GEMM depends on input column ``c`` alone,
so a batched result must equal the solo result *bitwise*, not just to
rounding.  These tests pin that promise across kernels, cached and
matrix-free plans, and concurrent callers sharing one evaluator.
"""

import threading

import numpy as np
import pytest

from repro.core import Fmm
from repro.core.contract import Q_PAD, gemm_cols, gemm_rows
from repro.core.fft_m2l import FftM2L
from repro.datasets import plummer_cluster, uniform_cube
from repro.kernels import get_kernel
from repro.perf.trace import TraceRecorder
from repro.util.blas import limit_blas_threads
from repro.util.timer import PhaseProfile
from tests.test_parallel import _affinity


class TestGemmColsContract:
    """The column-independence contract every batched phase relies on."""

    @pytest.mark.parametrize("q", [1, 3, Q_PAD, Q_PAD + 1, 2 * Q_PAD])
    def test_column_independent_bits(self, rng, q):
        k = rng.standard_normal((4, 9, 13))
        den = rng.standard_normal((4, 13, q))
        out = gemm_cols(k, den)
        for c in range(q):
            solo = gemm_cols(k, den[:, :, c : c + 1])[:, :, 0]
            assert np.array_equal(out[:, :, c], solo), f"column {c}"

    def test_position_and_neighbour_independent(self, rng):
        """A column's bits survive any placement and any neighbours."""
        k = rng.standard_normal((3, 7, 11))
        col = rng.standard_normal((3, 11, 1))
        ref = gemm_cols(k, col)[:, :, 0]
        for q, pos in [(2, 1), (5, 0), (5, 4), (8, 3), (11, 9)]:
            den = rng.standard_normal((3, 11, q))
            den[:, :, pos] = col[:, :, 0]
            out = gemm_cols(k, den)
            assert np.array_equal(out[:, :, pos], ref), f"q={q} pos={pos}"

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["fp64", "fp32"])
    @pytest.mark.parametrize("q", [1, 3, Q_PAD, 11])
    @pytest.mark.parametrize("shape", [(4, 9, 13), (6, 152, 64)], ids=str)
    def test_transposed_operand(self, rng, shape, q, dtype):
        """The same contract for ``k.transpose(0, 2, 1)`` views — how the
        W-list contracts X's blocks: a column's bits do not depend on q,
        on its position or on what its neighbours hold."""
        k = rng.standard_normal(shape).astype(dtype).transpose(0, 2, 1)
        assert not k.flags.c_contiguous
        den = rng.standard_normal((shape[0], shape[1], q)).astype(dtype)
        out = gemm_cols(k, den)
        assert out.dtype == dtype
        for c in range(q):
            solo = gemm_cols(k, den[:, :, c : c + 1])[:, :, 0]
            assert np.array_equal(out[:, :, c], solo), f"column {c}"
        for width, pos in [(5, 4), (Q_PAD, 3), (11, 9)]:
            other = rng.standard_normal((shape[0], shape[1], width)).astype(dtype)
            other[:, :, pos] = den[:, :, 0]
            moved = gemm_cols(k, other)[:, :, pos]
            assert np.array_equal(moved, out[:, :, 0]), f"q={width} pos={pos}"
        tol = 1e-12 if dtype is np.float64 else 1e-4
        np.testing.assert_allclose(
            out, gemm_cols(np.ascontiguousarray(k), den), rtol=tol, atol=tol
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["fp64", "fp32"])
    @pytest.mark.parametrize("q", [1, 3, Q_PAD, 11])
    @pytest.mark.parametrize("shape", [(4, 9, 13), (6, 152, 64)], ids=str)
    def test_row_form(self, rng, shape, q, dtype):
        """The same contract for :func:`gemm_rows` — how ULI's stored half
        and D2T read a block from its other side: a row's bits do not
        depend on q, on its position or on what its neighbours hold, and
        the row form is ``kᵀ @ den`` to rounding."""
        k = rng.standard_normal(shape).astype(dtype)
        den = rng.standard_normal((shape[0], q, shape[1])).astype(dtype)
        out = gemm_rows(den, k)
        assert out.dtype == dtype and out.shape == (shape[0], q, shape[2])
        for c in range(q):
            solo = gemm_rows(den[:, c : c + 1], k)[:, 0]
            assert np.array_equal(out[:, c], solo), f"row {c}"
        for width, pos in [(5, 4), (Q_PAD, 3), (11, 9)]:
            other = rng.standard_normal((shape[0], width, shape[1])).astype(dtype)
            other[:, pos] = den[:, 0]
            moved = gemm_rows(other, k)[:, pos]
            assert np.array_equal(moved, out[:, 0]), f"q={width} pos={pos}"
        tol = 1e-12 if dtype is np.float64 else 1e-4
        flag = gemm_cols(k.transpose(0, 2, 1), den.transpose(0, 2, 1))
        np.testing.assert_allclose(out, flag.transpose(0, 2, 1), rtol=tol, atol=tol)

    def test_matches_matmul_numerically(self, rng):
        k = rng.standard_normal((5, 6, 8))
        den = rng.standard_normal((5, 8, 10))
        np.testing.assert_allclose(
            gemm_cols(k, den), np.matmul(k, den), rtol=1e-13, atol=1e-15
        )


DENS_COLUMNS = 5


def _density_block(kernel_name, n, q, seed):
    ks = get_kernel(kernel_name).source_dim
    return np.random.default_rng(seed).standard_normal((n * ks, q))


class TestMultiRhsBitIdentity:
    """Batched evaluate vs per-column solo evaluate, bit for bit."""

    #: ``(columns, FftM2L.SPECTRA_BYTES override)`` blocks pushed through
    #: the plan phases: the historical 5 columns; one column as a block
    #: (the 2-D-view / 3-D-storage boundary); a second ``gemm_cols`` column
    #: group; and a V-list whose spectra bound is below one column, so it
    #: walks the block in column runs of one.
    PLAN_CASES = [
        (DENS_COLUMNS, None), (1, None), (Q_PAD + 1, None), (DENS_COLUMNS, 1),
    ]

    @pytest.mark.parametrize("kernel", ["laplace", "stokes", "yukawa"])
    def test_plan_path(self, kernel, monkeypatch):
        _affinity(monkeypatch, 2)
        n = 900
        pts = uniform_cube(n, seed=31)
        fmm = Fmm(kernel, order=4, max_points_per_box=40)
        block = _density_block(kernel, n, Q_PAD + 1, seed=5)
        plan = fmm.plan(pts)
        ep = fmm.compile_eval_plan(plan)
        # the tile pool pins BLAS to one thread; pin the references alike
        with limit_blas_threads(1):
            solos = [
                fmm.evaluate(pts, block[:, j], plan=plan, eval_plan=ep)
                for j in range(block.shape[1])
            ]
            for q, spectra_bytes in self.PLAN_CASES:
                if spectra_bytes is not None:
                    monkeypatch.setattr(FftM2L, "SPECTRA_BYTES", spectra_bytes)
                for threads in (None, 2):
                    fmm.evaluator.configure_threads(threads)
                    try:
                        multi = fmm.evaluate(
                            pts, block[:, :q], plan=plan, eval_plan=ep
                        )
                    finally:
                        fmm.evaluator.configure_threads(None)
                    assert multi.shape == (n * fmm.kernel.target_dim, q)
                    for j in range(q):
                        assert np.array_equal(multi[:, j], solos[j]), (
                            f"{kernel} q={q} spectra_bytes={spectra_bytes} "
                            f"threads={threads} col {j}"
                        )

    def test_vlist_wave_and_slab_independence(self, monkeypatch):
        """However the (group, column) items of a q=8 block on an adaptive
        tree are cut into waves, and the frequencies into slab tiles, every
        column keeps the bits of its solo apply (one wave, default slabs)."""
        _affinity(monkeypatch, 2)
        n, q = 1500, 8
        pts = plummer_cluster(n, seed=9)
        fmm = Fmm("laplace", order=4, max_points_per_box=20)
        block = _density_block("laplace", n, q, seed=8)
        plan = fmm.plan(pts)
        ep = fmm.compile_eval_plan(plan)
        assert len(ep.vli_fft) >= 3
        stages = []  # tiles per stage run: items, slabs, items per wave
        translate = FftM2L.translate

        def counting(self, groups, up, dcheck, cdtype, buffer, run):
            def counted(tiles, compute, done):
                stages.append(len(tiles))
                run(tiles, compute, done)

            translate(self, groups, up, dcheck, cdtype, buffer, counted)

        def evaluate(dens):
            del stages[:]
            return fmm.evaluate(pts, dens, plan=plan, eval_plan=ep)

        monkeypatch.setattr(FftM2L, "translate", counting)
        spectra_bytes, slab_bytes = FftM2L.SPECTRA_BYTES, FftM2L.SLAB_BYTES
        with limit_blas_threads(1):
            solos = [evaluate(block[:, j]) for j in range(q)]
            items, slabs = len(ep.vli_fft), stages[1]
            assert stages == [items, slabs, items]
            fft = fmm.evaluator.fft
            tables = 16 * fft.n**2 * fft.nf * 8 * sum(
                len(g.schild) + 1 + len(g.tchild) for g in ep.vli_fft
            )
            for spectra, slab in (
                (q * tables // 3, slab_bytes),
                (spectra_bytes, slab_bytes // 2),
                (q * tables // 6, slab_bytes // 2),
            ):
                monkeypatch.setattr(FftM2L, "SPECTRA_BYTES", spectra)
                monkeypatch.setattr(FftM2L, "SLAB_BYTES", slab)
                for threads in (None, 2):
                    fmm.evaluator.configure_threads(threads)
                    try:
                        multi = evaluate(block)
                    finally:
                        fmm.evaluator.configure_threads(None)
                    assert sum(stages[0::3]) == sum(stages[2::3]) == q * items
                    if spectra < spectra_bytes:
                        assert len(stages) >= 3 * 3
                    else:  # one wave, of shorter slabs
                        assert stages == [q * items, stages[1], q * items]
                        assert stages[1] > slabs
                    for j in range(q):
                        assert np.array_equal(multi[:, j], solos[j]), (
                            f"spectra={spectra} slab={slab} threads={threads} col {j}"
                        )

    @pytest.mark.parametrize("kernel", ["laplace", "stokes", "yukawa"])
    def test_no_plan_path(self, kernel):
        """A caller that brings no eval plan gets the matrix-free one: the
        block on the first sighting of the tree (the plan kept, nothing
        filled, every kernel block evaluated in flight), its columns
        alone after."""
        n = 700
        pts = uniform_cube(n, seed=32)
        fmm = Fmm(kernel, order=4, max_points_per_box=40)
        block = _density_block(kernel, n, 3, seed=6)
        plan = fmm.plan(pts)
        multi = fmm.evaluate(pts, block, plan=plan)
        kept = fmm.evaluator._plan_obj  # compiled, not filled
        assert all(b.kmat.array is None for b in kept.uli + kept.s2u)
        free = fmm.compile_eval_plan(plan, matrix_budget=0)
        for j in range(3):
            solo = fmm.evaluate(pts, block[:, j], plan=plan, eval_plan=free)
            assert np.array_equal(multi[:, j], solo), f"{kernel} col {j}"

    def test_plan_path_equals_no_plan_path(self):
        """A cached plan and no plan at all (the matrix-free view of the
        kept plan) agree bitwise, so batching never changes answers."""
        n = 800
        pts = uniform_cube(n, seed=33)
        fmm = Fmm("laplace", order=4, max_points_per_box=35)
        block = _density_block("laplace", n, 4, seed=7)
        plan = fmm.plan(pts)
        b = fmm.evaluate(pts, block, plan=plan)
        ep = fmm.compile_eval_plan(plan)
        assert ep.matrix_bytes() > 0
        a = fmm.evaluate(pts, block, plan=plan, eval_plan=ep)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("cached", [True, False])
    def test_column_zero_on_wlist_sources(self, cached):
        """A batched column equals its solo apply whatever its zeros: no
        schedule looks at the density, so a column that vanishes on W-list
        source leaves is batched exactly like its dense neighbour."""
        n = 3000
        pts = plummer_cluster(n, seed=3)
        fmm = Fmm("laplace", order=4, max_points_per_box=25)
        plan = fmm.plan(pts)
        tree = plan.tree
        ep = fmm.compile_eval_plan(plan, **({} if cached else {"matrix_budget": 0}))
        cols = plan.lists.w.indices  # sources of pair blocks and of direct pairs
        srcs = np.unique(cols[tree.is_leaf[cols]])[:6]
        assert srcs.size == 6, "test tree has too few leaf W-list sources"
        a, b = np.random.default_rng(9).standard_normal((2, n))
        for i in srcs:  # sorted rows pt_begin:pt_end are input rows order[...]
            b[tree.order[tree.pt_begin[i] : tree.pt_end[i]]] = 0.0
        out = fmm.evaluate(pts, np.stack([a, b], axis=1), plan=plan, eval_plan=ep)
        for j, col in enumerate((a, b)):
            solo = fmm.evaluate(pts, col, plan=plan, eval_plan=ep)
            assert np.array_equal(out[:, j], solo), f"column {j}"

    @pytest.mark.parametrize("kernel", ["laplace", "stokes", "laplace_gradient"])
    def test_separate_targets(self, kernel):
        """At separate targets a block rides the target plan's one pass:
        column ``j`` is the solo ``evaluate_targets`` of column ``j`` (the
        first call's transient plan and the cached one alike), and a
        1-wide pool gives the default width's bits."""
        from repro.kernels.gradients import LaplaceGradientKernel

        n, m, q = 900, 300, 3
        src, tgt = plummer_cluster(n, seed=35), uniform_cube(m, seed=36)
        grad = kernel == "laplace_gradient"
        fmm = Fmm("laplace" if grad else kernel, order=4, max_points_per_box=40,
                  eval_kernel=LaplaceGradientKernel() if grad else None)
        block = _density_block(fmm.kernel.name, n, q, seed=8)
        plan = fmm.plan(src)
        with limit_blas_threads(1):
            multi = fmm.evaluate_targets(src, block, tgt, plan=plan)
            assert multi.shape == (m * fmm.evaluator.eval_kernel.target_dim, q)
            for j in range(q):
                solo = fmm.evaluate_targets(src, block[:, j], tgt, plan=plan)
                assert np.array_equal(multi[:, j], solo), f"{kernel} col {j}"
            fmm.evaluator.configure_threads(1)
            try:
                narrow = fmm.evaluate_targets(src, block, tgt, plan=plan)
            finally:
                fmm.evaluator.configure_threads(None)
        assert np.array_equal(narrow, multi)

    def test_single_column_2d_equals_1d(self):
        n = 600
        pts = uniform_cube(n, seed=34)
        fmm = Fmm("laplace", order=4, max_points_per_box=30)
        dens = np.random.default_rng(8).standard_normal(n)
        plan = fmm.plan(pts)
        ep = fmm.compile_eval_plan(plan)
        flat = fmm.evaluate(pts, dens, plan=plan, eval_plan=ep)
        col = fmm.evaluate(pts, dens[:, None], plan=plan, eval_plan=ep)
        assert col.shape == (n, 1)
        assert np.array_equal(col[:, 0], flat)


class TestDensityValidation:
    def test_1d_wrong_size_reports_shape(self):
        pts = uniform_cube(100, seed=1)
        with pytest.raises(ValueError, match=r"densities shape \(100,\)"):
            Fmm("stokes", order=4).evaluate(pts, np.zeros(100))

    def test_2d_wrong_rows_reports_shape(self):
        pts = uniform_cube(100, seed=1)
        with pytest.raises(ValueError, match=r"densities shape \(50, 3\)"):
            Fmm("laplace", order=4).evaluate(pts, np.zeros((50, 3)))

    def test_wrong_size_any_rank_reports_shape(self):
        pts = uniform_cube(100, seed=1)
        with pytest.raises(ValueError, match=r"densities shape \(50, 2, 2\)"):
            Fmm("laplace", order=4).evaluate(pts, np.zeros((50, 2, 2)))


    @pytest.mark.parametrize("shape", [(150, 2), (1, 300), (300, 1, 1), (100, 3)])
    def test_shapes_that_only_fit_in_size_are_refused(self, shape):
        """300 values arranged as neither a flat vector, a (300, q) block
        nor (300, 1) per-point vectors: named, never flattened."""
        pts = uniform_cube(300, seed=1)
        fmm = Fmm("laplace", order=4, max_points_per_box=16)
        dens = np.random.default_rng(2).standard_normal(shape)
        pattern = rf"densities shape \({shape[0]}, {shape[1]}"
        with pytest.raises(ValueError, match=rf"Fmm.evaluate: {pattern}"):
            fmm.evaluate(pts, dens)
        with pytest.raises(ValueError, match=rf"Fmm.evaluate_targets: {pattern}"):
            fmm.evaluate_targets(pts, dens, pts[:5])
        plan = fmm.plan(pts)
        with pytest.raises(ValueError, match=rf"FmmEvaluator.evaluate: {pattern}"):
            fmm.evaluator.evaluate(plan.tree, plan.lists, dens)

    def test_evaluator_targets_take_the_same_rule(self):
        """``FmmEvaluator.evaluate_targets`` checks densities as
        ``evaluate`` does: a shape that only fits in size, a complex or a
        NaN density is a ValueError naming the entry point, and a
        ``(n, q)`` block runs column for column."""
        pts = uniform_cube(300, seed=1)
        fmm = Fmm("laplace", order=4, max_points_per_box=16)
        plan = fmm.plan(pts)
        ev, tree, lists, tgt = fmm.evaluator, plan.tree, plan.lists, pts[:5]
        dens = np.random.default_rng(2).standard_normal(300)
        nan = dens.copy()
        nan[7] = np.nan
        for bad, pattern in ((dens.reshape(150, 2), r"densities shape \(150, 2\)"),
                             (dens + 1j, "densities must be real"),
                             (nan, "densities must be finite; row 7")):
            with pytest.raises(ValueError, match=rf"FmmEvaluator.evaluate_targets: {pattern}"):
                ev.evaluate_targets(tree, lists, bad, tgt)
        block = np.stack([dens, 2 * dens], axis=1)
        out = ev.evaluate_targets(tree, lists, block, tgt)
        assert out.shape == (5, 2)
        for j in range(2):
            assert np.array_equal(out[:, j], ev.evaluate_targets(tree, lists, block[:, j], tgt))

    def test_per_point_vectors_are_one_density(self):
        pts = uniform_cube(200, seed=3)
        fmm = Fmm("stokes", order=4, max_points_per_box=40)
        plan = fmm.plan(pts)
        dens = np.random.default_rng(4).standard_normal((200, 3))
        flat = fmm.evaluate(pts, dens.reshape(-1), plan=plan)
        assert np.array_equal(fmm.evaluate(pts, dens, plan=plan), flat)
        with pytest.raises(ValueError, match=r"densities shape \(3, 200\)"):
            fmm.evaluate(pts, dens.T, plan=plan)

    def test_distributed_and_served_densities_take_the_same_rule(self):
        from repro.dist.driver import DistributedFmm
        from repro.mpi import run_spmd
        from repro.serve import ServeEngine

        pts = uniform_cube(300, seed=5)

        def body(comm):
            fmm = DistributedFmm("laplace", order=4, max_points_per_box=40)
            fmm.setup(comm, pts)
            n = fmm.let.n_owned_points
            dens = np.random.default_rng(6).standard_normal(n)
            flat = fmm.evaluate(dens)
            assert np.array_equal(fmm.evaluate(dens[:, None]), flat)
            with pytest.raises(ValueError, match=r"DistributedFmm.evaluate: "
                               rf"densities shape \(1, {n}\)"):
                fmm.evaluate(dens[None])
            return True

        assert run_spmd(1, body, timeout=120).values == [True]
        with ServeEngine(n_workers=1) as eng:
            eng.register("m", Fmm("laplace", order=4, max_points_per_box=40), pts)
            dens = np.random.default_rng(7).standard_normal(300)
            with pytest.raises(ValueError, match=r"model 'm': densities shape \(150, 2\)"):
                eng.submit("m", dens.reshape(150, 2))
            assert np.array_equal(eng.evaluate("m", dens[:, None]), eng.evaluate("m", dens))

class TestConcurrentEvaluate:
    def test_shared_fmm_bit_identical_one_compile(self):
        """Threads hammering one Fmm/plan agree bitwise with serial runs
        and trigger exactly one lazy plan compile (``setup:plan`` span)."""
        self._hammer(separate=False)

    def test_shared_fmm_targets_bit_identical_one_compile(self):
        """The same at one shared set of separate targets: one compiled
        target plan, and every thread's bits equal a serial run's."""
        self._hammer(separate=True)

    @staticmethod
    def _hammer(separate):
        n = 700
        n_threads, calls_each = 4, 3
        pts = uniform_cube(n, seed=41)
        tgt = uniform_cube(200, seed=42)

        def call(f, dens, **kw):
            if separate:
                return f.evaluate_targets(pts, dens, tgt, plan=plan, **kw)
            return f.evaluate(pts, dens, plan=plan, **kw)

        fmm = Fmm("laplace", order=4, max_points_per_box=40)
        plan = fmm.plan(pts)
        blocks = [
            np.random.default_rng(100 + i).standard_normal(n)
            for i in range(n_threads)
        ]

        trace = TraceRecorder()
        profiles = []
        for i in range(n_threads):
            prof = PhaseProfile()
            prof.bind_trace(trace, rank=i)
            profiles.append(prof)

        results = [[None] * calls_each for _ in range(n_threads)]
        errors = []
        start = threading.Barrier(n_threads)

        def run(i):
            try:
                start.wait(timeout=10)
                for c in range(calls_each):
                    results[i][c] = call(fmm, blocks[i], profile=profiles[i])
            except Exception as err:  # pragma: no cover - failure detail
                errors.append(err)

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not errors, errors

        # serial references on a fresh evaluator (same tree, same numerics)
        fmm2 = Fmm("laplace", order=4, max_points_per_box=40)
        for i in range(n_threads):
            ref = call(fmm2, blocks[i])
            for c in range(calls_each):
                assert np.array_equal(results[i][c], ref), f"thread {i} call {c}"

        compiles = trace.span_events(phase="setup:plan")
        assert len(compiles) == 1, (
            f"expected exactly one plan compile, saw {len(compiles)}"
        )
