"""Intra-rank parallel plan execution: bit-identity, determinism, pools.

The tile executor's contract is that a compiled plan applied through a
``TaskPool`` of *any* width produces byte-for-byte the same result as
the serial apply — the pool only reorders independent tile GEMMs across
disjoint outputs and keeps every combine in compiled tile order.  The
matrix here exercises that claim across kernels, precisions, thread
counts, the distributed driver, checkpoint resume, patched plans and
concurrent serve batches, plus the trace-signature replay guarantee.

Nothing here asserts a time, and nothing elsewhere asserts a bound on
one: the pool is the default, so ``apply_s`` / ``batch_col_s`` of
``bench/run.py``, with their run-to-run spread, are the record of what
it buys.
"""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.evaluator import FmmEvaluator
from repro.core.fmm import Fmm
from repro.core.lists import build_lists
from repro.core.parallel import (
    TaskPool,
    rank_pool_size,
    shared_pool,
)
from repro.core.tree import build_tree
from repro.datasets import uniform_cube
from repro.dist.driver import DistributedFmm
from repro.kernels import get_kernel
from repro.mpi import run_spmd
from repro.perf.model import parallel_report
from repro.perf.trace import TraceRecorder
from repro.util.blas import blas_thread_count, limit_blas_threads
from repro.util.timer import PhaseProfile

N = 900
ORDER = 4
BOX = 40

KERNELS = ("laplace", "yukawa", "stokes")
PRECISIONS = ("fp64", "fp32")
THREADS = (1, 2, 4, 8)


def _density(kern, n, seed=7):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n * kern.source_dim)


@pytest.fixture(scope="module")
def geometry():
    pts = uniform_cube(N, seed=21)
    tree = build_tree(pts, BOX)
    return tree, build_lists(tree)


@pytest.fixture(scope="module")
def compiled(geometry):
    """(evaluator, plan, dens, serial ref, serial multi ref) per case.

    Compiled once per (kernel, precision) and shared across the thread
    sweep; the serial references are computed with BLAS pinned to one
    thread — the same GEMM shapes the pool runs — so the comparison
    isolates the tile scheduler.
    """
    tree, lists = geometry
    cache = {}

    def get(kernel, precision):
        key = (kernel, precision)
        if key not in cache:
            kern = get_kernel(kernel)
            ev = FmmEvaluator(kern, ORDER, precision=precision)
            plan = ev.compile_plan(tree, lists, precision=precision)
            dens = _density(kern, tree.n_points)
            block = np.stack([dens, 2.0 * dens, -dens], axis=1)
            with limit_blas_threads(1):
                ref = ev.evaluate(tree, lists, dens, PhaseProfile(),
                                  plan=plan)
                refm = ev.evaluate(tree, lists, block, PhaseProfile(),
                                   plan=plan)
            cache[key] = (ev, plan, dens, block, ref, refm)
        return cache[key]

    return get


class TestTaskPool:
    def test_results_in_submission_order(self):
        pool = TaskPool(4)
        try:
            results, busy = pool.run(
                [lambda i=i: (time.sleep(0.002 * (7 - i)), i)[1]
                 for i in range(8)]
            )
            assert results == list(range(8))
            assert busy > 0.0
        finally:
            pool.shutdown()

    def test_inline_when_single_thread_or_task(self):
        pool = TaskPool(1)
        results, _ = pool.run([lambda: 1, lambda: 2])
        assert results == [1, 2]
        assert pool._exec is None  # never spun up an executor
        wide = TaskPool(8)
        results, _ = wide.run([lambda: 3])
        assert results == [3]
        assert wide._exec is None

    def test_stats_counters(self):
        pool = TaskPool(2)
        try:
            pool.run([lambda: None] * 5)
            st = pool.stats()
            assert st["threads"] == 2
            assert st["tiles_run"] == 5
            assert st["runs"] == 1
            assert st["tiles_active"] == 0
            assert st["tiles_queued"] == 0
        finally:
            pool.shutdown()

    def test_shared_pool_registry_resizes(self, monkeypatch):
        _affinity(monkeypatch, 4)
        a = shared_pool(2, key="test-shared")
        b = shared_pool(2, key="test-shared")
        assert a is b
        c = shared_pool(3, key="test-shared")
        assert c is not a and c.threads == 3
        c.shutdown()

    def test_rank_pool_size_never_oversubscribes(self):
        assert rank_pool_size(4, 1, host_cpus=8) == 4
        assert rank_pool_size(4, 2, host_cpus=8) == 4
        assert rank_pool_size(4, 4, host_cpus=8) == 2
        assert rank_pool_size(4, 8, host_cpus=8) == 1
        assert rank_pool_size(4, 16, host_cpus=8) == 1  # floor at 1
        assert rank_pool_size(1, 1, host_cpus=1) == 1
        # p ranks x per-rank threads <= host cpus (when cpus >= ranks)
        for cpus in (1, 2, 4, 8, 16):
            for p in (1, 2, 4, 8):
                t = rank_pool_size(8, p, host_cpus=cpus)
                if cpus >= p:
                    assert p * t <= max(cpus, p)


class TestBitIdentitySolo:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("threads", THREADS)
    def test_matches_serial(self, compiled, geometry, kernel, precision,
                            threads, monkeypatch):
        _affinity(monkeypatch, max(THREADS))
        tree, lists = geometry
        ev, plan, dens, block, ref, refm = compiled(kernel, precision)
        ev.configure_threads(threads)
        try:
            out = ev.evaluate(tree, lists, dens, PhaseProfile(), plan=plan)
            outm = ev.evaluate(tree, lists, block, PhaseProfile(),
                               plan=plan)
        finally:
            ev.configure_threads(None)
        assert np.array_equal(out, ref)
        assert np.array_equal(outm, refm)

    def test_matches_pinned_serial_at_blas_scale(self, monkeypatch):
        """The served ``stk`` shape: 3 000 uniform points, Stokes, order 6.

        Its per-level check-to-equivalent conversions are 456-wide GEMMs
        over hundreds of boxes — large enough for a multi-thread BLAS to
        split, which the N=900 / order-4 matrix above never is.  A GEMM
        left outside the pooled phase's pin then shows up as a pooled
        apply that differs from the pinned serial one.
        """
        _affinity(monkeypatch, 2)
        if blas_thread_count() < 2:
            pytest.skip(
                "BLAS runs a single thread (or is not controllable) here: "
                "pinned and ambient GEMMs are the same computation"
            )
        kern = get_kernel("stokes")
        tree = build_tree(uniform_cube(3_000, seed=23), 64)
        lists = build_lists(tree)
        ev = FmmEvaluator(kern, 6)
        plan = ev.compile_plan(tree, lists)
        dens = _density(kern, tree.n_points)
        block = np.stack([dens, -dens], axis=1)
        with limit_blas_threads(1):
            ref = ev.evaluate(tree, lists, dens, PhaseProfile(), plan=plan)
            refm = ev.evaluate(tree, lists, block, PhaseProfile(), plan=plan)
        for threads in (1, 2):
            ev.configure_threads(threads)
            try:
                out = ev.evaluate(tree, lists, dens, PhaseProfile(),
                                  plan=plan)
                outm = ev.evaluate(tree, lists, block, PhaseProfile(),
                                   plan=plan)
            finally:
                ev.configure_threads(None)
            assert np.array_equal(out, ref), f"threads={threads}"
            assert np.array_equal(outm, refm), f"threads={threads} multi"

    def test_threads_kwarg_on_fmm(self, monkeypatch):
        _affinity(monkeypatch, 4)
        pts = uniform_cube(600, seed=22)
        dens = _density(get_kernel("laplace"), 600)
        serial = Fmm("laplace", order=ORDER, max_points_per_box=BOX)
        splan = serial.plan(pts)
        with limit_blas_threads(1):
            sep = serial.compile_eval_plan(splan)
            ref = serial.evaluate(pts, dens, plan=splan, eval_plan=sep)
        par = Fmm("laplace", order=ORDER, max_points_per_box=BOX, threads=4)
        assert par.evaluator.threads == 4
        pplan = par.plan(pts)
        pep = par.compile_eval_plan(pplan)
        assert np.array_equal(
            par.evaluate(pts, dens, plan=pplan, eval_plan=pep), ref
        )


def _dist_body(comm, pts, kernel, precision, threads):
    mine = pts[comm.rank :: comm.size]
    fmm = DistributedFmm(
        kernel=kernel, order=ORDER, max_points_per_box=BOX,
        precision=precision,
    )
    fmm.setup(comm, mine)
    if threads is not None:
        # past the rank's share: the pool path runs multi-threaded even
        # on small CI hosts (callers state the budget with _affinity)
        fmm.evaluator.configure_threads(threads)
    kern = get_kernel(kernel)
    dens = np.random.default_rng(51 + comm.rank).standard_normal(
        len(fmm.owned_points) * kern.source_dim
    )
    return fmm.evaluate(dens)


class TestBitIdentityDistributed:
    @pytest.mark.parametrize("p", [1, 4])
    @pytest.mark.parametrize("kernel,precision", [
        ("laplace", "fp64"), ("laplace", "fp32"),
        ("yukawa", "fp64"), ("stokes", "fp64"),
    ])
    def test_matches_serial_ranks(self, p, kernel, precision, monkeypatch):
        _affinity(monkeypatch, 4)
        pts = uniform_cube(800, seed=31)
        base = run_spmd(p, _dist_body, pts, kernel, precision, None,
                        timeout=560)
        for threads in (1, 4):
            par = run_spmd(p, _dist_body, pts, kernel, precision, threads,
                           timeout=560)
            for a, b in zip(base.values, par.values):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("threads", [2, 8])
    def test_laplace_thread_sweep(self, threads, monkeypatch):
        _affinity(monkeypatch, 8)
        pts = uniform_cube(800, seed=32)
        base = run_spmd(4, _dist_body, pts, "laplace", "fp64", None,
                        timeout=560)
        par = run_spmd(4, _dist_body, pts, "laplace", "fp64", threads,
                       timeout=560)
        for a, b in zip(base.values, par.values):
            assert np.array_equal(a, b)

    def test_driver_threads_sized_by_rank_count(self):
        pts = uniform_cube(600, seed=33)

        def body(comm):
            fmm = DistributedFmm(order=ORDER, max_points_per_box=BOX,
                                 threads=4)
            fmm.setup(comm, pts[comm.rank :: comm.size])
            return fmm.evaluator.threads

        res = run_spmd(2, body, timeout=560)
        want = rank_pool_size(4, 2)
        assert all(t == want for t in res.values)


class TestCheckpointResume:
    def test_resume_bit_identical_under_pool(self, monkeypatch):
        _affinity(monkeypatch, 4)
        pts = uniform_cube(800, seed=41)

        def body(comm):
            fmm = DistributedFmm(order=ORDER, max_points_per_box=BOX)
            fmm.setup(comm, pts[comm.rank :: comm.size])
            fmm.evaluator.configure_threads(4)
            dens = np.random.default_rng(61 + comm.rank).standard_normal(
                len(fmm.owned_points)
            )
            fresh = fmm.evaluate(dens)
            assert fmm.checkpoint_phase == "upward"
            resumed = fmm.evaluate(dens, resume=True)
            # resuming under a different pool width must not change bits
            fmm.evaluator.configure_threads(2)
            resumed2 = fmm.evaluate(dens, resume=True)
            return fresh, resumed, resumed2

        res = run_spmd(4, body, timeout=560)
        for fresh, resumed, resumed2 in res.values:
            assert np.array_equal(fresh, resumed)
            assert np.array_equal(fresh, resumed2)


class TestPatchedPlans:
    def test_patched_plan_parallel_apply_matches_serial(self, monkeypatch):
        _affinity(monkeypatch, 4)
        rng = np.random.default_rng(71)
        pts = uniform_cube(800, seed=42)
        fmm = Fmm("laplace", order=ORDER, max_points_per_box=BOX)
        plan = fmm.plan(pts)
        eplan = fmm.compile_eval_plan(plan)
        # localized blob motion: the regime patch_plan targets
        center = pts[rng.integers(len(pts))]
        d2 = ((pts - center) ** 2).sum(axis=1)
        moved = np.argpartition(d2, 79)[:80]
        new_pts = pts.copy()
        new_pts[moved] = np.clip(
            new_pts[moved] + rng.normal(scale=0.02, size=(80, 3)),
            1e-9, 1.0 - 1e-9,
        )
        new_plan, delta = fmm.update_plan(plan, new_pts, moved=moved)
        patched = fmm.patch_eval_plan(eplan, plan, new_plan, delta=delta)
        dens = rng.standard_normal(len(pts))
        with limit_blas_threads(1):
            ref = fmm.evaluate(new_pts, dens, plan=new_plan,
                               eval_plan=patched)
        for threads in (1, 2, 4):
            fmm.evaluator.configure_threads(threads)
            try:
                out = fmm.evaluate(new_pts, dens, plan=new_plan,
                                   eval_plan=patched)
            finally:
                fmm.evaluator.configure_threads(None)
            assert np.array_equal(out, ref)


class TestConcurrentServe:
    def test_concurrent_batches_on_shared_pool_bitwise(self, monkeypatch):
        from repro.serve import ServeEngine

        _affinity(monkeypatch, 2)
        pts = uniform_cube(500, seed=43)
        fmm = Fmm("laplace", order=ORDER, max_points_per_box=BOX)
        eng = ServeEngine(n_workers=2, max_batch=4, max_wait_ms=5.0,
                          threads=2)
        assert eng.task_pool is not None
        model = eng.register("m", fmm, pts)
        assert model.fmm.evaluator.task_pool is eng.task_pool
        rng = np.random.default_rng(81)
        densities = [rng.standard_normal(len(pts)) for _ in range(12)]
        ep = model.fmm.compile_eval_plan(model.geometry.plan)
        refs = [
            model.fmm.evaluate(pts, d, plan=model.geometry.plan,
                               eval_plan=ep)
            for d in densities
        ]
        with eng:
            reqs = [eng.submit("m", d) for d in densities]
            outs = [r.result(timeout=60.0) for r in reqs]
        for out, ref in zip(outs, refs):
            assert np.array_equal(out, ref)
        snap = eng.metrics.snapshot()
        assert "pools" in snap
        assert snap["pools"]["task_pool"]["threads"] == 2
        assert snap["pools"]["task_pool"]["tiles_run"] > 0
        assert snap["pools"]["workers"]["workers"] == 2

    def test_engine_default_runs_on_the_shared_pool(self, monkeypatch):
        from repro.serve import ServeEngine

        for cores in (1, 2):
            _affinity(monkeypatch, cores)
            eng = ServeEngine(n_workers=1)
            assert eng.task_pool is shared_pool(None)
            assert eng.threads == eng.task_pool.threads == rank_pool_size(None) == cores
            pools = eng.metrics.snapshot()["pools"]
            assert pools["workers"]["workers"] == 1
            assert pools["task_pool"]["threads"] == cores


class TestDeterminismReplay:
    def test_same_seed_different_schedule_same_signature(self, geometry,
                                                         monkeypatch):
        _affinity(monkeypatch, 4)
        tree, lists = geometry
        kern = get_kernel("laplace")
        dens = _density(kern, tree.n_points)

        def traced_run():
            ev = FmmEvaluator(kern, ORDER)
            plan = ev.compile_plan(tree, lists)
            ev.configure_threads(4)
            rec = TraceRecorder()
            prof = PhaseProfile()
            prof.bind_trace(rec, 0)
            out = ev.evaluate(tree, lists, dens, prof, plan=plan)
            ev.configure_threads(None)
            return out, rec.signature()

        out1, sig1 = traced_run()
        out2, sig2 = traced_run()
        assert np.array_equal(out1, out2)
        assert sig1 == sig2

    def test_distributed_signature_replay(self, monkeypatch):
        _affinity(monkeypatch, 4)
        pts = uniform_cube(700, seed=44)

        def run_once():
            res = run_spmd(2, _dist_body, pts, "laplace", "fp64", 4,
                           timeout=560, trace=True)
            return res.trace.signature()

        assert run_once() == run_once()


class TestParallelSpans:
    def test_spans_and_report(self, geometry, monkeypatch):
        _affinity(monkeypatch, 2)
        tree, lists = geometry
        kern = get_kernel("laplace")
        ev = FmmEvaluator(kern, ORDER)
        plan = ev.compile_plan(tree, lists)
        dens = _density(kern, tree.n_points)
        ev.configure_threads(2)
        rec = TraceRecorder()
        prof = PhaseProfile()
        prof.bind_trace(rec, 0)
        try:
            ev.evaluate(tree, lists, dens, prof, plan=plan)
        finally:
            ev.configure_threads(None)
        phases = {
            e.phase for e in rec.span_events()
            if e.phase.startswith("PARALLEL:")
        }
        assert "PARALLEL:S2U" in phases
        assert "PARALLEL:busy:S2U" in phases
        assert "PARALLEL:ULI" in phases
        report = parallel_report(rec)
        assert "overall" in report
        for name, st in report["phases"].items():
            assert st["threads"] == 2
            assert st["tiles"] >= 1
            assert 0.0 < st["achieved"] <= 2.0 + 1e-9
            assert 1.0 <= st["modelled"] <= 2.0
        assert report["overall"]["achieved"] > 0.0

    def test_serial_run_emits_no_parallel_spans(self, geometry):
        tree, lists = geometry
        kern = get_kernel("laplace")
        ev = FmmEvaluator(kern, ORDER, threads=1)
        plan = ev.compile_plan(tree, lists)
        rec = TraceRecorder()
        prof = PhaseProfile()
        prof.bind_trace(rec, 0)
        ev.evaluate(tree, lists, _density(kern, tree.n_points), prof,
                    plan=plan)
        assert not any(
            e.phase.startswith("PARALLEL:") for e in rec.span_events()
        )
        assert parallel_report(rec) == {"phases": {}}


def _affinity(monkeypatch, cores):
    """Pretend the process may run on ``cores`` CPUs (what ``taskset``
    sets), whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cores)), raising=False)


class TestThreadBudget:
    """Live compute threads stay within the usable cores by construction:
    one budget sizes the solo, rank and serving widths, and a serving
    engine runs every model on one process-wide pool of its width."""

    def test_budget_reads_the_affinity_mask(self, monkeypatch):
        for cores in (1, 2):
            _affinity(monkeypatch, cores)
            assert rank_pool_size() == rank_pool_size(8) == cores
            assert FmmEvaluator(get_kernel("laplace"), ORDER).threads == cores

    def test_explicit_widths_are_capped_like_a_rank(self, monkeypatch):
        from repro.serve import ServeEngine

        _affinity(monkeypatch, 2)
        fmm = Fmm("laplace", order=ORDER, max_points_per_box=BOX, threads=4)
        assert fmm.evaluator.task_pool.threads == 2
        pts = uniform_cube(600, seed=35)

        def body(comm):
            fmm = DistributedFmm(order=ORDER, max_points_per_box=BOX,
                                 threads=2)
            fmm.setup(comm, pts[comm.rank :: comm.size])
            return fmm.evaluator.threads

        assert run_spmd(2, body, timeout=560).values == [1, 1]
        eng = ServeEngine(n_workers=2, threads=4)
        assert eng.task_pool.threads == eng.threads == 2

    @pytest.mark.parametrize("threads", [0, -1, 1.5])
    def test_threads_must_be_a_positive_integer(self, threads):
        from repro.__main__ import main
        from repro.serve import ServeEngine

        ev = FmmEvaluator(get_kernel("laplace"), ORDER, threads=1)
        for build in (
            lambda: Fmm("laplace", order=ORDER, threads=threads),
            lambda: ev.configure_threads(threads),
            lambda: DistributedFmm(order=ORDER, threads=threads),
            lambda: ServeEngine(n_workers=1, threads=threads),
        ):
            with pytest.raises(ValueError, match="threads"):
                build()
        assert ev.threads == 1
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--n", "200", "--threads", str(threads)])
        assert exc.value.code == 2

    def test_blas_probe_imports_nothing(self):
        """The BLAS probe looks at packages already loaded: a fresh process
        that evaluates once and reads the BLAS width never imports scipy."""
        code = (
            "import sys, numpy as np, repro\n"
            "from repro.util.blas import blas_thread_count\n"
            "repro.Fmm(order=4).evaluate(np.random.default_rng(0).random((300, 3)), np.ones(300))\n"
            "blas_thread_count()\n"
            "print('scipy' in sys.modules)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.split() == ["False"]

    def test_default_solo_width_is_the_usable_cores(self):
        cores = len(os.sched_getaffinity(0))
        fmm = Fmm("laplace", order=ORDER, max_points_per_box=BOX)
        assert fmm.evaluator.threads == cores
        assert fmm.evaluator.task_pool.threads == cores

    def test_ranks_share_two_cores(self, monkeypatch):
        _affinity(monkeypatch, 2)
        pts = uniform_cube(600, seed=34)

        def body(comm):
            fmm = DistributedFmm(order=ORDER, max_points_per_box=BOX)
            fmm.setup(comm, pts[comm.rank :: comm.size])
            fmm.evaluate(np.ones(len(fmm.owned_points)))
            return fmm.evaluator.threads

        res = run_spmd(2, body, timeout=560, trace=True)
        assert res.values == [1, 1]
        phases = {e.phase for e in res.trace.span_events()}
        assert "ULI" in phases
        assert not any(ph.startswith("PARALLEL:") for ph in phases)

    def test_engine_default_binds_models_to_the_shared_pool(self, monkeypatch):
        from repro.serve import ServeEngine

        for cores in (1, 2):
            _affinity(monkeypatch, cores)
            eng = ServeEngine(n_workers=2)
            pool = shared_pool(None)
            assert eng.task_pool is pool and pool.threads == rank_pool_size(None) == cores
            fmms = [Fmm(k, order=ORDER, max_points_per_box=BOX) for k in ("laplace", "stokes")]
            # each model's own default pool has run tiles on its threads
            ran = [f.evaluator.task_pool.run([threading.current_thread] * 2)[0] for f in fmms]
            own = {t for ts in ran for t in ts} - {threading.current_thread()}
            assert bool(own) == (cores > 1)
            for i, fmm in enumerate(fmms):
                model = eng.register(f"m{i}", fmm, uniform_cube(400, seed=45 + i), warm=False)
                assert model.fmm.evaluator.task_pool is pool
                assert model.fmm.evaluator.threads == cores
            assert not any(t.is_alive() for t in own)  # their own pools shut down
            tiles = pool.stats()["tiles_run"]
            with eng:
                eng.evaluate("m0", np.ones(400))
            pools = eng.metrics.snapshot()["pools"]
            assert pools["task_pool"]["threads"] == cores
            # a 1-wide pool's tiles run inline in the plan, past its counters
            assert (pools["task_pool"]["tiles_run"] > tiles) == (cores > 1)

    def test_serving_and_ranks_share_the_budget(self, monkeypatch):
        """A default engine's two workers serve two models while two SPMD
        ranks evaluate: the only tile threads alive are the shared pool's,
        at most the budget's width, and each rank runs at width 1."""
        from repro.serve import ServeEngine

        _affinity(monkeypatch, 2)
        budget = rank_pool_size(None)
        before = set(threading.enumerate())
        eng = ServeEngine(n_workers=2, max_batch=2)
        for name, kern in (("lap", "laplace"), ("stk", "stokes")):
            eng.register(name, Fmm(kern, order=ORDER, max_points_per_box=BOX),
                         uniform_cube(600, seed=46))
        pts = uniform_cube(600, seed=47)
        done, new_tiles, serve_peak = threading.Event(), set(), [0]
        tiles = eng.task_pool.stats()["tiles_run"]

        def sample():
            while not done.is_set():
                alive = threading.enumerate()
                new_tiles.update(t.name for t in alive if t not in before and "-tile" in t.name)
                serve = sum(t.name.startswith("serve-tile") for t in alive)
                serve_peak[0] = max(serve_peak[0], serve)
                time.sleep(0.001)

        def body(comm):
            fmm = DistributedFmm(order=ORDER, max_points_per_box=BOX)
            fmm.setup(comm, pts[comm.rank :: comm.size])
            for _ in range(3):
                fmm.evaluate(np.ones(len(fmm.owned_points)))
            return fmm.evaluator.threads

        sampler = threading.Thread(target=sample)
        sampler.start()
        try:
            with eng:
                reqs = [eng.submit(name, np.ones(600 * k))
                        for _ in range(4) for name, k in (("lap", 1), ("stk", 3))]
                widths = run_spmd(2, body, timeout=560).values
                for r in reqs:
                    r.result(timeout=60.0)
        finally:
            done.set()
            sampler.join(10.0)
        assert not sampler.is_alive()
        assert widths == [1, 1]
        assert all(n.startswith("serve-tile") for n in new_tiles)
        assert 0 < serve_peak[0] <= budget
        assert eng.metrics.snapshot()["pools"]["task_pool"]["tiles_run"] > tiles

    def test_engines_in_turn_reuse_the_shared_pool(self, monkeypatch):
        """Three default engines, one after another, each serving one
        request: the process-wide pool outlives each ``stop`` and is
        reused, so its threads never stack."""
        from repro.serve import ServeEngine

        _affinity(monkeypatch, 2)
        pts, pools, peak = uniform_cube(500, seed=48), set(), 0
        for _ in range(3):
            with ServeEngine(n_workers=1) as eng:
                eng.register("m", Fmm("laplace", order=ORDER, max_points_per_box=BOX), pts)
                eng.evaluate("m", np.ones(len(pts)))
                pools.add(id(eng.task_pool))
                peak = max(peak, sum(t.name.startswith("serve-tile") for t in threading.enumerate()))
        assert len(pools) == 1
        assert 0 < peak <= rank_pool_size(None)
