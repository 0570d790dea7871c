"""The serving layer: engine, plan cache, batching, admission, chaos.

Everything here runs at small N (hundreds of points, order 4) so the
suite stays in tier-1 time; serving latency, queue wait and batch sizes
are measured by the ``serve_mixed`` workload of ``bench/run.py``.  The
invariants under test do not depend on scale:

* a served result is *bit-identical* to a direct ``Fmm.evaluate`` on
  the same plan (batching is invisible except in latency),
* admission, deadlines and unknown models fail with typed errors,
* the plan cache is LRU under a byte budget and counts hits/misses,
* under an injected fault plan every accepted request still completes
  bit-identically (retried) — no hangs, no silent wrong answers.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import Fmm
from repro.datasets import plummer_cluster, uniform_cube
from repro.mpi.faults import Fault, FaultPlan, RetryPolicy
from repro.serve import (
    DeadlineExceeded,
    FairQueue,
    Overloaded,
    PlanCache,
    Request,
    ServeEngine,
    UnknownModel,
)

N = 500
ORDER = 4
BOX = 50


def make_model(seed=11):
    pts = uniform_cube(N, seed=seed)
    fmm = Fmm("laplace", order=ORDER, max_points_per_box=BOX)
    return fmm, pts


def make_adaptive_model(n=1500):
    """A Plummer cluster: deep adaptive tree with W- and X-lists."""
    pts = plummer_cluster(n, seed=3)
    return Fmm("laplace", order=ORDER, max_points_per_box=25), pts


@pytest.fixture
def engine():
    eng = ServeEngine(n_workers=2, max_batch=8, max_wait_ms=5.0)
    fmm, pts = make_model()
    eng.register("m", fmm, pts)
    with eng:
        yield eng


class TestEngineBasics:
    def test_served_equals_direct_bitwise(self, engine):
        model = engine._model("m")
        rng = np.random.default_rng(0)
        ep = model.fmm.compile_eval_plan(model.plan)
        for _ in range(3):
            dens = rng.standard_normal(N)
            got = engine.evaluate("m", dens, timeout_s=30.0)
            ref = model.fmm.evaluate(
                model.points, dens, plan=model.plan, eval_plan=ep
            )
            assert np.array_equal(got, ref)

    def test_unknown_model(self, engine):
        with pytest.raises(UnknownModel):
            engine.submit("nope", np.zeros(N))

    def test_bad_density_reports_shape(self, engine):
        with pytest.raises(ValueError, match=r"shape \(7,\)"):
            engine.submit("m", np.zeros(7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1j])
    def test_bad_density_refused_alone_at_submit(self, bad):
        """A NaN / Inf / complex density is refused at submit, naming
        ``densities``; it never joins the batch of the requests around it,
        which get their solo replies."""
        eng = ServeEngine(n_workers=1, max_batch=8, max_wait_ms=20.0)
        fmm, pts = make_model()
        model = eng.register("m", fmm, pts)
        ep = fmm.compile_eval_plan(model.plan)
        rng = np.random.default_rng(5)
        good = [rng.standard_normal(N) for _ in range(2)]
        poisoned = np.ones(N, dtype=type(bad))
        poisoned[9] += bad
        rule = "real" if bad == 1j else "finite; row 9"
        reqs = [eng.submit("m", good[0], timeout_s=60.0)]
        with pytest.raises(ValueError, match=rf"model 'm': densities must be {rule}"):
            eng.submit("m", poisoned, timeout_s=60.0)
        reqs.append(eng.submit("m", good[1], timeout_s=60.0))
        with eng:  # both queued before the worker starts: one batch of two
            outs = [r.result(timeout=60.0) for r in reqs]
        assert [r.batch_size for r in reqs] == [2, 2]
        for d, got in zip(good, outs):
            want = fmm.evaluate(model.points, d, plan=model.plan, eval_plan=ep)
            assert np.array_equal(got, want)

    def test_metrics_snapshot_shape(self, engine):
        engine.evaluate("m", np.ones(N), timeout_s=30.0)
        snap = engine.metrics.snapshot(elapsed_s=1.0)
        assert snap["completed"] >= 1
        assert snap["failed"] == 0
        assert "throughput_rps" in snap
        m = snap["models"]["m"]
        for key in ("p50", "p95", "p99", "mean"):
            assert m["latency_s"][key] is not None
        assert m["batch_size"]["mean"] >= 1.0
        pc = snap["plan_cache"]
        assert pc["misses"] >= 1 and pc["hit_rate"] is not None

    def test_stop_drains_with_typed_error(self):
        eng = ServeEngine(n_workers=1)
        fmm, pts = make_model()
        eng.register("m", fmm, pts, warm=False)
        # never started: queued work must still resolve at stop(), typed
        req = eng.submit("m", np.zeros(N))
        eng.stop()
        with pytest.raises(Overloaded):
            req.result(timeout=1.0)


class TestBatching:
    def test_concurrent_requests_coalesce_bit_identically(self):
        eng = ServeEngine(n_workers=1, max_batch=8, max_wait_ms=20.0)
        fmm, pts = make_model()
        model = eng.register("m", fmm, pts)
        ep = fmm.compile_eval_plan(model.plan)
        rng = np.random.default_rng(3)
        blocks = [rng.standard_normal(N) for _ in range(12)]
        refs = [
            fmm.evaluate(model.points, d, plan=model.plan, eval_plan=ep)
            for d in blocks
        ]
        with eng:
            reqs = [eng.submit("m", d, timeout_s=60.0) for d in blocks]
            outs = [r.result(timeout=60.0) for r in reqs]
        for got, ref in zip(outs, refs):
            assert np.array_equal(got, ref)
        # all 12 were queued before the single worker woke: they must
        # have ridden in multi-RHS batches, not 12 solo applies
        sizes = [r.batch_size for r in reqs]
        assert max(sizes) > 1, sizes
        snap = eng.metrics.snapshot()
        assert snap["models"]["m"]["batch_size"]["max"] == max(sizes)

    def test_requests_with_zeros_batched_equal_their_solo_replies(self):
        """A single point source, and a density that vanishes on a few
        W-list source boxes, batched with a dense request: each still gets
        the reply it would have got alone, bit for bit (no schedule looks
        at a density, so batching and retries stay invisible)."""
        n = 3000
        eng = ServeEngine(n_workers=1, max_batch=8, max_wait_ms=20.0)
        model = eng.register("m", *make_adaptive_model(n))
        tree = model.plan.tree
        wli = eng.plans.peek(eng._plan_key("m", 0, "fp64")).wli
        cols = np.concatenate([blk.cols for blk in wli])
        dense = np.random.default_rng(4).standard_normal(n)
        one_hot = np.zeros(n)
        one_hot[n // 3] = 1.0
        holes = dense.copy()
        for i in np.unique(cols[tree.is_leaf[cols]])[:6]:
            holes[tree.order[tree.pt_begin[i] : tree.pt_end[i]]] = 0.0
        blocks = (dense, one_hot, holes)
        reqs = [eng.submit("m", d, timeout_s=60.0) for d in blocks]
        with eng:  # all queued before the worker starts: one batch
            batched = [r.result(timeout=60.0) for r in reqs]
            assert [r.batch_size for r in reqs] == [3, 3, 3]
            for d, got in zip(blocks, batched):
                assert np.array_equal(eng.evaluate("m", d, timeout_s=60.0), got)

    def test_per_tenant_order_preserved(self):
        eng = ServeEngine(n_workers=1, max_batch=4, max_wait_ms=10.0)
        fmm, pts = make_model()
        eng.register("m", fmm, pts)
        with eng:
            reqs = [
                eng.submit("m", np.full(N, float(i)), tenant="t0",
                           timeout_s=60.0)
                for i in range(6)
            ]
            outs = [r.result(timeout=60.0) for r in reqs]
        # request i carried density i*ones: results must scale linearly,
        # proving no cross-request mixup inside the batches
        base = outs[1]
        for i, out in enumerate(outs):
            np.testing.assert_allclose(out, i * base, rtol=1e-12, atol=1e-9)


class TestAdmission:
    def test_overloaded_at_max_queue(self):
        q = FairQueue(max_depth=2)
        q.push(Request("m", np.zeros(1)))
        q.push(Request("m", np.zeros(1)))
        with pytest.raises(Overloaded):
            q.push(Request("m", np.zeros(1)))

    def test_engine_rejects_and_counts(self):
        eng = ServeEngine(n_workers=1, max_queue=2)
        fmm, pts = make_model()
        eng.register("m", fmm, pts, warm=False)
        # not started: the queue can only fill
        eng.submit("m", np.zeros(N))
        eng.submit("m", np.zeros(N))
        with pytest.raises(Overloaded):
            eng.submit("m", np.zeros(N))
        assert eng.metrics.snapshot()["rejected"] == 1
        eng.stop()

    def test_deadline_exceeded_typed(self):
        eng = ServeEngine(n_workers=1, max_wait_ms=1.0)
        fmm, pts = make_model()
        eng.register("m", fmm, pts)
        req = eng.submit("m", np.zeros(N), timeout_s=0.001)
        time.sleep(0.05)  # let the deadline lapse before any worker runs
        with eng:
            with pytest.raises(DeadlineExceeded):
                req.result(timeout=30.0)
        assert eng.metrics.snapshot()["expired"] == 1

    def test_already_expired_deadline_typed(self, engine):
        """A deadline in the past at submit time must fail typed, fast.

        Regression for the dequeue wait: ``deadline - now`` is negative
        for such a request, and the queue's timed wait must clamp it to
        zero (never hand ``Condition.wait`` a negative timeout) and give
        up immediately.
        """
        req = engine.submit("m", np.zeros(N), timeout_s=-1.0)
        with pytest.raises(DeadlineExceeded):
            req.result(timeout=30.0)

    @pytest.mark.parametrize("timeout", [0.0, -5.0])
    def test_pop_clamps_nonpositive_timeout(self, timeout):
        q = FairQueue(max_depth=4)
        t0 = time.monotonic()
        assert q.pop(timeout=timeout) is None  # empty: no wait at all
        assert time.monotonic() - t0 < 1.0
        q.push(Request("m", np.zeros(1)))
        got = q.pop(timeout=timeout)  # queued work is still served
        assert got is not None and got.model == "m"

    def test_weighted_fair_dequeue(self):
        q = FairQueue(max_depth=64)
        for i in range(6):
            q.push(Request("m", i, tenant="a"))
        for i in range(3):
            q.push(Request("m", i, tenant="b"))
        order = [q.pop(timeout=0.0).tenant for _ in range(6)]
        # equal strides: a tenant that queued first and deeper still
        # gets only its turn while the other has work
        assert order == ["a", "b"] * 3


class TestPlanCache:
    class _FakePlan:
        def __init__(self, nbytes):
            self.nbytes = nbytes

    def test_lru_eviction_under_budget(self):
        cache = PlanCache(budget_bytes=100)
        compiles = []

        def make(name, nb):
            def fn():
                compiles.append(name)
                return self._FakePlan(nb)
            return fn

        a = cache.get("a", make("a", 60))
        cache.get("b", make("b", 60))  # evicts a (LRU)
        assert "b" in cache and "a" not in cache
        a2 = cache.get("a", make("a", 60))  # recompile, evicts b
        assert a2 is not a
        assert compiles == ["a", "b", "a"]

    def test_hit_moves_to_front(self):
        cache = PlanCache(budget_bytes=100)
        cache.get("a", lambda: self._FakePlan(40))
        cache.get("b", lambda: self._FakePlan(40))
        cache.get("a", lambda: self._FakePlan(40))  # hit: a becomes MRU
        cache.get("c", lambda: self._FakePlan(40))  # evicts b, not a
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_single_overbudget_plan_still_serves(self):
        cache = PlanCache(budget_bytes=10)
        p = cache.get("big", lambda: self._FakePlan(1000))
        assert cache.get("big", lambda: self._FakePlan(1000)) is p
        assert len(cache) == 1

    def test_cache_charges_what_its_plans_weigh(self):
        """Nothing grows after insert: once requests have filled the
        plans' kernel blocks, the bytes charged still equal the bytes the
        cached plans hold, each filled array once."""
        eng = ServeEngine(n_workers=1)
        eng.register("m", *make_adaptive_model(), warm=True)
        charged = eng.plans.nbytes
        with eng:
            for d in (np.ones(1500), np.arange(1500.0)):
                eng.evaluate("m", d, timeout_s=60.0)
        resident = 0
        for key in eng.plans.entries():
            ep = eng.plans.peek(key)
            blocks = {id(b.kmat): b.kmat for sec in (ep.s2u, ep.d2t, ep.xli, ep.wli, ep.uli)
                      for b in sec if b.kmat is not None}.values()
            assert blocks and all(k.array is not None for k in blocks)
            filled = sum(k.array.nbytes for k in blocks)
            resident += ep.nbytes - ep.matrix_bytes() + filled
        assert charged == eng.plans.nbytes == resident
        # ... and a block the W- and the X-list both read is charged once:
        # a budget that two plans weighed record by record would overflow
        # keeps a second adaptive model resident beside the first
        (plan,) = (eng.plans.peek(key) for key in eng.plans.entries())
        pair = [b.kmat for b in plan.xli + plan.wli]
        saved = sum(k.nbytes for k in pair) - sum({id(k): k.nbytes for k in pair}.values())
        assert saved > 0.1 * charged
        budget = 2 * charged + saved // 2
        assert 2 * (charged + saved) > budget
        eng = ServeEngine(n_workers=1, plan_budget=budget)
        for name in ("m1", "m2"):
            eng.register(name, *make_adaptive_model(), warm=True)
        assert len(eng.plans) == 2 and eng.plans.nbytes == 2 * charged

    def test_engine_counts_hits_and_misses(self):
        eng = ServeEngine(n_workers=1)
        fmm, pts = make_model()
        eng.register("m", fmm, pts, warm=True)  # warm: one miss+compile
        with eng:
            eng.evaluate("m", np.ones(N), timeout_s=30.0)  # hit
        snap = eng.metrics.snapshot()
        assert snap["plan_cache"]["misses"] == 1
        assert snap["plan_cache"]["hits"] >= 1


class TestChaos:
    def test_injected_faults_retry_bit_identically(self):
        faults = FaultPlan(
            [
                Fault("crash", rank=0, op="phase", phase="S2U", attempts=1),
                Fault("straggle", rank=0, op="phase", phase="ULI",
                      seconds=0.01, attempts=1),
            ],
            seed=0,
        )
        eng = ServeEngine(
            n_workers=1,
            max_batch=4,
            max_wait_ms=10.0,
            faults=faults,
            retry=RetryPolicy(max_attempts=3),
        )
        fmm, pts = make_model()
        model = eng.register("m", fmm, pts)
        ep = fmm.compile_eval_plan(model.plan)
        rng = np.random.default_rng(9)
        blocks = [rng.standard_normal(N) for _ in range(6)]
        refs = [
            fmm.evaluate(model.points, d, plan=model.plan, eval_plan=ep)
            for d in blocks
        ]
        with eng:
            reqs = [eng.submit("m", d, timeout_s=60.0) for d in blocks]
            outs = [r.result(timeout=60.0) for r in reqs]
        for got, ref in zip(outs, refs):
            assert np.array_equal(got, ref)
        assert len(eng.fault_events) >= 1
        snap = eng.metrics.snapshot()
        assert snap["failed"] == 0
        assert snap["retried"] >= 1

    def test_exhausted_retries_fail_typed(self):
        # crash S2U on every attempt (phase faults fire on the index-th
        # entry of the phase, and the counter advances across retries, so
        # a permanent fault is one Fault per index): the batch must fail
        # with the typed injected error, never hang or return garbage
        faults = FaultPlan(
            [Fault("crash", rank=0, op="phase", phase="S2U", index=i,
                   attempts=99) for i in range(5)],
            seed=0,
        )
        eng = ServeEngine(
            n_workers=1, faults=faults, retry=RetryPolicy(max_attempts=2)
        )
        fmm, pts = make_model()
        eng.register("m", fmm, pts)
        from repro.mpi.faults import TRANSIENT_ERRORS

        with eng:
            req = eng.submit("m", np.ones(N), timeout_s=30.0)
            with pytest.raises(TRANSIENT_ERRORS):
                req.result(timeout=30.0)
        snap = eng.metrics.snapshot()
        assert snap["failed"] == 1
        # a retry is counted when it is performed, not only if the batch
        # later succeeds: two attempts, one retry, with its typed cause
        assert snap["retried"] == 1
        assert snap["retried_by_cause"] == {"RankCrash": 1}


class TestConcurrentClients:
    def test_many_tenants_all_complete(self):
        eng = ServeEngine(n_workers=2, max_batch=8, max_wait_ms=2.0,
                          max_queue=128)
        fmm, pts = make_model()
        model = eng.register("m", fmm, pts)
        ep = fmm.compile_eval_plan(model.plan)
        rng = np.random.default_rng(4)
        per_client = 4
        blocks = {
            f"t{i}": [rng.standard_normal(N) for _ in range(per_client)]
            for i in range(4)
        }
        refs = {
            t: [
                fmm.evaluate(model.points, d, plan=model.plan, eval_plan=ep)
                for d in ds
            ]
            for t, ds in blocks.items()
        }
        failures = []

        def client(tenant):
            for k, dens in enumerate(blocks[tenant]):
                try:
                    out = eng.evaluate("m", dens, tenant=tenant,
                                       timeout_s=60.0)
                    if not np.array_equal(out, refs[tenant][k]):
                        failures.append(f"{tenant}[{k}]: mismatch")
                except Exception as err:
                    failures.append(f"{tenant}[{k}]: {err!r}")

        with eng:
            threads = [
                threading.Thread(target=client, args=(t,)) for t in blocks
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        assert not failures, failures
        snap = eng.metrics.snapshot()
        assert snap["completed"] == 4 * per_client
        assert snap["failed"] == 0
