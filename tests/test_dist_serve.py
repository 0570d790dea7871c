"""Fault-tolerant distributed serving plane: failover matrix + router.

The robustness contract under test (ISSUE 7): with a seeded fault plan
active, a request never observes the fault — it observes either the
**bit-identical** fault-free answer (checkpoint-resume retry on the same
shard group, or failover to a surviving replica) or a **typed rejection**
(`Overloaded`, `DeadlineExceeded`, `ShardUnavailable`) — and never hangs.

The matrix runs every victim rank x {crash, straggler, in-flight
corruption} at p in {2, 4, 8}, plus a crash at a ``recv`` inside
``COMM_reduce`` (the peers blocked in ``sendrecv``) and GPU device faults
(which must degrade to the bit-identical CPU path).
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Fmm
from repro.datasets import make_distribution
from repro.dist.driver import match_owned_rows
from repro.mpi.faults import Fault, FaultPlan, RetryPolicy
from repro.perf.model import serve_span_summary
from repro.perf.trace import TraceRecorder
from repro.serve import (
    DistServeEngine,
    Overloaded,
    Router,
    ServeMetrics,
    ShardUnavailable,
)
from repro.serve.scheduler import DeadlineExceeded, retry_after_hint

ORDER = 4
BOX = 40
#: Request deadline for the load-driven tests.
RUN_TIMEOUT = 30.0


def _points(n, seed=0):
    return make_distribution("ellipsoid", n, seed=seed)


def _engine(p, n, **kwargs):
    kwargs.setdefault(
        "retry", RetryPolicy(max_attempts=3, backoff=0.0)
    )
    eng = DistServeEngine(nranks=p, **kwargs)
    eng.register(
        "m", _points(n), placement="sharded",
        order=ORDER, max_points_per_box=BOX,
    )
    return eng


@pytest.fixture(scope="module", params=[2, 4, 8])
def matrix_engine(request):
    p = request.param
    n = 400 if p < 8 else 800
    eng = _engine(p, n)
    rng = np.random.default_rng(7)
    dens = rng.standard_normal(eng._model("m").expected)
    ref = eng.evaluate("m", dens)
    return eng, dens, ref


class TestFailoverMatrix:
    """Every victim rank x every fault class: bit-identical or typed."""

    def _cases(self, p):
        for victim in range(p):
            yield FaultPlan(
                [Fault("crash", rank=victim, op="phase", phase="D2T",
                       attempts=1)],
                seed=victim,
            ), f"crash@r{victim}"
            yield FaultPlan(
                [Fault("straggle", rank=victim, op="phase", phase="S2U",
                       seconds=0.15, sleep=True, attempts=1)],
                seed=victim,
            ), f"straggle@r{victim}"
            yield FaultPlan(
                [Fault("bitflip", rank=victim, op="send", index=0,
                       attempts=1)],
                seed=victim,
            ), f"bitflip@r{victim}"

    def test_matrix(self, matrix_engine):
        eng, dens, ref = matrix_engine
        p = eng.nranks
        for plan, label in self._cases(p):
            eng.set_faults(plan)
            t0 = time.monotonic()
            try:
                out = eng.evaluate("m", dens)
            except (ShardUnavailable, DeadlineExceeded, Overloaded) as err:
                # typed rejection is an allowed outcome — but with a
                # budget-1 fault and 3 attempts it means retry failed,
                # which would be a regression worth seeing
                pytest.fail(f"{label}: typed rejection {err!r} instead "
                            f"of recovery")
            elapsed = time.monotonic() - t0
            assert np.array_equal(out, ref), (
                f"{label}: recovered answer is not bit-identical"
            )
            assert elapsed < 2 * RUN_TIMEOUT, f"{label}: near-hang"
        eng.set_faults(None)

    def test_recv_crash_in_reduce(self, matrix_engine):
        """Crash at a recv with the peers blocked in the reduction."""
        eng, dens, ref = matrix_engine
        p = eng.nranks
        victim = 1 % p
        # a rank's receives per dispatch: log2(p) for the collective resume
        # vote, p - 1 for the ghost exchange, then the hypercube rounds
        index = (p - 1).bit_length() + (p - 1)
        trace = TraceRecorder()
        eng._trace = trace
        eng.set_faults(FaultPlan(
            [Fault("crash", rank=victim, op="recv", index=index, attempts=1)]
        ))
        try:
            out = eng.evaluate("m", dens)
        finally:
            eng.set_faults(None)
            eng._trace = None
        assert np.array_equal(out, ref)
        died_in = [ev.phase for ev in trace.span_events()
                   if ev.aborted and ev.rank == victim]
        assert died_in == ["COMM_reduce"]

    def test_crash_pre_checkpoint(self, matrix_engine):
        """A crash before the checkpoint commits restarts from scratch."""
        eng, dens, ref = matrix_engine
        eng.set_faults(FaultPlan(
            [Fault("crash", rank=0, op="phase", phase="S2U", attempts=1)]
        ))
        out = eng.evaluate("m", dens)
        eng.set_faults(None)
        assert np.array_equal(out, ref)


class TestGpuFault:
    def test_device_fault_degrades_bit_identical(self):
        """GPU device faults on every rank -> the pure-CPU answer."""
        p, n = 2, 400
        eng = _engine(p, n)  # CPU reference model "m"
        eng.register(
            "g", _points(n), placement="sharded",
            order=ORDER, max_points_per_box=BOX, use_gpu=True,
        )
        rng = np.random.default_rng(3)
        dens = rng.standard_normal(eng._model("m").expected)
        ref = eng.evaluate("m", dens)
        eng.set_faults(FaultPlan(
            [Fault("gpu", rank=r, op="launch", phase="*", attempts=1)
             for r in range(p)]
        ))
        out = eng.evaluate("g", dens)
        eng.set_faults(None)
        assert np.array_equal(out, ref)


class TestReplicatedFailover:
    def test_failover_to_surviving_replica(self):
        p, n = 2, 400
        eng = DistServeEngine(
            nranks=p,
            retry=RetryPolicy(max_attempts=3, backoff=0.0),
        )
        eng.register(
            "r", _points(n), placement="replicated", replicas=2,
            order=ORDER, max_points_per_box=BOX,
        )
        rng = np.random.default_rng(5)
        dens = rng.standard_normal(eng._model("r").expected)
        ref = eng.evaluate("r", dens)
        # replica 0 always crashes: every request must fail over to
        # replica 1 and come back bit-identical
        eng.set_faults(FaultPlan(
            [Fault("crash", rank=0, op="phase", phase="D2T",
                   attempts=1_000_000)]
        ))
        for _ in range(4):
            assert np.array_equal(eng.evaluate("r", dens), ref)
        eng.set_faults(None)
        # replica 0 accumulated failures; health knows
        assert eng.health.snapshot()[0]["failures"] >= 1

    def test_all_replicas_down_is_typed(self):
        p, n = 2, 400
        eng = DistServeEngine(
            nranks=p,
            retry=RetryPolicy(max_attempts=2, backoff=0.0),
            breaker_threshold=1, breaker_cooldown_s=60.0,
        )
        eng.register(
            "r", _points(n), placement="replicated", replicas=2,
            order=ORDER, max_points_per_box=BOX,
        )
        dens = np.ones(eng._model("r").expected)
        eng.set_faults(FaultPlan([
            Fault("crash", rank=0, op="phase", phase="D2T",
                  attempts=1_000_000),
            Fault("crash", rank=1, op="phase", phase="D2T",
                  attempts=1_000_000),
        ]))
        with pytest.raises(ShardUnavailable):
            eng.evaluate("r", dens)
        # both breakers open now: the next request fast-fails typed
        with pytest.raises(ShardUnavailable):
            eng.evaluate("r", dens)
        eng.set_faults(None)


class TestRankGroups:
    """Shard, fallback and replica are one group type with one dispatch."""

    @staticmethod
    def _engine(**kwargs):
        return DistServeEngine(
            nranks=2,
            retry=RetryPolicy(max_attempts=2, backoff=0.0), **kwargs,
        )

    @pytest.mark.parametrize("placement", ["sharded", "replicated", "fallback"])
    def test_a_retry_is_counted_when_it_is_performed(self, placement):
        """RECOVERY:retry spans == ``retried`` == dispatch attempts - 1:
        no backoff, span or count after the last failed attempt."""
        trace = TraceRecorder()
        eng = self._engine(trace=trace, breaker_threshold=2,
                           breaker_cooldown_s=60.0)
        eng.register(
            "m", _points(400), order=ORDER, max_points_per_box=BOX,
            **({"placement": "replicated", "replicas": 2}
               if placement == "replicated"
               else {"fallback_replica": placement == "fallback"}),
        )
        dens = np.ones(eng._model("m").expected)
        crash = [Fault("crash", rank=r, op="phase", phase="D2T",
                       attempts=1_000_000) for r in (0, 1)]
        if placement == "fallback":
            # two failures open the shard breaker; the fallback (projected
            # onto rank 0) is what the counted request runs on
            eng.set_faults(FaultPlan(crash[1:]))
            with pytest.raises(ShardUnavailable):
                eng.evaluate("m", dens)
            assert eng.breaker("m/shard").state == "open"

        def counts():
            return (
                sum(1 for e in trace.span_events()
                    if e.phase.startswith("RECOVERY:retry")),
                sum(m.retried for m in eng.rank_metrics),
                sum(h["failures"] for h in eng.health.snapshot().values()),
            )

        before = counts()
        eng.set_faults(FaultPlan(crash))
        with pytest.raises(ShardUnavailable):
            eng.evaluate("m", dens)
        eng.set_faults(None)
        spans, retried, attempts = (
            b - a for a, b in zip(before, counts())
        )
        assert attempts == 2  # every attempt of this request failed
        assert spans == retried == attempts - 1

    def test_one_replica_equals_a_one_rank_shard_bitwise(self):
        eng, solo = self._engine(), DistServeEngine(nranks=1)
        pts = _points(400)
        kwargs = dict(order=ORDER, max_points_per_box=BOX)
        eng.register("rep", pts, placement="replicated", replicas=1, **kwargs)
        solo.register("shard", pts, placement="sharded", **kwargs)
        dens = np.random.default_rng(23).standard_normal(len(pts))
        assert np.array_equal(
            eng.evaluate("rep", dens), solo.evaluate("shard", dens)
        )

    def test_a_fault_follows_its_fabric_rank(self):
        """A fault aimed at fabric rank 1 fires on replica 1 — and never
        on replica 0, which sits on rank 0."""
        eng = self._engine()
        pts = _points(400)
        eng.register("rep", pts, placement="replicated", replicas=2,
                     order=ORDER, max_points_per_box=BOX)
        dens = np.ones(len(pts))
        ref = eng.evaluate("rep", dens)
        eng.set_faults(FaultPlan(
            [Fault("crash", rank=1, op="phase", phase="D2T",
                   attempts=1_000_000)]
        ))
        for _ in range(3):
            assert np.array_equal(eng.evaluate("rep", dens), ref)
        eng.set_faults(None)
        health = eng.health.snapshot()
        assert health[1]["failures"] >= 1 and health[0]["failures"] == 0
        snap = eng.breaker_snapshot()
        assert snap["rep/r1"]["failures"] >= 1
        assert snap["rep/r0"]["failures"] == 0


class TestCoincidentPoints:
    """Two rows at one coordinate are two sources: each keeps its own
    density and its own reply slot on a sharded model."""

    def test_duplicate_row_is_served_once_per_row(self):
        pts = _points(600)
        pts[599] = pts[0]  # rows 0 and 599 go to different input chunks
        eng = DistServeEngine(nranks=2)
        eng.register("m", pts, placement="sharded", order=ORDER, max_points_per_box=BOX)
        for state in eng._model("m").groups[0].states:
            owned = {tuple(x) for x in state["fmm"].owned_points.tolist()}
            mine = [r for r in range(len(pts)) if tuple(pts[r].tolist()) in owned]
            assert np.array_equal(np.sort(state["src"]), mine)
        dens = np.random.default_rng(5).standard_normal(len(pts))
        ref = Fmm("laplace", order=ORDER, max_points_per_box=BOX).evaluate(pts, dens)
        got = eng.evaluate("m", dens)
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-3

    def test_match_owned_rows_is_one_to_one(self):
        pts = np.random.default_rng(6).random((40, 3))
        pts[[7, 21, 33]] = pts[2]
        owned = pts[[33, 5, 2, 21, 9, 7]]
        src = match_owned_rows(pts, owned)
        assert sorted(src.tolist()) == [2, 5, 7, 9, 21, 33]
        assert np.array_equal(pts[src], owned)
        # fewer owned copies than global ones still take distinct rows
        src = match_owned_rows(pts, pts[[21, 2, 9]])
        assert np.unique(src).size == 3 and np.array_equal(pts[src], pts[[21, 2, 9]])
        with pytest.raises(ValueError, match="owned points"):
            match_owned_rows(pts[:10], pts[[2, 7, 7]])  # three copies, two rows

    @given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(0, 40),
           st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_match_owned_rows_against_a_dictionary(self, seed, n_coords, n, frac):
        """Against a reference that hands out each coordinate's global rows
        in order: owned copies are any sub-multiset, in any order."""
        rng = np.random.default_rng(seed)
        coords = rng.random((n_coords, 3))
        pts = coords[rng.integers(n_coords, size=n)]
        owned = pts[rng.permutation(n)[: int(frac * n)]]
        rows = {}
        for r, x in enumerate(pts.tolist()):
            rows.setdefault(tuple(x), []).append(r)
        want = [rows[tuple(x)].pop(0) for x in owned.tolist()]
        assert match_owned_rows(pts, owned).tolist() == want
        # one copy more than the global rows hold, or a point not there
        extra = np.vstack([owned, pts[:1]]) if n else owned
        for bad in ((pts, np.vstack([pts, pts[:1]])) if n else (pts, coords[:1]),
                    (pts, np.vstack([extra, rng.random((1, 3)) + 2.0]))):
            with pytest.raises(ValueError, match="owned points"):
                match_owned_rows(*bad)


class TestCircuitBreaker:
    def test_shard_breaker_opens_then_recovers(self):
        p, n = 2, 400
        eng = DistServeEngine(
            nranks=p,
            retry=RetryPolicy(max_attempts=2, backoff=0.0),
            breaker_threshold=2, breaker_cooldown_s=0.2,
        )
        eng.register("m", _points(n), placement="sharded",
                     order=ORDER, max_points_per_box=BOX)
        dens = np.ones(eng._model("m").expected)
        ref = eng.evaluate("m", dens)
        eng.set_faults(FaultPlan(
            [Fault("crash", rank=1, op="phase", phase="D2T",
                   attempts=1_000_000)]
        ))
        with pytest.raises(ShardUnavailable):
            eng.evaluate("m", dens)
        assert eng.breaker("m/shard").state == "open"
        # open breaker: immediate typed rejection, no dispatch
        t0 = time.monotonic()
        with pytest.raises(ShardUnavailable):
            eng.evaluate("m", dens)
        assert time.monotonic() - t0 < 0.1
        # cooldown passes, faults lifted: half-open probe succeeds and
        # closes the breaker; answers are bit-identical again
        eng.set_faults(None)
        time.sleep(0.25)
        assert eng.breaker("m/shard").state == "half-open"
        assert np.array_equal(eng.evaluate("m", dens), ref)
        assert eng.breaker("m/shard").state == "closed"

    def test_fallback_replica_serves_when_shard_down(self):
        p, n = 2, 400
        eng = DistServeEngine(
            nranks=p,
            retry=RetryPolicy(max_attempts=2, backoff=0.0),
            breaker_threshold=1, breaker_cooldown_s=60.0,
        )
        pts = _points(n)
        eng.register("m", pts, placement="sharded", fallback_replica=True,
                     order=ORDER, max_points_per_box=BOX)
        # a single-replica twin = exactly what the fallback computes
        eng.register("twin", pts, placement="replicated", replicas=1,
                     order=ORDER, max_points_per_box=BOX)
        dens = np.ones(eng._model("m").expected)
        twin_ref = eng.evaluate("twin", dens)
        # rank 1 always crashes -> the shard group (which spans rank 1)
        # dies and its breaker opens; the fallback replica (projected
        # onto rank 0, which the plan does not target) takes over
        eng.set_faults(FaultPlan(
            [Fault("crash", rank=1, op="phase", phase="D2T",
                   attempts=1_000_000)]
        ))
        with pytest.raises(ShardUnavailable):
            eng.evaluate("m", dens)
        out = eng.evaluate("m", dens)  # degraded path
        eng.set_faults(None)
        assert np.array_equal(out, twin_ref), (
            "fallback answer must equal the single-replica twin bitwise"
        )


class TestDeadlines:
    def test_straggler_past_deadline_is_typed(self):
        eng = _engine(2, 400)
        dens = np.ones(eng._model("m").expected)
        eng.evaluate("m", dens)  # warm
        eng.set_faults(FaultPlan(
            [Fault("straggle", rank=1, op="phase", phase="S2U",
                   seconds=5.0, sleep=True, attempts=1_000_000)]
        ))
        t0 = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            eng.evaluate("m", dens, deadline=time.monotonic() + 0.3)
        eng.set_faults(None)
        # bounded: deadline + abort grace, nowhere near the 5s sleep x3
        assert time.monotonic() - t0 < 4.0


class TestRouter:
    def test_routes_and_merges_metrics(self):
        eng = _engine(2, 400, trace=TraceRecorder())
        rng = np.random.default_rng(11)
        dens = rng.standard_normal(eng._model("m").expected)
        ref = eng.evaluate("m", dens)
        with Router(eng, n_dispatchers=2, max_queue=8) as router:
            outs = [router.evaluate("m", dens, timeout_s=30.0)
                    for _ in range(3)]
        for out in outs:
            assert np.array_equal(out, ref)
        snap = router.metrics_snapshot(elapsed_s=1.0)
        assert snap["models"]["m"]["completed"] == 3
        # per-rank apply reservoirs merged under their own keys
        assert "m@rank0" in snap["models"]
        assert "health" in snap and "breakers" in snap
        # heartbeat spans: every rank beat on every successful dispatch
        summary = serve_span_summary(eng._trace)
        assert summary["heartbeats"]["m"][0] >= 4  # warm + ref + 3 routed
        assert summary["dispatches"]["m"]["count"] == 3

    def test_faults_under_concurrent_closed_loop_load(self):
        """Crash, recv-crash, corruption and a straggler firing while
        several clients drive the router: typed outcomes only, and the
        answers stay the fault-free bits."""
        from repro.serve.loadgen import run_load

        p = 2
        eng = _engine(p, 400)
        dens = np.random.default_rng(17).standard_normal(
            eng._model("m").expected)
        ref = eng.evaluate("m", dens)
        # rank 0's receives before COMM_reduce: resume vote + ghost exchange
        reduce_recv = (p - 1).bit_length() + p - 1
        eng.set_faults(FaultPlan([
            Fault("crash", rank=1, op="phase", phase="D2T", attempts=1),
            Fault("crash", rank=0, op="recv", index=reduce_recv, attempts=1),
            Fault("bitflip", rank=1, op="send", index=3, attempts=1),
            Fault("straggle", rank=0, op="phase", phase="S2U",
                  seconds=0.2, sleep=True, attempts=1),
        ], seed=0))
        with Router(eng, n_dispatchers=2, max_queue=16) as router:
            summary = run_load(router, ["m"], duration_s=1.0, clients=3,
                               timeout_s=RUN_TIMEOUT, seed=0)
            probe = router.evaluate("m", dens, timeout_s=RUN_TIMEOUT)
        eng.set_faults(None)
        assert summary["loadgen"]["errors"] == 0, (
            summary["loadgen"]["error_samples"])
        assert summary["completed"] > 0
        # the plan fired under the load: the ranks retried
        assert router.metrics_snapshot()["retried"] > 0
        assert np.array_equal(probe, ref)

    def test_unavailable_fast_fails_at_submit(self):
        eng = _engine(
            2, 400,
            retry=RetryPolicy(max_attempts=1),
            breaker_threshold=1, breaker_cooldown_s=60.0,
        )
        dens = np.ones(eng._model("m").expected)
        eng.set_faults(FaultPlan(
            [Fault("crash", rank=0, op="phase", phase="D2T",
                   attempts=1_000_000)]
        ))
        with pytest.raises(ShardUnavailable):
            eng.evaluate("m", dens)
        eng.set_faults(None)
        with Router(eng, n_dispatchers=1, max_queue=4) as router:
            with pytest.raises(ShardUnavailable):
                router.submit("m", dens)
        assert router.metrics.snapshot()["rejected"] == 1

    def test_overloaded_carries_retry_after(self):
        eng = _engine(2, 400)
        dens = np.ones(eng._model("m").expected)
        router = Router(eng, n_dispatchers=1, max_queue=1)
        # router not started: the queue can only fill
        router.submit("m", dens)
        with pytest.raises(Overloaded) as exc_info:
            router.submit("m", dens)
        assert exc_info.value.retry_after_s is not None
        assert exc_info.value.retry_after_s > 0.0
        router.start()
        router.stop()

    def test_retry_after_hint_scales_with_depth(self):
        base = retry_after_hint(0, 0.1, 2)
        deep = retry_after_hint(20, 0.1, 2)
        assert deep > base
        assert retry_after_hint(10 ** 9, 0.1, 1) == 60.0  # capped
        assert retry_after_hint(0, None, 4) >= 0.01  # floor, no samples


class TestLoadgen:
    def test_needs_a_model_and_a_client(self):
        from repro.serve.loadgen import run_load

        with pytest.raises(ValueError, match="models"):
            run_load(None, [])
        with pytest.raises(ValueError, match="clients"):
            run_load(None, ["m"], clients=0)
        with pytest.raises(ValueError, match="duration_s"):
            run_load(None, ["m"], duration_s=0)


class TestMetricsMerge:
    def test_union_quantiles_not_averaged(self):
        a, b = ServeMetrics(), ServeMetrics()
        # a: tight latencies; b: one outlier — the merged p99 must see
        # the outlier (union), not average two per-part p99s
        for v in [0.010] * 99:
            a.record_completed("m", v, 0.0, 1)
        b.record_completed("m", 1.0, 0.0, 1)
        merged = ServeMetrics.merge([a, b])
        union = [0.010] * 99 + [1.0]
        expect_p99 = float(np.percentile(np.asarray(union), 99.0))
        assert merged["models"]["m"]["latency_s"]["p99"] == pytest.approx(
            expect_p99
        )
        avg_of_p99s = (
            a.snapshot()["models"]["m"]["latency_s"]["p99"]
            + b.snapshot()["models"]["m"]["latency_s"]["p99"]
        ) / 2
        assert merged["models"]["m"]["latency_s"]["p99"] != pytest.approx(
            avg_of_p99s
        )
        assert merged["models"]["m"]["completed"] == 100

    def test_counters_sum_and_causes_merge(self):
        a, b = ServeMetrics(), ServeMetrics()
        a.record_retry("RankCrash")
        a.record_retry("CorruptMessage")
        b.record_retry("RankCrash")
        a.record_rejected()
        b.record_queue_depth(3)
        a.record_queue_depth(7)
        merged = ServeMetrics.merge([a, b])
        assert merged["retried"] == 3
        assert merged["retried_by_cause"] == {
            "RankCrash": 2, "CorruptMessage": 1,
        }
        assert merged["rejected"] == 1
        assert merged["queue_depth"]["peak"] == 7

    def test_service_p95_feeds_retry_after(self):
        m = ServeMetrics()
        for v in (0.1, 0.2, 0.3):
            m.record_completed("m", v + 0.05, 0.05, 1)
        p95 = m.service_p95()
        assert p95 is not None and 0.1 <= p95 <= 0.3
        assert m.service_p95("m") == p95
        assert m.service_p95("nope") is None


class TestRetryPolicy:
    def test_delay_deterministic_exponential_capped(self):
        pol = RetryPolicy(max_attempts=5, backoff=0.1, backoff_factor=2.0,
                          max_backoff=0.5, jitter=0.1, seed=42)
        d = [pol.delay(k) for k in range(1, 6)]
        # deterministic: same policy, same delays
        pol2 = RetryPolicy(max_attempts=5, backoff=0.1, backoff_factor=2.0,
                           max_backoff=0.5, jitter=0.1, seed=42)
        assert d == [pol2.delay(k) for k in range(1, 6)]
        # exponential up to the cap, jitter only ever adds (bounded)
        assert 0.1 <= d[0] <= 0.1 * 1.1
        assert 0.2 <= d[1] <= 0.2 * 1.1
        assert 0.4 <= d[2] <= 0.4 * 1.1
        assert 0.5 <= d[3] <= 0.5 * 1.1  # capped at max_backoff
        assert 0.5 <= d[4] <= 0.5 * 1.1
        # different seed, different jitter
        pol3 = RetryPolicy(max_attempts=5, backoff=0.1, seed=43,
                           jitter=0.1)
        assert pol3.delay(1) != pol.delay(1)

    def test_no_backoff_means_zero_delay(self):
        pol = RetryPolicy(max_attempts=3)
        assert pol.delay(1) == 0.0
        assert pol.delay(2) == 0.0
        assert RetryPolicy(backoff=0.1).delay(0) == 0.0

    def test_recovery_spans_carry_backoff(self):
        trace = TraceRecorder()
        eng = _engine(
            2, 400,
            retry=RetryPolicy(max_attempts=3, backoff=0.01, seed=9),
            trace=trace,
        )
        dens = np.ones(eng._model("m").expected)
        ref = eng.evaluate("m", dens)
        eng.set_faults(FaultPlan(
            [Fault("crash", rank=1, op="phase", phase="D2T", attempts=1)]
        ))
        out = eng.evaluate("m", dens)
        eng.set_faults(None)
        assert np.array_equal(out, ref)
        spans = [e for e in trace.span_events()
                 if e.phase.startswith("RECOVERY:retry")]
        assert spans, "retry must leave a RECOVERY span"
        assert "RankCrash" in spans[0].phase
        assert "backoff=" in spans[0].phase
        summary = serve_span_summary(trace)
        assert summary["retries_by_cause"].get("RankCrash", 0) >= 1
        assert summary["backoff_s"] > 0.0


class TestConcurrentClients:
    def test_replicated_serves_concurrently_bit_identical(self):
        eng = DistServeEngine(nranks=2)
        eng.register("r", _points(400), placement="replicated",
                     replicas=2, order=ORDER, max_points_per_box=BOX)
        rng = np.random.default_rng(13)
        dens = rng.standard_normal(eng._model("r").expected)
        ref = eng.evaluate("r", dens)
        results, errors = [], []

        def client():
            try:
                results.append(eng.evaluate("r", dens))
            except BaseException as err:  # noqa: BLE001
                errors.append(err)

        threads = [threading.Thread(target=client) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert not errors, errors
        assert len(results) == 6
        for out in results:
            assert np.array_equal(out, ref)
