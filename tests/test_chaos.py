"""Chaos fabric: deterministic injection, integrity framing, recovery.

The contract under test (ISSUE acceptance criteria): every fault class
either lets the run complete *bit-identically* to the fault-free
baseline (via retry, checkpoint resume, or CPU fallback) or raises a
*typed* error before the deadline — never a hang — and identical
:class:`FaultPlan` seeds replay identical injection sequences and
completed-run trace signatures.
"""

import time

import numpy as np
import pytest

from repro.datasets import make_distribution
from repro.dist.driver import DistributedFmm
from repro.mpi import (
    CorruptMessage,
    SpmdError,
    run_spmd,
    run_spmd_resilient,
)
from repro.mpi.comm import _TAG_COLL
from repro.mpi.faults import (
    FAULT_KINDS,
    TRANSIENT_ERRORS,
    Fault,
    FaultPlan,
    RankCrash,
    RetryPolicy,
)
from repro.perf.trace import TraceRecorder


def _allreduce_body(comm):
    comm.barrier()
    return comm.allreduce(comm.rank + 1)


def _resumable_fmm_body(pts, density, max_points_per_box):
    """Rank body for ``run_spmd_resilient(..., rank_state=True)``.

    The first attempt sets up an order-4 :class:`DistributedFmm` on the
    rank's stride of ``pts`` and keeps it, with ``density`` of its owned
    points, in the per-rank ``state``; a retry rebinds it to the new
    communicator.  Either way it evaluates with ``resume=True``, so a retry
    skips the phases the checkpoint already holds.
    """

    def body(comm, state, use_gpu=False):
        if "fmm" not in state:
            fmm = DistributedFmm(
                order=4, max_points_per_box=max_points_per_box, use_gpu=use_gpu
            )
            fmm.setup(comm, pts[comm.rank :: comm.size])
            state["fmm"] = fmm
            state["dens"] = density(fmm.owned_points)
        else:
            fmm = state["fmm"]
            fmm.rebind(comm)
        return fmm.evaluate(state["dens"], resume=True)

    return body


class TestFaultPlan:
    def test_random_is_seed_deterministic(self):
        a = FaultPlan.random(7, nranks=8)
        b = FaultPlan.random(7, nranks=8)
        assert a.faults == b.faults
        assert FaultPlan.random(8, nranks=8).faults != a.faults

    def test_for_attempt_retires_spent_faults(self):
        plan = FaultPlan(
            [
                Fault("crash", rank=0, attempts=2),
                Fault("bitflip", rank=1, op="send", attempts=1),
            ]
        )
        assert len(plan.for_attempt(0)) == 2
        assert len(plan.for_attempt(1)) == 1
        assert len(plan.for_attempt(2)) == 0

    def test_scaled_to_drops_out_of_range_ranks(self):
        plan = FaultPlan([Fault("crash", rank=5), Fault("crash", rank=1)])
        assert len(plan.scaled_to(4)) == 1

    def test_fault_validation(self):
        with pytest.raises(ValueError, match="kind"):
            Fault("meteor", rank=0)
        with pytest.raises(ValueError, match="op='launch'"):
            Fault("gpu", rank=0, op="send")
        with pytest.raises(ValueError, match="op='send'"):
            Fault("bitflip", rank=0, op="recv")
        with pytest.raises(ValueError, match="phase name"):
            Fault("crash", rank=0, op="phase")
        with pytest.raises(ValueError, match="unknown fault op"):
            Fault("crash", rank=0, op="wait")


class TestTagValidation:
    @pytest.mark.parametrize("bad", [_TAG_COLL, _TAG_COLL + 3, 1 << 30])
    def test_user_tags_in_collective_space_rejected(self, bad):
        def fn(comm):
            if comm.rank == 0:
                comm.send("x", 1, tag=bad)
            else:
                comm.recv(0, tag=bad)

        with pytest.raises(SpmdError, match="allowed range") as ei:
            run_spmd(2, fn, timeout=30)
        assert isinstance(ei.value.__cause__, ValueError)

    def test_boundary_tag_is_allowed(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("x", 1, tag=_TAG_COLL - 1)
                return "sent"
            return comm.recv(0, tag=_TAG_COLL - 1)

        res = run_spmd(2, fn, timeout=30)
        assert res.values[1] == "x"


class TestIntegrity:
    def test_bitflip_raises_typed_crc_error(self):
        plan = FaultPlan([Fault("bitflip", rank=0, op="send", index=0, bit=3)])
        with pytest.raises(SpmdError, match="CRC") as ei:
            run_spmd(2, _allreduce_body, faults=plan, integrity=True, timeout=30)
        assert isinstance(ei.value.__cause__, CorruptMessage)

    def test_bitflip_without_integrity_can_pass_silently(self):
        # the framing is what converts silent corruption into a typed
        # error; without it the flipped payload reaches unpickling
        plan = FaultPlan([Fault("bitflip", rank=0, op="send", index=0, bit=3)])
        try:
            run_spmd(2, _allreduce_body, faults=plan, timeout=30)
        except SpmdError as exc:
            assert not isinstance(exc.__cause__, CorruptMessage)

    def test_drop_detected_as_sequence_gap(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("first", 1, tag=4)
                comm.send("second", 1, tag=4)
            else:
                comm.recv(0, tag=4)
                comm.recv(0, tag=4)

        plan = FaultPlan([Fault("drop", rank=0, op="send", index=0)])
        with pytest.raises(SpmdError, match="dropped or duplicated") as ei:
            run_spmd(2, fn, faults=plan, integrity=True, timeout=30)
        assert isinstance(ei.value.__cause__, CorruptMessage)

    def test_duplicate_detected_as_stale_sequence(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("first", 1, tag=4)
                comm.send("second", 1, tag=4)
            else:
                comm.recv(0, tag=4)
                comm.recv(0, tag=4)

        plan = FaultPlan([Fault("duplicate", rank=0, op="send", index=0)])
        with pytest.raises(SpmdError, match="dropped or duplicated") as ei:
            run_spmd(2, fn, faults=plan, integrity=True, timeout=30)
        assert isinstance(ei.value.__cause__, CorruptMessage)

    def test_drop_resync_regression(self):
        """One dropped delivery must poison exactly one receive.

        Regression for the off-by-one where a sequence gap advanced the
        expected rx sequence by one instead of resyncing to the observed
        frame, so every later in-order message also raised.
        """
        plan = FaultPlan([Fault("drop", 0, op="send", index=0)])

        def fn(comm):
            if comm.rank == 0:
                for k in range(4):
                    comm.send(f"msg{k}", 1, tag=5)
                return None
            # delivery of msg0 was dropped: the first recv pops msg1's
            # frame and reports the gap; msg2/msg3 then verify clean.
            with pytest.raises(CorruptMessage, match="sequence"):
                comm.recv(0, tag=5)
            return [comm.recv(0, tag=5) for _ in range(2)]

        res = run_spmd(2, fn, timeout=60, faults=plan, integrity=True)
        assert res.values[1] == ["msg2", "msg3"]

    def test_duplicate_single_error(self):
        plan = FaultPlan([Fault("duplicate", 0, op="send", index=0)])

        def fn(comm):
            if comm.rank == 0:
                comm.send("a", 1, tag=5)
                comm.send("b", 1, tag=5)
                return None
            first = comm.recv(0, tag=5)  # original delivery of "a"
            with pytest.raises(CorruptMessage, match="sequence"):
                comm.recv(0, tag=5)  # the stale duplicate
            return first, comm.recv(0, tag=5)

        res = run_spmd(2, fn, timeout=60, faults=plan, integrity=True)
        assert res.values[1] == ("a", "b")

    def test_ledger_charged_for_corrupt_bytes(self):
        """Charge-before-verify: the byte ledger and trace stay balanced
        even when the delivered payload is corrupt."""
        plan = FaultPlan([Fault("bitflip", rank=0, op="send", index=0, bit=3)])
        rec = TraceRecorder()

        def fn(comm):
            if comm.rank == 0:
                comm.send(b"payload", 1, tag=2)
            else:
                comm.recv(0, tag=2)

        with pytest.raises(SpmdError):
            run_spmd(2, fn, faults=plan, integrity=True, trace=rec, timeout=30)
        sends = rec.message_events(kind="send")
        recvs = rec.message_events(kind="recv")
        assert len(sends) == len(recvs) == 1
        assert sends[0].nbytes == recvs[0].nbytes


class TestStraggler:
    def test_modelled_delay_charged_to_named_phase(self):
        def fn(comm):
            with comm.profile.phase("work"):
                comm.barrier()

        plan = FaultPlan(
            [Fault("straggle", rank=1, op="phase", phase="work", seconds=3.0)]
        )
        t0 = time.monotonic()
        res = run_spmd(4, fn, faults=plan, timeout=30)
        assert time.monotonic() - t0 < 5.0  # modelled, not slept
        charged = res.profiles[1].events["work"].comm_seconds
        uncharged = res.profiles[0].events["work"].comm_seconds
        assert charged >= 3.0
        assert uncharged < 3.0  # only the straggler pays the delay
        assert len(res.fault_events) == 1
        assert res.fault_events[0].kind == "straggle"


class TestRetry:
    def test_transient_crash_converges(self):
        plan = FaultPlan([Fault("crash", rank=1, op="send", index=0, attempts=2)])
        res = run_spmd_resilient(
            4,
            _allreduce_body,
            faults=plan,
            policy=RetryPolicy(max_attempts=4),
            timeout=30,
        )
        assert res.values == [10, 10, 10, 10]
        assert res.attempts == 3
        # injections of the failed attempts are kept on the result
        assert [e.attempt for e in res.fault_events] == [0, 1]

    def test_budget_exhaustion_reraises_typed(self):
        plan = FaultPlan([Fault("crash", rank=0, op="send", index=0, attempts=99)])
        with pytest.raises(SpmdError) as ei:
            run_spmd_resilient(
                4,
                _allreduce_body,
                faults=plan,
                policy=RetryPolicy(max_attempts=2),
                timeout=30,
            )
        assert isinstance(ei.value.__cause__, RankCrash)

    def test_non_transient_error_not_retried(self):
        calls = []

        def fn(comm):
            if comm.rank == 0:
                calls.append(1)
                raise ValueError("logic bug")
            comm.barrier()

        with pytest.raises(SpmdError, match="logic bug"):
            run_spmd_resilient(2, fn, policy=RetryPolicy(max_attempts=5), timeout=30)
        assert len(calls) == 1

    def test_retry_span_recorded(self):
        plan = FaultPlan([Fault("crash", rank=0, op="send", index=0, attempts=1)])
        res = run_spmd_resilient(
            2, _allreduce_body, faults=plan, trace=True, timeout=30
        )
        assert res.attempts == 2
        retries = [
            e for e in res.trace.span_events() if e.phase.startswith("RECOVERY:retry")
        ]
        assert len(retries) == 1
        chaos = [
            e for e in res.trace.span_events() if e.phase == "CHAOS:crash"
        ]
        assert len(chaos) == 1


@pytest.mark.chaos
class TestCheckpointResume:
    P = 4
    N = 160

    def test_resume_skips_upward_phases_bit_identically(self):
        pts = np.random.default_rng(3).random((self.N, 3))
        body = _resumable_fmm_body(
            pts, lambda own: np.sin(9.0 * own[:, 0]) + own[:, 1], 30
        )
        base = run_spmd_resilient(self.P, body, rank_state=True, timeout=60)
        # crash in a downward phase, after the checkpoint was cut
        plan = FaultPlan(
            [Fault("crash", rank=1, op="phase", phase="D2T", attempts=1)]
        )
        res = run_spmd_resilient(
            self.P, body, faults=plan, rank_state=True, trace=True, timeout=60
        )
        assert res.attempts == 2
        for r in range(self.P):
            assert np.array_equal(res.values[r], base.values[r])
        resumes = res.trace.span_events(phase="RECOVERY:resume")
        assert len(resumes) == self.P  # every rank resumed together
        # the resumed attempt must not have re-run the upward sweep
        last_phases = res.profiles[0].events
        assert "COMM_exchange" not in last_phases
        assert "S2U" not in last_phases

    def test_checkpoint_phase_property(self):
        pts = np.random.default_rng(4).random((80, 3))

        def body(comm):
            fmm = DistributedFmm(order=4, max_points_per_box=30)
            phases = [fmm.checkpoint_phase]
            fmm.setup(comm, pts[comm.rank :: comm.size])
            phases.append(fmm.checkpoint_phase)
            dens = np.ones(fmm.owned_points.shape[0])
            fmm.evaluate(dens)
            phases.append(fmm.checkpoint_phase)
            return phases

        res = run_spmd(2, body, timeout=60)
        assert res.values[0] == [None, "setup", "upward"]

    def test_rebind_rejects_rank_change(self):
        pts = np.random.default_rng(5).random((60, 3))
        boxes = {}

        def body(comm):
            fmm = DistributedFmm(order=4, max_points_per_box=30)
            fmm.setup(comm, pts[comm.rank :: comm.size])
            boxes[comm.rank] = fmm

        run_spmd(2, body, timeout=60)

        def swap(comm):
            if comm.rank == 0:
                boxes[1].rebind(comm)

        with pytest.raises(SpmdError, match="rank-specific"):
            run_spmd(2, swap, timeout=60)


@pytest.mark.chaos
class TestGpuDegradation:
    def test_device_fault_falls_back_bit_identically(self):
        pts = np.random.default_rng(6).random((150, 3))
        dens = np.cos(5.0 * pts[:, 0])

        def body(comm, use_gpu=False):
            fmm = DistributedFmm(
                order=4, max_points_per_box=30, use_gpu=use_gpu
            )
            fmm.setup(comm, pts)
            own = fmm.owned_points
            d = np.cos(5.0 * own[:, 0])
            return fmm.evaluate(d)

        cpu = run_spmd(1, body, timeout=60)
        plan = FaultPlan([Fault("gpu", rank=0, op="launch", phase="*")])
        gpu = run_spmd(
            1, body, use_gpu=True, faults=plan, trace=True, timeout=60
        )
        assert np.array_equal(gpu.values[0], cpu.values[0])
        assert [e.kind for e in gpu.fault_events] == ["gpu"]
        fallbacks = [
            e.phase
            for e in gpu.trace.span_events()
            if e.phase.startswith("RECOVERY:gpu_fallback")
        ]
        # the first accelerated phase faults; every later one is degraded
        assert "RECOVERY:gpu_fallback:S2U" in fallbacks
        assert "RECOVERY:gpu_fallback:ULI" in fallbacks

    def test_targeted_phase_fault_degrades_only_from_there(self):
        pts = np.random.default_rng(7).random((120, 3))

        def body(comm):
            fmm = DistributedFmm(order=4, max_points_per_box=30, use_gpu=True)
            fmm.setup(comm, pts)
            d = np.ones(fmm.owned_points.shape[0])
            pot = fmm.evaluate(d)
            return pot, fmm.evaluator.gpu.failed

        plan = FaultPlan([Fault("gpu", rank=0, op="launch", phase="D2T")])
        res = run_spmd(1, body, faults=plan, trace=True, timeout=60)
        assert res.values[0][1] is True  # device dead after the fault
        fallbacks = {
            e.phase
            for e in res.trace.span_events()
            if e.phase.startswith("RECOVERY:gpu_fallback")
        }
        assert "RECOVERY:gpu_fallback:S2U" not in fallbacks  # ran on device
        assert "RECOVERY:gpu_fallback:D2T" in fallbacks
        assert "RECOVERY:gpu_fallback:ULI" in fallbacks  # dead afterwards


class TestAbortedSpans:
    def test_wedged_rank_spans_flushed_as_aborted(self, tmp_path):
        rec = TraceRecorder()

        def fn(comm):
            if comm.rank == 0:
                raise ValueError("boom")
            with comm.profile.phase("napping"):
                time.sleep(8.0)  # wedged past abort + grace

        with pytest.raises(SpmdError, match="boom") as ei:
            run_spmd(2, fn, trace=rec, timeout=0.3)
        assert ei.value.wedged == (1,)
        spans = rec.span_events(rank=1, phase="napping")
        assert len(spans) == 1 and spans[0].aborted
        # the JSONL export of the failed run round-trips
        path = tmp_path / "failed.jsonl"
        rec.write_jsonl(str(path))
        back = TraceRecorder.read_jsonl(str(path))
        assert back.signature() == rec.signature()

    def test_exception_closes_span_as_aborted(self):
        rec = TraceRecorder()

        def fn(comm):
            if comm.rank == 0:
                with comm.profile.phase("doomed"):
                    raise OSError("mid-phase failure")
            comm.recv(0, tag=1)

        with pytest.raises(SpmdError, match="mid-phase"):
            run_spmd(2, fn, trace=rec, timeout=30)
        spans = rec.span_events(rank=0, phase="doomed")
        assert len(spans) == 1 and spans[0].aborted


@pytest.mark.chaos
class TestDeterminism:
    def test_identical_plans_replay_identical_event_sequences(self):
        plan = FaultPlan(
            [
                Fault("crash", rank=2, op="recv", index=1, attempts=1),
                Fault("straggle", rank=0, op="send", index=0, seconds=1.0,
                      attempts=9),
            ],
            seed=11,
        )

        def run_once():
            return run_spmd_resilient(
                4, _allreduce_body, faults=plan, timeout=30
            ).fault_events

        assert run_once() == run_once()

    def test_completed_run_trace_signatures_replay(self):
        plan = FaultPlan(
            [Fault("straggle", rank=1, op="phase", phase="coll", seconds=2.0)]
        )

        def fn(comm):
            with comm.profile.phase("coll"):
                comm.allreduce(comm.rank)

        def sig():
            res = run_spmd(4, fn, faults=plan, integrity=True, trace=True,
                           timeout=30)
            return res.trace.signature()

        assert sig() == sig()


class TestCrashWithPeersBlocked:
    """Crashes landing while the peers are blocked in communication.

    The matrix requirement: for every victim rank at p in {2, 5, 8} a
    crash fired at a blocking ``recv`` must surface as a typed
    :class:`SpmdError` caused by :class:`RankCrash` — zero hangs —
    because ``abort_all`` wakes every peer still blocked in ``recv``.
    """

    @staticmethod
    def _ring_body(comm):
        r, p = comm.rank, comm.size
        comm.send(("dens", r), (r + 1) % p, tag=4)
        got = comm.recv((r - 1) % p, tag=4)  # the injected crash fires here
        comm.barrier()  # ... and the survivors block here
        return got

    @pytest.mark.parametrize("p", [2, 5, 8])
    def test_crash_matrix_typed_never_hangs(self, p):
        for victim in range(p):
            plan = FaultPlan([Fault("crash", victim, op="recv", index=0)])
            t0 = time.monotonic()
            with pytest.raises(SpmdError) as ei:
                run_spmd(p, self._ring_body, faults=plan, timeout=30)
            assert time.monotonic() - t0 < 30  # aborted, not timed out
            assert ei.value.rank == victim
            assert isinstance(ei.value.__cause__, RankCrash)
            assert "recv" in str(ei.value.__cause__)

    def test_abort_wakes_ranks_blocked_in_recv(self):
        """Peers parked in ``recv`` on never-sent messages wake."""
        plan = FaultPlan([Fault("crash", 0, op="recv", index=0)])

        def fn(comm):
            if comm.rank == 0:
                comm.recv(1, tag=1)  # crashes here, before serving anyone
                return None
            # this message is never sent: only abort_all can end the wait
            comm.recv(0, tag=2)

        t0 = time.monotonic()
        with pytest.raises(SpmdError) as ei:
            run_spmd(4, fn, faults=plan, timeout=30)
        assert time.monotonic() - t0 < 25  # woke well before the deadline
        assert ei.value.rank == 0
        assert ei.value.wedged == ()

    def test_resilient_retry_converges_after_recv_crash(self):
        plan = FaultPlan(
            [Fault("crash", 1, op="recv", index=0, attempts=1)]
        )
        res = run_spmd_resilient(
            4, self._ring_body, faults=plan, timeout=30,
            policy=RetryPolicy(max_attempts=3),
        )
        assert res.attempts == 2
        assert [v for v in res.values] == [("dens", 3), ("dens", 0),
                                           ("dens", 1), ("dens", 2)]


#: The fault matrix: one seeded plan per class in ``FAULT_KINDS``, for an
#: 8-rank run.  A transient fault fires on the first attempt only.
MATRIX_P = 8
MATRIX_PLANS = {
    "crash": FaultPlan(
        [Fault("crash", rank=1, op="phase", phase="VLI", attempts=1)]
    ),
    "straggle": FaultPlan(
        [Fault("straggle", rank=2, op="phase", phase="S2U", seconds=5.0)]
    ),
    "drop": FaultPlan([Fault("drop", rank=0, op="send", index=5, attempts=1)]),
    "duplicate": FaultPlan(
        [Fault("duplicate", rank=0, op="send", index=5, attempts=1)]
    ),
    "bitflip": FaultPlan(
        [Fault("bitflip", rank=3, op="send", index=4, bit=97, attempts=1)]
    ),
    "gpu": FaultPlan(
        [Fault("gpu", rank=r, op="launch", phase="*") for r in range(MATRIX_P)]
    ),
}


@pytest.fixture(scope="module")
def matrix_run():
    """``run(plan, ...)`` over the matrix's distributed FMM (1200 points
    on the ellipsoid, q = 50), and its fault-free baseline."""
    pts = make_distribution("ellipsoid", 1200, seed=0)
    body = _resumable_fmm_body(
        pts,
        lambda own: np.sin(17.0 * own[:, 0]) + own[:, 2] * np.cos(11.0 * own[:, 1]),
        50,
    )

    def run(plan=None, use_gpu=False, timeout=120.0, trace=False):
        return run_spmd_resilient(
            MATRIX_P,
            body,
            policy=RetryPolicy(max_attempts=3),
            faults=plan,
            rank_state=True,
            integrity=True,
            timeout=timeout,
            trace=trace,
            use_gpu=use_gpu,
        )

    return run, run()


@pytest.mark.chaos
class TestFaultMatrix:
    """Every fault class against a distributed FMM, end to end."""

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_recovers_bit_identically_or_fails_typed(self, kind, matrix_run):
        run, base = matrix_run
        # a dropped delivery usually wedges a collective until the deadline
        # (no later traffic exposes the sequence gap), so that class gets a
        # short per-attempt deadline: the retry converges either way
        timeout = 20.0 if kind == "drop" else 120.0
        try:
            res = run(MATRIX_PLANS[kind], use_gpu=(kind == "gpu"), timeout=timeout)
        except TRANSIENT_ERRORS + (SpmdError,) as exc:
            cause = exc.__cause__ if exc.__cause__ is not None else exc
            assert isinstance(cause, TRANSIENT_ERRORS), f"untyped failure {cause!r}"
            return
        for r in range(MATRIX_P):
            assert np.array_equal(res.values[r], base.values[r]), f"rank {r}"

    def test_seeded_plans_replay(self, matrix_run):
        """The crash plan replays its injection sequence, and the straggle
        plan its completed-run trace signature."""
        run, _ = matrix_run
        crash = MATRIX_PLANS["crash"]
        assert run(crash).fault_events == run(crash).fault_events
        straggle = MATRIX_PLANS["straggle"]
        assert (run(straggle, trace=True).trace.signature()
                == run(straggle, trace=True).trace.signature())
