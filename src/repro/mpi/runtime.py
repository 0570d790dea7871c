"""SPMD launcher: run one function on ``p`` virtual ranks.

Each rank runs the *same* function in its own thread with its own
:class:`SimComm` — the programming model is exactly MPI's.  If any rank
raises, the fabric aborts (``Fabric.abort_all`` — flag *and* condition
notification, so blocked receivers wake immediately rather than on a
poll tick) and the first exception is re-raised in the caller.

The ``timeout`` is one shared deadline for the *whole run*: the joins
across all rank threads consume a single time budget, so a wedged run
fails after ``timeout`` seconds total, not ``nranks * timeout``.  When
both a rank error *and* wedged threads exist, the rank error wins — a
recorded root cause is never masked by the deadline (the wedged ranks
are noted on the :class:`SpmdError`).

A run of more than one rank holds BLAS at one thread per rank for its
duration (:func:`repro.util.blas.limit_blas_threads`): the ranks are
threads of one process, and ``p`` of them over a BLAS pool of ``nproc``
threads oversubscribe the host.  A single rank keeps the ambient setting.

Chaos and recovery: ``run_spmd(..., faults=FaultPlan(...))`` swaps the
fabric for a :class:`~repro.mpi.faults.ChaosFabric` that injects the
planned faults deterministically; ``integrity=True`` turns on CRC32 +
sequence framing of every message (typed :class:`CorruptMessage` instead
of unpickling crashes).  :func:`run_spmd_resilient` retries whole runs
on typed transient faults under a bounded
:class:`~repro.mpi.faults.RetryPolicy`, re-deriving the fault plan per
attempt so deterministic replays converge.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.mpi.comm import Fabric, SimComm, SpmdAborted
from repro.mpi.machine import LOCAL, MachineModel
from repro.util.blas import limit_blas_threads
from repro.util.timer import PhaseProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.faults import FaultEvent, FaultPlan, RetryPolicy
    from repro.perf.trace import TraceRecorder

__all__ = ["run_spmd", "run_spmd_resilient", "SpmdResult", "SpmdError"]


class SpmdError(RuntimeError):
    """A rank of an SPMD run failed.

    ``rank`` is the lowest failing rank (its exception is the
    ``__cause__``); ``wedged`` lists ranks whose threads were still alive
    after the abort grace period, if any.
    """

    def __init__(self, message: str, rank: int, wedged: tuple[int, ...] = ()):
        super().__init__(message)
        self.rank = rank
        self.wedged = tuple(wedged)


@dataclass
class SpmdResult:
    """Return values and per-rank profiles of one SPMD run."""

    values: list[Any]
    profiles: list[PhaseProfile]
    comms: list[SimComm]
    #: The shared trace recorder, if tracing was requested (else ``None``).
    trace: "TraceRecorder | None" = field(default=None)
    #: Chaos injections that fired (deterministic order; empty when no
    #: fault plan was attached).
    fault_events: "list[FaultEvent]" = field(default_factory=list)
    #: Number of run attempts it took (``run_spmd_resilient`` sets > 1).
    attempts: int = 1

    def max_phase_seconds(self, machine: MachineModel, phase: str) -> float:
        """Modelled wall-clock of a phase: max over ranks of comp + comm."""
        out = 0.0
        for prof in self.profiles:
            ev = prof.events.get(phase)
            if ev is None:
                continue
            out = max(out, machine.compute_seconds(ev.flops) + ev.comm_seconds)
        return out

    def avg_phase_seconds(self, machine: MachineModel, phase: str) -> float:
        """Modelled per-rank average time of a phase."""
        total = 0.0
        for prof in self.profiles:
            ev = prof.events.get(phase)
            if ev is not None:
                total += machine.compute_seconds(ev.flops) + ev.comm_seconds
        return total / len(self.profiles)

    def phase_flops(self, phase: str) -> list[float]:
        return [p.events.get(phase).flops if phase in p.events else 0.0 for p in self.profiles]


def _recorder(trace: "TraceRecorder | bool | None") -> "TraceRecorder | None":
    """``trace=True`` asks for a fresh recorder, ``False`` for none."""
    if trace is True:
        from repro.perf.trace import TraceRecorder

        return TraceRecorder()
    return None if trace is False else trace


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    machine: MachineModel | None = None,
    timeout: float = 600.0,
    trace: "TraceRecorder | bool | None" = None,
    faults: "FaultPlan | None" = None,
    integrity: bool = False,
    **kwargs: Any,
) -> SpmdResult:
    """Run ``fn(comm, *args, **kwargs)`` on ``nranks`` virtual ranks.

    Returns an :class:`SpmdResult` with per-rank return values, phase
    profiles and communicators (for ledger inspection).  The first rank
    exception is re-raised (as :class:`SpmdError`) with the original
    error as its ``__cause__``.

    ``timeout`` is a single shared deadline across all ranks (total run
    budget, not per-thread).  ``trace`` attaches a
    :class:`~repro.perf.trace.TraceRecorder` to every rank's communicator
    and profile; pass ``True`` to have one created, or an existing
    recorder to accumulate several runs into one trace.  The recorder is
    returned on ``SpmdResult.trace``.

    ``faults`` runs the SPMD function on a
    :class:`~repro.mpi.faults.ChaosFabric` executing the given
    :class:`~repro.mpi.faults.FaultPlan`; the injections that fired are
    returned on ``SpmdResult.fault_events``.  ``integrity`` enables the
    CRC32 + sequence frame around every message (see
    :class:`~repro.mpi.comm.SimComm`).
    """
    if nranks < 1:
        raise ValueError("nranks must be >= 1")
    machine = machine if machine is not None else LOCAL
    trace = _recorder(trace)
    if faults is not None:
        from repro.mpi.faults import ChaosFabric

        fabric: Fabric = ChaosFabric(nranks, faults)
    else:
        fabric = Fabric(nranks)
    profiles = [PhaseProfile() for _ in range(nranks)]
    comms = [
        SimComm(
            fabric,
            r,
            machine=machine,
            profile=profiles[r],
            trace=trace,
            integrity=integrity,
        )
        for r in range(nranks)
    ]
    if faults is not None:
        fabric.bind(profiles, trace)
        for r, prof in enumerate(profiles):
            prof.bind_chaos(fabric.on_phase, r)
    values: list[Any] = [None] * nranks
    errors: list[tuple[int, BaseException]] = []
    lock = threading.Lock()

    def worker(rank: int) -> None:
        try:
            values[rank] = fn(comms[rank], *args, **kwargs)
        except SpmdAborted:
            pass  # secondary failure: the primary error is reported
        except BaseException as exc:  # noqa: BLE001 - must surface any rank failure
            with lock:
                errors.append((rank, exc))
            fabric.abort_all()

    threads = [
        threading.Thread(target=worker, args=(r,), name=f"spmd-rank-{r}", daemon=True)
        for r in range(nranks)
    ]
    # one BLAS thread per rank (module docstring); refcounted, so a rank's
    # own tile-pool pin nests inside it
    with limit_blas_threads(1) if nranks > 1 else nullcontext():
        for t in threads:
            t.start()
        deadline = time.monotonic() + timeout
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        timed_out = any(t.is_alive() for t in threads)
        if timed_out:
            fabric.abort_all()
            grace = time.monotonic() + 5.0
            for t in threads:
                t.join(timeout=max(0.0, grace - time.monotonic()))
    wedged = tuple(r for r, t in enumerate(threads) if t.is_alive())
    if wedged and trace is not None:
        # close the wedged ranks' open phases so the trace stays well-formed
        for r in wedged:
            profiles[r].flush_open_spans()
    fault_events = list(fabric.fault_events) if faults is not None else []
    if errors:
        # a recorded rank error is always the primary cause — never mask
        # it with the deadline, even if other threads wedged past the abort
        with lock:
            rank, exc = min(errors, key=lambda e: e[0])
        note = f" (ranks {list(wedged)} still wedged past the abort)" if wedged else ""
        err = SpmdError(f"rank {rank} failed: {exc!r}{note}", rank, wedged)
        err.fault_events = fault_events
        raise err from exc
    if timed_out:
        note = f"; wedged ranks: {list(wedged)}" if wedged else ""
        err = TimeoutError(f"SPMD run exceeded {timeout}s (possible deadlock{note})")
        err.fault_events = fault_events
        raise err
    return SpmdResult(
        values=values,
        profiles=profiles,
        comms=comms,
        trace=trace,
        fault_events=fault_events,
    )


def run_spmd_resilient(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    policy: "RetryPolicy | None" = None,
    faults: "FaultPlan | None" = None,
    machine: MachineModel | None = None,
    timeout: float = 600.0,
    trace: "TraceRecorder | bool | None" = None,
    integrity: bool = False,
    rank_state: bool = False,
    **kwargs: Any,
) -> SpmdResult:
    """:func:`run_spmd` with bounded retries on typed transient faults.

    Each attempt re-derives the fault plan via
    :meth:`~repro.mpi.faults.FaultPlan.for_attempt`, so planned transient
    faults stop firing once their ``attempts`` budget is spent and the
    deterministic replay converges to a clean run.  Non-transient errors
    (anything not in ``policy.retry_on``) re-raise immediately.

    With ``rank_state=True`` the rank function is called as
    ``fn(comm, state, *args, **kwargs)`` where ``state`` is a per-rank
    dict that *persists across attempts* — the hook for checkpoint
    resume: stash a set-up :class:`~repro.dist.driver.DistributedFmm`
    there on attempt 0 and call ``fmm.rebind(comm);
    fmm.evaluate(dens, resume=True)`` on later attempts to skip the
    completed phases (see TUTORIAL §9).

    Pass ``trace=True`` (or a recorder) to accumulate every attempt —
    including the failed ones and their ``CHAOS:*`` / ``RECOVERY:*``
    spans — into one trace.  The result's ``attempts`` field reports how
    many runs it took.
    """
    from repro.mpi.faults import RetryPolicy, record_retry_span

    if policy is None:
        policy = RetryPolicy()
    trace = _recorder(trace)
    states: list[dict] | None = (
        [{} for _ in range(nranks)] if rank_state else None
    )
    if rank_state:
        inner = fn

        def fn(comm, *a, **k):  # noqa: F811 - deliberate rebinding
            return inner(comm, states[comm.rank], *a, **k)

    past_events: list = []
    started = 0.0

    def attempt(k):
        nonlocal started
        started = time.monotonic()
        result = run_spmd(
            nranks,
            fn,
            *args,
            machine=machine,
            timeout=timeout,
            trace=trace,
            faults=faults.for_attempt(k) if faults is not None else None,
            integrity=integrity,
            **kwargs,
        )
        result.attempts = k + 1
        # injections of the failed attempts, then the successful one's
        result.fault_events = past_events + result.fault_events
        return result

    def on_retry(k, exc, delay):
        past_events.extend(getattr(exc, "fault_events", ()))
        record_retry_span(
            trace, getattr(exc, "rank", 0) or 0, k, exc, delay,
            time.monotonic() - started,
        )

    return policy.run(attempt, on_retry=on_retry)
