"""Deterministic fault injection for the SPMD runtime (the chaos fabric).

The paper's target regime — 65K cores, 196K virtual ranks — is one where
rank failures, stragglers and corrupted transfers are routine, yet a
simulator that only ever runs the happy path proves nothing about them.
This module makes faults *first-class, seeded inputs* of a run:

* :class:`FaultPlan` — an explicit, fully deterministic schedule of
  :class:`Fault` injections (or a seeded random mixture via
  :meth:`FaultPlan.random`).  Identical plans produce identical per-rank
  injection sequences, so failures replay.
* :class:`ChaosFabric` — a drop-in :class:`~repro.mpi.comm.Fabric`
  subclass (selected via ``run_spmd(..., faults=plan)``) that executes
  the plan: rank crashes at the Nth send/recv or on phase entry,
  straggler delays (modelled seconds charged to the rank's profile, plus
  an optional *real* sleep for deadline tests), dropped and duplicated
  deliveries, payload bit-flips, and virtual-GPU device faults.
* :class:`RetryPolicy` — the one bounded-retry loop (:meth:`RetryPolicy.run`)
  on *typed transient* faults, under ``run_spmd_resilient`` and both
  serving engines.  Each retry re-derives the plan
  (:meth:`FaultPlan.for_attempt`): a fault fires on its first ``attempts``
  run attempts and then stops, so deterministic replays converge.

Injection always happens **in the thread of the affected rank** (the
fabric's ``put`` runs in the sender, ``get`` in the receiver, the phase
hook in the phase-opening rank), so crashes surface exactly like organic
rank failures and the abort/deadline machinery of PR 1 applies unchanged.
Every injection is appended to a per-rank event log
(:attr:`ChaosFabric.fault_events` — deterministic order) and, when a
trace recorder is attached, emitted as a ``CHAOS:<kind>`` span so
``python -m repro trace`` shows what the chaos did and what recovery
cost.
"""

from __future__ import annotations

import random as _random
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.gpu.device import GpuDeviceFault
from repro.mpi.comm import CorruptMessage, Fabric

__all__ = [
    "ChaosFabric",
    "Fault",
    "FaultEvent",
    "FaultPlan",
    "InjectedFault",
    "RankCrash",
    "RetryPolicy",
    "record_retry_span",
    "cause_name",
    "TRANSIENT_ERRORS",
    "FAULT_KINDS",
]


class InjectedFault(RuntimeError):
    """Base class of errors raised *by* the chaos fabric."""


class RankCrash(InjectedFault):
    """A planned rank crash (models a node failure / OOM kill)."""


#: Error classes a :class:`RetryPolicy` treats as transient by default:
#: planned injections, integrity violations (corruption is re-rollable),
#: device faults, and deadline expiries (dropped messages surface as
#: timeouts when no later traffic exposes the sequence gap).
TRANSIENT_ERRORS = (InjectedFault, CorruptMessage, GpuDeviceFault, TimeoutError)

#: The supported fault classes of the matrix (``tests/test_chaos.py``).
FAULT_KINDS = ("crash", "straggle", "drop", "duplicate", "bitflip", "gpu")

_OPS = ("send", "recv", "phase", "launch")


@dataclass(frozen=True)
class Fault:
    """One planned injection.

    kind:
        ``crash`` (raise :class:`RankCrash` in the rank), ``straggle``
        (delay the rank), ``drop`` / ``duplicate`` (lose or repeat one
        delivery), ``bitflip`` (corrupt one payload bit), ``gpu``
        (virtual-device ECC/OOM fault).
    op:
        The trigger stream: ``send`` / ``recv`` fire at the ``index``-th
        point-to-point operation of ``rank`` (0-based, counted at the
        fabric); ``phase`` fires on the ``index``-th entry of phase
        ``phase`` on ``rank``; ``launch`` arms a GPU fault for phase
        ``phase`` (``None`` = first accelerated phase).  A crash at a
        ``recv`` is the "peers blocked in communication" case: nothing
        the victim would have sent afterwards ever arrives, and the abort
        machinery wakes the ranks blocked waiting for it.
    seconds / sleep:
        Straggler cost: modelled seconds charged to the rank's profile,
        and real seconds slept (for deadline tests).
    bit:
        Bit-flip position (modulo the payload length).
    attempts:
        The fault fires on run attempts ``0 .. attempts-1`` and is
        removed by :meth:`FaultPlan.for_attempt` afterwards, so bounded
        retries converge.  Use a large value for permanent faults.
    """

    kind: str
    rank: int
    op: str = "send"
    index: int = 0
    phase: str | None = None
    seconds: float = 0.0
    sleep: float = 0.0
    bit: int = 0
    attempts: int = 1

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}")
        if self.op not in _OPS:
            raise ValueError(f"unknown fault op {self.op!r}; one of {_OPS}")
        if self.kind == "gpu" and self.op != "launch":
            raise ValueError("gpu faults use op='launch'")
        if self.kind in ("drop", "duplicate", "bitflip") and self.op != "send":
            raise ValueError(f"{self.kind} faults trigger on op='send'")
        if self.op == "phase" and not self.phase:
            raise ValueError("op='phase' needs a phase name")
        if self.rank < 0:
            raise ValueError("fault rank must be >= 0")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")


@dataclass(frozen=True)
class FaultEvent:
    """One injection that actually fired (deterministic replay record)."""

    rank: int
    kind: str
    op: str
    index: int
    phase: str
    attempt: int
    detail: str = ""


class FaultPlan:
    """A deterministic, seeded schedule of fault injections.

    The plan itself is pure data: the same plan drives the same
    injections in every run (triggers count per-rank operations in
    program order, so thread scheduling cannot reorder them).  ``seed``
    names the plan (and feeds :meth:`random`); ``attempt`` is the retry
    attempt this plan instance was derived for.
    """

    def __init__(self, faults: Iterable[Fault] = (), seed: int = 0, attempt: int = 0):
        self.faults: tuple[Fault, ...] = tuple(faults)
        self.seed = int(seed)
        self.attempt = int(attempt)

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, attempt={self.attempt}, "
            f"faults={len(self.faults)})"
        )

    def __len__(self) -> int:
        return len(self.faults)

    def for_attempt(self, attempt: int) -> "FaultPlan":
        """The plan as seen by run attempt ``attempt`` (0-based).

        Faults whose ``attempts`` budget is exhausted are removed, so a
        bounded retry loop deterministically converges to a fault-free
        replay once every transient fault has fired its quota.
        """
        return FaultPlan(
            (f for f in self.faults if attempt < f.attempts),
            seed=self.seed,
            attempt=attempt,
        )

    def scaled_to(self, nranks: int) -> "FaultPlan":
        """Drop faults targeting ranks outside ``[0, nranks)``."""
        return FaultPlan(
            (f for f in self.faults if f.rank < nranks),
            seed=self.seed,
            attempt=self.attempt,
        )

    def remapped(self, mapping: dict) -> "FaultPlan":
        """Keep only faults targeting a key of ``mapping``, re-targeted.

        The distributed serving plane places replicas of a model on
        distinct fabric ranks but runs each replica on its own
        single-rank communicator; ``plan.remapped({i: 0})`` projects the
        fabric-wide plan onto replica ``i``'s local rank space so a
        fault aimed at "the replica on rank i" fires inside that
        replica's run and nowhere else.
        """
        from dataclasses import replace

        return FaultPlan(
            (
                replace(f, rank=int(mapping[f.rank]))
                for f in self.faults
                if f.rank in mapping
            ),
            seed=self.seed,
            attempt=self.attempt,
        )

    @classmethod
    def random(
        cls,
        seed: int,
        nranks: int,
        n_faults: int = 4,
        kinds: Sequence[str] = FAULT_KINDS,
        phases: Sequence[str] = ("tree", "let", "S2U", "U2U", "VLI", "D2T"),
        max_index: int = 24,
    ) -> "FaultPlan":
        """A seeded random mixture — same seed, same plan, always."""
        rng = _random.Random(int(seed))
        faults = []
        for _ in range(int(n_faults)):
            kind = rng.choice(list(kinds))
            rank = rng.randrange(nranks)
            if kind == "gpu":
                faults.append(
                    Fault(kind, rank, op="launch", phase=rng.choice(list(phases)))
                )
            elif kind == "crash":
                if rng.random() < 0.5:
                    faults.append(
                        Fault(kind, rank, op="phase", phase=rng.choice(list(phases)))
                    )
                else:
                    faults.append(
                        Fault(
                            kind,
                            rank,
                            op=rng.choice(("send", "recv")),
                            index=rng.randrange(max_index),
                        )
                    )
            elif kind == "straggle":
                faults.append(
                    Fault(
                        kind,
                        rank,
                        op="phase",
                        phase=rng.choice(list(phases)),
                        seconds=round(rng.uniform(0.5, 30.0), 3),
                    )
                )
            else:  # drop / duplicate / bitflip
                faults.append(
                    Fault(
                        kind,
                        rank,
                        op="send",
                        index=rng.randrange(max_index),
                        bit=rng.randrange(1 << 12),
                    )
                )
        return cls(faults, seed=seed)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry on typed transient faults.

    :meth:`run` retries a failed attempt while the *primary* rank
    error (or the launcher error itself) is an instance of ``retry_on``,
    up to ``max_attempts`` total attempts.  Anything not in ``retry_on``
    — an assertion, a ValueError, real logic bugs — re-raises
    immediately: retrying can only help faults that are transient *by
    type*.

    Between attempts the loop sleeps :meth:`delay` seconds —
    exponential backoff with *seeded deterministic jitter*: the ``k``-th
    retry waits ``backoff * backoff_factor**(k-1)`` seconds (capped at
    ``max_backoff``), stretched by up to ``jitter`` of itself using a
    uniform draw from ``Random(seed, k)``.  Jitter decorrelates a
    thundering herd of retrying clients, and seeding it keeps replays
    (and trace signatures) deterministic: same policy, same attempt,
    same delay — always.
    """

    max_attempts: int = 3
    retry_on: tuple[type[BaseException], ...] = TRANSIENT_ERRORS
    #: Base delay before the first retry (seconds; 0 = no backoff).
    backoff: float = 0.0
    #: Exponential growth of the delay per subsequent retry.
    backoff_factor: float = 2.0
    #: Upper bound on any single delay (pre-jitter), seconds.
    max_backoff: float = 30.0
    #: Jitter fraction in ``[0, 1]``: each delay is stretched by up to
    #: this fraction of itself (deterministic, derived from ``seed``).
    jitter: float = 0.1
    #: Seed of the deterministic jitter stream.
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff < 0.0 or self.max_backoff < 0.0:
            raise ValueError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, retry: int) -> float:
        """Seconds to sleep before retry number ``retry`` (1-based).

        Deterministic: the jitter draw depends only on ``(seed, retry)``,
        so identical policies replay identical backoff histories.
        """
        if retry < 1 or self.backoff <= 0.0:
            return 0.0
        base = min(
            self.max_backoff, self.backoff * self.backoff_factor ** (retry - 1)
        )
        u = _random.Random(self.seed * 1_000_003 + retry).random()
        return base * (1.0 + self.jitter * u)

    def transient(self, exc: BaseException) -> bool:
        """Is ``exc`` — or the rank error it wraps — one of ``retry_on``?"""
        return isinstance(exc, self.retry_on) or isinstance(
            exc.__cause__, self.retry_on
        )

    def run(self, attempt, keep_going=None, on_retry=None):
        """The bounded-retry loop: the result of the first ``attempt(k)``
        (``k = 0, 1, ...``) that returns.

        An error that is not :meth:`transient` re-raises at once; so does
        the last of ``max_attempts``, and any after which ``keep_going()``
        (the caller's breaker / deadline check) says stop.  Otherwise
        ``on_retry(k, exc, delay)`` — the caller's spans and counters, so
        a retry is counted when, and only when, it is performed — then the
        seeded :meth:`delay`, then retry ``k`` (1-based).
        """
        k = 0
        while True:
            try:
                return attempt(k)
            except BaseException as exc:  # noqa: BLE001 - typed filter below
                k += 1
                if (
                    not self.transient(exc)
                    or k >= self.max_attempts
                    or (keep_going is not None and not keep_going())
                ):
                    raise
                delay = self.delay(k)
                if on_retry is not None:
                    on_retry(k, exc, delay)
                if delay > 0.0:
                    time.sleep(delay)


def cause_name(exc: BaseException) -> str:
    """Class name of the rank error an :class:`~repro.mpi.runtime.SpmdError`
    wraps, or of ``exc`` itself — what counters and ``RECOVERY`` spans name."""
    return type(exc.__cause__ if exc.__cause__ is not None else exc).__name__


def record_retry_span(trace, rank: int, k: int, exc, delay: float,
                      wall_s: float = 0.0) -> None:
    """Emit the ``RECOVERY:retry#k:<Cause>:backoff=...`` span of retry ``k``.

    The name carries the whole retry decision, so the recovery history
    reads straight off the trace and is stable under
    ``TraceRecorder.signature()`` (seeded jitter, no wall clock in it).
    """
    if trace is not None:
        trace.record_span(
            rank, f"RECOVERY:retry#{k}:{cause_name(exc)}:backoff={delay:.3f}s",
            wall_s, 0.0, 0, 0.0, delay,
        )


def _flip_bit(payload: bytes, bit: int) -> bytes:
    nbits = len(payload) * 8
    if nbits == 0:
        return payload
    b = bit % nbits
    buf = bytearray(payload)
    buf[b // 8] ^= 1 << (b % 8)
    return bytes(buf)


class ChaosFabric(Fabric):
    """A :class:`Fabric` that executes a :class:`FaultPlan`.

    All injection happens in the affected rank's own thread: ``put`` is
    called by the sender, ``get`` by the receiver, and the phase hook by
    the rank opening the phase — so crashes propagate out of ``send`` /
    ``recv`` / ``profile.phase(...)`` into the rank function and surface
    through the normal abort machinery.  Per-rank trigger counters are
    only ever touched by their owning thread, which is what makes the
    injection sequence deterministic under any thread schedule.
    """

    def __init__(self, size: int, plan: FaultPlan):
        super().__init__(size)
        self.plan = plan.scaled_to(size)
        self._by_trigger: dict[tuple[str, int], list[Fault]] = {}
        for f in self.plan.faults:
            self._by_trigger.setdefault((f.op, f.rank), []).append(f)
        self._send_idx = [0] * size  # touched only by the owner's thread
        self._recv_idx = [0] * size
        self._phase_idx: dict[tuple[int, str], int] = {}
        self._events: list[list[FaultEvent]] = [[] for _ in range(size)]
        self._profiles: list | None = None
        self._trace = None

    def bind(self, profiles, trace=None) -> None:
        """Attach the per-rank profiles (straggler charging) and trace."""
        self._profiles = list(profiles)
        self._trace = trace

    @property
    def fault_events(self) -> list[FaultEvent]:
        """Every injection that fired, in deterministic (rank, order)."""
        return [ev for per_rank in self._events for ev in per_rank]

    # -- internals ----------------------------------------------------------

    def _fire(self, rank: int, f: Fault, index: int, phase: str, detail: str) -> None:
        self._events[rank].append(
            FaultEvent(rank, f.kind, f.op, index, phase, self.plan.attempt, detail)
        )
        if self._trace is not None:
            self._trace.record_span(
                rank, f"CHAOS:{f.kind}", 0.0, 0.0, 0, 0.0, f.seconds
            )

    def _matching(self, op: str, rank: int, index: int, phase: str | None = None):
        for f in self._by_trigger.get((op, rank), ()):
            if op == "phase":
                if f.phase == phase and f.index == index:
                    yield f
            elif f.index == index:
                yield f

    def _straggle(self, rank: int, f: Fault, phase: str | None) -> None:
        """Charge the delay to the rank's profile; optionally really sleep."""
        if self._profiles is not None:
            prof = self._profiles[rank]
            ev = prof.event(phase) if phase is not None else prof.current
            ev.comm_seconds += f.seconds
        if f.sleep > 0.0:
            time.sleep(f.sleep)

    # -- fabric hooks -------------------------------------------------------

    def put(self, dest: int, src: int, tag: int, payload: bytes) -> None:
        idx = self._send_idx[src]
        self._send_idx[src] = idx + 1
        deliveries = 1
        for f in self._matching("send", src, idx):
            if f.kind == "crash":
                self._fire(src, f, idx, "", f"crash at send #{idx} -> {dest}")
                raise RankCrash(f"rank {src}: injected crash at send #{idx}")
            if f.kind == "straggle":
                self._fire(src, f, idx, "", f"straggle {f.seconds}s at send #{idx}")
                self._straggle(src, f, None)
            elif f.kind == "drop":
                deliveries = 0
                self._fire(src, f, idx, "", f"dropped send #{idx} -> {dest}")
            elif f.kind == "duplicate":
                deliveries = 2
                self._fire(src, f, idx, "", f"duplicated send #{idx} -> {dest}")
            elif f.kind == "bitflip":
                payload = _flip_bit(payload, f.bit)
                self._fire(
                    src, f, idx, "", f"bit {f.bit} flipped in send #{idx} -> {dest}"
                )
        for _ in range(deliveries):
            super().put(dest, src, tag, payload)

    def get(self, rank: int, src: int, tag: int) -> bytes:
        idx = self._recv_idx[rank]
        self._recv_idx[rank] = idx + 1
        for f in self._matching("recv", rank, idx):
            if f.kind == "crash":
                self._fire(rank, f, idx, "", f"crash at recv #{idx} <- {src}")
                raise RankCrash(f"rank {rank}: injected crash at recv #{idx}")
            if f.kind == "straggle":
                self._fire(rank, f, idx, "", f"straggle {f.seconds}s at recv #{idx}")
                self._straggle(rank, f, None)
        return super().get(rank, src, tag)

    def on_phase(self, rank: int, name: str, profile) -> None:
        """Phase-entry hook (bound via ``PhaseProfile.bind_chaos``)."""
        key = (rank, name)
        idx = self._phase_idx.get(key, 0)
        self._phase_idx[key] = idx + 1
        for f in self._matching("phase", rank, idx, phase=name):
            if f.kind == "crash":
                self._fire(rank, f, idx, name, f"crash entering phase {name}")
                raise RankCrash(
                    f"rank {rank}: injected crash entering phase {name!r}"
                )
            if f.kind == "straggle":
                self._fire(
                    rank, f, idx, name, f"straggle {f.seconds}s entering {name}"
                )
                self._straggle(rank, f, name)

    def arm_gpu(self, gpu, rank: int) -> None:
        """Arm this rank's virtual device with the plan's GPU faults.

        Called by :class:`~repro.dist.driver.DistributedFmm` during setup
        when it runs on a chaos fabric; the device raises
        :class:`~repro.gpu.device.GpuDeviceFault` at the entry of the
        targeted phase and the accelerated evaluator degrades to the CPU.
        """
        for f in self._by_trigger.get(("launch", rank), ()):
            def _on_fire(phase, f=f, rank=rank):
                self._fire(rank, f, 0, phase, f"device fault in phase {phase}")

            gpu.arm_fault(phase=f.phase or "*", kind="ecc", on_fire=_on_fire)
