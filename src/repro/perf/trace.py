"""Fabric-wide event tracing: one record per message, one per phase span.

The phase ledgers (:class:`repro.util.timer.PhaseProfile`) only keep
*aggregates* — total messages, total bytes, total modelled seconds per
phase per rank.  That is enough for Table II but says nothing about the
communication *structure* the paper's complexity arguments are about:
who talked to whom, in what order, and how long the dependency chains
are.  A :class:`TraceRecorder` captures exactly that:

* one :class:`MessageEvent` per point-to-point message **endpoint**
  (``kind="send"`` at the sender, ``kind="recv"`` at the receiver), with
  source, destination, tag, pickled byte count, the phase the endpoint
  rank had open, the modelled latency/bandwidth seconds, and the logical
  per-rank order (``seq``);
* one :class:`SpanEvent` per ``PhaseProfile.phase()`` activation, with
  the wall seconds and the flop/message/byte/comm-second *deltas*
  accumulated during that activation.

The recorder is shared by every rank of an SPMD run (ranks are threads),
so all methods are thread-safe.  Tracing is strictly opt-in: with no
recorder attached, the communicator's hot path only pays an ``is None``
check per message.

JSONL schema (one object per line, field order not significant)::

    {"kind": "send"|"recv", "rank": int, "src": int, "dst": int,
     "tag": int, "nbytes": int, "phase": str,
     "t_lat": float, "t_bw": float, "seq": int}
    {"kind": "span", "rank": int, "phase": str, "wall_s": float,
     "flops": float, "comm_messages": int, "comm_bytes": float,
     "comm_s": float, "aborted": bool, "precision": str}

``precision`` (schema addition, defaulting to ``"fp64"`` when absent so
older traces still load) records the arithmetic precision the emitting
profile was evaluating at — spans of an fp32 plan apply carry
``"fp32"``, setup and communication spans inherit whatever the profile
was bound to.

``aborted`` marks spans that were closed by an exception unwinding
through the phase or force-flushed at abort time for a wedged rank
(see :meth:`repro.util.timer.PhaseProfile.flush_open_spans`) — so the
JSONL export of a *failed* run is still well-formed: every opened phase
produces exactly one span.  Chaos-injection and recovery machinery emit
synthetic spans under ``CHAOS:*`` / ``RECOVERY:*`` phase names (see
:mod:`repro.mpi.faults`).

``t_lat``/``t_bw`` are the alpha-beta terms of the machine model
(``t_s`` and ``nbytes / bandwidth``); their sum is the modelled seconds
the ledger charged for this endpoint.  ``seq`` increases by one per
recorded event on the recording rank, giving the logical send/recv
order needed to reconstruct dependency chains (see
:mod:`repro.perf.commviz`).
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

__all__ = ["MessageEvent", "SpanEvent", "TraceRecorder"]


@dataclass(frozen=True)
class MessageEvent:
    """One endpoint of one point-to-point message."""

    kind: str  #: ``"send"`` or ``"recv"``
    rank: int  #: the recording rank (== src for sends, dst for recvs)
    src: int
    dst: int
    tag: int
    nbytes: int
    phase: str  #: phase the recording rank had open
    t_lat: float  #: modelled latency seconds (``t_s``)
    t_bw: float  #: modelled bandwidth seconds (``nbytes / bandwidth``)
    seq: int  #: logical event order on the recording rank

    @property
    def seconds(self) -> float:
        """Total modelled seconds charged for this endpoint."""
        return self.t_lat + self.t_bw


@dataclass(frozen=True)
class SpanEvent:
    """One ``PhaseProfile.phase()`` activation on one rank.

    Counter fields are the *deltas* accumulated during this activation,
    so re-entered phases (e.g. ``let`` after a re-balance) produce one
    span each and their counters sum to the ledger totals.
    """

    kind: str  #: always ``"span"``
    rank: int
    phase: str
    wall_s: float
    flops: float
    comm_messages: int
    comm_bytes: float
    comm_s: float
    #: True when the span was closed by an exception unwinding through the
    #: phase, or force-flushed for a wedged rank at abort time.
    aborted: bool = False
    #: Arithmetic precision of the evaluation the span belongs to
    #: ("fp64" / "fp32"); defaults keep pre-precision traces loadable.
    precision: str = "fp64"


class TraceRecorder:
    """Thread-safe, append-only event log of one SPMD run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.events: list[MessageEvent | SpanEvent] = []

    def __len__(self) -> int:
        return len(self.events)

    # -- recording (called from the communication/profiling layers) --------

    def record_send(
        self,
        rank: int,
        dst: int,
        tag: int,
        nbytes: int,
        phase: str,
        t_lat: float,
        t_bw: float,
        seq: int,
    ) -> None:
        ev = MessageEvent(
            "send", rank, rank, dst, tag, nbytes, phase, t_lat, t_bw, seq
        )
        with self._lock:
            self.events.append(ev)

    def record_recv(
        self,
        rank: int,
        src: int,
        tag: int,
        nbytes: int,
        phase: str,
        t_lat: float,
        t_bw: float,
        seq: int,
    ) -> None:
        ev = MessageEvent(
            "recv", rank, src, rank, tag, nbytes, phase, t_lat, t_bw, seq
        )
        with self._lock:
            self.events.append(ev)

    def record_span(
        self,
        rank: int,
        phase: str,
        wall_s: float,
        flops: float,
        comm_messages: int,
        comm_bytes: float,
        comm_s: float,
        aborted: bool = False,
        precision: str = "fp64",
    ) -> None:
        ev = SpanEvent(
            "span",
            rank,
            phase,
            wall_s,
            flops,
            comm_messages,
            comm_bytes,
            comm_s,
            aborted,
            precision,
        )
        with self._lock:
            self.events.append(ev)

    # -- queries ------------------------------------------------------------

    def message_events(
        self, kind: str | None = None, phase: str | None = None
    ) -> list[MessageEvent]:
        """Message events, optionally filtered by kind and/or phase."""
        return [
            ev
            for ev in self.events
            if isinstance(ev, MessageEvent)
            and (kind is None or ev.kind == kind)
            and (phase is None or ev.phase == phase)
        ]

    def span_events(
        self, rank: int | None = None, phase: str | None = None
    ) -> list[SpanEvent]:
        return [
            ev
            for ev in self.events
            if isinstance(ev, SpanEvent)
            and (rank is None or ev.rank == rank)
            and (phase is None or ev.phase == phase)
        ]

    def phases(self) -> list[str]:
        """Distinct phase names of message events, in first-seen order."""
        out: dict[str, None] = {}
        for ev in self.events:
            if isinstance(ev, MessageEvent):
                out.setdefault(ev.phase)
        return list(out)

    def per_rank_send_counts(self) -> dict[int, int]:
        """Rank -> number of send events (should equal ``messages_sent``)."""
        out: dict[int, int] = {}
        for ev in self.message_events(kind="send"):
            out[ev.rank] = out.get(ev.rank, 0) + 1
        return out

    def per_rank_send_bytes(self) -> dict[int, int]:
        """Rank -> total sent bytes (should equal ``bytes_sent``)."""
        out: dict[int, int] = {}
        for ev in self.message_events(kind="send"):
            out[ev.rank] = out.get(ev.rank, 0) + ev.nbytes
        return out

    def signature(self) -> dict[int, list[tuple]]:
        """Deterministic per-rank fingerprint of the trace.

        The global event list interleaves rank threads nondeterministically
        and ``wall_s`` is real time, so raw traces of identical runs never
        compare equal.  The signature keeps only what *is* deterministic:
        each rank's own events in program order, with wall-clock fields
        dropped (modelled ``t_lat``/``t_bw``/``comm_s`` are kept — they are
        functions of the machine model, not of the scheduler).  Two runs
        with the same inputs, machine model and
        :class:`~repro.mpi.faults.FaultPlan` seed that *complete* produce
        identical signatures.
        """
        out: dict[int, list[tuple]] = {}
        for ev in self.events:
            if isinstance(ev, MessageEvent):
                key = (
                    ev.kind, ev.src, ev.dst, ev.tag, ev.nbytes, ev.phase,
                    ev.t_lat, ev.t_bw, ev.seq,
                )
            else:
                key = (
                    ev.kind, ev.phase, ev.flops, ev.comm_messages,
                    ev.comm_bytes, ev.comm_s, ev.aborted, ev.precision,
                )
            out.setdefault(ev.rank, []).append(key)
        return out

    # -- (de)serialisation --------------------------------------------------

    def iter_jsonl(self) -> Iterator[str]:
        for ev in list(self.events):
            yield json.dumps(asdict(ev), sort_keys=True)

    def write_jsonl(self, path: str, append: bool = False) -> int:
        """Write one JSON object per event; returns the event count."""
        n = 0
        with open(path, "a" if append else "w") as fh:
            for line in self.iter_jsonl():
                fh.write(line + "\n")
                n += 1
        return n

    @classmethod
    def from_records(cls, records: Iterable[dict]) -> "TraceRecorder":
        rec = cls()
        for obj in records:
            kind = obj.get("kind")
            if kind == "span":
                rec.events.append(SpanEvent(**obj))
            elif kind in ("send", "recv"):
                rec.events.append(MessageEvent(**obj))
            else:
                raise ValueError(f"unknown trace event kind: {kind!r}")
        return rec

    @classmethod
    def read_jsonl(cls, path: str) -> "TraceRecorder":
        with open(path) as fh:
            return cls.from_records(
                json.loads(line) for line in fh if line.strip()
            )
