"""The simulated communicator: MPI semantics over an in-process fabric.

Point-to-point messages are pickled at ``send`` time — this both isolates
the receiver from sender-side mutation (threads share an address space)
and yields an honest byte count for the communication ledger.  Collectives
are built from point-to-point with the textbook algorithms so that the
per-rank message/byte ledgers match what a real MPI run would produce:

===============  ==========================================================
``barrier``       dissemination barrier, ``ceil(log2 p)`` rounds
``bcast``         binomial tree
``reduce``        binomial tree (commutative ``op``)
``allreduce``     reduce + bcast
``gather``        binomial tree
``allgather``     recursive doubling (power-of-two), ring otherwise
``alltoall``      pairwise exchange (XOR partners for power-of-two)
``exscan``        recursive doubling (power-of-two), chain otherwise
===============  ==========================================================

Every message charges ``t_s + nbytes * t_w`` to the *current phase* of
both endpoints' profiles (see :mod:`repro.mpi.machine` for the convention).
With a :class:`repro.perf.trace.TraceRecorder` attached, every send/recv
endpoint additionally logs one trace event (src, dst, tag, bytes, phase,
modelled seconds, logical order); tracing is opt-in and costs one ``is
None`` check per message when disabled.

Abort semantics: :meth:`Fabric.abort_all` sets the abort flag **and**
notifies every rank's condition variable, so ranks blocked in ``recv``
observe the abort immediately (``Fabric.get`` waits on the condition with
no poll timeout — a plain ``set()`` of the event alone will not wake
blocked receivers).

End-to-end integrity is opt-in (``SimComm(..., integrity=True)``, wired
through ``run_spmd(..., integrity=True)``): every pickled payload is
framed with a CRC32 checksum and a per-channel (src, dst, tag) sequence
number.  ``recv`` verifies the frame *after* charging the ledger and
recording the trace event, then raises a typed :class:`CorruptMessage`
instead of an unpickling crash — so injected bit-flips are *detected*
while the byte ledgers and traces still account for the corrupt bytes
that actually moved.  The sequence number turns dropped and duplicated
deliveries into typed errors too (a gap or a stale repeat on the
channel), instead of hangs or silent collective desyncs.  On a sequence
anomaly the receiver *resyncs forward* (never backward), so one dropped
delivery yields exactly one typed error and the channel verifies clean
afterwards.
"""

from __future__ import annotations

import pickle
import struct
import threading
import zlib
from collections import defaultdict, deque
from typing import TYPE_CHECKING, Any, Callable

from repro.mpi.machine import LOCAL, MachineModel
from repro.util.timer import PhaseProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.trace import TraceRecorder

__all__ = ["SimComm", "Fabric", "SpmdAborted", "CorruptMessage"]

# Internal tag space: user tags must stay below _TAG_COLL.  Each
# collective owns a block of _TAG_BLOCK tags so individual rounds can be
# round-stamped (e.g. ``_TAG_BARRIER + round``): sends are buffered, so a
# fast rank may post round-k+1 traffic while a slow peer is still
# draining round k, and per-round tags keep those messages on distinct
# FIFO channels instead of relying on every channel staying strictly in
# lock-step.
_TAG_COLL = 1 << 20
_TAG_BLOCK = 1 << 16
_TAG_BARRIER = _TAG_COLL + 1 * _TAG_BLOCK
_TAG_BCAST = _TAG_COLL + 2 * _TAG_BLOCK
_TAG_REDUCE = _TAG_COLL + 3 * _TAG_BLOCK
_TAG_GATHER = _TAG_COLL + 4 * _TAG_BLOCK
_TAG_ALLGATHER = _TAG_COLL + 5 * _TAG_BLOCK
_TAG_ALLTOALL = _TAG_COLL + 6 * _TAG_BLOCK
_TAG_SCAN = _TAG_COLL + 7 * _TAG_BLOCK

#: Integrity frame prepended to every payload when ``integrity=True``:
#: CRC32 of the pickled payload + per-(src, dst, tag) sequence number.
_INTEGRITY_HDR = struct.Struct("<II")


class SpmdAborted(RuntimeError):
    """Raised in surviving ranks when another rank died."""


class CorruptMessage(RuntimeError):
    """An integrity-framed message failed verification at ``recv``.

    Raised instead of letting a flipped bit crash (or silently corrupt)
    unpickling, and instead of letting a dropped/duplicated delivery hang
    or desync a collective.  The ledger and trace are charged *before*
    verification, so the bytes that moved are still accounted for.
    """

    def __init__(self, rank: int, src: int, tag: int, reason: str):
        super().__init__(
            f"rank {rank}: corrupt message from rank {src} (tag {tag}): {reason}"
        )
        self.rank = rank
        self.src = src
        self.tag = tag
        self.reason = reason


class Fabric:
    """Shared mailboxes of one SPMD run (one per communicator)."""

    def __init__(self, size: int):
        self.size = size
        self._cond = [threading.Condition() for _ in range(size)]
        self._boxes: list[dict[tuple[int, int], deque]] = [
            defaultdict(deque) for _ in range(size)
        ]
        self.abort = threading.Event()

    def put(self, dest: int, src: int, tag: int, payload: bytes) -> None:
        cond = self._cond[dest]
        with cond:
            self._boxes[dest][(src, tag)].append(payload)
            cond.notify_all()

    def abort_all(self) -> None:
        """Abort the run and wake every rank blocked in :meth:`get`.

        Setting the event alone is not enough: receivers wait on their
        per-rank condition with no timeout, so they must be notified.
        """
        self.abort.set()
        for cond in self._cond:
            with cond:
                cond.notify_all()

    def get(self, rank: int, src: int, tag: int) -> bytes:
        cond = self._cond[rank]
        with cond:
            while True:
                q = self._boxes[rank].get((src, tag))
                if q:
                    return q.popleft()
                if self.abort.is_set():
                    raise SpmdAborted(f"rank {rank}: peer failure during recv")
                cond.wait()


def _add(a, b):
    return a + b


class SimComm:
    """Communicator handle of one virtual rank.

    Mirrors the mpi4py surface the paper's algorithms need.  Every rank
    owns a :class:`PhaseProfile`; communication charges modelled seconds
    into whatever phase the rank currently has open.
    """

    def __init__(
        self,
        fabric: Fabric,
        rank: int,
        machine: MachineModel | None = None,
        profile: PhaseProfile | None = None,
        trace: "TraceRecorder | None" = None,
        integrity: bool = False,
    ):
        self.fabric = fabric
        self.rank = int(rank)
        self.size = fabric.size
        self.machine = machine if machine is not None else LOCAL
        self.profile = profile if profile is not None else PhaseProfile()
        #: Total traffic of this rank (all phases), for quick assertions.
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Optional per-message event recorder (shared across ranks).
        self.trace = trace
        #: CRC32 + sequence framing of every payload (both endpoints of a
        #: run must agree; ``run_spmd`` wires it uniformly).
        self.integrity = bool(integrity)
        self._seq = 0  # logical event order on this rank
        self._tx_seq: dict[tuple[int, int], int] = {}  # (dest, tag) -> next
        self._rx_seq: dict[tuple[int, int], int] = {}  # (src, tag) -> next
        if trace is not None:
            self.profile.bind_trace(trace, self.rank)

    # -- point to point -----------------------------------------------------

    def _charge(self, nbytes: int) -> None:
        self.profile.add_message(nbytes, self.machine.message_seconds(nbytes))

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _check_user_tag(self, tag: int) -> None:
        if not (0 <= tag < _TAG_COLL):
            raise ValueError(
                f"user tag {tag} outside the allowed range [0, {_TAG_COLL}): "
                f"tags >= {_TAG_COLL} are reserved for the internal "
                "collective tag space"
            )

    def _send(self, obj: Any, dest: int, tag: int) -> None:
        """Untagged-validated send used by collectives (internal tags)."""
        if not (0 <= dest < self.size):
            raise ValueError(f"invalid dest {dest} for size {self.size}")
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        if self.integrity:
            key = (dest, tag)
            chan_seq = self._tx_seq.get(key, 0)
            self._tx_seq[key] = chan_seq + 1
            payload = (
                _INTEGRITY_HDR.pack(zlib.crc32(payload), chan_seq & 0xFFFFFFFF)
                + payload
            )
        self.messages_sent += 1
        self.bytes_sent += len(payload)
        self._charge(len(payload))
        if self.trace is not None:
            self.trace.record_send(
                self.rank,
                dest,
                tag,
                len(payload),
                self.profile.current_name,
                self.machine.latency,
                len(payload) / self.machine.bandwidth,
                self._next_seq(),
            )
        self.fabric.put(dest, self.rank, tag, payload)

    def _recv(self, source: int, tag: int) -> Any:
        if not (0 <= source < self.size):
            raise ValueError(f"invalid source {source} for size {self.size}")
        payload = self.fabric.get(self.rank, source, tag)
        # ledger and trace first: the corrupt bytes really did move, and
        # the trace must balance even when verification fails below.
        self._charge(len(payload))
        if self.trace is not None:
            self.trace.record_recv(
                self.rank,
                source,
                tag,
                len(payload),
                self.profile.current_name,
                self.machine.latency,
                len(payload) / self.machine.bandwidth,
                self._next_seq(),
            )
        if self.integrity:
            if len(payload) < _INTEGRITY_HDR.size:
                raise CorruptMessage(self.rank, source, tag, "truncated frame")
            crc, chan_seq = _INTEGRITY_HDR.unpack_from(payload)
            payload = payload[_INTEGRITY_HDR.size :]
            key = (source, tag)
            want = self._rx_seq.get(key, 0)
            if chan_seq != want & 0xFFFFFFFF:
                # Resync *forward*, never backward, so one anomaly yields
                # exactly one typed error: after a gap (dropped delivery)
                # the channel expects chan_seq + 1 next; after a stale
                # repeat (duplicate) it keeps expecting ``want``.  Moving
                # backward would poison the channel — every subsequent
                # in-order frame would mismatch too.
                self._rx_seq[key] = max(want, chan_seq + 1)
                raise CorruptMessage(
                    self.rank,
                    source,
                    tag,
                    f"frame sequence {chan_seq} != expected {want} "
                    "(dropped or duplicated delivery)",
                )
            self._rx_seq[key] = want + 1
            if zlib.crc32(payload) != crc:
                raise CorruptMessage(self.rank, source, tag, "payload CRC mismatch")
        return pickle.loads(payload)

    def _sendrecv(self, obj: Any, peer: int, tag: int) -> Any:
        self._send(obj, peer, tag)
        return self._recv(peer, tag)

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking-buffered send (never deadlocks in the simulator)."""
        self._check_user_tag(tag)
        self._send(obj, dest, tag)

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive from a specific source and tag."""
        self._check_user_tag(tag)
        return self._recv(source, tag)

    def sendrecv(self, obj: Any, peer: int, tag: int = 0) -> Any:
        """Simultaneous exchange with a partner rank."""
        self._check_user_tag(tag)
        return self._sendrecv(obj, peer, tag)

    # -- collectives ----------------------------------------------------------

    def barrier(self) -> None:
        """Dissemination barrier: ceil(log2 p) rounds of tiny messages.

        Each round uses its own tag (``_TAG_BARRIER + round``) so a fast
        rank's round-k+1 message can never be matched by a slow peer
        still draining round k.
        """
        p, r = self.size, self.rank
        d = 1
        rnd = 0
        while d < p:
            self._send(None, (r + d) % p, _TAG_BARRIER + rnd)
            self._recv((r - d) % p, _TAG_BARRIER + rnd)
            d <<= 1
            rnd += 1

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Binomial-tree broadcast (MPICH pattern).

        Each non-root receives from the rank differing in its lowest set
        bit of the virtual rank, then forwards down the remaining bits.
        Each tree edge is tag-stamped with the *receiver's* lowest-set-bit
        index — the sender's forwarding mask is exactly that bit, so both
        endpoints of every edge agree on the stamp.
        """
        p = self.size
        vr = (self.rank - root) % p  # virtual rank with root at 0
        got = obj
        mask = 1
        while mask < p:
            if vr & mask:
                got = self._recv(
                    ((vr - mask) + root) % p, _TAG_BCAST + mask.bit_length() - 1
                )
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if vr + mask < p:
                self._send(
                    got, ((vr + mask) + root) % p, _TAG_BCAST + mask.bit_length() - 1
                )
            mask >>= 1
        return got

    def reduce(self, obj: Any, op: Callable = _add, root: int = 0) -> Any:
        """Binomial-tree reduction (``op`` must be commutative+associative)."""
        p = self.size
        vr = (self.rank - root) % p
        acc = obj
        mask = 1
        while mask < p:
            # tag stamp = the sender's lowest-set-bit index; the receiver
            # is at the same mask when it posts the matching recv.
            if vr & mask:
                self._send(
                    acc, ((vr - mask) + root) % p, _TAG_REDUCE + mask.bit_length() - 1
                )
                break
            peer = vr + mask
            if peer < p:
                acc = op(
                    acc,
                    self._recv((peer + root) % p, _TAG_REDUCE + mask.bit_length() - 1),
                )
            mask <<= 1
        return acc if self.rank == root else None

    def allreduce(self, obj: Any, op: Callable = _add) -> Any:
        return self.bcast(self.reduce(obj, op=op, root=0), root=0)

    def gather(self, obj: Any, root: int = 0) -> list | None:
        """Binomial-tree gather; returns the rank-ordered list at root."""
        p = self.size
        vr = (self.rank - root) % p
        acc = {self.rank: obj}
        mask = 1
        while mask < p:
            if vr & mask:
                self._send(
                    acc, ((vr - mask) + root) % p, _TAG_GATHER + mask.bit_length() - 1
                )
                break
            peer = vr + mask
            if peer < p:
                acc.update(
                    self._recv((peer + root) % p, _TAG_GATHER + mask.bit_length() - 1)
                )
            mask <<= 1
        if self.rank != root:
            return None
        return [acc[i] for i in range(p)]

    def allgather(self, obj: Any) -> list:
        """Recursive doubling (power-of-two) or ring allgather."""
        p, r = self.size, self.rank
        if p == 1:
            return [obj]
        if p & (p - 1) == 0:
            acc = {r: obj}
            d = 1
            rnd = 0
            while d < p:
                peer = r ^ d
                acc.update(self._sendrecv(acc, peer, _TAG_ALLGATHER + rnd))
                d <<= 1
                rnd += 1
            return [acc[i] for i in range(p)]
        items = {r: obj}
        block = obj
        for i in range(p - 1):
            self._send(block, (r + 1) % p, _TAG_ALLGATHER + i)
            block = self._recv((r - 1) % p, _TAG_ALLGATHER + i)
            items[(r - 1 - i) % p] = block
        return [items[i] for i in range(p)]

    def alltoall(self, blocks: list) -> list:
        """Personalised all-to-all via pairwise exchange.

        ``blocks[k]`` goes to rank ``k``; returns the list received, indexed
        by source.  XOR partners when ``p`` is a power of two.
        """
        p, r = self.size, self.rank
        if len(blocks) != p:
            raise ValueError(f"alltoall needs {p} blocks, got {len(blocks)}")
        out = [None] * p
        out[r] = blocks[r]
        pow2 = p & (p - 1) == 0
        for i in range(1, p):
            # Both partner formulas stay in range for every p: ``r ^ i < p``
            # when p is a power of two (i < p), and ``(r + i) % p < p``
            # otherwise — no skip needed.
            peer = (r ^ i) if pow2 else (r + i) % p
            src = peer if pow2 else (r - i) % p
            self._send(blocks[peer], peer, _TAG_ALLTOALL + i)
            out[src] = self._recv(src, _TAG_ALLTOALL + i)
        return out

    def exscan(self, obj: Any, op: Callable = _add) -> Any:
        """Exclusive prefix scan; rank 0 receives ``None``.

        Recursive doubling for power-of-two sizes, linear chain otherwise.
        ``op`` must be commutative and associative.
        """
        p, r = self.size, self.rank
        if p == 1:
            return None
        if p & (p - 1) == 0:
            acc = None  # exclusive prefix so far
            run = obj  # segment aggregate
            d = 1
            rnd = 0
            while d < p:
                peer = r ^ d
                other = self._sendrecv(run, peer, _TAG_SCAN + rnd)
                if peer < r:
                    acc = other if acc is None else op(other, acc)
                run = op(run, other) if peer > r else op(other, run)
                d <<= 1
                rnd += 1
            return acc
        if r > 0:
            acc = self._recv(r - 1, _TAG_SCAN)
        else:
            acc = None
        if r < p - 1:
            self._send(obj if acc is None else op(acc, obj), r + 1, _TAG_SCAN)
        return acc
