"""Deterministic intra-rank task execution over plan phase tiles.

The compiled :class:`~repro.core.plan.EvalPlan` already decomposes every
phase into independent batch groups — leaf/pair GEMM blocks, V-list
chunk codes, per-child-position translation steps.  This module runs
those tiles on a shared thread pool while keeping the results
**bit-identical to serial execution at any thread count**:

* Each task owns a fixed tile of the phase (a compiled block, chunk or
  step — never a fraction of one, because BLAS GEMM results are not
  stable under a changed row count at small sizes).
* Tiles whose outputs are disjoint (S2U leaf groups, V-list chunk
  targets, D2D child rows within a level) write their slices directly
  from the worker — same stores as the serial loop, just reordered
  across *disjoint* rows.
* Tiles whose outputs may overlap (U2U parents, dense-M2L targets,
  XLI/WLI/D2T/ULI scatter segments and the shared sentinel pad row)
  only *compute* in parallel; the owning thread combines the returned
  values serially in compiled tile order — the exact ``+=`` sequence of
  the serial apply.  No atomics, no nondeterministic reductions.
* Flop accounting replays on the owning thread in tile order, so the
  profile ledger (and hence :meth:`TraceRecorder.signature`) is
  independent of the thread schedule.

BLAS is pinned to one thread for the whole of a pooled phase — by
``EvalPlan._tiles``, the one caller of :meth:`TaskPool.run`, around the
worker tiles *and* the GEMMs the owning thread runs between them (see
:mod:`repro.util.blas`) — so task-level threads never multiply with BLAS
threads, and every configured thread count runs the same single-threaded
GEMMs whatever the host's BLAS setting: the other half of the
bit-identity argument.

Every pool width comes from one thread budget, :func:`rank_pool_size`:
a rank's share of the cores the process may use, which is also the
default width of a solo apply and of a served one.  Every apply runs on
a pool, and a 1-wide pool runs its tiles inline under the same BLAS pin.

``PARALLEL:<phase>`` / ``PARALLEL:busy:<phase>`` trace spans record the
section's elapsed and summed per-tile busy seconds.  Only ``wall_s``
carries timing — the signature drops it — while the deterministic tile
and thread counts ride the ``comm_messages`` counter, so replaying a run
under a different thread schedule still produces an identical trace
signature.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

__all__ = [
    "TaskPool",
    "shared_pool",
    "rank_pool_size",
    "record_parallel_spans",
]


class TaskPool:
    """A deterministic tile executor over a fixed-size thread pool.

    ``run(tasks)`` executes zero-argument callables and returns their
    results **in submission order** plus the summed per-task busy
    seconds.  With ``threads <= 1`` (or a single task) everything runs
    inline on the calling thread — no executor, no handoff overhead —
    so a 1-thread pool is byte-for-byte the same computation as a
    4-thread pool, just scheduled differently.  ``threads`` is taken as
    given: callers size it with :func:`rank_pool_size`.

    The pool is safe to share between concurrent coordinators (serve
    workers): each ``run`` collects only its own futures, and plan
    scratch (:meth:`EvalPlan._buffer`) is the coordinating thread's,
    lent to at most ``threads`` of its tiles at once.
    """

    def __init__(self, threads: int, name: str = "fmm"):
        self.threads = threads
        self.name = str(name)
        self._lock = threading.Lock()
        self._exec: ThreadPoolExecutor | None = None
        self._submitted = 0
        self._done = 0
        self._active = 0
        self._active_peak = 0
        self._runs = 0
        self._busy_s = 0.0

    # -- execution ---------------------------------------------------------

    def _executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._exec is None:
                self._exec = ThreadPoolExecutor(
                    max_workers=self.threads,
                    thread_name_prefix=f"{self.name}-tile",
                )
            return self._exec

    def _call(self, fn):
        with self._lock:
            self._active += 1
            self._active_peak = max(self._active_peak, self._active)
        t0 = time.perf_counter()
        try:
            return fn(), time.perf_counter() - t0
        finally:
            with self._lock:
                self._active -= 1
                self._done += 1

    def run(self, tasks) -> tuple[list, float]:
        """Execute ``tasks``; return ``(results_in_order, busy_seconds)``."""
        tasks = list(tasks)
        if not tasks:
            return [], 0.0
        if self.threads <= 1 or len(tasks) == 1:
            results = []
            busy = 0.0
            for fn in tasks:
                t0 = time.perf_counter()
                results.append(fn())
                busy += time.perf_counter() - t0
            with self._lock:
                self._runs += 1
                self._done += len(tasks)
                self._busy_s += busy
            return results, busy
        ex = self._executor()
        with self._lock:
            self._submitted += len(tasks)
        futs = [ex.submit(self._call, fn) for fn in tasks]
        results = []
        busy = 0.0
        for f in futs:  # submission order == compiled tile order
            r, dt = f.result()
            results.append(r)
            busy += dt
        with self._lock:
            self._runs += 1
            self._busy_s += busy
        return results, busy

    # -- observability -----------------------------------------------------

    def stats(self) -> dict:
        """Queue depth / active-tile gauges for ``ServeMetrics`` snapshots."""
        with self._lock:
            return {
                "threads": self.threads,
                "tiles_queued": max(
                    self._submitted - self._done - self._active, 0
                ),
                "tiles_active": self._active,
                "tiles_active_peak": self._active_peak,
                "tiles_run": self._done,
                "runs": self._runs,
                "busy_s": self._busy_s,
            }

    def shutdown(self) -> None:
        with self._lock:
            ex, self._exec = self._exec, None
        if ex is not None:
            ex.shutdown(wait=True)


# -- process-wide shared pools ------------------------------------------------

_shared_lock = threading.Lock()
_shared: dict[str, TaskPool] = {}


def shared_pool(threads: int | None, key: str = "serve") -> TaskPool:
    """The process-wide pool under ``key``, (re)sized to the thread
    budget's width for ``threads`` (:func:`rank_pool_size`; ``None`` is
    every usable core).

    The serving engine routes every model's tile work through one shared
    pool instead of nesting per-model executors under the worker pool:
    total compute threads on the host stay bounded by that width
    regardless of how many workers are mid-apply.  The pool outlives the
    engines that use it: the next engine at the same width reuses it.
    """
    want = rank_pool_size(threads)
    with _shared_lock:
        pool = _shared.get(key)
        if pool is None or pool.threads != want:
            if pool is not None:
                pool.shutdown()
            pool = _shared[key] = TaskPool(want, name=key)
        return pool


def rank_pool_size(
    threads: int | None = None, nranks: int = 1, host_cpus: int | None = None
) -> int:
    """The thread budget: the one place a pool width is decided.

    Every rank of the simulated SPMD fabric is a thread of one process,
    so a rank's share of the host is ``host_cpus // nranks`` (floored at
    1).  ``host_cpus`` defaults to the cores the process may run on: its
    CPU affinity mask, which ``taskset`` / cgroup cpusets narrow below
    ``os.cpu_count()``.  ``threads=None`` takes the whole share — a solo
    apply (``nranks=1``) runs on every usable core — and an explicit
    ``threads`` is capped at it, so the whole fabric lands at most
    ``host_cpus`` compute threads on the host.  Anything but ``None`` or
    a positive integer is a ``ValueError`` naming ``threads``.
    """
    if threads is not None:
        from repro.core.evaluator import integer_arg  # evaluator imports us

        threads = integer_arg(threads, "threads")
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
    cpus = host_cpus
    if cpus is None:
        try:
            cpus = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):  # no affinity call on this platform
            cpus = os.cpu_count() or 1
    share = max(1, cpus // max(1, int(nranks)))
    return share if threads is None else min(threads, share)


# -- trace spans --------------------------------------------------------------


def record_parallel_spans(
    profile, phase: str, elapsed_s: float, busy_s: float,
    ntasks: int, threads: int,
) -> None:
    """Emit the ``PARALLEL:*`` span pair for one parallel phase section.

    ``PARALLEL:<phase>`` carries the section's elapsed wall seconds and
    the tile count; ``PARALLEL:busy:<phase>`` carries the summed
    per-tile busy seconds and the pool's thread count.  Achieved speedup
    is ``busy / elapsed`` (see :func:`repro.perf.model.parallel_report`).
    Timing lives only in ``wall_s`` — the one field
    :meth:`TraceRecorder.signature` drops — so identical runs under
    different thread schedules keep identical signatures.
    """
    trace = getattr(profile, "_trace", None)
    if trace is None:
        return
    rank = getattr(profile, "_trace_rank", 0)
    prec = getattr(profile, "precision", "fp64")
    trace.record_span(
        rank, f"PARALLEL:{phase}", elapsed_s, 0.0, int(ntasks), 0.0, 0.0,
        False, prec,
    )
    trace.record_span(
        rank, f"PARALLEL:busy:{phase}", busy_s, 0.0, int(threads), 0.0, 0.0,
        False, prec,
    )
