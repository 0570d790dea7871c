"""The serving front: admission, fair queueing, batching, the worker pool.

:class:`ServeFront` is the one queue -> expire -> execute -> reply path of
this package.  It owns the :class:`FairQueue`, the micro-batcher, the
:class:`WorkerPool` and the metrics, and implements ``start`` /
stop-and-drain / ``submit`` (size check -> the subclass's admit hook ->
deadline -> push -> ``Overloaded.retry_after_s``) / expire-at-dequeue /
``evaluate`` once.  :class:`~repro.serve.engine.ServeEngine` drives it
with a batched local apply, :class:`~repro.serve.router.Router` at batch
width 1 with :meth:`DistServeEngine.evaluate`.

The queue is the contention point of the whole engine, so its
behaviour is typed and explicit:

* **Bounded admission.**  :meth:`FairQueue.push` raises :class:`Overloaded`
  once the queue holds ``max_depth`` requests — callers see backpressure
  as a typed rejection at submit time instead of unbounded latency.
* **Fair dequeue.**  Tenants are scheduled by stride scheduling: each
  tenant carries a *pass* value advanced by one stride per dequeue, and
  the non-empty tenant with the smallest pass goes next, so tenants under
  contention drain at equal rates; an idle tenant re-enters at the
  current global pass so it cannot hoard credit while away.
* **Deadlines.**  Every request may carry an absolute deadline; expired
  requests are dropped at dequeue time with :class:`DeadlineExceeded`
  (never silently evaluated late).

Workers are plain threads owned by :class:`WorkerPool`; each loops
``collect -> process`` until stopped.  On a single core the pool mostly
overlaps queue waiting with compute — the throughput win comes from the
batcher turning queued requests into multi-RHS applies, not from thread
parallelism (see DESIGN.md).
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

from repro.kernels.base import density_layout
from repro.serve.metrics import ServeMetrics

__all__ = [
    "DeadlineExceeded",
    "FairQueue",
    "Overloaded",
    "Request",
    "ServeFront",
    "ShardUnavailable",
    "UnknownModel",
    "WorkerPool",
    "retry_after_hint",
]

#: Every tenant's stride (any positive value works; this keeps passes
#: readable in debuggers).
_STRIDE_K = 1024.0

#: Seconds a blocking ``evaluate`` waits past the deadline the workers
#: enforce: it only turns a wedged worker into an error, so it is sized to
#: outlast an apply already under way at the deadline.
EVALUATE_SLACK_S = 60.0


class Overloaded(RuntimeError):
    """The queue is full: the request was rejected at admission.

    ``retry_after_s``, when set, is the engine's estimate of how long the
    caller should wait before retrying — the queued work ahead of the
    rejected request divided by the engine's observed service rate (queue
    depth x p95 service time / parallelism).  Load generators honour it
    instead of hammering a saturated engine (see
    :func:`repro.serve.loadgen.run_load`).
    """

    def __init__(self, message: str = "queue full",
                 retry_after_s: float | None = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class DeadlineExceeded(TimeoutError):
    """The request's deadline passed before a worker could serve it."""


class UnknownModel(KeyError):
    """The request names a model the engine has not registered."""


class ShardUnavailable(RuntimeError):
    """The model's shard group (and any fallback replica) cannot serve.

    Raised by the distributed serving plane when a sharded model's
    circuit breaker is open — its rank group failed repeatedly or wedged
    — and no surviving replica can take the request.  A typed rejection,
    never a hang: callers may retry after the breaker's cooldown.
    """


def retry_after_hint(
    depth: int,
    service_p95_s: float | None,
    parallelism: int,
    floor_s: float = 0.01,
    cap_s: float = 60.0,
) -> float:
    """Backpressure hint: seconds until the queue likely has room.

    ``depth`` requests are ahead, each costing ~``service_p95_s`` (the
    observed p95 service time; a conservative default is assumed before
    any request completed), served ``parallelism`` at a time (workers x
    max batch).  Clamped to ``[floor_s, cap_s]`` so the hint is never
    zero (busy-loop) nor absurd (one straggler's p95).
    """
    if service_p95_s is None:
        service_p95_s = 0.05
    est = (depth + 1) * service_p95_s / max(parallelism, 1)
    return float(min(cap_s, max(floor_s, est)))


def check_density(model: str, density, layout: tuple[int, int]) -> np.ndarray:
    """``density`` as a flat float64 vector for ``model``'s ``layout``
    ``(n_points, source_dim)`` — given flat or per point — or a
    ``ValueError`` naming the shape that arrived (or its first complex or
    non-finite row): a bad request is refused alone, at submit, and never
    joins a batch."""
    return density_layout(density, *layout, f"model {model!r}")[0]


class Request:
    """One queued density evaluation.

    Completion is a one-shot event: exactly one of :meth:`set_result` /
    :meth:`set_error` fires, after which :meth:`result` returns the
    potential column or raises the typed error.
    """

    __slots__ = (
        "model",
        "density",
        "tenant",
        "deadline",
        "precision",
        "enqueued",
        "batch_size",
        "wait_s",
        "_done",
        "_result",
        "_error",
    )

    def __init__(
        self, model, density, tenant="default", deadline=None,
        precision="fp64",
    ):
        self.model = model
        self.density = density
        self.tenant = tenant
        #: Absolute ``time.monotonic()`` deadline (``None`` = no deadline).
        self.deadline = deadline
        #: Concrete plan precision this request evaluates at ("fp64" /
        #: "fp32"); resolved at submit time, batched only with equals.
        self.precision = precision
        self.enqueued = time.monotonic()
        self.batch_size = 0
        self.wait_s = 0.0
        self._done = threading.Event()
        self._result = None
        self._error = None

    def expired(self, now=None) -> bool:
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) > self.deadline

    def done(self) -> bool:
        return self._done.is_set()

    @property
    def error(self):
        return self._error

    def set_result(self, value) -> None:
        self._result = value
        self._done.set()

    def set_error(self, err: BaseException) -> None:
        self._error = err
        self._done.set()

    def result(self, timeout=None):
        """Block for completion; return the potential or raise the error."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request for model {self.model!r} not completed "
                f"within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._result


class FairQueue:
    """Bounded multi-tenant queue with fair stride dequeue."""

    def __init__(self, max_depth: int = 64):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = int(max_depth)
        self._lock = threading.Lock()
        self._arrived = threading.Condition(self._lock)
        self._queues: dict[str, deque] = {}
        self._passes: dict[str, float] = {}
        self._global_pass = 0.0
        self._depth = 0
        self._closed = False

    @property
    def depth(self) -> int:
        return self._depth

    def close(self) -> None:
        """Wake all waiters; subsequent pops drain then return ``None``."""
        with self._lock:
            self._closed = True
            self._arrived.notify_all()

    def push(self, req: Request) -> None:
        with self._lock:
            if self._depth >= self.max_depth:
                raise Overloaded(
                    f"queue full ({self._depth}/{self.max_depth} requests); "
                    f"retry later or raise max_queue"
                )
            dq = self._queues.get(req.tenant)
            if dq is None:
                dq = self._queues[req.tenant] = deque()
            if not dq:
                # (Re-)entering tenants start at the current global pass:
                # time spent idle earns no backlog credit.
                self._passes[req.tenant] = max(
                    self._passes.get(req.tenant, 0.0), self._global_pass
                )
            dq.append(req)
            self._depth += 1
            self._arrived.notify()

    def _pick_tenant(self):
        best, best_pass = None, None
        for tenant, dq in self._queues.items():
            if not dq:
                continue
            p = self._passes[tenant]
            if best_pass is None or p < best_pass:
                best, best_pass = tenant, p
        return best

    def pop(self, timeout: float | None = None) -> Request | None:
        """Next request by tenant fairness, or ``None`` on timeout/close.

        ``timeout`` may be zero or negative — callers compute it as
        ``deadline - time.monotonic()`` and the deadline may already have
        passed — in which case the pop returns immediately (queued work is
        still served; only the *wait* is skipped).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._depth == 0:
                if self._closed:
                    return None
                if deadline is None:
                    self._arrived.wait(None)
                    continue
                # clamp at zero: Condition.wait must never see a negative
                # timeout, and an expired deadline means give up now
                remaining = max(0.0, deadline - time.monotonic())
                if remaining == 0.0:
                    return None
                self._arrived.wait(remaining)
            tenant = self._pick_tenant()
            self._passes[tenant] += _STRIDE_K
            self._global_pass = max(self._global_pass, self._passes[tenant])
            self._depth -= 1
            return self._queues[tenant].popleft()

    def take_matching(
        self, model, limit: int, precision: str | None = None
    ) -> list[Request]:
        """Dequeue up to ``limit`` queued requests for ``model``.

        Used by the batcher to coalesce a multi-RHS batch: tenants are
        visited in pass order and charged their stride per taken request,
        so batching still respects the tenants' equal shares; within a tenant
        only the *head* run of matching requests is taken (per-tenant
        FIFO order is never reordered).  ``precision`` additionally
        restricts matches — requests at different plan precisions cannot
        share one multi-RHS apply.
        """

        def _match(req: Request) -> bool:
            return req.model == model and (
                precision is None or req.precision == precision
            )

        taken: list[Request] = []
        with self._lock:
            while len(taken) < limit:
                candidates = sorted(
                    (
                        (self._passes[t], t)
                        for t, dq in self._queues.items()
                        if dq and _match(dq[0])
                    ),
                )
                if not candidates:
                    break
                _, tenant = candidates[0]
                dq = self._queues[tenant]
                while len(taken) < limit and dq and _match(dq[0]):
                    taken.append(dq.popleft())
                    self._depth -= 1
                    self._passes[tenant] += _STRIDE_K
                self._global_pass = max(
                    self._global_pass, self._passes[tenant]
                )
        return taken

    def wait_for_arrival(self, timeout: float) -> None:
        """Sleep until a new request arrives (or ``timeout`` elapses)."""
        with self._lock:
            if self._depth == 0 and not self._closed:
                self._arrived.wait(max(timeout, 0.0))


class WorkerPool:
    """Plain-thread worker pool running ``target(worker_id)`` loops."""

    def __init__(self, n_workers: int, target):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self._target = target
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(
                target=self._run, args=(i,), name=f"serve-worker-{i}",
                daemon=True,
            )
            for i in range(n_workers)
        ]

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def stats(self) -> dict:
        """Worker-thread gauges for ``ServeMetrics`` snapshots."""
        return {
            "workers": len(self._threads),
            "alive": sum(t.is_alive() for t in self._threads),
        }

    def _run(self, worker_id: int) -> None:
        while not self._stop.is_set():
            self._target(worker_id)

    def start(self) -> None:
        for t in self._threads:
            t.start()

    def stop(self, join_timeout: float = 10.0) -> None:
        self._stop.set()
        for t in self._threads:
            if t.ident is not None:  # join() before start() raises
                t.join(join_timeout)


class ServeFront:
    """Queue -> expire -> execute -> reply (see the module docstring); a
    serving class supplies :meth:`expected`, :meth:`_admit`, :meth:`_execute`."""

    def __init__(
        self, n_workers, max_queue, max_batch=1, max_wait_ms=0.0,
        limits=None,
    ):
        from repro.serve.batcher import MicroBatcher  # it imports this module

        self.metrics = ServeMetrics()
        self.n_workers = int(n_workers)
        self.max_batch = int(max_batch)
        self.queue = FairQueue(max_depth=max_queue)
        self.batcher = MicroBatcher(
            self.queue, max_batch=max_batch, max_wait_ms=max_wait_ms,
            limits=limits,
        )
        self.pool = WorkerPool(n_workers, self._serve_batch)
        self.metrics.bind_pools(workers=self.pool.stats)
        self._lifecycle = threading.Lock()
        self._started = False

    def layout(self, model: str) -> tuple[int, int]:
        """``(n_points, source_dim)`` of ``model``, or :class:`UnknownModel`."""
        raise NotImplementedError

    def expected(self, model: str) -> int:
        """Length of one density vector of ``model``, or :class:`UnknownModel`."""
        n_points, ks = self.layout(model)
        return n_points * ks

    def _admit(self, model: str, precision):
        """The class's own admission check; returns the precision tag the
        request is batched under."""
        raise NotImplementedError

    def _execute(self, worker_id: int, live: list) -> list:
        """One reply per request of the same-model batch ``live``, in
        order; an exception fails every request of the batch with it."""
        raise NotImplementedError

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        with self._lifecycle:
            if not self._started:
                self._started = True
                self.pool.start()
        return self

    def stop(self) -> None:
        """Join the workers and drain: every request still queued fails
        typed (``Overloaded``) and counts as failed — nothing hangs."""
        with self._lifecycle:
            self.queue.close()
            self.pool.stop()
            while (req := self.queue.pop(timeout=0.0)) is not None:
                self.metrics.record_failed(req.model)
                req.set_error(Overloaded("stopped before the request ran"))

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- admission -----------------------------------------------------------

    def _submit(self, model, density, tenant, timeout_s, precision=None):
        dens = check_density(model, density, self.layout(model))
        precision = self._admit(model, precision)
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        req = Request(
            model, dens, tenant=tenant, deadline=deadline, precision=precision
        )
        try:
            self.queue.push(req)
        except Overloaded as err:
            self.metrics.record_rejected()
            # backpressure estimate: queued depth x observed p95 service
            # time / (workers x batch width)
            err.retry_after_s = retry_after_hint(
                self.queue.depth,
                self.metrics.service_p95(),
                self.n_workers * self.max_batch,
            )
            raise
        self.metrics.record_queue_depth(self.queue.depth)
        return req

    def submit(
        self,
        model: str,
        density,
        tenant: str = "default",
        timeout_s: float | None = None,
    ) -> Request:
        """Admit one density vector; returns a :class:`Request` future.

        Raises typed: :class:`UnknownModel` / ``ValueError`` on bad input,
        what :meth:`_admit` raises, :class:`Overloaded` (with
        ``retry_after_s``) on a full queue.  A request no worker reaches
        within ``timeout_s`` fails with :class:`DeadlineExceeded`.
        """
        return self._submit(model, density, tenant, timeout_s)

    def evaluate(
        self,
        model: str,
        density,
        tenant: str = "default",
        timeout_s: float | None = None,
    ) -> np.ndarray:
        """Blocking :meth:`submit` + result."""
        return self._wait(
            self.submit(model, density, tenant, timeout_s), timeout_s
        )

    @staticmethod
    def _wait(req: Request, timeout_s):
        return req.result(
            timeout=None if timeout_s is None else timeout_s + EVALUATE_SLACK_S
        )

    # -- workers -------------------------------------------------------------

    def _serve_batch(self, worker_id: int) -> None:
        batch = self.batcher.collect()
        now = time.monotonic()
        live = []
        for req in batch:
            if req.expired(now):
                self.metrics.record_expired(req.model)
                req.set_error(DeadlineExceeded(
                    f"request for model {req.model!r} expired after "
                    f"{now - req.enqueued:.3f}s in queue"
                ))
            else:
                req.wait_s = now - req.enqueued
                live.append(req)
        if not live:
            return
        for req in live:
            req.batch_size = len(live)
        try:
            replies = self._execute(worker_id, live)
        except BaseException as err:  # noqa: BLE001 - answer or error, never a hang
            for req in live:
                if isinstance(err, DeadlineExceeded):
                    self.metrics.record_expired(req.model)
                else:
                    self.metrics.record_failed(req.model)
                req.set_error(err)
            if not isinstance(err, Exception):
                raise  # interrupt / exit: answered first, then let through
            return
        done = time.monotonic()
        for req, reply in zip(live, replies):
            self.metrics.record_completed(
                req.model, done - req.enqueued, req.wait_s, len(live)
            )
            req.set_result(reply)
