"""Load generators for the serving engine and the distributed router.

Two arrival models, matching the two ways the paper's consumers behave:

* **Closed loop** (default): each client submits, waits for the result,
  submits again — a time stepper or iterative solver per tenant.  Demand
  adapts to service rate, which is what gives the micro-batcher material
  to coalesce.
* **Open loop** (``mode="open"``): arrivals come off a fixed-rate clock
  (``rate_rps``) regardless of completions — an external workload that
  does not slow down just because the engine is struggling.  This is the
  arrival model that exposes tail-latency and backpressure behaviour:
  when the engine saturates, the queue fills and admission rejects typed
  instead of latency growing without bound.

Both modes honour backpressure: a typed
:class:`~repro.serve.scheduler.Overloaded` rejection carrying
``retry_after_s`` makes the client *wait that long* (capped) before
retrying — closed-loop clients sleep, open-loop arrivals shift forward —
instead of hammering a saturated queue.  Typed rejections are counted by
class (``overloaded`` / ``deadline`` / ``shard_unavailable``); only
untyped escapes count as ``errors``.

The driver for both is :func:`run_load`, which works against any
:class:`~repro.serve.scheduler.ServeFront` (``evaluate`` / ``submit`` /
``expected`` / ``metrics``): the single-process ``ServeEngine`` and the
distributed :class:`~repro.serve.router.Router`.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.serve.scheduler import (
    DeadlineExceeded,
    Overloaded,
    ShardUnavailable,
)

__all__ = ["run_load"]

#: Never sleep longer than this on a retry_after hint — bench runs are
#: short and a saturated engine's estimate can exceed the whole run.
MAX_RETRY_AFTER_S = 1.0


def _retry_after(err: Overloaded) -> float:
    hint = getattr(err, "retry_after_s", None)
    if hint is None or hint <= 0.0:
        return 0.005
    return min(float(hint), MAX_RETRY_AFTER_S)


def run_load(
    engine,
    models: list[str],
    duration_s: float = 5.0,
    clients: int = 8,
    timeout_s: float = 30.0,
    seed: int = 0,
    mode: str = "closed",
    rate_rps: float | None = None,
) -> dict:
    """Drive ``engine`` for ``duration_s``; return the bench summary dict.

    Closed loop: client ``i`` drives model ``models[i % len(models)]`` as
    tenant ``t{i}`` with fresh random densities each round.  Open loop:
    each client is an arrival clock submitting every
    ``clients / rate_rps`` seconds (total arrival rate ``rate_rps``),
    collecting its in-flight futures as they complete.
    """
    if mode not in ("closed", "open"):
        raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")
    if not models:
        raise ValueError("models must name at least one registered model")
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if not duration_s > 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    if mode == "open" and (rate_rps is None or rate_rps <= 0):
        raise ValueError("open-loop mode needs rate_rps > 0")
    stop_at = time.monotonic() + duration_s
    counters = {
        "ok": 0, "overloaded": 0, "deadline": 0,
        "shard_unavailable": 0, "errors": 0,
    }
    errors: list[str] = []
    lock = threading.Lock()

    def _count(key: str) -> None:
        with lock:
            counters[key] += 1

    def _record_failure(err: BaseException) -> None:
        if isinstance(err, Overloaded):
            _count("overloaded")
        elif isinstance(err, DeadlineExceeded):
            _count("deadline")
        elif isinstance(err, ShardUnavailable):
            _count("shard_unavailable")
        else:  # untyped escape: a bug, not backpressure
            with lock:
                counters["errors"] += 1
                if len(errors) < 10:
                    errors.append(f"{type(err).__name__}: {err}")

    def closed_client(i: int) -> None:
        model = models[i % len(models)]
        expected = engine.expected(model)
        rng = np.random.default_rng(seed + i)
        while time.monotonic() < stop_at:
            dens = rng.standard_normal(expected)
            try:
                engine.evaluate(
                    model, dens, tenant=f"t{i}", timeout_s=timeout_s
                )
                _count("ok")
            except Overloaded as err:
                _count("overloaded")
                time.sleep(_retry_after(err))
            except BaseException as err:  # noqa: BLE001 - data, not crash
                _record_failure(err)

    def open_client(i: int) -> None:
        model = models[i % len(models)]
        expected = engine.expected(model)
        rng = np.random.default_rng(seed + i)
        period = clients / float(rate_rps)
        next_arrival = time.monotonic() + (i % clients) * period / clients
        pending: list = []

        def _drain(block: bool) -> None:
            still = []
            for req in pending:
                if not block and not req.done():
                    still.append(req)
                    continue
                try:
                    req.result(timeout=timeout_s if block else None)
                    _count("ok")
                except BaseException as err:  # noqa: BLE001
                    _record_failure(err)
            pending[:] = still

        while True:
            now = time.monotonic()
            if now >= stop_at:
                break
            if now < next_arrival:
                time.sleep(min(next_arrival - now, stop_at - now))
                continue
            dens = rng.standard_normal(expected)
            try:
                pending.append(engine.submit(
                    model, dens, tenant=f"t{i}", timeout_s=timeout_s
                ))
            except Overloaded as err:
                _count("overloaded")
                # shift the arrival clock by the engine's hint: an
                # open-loop source honouring backpressure
                next_arrival = time.monotonic() + _retry_after(err)
                _drain(block=False)
                continue
            except BaseException as err:  # noqa: BLE001
                _record_failure(err)
            next_arrival += period
            _drain(block=False)
        _drain(block=True)

    client = closed_client if mode == "closed" else open_client
    t0 = time.monotonic()
    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(duration_s + timeout_s + 60.0)
    elapsed = time.monotonic() - t0

    out = engine.metrics.snapshot(elapsed_s=elapsed)
    out["loadgen"] = {
        "mode": mode,
        "rate_rps": rate_rps,
        "clients": clients,
        "duration_s": duration_s,
        "elapsed_s": elapsed,
        "ok": counters["ok"],
        "overloaded": counters["overloaded"],
        "deadline": counters["deadline"],
        "shard_unavailable": counters["shard_unavailable"],
        "errors": counters["errors"],
        "error_samples": errors,
    }
    return out
