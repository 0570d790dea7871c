"""Closed-loop load generator for the serving engine and the router.

Each client submits, waits for the result and submits again: a time
stepper or iterative solver per tenant.  Demand adapts to the service
rate, which is what gives the micro-batcher material to coalesce.  An
open-loop schedule (arrivals off a clock, whatever the completions) is
the benchmark harness's own (``bench/``).

Clients honour backpressure: a typed
:class:`~repro.serve.scheduler.Overloaded` rejection carrying
``retry_after_s`` makes the client sleep that long (capped) before
retrying instead of hammering a saturated queue.  Typed rejections are
counted by class (``overloaded`` / ``deadline`` / ``shard_unavailable``);
only untyped escapes count as ``errors``.

:func:`run_load` works against any
:class:`~repro.serve.scheduler.ServeFront` (``evaluate`` / ``expected``
/ ``metrics``): the single-process ``ServeEngine`` and the distributed
:class:`~repro.serve.router.Router`.
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
) -> dict:
    """Drive ``engine`` for ``duration_s`` with ``clients`` closed-loop
    clients; return the engine's metrics snapshot with a ``loadgen``
    block of the clients' own counts.

    Client ``i`` drives model ``models[i % len(models)]`` as tenant
    ``t{i}`` with fresh densities from ``seed + i`` each round, each
    request under the deadline ``timeout_s``.
    """
    if not models:
        raise ValueError("models must name at least one registered model")
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if not duration_s > 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
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
        if isinstance(err, DeadlineExceeded):
            _count("deadline")
        elif isinstance(err, ShardUnavailable):
            _count("shard_unavailable")
        else:  # untyped escape: a bug, not backpressure
            with lock:
                counters["errors"] += 1
                if len(errors) < 10:
                    errors.append(f"{type(err).__name__}: {err}")

    def client(i: int) -> None:
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
