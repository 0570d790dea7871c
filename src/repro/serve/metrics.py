"""Serving observability: latency histograms, throughput, cache hit rates.

The serving engine is judged on tail latency and batching efficiency, so
:class:`ServeMetrics` keeps exactly the counters needed to see both:

* per-model **latency samples** (end-to-end: enqueue to completion) with
  p50 / p95 / p99 quantiles, plus queue-wait and service-time samples
  (service = latency minus wait: the time actually spent applying),
* per-model **batch-size distribution** — the mean is the direct measure
  of how much multi-RHS coalescing the batcher achieved,
* engine-wide counters: completed / rejected / failed / retried requests
  (retries broken down by typed cause), plan-cache hits and misses, and
  a queue-depth gauge sampled at submit.

Everything is a plain counter under one lock — cheap enough to update per
request — and exports to a JSON-friendly dict (``python -m repro serve
--out FILE`` writes it).  Workers additionally emit
``SERVE:*`` spans through the existing :class:`~repro.perf.trace.
TraceRecorder` machinery, so serving runs are inspectable with the same
``python -m repro trace`` tooling as SPMD runs.

**Merge safety.**  The distributed serving plane keeps one
:class:`ServeMetrics` per fabric rank plus one on the router.  Percentiles
do not compose — the mean of per-rank p95s is not the fabric p95 — so
each instance keeps its raw (bounded) sample reservoirs and
:meth:`ServeMetrics.merge` concatenates the reservoirs *at snapshot time*
and computes the quantiles over the union.  Counters sum; the queue-depth
peak is the max of peaks.
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

__all__ = ["ServeMetrics"]

#: Retain at most this many latency / batch samples per model (newest
#: win); bounds memory for long-running engines while keeping quantile
#: estimates sharp at bench scale.
MAX_SAMPLES = 100_000

#: Default sliding-window size (last-K completed requests per model).
#: Lifetime reservoirs answer "how did this run go"; the window answers
#: "how is it going *now*" — the SLO monitor's drift detector reads the
#: window, because a latency regression is invisible in a lifetime p95
#: until it has outnumbered the history.
WINDOW_K = 256


class _ModelStats:
    __slots__ = ("latencies", "waits", "services", "batch_sizes",
                 "completed", "failed", "geometry_updates",
                 "patch_seconds", "patch_fractions",
                 "window_latencies", "window_services", "config_swaps")

    def __init__(self, window_k: int = WINDOW_K):
        self.latencies: list[float] = []
        self.waits: list[float] = []
        self.services: list[float] = []
        self.batch_sizes: list[int] = []
        self.completed = 0
        self.failed = 0
        self.geometry_updates = 0
        self.patch_seconds: list[float] = []
        self.patch_fractions: list[float] = []
        # last-K samples only; deque maxlen keeps them recency-bounded
        self.window_latencies: deque[float] = deque(maxlen=window_k)
        self.window_services: deque[float] = deque(maxlen=window_k)
        self.config_swaps = 0


def _quantiles(samples: list[float]) -> dict:
    if not samples:
        return {"p50": None, "p95": None, "p99": None, "mean": None}
    arr = np.asarray(samples)
    p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
    return {
        "p50": float(p50),
        "p95": float(p95),
        "p99": float(p99),
        "mean": float(arr.mean()),
    }


class ServeMetrics:
    """Thread-safe counters for one serving engine (or one fabric rank)."""

    def __init__(self, window_k: int = WINDOW_K):
        self._lock = threading.Lock()
        self._window_k = int(window_k)
        self._models: dict[str, _ModelStats] = {}
        self.rejected = 0  # Overloaded at admission
        self.expired = 0  # DeadlineExceeded at dequeue
        self.retried = 0  # retries performed, each counted as it is made
        self.retried_by_cause: dict[str, int] = {}
        self.plan_hits = 0
        self.plan_misses = 0
        self.queue_depth_sum = 0
        self.queue_depth_samples = 0
        self.queue_depth_peak = 0
        # live gauge callables (task pool / worker pool) sampled at raw()
        self._pool_stats = None
        self._worker_stats = None

    def bind_pools(self, task_pool=None, workers=None) -> None:
        """Attach live pool-stats callables, sampled at snapshot time.

        ``task_pool`` returns the shared tile executor's gauges (queue
        depth, active tiles — see :meth:`repro.core.parallel.TaskPool.
        stats`); ``workers`` returns the serve
        :class:`~repro.serve.scheduler.WorkerPool` gauges.  Either may be
        ``None``; snapshots then omit that section.
        """
        with self._lock:
            if task_pool is not None:
                self._pool_stats = task_pool
            if workers is not None:
                self._worker_stats = workers

    def _sample_pools(self) -> dict:
        with self._lock:
            pool_fn, worker_fn = self._pool_stats, self._worker_stats
        out = {}
        for key, fn in (("task_pool", pool_fn), ("workers", worker_fn)):
            if fn is None:
                continue
            try:
                out[key] = fn()
            except Exception:
                out[key] = None
        return out

    def _stats(self, model: str) -> _ModelStats:
        st = self._models.get(model)
        if st is None:
            st = self._models[model] = _ModelStats(self._window_k)
        return st

    # -- recording ---------------------------------------------------------

    def record_completed(
        self, model: str, latency_s: float, wait_s: float, batch_size: int
    ) -> None:
        with self._lock:
            st = self._stats(model)
            st.completed += 1
            st.latencies.append(latency_s)
            st.waits.append(wait_s)
            st.services.append(max(latency_s - wait_s, 0.0))
            st.batch_sizes.append(int(batch_size))
            st.window_latencies.append(latency_s)
            st.window_services.append(max(latency_s - wait_s, 0.0))
            if len(st.latencies) > MAX_SAMPLES:
                del st.latencies[: MAX_SAMPLES // 2]
                del st.waits[: MAX_SAMPLES // 2]
                del st.services[: MAX_SAMPLES // 2]
                del st.batch_sizes[: MAX_SAMPLES // 2]

    def record_failed(self, model: str) -> None:
        with self._lock:
            self._stats(model).failed += 1

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_expired(self, model: str) -> None:
        with self._lock:
            self.expired += 1
            self._stats(model).failed += 1

    def record_retry(self, cause: str = "unknown") -> None:
        with self._lock:
            self.retried += 1
            self.retried_by_cause[cause] = (
                self.retried_by_cause.get(cause, 0) + 1
            )

    def record_geometry_update(
        self, model: str, patch_s: float, fraction: float | None = None
    ) -> None:
        """One :meth:`ServeEngine.update_geometry` call on ``model``.

        ``patch_s`` is the off-hot-path plan-patch (or fallback
        recompile) wall time; ``fraction`` is patch time over the
        model's from-scratch compile time — the headline number for the
        dynamic-geometry bench (``None`` when the baseline is unknown).
        """
        with self._lock:
            st = self._stats(model)
            st.geometry_updates += 1
            st.patch_seconds.append(float(patch_s))
            if fraction is not None:
                st.patch_fractions.append(float(fraction))
            if len(st.patch_seconds) > MAX_SAMPLES:
                del st.patch_seconds[: MAX_SAMPLES // 2]
                del st.patch_fractions[: MAX_SAMPLES // 2]

    def record_config_swap(self, model: str, tune_s: float | None = None) -> None:
        """One online re-tune + atomic config swap on ``model``."""
        with self._lock:
            self._stats(model).config_swaps += 1

    def record_plan_lookup(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.plan_hits += 1
            else:
                self.plan_misses += 1

    def record_queue_depth(self, depth: int) -> None:
        with self._lock:
            self.queue_depth_sum += depth
            self.queue_depth_samples += 1
            self.queue_depth_peak = max(self.queue_depth_peak, depth)

    # -- queries -----------------------------------------------------------

    def service_p95(self, model: str | None = None) -> float | None:
        """Observed p95 service time (seconds) — the retry-after basis."""
        with self._lock:
            if model is not None:
                samples = list(self._models[model].services) \
                    if model in self._models else []
            else:
                samples = [
                    s for st in self._models.values() for s in st.services
                ]
        if not samples:
            return None
        return float(np.percentile(np.asarray(samples), 95.0))

    def window_count(self, model: str) -> int:
        """Samples currently in ``model``'s sliding window."""
        with self._lock:
            st = self._models.get(model)
            return 0 if st is None else len(st.window_latencies)

    def window_quantile(
        self, model: str, pct: float, kind: str = "latencies"
    ) -> float | None:
        """Windowed (last-K) latency or service quantile — the drift
        signal the SLO monitor watches; ``kind`` is ``"latencies"``
        (end-to-end) or ``"services"`` (apply only)."""
        with self._lock:
            st = self._models.get(model)
            if st is None:
                return None
            samples = list(
                st.window_services if kind == "services"
                else st.window_latencies
            )
        if not samples:
            return None
        return float(np.percentile(np.asarray(samples), float(pct)))

    def reset_window(self, model: str) -> None:
        """Drop ``model``'s window samples (after a config swap: pre-swap
        latencies must not re-trigger the monitor against the new
        config).  Lifetime reservoirs are untouched."""
        with self._lock:
            st = self._models.get(model)
            if st is not None:
                st.window_latencies.clear()
                st.window_services.clear()

    # -- export ------------------------------------------------------------

    def raw(self) -> dict:
        """A point-in-time copy of reservoirs and counters, for merging.

        Raw samples — not precomputed percentiles — travel to the
        merge point, so fabric-wide quantiles are computed over the
        union of per-rank reservoirs (percentiles of percentiles would
        be wrong; see the module docstring).
        """
        pools = self._sample_pools()
        with self._lock:
            return {
                "pools": pools,
                "models": {
                    name: {
                        "latencies": list(st.latencies),
                        "waits": list(st.waits),
                        "services": list(st.services),
                        "batch_sizes": list(st.batch_sizes),
                        "completed": st.completed,
                        "failed": st.failed,
                        "geometry_updates": st.geometry_updates,
                        "patch_seconds": list(st.patch_seconds),
                        "patch_fractions": list(st.patch_fractions),
                        "window_latencies": list(st.window_latencies),
                        "window_services": list(st.window_services),
                        "config_swaps": st.config_swaps,
                    }
                    for name, st in self._models.items()
                },
                "rejected": self.rejected,
                "expired": self.expired,
                "retried": self.retried,
                "retried_by_cause": dict(self.retried_by_cause),
                "plan_hits": self.plan_hits,
                "plan_misses": self.plan_misses,
                "queue_depth_sum": self.queue_depth_sum,
                "queue_depth_samples": self.queue_depth_samples,
                "queue_depth_peak": self.queue_depth_peak,
            }

    @classmethod
    def merge(cls, parts, elapsed_s: float | None = None) -> dict:
        """One snapshot over many instances (or :meth:`raw` dicts).

        Sample reservoirs concatenate per model, counters sum, the
        queue-depth peak is the max of peaks — so the merged p99 is the
        p99 of the union of per-rank samples, exactly what a single
        engine observing all the traffic would have reported.
        """
        raws = [p.raw() if isinstance(p, ServeMetrics) else p for p in parts]
        models: dict[str, dict] = {}
        counters = {
            "rejected": 0, "expired": 0, "retried": 0,
            "plan_hits": 0, "plan_misses": 0,
            "queue_depth_sum": 0, "queue_depth_samples": 0,
            "queue_depth_peak": 0,
        }
        by_cause: dict[str, int] = {}
        pools: dict = {}
        for raw in raws:
            # live gauges: first non-None wins per section (the task pool
            # is process-wide shared, so every rank reports the same one)
            for key, val in (raw.get("pools") or {}).items():
                if val is not None and key not in pools:
                    pools[key] = val
            for key in ("rejected", "expired", "retried", "plan_hits",
                        "plan_misses", "queue_depth_sum",
                        "queue_depth_samples"):
                counters[key] += raw[key]
            counters["queue_depth_peak"] = max(
                counters["queue_depth_peak"], raw["queue_depth_peak"]
            )
            for cause, n in raw.get("retried_by_cause", {}).items():
                by_cause[cause] = by_cause.get(cause, 0) + n
            for name, st in raw["models"].items():
                acc = models.setdefault(name, {
                    "latencies": [], "waits": [], "services": [],
                    "batch_sizes": [], "completed": 0, "failed": 0,
                    "geometry_updates": 0, "patch_seconds": [],
                    "patch_fractions": [],
                    "window_latencies": [], "window_services": [],
                    "config_swaps": 0,
                })
                for key in ("latencies", "waits", "services", "batch_sizes"):
                    acc[key].extend(st[key])
                acc["completed"] += st["completed"]
                acc["failed"] += st["failed"]
                acc["geometry_updates"] += st.get("geometry_updates", 0)
                acc["patch_seconds"].extend(st.get("patch_seconds", []))
                acc["patch_fractions"].extend(st.get("patch_fractions", []))
                # raw window samples concatenate across ranks exactly like
                # the lifetime reservoirs — the merged windowed p95 is the
                # p95 of the union, never a percentile of percentiles
                acc["window_latencies"].extend(
                    st.get("window_latencies", [])
                )
                acc["window_services"].extend(st.get("window_services", []))
                acc["config_swaps"] += st.get("config_swaps", 0)

        total_completed = sum(st["completed"] for st in models.values())
        total_failed = sum(st["failed"] for st in models.values())
        lookups = counters["plan_hits"] + counters["plan_misses"]
        out = {
            "completed": total_completed,
            "failed": total_failed,
            "rejected": counters["rejected"],
            "expired": counters["expired"],
            "retried": counters["retried"],
            "retried_by_cause": by_cause,
            "plan_cache": {
                "hits": counters["plan_hits"],
                "misses": counters["plan_misses"],
                "hit_rate": (
                    counters["plan_hits"] / lookups if lookups else None
                ),
            },
            "queue_depth": {
                "mean": (
                    counters["queue_depth_sum"]
                    / counters["queue_depth_samples"]
                    if counters["queue_depth_samples"]
                    else None
                ),
                "peak": counters["queue_depth_peak"],
            },
            "models": {},
        }
        if pools:
            out["pools"] = pools
        if elapsed_s is not None and elapsed_s > 0:
            out["throughput_rps"] = total_completed / elapsed_s
        for name, st in models.items():
            bs = np.asarray(st["batch_sizes"]) if st["batch_sizes"] else None
            out["models"][name] = {
                "completed": st["completed"],
                "failed": st["failed"],
                "latency_s": _quantiles(st["latencies"]),
                "queue_wait_s": _quantiles(st["waits"]),
                "service_s": _quantiles(st["services"]),
                "batch_size": {
                    "mean": float(bs.mean()) if bs is not None else None,
                    "max": int(bs.max()) if bs is not None else None,
                    "hist": (
                        {
                            int(v): int(c)
                            for v, c in zip(
                                *np.unique(bs, return_counts=True)
                            )
                        }
                        if bs is not None
                        else {}
                    ),
                },
                "geometry": {
                    "updates": st["geometry_updates"],
                    "patch_s": _quantiles(st["patch_seconds"]),
                    "patch_fraction": _quantiles(st["patch_fractions"]),
                },
                "window": {
                    "count": len(st["window_latencies"]),
                    "latency_s": _quantiles(st["window_latencies"]),
                    "service_s": _quantiles(st["window_services"]),
                },
                "config_swaps": st["config_swaps"],
            }
        return out

    def snapshot(self, elapsed_s: float | None = None) -> dict:
        """JSON-friendly summary of everything recorded so far."""
        return ServeMetrics.merge([self], elapsed_s=elapsed_s)
