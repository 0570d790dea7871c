"""The router rank: admission, dispatch and fabric-wide observability.

The router is the control plane sitting in front of a
:class:`~repro.serve.dist_engine.DistServeEngine`: a
:class:`~repro.serve.scheduler.ServeFront` — the same fair
admission, ``Overloaded`` backpressure, deadlines and worker pool as the
single-process engine — run at batch width 1, whose workers dispatch
through :meth:`DistServeEngine.evaluate`.  What it adds to the front:

* **Fast-fail admission.**  A request for a model whose every serving
  path is circuit-broken is rejected *at submit* with
  :class:`~repro.serve.scheduler.ShardUnavailable` rather than queueing
  work that cannot be served.
* **Typed-only outcomes.**  A dispatched request either completes with
  the model's bit-identical answer (the engine's checkpoint-resume /
  replica-failover machinery absorbed any injected fault) or its future
  raises one of the typed errors — ``Overloaded`` (with a
  ``retry_after_s`` hint derived from queue depth and observed p95
  service time), ``DeadlineExceeded``, ``ShardUnavailable``,
  ``UnknownModel``.  Faults never leak to callers raw.
* **Fabric-wide metrics.**  :meth:`Router.metrics_snapshot` merges the
  router's own :class:`~repro.serve.metrics.ServeMetrics` with every
  rank's reservoir via :meth:`~repro.serve.metrics.ServeMetrics.merge`
  — quantiles over the union of samples, never averages of per-rank
  percentiles — and attaches rank-health and breaker snapshots.

In trace terms the router *is* a rank: it records
``SERVE:dispatch:<model>`` spans at rank index ``engine.nranks`` (one
past the compute ranks), so ``python -m repro trace`` shows admission
and dispatch alongside per-rank heartbeats and ``RECOVERY:*`` spans.
"""

from __future__ import annotations

import time

from repro.serve.dist_engine import DistServeEngine
from repro.serve.metrics import ServeMetrics
from repro.serve.scheduler import ServeFront, ShardUnavailable

__all__ = ["Router"]


class Router(ServeFront):
    """Admission + dispatch front-end over a :class:`DistServeEngine`.

    ``n_dispatchers`` bounds the number of concurrently in-flight
    dispatches (a sharded model serialises on its group lock anyway;
    replicated models genuinely serve ``min(n_dispatchers, replicas)``
    requests in parallel).  ``max_queue`` bounds the fair queue exactly
    as in the single-process engine; tenants share it equally.
    """

    def __init__(
        self,
        engine: DistServeEngine,
        n_dispatchers: int = 2,
        max_queue: int = 64,
    ):
        super().__init__(n_dispatchers, max_queue)
        self.engine = engine

    # -- registration / introspection (delegated) ---------------------------

    def register(self, name: str, points, **kwargs):
        """Register a model on the engine (see
        :meth:`DistServeEngine.register` for placement options)."""
        return self.engine.register(name, points, **kwargs)

    def models(self) -> list[str]:
        return self.engine.models()

    def layout(self, model: str) -> tuple[int, int]:
        m = self.engine._model(model)
        return m.n_points, m.ks

    # -- admission and dispatch: what the front does not already do ---------

    def _admit(self, model: str, precision):
        """Fast-fail: reject at submit, typed, a model none of whose rank
        groups is admitting (no queueing of work that cannot be served)."""
        if not self.engine.available(model):
            self.metrics.record_rejected()
            raise ShardUnavailable(
                f"model {model!r}: no shard group or replica is currently "
                f"admitting requests (circuit breakers open)"
            )
        return "fp64"  # the distributed plane has one precision per model

    def _execute(self, worker_id: int, live: list) -> list:
        (req,) = live  # batch width 1
        t0 = time.monotonic()
        out = self.engine.evaluate(req.model, req.density, deadline=req.deadline)
        trace = self.engine._trace
        if trace is not None:
            trace.record_span(
                self.engine.nranks,  # the router rank
                f"SERVE:dispatch:{req.model}",
                time.monotonic() - t0, 0.0, 0, 0.0, 0.0,
            )
        return [out]

    # -- observability ------------------------------------------------------

    def metrics_snapshot(self, elapsed_s: float | None = None) -> dict:
        """Fabric-wide snapshot: router + all rank reservoirs merged.

        Per-rank service samples join the union the quantiles are
        computed over (never percentile-of-percentiles), and the
        rank-health and circuit-breaker states ride along under
        ``"health"`` and ``"breakers"``.
        """
        snap = ServeMetrics.merge(
            [self.metrics, *self.engine.rank_metrics], elapsed_s=elapsed_s
        )
        snap["health"] = self.engine.health.snapshot()
        snap["breakers"] = self.engine.breaker_snapshot()
        snap["suspect_ranks"] = self.engine.health.suspect_ranks()
        snap["tuned"] = self.tuned_configs()
        return snap

    def tuned_configs(self) -> dict:
        """Per-model active tuned config (collective-vote winners only)."""
        out = {}
        for name in self.engine.models():
            m = self.engine._model(name)
            if m.tuned is None:
                continue
            out[name] = {
                "config": m.tuned.to_dict(),
                "slo": m.slo.to_dict() if m.slo is not None else None,
            }
        return out
