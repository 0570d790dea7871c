"""The distributed serving data plane: rank-sharded and replicated models.

This module merges the two worlds the ROADMAP kept apart — the
single-process serving engine (:mod:`repro.serve.engine`) and the SPMD
distributed FMM (:mod:`repro.dist`) — into one fault-tolerant plane.  A
:class:`DistServeEngine` owns a virtual rank space of ``nranks`` ranks
and places each registered model on it one of two ways, chosen at
:meth:`~DistServeEngine.register`:

* ``placement="sharded"`` — the geometry is partitioned across a rank
  group via the existing LET/load-balance path (`dist/build.py`,
  `dist/loadbalance.py`): each rank holds a set-up
  :class:`~repro.dist.driver.DistributedFmm` (LET, ownership masks,
  compiled plan) plus the routing indices mapping global density rows to
  its owned points.  One request = one SPMD evaluation over the group.
* ``placement="replicated"`` — R independent single-rank copies, each a
  full model; requests round-robin across the surviving replicas, so
  small models buy throughput instead of capacity.

**The robustness contract** is the point of the merge: under a seeded
:class:`~repro.mpi.faults.FaultPlan` (rank crash, straggler, in-flight
corruption, GPU device fault, a crash at a ``recv`` while the peers are
blocked in ``COMM_reduce``), a request never observes a fault.  It
observes either

* a **bit-identical answer** — produced by bounded retry with
  exponential seeded backoff (:class:`~repro.mpi.faults.RetryPolicy`),
  restarting from the shard group's post-upward checkpoint when one
  committed (``evaluate(..., resume=True)``), or by failing over to a
  surviving replica of a replicated model — or
* a **typed rejection**: :class:`~repro.serve.scheduler.ShardUnavailable`
  when the shard's circuit breaker is open and no fallback replica
  survives, :class:`~repro.serve.scheduler.DeadlineExceeded` when the
  deadline expires mid-recovery.

Failover never mixes evaluation paths inside one request: retries stay
on the *same* shard group (resuming its committed checkpoint), and a
request is handed to the fallback replica only when the shard group was
unavailable *before* dispatch.  Re-dispatching a request whose shard
checkpoint committed onto a differently-partitioned replica would return
an answer with a different floating-point summation order — correct to
FMM accuracy but not bit-identical, and bit-determinism is the contract
(see DESIGN.md, "Failover protocol").

Health is tracked two ways: :class:`RankHealth` accumulates heartbeats
(one per rank per completed dispatch, emitted as
``SERVE:heartbeat:<model>`` trace spans) and failure signals from the
PR 1 abort machinery (:class:`~repro.mpi.runtime.SpmdError` ``.rank`` /
``.wedged``), and a per-shard / per-replica :class:`CircuitBreaker`
turns repeated failures into fast typed rejections instead of repeated
timeouts.  Per-rank :class:`~repro.serve.metrics.ServeMetrics`
reservoirs are merged fabric-wide at snapshot time by the router.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.dist.driver import DistributedFmm, match_owned_rows
from repro.kernels import get_kernel
from repro.mpi.faults import FaultPlan, RetryPolicy
from repro.mpi.runtime import run_spmd
from repro.serve.metrics import ServeMetrics
from repro.serve.scheduler import (
    DeadlineExceeded,
    ShardUnavailable,
    UnknownModel,
)

__all__ = ["CircuitBreaker", "DistModel", "DistServeEngine", "RankHealth"]


class RankHealth:
    """Liveness/failure bookkeeping over the engine's virtual rank space.

    Successful dispatches beat every participating rank; failures are
    attributed to the failing rank (``SpmdError.rank``) and every rank
    the abort left wedged (``SpmdError.wedged``).  ``consecutive``
    failure counts reset on the next successful dispatch touching the
    rank, so a transient injection does not permanently stain a rank.
    """

    def __init__(self, nranks: int):
        self.nranks = int(nranks)
        self._lock = threading.Lock()
        self._stats = [
            {
                "beats": 0,
                "ok": 0,
                "failures": 0,
                "wedged": 0,
                "consecutive": 0,
                "last_beat_s": None,
                "last_error": None,
            }
            for _ in range(self.nranks)
        ]

    def beat(self, ranks) -> None:
        """Heartbeat: these ranks completed a dispatch just now."""
        now = time.monotonic()
        with self._lock:
            for r in ranks:
                st = self._stats[r]
                st["beats"] += 1
                st["ok"] += 1
                st["consecutive"] = 0
                st["last_beat_s"] = now

    def record_failure(
        self, rank: int | None, wedged=(), cause: str = ""
    ) -> None:
        with self._lock:
            if rank is not None and 0 <= rank < self.nranks:
                st = self._stats[rank]
                st["failures"] += 1
                st["consecutive"] += 1
                st["last_error"] = cause
            for w in wedged:
                if 0 <= w < self.nranks and w != rank:
                    st = self._stats[w]
                    st["wedged"] += 1
                    st["consecutive"] += 1
                    st["last_error"] = f"wedged past abort ({cause})"

    def suspect_ranks(self, threshold: int = 3) -> list[int]:
        """Ranks with ``threshold`` or more consecutive failures."""
        with self._lock:
            return [
                r
                for r, st in enumerate(self._stats)
                if st["consecutive"] >= threshold
            ]

    def snapshot(self) -> dict:
        with self._lock:
            return {r: dict(st) for r, st in enumerate(self._stats)}


class CircuitBreaker:
    """Closed -> open -> half-open breaker over one shard or replica.

    ``threshold`` consecutive failures open the breaker: :meth:`allow`
    returns ``False`` (callers reject typed instead of dispatching into
    a group that keeps crashing or wedging — the anti-hang half of the
    robustness contract).  After ``cooldown_s`` the breaker half-opens:
    dispatches probe the group again; one success closes it, one failure
    re-opens it for another cooldown.
    """

    def __init__(self, threshold: int = 3, cooldown_s: float = 5.0):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = int(threshold)
        self.cooldown_s = float(cooldown_s)
        self._lock = threading.Lock()
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        with self._lock:
            if (
                self._state == "open"
                and time.monotonic() - self._opened_at >= self.cooldown_s
            ):
                self._state = "half-open"
            return self._state

    def allow(self) -> bool:
        return self.state != "open"

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._state = "closed"

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._failures >= self.threshold:
                self._state = "open"
                self._opened_at = time.monotonic()

    def snapshot(self) -> dict:
        state = self.state  # may transition open -> half-open
        with self._lock:
            return {"state": state, "failures": self._failures}


class DistModel:
    """One registered distributed model (placement + per-rank state)."""

    __slots__ = (
        "name", "placement", "group", "points", "n_points", "ks", "kt",
        "expected", "shards", "replicas", "fallback", "lock",
        "tuned", "slo",
    )

    def __init__(self, name, placement, group, points, ks, kt):
        self.name = name
        self.placement = placement
        #: Shard width (sharded) or replica count (replicated).
        self.group = int(group)
        self.points = points
        self.n_points = len(points)
        self.ks, self.kt = ks, kt
        self.expected = self.n_points * ks
        #: Collectively voted TuneConfig (autotuned models only) + SLO.
        self.tuned = None
        self.slo = None
        #: Per-rank shard state: {"fmm": DistributedFmm, "src": row idx}.
        self.shards: list[dict] | None = None
        #: Replica states (each with its own lock for concurrent serving).
        self.replicas: list[dict] = []
        #: Optional single-rank fallback of a sharded model.
        self.fallback: dict | None = None
        self.lock = threading.Lock()


class DistServeEngine:
    """Rank-sharded / replicated model execution with chaos failover.

    Parameters
    ----------
    nranks:
        Width of the virtual rank space.  Sharded models occupy the
        prefix ``[0, group)`` of it; replica ``i`` of a replicated model
        is pinned to rank ``i`` (fault plans target these rank numbers).
    faults / retry:
        Optional :class:`~repro.mpi.faults.FaultPlan` executed by the
        chaos fabric on every dispatch, and the
        :class:`~repro.mpi.faults.RetryPolicy` bounding recovery.  Fault
        ``attempts`` budgets count *engine-wide dispatch attempts*: a
        fault with ``attempts=1`` fires during the engine's first
        dispatch and is spent afterwards, so retried requests converge.
    integrity:
        CRC32 + sequence framing on every message (in-flight corruption
        surfaces as typed :class:`~repro.mpi.comm.CorruptMessage`).
    run_timeout_s:
        Per-dispatch SPMD deadline (the anti-hang bound; a request's own
        deadline tightens it further).
    breaker_threshold / breaker_cooldown_s:
        Circuit-breaker tuning, shared by all shards and replicas.
    trace:
        Optional :class:`~repro.perf.trace.TraceRecorder` shared by
        every dispatch (heartbeat + ``RECOVERY:*`` spans land here).
    threads:
        Default intra-rank parallelism for registered models: forwarded
        as ``threads=`` to every :class:`~repro.dist.driver.
        DistributedFmm` (which sizes each rank's pool as
        ``min(threads, host_cpus // group)`` so a ``group``-wide shard
        never oversubscribes the host).  Per-model ``fmm_kwargs`` may
        override.  ``None`` keeps single-threaded applies.
    """

    def __init__(
        self,
        nranks: int = 4,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        integrity: bool = True,
        run_timeout_s: float = 120.0,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 5.0,
        trace=None,
        threads: int | None = None,
    ):
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        self.nranks = int(nranks)
        self.threads = None if threads is None else max(1, int(threads))
        self.faults = faults
        self.retry = retry if retry is not None else RetryPolicy()
        self.integrity = bool(integrity)
        self.run_timeout_s = float(run_timeout_s)
        self.health = RankHealth(self.nranks)
        self.rank_metrics = [ServeMetrics() for _ in range(self.nranks)]
        self._breaker_threshold = int(breaker_threshold)
        self._breaker_cooldown = float(breaker_cooldown_s)
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breakers_lock = threading.Lock()
        self._trace = trace
        self._models: dict[str, DistModel] = {}
        self._models_lock = threading.Lock()
        self._attempt_lock = threading.Lock()
        self._attempt = 0
        self._rr: dict[str, int] = {}  # replica round-robin cursors

    # -- fault-plan control -------------------------------------------------

    def set_faults(self, faults: FaultPlan | None) -> None:
        """Swap the fault plan and restart the dispatch-attempt counter.

        Chaos drills on a live engine: each new plan sees a fresh
        attempt stream, so its ``attempts`` budgets count from the next
        dispatch.
        """
        with self._attempt_lock:
            self.faults = faults
            self._attempt = 0

    def _next_attempt(self) -> int:
        with self._attempt_lock:
            a = self._attempt
            self._attempt += 1
            return a

    def _plan_for_attempt(self, attempt: int, remap=None) -> FaultPlan | None:
        plan = self.faults
        if plan is None:
            return None
        plan = plan.for_attempt(attempt)
        if remap is not None:
            plan = plan.remapped(remap)
        return plan if len(plan) else None

    # -- breakers -----------------------------------------------------------

    def breaker(self, key: str) -> CircuitBreaker:
        with self._breakers_lock:
            br = self._breakers.get(key)
            if br is None:
                br = self._breakers[key] = CircuitBreaker(
                    self._breaker_threshold, self._breaker_cooldown
                )
            return br

    def breaker_snapshot(self) -> dict:
        with self._breakers_lock:
            keys = list(self._breakers)
        return {k: self.breaker(k).snapshot() for k in keys}

    # -- registration -------------------------------------------------------

    def _model(self, name: str) -> DistModel:
        with self._models_lock:
            model = self._models.get(name)
        if model is None:
            raise UnknownModel(
                f"model {name!r} is not registered (have: {self.models()})"
            )
        return model

    def models(self) -> list[str]:
        with self._models_lock:
            return sorted(self._models)

    def register(
        self,
        name: str,
        points,
        placement: str = "sharded",
        group: int | None = None,
        replicas: int = 2,
        fallback_replica: bool = False,
        warm: bool = True,
        slo=None,
        store=None,
        tune_grid=None,
        tune_seed: int = 0,
        **fmm_kwargs,
    ) -> DistModel:
        """Register ``name`` on the fabric; builds all shard/replica state
        now (tree, LET, lists — the full :meth:`DistributedFmm.setup`)
        on a clean fabric (registration is control-plane work; the chaos
        plan targets serving dispatches).

        ``placement="sharded"`` partitions the geometry over ``group``
        ranks (default: the whole fabric); ``fallback_replica=True``
        additionally builds one single-rank replica the router degrades
        to when the shard breaker opens.  ``placement="replicated"``
        builds ``replicas`` independent single-rank copies.
        ``fmm_kwargs`` pass through to
        :class:`~repro.dist.driver.DistributedFmm` (kernel, order,
        max_points_per_box, load_balance, use_gpu, precision, ...).
        With ``warm`` (default) each shard group / replica evaluates one
        zero density now, so plans are compiled before the first request.
        """
        if placement not in ("sharded", "replicated"):
            raise ValueError(
                f"placement must be 'sharded' or 'replicated', "
                f"got {placement!r}"
            )
        points = np.asarray(points, dtype=np.float64)
        if self.threads is not None and "threads" not in fmm_kwargs:
            fmm_kwargs = dict(fmm_kwargs, threads=self.threads)
        kern = fmm_kwargs.get("kernel", "laplace")
        kern = get_kernel(kern) if isinstance(kern, str) else kern
        if placement == "sharded":
            width = self.nranks if group is None else int(group)
        else:
            width = int(replicas) if group is None else int(group)
        if not 1 <= width <= self.nranks:
            raise ValueError(
                f"model {name!r}: group {width} exceeds the fabric "
                f"({self.nranks} ranks)"
            )
        tuned = None
        if slo is not None:
            vote_width = width if placement == "sharded" else 1
            tuned = self._vote_config(
                points, kern, vote_width, slo, tune_grid, tune_seed, store,
            )
            fmm_kwargs = dict(fmm_kwargs)
            fmm_kwargs.update(
                order=tuned.order,
                max_points_per_box=tuned.max_points,
                precision=tuned.precision,
            )
        model = DistModel(
            name, placement, width, points,
            kern.source_dim, kern.target_dim,
        )
        model.tuned = tuned
        model.slo = slo
        if placement == "sharded":
            model.shards = self._setup_shards(model, fmm_kwargs)
            if fallback_replica:
                model.fallback = self._setup_replica(model, fmm_kwargs)
        else:
            model.replicas = [
                self._setup_replica(model, fmm_kwargs) for _ in range(width)
            ]
        with self._models_lock:
            self._models[name] = model
        if warm:
            zeros = np.zeros(model.expected)
            if placement == "sharded":
                self._run_shard(model, zeros, plan=None, deadline=None)
                if model.fallback is not None:
                    self._run_replica(model, model.fallback, zeros,
                                      plan=None, deadline=None)
            else:
                for i, rep in enumerate(model.replicas):
                    self._run_replica(model, rep, zeros, plan=None,
                                      deadline=None, fabric_rank=i)
            self._clear_checkpoints(model)
        return model

    def _vote_config(
        self, points, kern, width: int, slo, grid, seed: int, store,
    ):
        """Collective config vote: one agreed tuned config for the group.

        Mirrors the distributed precision vote: every rank runs the
        *deterministic* cost-model-only search
        (:func:`~repro.tune.search.propose_config`) on its own point
        slice, allgathers the proposals, and applies the same reduction —
        the modal config wins, ties broken by the lexicographically
        smallest config key — so all ranks adopt one config without a
        coordinator.  Per-rank seeds differ (``seed + rank``) so the vote
        aggregates genuinely independent probes rather than ``width``
        copies of one probe.
        """
        from collections import Counter

        from repro.tune.search import default_grid, propose_config
        from repro.tune.search import TuneConfig as _TC
        from repro.tune.store import geometry_fingerprint

        kname = getattr(kern, "name", "kernel")
        backend = f"dist{width}"
        fingerprint = geometry_fingerprint(points)
        if store is not None:
            hit = store.get(fingerprint, kname, slo, backend)
            if hit is not None:
                return hit
        if grid is None:
            grid = default_grid(len(points))
        winners: list = [None] * width

        def body(comm):
            local = points[comm.rank :: comm.size]
            cfg = propose_config(
                local, kernel=kern, slo=slo, grid=grid,
                seed=seed + comm.rank,
            )
            proposals = comm.allgather(cfg.to_dict())
            keys = [_TC.from_dict(d).key() for d in proposals]
            counts = Counter(keys)
            win = sorted(keys, key=lambda k: (-counts[k], k))[0]
            winners[comm.rank] = next(
                _TC.from_dict(d)
                for d, k in zip(proposals, keys)
                if k == win
            )

        run_spmd(
            width, body,
            timeout=self.run_timeout_s,
            integrity=self.integrity,
            trace=self._trace,
        )
        config = winners[0]
        if store is not None:
            store.put(fingerprint, kname, slo, config, backend=backend)
        return config

    def _setup_shards(self, model: DistModel, fmm_kwargs: dict) -> list[dict]:
        points = model.points
        states: list[dict | None] = [None] * model.group

        def body(comm):
            fmm = DistributedFmm(**fmm_kwargs)
            fmm.setup(comm, points[comm.rank :: comm.size])
            states[comm.rank] = {
                "fmm": fmm,
                "src": match_owned_rows(points, fmm.owned_points),
            }

        run_spmd(
            model.group, body,
            timeout=self.run_timeout_s,
            integrity=self.integrity,
            trace=self._trace,
        )
        return states  # type: ignore[return-value]

    def _setup_replica(self, model: DistModel, fmm_kwargs: dict) -> dict:
        points = model.points
        state: dict = {"lock": threading.Lock()}

        def body(comm):
            fmm = DistributedFmm(**fmm_kwargs)
            fmm.setup(comm, points)
            state["fmm"] = fmm
            state["src"] = match_owned_rows(points, fmm.owned_points)

        run_spmd(1, body, timeout=self.run_timeout_s,
                 integrity=self.integrity, trace=self._trace)
        return state

    # -- dynamic geometry ---------------------------------------------------

    def update_geometry(self, name: str, new_points) -> dict:
        """Move ``name``'s sources; every shard/replica re-patches its plan.

        ``new_points`` is the full global point array in the original
        order (same shape — re-register for insertions or deletions).
        Sharded models re-run the collective
        :meth:`~repro.dist.driver.DistributedFmm.update_geometry` across
        the group — each rank patches its own LET-bound plan, with the
        collective precision vote inside — then recompute their density
        routing indices.  The swap happens under the model/replica
        locks, which already serialise dispatches, so in-flight requests
        finish against the old geometry and the next dispatch sees the
        new one.  Runs on a clean fabric (geometry updates are
        control-plane work, like :meth:`register`; the chaos plan
        targets serving dispatches).
        """
        model = self._model(name)
        new_points = np.asarray(new_points, dtype=np.float64)
        if new_points.shape != model.points.shape:
            raise ValueError(
                f"model {name!r}: update_geometry requires the original "
                f"point shape {model.points.shape}, got {new_points.shape}; "
                f"re-register for insertions/deletions"
            )
        t0 = time.monotonic()
        infos: list[dict] = []

        def patch_group(states, width):
            def body(comm):
                st = states[comm.rank]
                fmm = st["fmm"]
                fmm.rebind(comm)
                info = fmm.update_geometry(new_points[comm.rank :: comm.size])
                st["src"] = match_owned_rows(new_points, fmm.owned_points)
                infos.append(info)

            run_spmd(
                width, body,
                timeout=self.run_timeout_s,
                integrity=self.integrity,
                trace=self._trace,
            )

        with model.lock:
            if model.placement == "sharded":
                patch_group(model.shards, model.group)
                if model.fallback is not None:
                    patch_group([model.fallback], 1)
            for rep in model.replicas:
                with rep["lock"]:
                    patch_group([rep], 1)
            model.points = new_points
            self._clear_checkpoints(model)
        patch_s = time.monotonic() - t0
        self.rank_metrics[0].record_geometry_update(name, patch_s)
        return {
            "patch_s": patch_s,
            "ranks_patched": sum(1 for i in infos if i.get("patched")),
            "ranks": len(infos),
        }

    # -- evaluation ---------------------------------------------------------

    def available(self, name: str) -> bool:
        """Can a dispatch for ``name`` be admitted right now?"""
        model = self._model(name)
        if model.placement == "sharded":
            if self.breaker(f"{name}/shard").allow():
                return True
            return model.fallback is not None and self.breaker(
                f"{name}/fallback"
            ).allow()
        return any(
            self.breaker(f"{name}/r{i}").allow()
            for i in range(len(model.replicas))
        )

    def evaluate(
        self, name: str, density, deadline: float | None = None
    ) -> np.ndarray:
        """One request: potentials in global point order, or typed error.

        ``deadline`` is absolute ``time.monotonic()`` (``None`` = only
        the engine's per-dispatch timeout applies).
        """
        model = self._model(name)
        dens = np.asarray(density, dtype=np.float64).reshape(-1)
        if dens.size != model.expected:
            raise ValueError(
                f"model {name!r}: densities have {dens.size} values, "
                f"expected n_points*source_dim = {model.expected}"
            )
        if model.placement == "sharded":
            return self._eval_sharded(model, dens, deadline)
        return self._eval_replicated(model, dens, deadline)

    def _check_deadline(self, deadline: float | None, name: str) -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceeded(
                f"model {name!r}: request deadline expired before a "
                f"dispatch could complete"
            )

    def _run_timeout(self, deadline: float | None) -> float:
        if deadline is None:
            return self.run_timeout_s
        return max(0.05, min(self.run_timeout_s,
                             deadline - time.monotonic()))

    def _record_recovery(self, rank: int, retry_no: int, cause: str,
                         delay: float) -> None:
        self.rank_metrics[rank if 0 <= rank < self.nranks else 0].record_retry(
            cause
        )
        if self._trace is not None:
            self._trace.record_span(
                rank, f"RECOVERY:retry#{retry_no}:{cause}"
                f":backoff={delay:.3f}s",
                0.0, 0.0, 0, 0.0, delay,
            )

    def _heartbeat(self, model: DistModel, ranks, wall_s: float) -> None:
        self.health.beat(ranks)
        if self._trace is not None:
            for r in ranks:
                self._trace.record_span(
                    r, f"SERVE:heartbeat:{model.name}", wall_s,
                    0.0, 0, 0.0, 0.0,
                )

    def _clear_checkpoints(self, model: DistModel) -> None:
        for st in (model.shards or []):
            st["fmm"].clear_checkpoint()
        for st in model.replicas + ([model.fallback] if model.fallback else []):
            st["fmm"].clear_checkpoint()

    # -- sharded path -------------------------------------------------------

    def _eval_sharded(
        self, model: DistModel, dens: np.ndarray, deadline: float | None
    ) -> np.ndarray:
        name = model.name
        breaker = self.breaker(f"{name}/shard")
        if not breaker.allow():
            # degrade, never hang: the shard group keeps failing, so the
            # request goes whole to the fallback replica (bit-identical
            # to the *replica's* fault-free answer) or rejects typed
            if model.fallback is not None:
                return self._eval_on_replica(
                    model, model.fallback, f"{name}/fallback", 0,
                    dens, deadline,
                )
            raise ShardUnavailable(
                f"model {name!r}: shard circuit breaker is "
                f"{breaker.state} after repeated failures "
                f"(retry after {breaker.cooldown_s:.1f}s)"
            )
        with model.lock:
            last: BaseException | None = None
            for k in range(self.retry.max_attempts):
                self._check_deadline(deadline, name)
                attempt = self._next_attempt()
                plan = self._plan_for_attempt(attempt)
                try:
                    out = self._run_shard(model, dens, plan, deadline)
                except BaseException as exc:  # noqa: BLE001 - typed filter below
                    cause = exc.__cause__ if exc.__cause__ is not None else exc
                    rank = getattr(exc, "rank", None)
                    self.health.record_failure(
                        rank, getattr(exc, "wedged", ()),
                        type(cause).__name__,
                    )
                    breaker.record_failure()
                    last = exc
                    transient = isinstance(cause, self.retry.retry_on) or \
                        isinstance(exc, self.retry.retry_on)
                    if not transient:
                        raise
                    if k + 1 >= self.retry.max_attempts or not breaker.allow():
                        break
                    delay = self.retry.delay(k + 1)
                    self._record_recovery(
                        rank if rank is not None else 0, k + 1,
                        type(cause).__name__, delay,
                    )
                    if delay > 0.0:
                        time.sleep(delay)
                    continue
                else:
                    breaker.record_success()
                    self._clear_checkpoints(model)
                    return out
        # bounded retry exhausted (or the breaker opened mid-request):
        # degrade to the fallback replica for the *next* requests; this
        # one rejects typed — its shard checkpoint may have committed,
        # and re-dispatching it onto a differently-partitioned replica
        # would break bit-determinism (DESIGN.md, "Failover protocol")
        self._check_deadline(deadline, name)
        err = ShardUnavailable(
            f"model {name!r}: shard group failed "
            f"{self.retry.max_attempts} attempt(s); last error: {last!r}"
        )
        err.__cause__ = last
        raise err

    def _run_shard(
        self,
        model: DistModel,
        dens: np.ndarray,
        plan: FaultPlan | None,
        deadline: float | None,
    ) -> np.ndarray:
        states = model.shards
        name, ks, kt = model.name, model.ks, model.kt
        rank_metrics = self.rank_metrics

        def body(comm):
            st = states[comm.rank]
            fmm = st["fmm"]
            fmm.rebind(comm)
            t0 = time.monotonic()
            dens_owned = dens.reshape(-1, ks)[st["src"]].reshape(-1)
            # resume=True: if this rank's post-upward checkpoint for this
            # exact density committed on a previous (crashed) attempt,
            # the communication-bearing upward phases are skipped — the
            # decision is collective, so no rank resumes alone
            pot = fmm.evaluate(dens_owned, resume=True)
            # rank-local apply stats live under a per-rank key so the
            # fabric-wide merge never mixes them into the router's
            # request-level latency reservoir for the bare model name
            rank_metrics[comm.rank].record_completed(
                f"{name}@rank{comm.rank}", time.monotonic() - t0, 0.0, 1
            )
            return pot

        t0 = time.monotonic()
        res = run_spmd(
            model.group, body,
            faults=plan,
            integrity=self.integrity,
            timeout=self._run_timeout(deadline),
            trace=self._trace,
        )
        out = np.empty((model.n_points, kt))
        for st, pot in zip(states, res.values):
            out[st["src"]] = pot.reshape(-1, kt)
        self._heartbeat(model, range(model.group), time.monotonic() - t0)
        return out.reshape(-1)

    # -- replicated path ----------------------------------------------------

    def _eval_replicated(
        self, model: DistModel, dens: np.ndarray, deadline: float | None
    ) -> np.ndarray:
        name = model.name
        last: BaseException | None = None
        tried_any = False
        for k in range(self.retry.max_attempts):
            self._check_deadline(deadline, name)
            idx = self._pick_replica(model)
            if idx is None:
                break  # every replica breaker is open
            tried_any = True
            try:
                return self._eval_on_replica(
                    model, model.replicas[idx], f"{name}/r{idx}", idx,
                    dens, deadline, _single_attempt=True,
                )
            except BaseException as exc:  # noqa: BLE001 - typed filter below
                cause = exc.__cause__ if exc.__cause__ is not None else exc
                transient = isinstance(cause, self.retry.retry_on) or \
                    isinstance(exc, self.retry.retry_on)
                if not transient:
                    raise
                last = exc
                delay = self.retry.delay(k + 1)
                self._record_recovery(idx, k + 1, type(cause).__name__, delay)
                if delay > 0.0:
                    time.sleep(delay)
                # failover: the next loop iteration picks the next
                # surviving replica (the failed one's breaker counted
                # the failure and round-robin moves on)
        self._check_deadline(deadline, name)
        detail = f"last error: {last!r}" if tried_any else \
            "every replica circuit breaker is open"
        err = ShardUnavailable(
            f"model {name!r}: no replica could serve the request; {detail}"
        )
        err.__cause__ = last
        raise err

    def _pick_replica(self, model: DistModel) -> int | None:
        """Next surviving replica by round robin (load spread + failover)."""
        n = len(model.replicas)
        with self._attempt_lock:
            start = self._rr.get(model.name, 0)
            self._rr[model.name] = (start + 1) % max(n, 1)
        for off in range(n):
            i = (start + off) % n
            if self.breaker(f"{model.name}/r{i}").allow():
                return i
        return None

    def _eval_on_replica(
        self,
        model: DistModel,
        replica: dict,
        breaker_key: str,
        fabric_rank: int,
        dens: np.ndarray,
        deadline: float | None,
        _single_attempt: bool = False,
    ) -> np.ndarray:
        """Evaluate on one replica; retries stay on this replica unless
        ``_single_attempt`` (the replicated path fails over instead)."""
        breaker = self.breaker(breaker_key)
        if not breaker.allow():
            raise ShardUnavailable(
                f"model {model.name!r}: replica {breaker_key} breaker is open"
            )
        attempts = 1 if _single_attempt else self.retry.max_attempts
        last: BaseException | None = None
        for k in range(attempts):
            self._check_deadline(deadline, model.name)
            attempt = self._next_attempt()
            # project the fabric-wide plan onto this replica's local
            # rank 0: faults aimed at other ranks stay with their owners
            plan = self._plan_for_attempt(attempt, remap={fabric_rank: 0})
            try:
                out = self._run_replica(model, replica, dens, plan, deadline,
                                        fabric_rank=fabric_rank)
            except BaseException as exc:  # noqa: BLE001 - typed filter below
                cause = exc.__cause__ if exc.__cause__ is not None else exc
                self.health.record_failure(
                    fabric_rank, getattr(exc, "wedged", ()),
                    type(cause).__name__,
                )
                breaker.record_failure()
                last = exc
                transient = isinstance(cause, self.retry.retry_on) or \
                    isinstance(exc, self.retry.retry_on)
                if not transient:
                    raise
                if _single_attempt:
                    raise
                if k + 1 >= attempts or not breaker.allow():
                    break
                delay = self.retry.delay(k + 1)
                self._record_recovery(fabric_rank, k + 1,
                                      type(cause).__name__, delay)
                if delay > 0.0:
                    time.sleep(delay)
                continue
            else:
                breaker.record_success()
                replica["fmm"].clear_checkpoint()
                return out
        self._check_deadline(deadline, model.name)
        err = ShardUnavailable(
            f"model {model.name!r}: replica {breaker_key} failed "
            f"{attempts} attempt(s); last error: {last!r}"
        )
        err.__cause__ = last
        raise err

    def _run_replica(
        self,
        model: DistModel,
        replica: dict,
        dens: np.ndarray,
        plan: FaultPlan | None,
        deadline: float | None,
        fabric_rank: int = 0,
    ) -> np.ndarray:
        name, ks, kt = model.name, model.ks, model.kt
        rank_metrics = self.rank_metrics
        with replica["lock"]:
            fmm, src = replica["fmm"], replica["src"]

            def body(comm):
                fmm.rebind(comm)
                t0 = time.monotonic()
                dens_owned = dens.reshape(-1, ks)[src].reshape(-1)
                pot = fmm.evaluate(dens_owned, resume=True)
                rank_metrics[fabric_rank].record_completed(
                    f"{name}@rank{fabric_rank}",
                    time.monotonic() - t0, 0.0, 1,
                )
                return pot

            t0 = time.monotonic()
            res = run_spmd(
                1, body,
                faults=plan,
                integrity=self.integrity,
                timeout=self._run_timeout(deadline),
                trace=self._trace,
            )
        out = np.empty((model.n_points, kt))
        out[src] = res.values[0].reshape(-1, kt)
        self._heartbeat(model, (fabric_rank,), time.monotonic() - t0)
        return out.reshape(-1)
