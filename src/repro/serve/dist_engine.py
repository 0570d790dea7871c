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

Both are lists of :class:`RankGroup`: a sharded model is ``[shard group,
optional width-1 fallback group]``, a replicated one ``[r0, r1, ...]``.
All of them share one set-up, one geometry patch, one checkpoint clear,
one dispatch (the fabric-wide fault plan projected onto the group's local
ranks) and one bounded-retry loop around it, :meth:`RetryPolicy.run
<repro.mpi.faults.RetryPolicy.run>`; where a retry goes is the only
policy difference left between the placements.

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
  when no group of the model admits or the bounded retry is exhausted,
  :class:`~repro.serve.scheduler.DeadlineExceeded` when the deadline
  expires mid-recovery.

Failover never mixes evaluation paths inside one request: a sharded
request's retries stay on the *same* group (resuming its committed
checkpoint), and it is handed to the fallback group only when the shard
group's breaker was open *before* dispatch; a replicated request fails
over to the next admitting replica, all of which partition identically.
Re-dispatching a request whose shard checkpoint committed onto a
differently-partitioned group would return an answer with a different
floating-point summation order — correct to FMM accuracy but not
bit-identical, and bit-determinism is the contract (see DESIGN.md,
"Failover protocol").

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

import itertools
import threading
import time
from contextlib import nullcontext

import numpy as np

from repro.dist.driver import DistributedFmm, match_owned_rows
from repro.kernels import get_kernel
from repro.mpi.faults import FaultPlan, RetryPolicy, cause_name, record_retry_span
from repro.mpi.runtime import run_spmd
from repro.serve.metrics import ServeMetrics
from repro.serve.scheduler import (
    DeadlineExceeded,
    ShardUnavailable,
    UnknownModel,
    check_density,
)

__all__ = ["CircuitBreaker", "DistModel", "DistServeEngine", "RankHealth"]

#: Per-dispatch SPMD deadline in seconds: the anti-hang bound, which a
#: request's own deadline tightens.
RUN_TIMEOUT_S = 120.0


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


class RankGroup:
    """``width`` fabric ranks from ``first`` that evaluate a model as one
    SPMD run: a shard group, or (width 1) a replica or the fallback.

    ``states[j]`` is local rank ``j``'s ``{"fmm": DistributedFmm, "src":
    global rows it owns}``; ``key`` names the group's circuit breaker;
    ``lock`` serialises its dispatches and geometry patches.
    """

    __slots__ = ("key", "first", "width", "states", "lock")

    def __init__(self, key: str, first: int, width: int):
        self.key = key
        self.first = first
        self.width = width
        self.states: list[dict] = [{} for _ in range(width)]
        # re-entrant: a sharded request holds it across retries that take it
        self.lock = threading.RLock()

    def fabric_rank(self, exc: BaseException) -> int | None:
        """The fabric rank ``exc`` blames (``SpmdError.rank`` is local to
        the run); a timeout names none, unless there is only one."""
        local = getattr(exc, "rank", 0 if self.width == 1 else None)
        return None if local is None else self.first + local

    def clear_checkpoints(self) -> None:
        for st in self.states:
            st["fmm"].clear_checkpoint()


class DistModel:
    """One registered distributed model (placement + its rank groups)."""

    __slots__ = (
        "name", "placement", "points", "n_points", "ks", "kt",
        "expected", "groups", "turn", "lock", "tuned", "slo",
    )

    def __init__(self, name, placement, points, ks, kt):
        self.name = name
        self.placement = placement
        self.points = points
        self.n_points = len(points)
        self.ks, self.kt = ks, kt
        self.expected = self.n_points * ks
        #: Collectively voted TuneConfig (autotuned models only) + SLO.
        self.tuned = None
        self.slo = None
        #: Sharded: ``[shard group, optional fallback group]`` in order of
        #: preference; replicated: ``[r0, r1, ...]``, served round robin.
        self.groups: list[RankGroup] = []
        self.turn = itertools.count()  # the replicas' round-robin cursor
        self.lock = threading.Lock()  # one geometry update at a time


class DistServeEngine:
    """Rank-sharded / replicated model execution with chaos failover.

    Every message is CRC32 + sequence framed (in-flight corruption
    surfaces as typed :class:`~repro.mpi.comm.CorruptMessage`), and every
    dispatch runs under :data:`RUN_TIMEOUT_S`.

    Parameters
    ----------
    nranks:
        Width of the virtual rank space.  A sharded model spans all of
        it; replica ``i`` of a replicated model is pinned to rank ``i``
        (fault plans target these rank numbers).
    faults / retry:
        Optional :class:`~repro.mpi.faults.FaultPlan` executed by the
        chaos fabric on every dispatch, and the
        :class:`~repro.mpi.faults.RetryPolicy` bounding recovery.  Fault
        ``attempts`` budgets count *engine-wide dispatch attempts*: a
        fault with ``attempts=1`` fires during the engine's first
        dispatch and is spent afterwards, so retried requests converge.
    breaker_threshold / breaker_cooldown_s:
        Circuit-breaker tuning, shared by all shards and replicas.
    trace:
        Optional :class:`~repro.perf.trace.TraceRecorder` shared by
        every dispatch (heartbeat + ``RECOVERY:*`` spans land here).
    """

    def __init__(
        self,
        nranks: int = 4,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 5.0,
        trace=None,
    ):
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        self.nranks = int(nranks)
        self.faults = faults
        self.retry = retry if retry is not None else RetryPolicy()
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

    def _next_plan(self, group: RankGroup) -> FaultPlan | None:
        """The engine's next dispatch attempt's fault plan as ``group``
        sees it: in-budget faults aimed at its fabric ranks, re-targeted to
        ``0..width-1`` (the identity for a shard); the rest stay put."""
        with self._attempt_lock:
            plan, attempt = self.faults, self._attempt
            self._attempt += 1
        if plan is None:
            return None
        plan = plan.for_attempt(attempt).remapped(
            {group.first + j: j for j in range(group.width)}
        )
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
        replicas: int = 2,
        fallback_replica: bool = False,
        slo=None,
        store=None,
        tune_grid=None,
        **fmm_kwargs,
    ) -> DistModel:
        """Register ``name`` on the fabric; builds all shard/replica state
        now (tree, LET, lists — the full :meth:`DistributedFmm.setup`)
        on a clean fabric (registration is control-plane work; the chaos
        plan targets serving dispatches).

        ``placement="sharded"`` partitions the geometry over the whole
        fabric; ``fallback_replica=True`` additionally builds one
        single-rank replica the router degrades to when the shard breaker
        opens.  ``placement="replicated"`` builds ``replicas`` independent
        single-rank copies.
        ``fmm_kwargs`` pass through to
        :class:`~repro.dist.driver.DistributedFmm`: ``kernel``, ``order``,
        ``max_points_per_box``, ``comm_scheme``, ``load_balance``,
        ``use_gpu``, ``gpu``, ``gpu_wx``, ``precision`` and ``threads``
        (default 1 here).  ``slo`` / ``store`` / ``tune_grid`` are
        :meth:`ServeEngine.register`'s, the config decided by a collective
        vote (:meth:`_vote_config`).  Each shard group / replica then
        evaluates one zero density, so plans are compiled before the first
        request.
        """
        if placement not in ("sharded", "replicated"):
            raise ValueError(
                f"placement must be 'sharded' or 'replicated', "
                f"got {placement!r}"
            )
        points = np.asarray(points, dtype=np.float64)
        fmm_kwargs = {"threads": 1, **fmm_kwargs}
        kern = fmm_kwargs.get("kernel", "laplace")
        kern = get_kernel(kern) if isinstance(kern, str) else kern
        width = self.nranks if placement == "sharded" else int(replicas)
        if not 1 <= width <= self.nranks:
            raise ValueError(
                f"model {name!r}: replicas={width} must be in 1.."
                f"{self.nranks} (the fabric's ranks)"
            )
        tuned = None
        if slo is not None:
            vote_width = width if placement == "sharded" else 1
            tuned = self._vote_config(
                points, kern, vote_width, slo, tune_grid, store,
            )
            fmm_kwargs = dict(fmm_kwargs)
            fmm_kwargs.update(
                order=tuned.order,
                max_points_per_box=tuned.max_points,
                precision=tuned.precision,
            )
        model = DistModel(
            name, placement, points, kern.source_dim, kern.target_dim
        )
        model.tuned = tuned
        model.slo = slo
        if placement == "sharded":
            shapes = [("shard", 0, width)]
            if fallback_replica:
                shapes.append(("fallback", 0, 1))
        else:
            shapes = [(f"r{i}", i, 1) for i in range(width)]
        for tag, first, w in shapes:
            group = RankGroup(f"{name}/{tag}", first, w)
            self._setup_group(model, group, fmm_kwargs)
            model.groups.append(group)
        with self._models_lock:
            self._models[name] = model
        zeros = np.zeros(model.expected)
        for group in model.groups:
            self._run_group(model, group, zeros, plan=None, deadline=None)
        return model

    def _vote_config(
        self, points, kern, width: int, slo, grid, store,
    ):
        """Collective config vote: one agreed tuned config for the group.

        Mirrors the distributed precision vote: every rank runs the
        *deterministic* cost-model-only search
        (:func:`~repro.tune.search.propose_config`) on its own point
        slice, allgathers the proposals, and applies the same reduction —
        the modal config wins, ties broken by the lexicographically
        smallest config key — so all ranks adopt one config without a
        coordinator.  Per-rank seeds differ (the rank number) so the vote
        aggregates genuinely independent probes rather than ``width``
        copies of one probe.
        """
        from collections import Counter

        from repro.tune.search import TuneConfig, default_grid, propose_config
        from repro.tune.store import resolve_config

        cands = grid if grid is not None else default_grid(len(points))

        def vote():
            winners: list = [None] * width

            def body(comm):
                local = points[comm.rank :: comm.size]
                cfg = propose_config(
                    local, kernel=kern, slo=slo, grid=cands,
                    seed=comm.rank,
                )
                proposals = [TuneConfig.from_dict(d)
                             for d in comm.allgather(cfg.to_dict())]
                counts = Counter(p.key() for p in proposals)
                winners[comm.rank] = min(
                    proposals, key=lambda p: (-counts[p.key()], p.key())
                )

            self._spmd(width, body)
            return winners[0], None

        return resolve_config(
            store, points, getattr(kern, "name", "kernel"), slo, cands,
            vote, backend=f"dist{width}",
        )[0]

    def _spmd(self, width: int, body, faults=None, deadline=None):
        """One SPMD run under CRC framing, the engine's trace and the
        anti-hang bound (tightened by a request ``deadline``).  Only
        serving dispatches pass ``faults``; control-plane runs are clean."""
        return run_spmd(
            width, body,
            faults=faults,
            integrity=True,
            timeout=self._run_timeout(deadline),
            trace=self._trace,
        )

    def _setup_group(
        self, model: DistModel, group: RankGroup, fmm_kwargs: dict
    ) -> None:
        points = model.points

        def body(comm):
            fmm = DistributedFmm(**fmm_kwargs)
            fmm.setup(comm, points[comm.rank :: comm.size])
            group.states[comm.rank] = {
                "fmm": fmm,
                "src": match_owned_rows(points, fmm.owned_points),
            }

        self._spmd(group.width, body)

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

        def body(comm, group):
            st = group.states[comm.rank]
            fmm = st["fmm"]
            fmm.rebind(comm)
            info = fmm.update_geometry(new_points[comm.rank :: comm.size])
            st["src"] = match_owned_rows(new_points, fmm.owned_points)
            infos.append(info)

        with model.lock:
            for group in model.groups:
                with group.lock:
                    self._spmd(group.width, lambda comm: body(comm, group))
                    group.clear_checkpoints()
            model.points = new_points
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
        return any(
            self.breaker(g.key).allow() for g in self._model(name).groups
        )

    def evaluate(
        self, name: str, density, deadline: float | None = None
    ) -> np.ndarray:
        """One request: potentials in global point order, or typed error.

        ``deadline`` is absolute ``time.monotonic()`` (``None`` = only
        the engine's per-dispatch timeout applies).
        """
        model = self._model(name)
        dens = check_density(name, density, (model.n_points, model.ks))
        # The one policy difference: a sharded request's retries stay on
        # its group (under its lock), a replicated one's fail over.
        pinned = (
            self._admitting(model) if model.placement == "sharded" else None
        )
        tried: list[RankGroup] = []

        def attempt(_k):
            self._check_deadline(deadline, name)
            tried.append(self._admitting(model) if pinned is None else pinned)
            return self._dispatch(model, tried[-1], dens, deadline)

        def keep_going():
            if deadline is not None and time.monotonic() > deadline:
                return False
            return self.available(name) if pinned is None else \
                self.breaker(pinned.key).allow()

        def on_retry(k, exc, delay):
            # counted on the rank the failure names, else the group's first
            rank = tried[-1].fabric_rank(exc)
            rank = tried[-1].first if rank is None else rank
            self.rank_metrics[rank].record_retry(cause_name(exc))
            record_retry_span(self._trace, rank, k, exc, delay)

        try:
            with pinned.lock if pinned is not None else nullcontext():
                return self.retry.run(attempt, keep_going, on_retry)
        except BaseException as exc:  # noqa: BLE001 - typed filter below
            if not self.retry.transient(exc):
                raise
            # Retries exhausted, breaker open or deadline passed: reject
            # typed; the *next* requests degrade to a group that admits
            # (module docstring: no cross-partition re-dispatch).
            self._check_deadline(deadline, name)
            raise ShardUnavailable(
                f"model {name!r}: {len(tried)} dispatch attempt(s) failed, "
                f"the last on {tried[-1].key}: {exc!r}"
            ) from exc

    def _check_deadline(self, deadline: float | None, name: str) -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceeded(
                f"model {name!r}: request deadline expired before a "
                f"dispatch could complete"
            )

    def _run_timeout(self, deadline: float | None) -> float:
        if deadline is None:
            return RUN_TIMEOUT_S
        return max(0.05, min(RUN_TIMEOUT_S, deadline - time.monotonic()))

    def _admitting(self, model: DistModel) -> RankGroup:
        """The group the next dispatch goes to — the first whose breaker
        admits, counting from the shard group of a sharded model (the
        fallback serves only while the shard breaker is open), round robin
        over replicas — or a typed rejection: degrade, never hang."""
        groups = model.groups
        start = next(model.turn) if model.placement == "replicated" else 0
        for off in range(len(groups)):
            group = groups[(start + off) % len(groups)]
            if self.breaker(group.key).allow():
                return group
        raise ShardUnavailable(
            f"model {model.name!r}: no rank group is admitting requests "
            f"(circuit breakers open after repeated failures; retry after "
            f"{self._breaker_cooldown:.1f}s)"
        )

    def _dispatch(
        self,
        model: DistModel,
        group: RankGroup,
        dens: np.ndarray,
        deadline: float | None,
    ) -> np.ndarray:
        """One dispatch attempt on ``group``: its answer, or the failure —
        recorded on rank health and the group's breaker — re-raised."""
        breaker = self.breaker(group.key)
        plan = self._next_plan(group)
        try:
            out = self._run_group(model, group, dens, plan, deadline)
        except BaseException as exc:
            self.health.record_failure(
                group.fabric_rank(exc),
                [group.first + w for w in getattr(exc, "wedged", ())],
                cause_name(exc),
            )
            breaker.record_failure()
            raise
        breaker.record_success()
        return out

    def _run_group(
        self,
        model: DistModel,
        group: RankGroup,
        dens: np.ndarray,
        plan: FaultPlan | None,
        deadline: float | None,
    ) -> np.ndarray:
        name, ks, kt = model.name, model.ks, model.kt

        def body(comm):
            st = group.states[comm.rank]
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
            rank = group.first + comm.rank
            self.rank_metrics[rank].record_completed(
                f"{name}@rank{rank}", time.monotonic() - t0, 0.0, 1
            )
            return pot

        with group.lock:
            t0 = time.monotonic()
            res = self._spmd(group.width, body, faults=plan, deadline=deadline)
            out = np.empty((model.n_points, kt))
            for st, pot in zip(group.states, res.values):
                out[st["src"]] = pot.reshape(-1, kt)
            group.clear_checkpoints()
        wall_s = time.monotonic() - t0
        ranks = range(group.first, group.first + group.width)
        self.health.beat(ranks)
        if self._trace is not None:
            for r in ranks:
                self._trace.record_span(
                    r, f"SERVE:heartbeat:{name}", wall_s, 0.0, 0, 0.0, 0.0
                )
        return out.reshape(-1)
