"""The in-process FMM evaluation service.

:class:`ServeEngine` turns the plan-compiled evaluator into a
long-running service for the paper's repeated-apply workloads (time
steppers, iterative solvers, many tenants sharing one machine): register
a *model* — geometry + kernel + built tree — once, then submit density
vectors from any thread and get potentials back.

The queue -> expire -> execute -> reply path — fair queue, micro-batcher,
worker pool, metrics, ``start`` / ``stop`` / ``submit`` / ``evaluate`` —
is :class:`~repro.serve.scheduler.ServeFront`, shared with the
:class:`~repro.serve.router.Router`.  This module keeps what only local
serving has:

* the **plan cache**: compiled :class:`~repro.core.plan.EvalPlan`
  objects keyed by ``model@precision``, LRU-evicted under a byte budget
  (the plan's actual, dtype-honest ``plan.nbytes`` — an fp32 plan
  charges roughly half an fp64 one), recompiled transparently on miss.
  Warm plans are what make serving cheap — an apply on a warm plan
  skips all setup.
* the **precision policy** (``_admit``): a request's plan precision is
  resolved at submit; one outside the model's ``allowed`` set is rejected.
* the **batched apply** (``_execute``): the requests the micro-batcher
  (:mod:`repro.serve.batcher`) coalesced ride one multi-RHS apply, whose
  phase tiles run on the one process-wide tile pool every model is bound
  to (:func:`~repro.core.parallel.shared_pool`).  Each column of the
  batched result is bit-identical to a solo evaluation
  (see :mod:`repro.core.contract`), so batching is invisible to callers
  except in latency.
* the **snapshot swap** (``_publish``): geometry updates and tuned-config
  swaps build off the hot path and publish between batches.

Degraded mode: construct with a :class:`~repro.mpi.faults.FaultPlan` and
worker applies run on the chaos fabric's phase hooks — injected faults
surface as typed transient errors inside the worker, which retries the
whole batch under its :class:`~repro.mpi.faults.RetryPolicy` (re-entering
a phase advances the per-(worker, phase) trigger counter, so planned
faults fire their quota and the retry converges).  Accepted requests
either complete bit-identically or fail with a typed error — never
silently wrong, never hung.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

import numpy as np

from repro.core.parallel import shared_pool
from repro.core.plan import PrecisionError
from repro.mpi.faults import ChaosFabric, FaultPlan, RetryPolicy, cause_name
from repro.serve.scheduler import Request, ServeFront, UnknownModel
from repro.util.timer import PhaseProfile

__all__ = ["PlanCache", "RegisteredModel", "ServeEngine"]

#: Default plan-cache budget: enough for a handful of mid-size models.
PLAN_BUDGET = 2 * 2**30


class ModelGeometry:
    """Immutable (points, tree+lists, fmm, version) snapshot of one model.

    Workers read ``model.geometry`` exactly once per batch and use only
    that snapshot, so :meth:`ServeEngine.update_geometry` and
    :meth:`ServeEngine.apply_tuned_config` can swap the attribute
    between batches without a reader ever seeing points from one step
    paired with a plan from another.  The ``fmm`` rides in the snapshot
    for the same reason: a tuned-config swap replaces the kernel
    configuration (order, leaf size, precision) together with the tree it
    built, and a worker must never pair an old fmm with a new tree.
    """

    __slots__ = ("points", "plan", "version", "fmm", "tuned")

    def __init__(self, points, plan, version=0, fmm=None, tuned=None):
        self.points = points
        self.plan = plan  # FmmPlan (tree + lists)
        self.version = int(version)
        self.fmm = fmm
        # The TuneConfig active for this snapshot (None untuned).  It
        # rides here — not only on the model — because its matrix
        # budget shapes the compiled plan: a worker recompiling a
        # cache-evicted plan for an *old* snapshot must use the old
        # budget, or answers under one geometry version could differ
        # bit-wise across recompiles.
        self.tuned = tuned


class RegisteredModel:
    """One served model: geometry, kernel configuration, built tree.

    ``precision`` is the model's default plan precision; ``"auto"`` is
    resolved to a concrete choice at registration time (one calibration
    probe on the model's own tree), so every submit sees ``"fp64"`` or
    ``"fp32"``.  ``allowed`` is the set of precisions per-request
    overrides may pick; anything else is rejected at submit with a typed
    :class:`~repro.core.plan.PrecisionError`.

    ``geometry`` holds the current :class:`ModelGeometry`; ``points`` and
    ``plan`` delegate to it so existing callers keep working, but any
    code pairing the two must snapshot ``geometry`` once instead.
    """

    __slots__ = ("name", "geometry", "layout", "precision",
                 "allowed", "compile_s", "update_lock", "tuned", "slo")

    @property
    def points(self):
        return self.geometry.points

    @property
    def plan(self):
        return self.geometry.plan

    @property
    def expected(self):
        """Length of one density vector."""
        n_points, ks = self.layout
        return n_points * ks

    @property
    def fmm(self):
        # lives on the geometry snapshot: a tuned-config swap replaces
        # fmm and tree together, so pairing code must snapshot geometry
        return self.geometry.fmm

    def __init__(self, name, fmm, points, precision="fp64", allowed=None):
        if precision not in ("fp64", "fp32", "auto"):
            raise PrecisionError(
                f"model {name!r}: precision must be 'fp64', 'fp32' or "
                f"'auto', got {precision!r}"
            )
        self.allowed = (
            frozenset(("fp64", "fp32")) if allowed is None
            else frozenset(allowed)
        )
        if not self.allowed or not self.allowed <= {"fp64", "fp32"}:
            raise PrecisionError(
                f"model {name!r}: allowed must be a non-empty subset of "
                f"{{'fp64', 'fp32'}}, got {sorted(self.allowed)}"
            )
        self.name = name
        pts = np.asarray(points, dtype=np.float64)
        self.geometry = ModelGeometry(pts, fmm.plan(pts), version=0, fmm=fmm)
        self.layout = (self.plan.tree.n_points, fmm.kernel.source_dim)
        self.compile_s = None  # from-scratch plan-compile baseline
        self.update_lock = threading.Lock()  # serialises update_geometry
        self.tuned = None  # active TuneConfig (autotuned models only)
        self.slo = None  # the SLO the model was tuned against
        if precision == "auto":
            precision = fmm.evaluator.resolve_auto(self.plan.tree)
            if precision not in self.allowed:
                # the calibrated pick is disallowed: snap to what is
                # (fp64 wins ties — it always meets the error target)
                precision = "fp64" if "fp64" in self.allowed else "fp32"
        elif precision not in self.allowed:
            raise PrecisionError(
                f"model {name!r}: default precision {precision!r} is not "
                f"in allowed {sorted(self.allowed)}"
            )
        self.precision = precision


class PlanCache:
    """LRU cache of compiled :class:`~repro.core.plan.EvalPlan` objects.

    Entries are charged their ``plan.nbytes`` at insert: the bytes the
    plan reserved at compile, which its first request fills and no later
    one grows, so that is what it weighs for as long as it is cached.
    Compilation runs outside the cache lock under a per-model lock, so
    two workers missing on the same model produce one compile while other
    models stay servable; eviction never removes the entry being
    inserted, so a single over-budget plan still serves (the cache just
    holds nothing else).
    """

    def __init__(self, budget_bytes: int = PLAN_BUDGET, metrics=None):
        self.budget = int(budget_bytes)
        self._metrics = metrics
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, tuple[object, int]] = OrderedDict()
        self._compile_locks: dict[str, threading.Lock] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    @property
    def nbytes(self) -> int:
        with self._lock:
            return sum(nb for _, nb in self._entries.values())

    def entries(self) -> dict[str, int]:
        """Charged bytes per cached key (a point-in-time snapshot)."""
        with self._lock:
            return {k: nb for k, (_, nb) in self._entries.items()}

    def invalidate(self, name: str) -> None:
        with self._lock:
            self._entries.pop(name, None)

    def invalidate_prefix(self, prefix: str) -> None:
        """Drop every entry whose key starts with ``prefix`` (all stale
        geometry versions / precisions of one model at once)."""
        with self._lock:
            for key in [k for k in self._entries if k.startswith(prefix)]:
                del self._entries[key]

    def peek(self, name: str):
        """The cached plan for ``name`` or ``None`` — no compile, no
        metrics (geometry patching inspects the old version this way)."""
        with self._lock:
            hit = self._entries.get(name)
            return None if hit is None else hit[0]

    def put(self, name: str, plan) -> None:
        """Insert ``plan`` under ``name``, evicting LRU entries over
        budget (never the fresh insert itself)."""
        nb = plan.nbytes
        with self._lock:
            self._entries[name] = (plan, nb)
            self._entries.move_to_end(name)
            total = sum(b for _, b in self._entries.values())
            while total > self.budget and len(self._entries) > 1:
                evicted, (_, eb) = self._entries.popitem(last=False)
                if evicted == name:  # never evict the fresh insert
                    self._entries[name] = (plan, nb)
                    self._entries.move_to_end(name, last=False)
                    break
                total -= eb

    def get(self, name: str, compile_fn):
        """The cached plan for ``name``, compiling via ``compile_fn`` on miss."""
        with self._lock:
            hit = self._entries.get(name)
            if hit is not None:
                self._entries.move_to_end(name)
                if self._metrics is not None:
                    self._metrics.record_plan_lookup(True)
                return hit[0]
            if self._metrics is not None:
                self._metrics.record_plan_lookup(False)
            clock = self._compile_locks.setdefault(name, threading.Lock())
        with clock:
            with self._lock:  # a racing worker may have compiled meanwhile
                hit = self._entries.get(name)
                if hit is not None:
                    self._entries.move_to_end(name)
                    return hit[0]
            plan = compile_fn()
            self.put(name, plan)
            return plan


class ServeEngine(ServeFront):
    """Batching, admission-controlled FMM evaluation service.

    Parameters
    ----------
    n_workers:
        Worker threads: each coordinates one batch's apply at a time, and
        their phase tiles share the engine's tile pool.
    max_queue:
        Admission bound; :meth:`submit` raises
        :class:`~repro.serve.scheduler.Overloaded` beyond it.
    max_batch / max_wait_ms:
        Micro-batching flush triggers (see
        :class:`~repro.serve.batcher.MicroBatcher`).
    plan_budget:
        Byte budget of the :class:`PlanCache`.
    faults / retry:
        Optional :class:`~repro.mpi.faults.FaultPlan` (degraded-mode
        chaos on the worker applies) and the
        :class:`~repro.mpi.faults.RetryPolicy` bounding recovery.
    trace:
        Optional :class:`~repro.perf.trace.TraceRecorder`; workers emit
        ``SERVE:apply:<model>`` spans plus the usual per-phase spans.
    threads:
        Intra-rank parallelism for the worker applies: every registered
        model's evaluator routes its plan tiles through **one**
        process-wide :func:`~repro.core.parallel.shared_pool` of this
        width, whatever width the model's ``Fmm`` was built with —
        workers coordinate on the shared executor instead of nesting
        per-model pools, so total compute threads stay bounded at that
        width no matter how many workers are mid-apply.  The thread
        budget (:func:`~repro.core.parallel.rank_pool_size`) sizes it:
        every usable core with ``None`` (default), else ``threads``
        capped at them.  Results are bit-identical at any width.
    """

    def __init__(
        self,
        n_workers: int = 2,
        max_queue: int = 64,
        max_batch: int = 8,
        max_wait_ms: float = 2.0,
        plan_budget: int = PLAN_BUDGET,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        trace=None,
        matrix_budget: int | None = None,
        threads: int | None = None,
    ):
        #: Per-model (max_batch, max_wait_ms) overrides — the autotuner
        #: owns a model's batch shape; untouched models use the engine
        #: defaults.
        self._batch_limits: dict[str, tuple[int, float]] = {}
        super().__init__(
            n_workers, max_queue, max_batch=max_batch, max_wait_ms=max_wait_ms,
            limits=self._batch_limits.get,
        )
        self.task_pool = shared_pool(threads)
        self.threads = self.task_pool.threads
        self.metrics.bind_pools(task_pool=self.task_pool.stats)
        self.plans = PlanCache(plan_budget, metrics=self.metrics)
        self.retry = retry if retry is not None else RetryPolicy()
        #: Kernel-matrix cache budget per compiled plan (None = the
        #: compiler default).  Serving throughput lives on fully cached
        #: near-field blocks, so benches raise this well past the
        #: single-shot default.
        self.matrix_budget = matrix_budget
        self._models: dict[str, RegisteredModel] = {}
        self._models_lock = threading.Lock()
        # per-model tuning context (grid/store) for re-tunes
        self._tune_ctx: dict[str, dict] = {}
        self._monitors: dict[str, object] = {}
        self._trace = trace
        self._fabric = (
            ChaosFabric(n_workers, faults) if faults is not None else None
        )
        self._profiles = [PhaseProfile() for _ in range(n_workers)]
        for rank, prof in enumerate(self._profiles):
            if trace is not None:
                prof.bind_trace(trace, rank=rank)
            if self._fabric is not None:
                prof.bind_chaos(self._fabric.on_phase, rank=rank)
        if self._fabric is not None:
            self._fabric.bind(self._profiles, trace)

    def stop(self) -> None:
        """Stop the SLO monitors, then :meth:`ServeFront.stop`.

        The tile pool is process-wide and outlives the engine: the next
        engine at the same width reuses its threads.
        """
        for mon in self._monitors.values():
            mon.stop()
        super().stop()

    @property
    def fault_events(self):
        """Injected-fault log (empty when no FaultPlan was configured)."""
        return self._fabric.fault_events if self._fabric is not None else []

    # -- models ------------------------------------------------------------

    def register(
        self,
        name: str,
        fmm,
        points,
        warm: bool = True,
        precision: str = "fp64",
        allowed=None,
        slo=None,
        store=None,
        tune_grid=None,
    ):
        """Register ``name`` as (kernel config, geometry); builds the tree
        now and, with ``warm``, compiles its evaluation plan into the
        cache so the first request already runs at amortised speed.

        ``precision`` sets the model's default plan precision (``"auto"``
        calibrates once, now); ``allowed`` restricts the per-request
        overrides (e.g. ``{"fp32"}`` for an fp32-only model — fp64
        requests then fail typed at submit).

        ``slo`` (a :class:`repro.tune.search.SLO`) turns the autotuner
        on: ``fmm`` becomes a *template* (kernel, M2L mode, eval kernel)
        and the search picks order, leaf size, precision and batch shape
        against the SLO, consulting ``store`` (a
        :class:`repro.tune.store.TuneStore`) first and persisting a fresh
        result into it.  ``tune_grid`` is the search's grid (default
        :func:`repro.tune.search.default_grid`); online re-tunes
        (:meth:`retune`) search it again.  The search is seeded with 0 and
        measures its shortlist.
        """
        tuned = None
        if slo is not None:
            fmm, tuned = self._tune_at_register(
                name, fmm, points, allowed, slo, store, tune_grid
            )
            precision = fmm.evaluator.precision
        self._bind_pool(fmm)
        model = RegisteredModel(
            name, fmm, points, precision=precision, allowed=allowed
        )
        if tuned is not None:
            model.slo = slo
            # not yet published to _models: safe to stamp the snapshot
            model.tuned = model.geometry.tuned = tuned
            self._batch_limits[name] = (tuned.max_batch, tuned.max_wait_ms)
        with self._models_lock:
            self._models[name] = model
        # stale plans of a replaced model, all precisions and versions
        self.plans.invalidate_prefix(f"{name}@")
        self.plans.invalidate_prefix(f"{name}#g")
        if warm:
            t0 = time.perf_counter()
            self._plan_for(model)
            # the from-scratch compile baseline patch_fraction divides by
            model.compile_s = time.perf_counter() - t0
        return model

    def _tune_at_register(
        self, name, template, points, allowed, slo, store, tune_grid
    ):
        """Resolve the tuned config for a new model (store hit or search)
        and build the tuned Fmm from the template's kernel setup."""
        from repro.tune.search import default_grid

        pts = np.asarray(points, dtype=np.float64)
        grid = tune_grid if tune_grid is not None else default_grid(len(pts))
        if allowed is not None:  # the tuner must honour the precision policy
            grid = [c for c in grid if c.precision in set(allowed)]
            if not grid:
                raise PrecisionError(
                    f"model {name!r}: tuning grid has no config with an "
                    f"allowed precision ({sorted(set(allowed))})"
                )
        self._tune_ctx[name] = {"grid": grid, "store": store}
        config, _ = self._resolve_tuned(name, pts, template.kernel, slo)
        return self._fmm_like(template, config), config

    def _resolve_tuned(self, name, points, kernel, slo, refresh=False):
        """``(config, report dict)`` for ``name`` under its tuning context
        (:func:`repro.tune.store.resolve_config`: stored, else searched)."""
        from repro.tune.search import tune as tune_search
        from repro.tune.store import resolve_config

        ctx = self._tune_ctx[name]

        def search():
            report = tune_search(points, kernel=kernel, slo=slo, grid=ctx["grid"])
            return report.config, report.to_dict()

        return resolve_config(
            ctx["store"], points, getattr(kernel, "name", "kernel"), slo,
            ctx["grid"], search, refresh=refresh,
        )

    def _bind_pool(self, fmm) -> None:
        """Route ``fmm``'s plan applies through the engine's shared tile
        pool: a model's own pool never runs under a worker."""
        fmm.evaluator.set_pool(self.task_pool)

    @staticmethod
    def _fmm_like(template, config):
        """A fresh :class:`~repro.core.fmm.Fmm` with ``config``'s knobs and
        ``template``'s kernel setup (kernel, M2L mode, eval kernel)."""
        from repro.core.fmm import Fmm

        ev = template.evaluator
        return Fmm(
            template.kernel,
            order=config.order,
            max_points_per_box=config.max_points,
            m2l_mode=ev.m2l_mode,
            eval_kernel=ev.eval_kernel,
            precision=config.precision,
        )

    def models(self) -> list[str]:
        with self._models_lock:
            return sorted(self._models)

    def _model(self, name: str) -> RegisteredModel:
        with self._models_lock:
            model = self._models.get(name)
        if model is None:
            raise UnknownModel(
                f"model {name!r} is not registered (have: {self.models()})"
            )
        return model

    @staticmethod
    def _plan_key(name: str, version: int, precision: str) -> str:
        """Cache key for one (model, geometry version, precision)."""
        base = name if version == 0 else f"{name}#g{version}"
        return f"{base}@{precision}"

    def _compile_kwargs(self, geom: ModelGeometry) -> dict:
        """Compile / patch keywords for plans of ``geom``: the tuned
        config's matrix budget, else the engine's, else the default."""
        if geom.tuned is not None:
            return {"matrix_budget": geom.tuned.matrix_budget}
        if self.matrix_budget is not None:
            return {"matrix_budget": self.matrix_budget}
        return {}

    def _plan_for(
        self,
        model: RegisteredModel,
        precision: str | None = None,
        geom: ModelGeometry | None = None,
    ):
        geom = model.geometry if geom is None else geom
        kwargs = self._compile_kwargs(geom)
        precision = model.precision if precision is None else precision

        def compile_fn():
            return geom.fmm.compile_eval_plan(
                geom.plan, precision=precision, **kwargs
            )

        # plans of the same model at different precisions (and geometry
        # versions) are distinct cache entries, each charged its own
        # (dtype-honest) byte count
        return self.plans.get(
            self._plan_key(model.name, geom.version, precision),
            compile_fn,
        )

    def plan_stats(self) -> dict:
        """Per-model active config and cached plan bytes (metrics export)."""
        with self._models_lock:
            models = dict(self._models)
        cached = self.plans.entries()
        out = {}
        for name, model in models.items():
            geom = model.geometry
            version = geom.version
            batch, wait = self._batch_limits.get(
                name, (self.max_batch, self.batcher.max_wait_s * 1e3)
            )
            out[name] = {
                "precision": model.precision,
                "allowed": sorted(model.allowed),
                "geometry_version": version,
                # the active config: what the tuner (or the caller) chose
                "config": {
                    "order": geom.fmm.order,
                    "max_points": geom.fmm.max_points_per_box,
                    "precision": model.precision,
                    "max_batch": int(batch),
                    "max_wait_ms": float(wait),
                    "tuned": (
                        model.tuned.to_dict()
                        if model.tuned is not None else None
                    ),
                    "slo": (
                        model.slo.to_dict() if model.slo is not None
                        else None
                    ),
                },
                "plan_bytes": {
                    prec: cached[self._plan_key(name, version, prec)]
                    for prec in ("fp64", "fp32")
                    if self._plan_key(name, version, prec) in cached
                },
            }
        return out

    # -- dynamic geometry ----------------------------------------------------

    def update_geometry(self, name: str, new_points, moved=None) -> dict:
        """Move ``name``'s sources and patch its plans off the hot path.

        ``new_points`` is the full point array in the model's original
        point order (same shape — rebuild via :meth:`register` for
        insertions or deletions); ``moved`` optionally names the rows
        that changed (it sets the reported ``n_moved``).  The tree is
        rebuilt and diffed against the old one, the lists are rebuilt when
        the octant set changed, and every cached evaluation plan is
        re-derived by :func:`~repro.core.plan.patch_plan` — bit-identical
        to a fresh compile but reusing each kernel-matrix block whose
        boxes survived untouched.  All of that happens *here*, concurrently
        with serving: workers keep evaluating on the old geometry
        snapshot until the atomic swap, so in-flight batches finish on
        the plan they started with and the next batch sees the new
        geometry.  Returns a summary dict (patch seconds, reuse stats,
        new version).
        """
        model = self._model(name)
        new_points = np.asarray(new_points, dtype=np.float64)
        with model.update_lock:  # one geometry update at a time per model
            old = model.geometry
            t0 = time.perf_counter()
            new_plan, delta = model.fmm.update_plan(
                old.plan, new_points, moved=moved
            )
            version = old.version + 1
            kwargs = self._compile_kwargs(old)
            patched = {}
            stats = {}
            for prec in ("fp64", "fp32"):
                old_eval = self.plans.peek(
                    self._plan_key(name, old.version, prec)
                )
                if old_eval is None:
                    continue  # cold precision: recompiles lazily on demand
                ep = model.fmm.patch_eval_plan(
                    old_eval, old.plan, new_plan, delta=delta,
                    precision=prec, **kwargs,
                )
                patched[prec] = ep
                stats[prec] = dict(ep.patch_stats)
            self._publish(model, ModelGeometry(
                new_points, new_plan, version, fmm=old.fmm, tuned=old.tuned
            ), patched)
            patch_s = time.perf_counter() - t0
            fraction = (
                patch_s / model.compile_s if model.compile_s else None
            )
            self.metrics.record_geometry_update(name, patch_s, fraction)
        return {
            "version": version,
            "patch_s": patch_s,
            "patch_fraction": fraction,
            "n_moved": int(delta.n_moved) if delta.n_moved >= 0 else None,
            "refinement_changed": bool(delta.refinement_changed),
            "plans_patched": sorted(patched),
            "patch_stats": stats,
        }

    def _publish(self, model, geom: ModelGeometry, plans: dict) -> None:
        """Make ``geom`` (with its compiled ``plans``, by precision) the
        model's snapshot.  Order matters: insert the new-version plans,
        swap the snapshot, then drop the old keys — a racing worker sees
        (old geom, old plan) or (new geom, new plan), never a torn pair,
        and an evicted new-version plan merely recompiles on first use."""
        old = model.geometry
        for prec, ep in plans.items():
            self.plans.put(self._plan_key(model.name, geom.version, prec), ep)
        model.geometry = geom
        self.plans.invalidate_prefix(self._plan_key(model.name, old.version, ""))

    # -- online autotuning ---------------------------------------------------

    def apply_tuned_config(self, name: str, config, report=None) -> dict:
        """Swap ``name`` onto ``config`` atomically, off the hot path.

        Builds the tuned Fmm, its tree and its evaluation plan *before*
        publishing anything, then performs the same batch-boundary
        snapshot swap as :meth:`update_geometry`: plans for the new
        version enter the cache first, the geometry snapshot (which
        carries the new fmm) swaps second, stale keys drop last.  Workers
        mid-batch keep the old snapshot — their answers stay bit-exact
        for the config version they started under — and the next batch
        sees the new config.
        """
        model = self._model(name)
        with model.update_lock:
            old = model.geometry
            if model.tuned is not None and config == model.tuned:
                return {"version": old.version, "swapped": False}
            t0 = time.perf_counter()
            new_fmm = self._fmm_like(old.fmm, config)
            self._bind_pool(new_fmm)
            new_plan = new_fmm.plan(old.points)
            version = old.version + 1
            geom = ModelGeometry(
                old.points, new_plan, version, fmm=new_fmm, tuned=config
            )
            ep = new_fmm.compile_eval_plan(
                new_plan, precision=config.precision,
                **self._compile_kwargs(geom),
            )
            self._publish(model, geom, {config.precision: ep})
            model.tuned = config
            model.precision = config.precision
            self._batch_limits[name] = (config.max_batch, config.max_wait_ms)
            swap_s = time.perf_counter() - t0
            self.metrics.record_config_swap(name, swap_s)
        return {
            "version": version,
            "swapped": True,
            "tune_s": swap_s,
            "config": config.to_dict(),
            "report": report.to_dict() if report is not None else None,
        }

    def retune(self, name: str, observed_s: float | None = None) -> dict:
        """Bounded off-hot-path re-tune of ``name`` against its SLO.

        The monitor calls this on sustained drift; operators can call it
        directly.  Probes run in the calling thread (never a worker), the
        swap is atomic, and the tuned store — if one was given at
        registration — is refreshed under the model's *current* geometry
        fingerprint.
        """
        model = self._model(name)
        if model.slo is None:
            raise ValueError(
                f"model {name!r} was not registered with an SLO; "
                f"nothing to retune against"
            )
        geom = model.geometry
        config, report = self._resolve_tuned(
            name, geom.points, geom.fmm.kernel, model.slo, refresh=True
        )
        result = self.apply_tuned_config(name, config)
        result["report"] = report
        result["observed_s"] = observed_s
        return result

    def start_monitor(
        self,
        name: str,
        interval_s: float = 1.0,
        sustain: int = 3,
        cooldown_s: float = 30.0,
    ):
        """Attach (and start) an SLO drift monitor for ``name``.

        Returns the :class:`repro.tune.monitor.SloMonitor`; it polls the
        sliding-window latency percentile and calls :meth:`retune` on
        sustained drift.  Stopped automatically by :meth:`stop`.
        """
        from repro.tune.monitor import SloMonitor

        model = self._model(name)
        if model.slo is None:
            raise ValueError(
                f"model {name!r} was not registered with an SLO"
            )
        mon = self._monitors.get(name)
        if mon is not None:
            mon.stop()
        mon = SloMonitor(
            self.metrics, name, model.slo,
            retune=lambda m, p: self.retune(m, observed_s=p),
            interval_s=interval_s, sustain=sustain, cooldown_s=cooldown_s,
        )
        self._monitors[name] = mon
        return mon.start()

    # -- submission --------------------------------------------------------

    def layout(self, model: str) -> tuple[int, int]:
        return self._model(model).layout

    def _admit(self, model: str, precision):
        """The precision policy: resolve the request's plan precision and
        reject one outside the model's ``allowed`` set."""
        m = self._model(model)
        if precision is None or precision == "auto":
            precision = m.precision
        elif precision not in ("fp64", "fp32"):
            raise PrecisionError(
                f"precision must be 'fp64', 'fp32' or 'auto', "
                f"got {precision!r}"
            )
        if precision not in m.allowed:
            raise PrecisionError(
                f"model {model!r} does not allow precision {precision!r} "
                f"(allowed: {sorted(m.allowed)})"
            )
        return precision

    def submit(
        self,
        model: str,
        density: np.ndarray,
        tenant: str = "default",
        timeout_s: float | None = None,
        precision: str | None = None,
    ) -> Request:
        """:meth:`ServeFront.submit` with a per-request plan precision.

        ``precision`` overrides the model's default plan precision for
        this request (``"auto"`` defers to the model's calibrated
        choice); a precision outside the model's ``allowed`` set raises
        :class:`~repro.core.plan.PrecisionError` at submit — e.g. an
        fp64 request against an fp32-only model is rejected typed, never
        silently evaluated at the wrong precision.
        """
        return self._submit(model, density, tenant, timeout_s, precision)

    def evaluate(
        self,
        model: str,
        density: np.ndarray,
        tenant: str = "default",
        timeout_s: float | None = None,
        precision: str | None = None,
    ) -> np.ndarray:
        """Blocking :meth:`submit` + result."""
        return self._wait(
            self.submit(model, density, tenant, timeout_s, precision),
            timeout_s,
        )

    # -- workers -----------------------------------------------------------

    def _execute(self, worker_id: int, live: list) -> list:
        """One multi-RHS apply for the batch, retried whole on a typed
        transient fault under ``self.retry``."""
        model = self._model(live[0].model)
        precision = live[0].precision  # batches never mix precisions
        profile = self._profiles[worker_id]
        dens_block = np.stack([r.density for r in live], axis=1)
        # One geometry snapshot for the whole batch: points, tree/lists,
        # the fmm and the compiled plan all come from it, so a concurrent
        # update_geometry or tuned-config swap cannot tear the set
        # mid-batch.
        geom = model.geometry

        def apply(_k):
            eval_plan = self._plan_for(model, precision, geom)
            with profile.phase(f"SERVE:apply:{model.name}"):
                return geom.fmm.evaluate(
                    geom.points,
                    dens_block,
                    plan=geom.plan,
                    eval_plan=eval_plan,
                    profile=profile,
                )

        pot = self.retry.run(
            apply,
            on_retry=lambda k, exc, delay: self.metrics.record_retry(
                cause_name(exc)
            ),
        )
        return [np.ascontiguousarray(pot[:, j]) for j in range(len(live))]
