"""Sequential FMM evaluation (paper Algorithm 1).

Phases, matching the paper's naming:

=========  =================================================================
``S2U``    source-to-up: leaf sources -> upward equivalent densities
``U2U``    up-to-up: post-order accumulation of children into parents (M2M)
``VLI``    V-list: up densities -> downward check potentials (M2L)
``XLI``    X-list: leaf sources -> downward check potentials
``D2D``    down-to-down: pre-order parent-to-child propagation (L2L) and
           conversion of accumulated check potentials to down densities
``WLI``    W-list: up densities evaluated directly at target points
``D2T``    down-to-targets: down densities -> potentials (L2T)
``ULI``    U-list: direct (exact) near-field summation
=========  =================================================================

The evaluator owns no tree state: it maps ``(tree, lists, densities)`` to
potentials, charging flops to an optional :class:`PhaseProfile`.  The
arithmetic of every phase lives in one place, the ``apply_*`` methods of a
compiled :class:`~repro.core.plan.EvalPlan`; the eight phase methods here
hand the plan this evaluator's task pool (all but U2U and D2D, which run
on the caller) and nothing else.  They are the interface a backend
overrides (the GPU evaluator runs four of them, six with
``accelerate_wx``, as the same plan's applies read at float32), and the
one the distributed driver calls with its ownership-scoped plan.

:meth:`evaluate` finds the plan itself when the caller passes none: the
first call on a ``(tree, lists)`` pair compiles the plan every later call
reuses and applies it without keeping a kernel block (each evaluated
chunk by chunk and discarded), the second consecutive call fills its
blocks.  One-shot evaluations therefore never hold a matrix cache, and
repeated applies amortise one compile.

:meth:`evaluate_targets` is the same evaluation at separate targets: a
target tree over the source tree's nodes, which the plan's target-side
sections (WLI, D2T, ULI) read and those phase methods receive.  Its plan
is cached beside the tree's, keyed by the targets' fingerprint.
"""

from __future__ import annotations

import operator
import threading
import weakref
from dataclasses import replace

import numpy as np

from repro.core.fft_m2l import FftM2L
from repro.core.lists import InteractionLists
from repro.core.operators import OperatorCache
from repro.core.parallel import TaskPool, rank_pool_size
from repro.core.tree import FmmTree, tree_from_nodes
from repro.kernels.base import Kernel, density_layout
from repro.util import morton
from repro.util.geometry import unit_cube_points
from repro.util.timer import PhaseProfile

__all__ = ["FmmEvaluator", "integer_arg"]


def integer_arg(value, name: str) -> int:
    """``value`` as an ``int`` if it is an integer (NumPy integers too), else
    a ``ValueError`` naming ``name`` — ``int()`` would truncate 1.5 to 1."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


class FmmEvaluator:
    """Evaluates the N-body sum on a built tree via the KIFMM.

    Parameters
    ----------
    kernel, order:
        Interaction kernel and surface order (accuracy).
    m2l_mode:
        ``"fft"`` (default; the paper's diagonal translation) or
        ``"dense"`` (ablation baseline).
    eval_kernel:
        Optional second kernel for the *target-side* phases (D2T, W-list,
        U-list): the expansions reproduce the potential field, so
        evaluating them with e.g. the Laplace gradient kernel yields
        forces from the same pass.  Must share the base kernel's
        ``source_dim``.  Default: the base kernel itself.
    precision:
        Arithmetic precision of the plans this evaluator compiles:
        ``"fp64"`` (default), ``"fp32"`` (float32 GEMM phases / complex64
        V-list; accumulators stay float64), or ``"auto"`` (resolved once
        by :meth:`resolve_auto`: the tuner's calibration probe picks the
        cheapest precision meeting ``precision_rtol``).
    precision_rtol:
        Relative-error target for ``precision="auto"`` (default
        :data:`repro.tune.probe.DEFAULT_PRECISION_RTOL`).
    threads:
        Width of the task pool plan applies run their phase tiles on
        (:mod:`repro.core.parallel`).  ``None`` (default) takes every
        usable core, and a larger ``threads`` is capped at them
        (:func:`~repro.core.parallel.rank_pool_size`); ``1`` runs the
        tiles inline.  Bit-identical at any width.
    """

    def __init__(
        self,
        kernel: Kernel,
        order: int,
        m2l_mode: str = "fft",
        eval_kernel: Kernel | None = None,
        precision: str = "fp64",
        precision_rtol: float | None = None,
        threads: int | None = None,
    ):
        from repro.core.plan import VALID_PRECISIONS, PrecisionError

        if m2l_mode not in ("fft", "dense"):
            raise ValueError("m2l_mode must be 'fft' or 'dense'")
        if precision not in VALID_PRECISIONS:
            raise PrecisionError(
                f"precision must be one of {VALID_PRECISIONS}, got {precision!r}"
            )
        self.kernel = kernel
        self.eval_kernel = kernel if eval_kernel is None else eval_kernel
        if self.eval_kernel.source_dim != kernel.source_dim:
            raise ValueError(
                "eval_kernel must share the base kernel's source_dim"
            )
        self.order = integer_arg(order, "order")
        self.m2l_mode = m2l_mode
        self.precision = precision
        self.precision_rtol = precision_rtol
        self.ops = OperatorCache(kernel, order)
        self.fft = FftM2L(kernel, order) if m2l_mode == "fft" else None
        self.ns = self.ops.n_surf
        # Lazy plan cache: weakrefs to the last-seen tree/lists, the target
        # fingerprint the last call on them brought (None: their own points)
        # and a box holding the compiled plans (``"plan"``, and
        # ``"targets"`` for evaluate_targets).  Guarded by
        # ``_plan_lock``: concurrent evaluates of one shared evaluator must
        # agree on a single compile per (tree, lists).  The one writer
        # outside the lock is the tree weakref's callback, which empties
        # the box it was created with — and touches nothing else, because
        # it can fire inside a garbage collection on a thread that holds
        # the lock.
        self._plan_tree = None
        self._plan_lists = None
        self._plan_last = ()  # no call yet
        self._plan_box: dict = {}
        self._plan_lock = threading.Lock()
        # "auto" resolves once per evaluator (first workload wins) under
        # its own lock — _cached_plan holds _plan_lock, so the probe must
        # not nest inside it.
        self._auto_choice = None
        self._auto_lock = threading.Lock()
        # Intra-rank parallelism: plan applies run their phase tiles on a
        # TaskPool ``threads`` wide, the thread budget's width by default.
        # The pool may also be an externally owned shared executor, bound
        # by the serving engine via :meth:`set_pool`.
        self._pool_owned = False
        self._pool_lock = threading.Lock()
        self.configure_threads(threads)

    # -- intra-rank parallelism --------------------------------------------

    @property
    def threads(self) -> int:
        """Task-pool width."""
        return self._pool.threads

    @property
    def task_pool(self) -> TaskPool:
        """The pool the phase methods pass to the plan: the one
        :meth:`set_pool` bound, else this evaluator's own (which starts
        its threads on its first pooled run)."""
        return self._pool

    def set_pool(self, pool) -> None:
        """Route tile work through an externally owned pool, shutting
        this evaluator's own down.

        The serving engine calls this so every model shares one
        process-wide executor instead of nesting per-model pools under
        the worker pool.
        """
        with self._pool_lock:
            if self._pool_owned:
                self._pool.shutdown()
            self._pool, self._pool_owned = pool, False

    def configure_threads(self, threads: int | None) -> None:
        """Re-size the evaluator's own pool to the thread budget's width
        for one process (:func:`~repro.core.parallel.rank_pool_size`):
        every usable core with ``None``, else ``threads`` capped at them."""
        width = rank_pool_size(threads)
        with self._pool_lock:
            if self._pool_owned:
                self._pool.shutdown()
            self._pool, self._pool_owned = TaskPool(width, name="fmm"), True

    # -- plans -------------------------------------------------------------

    def compile_plan(self, tree, lists, scopes=None, precision=None, **kwargs):
        """Compile an :class:`~repro.core.plan.EvalPlan` for this evaluator.

        ``scopes`` (a :class:`~repro.core.plan.PlanScopes`) bakes
        distributed ownership masks into the plan; ``kwargs`` forward to
        :func:`repro.core.plan.compile_plan` (e.g. ``matrix_budget``,
        ``targets``).  ``precision`` defaults to the evaluator's
        own; ``"auto"`` is resolved here (:meth:`resolve_auto`).
        """
        from repro.core.plan import compile_plan

        precision = self._effective_precision(tree, None, precision)
        return compile_plan(
            self, tree, lists, scopes=scopes, precision=precision, **kwargs
        )

    def patch_plan(
        self, old_plan, old_tree, old_lists, tree, lists,
        delta=None, scopes=None, precision=None, **kwargs,
    ):
        """Recompile only the dirty sections of ``old_plan`` for ``tree``.

        Produces a plan bit-identical to ``compile_plan(tree, lists)``
        while reusing every kernel-matrix block whose source/target boxes
        survived the geometry change untouched (see
        :func:`repro.core.plan.patch_plan`).  ``delta`` is the
        :class:`~repro.core.tree.TreeDelta` from
        :func:`~repro.core.tree.diff_trees`; omitted, it
        is derived by content diffing.  ``precision`` defaults to the old
        plan's own (``"auto"`` resolves via :meth:`resolve_auto`).
        """
        from repro.core.plan import patch_plan

        if precision == "auto":
            precision = self.resolve_auto(tree)
        return patch_plan(
            self, old_plan, old_tree, old_lists, tree, lists,
            delta=delta, scopes=scopes, precision=precision, **kwargs,
        )

    def resolve_auto(self, tree, profile=None, vote=None) -> str:
        """The concrete precision ``"auto"`` stands for: the one resolver.

        The first call runs :func:`repro.tune.probe.autotune_precision`
        on a subsample of ``tree``'s points (a ``setup:precision`` span of
        ``profile``); the first workload decides for the evaluator's
        lifetime.  ``vote`` maps the pick to the one adopted (the
        distributed unanimity vote), which then replaces it.
        """
        with self._auto_lock:
            if self._auto_choice is None:
                from repro.tune.probe import autotune_precision

                profile = PhaseProfile() if profile is None else profile
                with profile.phase("setup:precision"):
                    self._auto_choice = autotune_precision(
                        tree.points,
                        kernel=self.kernel,
                        order=self.order,
                        rtol=self.precision_rtol,
                        m2l_mode=self.m2l_mode,
                        eval_kernel=self.eval_kernel,
                    ).best
            choice = self._auto_choice
        if vote is not None:
            choice = self._auto_choice = vote(choice)
        return choice

    def _effective_precision(self, tree, profile, override=None):
        """Concrete precision for one evaluate call.

        ``override`` (a per-call ``precision=`` argument) beats the
        evaluator default; ``"auto"`` triggers the one-time probe.
        """
        from repro.core.plan import VALID_PRECISIONS, PrecisionError

        prec = self.precision if override is None else override
        if prec not in VALID_PRECISIONS:
            raise PrecisionError(
                f"precision must be one of {VALID_PRECISIONS}, got {prec!r}"
            )
        if prec == "auto":
            prec = self.resolve_auto(tree, profile)
        return prec

    @property
    def _plan_obj(self):
        """The lazily compiled plan, or ``None`` (none yet, or its tree died)."""
        return self._plan_box.get("plan")

    def _cached_plan(self, tree, lists, profile, precision, targets):
        """Plan for an evaluate call that brought none.

        The first call that brings a ``(tree, lists)`` pair and a target
        set compiles the plan and keeps it; it applies a no-fill view of
        it, which evaluates every kernel block and keeps none, so a
        one-shot evaluation never holds its blocks.  The next consecutive
        call with the same targets applies the plan itself, which fills
        its reserved blocks, and every later call reuses them — one
        compile per geometry.  A cached plan at a different precision is
        discarded and recompiled (per-call overrides flip precision
        mid-stream), and the cache holds its tree weakly: when the caller
        drops the tree, the plan goes with it.  ``targets`` other than
        ``tree`` (a target tree, see :meth:`evaluate_targets`) asks for the
        plan of that target set, kept beside the full one and keyed by the
        targets' fingerprint; a call with another set replaces it, so a
        stream of different target sets never fills a matrix block.

        The compile is charged to the ``setup:plan`` span so traces and
        the perf model can separate amortisable setup from apply work, and
        runs under ``_plan_lock``: two threads evaluating the same pair
        must produce exactly one compile (later callers block briefly,
        then reuse it) and must not race the weakref bookkeeping into
        re-compiling or dropping a live plan.
        """
        from repro.core.plan import target_fingerprint

        slot, key = "plan", None
        if targets is not tree:
            slot, key = "targets", target_fingerprint(targets)
        with self._plan_lock:
            tr = self._plan_tree() if self._plan_tree is not None else None
            lr = self._plan_lists() if self._plan_lists is not None else None
            if tr is not tree or lr is not lists:
                box = self._plan_box = {}
                self._plan_tree = weakref.ref(tree, lambda _ref: box.clear())
                self._plan_lists = weakref.ref(lists)
                self._plan_last = ()
            repeat, self._plan_last = self._plan_last == key, key
            plan = self._plan_box.get(slot)
            if plan is None or (plan.precision, plan.target_fingerprint) != (precision, key):
                with profile.phase("setup:plan"):
                    plan = self._plan_box[slot] = self.compile_plan(
                        tree, lists, precision=precision, targets=targets
                    )
        return plan if repeat else replace(plan, _fill=False)

    def _resolve_plan(self, tree, lists, profile, plan, precision, targets):
        """Shared plan/precision resolution for the evaluate entry points.

        Returns the plan to apply and records its precision on the
        profile.  An explicit plan's own precision wins unless an explicit
        override contradicts it; without a plan the lazy cache supplies
        one at the effective precision, for the tree ``targets``.
        """
        from repro.core.plan import PrecisionError

        if plan is None:
            eff = self._effective_precision(tree, profile, precision)
            plan = self._cached_plan(tree, lists, profile, eff, targets)
        else:
            plan.check(tree)
            if precision is not None:
                eff = self._effective_precision(tree, profile, precision)
                if eff != plan.precision:
                    raise PrecisionError(
                        f"explicit plan was compiled at {plan.precision!r} "
                        f"but the call requested {eff!r}; recompile the "
                        f"plan or drop the override"
                    )
        profile.precision = plan.precision
        return plan

    # -- public API -------------------------------------------------------

    def evaluate(
        self,
        tree: FmmTree,
        lists: InteractionLists,
        densities: np.ndarray,
        profile: PhaseProfile | None = None,
        plan=None,
        precision: str | None = None,
    ) -> np.ndarray:
        """Potentials at the tree's (Morton-sorted) points.

        ``densities`` must be in the tree's sorted point order with dof
        interleaved per point; the result uses the same layout.  A 2-D
        array whose first axis has ``n_points * source_dim`` rows is a
        multi-RHS column block: all ``q`` columns ride through the eight
        phases in one pass and the result is ``(n_points * target_dim,
        q)``, column ``j`` bit-identical to ``evaluate(densities[:, j])``
        (see the phase-apply notes in :mod:`repro.core.plan`).
        ``(n_points, source_dim)`` per-point vectors are one density; any
        other shape is a ``ValueError`` naming it.

        ``plan`` applies a caller-compiled
        :class:`~repro.core.plan.EvalPlan` (validated against ``tree``).
        Otherwise the evaluator supplies one: compiled on the first call
        with a ``(tree, lists)`` pair and applied there without keeping a
        kernel block, filled by the second consecutive call and reused
        from then on.

        ``precision`` overrides the evaluator default for this call.  An
        explicit ``plan`` carries its own precision; combining it with a
        *conflicting* explicit override raises
        :class:`~repro.core.plan.PrecisionError`.
        """
        return self._evaluate(
            tree, lists, densities, profile, plan, precision, tree,
            "FmmEvaluator.evaluate",
        )

    def evaluate_targets(
        self,
        tree: FmmTree,
        lists: InteractionLists,
        densities: np.ndarray,
        targets: np.ndarray,
        profile: PhaseProfile | None = None,
    ) -> np.ndarray:
        """Potentials at arbitrary target points (sources stay on the tree).

        The targets are Morton sorted into a *target tree* over ``tree``'s
        own nodes, each node holding the targets its box covers, and the
        evaluation is :meth:`evaluate`'s with D2T, W and U ∪ D compiled
        over that tree: each target takes the lists of the leaf containing
        it.  ``densities`` takes :meth:`evaluate`'s layouts and checks (a
        ``(n_points * source_dim, q)`` block returns ``(n_targets *
        target_dim, q)``); the result is in the input target order.  The
        plan is resolved as :meth:`evaluate` resolves one, the target set
        standing beside the pair: the first call with a target set
        compiles its plan, the second consecutive one fills it.
        ``targets`` must be finite ``(n, 3)`` points in the unit cube;
        anything else raises a ``ValueError`` naming the first bad row.
        """
        targets = unit_cube_points(targets, "targets")
        keys = morton.encode_points(targets)
        order = np.argsort(keys, kind="stable")
        ttree = tree_from_nodes(tree.keys, tree.is_leaf, targets[order], keys[order], order)
        pot = self._evaluate(
            tree, lists, densities, profile, None, None, ttree,
            "FmmEvaluator.evaluate_targets",
        )
        out = np.empty_like(pot)  # back to the input target order
        shape = (ttree.n_points, self.eval_kernel.target_dim) + pot.shape[1:]
        out.reshape(shape)[order] = pot.reshape(shape)
        return out

    def _evaluate(self, tree, lists, densities, profile, plan, precision,
                  targets, where):
        """The one evaluation body: potentials at the points of
        ``targets``, a tree over ``tree``'s nodes (``tree`` itself for
        :meth:`evaluate`), in its sorted order; ``where`` names the entry
        point in density errors."""
        profile = profile if profile is not None else PhaseProfile()
        dens, block = density_layout(
            densities, tree.n_points, self.kernel.source_dim, where, block=True,
        )
        dens = np.ascontiguousarray(dens)
        q = dens.shape[1] if block else 1
        if block and q == 0:  # no column: nothing to run
            return np.zeros((targets.n_points * self.eval_kernel.target_dim, 0))
        if block and q == 1:
            return self._evaluate(
                tree, lists, dens[:, 0], profile, plan, precision, targets, where,
            ).reshape(-1, 1)
        plan = self._resolve_plan(tree, lists, profile, plan, precision, targets)
        state = self.allocate(targets, q)
        with profile.phase("S2U"):
            self.s2u(tree, dens, state, profile, plan)
        with profile.phase("U2U"):
            self.u2u(tree, state, profile, plan)
        with profile.phase("VLI"):
            self.vli(tree, lists, state, profile, plan)
        with profile.phase("XLI"):
            self.xli(tree, lists, dens, state, profile, plan)
        with profile.phase("D2D"):
            self.d2d(tree, state, profile, plan)
        with profile.phase("WLI"):
            self.wli(targets, lists, state, profile, plan)
        with profile.phase("D2T"):
            self.d2t(targets, state, profile, plan)
        with profile.phase("ULI"):
            self.uli(targets, lists, dens, state, profile, plan)
        pot = state["pot"]
        if block:  # (n_targets, q, kt_eval) -> (n_targets * kt_eval, q)
            return np.ascontiguousarray(pot.transpose(0, 2, 1)).reshape(-1, q)
        return pot

    # -- state ------------------------------------------------------------

    def allocate(self, tree: FmmTree, q: int = 1) -> dict:
        """Per-run working arrays (upward/downward densities, potentials).

        Storage is ``(rows, q, features)`` — the column axis in the middle,
        so per-column slices gather contiguously and per-box gathers keep
        a box's columns adjacent (see the phase-apply notes in
        :mod:`repro.core.plan`).  With ``q == 1`` the returned arrays are
        the 2-D ``(rows, features)`` / flat-potential views of that
        storage, the layout every single-RHS caller works in.  ``tree``
        is the one the potentials are wanted at: its nodes size the node
        state, its points the potential rows.

        ``pot`` views the first ``n_points`` rows of ``_pot_pad``, which
        carries one extra sentinel row: plan-based scatters send every
        padding slot there in a single fancy-indexed add, and the garbage
        accumulated in the sentinel is simply never read.
        """
        ks, kt = self.kernel.source_dim, self.kernel.target_dim
        n = tree.n_nodes
        kte = self.eval_kernel.target_dim
        pot_pad = np.zeros((tree.n_points + 1, q, kte))
        state = {
            "up": np.zeros((n, q, self.ns * ks)),
            "dcheck": np.zeros((n, q, self.ns * kt)),
            "dequiv": np.zeros((n, q, self.ns * ks)),
            "pot": pot_pad[: tree.n_points],
            "_pot_pad": pot_pad,
        }
        if q == 1:
            state = {k: a[:, 0] for k, a in state.items()}
            state["_pot_pad"] = pot_pad.reshape(-1)
            state["pot"] = state["_pot_pad"][: tree.n_points * kte]
        return state

    # -- phases -----------------------------------------------------------
    #
    # The interface a backend implements: one method per phase of Algorithm
    # 1, each applying its section of ``plan`` to ``state``.  Ownership
    # scopes, precision and the kernel-matrix caches are properties of the
    # plan; the pool is this evaluator's (U2U and D2D, chained level to
    # level, stay on the caller).

    def s2u(self, tree, dens, state, profile, plan) -> None:
        """Leaf sources to upward equivalent densities."""
        plan.apply_s2u(self, dens, state, profile, pool=self.task_pool)

    def u2u(self, tree, state, profile, plan) -> None:
        """Post-order M2M accumulation (children into parents)."""
        plan.apply_u2u(self, state, profile)

    def vli(self, tree, lists, state, profile, plan) -> None:
        """V-list translations (FFT-diagonal by default)."""
        if self.m2l_mode == "fft":
            plan.apply_vli_fft(self, state, profile, pool=self.task_pool)
        else:
            plan.apply_vli_dense(self, state, profile, pool=self.task_pool)

    def xli(self, tree, lists, dens, state, profile, plan) -> None:
        """X-list: source points of coarse leaves onto DC surfaces."""
        plan.apply_xli(self, dens, state, profile, pool=self.task_pool)

    def d2d(self, tree, state, profile, plan) -> None:
        """Pre-order L2L propagation and check-to-equivalent conversion."""
        plan.apply_d2d(self, state, profile)

    def wli(self, tree, lists, state, profile, plan) -> None:
        """W-list: source-box up densities evaluated at target points."""
        plan.apply_wli(self, state, profile, pool=self.task_pool)

    def d2t(self, tree, state, profile, plan) -> None:
        """Down equivalent densities to potentials at leaf targets."""
        plan.apply_d2t(self, state, profile, pool=self.task_pool)

    def uli(self, tree, lists, dens, state, profile, plan) -> None:
        """U-list: exact near-field interactions."""
        plan.apply_uli(self, dens, state, profile, pool=self.task_pool)
