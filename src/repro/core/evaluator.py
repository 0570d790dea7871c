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
potentials, charging flops to an optional :class:`PhaseProfile`.  Both the
distributed driver and the GPU-accelerated evaluator reuse its phase
methods, overriding only what they accelerate.

Every phase accepts an optional precompiled :class:`~repro.core.plan.EvalPlan`
(see that module): with a plan, the phase runs a pure-array apply over
bit-identical precompiled schedules; without one it derives its batching
per call as before.  :meth:`evaluate` compiles a plan lazily on the second
consecutive call with the same ``(tree, lists)`` pair, so one-shot
evaluations pay nothing and repeated applies amortise the setup.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from repro.core.contract import gemm_cols
from repro.core.fft_m2l import FftM2L
from repro.core.lists import InteractionLists
from repro.core.operators import OperatorCache
from repro.core.tree import FmmTree
from repro.kernels.base import Kernel
from repro.util.timer import PhaseProfile

__all__ = ["FmmEvaluator"]


class FmmEvaluator:
    """Evaluates the N-body sum on a built tree via the KIFMM.

    Parameters
    ----------
    kernel, order:
        Interaction kernel and surface order (accuracy).
    m2l_mode:
        ``"fft"`` (default; the paper's diagonal translation) or
        ``"dense"`` (ablation baseline).
    rcond:
        Pseudo-inverse regularisation.
    eval_kernel:
        Optional second kernel for the *target-side* phases (D2T, W-list,
        U-list): the expansions reproduce the potential field, so
        evaluating them with e.g. the Laplace gradient kernel yields
        forces from the same pass.  Must share the base kernel's
        ``source_dim``.  Default: the base kernel itself.
    precision:
        Arithmetic precision of plan-based applies: ``"fp64"`` (default;
        bit-identical to the pre-precision engine), ``"fp32"`` (float32
        GEMM phases / complex64 V-list; accumulators stay float64), or
        ``"auto"`` (a one-time calibration probe —
        :func:`repro.core.autotune.autotune_precision` — picks the
        cheapest precision meeting ``precision_rtol``).  fp32 is
        plan-only: the legacy per-call path stays float64, so
        ``use_plan=False`` with an fp32 precision raises
        :class:`~repro.core.plan.PrecisionError`.
    precision_rtol:
        Relative-error target for ``precision="auto"`` (default
        :data:`repro.core.autotune.DEFAULT_PRECISION_RTOL`).
    """

    def __init__(
        self,
        kernel: Kernel,
        order: int,
        m2l_mode: str = "fft",
        rcond: float | None = None,
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
        self.order = int(order)
        self.m2l_mode = m2l_mode
        self.precision = precision
        self.precision_rtol = precision_rtol
        self.ops = OperatorCache(kernel, order, rcond=rcond)
        self.fft = FftM2L(kernel, order) if m2l_mode == "fft" else None
        self.ns = self.ops.n_surf
        # Lazy plan cache: (weakrefs to the last-seen tree/lists, how many
        # consecutive evaluates saw them, and the compiled plan if any).
        # Guarded by ``_plan_lock``: concurrent evaluates of one shared
        # evaluator must agree on a single compile per (tree, lists).
        self._plan_tree = None
        self._plan_lists = None
        self._plan_calls = 0
        self._plan_obj = None
        self._plan_lock = threading.Lock()
        # "auto" resolves once per evaluator (first workload wins) under
        # its own lock — _cached_plan holds _plan_lock, so the probe must
        # not nest inside it.
        self._auto_choice = None
        self._auto_result = None
        self._auto_lock = threading.Lock()
        # Intra-rank parallelism: plan applies run their phase tiles on a
        # TaskPool when ``threads`` is set (``None`` = the historical
        # serial path).  The pool may also be an externally owned shared
        # executor (the serving engines) via :meth:`set_pool`.
        self._threads = None if threads is None else max(1, int(threads))
        self._pool = None
        self._pool_owned = False
        self._pool_lock = threading.Lock()

    # -- intra-rank parallelism --------------------------------------------

    @property
    def threads(self) -> int | None:
        """Configured task-pool size (``None`` = serial legacy path)."""
        return self._threads

    @property
    def task_pool(self):
        """The active :class:`~repro.core.parallel.TaskPool`, or ``None``.

        Created lazily from ``threads`` so constructing an evaluator
        never spawns OS threads; plan applies pass this to every phase.
        """
        if self._threads is None:
            return self._pool  # None, or an externally shared pool
        with self._pool_lock:
            if self._pool is None:
                from repro.core.parallel import TaskPool

                self._pool = TaskPool(self._threads, name="fmm")
                self._pool_owned = True
            return self._pool

    def set_pool(self, pool) -> None:
        """Route tile work through an externally owned pool.

        The serving engines call this so every model shares one
        process-wide executor instead of nesting per-model pools under
        the worker pool.  ``None`` restores the serial path.
        """
        with self._pool_lock:
            if self._pool_owned and self._pool is not None:
                self._pool.shutdown()
            self._pool = pool
            self._pool_owned = False
            self._threads = None if pool is None else pool.threads

    def configure_threads(self, threads: int | None) -> None:
        """Re-size (or disable, with ``None``) the evaluator's own pool."""
        with self._pool_lock:
            if self._pool_owned and self._pool is not None:
                self._pool.shutdown()
            self._pool = None
            self._pool_owned = False
            self._threads = None if threads is None else max(1, int(threads))

    # -- plans -------------------------------------------------------------

    def compile_plan(self, tree, lists, scopes=None, precision=None, **kwargs):
        """Compile an :class:`~repro.core.plan.EvalPlan` for this evaluator.

        ``scopes`` (a :class:`~repro.core.plan.PlanScopes`) bakes
        distributed ownership masks into the plan; ``kwargs`` forward to
        :func:`repro.core.plan.compile_plan` (e.g. ``cache_matrices``,
        ``matrix_budget``).  ``precision`` defaults to the evaluator's
        own; ``"auto"`` is resolved here via the calibration probe.
        """
        from repro.core.plan import compile_plan

        precision = self.precision if precision is None else precision
        if precision == "auto":
            precision = self._resolve_auto(tree, PhaseProfile())
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
        :func:`~repro.core.tree.update_tree`/``diff_trees``; omitted, it
        is derived by content diffing.  ``precision`` defaults to the old
        plan's own (``"auto"`` resolves via the calibration probe).
        """
        from repro.core.plan import patch_plan

        if precision == "auto":
            precision = self._resolve_auto(tree, PhaseProfile())
        return patch_plan(
            self, old_plan, old_tree, old_lists, tree, lists,
            delta=delta, scopes=scopes, precision=precision, **kwargs,
        )

    def _resolve_auto(self, tree, profile):
        """Resolve ``"auto"`` to a concrete precision, once per evaluator.

        The calibration probe (charged to the ``setup:precision`` span)
        subsamples the tree's points, so the first workload seen decides
        for the evaluator's lifetime — matching the plan cache, which is
        also per-(tree, lists).
        """
        with self._auto_lock:
            if self._auto_choice is None:
                from repro.core.autotune import autotune_precision

                with profile.phase("setup:precision"):
                    res = autotune_precision(
                        tree.points,
                        kernel=self.kernel,
                        order=self.order,
                        rtol=self.precision_rtol,
                        m2l_mode=self.m2l_mode,
                        eval_kernel=(
                            None
                            if self.eval_kernel is self.kernel
                            else self.eval_kernel
                        ),
                    )
                    self._auto_result = res
                    self._auto_choice = res.best
            return self._auto_choice

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
            prec = self._resolve_auto(tree, profile)
        return prec

    #: Whether lazily compiled plans cache kernel-matrix blocks.  The GPU
    #: evaluator turns this off: its device kernels regenerate geometry on
    #: chip, so host-side matrix caches would only burn memory.
    PLAN_CACHE_MATRICES = True

    def _cached_plan(self, tree, lists, profile, precision="fp64"):
        """Plan for ``(tree, lists)``, compiled on the second consecutive
        evaluate that sees the pair (one-shot calls stay plan-free).

        fp32 plans compile eagerly on the *first* call instead: float32
        arithmetic only exists as a plan, so deferring would silently run
        the first call in fp64 — a precision the caller did not ask for.
        A cached plan at a different precision is discarded and
        recompiled (per-call overrides flip precision mid-stream).

        Compilation is charged to the ``setup:plan`` span so traces and
        the perf model can separate amortisable setup from apply work.
        The whole lookup runs under ``_plan_lock``: two threads evaluating
        the same pair must produce exactly one compile (later callers
        block briefly, then reuse it) and must not race the weakref
        bookkeeping into re-compiling or dropping a live plan.
        """
        with self._plan_lock:
            tr = self._plan_tree() if self._plan_tree is not None else None
            lr = self._plan_lists() if self._plan_lists is not None else None
            if tr is tree and lr is lists:
                self._plan_calls += 1
            else:
                self._plan_tree = weakref.ref(tree)
                self._plan_lists = weakref.ref(lists)
                self._plan_calls = 1
                self._plan_obj = None
            if (
                self._plan_obj is not None
                and self._plan_obj.precision != precision
            ):
                self._plan_obj = None
            need_at = 1 if precision == "fp32" else 2
            if self._plan_obj is None and self._plan_calls >= need_at:
                with profile.phase("setup:plan"):
                    self._plan_obj = self.compile_plan(
                        tree,
                        lists,
                        cache_matrices=self.PLAN_CACHE_MATRICES,
                        precision=precision,
                    )
            return self._plan_obj

    #: Whether this evaluator can push a multi-RHS ``(n, q)`` density
    #: block through the phases in one pass.  The GPU evaluator turns
    #: this off (its device kernels stage one density at a time), falling
    #: back to a bit-identical per-column loop.
    SUPPORTS_MULTI_RHS = True

    def _resolve_plan(self, tree, lists, profile, plan, use_plan, precision):
        """Shared plan/precision resolution for the evaluate entry points.

        Returns the plan to apply (or ``None`` for the fp64 legacy
        path), enforcing the precision contract: an explicit plan's own
        precision wins unless an explicit override contradicts it, and
        fp32 without a plan is an error (there is no fp32 legacy path).
        """
        from repro.core.plan import PrecisionError

        if plan is not None:
            plan.check(tree)
            if precision is not None:
                eff = self._effective_precision(tree, profile, precision)
                if eff != plan.precision:
                    raise PrecisionError(
                        f"explicit plan was compiled at {plan.precision!r} "
                        f"but the call requested {eff!r}; recompile the "
                        f"plan or drop the override"
                    )
            return plan
        eff = self._effective_precision(tree, profile, precision)
        if use_plan:
            plan = self._cached_plan(tree, lists, profile, eff)
        if plan is None and eff == "fp32":
            raise PrecisionError(
                "fp32 evaluation is plan-only (the legacy per-call path "
                "is float64); enable use_plan or pass a compiled fp32 plan"
            )
        return plan

    # -- public API -------------------------------------------------------

    def evaluate(
        self,
        tree: FmmTree,
        lists: InteractionLists,
        densities: np.ndarray,
        profile: PhaseProfile | None = None,
        plan=None,
        use_plan: bool = True,
        precision: str | None = None,
    ) -> np.ndarray:
        """Potentials at the tree's (Morton-sorted) points.

        ``densities`` must be in the tree's sorted point order with dof
        interleaved per point; the result uses the same layout.  A 2-D
        array whose first axis has ``n_points * source_dim`` rows is a
        multi-RHS column block: all ``q`` columns ride through the eight
        phases in one pass and the result is ``(n_points * target_dim,
        q)``, column ``j`` bit-identical to ``evaluate(densities[:, j])``
        (see the phase-apply notes in :mod:`repro.core.plan`).  Any other
        shape is flattened to a single density vector.  The one-pass
        block path needs a plan; without one (or when the subclass sets
        ``SUPPORTS_MULTI_RHS = False``) the columns run one at a time —
        identical by construction, just without the GEMM batching win.

        ``plan`` applies a caller-compiled
        :class:`~repro.core.plan.EvalPlan` (validated against ``tree``).
        Otherwise, with ``use_plan`` (the default), a plan is compiled
        lazily on the second consecutive call with the same
        ``(tree, lists)`` and reused from then on; ``use_plan=False``
        forces the per-call legacy path.

        ``precision`` overrides the evaluator default for this call.  An
        explicit ``plan`` carries its own precision; combining it with a
        *conflicting* explicit override raises
        :class:`~repro.core.plan.PrecisionError`, as does requesting
        fp32 on the plan-free path (fp32 is plan-only).
        """
        profile = profile if profile is not None else PhaseProfile()
        expected = tree.n_points * self.kernel.source_dim
        arr = np.asarray(densities)
        block = arr.ndim == 2 and arr.shape[0] == expected
        dens = np.ascontiguousarray(arr, dtype=np.float64)
        q = dens.shape[1] if block else 1
        if block and q == 1:
            return self.evaluate(
                tree, lists, dens[:, 0], profile, plan=plan,
                use_plan=use_plan, precision=precision,
            ).reshape(-1, 1)
        if not block:
            dens = dens.reshape(-1)
            if dens.size != expected:
                raise ValueError(
                    f"densities shape {arr.shape} has {dens.size} values, "
                    f"expected n_points*source_dim = {expected} (or a 2-D "
                    f"({expected}, q) multi-RHS block)"
                )
        plan = self._resolve_plan(
            tree, lists, profile, plan, use_plan, precision
        )
        profile.precision = plan.precision if plan is not None else "fp64"
        if block and (plan is None or not self.SUPPORTS_MULTI_RHS):
            cols = [
                self.evaluate(
                    tree,
                    lists,
                    np.ascontiguousarray(dens[:, j]),
                    profile,
                    plan=plan,
                    use_plan=use_plan,
                    precision=precision,
                )
                for j in range(q)
            ]
            return np.stack(cols, axis=1)
        state = self.allocate(tree, q)

        with profile.phase("S2U"):
            self.s2u(tree, dens, state, profile, plan=plan)
        with profile.phase("U2U"):
            self.u2u(tree, state, profile, plan=plan)
        with profile.phase("VLI"):
            self.vli(tree, lists, state, profile, plan=plan)
        with profile.phase("XLI"):
            self.xli(tree, lists, dens, state, profile, plan=plan)
        with profile.phase("D2D"):
            self.d2d(tree, state, profile, plan=plan)
        with profile.phase("WLI"):
            self.wli(tree, lists, state, profile, plan=plan)
        with profile.phase("D2T"):
            self.d2t(tree, state, profile, plan=plan)
        with profile.phase("ULI"):
            self.uli(tree, lists, dens, state, profile, plan=plan)
        pot = state["pot"]
        if block:  # (n_points, q, kt_eval) -> (n_points * kt_eval, q)
            return np.ascontiguousarray(pot.transpose(0, 2, 1)).reshape(-1, q)
        return pot

    def evaluate_targets(
        self,
        tree: FmmTree,
        lists: InteractionLists,
        densities: np.ndarray,
        targets: np.ndarray,
        profile: PhaseProfile | None = None,
    ) -> np.ndarray:
        """Potentials at arbitrary target points (sources stay on the tree).

        Runs the full upward/interaction/downward machinery on the source
        tree, then evaluates the final phases (D2T, W-list, U-list direct)
        at the given targets: each target inherits the interaction lists of
        the leaf containing it.  Targets must lie in the unit cube.  This
        path is plan-free: the target-side phases depend on the ad-hoc
        target set, which a tree-bound plan cannot precompile.
        """
        from repro.octree.linear import covering_leaf_indices

        profile = profile if profile is not None else PhaseProfile()
        state = self.allocate(tree)
        dens = np.ascontiguousarray(densities, dtype=np.float64).reshape(-1)
        targets = np.asarray(targets, dtype=np.float64)

        with profile.phase("S2U"):
            self.s2u(tree, dens, state, profile)
        with profile.phase("U2U"):
            self.u2u(tree, state, profile)
        with profile.phase("VLI"):
            self.vli(tree, lists, state, profile)
        with profile.phase("XLI"):
            self.xli(tree, lists, dens, state, profile)
        with profile.phase("D2D"):
            self.d2d(tree, state, profile)

        # Locate each target's leaf.
        from repro.util import morton

        tkeys = morton.encode_points(targets)
        leaf_idx_in_leaves = covering_leaf_indices(
            tree.keys[tree.is_leaf], tkeys
        )
        if np.any(leaf_idx_in_leaves < 0):
            raise ValueError("every target must fall inside a tree leaf")
        leaf_nodes = tree.leaf_indices[leaf_idx_in_leaves]

        ks = self.kernel.source_dim
        kt = self.eval_kernel.target_dim
        counts = tree.point_counts()
        out = np.zeros(len(targets) * kt)
        with profile.phase("TGT"):
            for i in np.unique(leaf_nodes):
                sel = leaf_nodes == i
                pts = targets[sel]
                row = np.zeros(len(pts) * kt)
                # far field via the leaf's downward density
                de = self.ops.de_points(tree.levels[i], tree.centers[i])
                row += self.eval_kernel.matrix(pts, de) @ state["dequiv"][i]
                profile.add_flops(self.eval_kernel.pair_flops(len(pts), self.ns))
                # W-list multipoles
                for a in lists.w.of(i):
                    if not state["up"][a].any():
                        continue
                    ue = self.ops.ue_points(tree.levels[a], tree.centers[a])
                    row += self.eval_kernel.matrix(pts, ue) @ state["up"][a]
                    profile.add_flops(self.eval_kernel.pair_flops(len(pts), self.ns))
                # near field: direct sum over the U-list sources
                srcs = lists.u.of(i)
                srcs = srcs[counts[srcs] > 0]
                if srcs.size:
                    spts = np.concatenate([tree.leaf_points(a) for a in srcs])
                    sden = np.concatenate(
                        [
                            dens[tree.pt_begin[a] * ks : tree.pt_end[a] * ks]
                            for a in srcs
                        ]
                    )
                    row += self.eval_kernel.matrix(pts, spts) @ sden
                    profile.add_flops(self.eval_kernel.pair_flops(len(pts), len(spts)))
                out.reshape(-1, kt)[sel] = row.reshape(-1, kt)
        return out

    # -- state ------------------------------------------------------------

    def allocate(self, tree: FmmTree, q: int = 1) -> dict:
        """Per-run working arrays (upward/downward densities, potentials).

        Storage is ``(rows, q, features)`` — the column axis in the middle,
        so per-column slices gather contiguously and per-box gathers keep
        a box's columns adjacent (see the phase-apply notes in
        :mod:`repro.core.plan`).  With ``q == 1`` the returned arrays are
        the 2-D ``(rows, features)`` / flat-potential views of that
        storage, the layout every single-RHS caller works in.

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

    #: Leaf boxes per batched kernel-matrix call (bounds peak memory).
    LEAF_BATCH = 1024

    def _leaf_batches(self, tree, sel):
        from repro.core.tree import leaf_batches

        yield from leaf_batches(tree, sel, self.LEAF_BATCH)

    def _gather_leaf_points(self, tree, dens, group, pad, ks):
        from repro.core.tree import gather_leaf_points

        return gather_leaf_points(tree, dens, group, pad, ks)

    def s2u(self, tree, dens, state, profile, scope=None, plan=None) -> None:
        """Leaf sources to upward equivalent densities.

        ``scope`` (bool mask over nodes) restricts the phase; the
        distributed driver passes ownership masks so ghost data never
        double-counts.
        """
        if plan is not None:
            plan.apply_s2u(self, dens, state, profile, pool=self.task_pool)
            return
        ks, kt = self.kernel.source_dim, self.kernel.target_dim
        up = state["up"]
        counts = tree.point_counts()
        sel = tree.is_leaf & (counts > 0)
        if scope is not None:
            sel = sel & scope
        base = {}
        for lev, pad, group in self._leaf_batches(tree, sel):
            pts, den = self._gather_leaf_points(tree, dens, group, pad, ks)
            if lev not in base:
                base[lev] = self.ops.uc_points(lev)
            uc = base[lev][None, :, :] + tree.centers[group][:, None, :]
            k = self.kernel.matrix_batch(uc, pts)
            q = gemm_cols(k, den[:, :, None])[:, :, 0]
            up[group] = q @ self.ops.uc2ue(lev).T
            true_pts = counts[group].sum()
            profile.add_flops(
                self.kernel.pair_flops(self.ns, true_pts)
                + 2.0 * group.size * (self.ns * ks) * (self.ns * kt)
            )

    def u2u(self, tree, state, profile, scope=None, plan=None) -> None:
        """Post-order M2M accumulation (children into parents)."""
        if plan is not None:
            plan.apply_u2u(self, state, profile, pool=self.task_pool)
            return
        up = state["up"]
        counts = tree.point_counts()
        for lev in range(tree.max_level, 0, -1):
            nodes = tree.nodes_at_level(lev)
            nodes = nodes[counts[nodes] > 0]
            if scope is not None:
                nodes = nodes[scope[nodes]]
            if nodes.size == 0:
                continue
            pos = tree.child_pos[nodes]
            for k in range(8):
                sel = nodes[pos == k]
                if sel.size == 0:
                    continue
                m = self.ops.m2m(lev, k)
                up[tree.parent[sel]] += up[sel] @ m.T
                profile.add_flops(2.0 * sel.size * m.size)

    def vli(self, tree, lists, state, profile, scope=None, plan=None) -> None:
        """V-list translations (FFT-diagonal by default)."""
        if plan is not None:
            if self.m2l_mode == "fft":
                plan.apply_vli_fft(self, state, profile, pool=self.task_pool)
            else:
                plan.apply_vli_dense(self, state, profile, pool=self.task_pool)
            return
        if self.m2l_mode == "fft":
            self._vli_fft(tree, lists, state, profile, scope)
        else:
            self._vli_dense(tree, lists, state, profile, scope)

    def _v_offset_steps(self, tree, lists, scope=None):
        """Yield ``(level, offset, tgt_idx, src_idx)`` per distinct V offset of
        a level (dense M2L: one operator each); within one step each target
        appears at most once."""
        tgts, srcs = lists.v.pairs(scope)
        side = 2.0 * tree.half_widths[tgts]
        offs = np.rint(
            (tree.centers[tgts] - tree.centers[srcs]) / side[:, None]
        ).astype(np.int64)
        code = tree.levels[tgts] * 343 + (offs + 3) @ (49, 7, 1)
        order = np.argsort(code, kind="stable")  # pairs stay in list order
        for sel in np.split(order, np.flatnonzero(np.diff(code[order])) + 1):
            if sel.size:
                lev, off = int(tree.levels[tgts[sel[0]]]), tuple(offs[sel[0]])
                yield lev, off, tgts[sel], srcs[sel]

    def _vli_dense(self, tree, lists, state, profile, scope=None) -> None:
        up, dcheck = state["up"], state["dcheck"]
        for lev, off, tgts, srcs in self._v_offset_steps(tree, lists, scope):
            m = self.ops.m2l_dense(lev, off)
            dcheck[tgts] += up[srcs] @ m.T
            profile.add_flops(2.0 * tgts.size * m.size)

    def _vli_fft(self, tree, lists, state, profile, scope=None) -> None:
        up, dcheck = state["up"][:, None, :], state["dcheck"][:, None, :]
        for g in self.fft.schedule(tree, lists.v, scope):
            self.fft.vlist(g, up, dcheck)
            profile.add_flops(g.flops)

    def _pair_batches(self, tree, rows, cols, level_of, pad_count_of):
        """Group interaction pairs by (level, padded count) and chunk.

        ``level_of``/``pad_count_of`` pick which side of the pair sets the
        surface level and the padded point count.  Pairs within a group
        share one broadcast kernel evaluation.
        """
        if rows.size == 0:
            return
        counts = pad_count_of
        kpad = np.maximum(1 << np.ceil(np.log2(np.maximum(counts, 1))).astype(np.int64), 1)
        code = level_of * np.int64(1 << 24) + kpad
        for c in np.unique(code):
            sel = np.flatnonzero(code == c)
            pad = int(kpad[sel[0]])
            lev = int(level_of[sel[0]])
            chunk = max(1, int(6e6 / max(pad * self.ns, 1)))
            for s in range(0, sel.size, chunk):
                part = sel[s : s + chunk]
                yield lev, pad, rows[part], cols[part]

    def xli(self, tree, lists, dens, state, profile, scope=None, plan=None) -> None:
        """X-list: source points of coarse leaves onto DC surfaces.

        Pairs are batched by (target level, padded source count): the DC
        surfaces are regenerated from target centres, the coarse-leaf
        source points padded with zero-density centre points.
        """
        self.xli_apply(state, self.xli_compute(tree, lists, dens, profile, scope, plan))

    def xli_compute(self, tree, lists, dens, profile, scope=None, plan=None) -> list:
        """The GEMM stage of :meth:`xli`, decoupled from state mutation.

        X-list values depend only on ``dens`` — never on ``up`` or
        ``dcheck`` — so they can be computed while the shared-density
        reduction is still in flight.  Returns deferred ``(targets,
        sums)`` adds; :meth:`xli_apply` replays them in the same order
        and with the same values the fused :meth:`xli` would have added,
        so the split is bit-identical to running X-list in place.
        """
        if plan is not None:
            return plan.compute_xli(self, dens, profile, pool=self.task_pool)
        ks = self.kernel.source_dim
        counts = tree.point_counts()
        x = lists.x
        sel = x.counts > 0
        if scope is not None:
            sel = sel & scope
        rows = np.repeat(np.arange(tree.n_nodes), np.where(sel, x.counts, 0))
        cols = x.indices[np.repeat(sel, x.counts)] if x.indices.size else x.indices
        keep = counts[cols] > 0
        rows, cols = rows[keep], cols[keep]
        out = []
        if rows.size == 0:
            return out
        base = {}
        for lev, pad, ri, ci in self._pair_batches(
            tree, rows, cols, tree.levels[rows], counts[cols]
        ):
            pts, den = self._gather_leaf_points_for(tree, dens, ci, pad, ks)
            if lev not in base:
                base[lev] = self.ops.dc_points(lev)
            dc = base[lev][None, :, :] + tree.centers[ri][:, None, :]
            k = self.kernel.matrix_batch(dc, pts)
            vals = gemm_cols(k, den[:, :, None])[:, :, 0]
            # segment-sum by target (np.add.at is an order slower)
            order = np.argsort(ri, kind="stable")
            sorted_ri = ri[order]
            starts = np.flatnonzero(
                np.concatenate([[True], sorted_ri[1:] != sorted_ri[:-1]])
            )
            out.append(
                (sorted_ri[starts], np.add.reduceat(vals[order], starts, axis=0))
            )
            profile.add_flops(self.kernel.pair_flops(self.ns, counts[ci].sum()))
        return out

    @staticmethod
    def xli_apply(state, deferred) -> None:
        """Add deferred X-list segment sums into the check densities."""
        dcheck = state["dcheck"]
        for seg, sums in deferred:
            dcheck[seg] += sums

    def xli_deferrable(self) -> bool:
        """Whether :meth:`xli_compute`/:meth:`xli_apply` may replace
        :meth:`xli` (the GPU evaluator's device path cannot defer)."""
        return True

    def _gather_leaf_points_for(self, tree, dens, nodes, pad, ks):
        """Padded (points, densities) for arbitrary (possibly repeated)
        leaf nodes; padding at box centres with zero density."""
        b = nodes.size
        pts = np.repeat(tree.centers[nodes][:, None, :], pad, axis=1)
        den = np.zeros((b, pad * ks))
        for j, i in enumerate(nodes):
            n = tree.pt_end[i] - tree.pt_begin[i]
            pts[j, :n] = tree.points[tree.pt_begin[i] : tree.pt_end[i]]
            if ks:
                den[j, : n * ks] = dens[tree.pt_begin[i] * ks : tree.pt_end[i] * ks]
        return pts, den

    def d2d(self, tree, state, profile, scope=None, plan=None) -> None:
        """Pre-order L2L propagation and check-to-equivalent conversion."""
        if plan is not None:
            plan.apply_d2d(self, state, profile, pool=self.task_pool)
            return
        dcheck, dequiv = state["dcheck"], state["dequiv"]
        # Root has no far field: dequiv stays zero.
        for lev in range(1, tree.max_level + 1):
            nodes = tree.nodes_at_level(lev)
            if scope is not None:
                nodes = nodes[scope[nodes]]
            if nodes.size == 0:
                continue
            pos = tree.child_pos[nodes]
            for k in range(8):
                sel = nodes[pos == k]
                if sel.size == 0:
                    continue
                m = self.ops.l2l(lev, k)
                dcheck[sel] += dequiv[tree.parent[sel]] @ m.T
                profile.add_flops(2.0 * sel.size * m.size)
            conv = self.ops.dc2de(lev)
            dequiv[nodes] = dcheck[nodes] @ conv.T
            profile.add_flops(2.0 * nodes.size * conv.size)

    def wli(self, tree, lists, state, profile, scope=None, plan=None) -> None:
        """W-list: source-box up densities evaluated at target points.

        Pairs are batched by (source level, padded target count); the
        source UE surfaces are regenerated from box centres.  Sources are
        gated on their density (not local point counts): in a LET an
        internal ghost source has a valid up density but no locally
        stored points.  The potential scatter segment-sums contributions
        per target leaf (stable argsort + ``reduceat``, exactly as the
        plan path does) before one vectorised add.
        """
        if plan is not None:
            plan.apply_wli(self, tree, state, profile, pool=self.task_pool)
            return
        kt = self.eval_kernel.target_dim
        up = state["up"]
        potr = state["_pot_pad"].reshape(tree.n_points + 1, kt)
        counts = tree.point_counts()
        w = lists.w
        sel = tree.is_leaf & (w.counts > 0) & (counts > 0)
        if scope is not None:
            sel = sel & scope
        rows = np.repeat(np.arange(tree.n_nodes), np.where(sel, w.counts, 0))
        cols = w.indices[np.repeat(sel, w.counts)] if w.indices.size else w.indices
        if rows.size:
            keep = np.any(up[cols] != 0.0, axis=1)
            rows, cols = rows[keep], cols[keep]
        if rows.size == 0:
            return
        base = {}
        for lev, pad, ri, ci in self._pair_batches(
            tree, rows, cols, tree.levels[cols], counts[rows]
        ):
            pts, _ = self._gather_leaf_points_for(tree, np.empty(0), ri, pad, 0)
            if lev not in base:
                base[lev] = self.ops.ue_points(lev)
            ue = base[lev][None, :, :] + tree.centers[ci][:, None, :]
            k = self.eval_kernel.matrix_batch(pts, ue)
            vals = gemm_cols(k, up[ci][:, :, None])[:, :, 0]
            order = np.argsort(ri, kind="stable")
            sri = ri[order]
            starts = np.flatnonzero(
                np.concatenate([[True], sri[1:] != sri[:-1]])
            )
            seg = sri[starts]
            sums = np.add.reduceat(vals[order], starts, axis=0)
            ar = np.arange(pad, dtype=np.int64)[None, :]
            prow = tree.pt_begin[seg][:, None] + ar
            prow[ar >= counts[seg][:, None]] = tree.n_points
            potr[prow] += sums.reshape(seg.size, pad, kt)
            profile.add_flops(self.eval_kernel.pair_flops(counts[ri].sum(), self.ns))

    def d2t(self, tree, state, profile, scope=None, plan=None) -> None:
        """Down equivalent densities to potentials at leaf targets."""
        if plan is not None:
            plan.apply_d2t(self, state, profile, pool=self.task_pool)
            return
        kt = self.eval_kernel.target_dim
        dequiv, pot = state["dequiv"], state["pot"]
        counts = tree.point_counts()
        sel = tree.is_leaf & (counts > 0)
        if scope is not None:
            sel = sel & scope
        base = {}
        for lev, pad, group in self._leaf_batches(tree, sel):
            pts, _ = self._gather_leaf_points(tree, np.empty(0), group, pad, 0)
            if lev not in base:
                base[lev] = self.ops.de_points(lev)
            de = base[lev][None, :, :] + tree.centers[group][:, None, :]
            k = self.eval_kernel.matrix_batch(pts, de)
            vals = gemm_cols(k, dequiv[group][:, :, None])[:, :, 0]
            for j, i in enumerate(group):
                n = tree.pt_end[i] - tree.pt_begin[i]
                pot[tree.pt_begin[i] * kt : tree.pt_end[i] * kt] += vals[
                    j, : n * kt
                ]
            profile.add_flops(self.eval_kernel.pair_flops(counts[group].sum(), self.ns))

    def _uli_groups(self, tree, lists, scope=None):
        """Yield U-list batch groups ``(tpad, spad, boxes, src_totals)``.

        Groups selected leaves by (padded target count, padded total
        source count) and chunks each group; both the per-call path and
        plan compilation iterate this generator so batch membership is
        identical by construction.  The per-leaf total source count is a
        CSR segment sum over the U-list (prefix-sum difference — no
        Python loop over leaves).
        """
        counts = tree.point_counts()
        u = lists.u
        sel = tree.is_leaf & (counts > 0)
        if scope is not None:
            sel = sel & scope
        leaves = np.flatnonzero(sel)
        if leaves.size == 0:
            return
        csum = np.concatenate(([0], np.cumsum(counts[u.indices])))
        src_total = csum[u.offsets[leaves + 1]] - csum[u.offsets[leaves]]
        active = src_total > 0
        leaves, src_total = leaves[active], src_total[active]
        if leaves.size == 0:
            return
        tpad = np.maximum(
            1 << np.ceil(np.log2(np.maximum(counts[leaves], 1))).astype(np.int64), 1
        )
        spad = np.maximum(
            1 << np.ceil(np.log2(np.maximum(src_total, 1))).astype(np.int64), 1
        )
        code = tpad * np.int64(1 << 32) + spad
        for c in np.unique(code):
            grp = np.flatnonzero(code == c)
            tp = int(tpad[grp[0]])
            sp = int(spad[grp[0]])
            # bounded chunks keep batched GEMMs large enough to amortise
            # dispatch while keeping each compiled kmat block small
            # enough that a localized geometry update leaves most blocks
            # untouched — whole-block reuse in patch_plan shares those by
            # reference instead of copying (blocks sit in leaf Morton
            # order, so a moving cluster dirties a few contiguous chunks)
            chunk = max(1, int(1.5e6 / max(tp * sp, 1)))
            for s in range(0, grp.size, chunk):
                part = grp[s : s + chunk]
                yield tp, sp, leaves[part], src_total[part]

    def uli(self, tree, lists, dens, state, profile, scope=None, plan=None) -> None:
        """U-list: exact near-field interactions.

        Leaves are batched by (padded target count, padded total source
        count); each batch evaluates one broadcast kernel block over the
        concatenated (centre-padded, zero-density) neighbour sources.
        """
        if plan is not None:
            plan.apply_uli(self, dens, state, profile, pool=self.task_pool)
            return
        ks = self.kernel.source_dim
        kt = self.eval_kernel.target_dim
        pot = state["pot"]
        counts = tree.point_counts()
        u = lists.u
        for tp, sp, boxes, src_total in self._uli_groups(tree, lists, scope):
            m = boxes.size
            tgt, _ = self._gather_leaf_points_for(tree, np.empty(0), boxes, tp, 0)
            src = np.repeat(tree.centers[boxes][:, None, :], sp, axis=1)
            den = np.zeros((m, sp * ks))
            for j, i in enumerate(boxes):
                pos = 0
                for a in u.of(i):
                    n = counts[a]
                    if n == 0:
                        continue
                    src[j, pos : pos + n] = tree.points[
                        tree.pt_begin[a] : tree.pt_end[a]
                    ]
                    den[j, pos * ks : (pos + n) * ks] = dens[
                        tree.pt_begin[a] * ks : tree.pt_end[a] * ks
                    ]
                    pos += n
            k = self.eval_kernel.matrix_batch(tgt, src)
            vals = gemm_cols(k, den[:, :, None])[:, :, 0]
            for j, i in enumerate(boxes):
                n = tree.pt_end[i] - tree.pt_begin[i]
                pot[tree.pt_begin[i] * kt : tree.pt_end[i] * kt] += vals[
                    j, : n * kt
                ]
            profile.add_flops(
                self.eval_kernel.pair_flops(1, 1)
                * float((counts[boxes] * src_total).sum())
            )
