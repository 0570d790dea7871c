"""Public single-process FMM facade.

``Fmm`` wires together tree construction, interaction lists, operators and
the evaluator behind a two-call API::

    fmm = Fmm(kernel="laplace", order=6, max_points_per_box=100)
    potentials = fmm.evaluate(points, densities)

Points live in the closed unit cube ``[0, 1]^3``: a point outside it, or a
non-finite one, is a ``ValueError`` naming ``points`` and its row (callers
with other domains rescale; for a homogeneous kernel the potential
rescales analytically).  Densities must be real and finite.  Source and
target points coincide, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.evaluator import FmmEvaluator, integer_arg
from repro.core.lists import InteractionLists, build_lists
from repro.core.plan import PlanMismatchError
from repro.core.tree import FmmTree, build_tree, diff_trees
from repro.kernels import Kernel, get_kernel
from repro.kernels.base import density_layout
from repro.util.geometry import unit_cube_points
from repro.util.timer import PhaseProfile

__all__ = ["Fmm", "FmmPlan"]


def _check_plan_points(plan, points: np.ndarray, name: str) -> None:
    """Raise :class:`~repro.core.plan.PlanMismatchError` naming ``name``
    unless ``plan`` was built for exactly these points."""
    tree = plan.tree
    if points.shape != tree.points.shape or not np.array_equal(points[tree.order], tree.points):
        raise PlanMismatchError(
            f"{name} are not the points the plan was built for "
            f"(shape {points.shape}, planned {tree.points.shape}); build a plan "
            f"for them with Fmm.plan() or Fmm.update_plan()"
        )


@dataclass
class FmmPlan:
    """A built tree + lists, reusable across evaluations on the same points."""

    tree: FmmTree
    lists: InteractionLists

    @property
    def n_points(self) -> int:
        return self.tree.n_points


class Fmm:
    """Kernel-independent adaptive FMM on a single process.

    Parameters
    ----------
    kernel:
        A :class:`repro.kernels.Kernel` instance or registry name.
    order:
        Surface order ``p`` (4 / 6 / 8 give roughly 1e-3 / 1e-5 / 1e-7
        relative accuracy for the Laplace kernel; the Stokes kernel needs
        ``p >= 6``).
    max_points_per_box:
        The paper's ``q`` — adaptivity threshold (and the GPU-vs-CPU
        tuning knob of Table III).
    m2l_mode:
        ``"fft"`` (default) or ``"dense"`` V-list translation.
    eval_kernel:
        Optional target-side kernel (e.g.
        :class:`repro.kernels.gradients.LaplaceGradientKernel`): the
        expansions reproduce the base kernel's potential field, so
        evaluating them with a derivative kernel yields forces/fields
        from the same pass.
    precision:
        Plan arithmetic precision — ``"fp64"`` (default, bit-identical
        to the pre-precision engine), ``"fp32"`` (float32 GEMM phases,
        ~2x BLAS throughput at a float32 accuracy floor), or ``"auto"``
        (one-time calibration probe picks the cheapest precision meeting
        ``precision_rtol``; see
        :meth:`repro.core.evaluator.FmmEvaluator.resolve_auto`).
    precision_rtol:
        Relative-error target for ``precision="auto"``.
    threads:
        Intra-rank parallelism: run plan phase tiles on a ``threads``-wide
        task pool (see :mod:`repro.core.parallel`).  ``None`` (default)
        takes every usable core, and a larger ``threads`` is capped at
        them (the thread budget,
        :func:`~repro.core.parallel.rank_pool_size`); ``1`` runs the tiles
        inline.  Results are bit-identical at any width.

    The tree is the paper's unbalanced adaptive octree (up to
    :data:`repro.util.morton.MAX_DEPTH` levels), and the pseudo-inverses
    use the kernel's ``default_rcond``.
    """

    def __init__(
        self,
        kernel: Kernel | str = "laplace",
        order: int = 6,
        max_points_per_box: int = 64,
        m2l_mode: str = "fft",
        eval_kernel: Kernel | None = None,
        precision: str = "fp64",
        precision_rtol: float | None = None,
        threads: int | None = None,
    ):
        self.kernel = get_kernel(kernel) if isinstance(kernel, str) else kernel
        self.order = integer_arg(order, "order")
        self.max_points_per_box = integer_arg(max_points_per_box, "max_points_per_box")
        self.evaluator = FmmEvaluator(
            self.kernel,
            self.order,
            m2l_mode=m2l_mode,
            eval_kernel=eval_kernel,
            precision=precision,
            precision_rtol=precision_rtol,
            threads=threads,
        )

    def plan(self, points: np.ndarray, profile: PhaseProfile | None = None) -> FmmPlan:
        """Build the adaptive tree and interaction lists (the setup phase)."""
        points = unit_cube_points(points)
        profile = profile if profile is not None else PhaseProfile()
        with profile.phase("tree"):
            tree = build_tree(points, self.max_points_per_box)
        with profile.phase("lists"):
            lists = build_lists(tree)
        return FmmPlan(tree, lists)

    def compile_eval_plan(self, plan: FmmPlan, **kwargs):
        """Eagerly compile an :class:`~repro.core.plan.EvalPlan` for ``plan``.

        Pass the returned object as ``eval_plan=``: the first
        :meth:`evaluate` that applies it fills its kernel blocks, and every
        later one runs at amortised speed (without it the evaluator keeps
        a plan of its own, filled by the second call).  ``kwargs`` forward
        to :func:`repro.core.plan.compile_plan` (``matrix_budget``,
        ``precision``).
        """
        return self.evaluator.compile_plan(plan.tree, plan.lists, **kwargs)

    def update_plan(
        self,
        plan: FmmPlan,
        new_points: np.ndarray,
        moved: np.ndarray | None = None,
        profile: PhaseProfile | None = None,
    ):
        """Rebuild ``plan`` after a point-motion step and diff it against
        the old one.

        ``new_points`` is the full point array in the original order
        (same shape as before; plan afresh for insertions or deletions).
        Returns ``(new_plan, delta)``: ``new_plan`` is
        ``self.plan(new_points)``, keeping the old lists when the octant
        set did not change, and the :class:`~repro.core.tree.TreeDelta`
        of :func:`~repro.core.tree.diff_trees` feeds
        :meth:`patch_eval_plan`.  ``moved`` optionally names the rows
        that changed; it sets ``delta.n_moved`` (derived by comparison
        when omitted) and nothing else.
        """
        profile = profile if profile is not None else PhaseProfile()
        new_points = unit_cube_points(new_points)
        old = plan.tree
        if new_points.shape != old.points.shape:
            raise ValueError(
                f"update_plan requires a same-shape point array "
                f"(got {new_points.shape}, tree has {old.points.shape}); "
                "plan afresh for insertions/deletions"
            )
        if moved is None:
            orig = np.empty_like(old.points)
            orig[old.order] = old.points
            n_moved = int(np.count_nonzero(np.any(orig != new_points, axis=1)))
        else:
            n_moved = np.unique(np.asarray(moved, dtype=np.int64)).size
        with profile.phase("tree"):
            tree = build_tree(new_points, self.max_points_per_box)
            delta = diff_trees(old, tree, n_moved=n_moved)
        with profile.phase("lists"):
            # the lists depend on the octant set alone
            lists = build_lists(tree) if delta.refinement_changed else plan.lists
        return FmmPlan(tree, lists), delta

    def patch_eval_plan(self, old_eval_plan, old_plan: FmmPlan,
                        new_plan: FmmPlan, delta=None, **kwargs):
        """Patch a compiled :class:`~repro.core.plan.EvalPlan` onto
        ``new_plan``'s geometry, reusing clean kernel-matrix blocks.

        The result is bit-identical to
        ``self.compile_eval_plan(new_plan)``; pass it as ``eval_plan=``.
        """
        return self.evaluator.patch_plan(
            old_eval_plan, old_plan.tree, old_plan.lists,
            new_plan.tree, new_plan.lists, delta=delta, **kwargs,
        )

    def evaluate(
        self,
        points: np.ndarray,
        densities: np.ndarray,
        plan: FmmPlan | None = None,
        profile: PhaseProfile | None = None,
        eval_plan=None,
    ) -> np.ndarray:
        """Potential at every point, in the input point order.

        ``densities`` has ``source_dim`` values per point (flat, point-major);
        the result has ``target_dim`` values per point.  A 2-D array with
        ``n_points * source_dim`` rows is a multi-RHS block — one density
        vector per column, evaluated together through one batched pass —
        and yields a ``(n_points * target_dim, q)`` result whose column
        ``j`` is bit-identical to evaluating ``densities[:, j]`` alone.
        ``(n_points, source_dim)`` per-point vectors are one density; any
        other shape is a ``ValueError`` naming it.

        Repeated calls with the same ``plan`` amortise setup automatically:
        the evaluator compiles an :class:`~repro.core.plan.EvalPlan` on the
        first call, fills its kernel blocks on the second and reuses it
        from then on (``eval_plan=`` supplies a precompiled one; compile it
        with ``matrix_budget=0`` to trade apply speed for memory).  The
        precision is the constructor's, or an ``eval_plan``'s own.
        """
        plan, dens, profile = self._sorted_densities(
            points, densities, plan, profile, "points", "Fmm.evaluate"
        )
        tree = plan.tree
        pot_sorted = self.evaluator.evaluate(
            tree, plan.lists, dens, profile, plan=eval_plan
        )
        shape = (tree.n_points, self.evaluator.eval_kernel.target_dim) + dens.shape[1:]
        pot = np.empty_like(pot_sorted)
        pot.reshape(shape)[tree.order] = pot_sorted.reshape(shape)
        return pot

    def _sorted_densities(self, points, densities, plan, profile, name, where):
        """``(plan, densities, profile)`` of an evaluate call: the plan
        built for (or checked against) ``points``, the densities checked
        by :func:`~repro.kernels.base.density_layout` (its errors start
        with ``where``) and permuted to the tree's sorted point order."""
        points = np.asarray(points, dtype=np.float64)
        profile = profile if profile is not None else PhaseProfile()
        if plan is None:
            plan = self.plan(points, profile=profile)
        else:
            _check_plan_points(plan, points, name)
        n, ks = plan.tree.n_points, self.kernel.source_dim
        dens, _ = density_layout(densities, n, ks, where, block=True)
        # one permutation for a flat vector and a (rows, q) block alike:
        # points on axis 0, dof on axis 1, columns (if any) trailing
        cols = dens.shape[1:]
        dens = dens.reshape((n, ks) + cols)[plan.tree.order].reshape(dens.shape)
        return plan, dens, profile

    def evaluate_targets(
        self,
        sources: np.ndarray,
        densities: np.ndarray,
        targets: np.ndarray,
        plan: FmmPlan | None = None,
        profile: PhaseProfile | None = None,
    ) -> np.ndarray:
        """Potential at arbitrary targets from densities at the sources.

        An extension beyond the paper's coincident-points setting: the
        tree and expansions are built over the sources; each target
        inherits the interaction lists of the leaf containing it.

        ``densities`` follows the same layout rule as :meth:`evaluate`:
        a 2-D ``(n_points * source_dim, q)`` block runs through the same
        batched pass and returns ``(n_targets * target_dim, q)``.
        ``targets`` must be finite ``(n, 3)`` points in the unit cube.
        Repeated calls with the same targets amortise setup as
        :meth:`evaluate` does (see
        :meth:`~repro.core.evaluator.FmmEvaluator.evaluate_targets`).
        """
        plan, dens, profile = self._sorted_densities(
            sources, densities, plan, profile, "sources", "Fmm.evaluate_targets"
        )
        return self.evaluator.evaluate_targets(
            plan.tree, plan.lists, dens, targets, profile
        )
