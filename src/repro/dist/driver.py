"""End-to-end distributed FMM (paper §III): setup + evaluation per rank.

Usage (inside an SPMD function, one instance per rank)::

    def rank_main(comm, my_points):
        fmm = DistributedFmm(kernel="laplace", order=6, max_points_per_box=60)
        fmm.setup(comm, my_points)
        dens = make_densities(fmm.owned_points)   # post-redistribution!
        pot = fmm.evaluate(dens)
        return fmm.owned_points, pot

    result = run_spmd(8, rank_main, points_chunk)

Setup redistributes points (parallel sample sort), builds the distributed
octree, optionally load-balances by leaf work weights, constructs the LET
and the interaction lists.  Evaluation then runs the three communication
steps of §III-C (ghost density exchange; hypercube reduce-scatter of
shared upward densities — which also covers the broadcast-to-users step)
interleaved with the local Algorithm-1 phases, restricted by ownership
masks so nothing is double-counted.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluator import FmmEvaluator, integer_arg
from repro.core.lists import build_lists
from repro.core.parallel import rank_pool_size
from repro.dist.build import distributed_points_to_octree
from repro.dist.geometry import RankGeometry
from repro.dist.let import LocalEssentialTree, build_let
from repro.dist.loadbalance import leaf_work_weights, repartition_leaves
from repro.dist.reduce_scatter import (
    hypercube_reduce_scatter,
    owner_reduce_scatter,
)
from repro.kernels import Kernel, get_kernel
from repro.kernels.base import density_layout
from repro.mpi.comm import SimComm
from repro.octree.build import leaf_point_counts
from repro.util.geometry import unit_cube_points
from repro.util.timer import PhaseProfile

__all__ = ["DistributedFmm", "distributed_fmm_rank", "match_owned_rows"]


def match_owned_rows(all_points: np.ndarray, owned_points: np.ndarray) -> np.ndarray:
    """Row indices of ``owned_points`` inside ``all_points`` (exact match).

    Setup redistributes points by Morton order, losing their original
    positions; this recovers them by coordinate identity so callers can
    route global density rows to the owning rank and scatter owned
    potentials back into global order (the serving plane computes this
    once per shard at registration).  Coincident points are matched one
    to one: the k-th owned copy of a coordinate takes the k-th global row
    holding it, so no row is returned twice.  A missing point (or more
    owned copies than global ones) raises ``ValueError``.
    """
    glob = np.asarray(all_points, dtype=np.float64)
    own = np.asarray(owned_points, dtype=np.float64)
    pts = np.concatenate([glob, own])
    if not len(own):
        return np.empty(0, dtype=np.int64)
    # stable sort by (x, y, z): in a run of equal points the global rows
    # come first, in row order, then the owned copies, in their order
    order = np.lexsort(pts.T[::-1])
    s = pts[order]
    start = np.ones(len(s), dtype=bool)
    start[1:] = (s[1:] != s[:-1]).any(axis=1)
    head = np.flatnonzero(start)
    n_glob = np.add.reduceat(order < len(glob), head)
    at = np.flatnonzero(order >= len(glob))  # sorted places of the owned copies
    run = np.cumsum(start)[at] - 1
    take = at - n_glob[run]  # the k-th owned copy -> the k-th global row
    if np.any(take >= head[run] + n_glob[run]):
        raise ValueError("owned points not found among the global points")
    src = np.empty(len(own), dtype=np.int64)
    src[order[at] - len(glob)] = order[take]
    return src


class DistributedFmm:
    """Distributed kernel-independent FMM on a (simulated) communicator.

    ``kernel``, ``order`` and ``max_points_per_box`` are
    :class:`repro.core.Fmm`'s; the V-list is the FFT-diagonal one and the
    pseudo-inverses use the kernel's ``default_rcond``.  The rest:

    comm_scheme:
        ``"hypercube"`` (paper Algorithm 3, default) or ``"owner"`` (the
        retired baseline) for the shared-density reduction.
    load_balance:
        Repartition leaves by work weights after the first list build
        (paper §III-B), one leaf at a time.
    use_gpu:
        Attach a virtual GPU to this rank and run the accelerated
        evaluator (each MPI process owns one accelerator, as on Lincoln).
    gpu / gpu_wx:
        The :class:`~repro.gpu.device.VirtualGpu` to attach (implies
        ``use_gpu``), and whether the W- and X-lists run on it too
        (``GpuFmmEvaluator(accelerate_wx=)``, Fig. 6's configuration).
    precision:
        Plan precision (``"fp64"`` / ``"fp32"`` / ``"auto"``; see
        :class:`repro.core.Fmm`).  With ``"auto"``, every rank probes its
        own subsample and the decision is made *collectively*: the
        evaluator's :meth:`~repro.core.evaluator.FmmEvaluator.resolve_auto`
        runs an allgather of the per-rank picks as its vote (fp32 only if
        every rank picked fp32), so ranks never evaluate at disagreeing
        precisions (at the default relative-error target,
        :data:`repro.tune.probe.DEFAULT_PRECISION_RTOL`).
    threads:
        Intra-rank parallelism: each rank runs its plan phase tiles on a
        task pool (see :mod:`repro.core.parallel`).  The per-rank pool is
        sized at :meth:`setup` by the thread budget,
        :func:`~repro.core.parallel.rank_pool_size`: the rank's share of
        the usable cores, ``cores // comm.size``, with ``None`` (default)
        and at most ``threads`` otherwise, so ``p`` ranks never land more
        than the usable cores' worth of compute threads on the host (at
        ``p = 2`` on two cores, one each).  Bit-identical at any width.
    """

    def __init__(
        self,
        kernel: Kernel | str = "laplace",
        order: int = 6,
        max_points_per_box: int = 64,
        comm_scheme: str = "hypercube",
        load_balance: bool = False,
        use_gpu: bool = False,
        gpu=None,
        gpu_wx: bool = False,
        precision: str = "fp64",
        threads: int | None = None,
    ):
        if comm_scheme not in ("hypercube", "owner"):
            raise ValueError("comm_scheme must be 'hypercube' or 'owner'")
        self.kernel = get_kernel(kernel) if isinstance(kernel, str) else kernel
        self.order = integer_arg(order, "order")
        self.max_points_per_box = integer_arg(max_points_per_box, "max_points_per_box")
        # checked here, on the caller's thread; sized per rank at setup
        self.threads = None if threads is None else rank_pool_size(threads)
        self.comm_scheme = comm_scheme
        self.load_balance = bool(load_balance)
        if use_gpu or gpu is not None:
            from repro.gpu.accel import GpuFmmEvaluator

            self.evaluator = GpuFmmEvaluator(
                self.kernel, self.order, gpu=gpu, accelerate_wx=gpu_wx,
                precision=precision,
            )
        else:
            self.evaluator = FmmEvaluator(self.kernel, self.order, precision=precision)
        self.comm: SimComm | None = None
        self.let: LocalEssentialTree | None = None
        self.lists = None
        self._own_point_keys: np.ndarray | None = None
        self._own_counts: np.ndarray | None = None
        self._ckpt: dict | None = None
        self._plan = None
        self._shared: np.ndarray | None = None
        self._reduce_memo: dict = {}

    # -- setup ---------------------------------------------------------------

    @property
    def profile(self) -> PhaseProfile:
        return self.comm.profile

    @property
    def trace(self):
        """The communicator's trace recorder (``None`` unless tracing)."""
        return self.comm.trace if self.comm is not None else None

    @property
    def owned_points(self) -> np.ndarray:
        """This rank's points after redistribution (Morton sorted)."""
        return self.let.tree.points[self.let.own_positions]

    @property
    def checkpoint_phase(self) -> str | None:
        """Deepest completed checkpoint: ``None``, ``"setup"``, ``"upward"``.

        ``"setup"`` means the LET and lists exist (a crashed evaluation can
        restart without rebuilding the tree); ``"upward"`` additionally
        means the ghost exchange, S2U/U2U sweeps, and the shared-density
        reduction completed for the last density vector, so
        ``evaluate(dens, resume=True)`` restarts from the local downward
        phases.
        """
        if self._ckpt is not None:
            return "upward"
        if self.let is not None:
            return "setup"
        return None

    def clear_checkpoint(self) -> None:
        """Drop the post-upward checkpoint (keeps the LET and the plan).

        The serving plane cuts one checkpoint per request (densities
        change every request, so a stale checkpoint can never be resumed
        from anyway); clearing it after the request completes bounds the
        memory a long-lived shard holds to the setup state.
        """
        self._ckpt = None

    def rebind(self, comm: SimComm) -> None:
        """Attach a fresh communicator to already-built setup state.

        Retried SPMD attempts get new communicators (new fabric, new
        ledgers); a :class:`DistributedFmm` checkpointed in a per-rank
        state dict (``run_spmd_resilient(..., rank_state=True)``) calls
        this before ``evaluate(..., resume=True)`` on the new attempt.
        The rank must be unchanged — the LET encodes the rank geometry.
        """
        if self.comm is not None and comm.rank != self.comm.rank:
            raise ValueError(
                f"rebind across ranks ({self.comm.rank} -> {comm.rank}): "
                "the LET is rank-specific"
            )
        self.comm = comm
        self._arm_chaos_gpu()

    def _arm_chaos_gpu(self) -> None:
        """Hand this rank's virtual GPU to the chaos fabric, if both exist."""
        gpu = getattr(self.evaluator, "gpu", None)
        if gpu is None or self.comm is None:
            return
        from repro.mpi.faults import ChaosFabric

        if isinstance(self.comm.fabric, ChaosFabric):
            self.comm.fabric.arm_gpu(gpu, self.comm.rank)

    def setup(self, comm: SimComm, local_points: np.ndarray) -> None:
        """Sort, build the tree, (re)balance, build LET and lists.

        ``local_points`` must be finite and in the closed unit cube; a bad
        row is a ``ValueError`` naming ``points`` on its rank."""
        local_points = unit_cube_points(local_points)
        self.comm = comm
        self.evaluator.configure_threads(rank_pool_size(self.threads, comm.size))
        profile = comm.profile
        with profile.phase("tree"):
            dist = distributed_points_to_octree(
                comm, local_points, self.max_points_per_box
            )
        leaves, points, point_keys = dist.leaves, dist.points, dist.point_keys
        geometry = dist.geometry

        def build(geometry, leaves, points, point_keys):
            with profile.phase("let"):
                let = build_let(comm, geometry, leaves, points, point_keys)
                profile.current.flops += 60.0 * let.tree.n_nodes
            with profile.phase("lists"):
                lists = build_lists(let.tree)
                profile.current.flops += 30.0 * sum(
                    lists.work_summary().values()
                ) + 52.0 * let.tree.n_nodes * np.log2(max(let.tree.n_nodes, 2))
            return let, lists

        let, lists = build(geometry, leaves, points, point_keys)
        if self.load_balance and comm.size > 1:
            # the paper's weights (§III-B) are computed *from* the lists,
            # so a balanced setup builds LET and lists twice; ``balance``
            # is the weighting and the repartition between the two builds
            with profile.phase("balance"):
                leaf_nodes = let.tree.find(leaves)
                weights = leaf_work_weights(
                    let.tree, lists, self.kernel, self.evaluator.ns, leaf_nodes
                )
                begin, end = leaf_point_counts(point_keys, leaves)
                new = repartition_leaves(
                    comm, leaves, weights, points, point_keys, begin, end
                )
                # degenerate splits fall back to the unbalanced partition
                rebalanced = min(comm.allgather(int(new[0].size))) > 0
                if rebalanced:
                    leaves, points, point_keys = new
                    geometry = RankGeometry.from_leaves(comm, leaves)
            if rebalanced:
                let, lists = build(geometry, leaves, points, point_keys)

        self.let = let
        self.lists = lists
        self._own_point_keys = point_keys
        # owned points per node (partial-sum scope needs owned counts, not
        # merged counts that include ghosts)
        begin, end = leaf_point_counts(point_keys, let.tree.keys)
        self._own_counts = end - begin
        # Algorithm 3 reads the geometry alone: this rank's contributed
        # shared octants, and each step's masks (kept by the first reduce),
        # so a warm evaluate decodes no key
        self._shared = None if comm.size == 1 else (
            let.geometry.is_shared(let.tree.keys, comm.rank)
            & let.owned_contrib & (self._own_counts > 0))
        self._reduce_memo = {}
        self._ckpt = None  # densities from an old tree are meaningless
        self._plan = None  # plans are bound to the LET built above
        self._arm_chaos_gpu()

    def update_geometry(self, new_local_points: np.ndarray) -> dict:
        """Re-setup on moved points, patching the compiled plan in place.

        All ranks must call this together with their new local chunks
        (same identity split as :meth:`setup`) — the re-sort, LET build
        and the precision vote below are collective.  The tree, LET and
        lists are rebuilt through the normal setup path (per-rank LET
        trees can gain or lose ghost octants, so the rebuild is not
        purely local), but the compiled plan — by far the dominant setup
        cost — is *patched*: :func:`~repro.core.plan.patch_plan` diffs
        the old and new LET trees by content and reuses every
        kernel-matrix block whose boxes survived, charged to a
        ``setup:patch`` span.  The patched plan is bit-identical to the
        plan a fresh :meth:`setup` + evaluate would compile.

        Returns a per-rank summary (patched flag, reuse stats).  Raises
        ``RuntimeError`` if the collective vote disagrees on precision —
        ranks patching plans at different precisions would break bitwise
        determinism across the fabric.
        """
        if self.let is None:
            raise RuntimeError("call setup() before update_geometry()")
        comm = self.comm
        old_let, old_lists, old_plan = self.let, self.lists, self._plan
        self.setup(comm, new_local_points)

        stats: dict = {}
        patched = False
        if old_plan is not None:
            from repro.core.plan import patch_plan
            from repro.core.tree import diff_trees

            let, lists = self.let, self.lists
            profile = comm.profile
            with profile.phase("setup:patch"):
                delta = diff_trees(old_let.tree, let.tree)
                self._plan = patch_plan(
                    self.evaluator, old_plan, old_let.tree, old_lists,
                    let.tree, lists, delta=delta,
                    scopes=self._plan_scopes(),
                    precision=old_plan.precision,
                )
            stats = dict(self._plan.patch_stats)
            patched = True

        # Collective fingerprint vote: per-rank LET trees legitimately
        # differ, but the plan precision must be unanimous — one rank at
        # fp32 against fp64 peers would evaluate a different answer.
        if comm.size > 1:
            prec = self._plan.precision if self._plan is not None else "none"
            votes = comm.allgather(prec)
            if len(set(votes)) != 1:
                raise RuntimeError(
                    f"update_geometry precision vote disagrees: {votes}"
                )
        return {"patched": patched, "patch_stats": stats}

    def _plan_scopes(self):
        """This rank's ownership masks, the scopes its plan is compiled
        with: owned leaves for the leaf phases, owned contributors for the
        tree phases, so ghost data never double-counts — and with them the
        LET's mask of octants non-empty on some rank (the W-list sources)."""
        from repro.core.plan import PlanScopes

        own_leaf, contrib = self.let.owned_leaf, self.let.owned_contrib
        return PlanScopes(
            s2u=own_leaf,
            u2u=contrib & (self._own_counts > 0),
            vli=contrib,
            xli=contrib,
            d2d=contrib,
            wli=own_leaf,
            d2t=own_leaf,
            uli=own_leaf,
            nonempty=self.let.nonempty,
        )

    # -- evaluation --------------------------------------------------------------

    def evaluate(
        self,
        densities_owned: np.ndarray,
        resume: bool = False,
    ) -> np.ndarray:
        """Potentials at this rank's owned points (same layout as input).

        After the upward sweep completes (ghost exchange, S2U, U2U, and
        the shared-density reduction), a checkpoint of the merged
        densities and upward state is kept on the instance.  Passing
        ``resume=True`` with the *same* density vector restarts from that
        checkpoint, skipping the communication-bearing upward phases —
        all ranks of a run must resume together, since skipping
        ``COMM_exchange``/``COMM_reduce`` on one rank would deadlock the
        others.  A ``RECOVERY:resume`` span marks the restart in the
        trace.  ``resume=True`` without a matching checkpoint silently
        runs every phase (so a retry loop can pass it unconditionally).

        The schedule is the sequential one of the paper's Algorithm 1 with
        blocking communication: ``COMM_exchange``, S2U, U2U,
        ``COMM_reduce``, then the six local downward phases — each entered
        once, none nested in another, so a rank's phase walls add up to
        (at most) the wall of the call.
        """
        if self.let is None:
            raise RuntimeError("call setup() before evaluate()")
        comm, let, lists = self.comm, self.let, self.lists
        tree = let.tree
        ks, kt = self.kernel.source_dim, self.kernel.target_dim
        profile = comm.profile
        ev = self.evaluator

        dens_owned, _ = density_layout(
            densities_owned, let.n_owned_points, ks, "DistributedFmm.evaluate"
        )
        resumable = (
            resume
            and self._ckpt is not None
            and np.array_equal(dens_owned, self._ckpt["dens_owned"])
        )
        if resume and comm.size > 1:
            # the resume decision must be collective: a rank aborted before
            # its checkpoint was cut would otherwise run COMM_exchange /
            # COMM_reduce alone against ranks that skip them — a deadlock
            resumable = all(comm.allgather(bool(resumable)))
        state = ev.allocate(tree)

        plan = self._plan
        if plan is None:
            precision = ev.precision
            if precision == "auto":
                # Every rank probes its own subsample; one disagreeing rank
                # would break bitwise determinism across partitionings, so
                # fp32 only on a unanimous vote (kept by the evaluator).
                def unanimous(local):
                    if comm.size == 1:
                        return local
                    with profile.phase("setup:precision"):
                        votes = set(comm.allgather(local))
                    return "fp32" if votes == {"fp32"} else "fp64"

                precision = ev.resolve_auto(tree, profile, vote=unanimous)

            # Compiled once per setup(): the ownership masks are baked in,
            # and the plan survives rebind()/resume, so retried attempts
            # and every later evaluate() skip straight to the apply.
            with profile.phase("setup:plan"):
                plan = self._plan = ev.compile_plan(
                    tree,
                    lists,
                    scopes=self._plan_scopes(),
                    precision=precision,
                )

        profile.precision = plan.precision
        if resumable:
            dens = self._ckpt["dens"].copy()
            state["up"] = self._ckpt["up"].copy()
            with profile.phase("RECOVERY:resume"):
                pass  # span marks the phases skipped via the checkpoint
        else:
            dens = let.scatter_own_densities(dens_owned, ks)
            with profile.phase("COMM_exchange"):
                let.exchange_densities(comm, dens, ks)
            with profile.phase("S2U"):
                ev.s2u(tree, dens, state, profile, plan)
            with profile.phase("U2U"):
                ev.u2u(tree, state, profile, plan)
            with profile.phase("COMM_reduce"):
                self._reduce_shared(state)
            self._ckpt = {
                "dens_owned": dens_owned.copy(),
                "dens": dens.copy(),
                "up": state["up"].copy(),
            }
            if comm.size > 1:
                # Commit the checkpoint collectively: without this, a
                # crash early in one rank's downward sweep can abort a
                # peer still blocked in COMM_reduce (before its cut), and
                # the next attempt's collective resume decision degrades
                # to a full re-run depending on thread schedule.  After
                # the barrier, every rank holds its checkpoint before any
                # rank enters the abortable downward phases, so recovery
                # behaviour is deterministic.  (A rank aborted *inside*
                # the barrier has already cut its checkpoint — still
                # resumable.)
                with profile.phase("COMM_ckpt"):
                    comm.barrier()
        with profile.phase("VLI"):
            ev.vli(tree, lists, state, profile, plan)
        with profile.phase("XLI"):
            ev.xli(tree, lists, dens, state, profile, plan)
        with profile.phase("D2D"):
            ev.d2d(tree, state, profile, plan)
        with profile.phase("WLI"):
            ev.wli(tree, lists, state, profile, plan)
        with profile.phase("D2T"):
            ev.d2t(tree, state, profile, plan)
        with profile.phase("ULI"):
            ev.uli(tree, lists, dens, state, profile, plan)
        return let.gather_own_values(state["pot"], kt)

    def _reduce_shared(self, state: dict) -> None:
        """Communication steps 2+3: complete the shared upward densities."""
        comm, let = self.comm, self.let
        tree, geometry = let.tree, let.geometry
        if comm.size == 1:
            return
        keys = tree.keys[self._shared]
        dens = state["up"][self._shared]
        # Algorithm 3 assumes a power-of-two communicator (as the paper
        # states); odd sizes fall back to the owner-based scheme, which
        # is correct at any size.
        pow2 = comm.size & (comm.size - 1) == 0
        reduce_fn = (
            hypercube_reduce_scatter
            if self.comm_scheme == "hypercube" and pow2
            else owner_reduce_scatter
        )
        rkeys, rdens = reduce_fn(comm, geometry, keys, dens, self._reduce_memo)
        idx = tree.find(rkeys)
        ok = idx >= 0
        state["up"][idx[ok]] = rdens[ok]


def distributed_fmm_rank(
    comm: SimComm,
    all_points: np.ndarray,
    densities: np.ndarray,
    **fmm_kwargs,
):
    """Convenience SPMD body: scatter, evaluate, return owned results.

    ``all_points``/``densities`` are the *global* arrays (every rank slices
    its strided chunk, modelling the paper's "equally-distributed randomly
    across all processes" input).  Returns ``(owned_points, potentials)``
    per rank; concatenating across ranks covers every input point once.
    """
    mine = all_points[comm.rank :: comm.size]
    fmm = DistributedFmm(**fmm_kwargs)
    fmm.setup(comm, mine)
    ks = fmm.kernel.source_dim
    own_pts = fmm.owned_points
    if callable(densities):
        dens_owned = np.asarray(densities(own_pts), dtype=np.float64).reshape(-1)
    else:
        src = match_owned_rows(all_points, own_pts)
        dens_rows = np.asarray(densities, dtype=np.float64).reshape(-1, ks)
        dens_owned = dens_rows[src].reshape(-1)
    pot = fmm.evaluate(dens_owned)
    return own_pts, pot, fmm
