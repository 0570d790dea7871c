"""Plan-compiled evaluation engine: the setup / apply split.

The paper's headline workloads (vortex-flow time stepping, iterative
boundary-integral solvers) call the FMM repeatedly on a *fixed* tree with
*changing* densities.  Everything in an evaluation that does not depend on
the density vector — batch groupings, padded shapes, gather index arrays,
scatter segment boundaries, surface point sets, V-list sibling-group
tables, per-(level, child-position) traversal node sets, and the leaf
kernel-matrix blocks themselves — can therefore be compiled once and
reused across applies.  That is what :class:`EvalPlan` holds, together
with the one apply method per phase (``apply_s2u`` ... ``apply_uli``)
that consumes it.

Design rules:

* **One body per phase.**  Each apply is written once, for a
  ``(rows, q, features)`` column block of right-hand sides and as a list
  of tiles run through :meth:`EvalPlan._tiles` on a task pool: a single
  density is the ``q = 1`` case, and a 1-wide pool runs the tiles inline.
  The numerics and ownership rules that make every column at every pool
  width bit-identical to the solo inline apply sit in one comment block
  beside that helper.
* **Bit-identical results.**  The floating-point operation sequence of
  an apply is fixed by the compiled block structure alone: batch
  membership, batch order and group boundaries come from one set of
  grouping generators (``leaf_batches`` / ``_pair_batches`` /
  ``_uli_groups`` / ``_v_offset_steps`` and ``FftM2L.schedule``) whatever
  the caching choices, so a fully cached plan, a matrix-free plan, a
  plan whose budget covered only some blocks and a patched plan all
  produce the same bits.
* **No Python per-box loops at apply time.**  Gathers are a single fancy
  index into a sentinel-extended density table; scatters are a stable
  argsort + ``np.add.reduceat`` segment sum (precompiled order/starts)
  and/or one fancy-indexed add into a sentinel-extended potential buffer
  (safe because scatter targets are unique within a batch — only the
  discarded sentinel row repeats).  ``np.add.at`` only on a flat float64
  table (ULI's transposed reads), where NumPy's fast path runs (DESIGN.md).
* **Every list is a property of the tree; a plan is written once.**
  U/V/W/X membership — the pruning of empty source octants included — is
  decided at compile from point counts (on a LET, from the mask of ghost
  octants that hold a point on some rank); a source whose density
  vanishes contributes exact zeros.  So is the one cost rule on top
  (:func:`~repro.core.lists.evaluated_lists`): a W/X pair whose far box
  is a leaf with fewer points than its surface is evaluated point to
  point in ULI and booked to W and X.  An apply's one write (per-thread
  scratch aside) is a reserved kernel block's first fill, one assignment
  of the bits every apply evaluates there: concurrent applies need no
  lock, and a plan weighs what it reserved after any number of requests.
* **Blocks the size of their boxes.**  A block side is
  :func:`repro.core.tree.pad_class` of the box's own count — a leaf's
  points (S2U, D2T, the leaf side of an X/W pair, a ULI target) or the
  packed source total of the U-list it stores (the ULI source side) — two
  classes per octave, so a block holds, evaluates and multiplies less
  than half again of its real pairs per side.  The class is a property of
  the box and nothing else: a geometry patch keeps every clean box's slot
  key, and every rank of a LET cuts an octant's blocks alike.
* **Kernel blocks are evaluated in one place, each entry held once.**
  Compile evaluates none: it reserves a :class:`_KernelBlock` for each
  leaf/pair block a byte budget covers, claimed in the order ULI (it
  dominates), S2U, D2T, then the pair section, and the first apply that
  reads one keeps it (:meth:`EvalPlan._kmat`); later applies are pure
  GEMM + scatter.  Under ``K(x, y) = K(y, x)ᵀ`` (:func:`_wx_dual`) a dual
  block is held once and read from both sides: X/W pairs, S2U/D2T (DE is
  UC) and the U and direct pairs of in-scope leaves (:func:`_uli_members`).
  Blocks the budget leaves out (all, at ``matrix_budget=0``) are
  evaluated per apply, bit-identically; so is every block of the no-fill
  view (``replace(plan, _fill=False)``) a one-shot evaluation applies.
* **Precision is a compile-time axis.**  ``compile_plan(precision="fp32")``
  stores float32 kernel matrices, reads the complex64 V-list offset
  tables and uses float32 scratch tables, so the GEMM / FFT-translate phases run in
  single precision (the paper ran exactly these phases in fp32 on the
  GPU, §5).  The *accumulation* state stays float64 throughout: the
  ``up``/``dcheck``/``dequiv``/potential arrays, the U2U/D2D operator
  chains (roundoff there compounds with tree depth) and multi-RHS
  column sums.  ``precision="fp64"`` (the default) stages nothing: the
  casts are identities.  The virtual GPU's device phases are these fp32
  applies, run on its plan read at ``precision="fp32"``: a reserved block
  is read and filled only at the plan's own dtype, so the float64 blocks
  of an fp64 plan are evaluated in float32 there and kept nowhere.

A plan is bound to one ``(tree, lists, kernel, order, m2l_mode, scope,
targets)`` configuration; :func:`tree_fingerprint` rejects accidental
reuse against a different tree.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from repro.core.contract import gemm_both, gemm_cols, gemm_rows
from repro.core.lists import evaluated_lists
from repro.core.parallel import record_parallel_spans
from repro.core.tree import FmmTree, TreeDelta, concat_ranges, diff_trees, leaf_batches, pad_class
from repro.core.work import member_sums
from repro.util import morton
from repro.util.blas import limit_blas_threads

__all__ = [
    "EvalPlan",
    "PlanScopes",
    "PlanMismatchError",
    "PrecisionError",
    "VALID_PRECISIONS",
    "compile_plan",
    "patch_plan",
    "tree_fingerprint",
]

#: Default byte budget for cached kernel-matrix blocks (see compile_plan).
MATRIX_BUDGET = 512 * 2**20

#: Accepted values for every ``precision=`` parameter in the stack.
#: ``"auto"`` is resolved to a concrete precision by the callers that own
#: a calibration context (evaluator / distributed driver / serve engine);
#: :func:`compile_plan` itself only accepts the concrete two.
VALID_PRECISIONS = ("fp64", "fp32", "auto")


class PrecisionError(ValueError):
    """An invalid or unsatisfiable precision request.

    Raised for unknown precision strings, for a per-call override that
    contradicts an explicit plan's precision, and by the serving engine
    when a request overrides a model to a precision the model does not
    allow.
    """


class PlanMismatchError(ValueError):
    """An :class:`EvalPlan` was applied to a tree it was not compiled for."""


def tree_fingerprint(tree: FmmTree) -> str:
    """Cheap structural fingerprint of a tree (topology + point layout).

    Covers the node key set and the per-node point ranges — everything the
    plan's precompiled indices depend on.  Point coordinates are pinned by
    the key set up to leaf-box resolution; hashing them too would cost
    more than the residual collision risk is worth.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(np.int64(tree.n_points).tobytes())
    h.update(np.ascontiguousarray(tree.keys).tobytes())
    h.update(np.ascontiguousarray(tree.pt_begin).tobytes())
    h.update(np.ascontiguousarray(tree.pt_end).tobytes())
    return h.hexdigest()


def target_fingerprint(targets: FmmTree) -> str:
    """:func:`tree_fingerprint` of a target tree with its coordinates too:
    a target set is new on every call, and its plan holds them."""
    h = hashlib.blake2b(tree_fingerprint(targets).encode(), digest_size=16)
    h.update(np.ascontiguousarray(targets.points).tobytes())
    return h.hexdigest()


@dataclass
class PlanScopes:
    """Per-phase node masks baked into a plan at compile time.

    ``None`` means unrestricted.  The distributed driver passes its
    ownership masks (owned leaves for the leaf phases, owned contributors
    for the tree phases), so ghost data never double-counts.  A scoped
    plan computes exactly the owner's share: applying it is only
    meaningful inside the exchange/reduce protocol that supplies the rest.
    ``nonempty`` rides along with them: the LET's mask of octants that
    hold a point on *some* rank, which decides the W-list sources kept
    (``None`` = the tree's own point counts, exact on a solo tree).
    """

    s2u: np.ndarray | None = None
    u2u: np.ndarray | None = None
    vli: np.ndarray | None = None
    xli: np.ndarray | None = None
    d2d: np.ndarray | None = None
    wli: np.ndarray | None = None
    d2t: np.ndarray | None = None
    uli: np.ndarray | None = None
    nonempty: np.ndarray | None = None

    def any_set(self) -> bool:
        return any(
            getattr(self, f) is not None
            for f in ("s2u", "u2u", "vli", "xli", "d2d", "wli", "d2t", "uli")
        )


# -- precompiled section records ---------------------------------------------


@dataclass
class _LeafBlock:
    """One (level, padded-count) leaf batch of S2U or D2T."""

    level: int
    pad: int
    group: np.ndarray  # (b,) unique node indices
    pts: np.ndarray  # (b, pad, 3) centre-padded leaf points
    surf: np.ndarray  # (b, ns, 3) UC (S2U) / DE (D2T) surface points
    den_rows: np.ndarray | None  # (b, pad) density-table rows (S2U)
    pot_rows: np.ndarray | None  # (b, pad) potential-table rows (D2T)
    mat: np.ndarray | None  # uc2ue, materialised once (S2U)
    kmat: _KernelBlock | None  # reserved kernel block, budget permitting
    flops: float


@dataclass
class _MatStep:
    """One dense-operator application ``dst_arr[dst] (+)= src_arr[src] @ mat.T``."""

    mat: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    flops: float


@dataclass
class _D2dLevel:
    """One level of the downward sweep: L2L steps then DC->DE conversion."""

    l2l: list
    conv_mat: np.ndarray
    nodes: np.ndarray
    conv_flops: float


@dataclass
class _PairBlock:
    """X's or W's reading of one padded-count batch of (far box, leaf)
    pairs; under :func:`_wx_dual` both hold the same arrays."""

    pad: int
    rows: np.ndarray  # target node per pair: the far box (X) / the leaf (W)
    cols: np.ndarray  # source node per pair
    pts: np.ndarray  # (b, pad, 3) the leaf's points: X sources / W targets
    surf: np.ndarray  # (b, ns, 3) the far box's surface: DC (X) = UE (W)
    den_rows: np.ndarray | None  # (b, pad) density-table rows (XLI)
    order: np.ndarray  # stable argsort of the scatter target
    starts: np.ndarray  # reduceat segment starts
    seg: np.ndarray  # unique scatter targets, segment order
    pot_rows: np.ndarray | None  # (nseg, pad) potential-table rows (WLI)
    kmat: _KernelBlock | None  # kernel(surf, pts); eval_kernel(pts, surf) if W's own
    flops: float


@dataclass
class _UliBlock:
    """One (tpad, spad) U-list batch: direct near-field interactions, over
    the members each box stores (:func:`_uli_members`); the source slots of
    its other in-scope members are read transposed too (empty if not dual)."""

    tp: int
    sp: int
    boxes: np.ndarray  # (b,) unique target leaves
    tgt_pts: np.ndarray  # (b, tp, 3) centre-padded targets
    src_pts: np.ndarray  # (b, sp, 3) centre-padded packed neighbour sources
    den_rows: np.ndarray  # (b, sp) density-table rows of the sources
    pot_rows: np.ndarray  # (b, tp) potential-table rows of the targets
    t_sel: np.ndarray  # flat (b, sp) slots read transposed, ascending
    t_rows: np.ndarray  # their potential-table rows
    kmat: _KernelBlock | None
    flops: float


class _KernelBlock:
    """One kernel block the matrix budget reserved, ``nbytes`` of
    ``dtype`` and ``shape``; ``array`` is stored by the first apply that
    reads it at that dtype (:meth:`EvalPlan._kmat`).  The records that
    read one block (S2U and D2T, X and W under :func:`_wx_dual`) share it."""

    __slots__ = ("dtype", "shape", "nbytes", "array")

    def __init__(self, dtype, shape: tuple):
        self.dtype, self.shape, self.array = np.dtype(dtype), shape, None
        self.nbytes = self.dtype.itemsize * math.prod(shape)


def _distinct_bytes(values) -> int:
    """Bytes of the arrays and reserved kernel blocks among ``values``,
    each object counted once."""
    return sum({id(v): v.nbytes for v in values
                if isinstance(v, (np.ndarray, _KernelBlock))}.values())


@dataclass
class EvalPlan:
    """Everything density-independent about one FMM evaluation.

    Compile with :func:`compile_plan` (or
    :meth:`FmmEvaluator.compile_plan`); apply by passing the plan to the
    evaluator phase methods (``FmmEvaluator.evaluate`` manages this
    automatically).  Every section is fixed at compile; an apply writes
    only its per-thread scratch and, on the first read, the reserved
    kernel blocks (:meth:`_kmat`).  The virtual GPU's phases
    (:class:`~repro.gpu.accel.GpuFmmEvaluator`) are these same applies,
    on the plan read at ``precision="fp32"``, which fills nothing.
    """

    fingerprint: str
    n_points: int
    n_targets: int  # potential rows: n_points, or the separate targets'
    ns: int
    ks: int
    kt: int  # base-kernel target dim (check surfaces)
    kt_eval: int  # eval-kernel target dim (potential layout)
    scoped: bool
    #: Arithmetic precision of the GEMM / FFT-translate phases: "fp64"
    #: (historical, bit-identical default) or "fp32" (float32 matrices,
    #: complex64 V-list, float32 gather tables; accumulators stay float64).
    precision: str = "fp64"
    #: Whether W and D2T read X's and S2U's blocks transposed and ULI holds
    #: a pair once (:func:`_wx_dual`); never with separate targets.
    dual: bool = False
    #: :func:`target_fingerprint` of a separate target tree; ``None`` when the
    #: targets are the tree's own points.
    target_fingerprint: str | None = None
    s2u: list = field(default_factory=list)
    u2u: list = field(default_factory=list)
    #: :class:`~repro.core.fft_m2l.VGroup` runs, and the bytes of the
    #: offset tables their levels read (each distinct table once).
    vli_fft: list = field(default_factory=list)
    vli_table_bytes: int = 0
    vli_dense: list = field(default_factory=list)
    xli: list = field(default_factory=list)
    d2d: list = field(default_factory=list)
    wli: list = field(default_factory=list)
    d2t: list = field(default_factory=list)
    uli: list = field(default_factory=list)
    #: Kernel flops of the direct W and X pairs (:func:`~repro.core.lists.
    #: evaluated_lists`) that ULI evaluates, booked to ``"WLI"`` / ``"XLI"``.
    direct_flops: dict = field(default_factory=dict)
    #: Populated by :func:`patch_plan`: how much of the kernel-matrix
    #: state was reused vs recomputed (empty for fresh compiles).
    patch_stats: dict = field(default_factory=dict, repr=False)
    #: Whether an apply keeps the reserved blocks it evaluates; the lazy
    #: cache applies a plan's ``False`` view once before it fills it.
    _fill: bool = field(default=True, repr=False)
    #: Weak reference to the tree compiled for (the identity fast path of
    #: :meth:`check`); weak so that a cached plan never keeps its tree alive.
    _tree: weakref.ref | None = field(default=None, repr=False)
    #: Scratch buffers are per-thread: concurrent applies of one plan (the
    #: serving engine's worker pool) must not share density tables or FFT
    #: accumulators mid-flight.
    _scratch: threading.local = field(
        default_factory=threading.local, repr=False
    )

    # -- validation --------------------------------------------------------

    def check(self, tree: FmmTree) -> None:
        """Raise :class:`PlanMismatchError` unless compiled for ``tree``
        and its own points as the targets."""
        if self.target_fingerprint is not None:
            raise PlanMismatchError("EvalPlan was compiled for separate targets")
        if self._tree is not None and self._tree() is tree:
            return
        if tree_fingerprint(tree) != self.fingerprint:
            raise PlanMismatchError(
                "EvalPlan was compiled for a different tree "
                "(fingerprint mismatch); recompile with compile_plan()"
            )

    def matrix_bytes(self) -> int:
        """Bytes of the reserved kernel-matrix blocks, each block once (a
        block W and X both read is one block), filled or not yet."""
        secs = (self.s2u, self.d2t, self.xli, self.wli, self.uli)
        return _distinct_bytes(b.kmat for sec in secs for b in sec)

    @property
    def nbytes(self) -> int:
        """Total bytes of the plan once filled: reserved kernel matrices
        plus every precompiled index / point / operator array, each
        distinct array once.  The serving plan cache charges this against
        its memory budget when deciding LRU evictions, so it walks *all*
        block records, not just ``kmat``."""
        records = [*self.s2u, *self.u2u, *self.vli_dense, *self.xli, *self.wli,
                   *self.d2t, *self.uli, *self.vli_fft, *self.d2d,
                   *(st for lv in self.d2d for st in lv.l2l)]
        return self.vli_table_bytes + _distinct_bytes(
            v for rec in records for v in vars(rec).values())

    # -- shared helpers ----------------------------------------------------

    @property
    def rdtype(self):
        """Real working dtype of the GEMM phases (float32 / float64)."""
        return np.float32 if self.precision == "fp32" else np.float64

    @property
    def cdtype(self):
        """Complex dtype of the FFT V-list phase (complex64 / complex128)."""
        return np.complex64 if self.precision == "fp32" else np.complex128

    def _cast(self, a: np.ndarray) -> np.ndarray:
        """Stage a float64 accumulator slice into the plan's working dtype.

        Identity (same object, no copy) for fp64 plans, so the default
        path is untouched; one rounding to float32 for fp32 plans.
        """
        if self.precision == "fp32":
            return a.astype(np.float32)
        return a

    def _kmat(self, blk, kernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``kernel(a, b)`` for ``blk``, the one place blocks are evaluated:
        kept by one assignment (a racing first read stores the same bits)
        when reserved at this plan's dtype and the plan fills, else not."""
        res = blk.kmat
        mine = res is not None and res.dtype == self.rdtype
        if mine and res.array is not None:
            return res.array
        k = kernel.matrix_batch(a, b, dtype=self.rdtype)
        if mine and self._fill:
            res.array = k
        return k

    def _buffer(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """Reusable per-thread scratch array (density table, V-list wave
        tables and tile lanes: the calling thread's, which lends them to
        its tiles)."""
        bufs = getattr(self._scratch, "bufs", None)
        if bufs is None:
            bufs = self._scratch.bufs = {}
        need = math.prod(shape)
        buf = bufs.get(name)
        if buf is None or buf.size < need or buf.dtype != np.dtype(dtype):
            buf = bufs[name] = np.empty(need, dtype=dtype)
        return buf[:need].reshape(shape)

    # -- state layout -------------------------------------------------------

    @staticmethod
    def _cols(arr: np.ndarray) -> np.ndarray:
        """``(rows, q, features)`` view of a node-state array; the 2-D
        layout single-RHS callers hold is its one-column case."""
        return arr if arr.ndim == 3 else arr[:, None, :]

    def _pot_table(self, state: dict) -> np.ndarray:
        """``(n_targets + 1, q, kt_eval)`` view of the sentinel-extended
        potential rows (see ``FmmEvaluator.allocate``).

        Row ``n_targets`` absorbs the padding-slot writes of fancy-indexed
        scatters; ``state["pot"]`` views only the real rows.
        """
        pad = state["_pot_pad"]
        if pad.ndim == 3:
            return pad
        return pad.reshape(self.n_targets + 1, 1, self.kt_eval)

    def _dens_table(self, dens: np.ndarray) -> np.ndarray:
        """Sentinel-extended ``(n_points + 1, ks, q)`` density table for a
        flat density vector (``q = 1``) or a ``(n_points * ks, q)`` block.

        Every padding slot of a gather index points at the all-zero
        sentinel row, so assembling a padded per-box density block is a
        single fancy index; row-major over points, so that gather reshapes
        straight to gemm_cols's ``(b, pad * ks, q)``.  The buffer is
        reused across phases and applies.
        """
        dens = np.asarray(dens)
        q = 1 if dens.ndim == 1 else dens.shape[1]
        table = self._buffer("dens", (self.n_points + 1, self.ks, q), self.rdtype)
        table[: self.n_points] = dens.reshape(self.n_points, self.ks, q)
        table[self.n_points] = 0.0
        return table

    @staticmethod
    def _den_block(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Gather ``(b, pad * ks, q)`` C-contiguous padded densities."""
        b, pad = rows.shape
        ks, q = table.shape[1], table.shape[2]
        return table[rows].reshape(b, pad * ks, q)

    # -- phase applies -----------------------------------------------------
    #
    # One body per phase.  Each builds the phase's tiles — a compiled
    # block, chunk or step each, never a fraction of one, because BLAS
    # GEMM results are not stable under a changed row count at small
    # sizes — and hands them to :meth:`_tiles` with a ``compute`` (may
    # run on a pool worker) and a ``done`` (always runs on the caller, in
    # compiled tile order).  ``q`` right-hand sides ride through together
    # (every operator is density-linear); a single density is the ``q = 1``
    # case, and a 1-wide pool runs the tiles inline.  Three sets of rules
    # make every column of every (q, pool width) combination
    # **bit-identical** to the solo inline apply:
    #
    # State layout.  Node state carries ``q`` on axis 1 — ``up``/``dequiv``
    # ``(n_nodes, q, ns*ks)``, ``dcheck`` ``(n_nodes, q, ns*kt)``,
    # ``_pot_pad`` ``(n_targets + 1, q, kt_eval)`` — so a per-column slice
    # ``arr[idx, j]`` gathers the same contiguous copy a 2-D ``arr[idx]``
    # does.  Single-RHS callers (the distributed driver) hold 2-D / flat
    # views of one-column storage (``FmmEvaluator.allocate``);
    # :meth:`_cols` / :meth:`_pot_table` lift them back.  gemm_cols
    # operands instead keep ``q`` innermost (``(b, j, q)`` in, ``(b, i, q)``
    # out), BLAS's preferred column layout; scatters transpose views.
    #
    # Column numerics.
    # * Kernel-block contractions (S2U/XLI/WLI/D2T/ULI) go through
    #   :func:`repro.core.contract.gemm_cols`: GEMM runs on a fixed
    #   ``(b, j, Q_PAD)`` zero-padded contiguous block, so column ``c`` of a
    #   ``q``-column call matches the one-column call bit for bit; a
    #   transposed read (D2T, ULI's stored half) is ``gemm_rows``, alike.
    # * Dense matrix steps (U2U, D2D, dense M2L, the S2U post-multiply)
    #   loop over columns: folding ``q`` into those GEMMs would change the
    #   row count and with it the bits.
    # * The FFT V-list is ``FftM2L.translate``: pocketfft transforms a
    #   batch line by line, and every (group, column) item runs its own
    #   gather and GEMM of the solo shapes inside each frequency slab,
    #   sharing only the slab's kernel matrix and the gather indices.
    # * ``np.add.reduceat`` segment sums and ULI's ``np.add.at`` add per slot
    #   in a fixed order whatever the trailing axes, so schedules are shared.
    # * No schedule depends on a density: a column that is zero on a W-list
    #   source runs the same GEMM and adds the exact zeros it produces,
    #   in a block as in its solo apply.
    #
    # Output ownership (what lets tiles run on a pool).
    # * Disjoint-output tiles (S2U leaf groups; the V-list's three stages:
    #   a (group, column) item's own tables and target rows, a frequency
    #   slab's rows of every table) write their slices from ``compute`` —
    #   the serial stores, reordered across disjoint rows.
    # * Overlapping-output tiles (dense-M2L targets, the XLI/WLI/D2T/ULI
    #   scatters, whose ``pot_rows`` share the sentinel pad row across
    #   blocks) return values from ``compute``; ``done`` adds them in
    #   compiled tile order — the serial ``+=`` sequence.
    # * U2U and D2D never go to the pool: their steps are chained level to
    #   level (a parent written at level L is read at level L-1) and are
    #   eight small GEMMs per level, so a pooled round costs more in worker
    #   wake-ups than the steps themselves — they are the traversals the
    #   paper, too, leaves sequential.  They run on the caller in compiled
    #   order, under the same BLAS pin as the pooled phases, and take no
    #   pool.
    # * Flops are charged on the caller in compiled order — in ``done``,
    #   or per group after the V-list's stages — so profiles (and trace
    #   signatures) are schedule-independent.
    # * BLAS is pinned to one thread for the *whole* phase — worker tiles
    #   and the caller's own GEMMs alike — so every pool width runs the
    #   same single-thread GEMMs whatever the host's BLAS setting.  A
    #   1-wide pool runs the tiles inline under the same pin and emits no
    #   ``PARALLEL:*`` spans.

    @contextmanager
    def _tiles(self, phase: str, profile, pool):
        """Yield ``run(tiles, compute, done)``: the one place tiles execute.

        On a 1-wide pool they run inline and lazily — compute a tile,
        ``done`` it, move on — so no list of tile results is ever held.
        With a wider pool the computes of one ``run`` go to the workers
        together, then every ``done(tile, result)`` replays on the caller
        in tile order; the BLAS pin and the ``PARALLEL:<phase>`` span pair
        cover all the runs of the phase.
        """
        if pool.threads <= 1:
            def run(tiles, compute, done):
                for tile in tiles:
                    done(tile, compute(tile))

            with limit_blas_threads(1):
                yield run
            return
        busy, ntiles = 0.0, 0

        def run(tiles, compute, done):
            nonlocal busy, ntiles
            results, b = pool.run([partial(compute, tile) for tile in tiles])
            busy += b
            ntiles += len(tiles)
            for tile, res in zip(tiles, results):
                done(tile, res)

        run.width = pool.threads  # tiles of one run in flight at once
        t0 = time.perf_counter()
        with limit_blas_threads(1):
            yield run
        if ntiles:
            record_parallel_spans(
                profile, phase, time.perf_counter() - t0, busy,
                ntiles, pool.threads,
            )

    def apply_s2u(self, ev, dens, state, profile, pool) -> None:
        if not self.s2u:
            return
        up = self._cols(state["up"])
        table = self._dens_table(dens)
        q = table.shape[2]

        def compute(blk):
            k = self._kmat(blk, ev.kernel, blk.surf, blk.pts)
            qv = gemm_cols(k, self._den_block(table, blk.den_rows))
            for j in range(q):  # leaf groups are disjoint: write in place
                up[blk.group, j] = np.ascontiguousarray(qv[:, :, j]) @ blk.mat.T

        def done(blk, _):
            profile.add_flops(blk.flops * q)

        with self._tiles("S2U", profile, pool) as run:
            run(self.s2u, compute, done)

    def apply_u2u(self, ev, state, profile) -> None:
        up = self._cols(state["up"])
        q = up.shape[1]
        with limit_blas_threads(1):
            for st in self.u2u:  # a step's parents are distinct rows
                for j in range(q):
                    up[st.dst, j] += up[st.src, j] @ st.mat.T
                profile.add_flops(st.flops * q)

    def apply_vli_dense(self, ev, state, profile, pool) -> None:
        if not self.vli_dense:
            return
        up, dcheck = self._cols(state["up"]), self._cols(state["dcheck"])
        q = up.shape[1]

        def compute(st):
            # staged in the matrix's dtype: float32 under an fp32 plan,
            # float64 (no copy) otherwise
            return [
                up[st.src, j].astype(st.mat.dtype, copy=False) @ st.mat.T
                for j in range(q)
            ]

        def done(st, prods):  # targets repeat across steps: add in order
            for j in range(q):
                dcheck[st.dst, j] += prods[j]
            profile.add_flops(st.flops * q)

        with self._tiles("VLI", profile, pool) as run:
            run(self.vli_dense, compute, done)

    def apply_vli_fft(self, ev, state, profile, pool) -> None:
        if not self.vli_fft:
            return
        up, dcheck = self._cols(state["up"]), self._cols(state["dcheck"])
        with self._tiles("VLI", profile, pool) as run:
            ev.fft.translate(
                self.vli_fft, up, dcheck, self.cdtype, self._buffer, run
            )
        for g in self.vli_fft:
            profile.add_flops(g.flops * up.shape[1])

    def _book_direct(self, phase, profile, q) -> None:
        """Charge ``phase`` the flops of its pairs that ULI evaluates."""
        if self.direct_flops.get(phase):
            profile.add_flops(self.direct_flops[phase] * q)

    def apply_xli(self, ev, dens, state, profile, pool) -> None:
        self._book_direct("XLI", profile, 1 if np.ndim(dens) == 1 else dens.shape[1])
        if not self.xli:
            return
        dcheck = self._cols(state["dcheck"])
        table = self._dens_table(dens)
        q = table.shape[2]

        def compute(blk):
            k = self._kmat(blk, ev.kernel, blk.surf, blk.pts)
            vals = gemm_cols(k, self._den_block(table, blk.den_rows))
            return np.add.reduceat(vals[blk.order], blk.starts, axis=0)

        def done(blk, sums):  # (nseg, ns*kt, q)
            dcheck[blk.seg] += sums.transpose(0, 2, 1)
            profile.add_flops(blk.flops * q)

        with self._tiles("XLI", profile, pool) as run:
            run(self.xli, compute, done)

    def apply_d2d(self, ev, state, profile) -> None:
        dcheck, dequiv = self._cols(state["dcheck"]), self._cols(state["dequiv"])
        q = dcheck.shape[1]
        with limit_blas_threads(1):
            for lv in self.d2d:
                # one l2l step per child position: distinct child rows,
                # reading parent rows the previous level finished
                for st in lv.l2l:
                    for j in range(q):
                        dcheck[st.dst, j] += dequiv[st.src, j] @ st.mat.T
                    profile.add_flops(st.flops * q)
                for j in range(q):
                    dequiv[lv.nodes, j] = dcheck[lv.nodes, j] @ lv.conv_mat.T
                profile.add_flops(lv.conv_flops * q)

    def _scatter_pot(self, potr, rows, vals) -> None:
        """``potr[rows] += vals`` for gemm_cols-layout ``vals``
        ``(b, pad * kt_eval, q)`` and ``(b, pad)`` potential-table rows."""
        b, pad = rows.shape
        potr[rows] += vals.reshape(b, pad, self.kt_eval, -1).transpose(0, 1, 3, 2)

    def apply_wli(self, ev, state, profile, pool) -> None:
        up = self._cols(state["up"])
        q = up.shape[1]
        self._book_direct("WLI", profile, q)
        if not self.wli:
            return
        potr = self._pot_table(state)

        def compute(blk):
            if self.dual:  # X's block, contracted transposed: a BLAS flag, no copy
                k = self._kmat(blk, ev.kernel, blk.surf, blk.pts).transpose(0, 2, 1)
            else:
                k = self._kmat(blk, ev.eval_kernel, blk.pts, blk.surf)
            vals = gemm_cols(k, self._cast(up[blk.cols]).transpose(0, 2, 1))
            return np.add.reduceat(vals[blk.order], blk.starts, axis=0)

        def done(blk, sums):
            self._scatter_pot(potr, blk.pot_rows, sums)
            profile.add_flops(blk.flops * q)

        with self._tiles("WLI", profile, pool) as run:
            run(self.wli, compute, done)

    def apply_d2t(self, ev, state, profile, pool) -> None:
        if not self.d2t:
            return
        dequiv = self._cols(state["dequiv"])
        q = dequiv.shape[1]
        potr = self._pot_table(state)

        def compute(blk):
            den = self._cast(dequiv[blk.group])
            if self.dual:  # S2U's K(UC, pts), contracted transposed, row-major
                k = self._kmat(blk, ev.kernel, blk.surf, blk.pts)
                return gemm_rows(den, k).transpose(0, 2, 1)
            k = self._kmat(blk, ev.eval_kernel, blk.pts, blk.surf)
            return gemm_cols(k, den.transpose(0, 2, 1))

        def done(blk, vals):
            self._scatter_pot(potr, blk.pot_rows, vals)
            profile.add_flops(blk.flops * q)

        with self._tiles("D2T", profile, pool) as run:
            run(self.d2t, compute, done)

    def apply_uli(self, ev, dens, state, profile, pool) -> None:
        if not self.uli:
            return
        table = self._dens_table(dens)
        q = table.shape[2]
        potr = self._pot_table(state)
        # a transposed read's slot row holds (kt, q) values; the potential
        # table's row holds (q, kt): flat offsets of the one in the other
        kt = self.kt_eval
        c, off = q * kt, (np.arange(q) * kt + np.arange(kt)[:, None]).ravel()

        def compute(blk):
            k = self._kmat(blk, ev.eval_kernel, blk.tgt_pts, blk.src_pts)
            src = self._den_block(table, blk.den_rows)
            if not blk.t_sel.size:
                return gemm_cols(k, src), None
            b = blk.boxes.size
            den = table[blk.pot_rows].transpose(0, 3, 1, 2).reshape(b, q, -1)
            vals, back = gemm_both(k, src, den)
            back = np.take(back.reshape(b * blk.sp, -1), blk.t_sel, axis=0)
            at = blk.t_rows if c == 1 else (blk.t_rows[:, None] * c + off).ravel()
            return vals, (at, back.astype(np.float64, copy=False).ravel())

        def done(blk, res):
            vals, back = res
            self._scatter_pot(potr, blk.pot_rows, vals)
            if back is not None:  # a point's reads land one by one, in slot order
                np.add.at(potr.reshape(-1), *back)
            profile.add_flops(blk.flops * q)

        with self._tiles("ULI", profile, pool) as run:
            run(self.uli, compute, done)


# -- compile ------------------------------------------------------------------


class _Side:
    """One tree's per-box arrays, shared by every kernel-matrix section of
    a compile: each batch cuts its padded point rows and points from them
    with one gather, whatever its boxes."""

    def __init__(self, tree: FmmTree):
        self.tree, self.n = tree, tree.n_points
        self.counts = tree.point_counts()
        #: the points, then every box centre: a padding slot's point
        self.table = np.concatenate([tree.points, tree.centers])

    def rows(self, nodes: np.ndarray, pad: int) -> np.ndarray:
        """(b, pad) rows into the point-major table; padding -> sentinel row."""
        ar = np.arange(pad, dtype=np.int64)
        return np.where(ar < self.counts[nodes][:, None],
                        self.tree.pt_begin[nodes][:, None] + ar, self.n)

    def points(self, rows: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """(b, pad, 3) points of ``rows``, padding slots at the centre of
        their box in ``nodes`` (a finite in-box point whose zero density
        contributes nothing to any sum)."""
        return np.take(self.table, np.where(rows < self.n, rows, self.n + nodes[:, None]), axis=0)


def _scatter_schedule(targets: np.ndarray):
    """Stable argsort + reduceat segment starts + unique segment targets."""
    order = np.argsort(targets, kind="stable")
    st = targets[order]
    starts = np.flatnonzero(np.concatenate([[True], st[1:] != st[:-1]]))
    return order, starts, st[starts]


def _reserve(plan: EvalPlan, left: int, kernel, a, b, slots, reuse):
    """A :class:`_KernelBlock` for ``kernel(a, b)`` if ``left`` bytes of
    matrix budget cover it, else None; empty for a fresh compile, whose
    null oracle offers no slot (``slots`` None).

    The estimate and the caller's charge use the plan's working itemsize:
    fp32 plans store the block rounded to float32, half the bytes, so the
    same budget fits twice the near field.

    ``slots`` is ``(bi, si)``: block ``j``'s geometry inputs are unchanged
    from slot ``si[j]`` of ``reuse.blocks[bi[j]]``, or ``bi[j] = -1``.
    Three outcomes per block: the old block shared (every slot survives in
    place), slice copies of the clean slots of filled old blocks plus one
    ``matrix_batch`` over the dirty ones, or empty (no filled slot
    survives).  Per-slot stitching is bitwise safe because a matrix
    element depends on its own (target, source) pair only, never on its
    batch neighbours — by construction: ``Kernel.matrix_batch`` is one
    tiling driver over per-pair formulas (``kernels/base.py``) and is
    tested bitwise across tile splits.  The skip decision never looks at
    the slots — a patched plan makes exactly the reservations a fresh
    compile would.
    """
    itemsize = np.dtype(plan.rdtype).itemsize
    nb, rows, cols = a.shape[0], a.shape[1] * kernel.target_dim, b.shape[1] * kernel.source_dim
    blk = _KernelBlock(plan.rdtype, (nb, rows, cols))
    if blk.nbytes > left:
        return None
    if slots is None:
        return blk
    bi, si, stats = *slots, reuse.stats
    live = bi >= 0
    live[live] = (reuse.shapes[bi[live]] == (rows, cols)).all(axis=1)
    if live.all() and (bi == bi[0]).all() and np.array_equal(si, np.arange(nb)) \
            and reuse.blocks[bi[0]].shape[0] == nb:
        # the whole old block survives: share it, filled or not
        stats["slots_reused"] += nb
        stats["bytes_reused"] += blk.nbytes
        stats["blocks_ref"] += 1
        return reuse.blocks[bi[0]]
    live[live] = reuse.filled[bi[live]]  # slots are copied from filled old blocks only
    dirty = np.flatnonzero(~live)
    stats["slots_reused"] += nb - dirty.size
    stats["slots_fresh"] += dirty.size
    stats["bytes_fresh"] += itemsize * dirty.size * rows * cols
    if dirty.size == nb:
        return blk
    k = np.empty(blk.shape, dtype=blk.dtype)
    dst = np.flatnonzero(live)
    src, old = si[dst], bi[dst]
    # run-grouped contiguous slice copies: a fancy-indexed gather
    # materialises arr[src] as a temporary (twice the memory traffic);
    # surviving slots overwhelmingly sit in long aligned runs, so
    # slice-to-slice copies hit straight memcpy bandwidth
    cut = np.flatnonzero((np.diff(dst) != 1) | (np.diff(src) != 1) | (np.diff(old) != 0)) + 1
    for r0, r1 in zip([0, *cut.tolist()], [*cut.tolist(), dst.size]):
        k[dst[r0]:dst[r1 - 1] + 1] = reuse.blocks[old[r0]].array[src[r0]:src[r1 - 1] + 1]
    stats["bytes_reused"] += itemsize * dst.size * rows * cols
    if dirty.size:
        k[dirty] = kernel.matrix_batch(a[dirty], b[dirty], dtype=plan.rdtype)
    blk.array = k
    return blk


class _NoReuse:
    """The null reuse oracle of a fresh compile: no slot survives, so
    :func:`_reserve` reserves every block it can afford, empty."""

    def slots(self, *args):
        return None

    uli_slots = slots


class _PlanReuse(_NoReuse):
    """Reuse oracle for :func:`patch_plan`: the old plan's kernel slots,
    found by the old index of a node (``delta.old_index``: the same octant
    key) with one search per batch.

    A slot is offered for reuse only when the :class:`TreeDelta` proves
    its geometry inputs bitwise unchanged — box content for leaf blocks;
    for pair blocks the content of the leaf (the X-list source, the W-list
    target) plus the far box's surface, pinned by its key — one index for
    both lists; and for ULI blocks the target's content and the stored
    U ∪ D membership (:func:`_uli_members` over the old split's row, the
    old plan's boxes as its scope: same member keys, every member leaf
    clean).  Kernel matrices additionally require matching precision.
    """

    def __init__(self, ev, old_plan: EvalPlan, old_tree: FmmTree, old_lists,
                 delta: TreeDelta, precision: str):
        self.stats = dict.fromkeys(
            ("slots_reused", "slots_fresh", "bytes_reused", "bytes_fresh", "blocks_ref"), 0)
        self.clean, self.old_index = delta.node_clean, delta.old_index
        n = self.n_old = old_tree.n_nodes
        #: old slots, ``tag -> [(node codes, pad, kmat)]``: a leaf block's tag
        #: is its section and ULI's "uli", coded by the leaf; a pair block's
        #: "wx", coded (far box, leaf) whichever list reads it, or "w" for
        #: W's own layout
        parts = {
            "uli": [(b.boxes, b.tp << 32 | b.sp, b.kmat) for b in old_plan.uli],
            "s2u": [(b.group, b.pad, b.kmat) for b in old_plan.s2u],
            "d2t": [(b.group, b.pad, b.kmat) for b in old_plan.d2t],
            "wx": [(b.rows * n + b.cols, b.pad, b.kmat) for b in old_plan.xli],
        }
        parts.setdefault("wx" if old_plan.dual else "w", []).extend(
            (b.cols * n + b.rows, b.pad, b.kmat) for b in old_plan.wli)
        if precision != old_plan.precision:  # the stored dtypes differ
            parts = {}
        #: the distinct old kernel blocks, their (rows, cols) and filled state
        self.blocks = list({id(k): k for p in parts.values() for *_, k in p
                            if k is not None}.values())
        self.shapes = np.array([k.shape[1:] for k in self.blocks], dtype=np.int64).reshape(-1, 2)
        self.filled = np.array([k.array is not None for k in self.blocks], dtype=bool)
        bid = {id(k): j for j, k in enumerate(self.blocks)}
        self._slots = {}
        for tag, p in parts.items():
            if p:  # a pair both lists read is listed twice, at the same slot
                codes = np.concatenate([c for c, _, _ in p])
                order = np.argsort(codes, kind="stable")
                self._slots[tag] = tuple(a[order] for a in (
                    codes,
                    np.concatenate([np.full(c.size, pad) for c, pad, _ in p]),
                    np.concatenate([np.full(c.size, bid.get(id(k), -1)) for c, _, k in p]),
                    np.concatenate([np.arange(c.size) for c, _, _ in p])))
        # the old stored U ∪ D members, flat by row
        old_boxed = np.zeros(n, dtype=bool)
        for b in old_plan.uli:
            old_boxed[b.boxes] = True
        old_u = evaluated_lists(old_tree, old_lists, ev.ns).u
        r, c = old_u.pairs()
        st = _uli_members(r, c, old_tree.point_counts(), old_tree.levels, old_boxed,
                          old_plan.dual)[0]
        self.old_keys = old_tree.keys[c[st]]
        self.old_n = member_sums(old_u, st)
        self.old_start = np.cumsum(self.old_n) - self.old_n

    def slots(self, tag, pad, nodes, far=None):
        """``(bi, si)`` old kmat slots of a ``tag`` batch (``bi`` -1 =
        dirty): offered where the content of ``nodes`` — the leaf whose
        points enter the matrix — is clean and the (``far``, node) keys
        and ``pad`` match."""
        bi = np.full(nodes.size, -1)
        si = np.zeros(nodes.size, dtype=np.int64)
        table = self._slots.get(tag)
        if table is None:
            return bi, si
        codes, pads, blk, slot = table
        oi = self.old_index[nodes]
        hit = self.clean[nodes]
        if far is not None:
            hit = hit & (self.old_index[far] >= 0)
            oi = self.old_index[far] * self.n_old + oi
        pos = np.minimum(np.searchsorted(codes, oi), codes.size - 1)
        hit &= (codes[pos] == oi) & (pads[pos] == pad) & (blk[pos] >= 0)
        bi[hit], si[hit] = blk[pos[hit]], slot[pos[hit]]
        return bi, si

    def uli_slots(self, tree, boxes, tp, sp, members):
        """The old kmat slots (:meth:`slots`) of a ULI batch whose boxes
        store the old members: ``members`` (``(start, n, flat member
        nodes)`` by row) hold the same keys in the same order as the old
        box's, and every member leaf is clean."""
        bi, si = self.slots("uli", tp << 32 | sp, boxes)
        live = np.flatnonzero(bi >= 0)
        start, n, cols = members
        b, oi = boxes[live], self.old_index[boxes[live]]
        differ = n[b] != self.old_n[oi]
        m = np.where(differ, 0, n[b])  # members compared per box
        new = cols[concat_ranges(start[b], m)]
        same = tree.keys[new] == self.old_keys[concat_ranges(self.old_start[oi], m)]
        bad = np.bincount(np.repeat(np.arange(live.size), m)[~(same & self.clean[new])],
                          minlength=live.size)
        bi[live[differ | (bad > 0)]] = -1
        return bi, si


# -- batch groupings ----------------------------------------------------------
#
# How compile cuts each phase into blocks.  Block membership and order fix
# the floating-point operation sequence of an apply, so these are what a
# patched plan, a scoped plan and a fresh compile must agree on
# (``tree.leaf_batches`` is the fourth, for the leaf phases).  All four
# size a block side with ``tree.pad_class`` of the member's own count —
# never of the batch — and batch the members of one class together, in
# list order; the chunk bounds below only split such a batch.  Leaves are
# batched per level as well (S2U applies a per-level operator to the
# batch), pairs are not.


def _v_offset_steps(tree, lists, scope=None):
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


def _child_steps(tree, nodes, lev, op, up) -> list:
    """One :class:`_MatStep` per child position of the level-``lev``
    ``nodes``, operator ``op(lev, position)``: child -> parent (``up``,
    U2U) or parent -> child (D2D's L2L)."""
    pos, steps = tree.child_pos[nodes], []
    for k in range(8):
        ch = nodes[pos == k]
        if ch.size:
            m, par = op(lev, k), tree.parent[ch]
            steps.append(_MatStep(mat=m, src=ch if up else par, dst=par if up else ch,
                                  flops=2.0 * ch.size * m.size))
    return steps


def _wx_dual(ev) -> bool:
    """Whether W reads X's blocks: one kernel on both sides of the tree
    that declares ``K(x, y) = K(y, x)ᵀ`` bitwise makes the W block of
    (leaf <- far box) the transpose of the X block of (far box <- leaf),
    ``dc_points`` being ``ue_points``.  Observed, never switched."""
    return ev.eval_kernel is ev.kernel and ev.kernel.transpose_symmetric


def _pair_batches(ns, counts):
    """Group (far box, leaf) pairs by :func:`pad_class` of the leaf's count
    and chunk; yields ``(pad, pair indices)``.  Pairs within a chunk share
    one broadcast kernel evaluation, whatever the levels of their far
    boxes: X and W apply no per-level operator."""
    kpad = pad_class(counts)
    for pad in morton.sorted_unique(kpad).tolist():
        sel = np.flatnonzero(kpad == pad)
        chunk = max(1, int(6e6 / max(pad * ns, 1)))
        for s in range(0, sel.size, chunk):
            yield pad, sel[s : s + chunk]


def _uli_members(rows, cols, counts, levels, inscope, dual):
    """``(stored, transposed)`` masks over the pairs ``(rows <- cols)`` of
    U ∪ D (:func:`evaluated_lists`): no source without points; under
    :func:`_wx_dual` a pair of in-scope leaves is held once, by its finer
    leaf, between leaves of one level by the lower Morton key — a box
    stores itself, those members and its out-of-scope (ghost) ones, and is
    read transposed for the rest in scope.  Otherwise a box stores its
    row.  Finer-first keeps a row rank-independent more often than key
    order alone: a direct pair's coarse side is often a ghost on a LET."""
    shared = dual & (np.True_ if inscope is None else inscope[cols])
    lr, lc = levels[rows], levels[cols]
    held = (lc < lr) | ((lc == lr) & (cols >= rows))
    stored = (counts[cols] > 0) & ~(shared & ~held)
    return stored, stored & shared & (cols != rows)


def _uli_groups(side, src_total, scope=None):
    """Yield U-list batch groups ``(tpad, spad, boxes)``: the selected
    leaves of ``side`` grouped by (:func:`pad_class` of the target count,
    of the stored source total ``src_total``) and chunked.  A leaf's packed
    neighbour sources are padded as one side, by their sum (14 boxes of 39
    points are 546 sources in 768 columns)."""
    counts = side.counts
    sel = side.tree.is_leaf & (counts > 0) & (src_total > 0)
    leaves = np.flatnonzero(sel if scope is None else sel & scope)
    tpad, spad = pad_class(counts[leaves]), pad_class(src_total[leaves])
    code = tpad * np.int64(1 << 32) + spad
    order = np.argsort(code, kind="stable")  # leaves stay in node order
    for grp in np.split(order, np.flatnonzero(np.diff(code[order])) + 1):
        if not grp.size:
            continue
        tp, sp = int(tpad[grp[0]]), int(spad[grp[0]])
        # bounded chunks keep batched GEMMs large enough to amortise
        # dispatch while keeping each compiled kmat block small
        # enough that a localized geometry update leaves most blocks
        # untouched — whole-block reuse in patch_plan shares those by
        # reference instead of copying (blocks sit in leaf Morton
        # order, so a moving cluster dirties a few contiguous chunks)
        chunk = max(1, int(1.5e6 / max(tp * sp, 1)))
        for s in range(0, grp.size, chunk):
            yield tp, sp, leaves[grp[s : s + chunk]]


def _leaf_section(ev, mat, reuse, side, section, sel) -> list:
    """The S2U or D2T blocks over the leaves ``sel``: one leaf-section
    builder, the leaf's points against its UC surface (S2U, ``side`` holds
    the sources) or its DE surface (D2T, ``side`` holds the targets)."""
    up = section == "s2u"
    kernel = ev.kernel if up else ev.eval_kernel
    surface = ev.ops.uc_points if up else ev.ops.de_points
    ks, kt = ev.kernel.source_dim, ev.kernel.target_dim
    tree = side.tree
    base: dict[int, tuple] = {}
    blocks = []
    for lev, pad, group in leaf_batches(tree, sel):
        if lev not in base:
            # The uc2ue pseudoinverse stays float64 at BOTH precisions:
            # its entries are huge and cancelling (|m| ~ 1/rcond), so a
            # float32 copy loses the cancellation and the up densities
            # with it.  Under an fp32 plan the float32 check potentials
            # feed this float64 GEMM — the per-level mats are tiny, the
            # heavy leaf-kernel GEMMs stay float32, and the fp32 error
            # stays at the float32 floor instead of the pinv's.
            base[lev] = (surface(lev), ev.ops.uc2ue(lev) if up else None)
        rows = side.rows(group, pad)
        pts = side.points(rows, group)
        surf = base[lev][0][None, :, :] + tree.centers[group][:, None, :]
        n = side.counts[group].sum()
        blocks.append(_LeafBlock(
            level=lev, pad=pad, group=group, pts=pts, surf=surf,
            den_rows=rows if up else None, pot_rows=None if up else rows, mat=base[lev][1],
            kmat=mat(kernel, *((surf, pts) if up else (pts, surf)),
                     reuse.slots(section, pad, group)),
            flops=(kernel.pair_flops(ev.ns, n) + 2.0 * group.size * (ev.ns * ks) * (ev.ns * kt)
                   if up else kernel.pair_flops(n, ev.ns)),
        ))
    return blocks


def _pair_section(ev, src, tgt, dual, mat, reuse, x_pairs, w_pairs):
    """``(xli, wli)`` over X's ``(far box, leaf)`` and W's ``(leaf, far
    box)`` pairs: one builder, one kernel array per batch.  X reads the
    leaf's sources (in ``src``) onto the far box's DC surface; W
    evaluates the far box's UE surface — the same points — at the leaf's
    targets (in ``tgt``).  Under ``dual`` a pair in both lists is
    reserved, and charged to the budget, once: X contracts
    ``kernel(surf, pts)``, W its transpose.

    X's pairs are cut as X alone would cut them (its bits do not know W
    exists); a chunk then splits into the pairs W reads too and the rest,
    so a record reads whole arrays, never a slice.  W pairs with no
    in-scope X dual (one-sided on a LET; all of them when the lists are
    not duals: ``eval_kernel(pts, surf)`` blocks) follow in W's order."""
    tree = src.tree
    (xf, xl), (wl, wf) = x_pairs, w_pairs
    xc, wc = (f * np.int64(tree.n_nodes) + l for f, l in ((xf, xl), (wf, wl)))
    both = np.isin(xc, wc, assume_unique=True) & dual  # X pairs W reads too
    lone = ~(np.isin(wc, xc, assume_unique=True) & dual)  # W pairs no X record covers
    xli, wli = [], []
    ue = np.stack([ev.ops.ue_points(lev) for lev in range(tree.max_level + 1)])

    def block(pad, fi, li, in_x, in_w):
        side = src if in_x else tgt  # the same tree under the dual
        rows = side.rows(li, pad)
        pts = side.points(rows, li)
        surf = ue[tree.levels[fi]] + tree.centers[fi][:, None, :]
        w_own = not (in_x or dual)
        slots = reuse.slots("w" if w_own else "wx", pad, li, fi)
        n_pts = side.counts[li].sum()
        sides = (ev.eval_kernel, pts, surf) if w_own else (ev.kernel, surf, pts)
        shared = dict(pad=pad, pts=pts, surf=surf, kmat=mat(*sides, slots))
        if in_x:
            order, starts, seg = _scatter_schedule(fi)
            xli.append(_PairBlock(
                rows=fi, cols=li, den_rows=rows,
                order=order, starts=starts, seg=seg, pot_rows=None,
                flops=ev.kernel.pair_flops(ev.ns, n_pts), **shared,
            ))
        if in_w:
            order, starts, seg = _scatter_schedule(li)
            wli.append(_PairBlock(
                rows=li, cols=fi, den_rows=None, order=order, starts=starts,
                seg=seg, pot_rows=tgt.rows(seg, pad),
                flops=ev.eval_kernel.pair_flops(n_pts, ev.ns), **shared,
            ))

    for pad, sel in _pair_batches(ev.ns, src.counts[xl]):
        for part, in_w in ((sel[~both[sel]], False), (sel[both[sel]], True)):
            if part.size:
                block(pad, xf[part], xl[part], True, in_w)
    wf, wl = wf[lone], wl[lone]
    for pad, sel in _pair_batches(ev.ns, tgt.counts[wl]):
        block(pad, wf[sel], wl[sel], False, True)
    return xli, wli


def _uli_section(ev, mat, reuse, src, tgt, u, table_u, scope, dual) -> list:
    """The ULI blocks over ``u`` (U ∪ D), a block's flops counting its
    targets' Table I U-lists ``table_u``: every batch is cut from one flat
    array of the stored member point rows (one ``concat_ranges`` over every
    stored member of every row) and one of their transposed-slot flags."""
    tree, counts = src.tree, src.counts
    u_src = member_sums(table_u, counts[table_u.indices])  # all of U's sources: the flops
    urows, ucols = u.pairs()
    stored, trans = _uli_members(urows, ucols, counts, tree.levels, scope, dual)
    held = member_sums(u, counts[ucols] * stored)  # the stored points: the block
    cols = ucols[stored]
    # one slot past the end: a padding slot's row (the sentinel) and flag
    flat = np.append(concat_ranges(tree.pt_begin[cols], counts[cols]), src.n)
    flat_t = np.append(np.repeat(trans[stored], counts[cols]), False)
    start = np.cumsum(held) - held
    n_stored = member_sums(u, stored)
    members = (np.cumsum(n_stored) - n_stored, n_stored, cols)
    blocks = []
    for tp, sp, boxes in _uli_groups(tgt, held, scope):
        ar = np.arange(sp, dtype=np.int64)
        at = np.where(ar < held[boxes][:, None], start[boxes][:, None] + ar, flat.size - 1)
        src_rows = np.take(flat, at)
        t_sel = np.flatnonzero(np.take(flat_t, at))
        pot_rows = tgt.rows(boxes, tp)
        tgt_pts, src_pts = tgt.points(pot_rows, boxes), src.points(src_rows, boxes)
        blocks.append(_UliBlock(
            tp=tp, sp=sp, boxes=boxes, tgt_pts=tgt_pts, src_pts=src_pts,
            den_rows=src_rows, pot_rows=pot_rows, t_sel=t_sel, t_rows=src_rows.ravel()[t_sel],
            kmat=mat(ev.eval_kernel, tgt_pts, src_pts,
                     reuse.uli_slots(tree, boxes, tp, sp, members)),
            flops=ev.eval_kernel.pair_flops(1, 1) * float((tgt.counts[boxes] * u_src[boxes]).sum()),
        ))
    return blocks


def compile_plan(
    ev,
    tree: FmmTree,
    lists,
    scopes: PlanScopes | None = None,
    matrix_budget: int = MATRIX_BUDGET,
    precision: str = "fp64",
    targets: FmmTree | None = None,
    _reuse: _NoReuse | None = None,
) -> EvalPlan:
    """Compile an :class:`EvalPlan` for evaluator ``ev`` on ``(tree, lists)``.

    ``targets`` is a tree over ``tree``'s nodes whose points are where the
    potential is wanted (default: ``tree`` itself, the paper's coincident
    sets).  The target-side sections — D2T, W and the rows of U ∪ D — read
    its points, and a leaf's targets take the leaf's lists; the sources
    stay ``tree``'s.  Such a plan is never dual (:func:`_wx_dual`).

    ``scopes`` carries the distributed ownership masks (``None`` =
    unrestricted).  ``lists`` are the paper's Table I lists; the plan runs
    them as :func:`~repro.core.lists.evaluated_lists` splits them (ULI
    over U and the direct W/X pairs).  Leaf/pair kernel blocks are
    reserved up to ``matrix_budget`` bytes, claimed in the order ULI (it
    dominates the near field; each pair once), S2U, D2T (S2U's blocks,
    under the dual), then the pair section — each (far box, leaf) block
    once for X and W — and filled by the first apply that reads them;
    ``matrix_budget=0`` trades apply speed for memory.
    ``precision`` is ``"fp64"`` (default; bit-identical to the
    pre-precision engine) or ``"fp32"`` (float32 matrices / complex64
    V-list / float32 tables; see the module docstring for what stays
    float64).  ``"auto"`` must be resolved by the caller first —
    resolution needs a calibration workload this function does not have.
    """
    if precision not in ("fp64", "fp32"):
        raise PrecisionError(
            f"compile_plan precision must be 'fp64' or 'fp32', got "
            f"{precision!r} (resolve 'auto' via the evaluator first)"
        )
    scopes = scopes if scopes is not None else PlanScopes()
    ks, kt = ev.kernel.source_dim, ev.kernel.target_dim
    targets = tree if targets is None else targets
    own = targets is tree
    src = _Side(tree)
    tgt = src if own else _Side(targets)
    counts, tcounts = src.counts, tgt.counts
    plan = EvalPlan(
        fingerprint=tree_fingerprint(tree),
        n_points=tree.n_points,
        n_targets=targets.n_points,
        ns=ev.ns,
        ks=ks,
        kt=kt,
        kt_eval=ev.eval_kernel.target_dim,
        scoped=scopes.any_set(),
        precision=precision,
        dual=own and _wx_dual(ev),
        target_fingerprint=None if own else target_fingerprint(targets),
    )
    plan._tree = weakref.ref(tree)
    reuse = _NoReuse() if _reuse is None else _reuse
    left = int(matrix_budget)

    def mat(kernel, a, b, slots):
        """Reserve one kernel block and charge it to the budget."""
        nonlocal left
        k = _reserve(plan, left, kernel, a, b, slots, reuse)
        if k is not None:
            left -= k.nbytes
        return k

    def within(mask, scope):
        return mask if scope is None else mask & scope

    # The matrix-caching sections compile first, in budget-priority order:
    # ULI, S2U, D2T, the X/W pair section.  ULI evaluates U and the direct
    # W/X pairs D, the pair section the rest (:func:`evaluated_lists`).
    split = evaluated_lists(tree, lists, ev.ns)
    leaves, tleaves = tree.is_leaf & (counts > 0), tree.is_leaf & (tcounts > 0)
    # a direct pair's kernel pairs are booked to the list it came from, over
    # the targets ULI evaluates (DESIGN.md §5); its seconds land in ULI's span
    on = tcounts * within(tleaves, scopes.uli)
    for phase, full, kept in (("XLI", lists.x, split.x), ("WLI", lists.w, split.w)):
        gone = member_sums(full, counts[full.indices]) - member_sums(kept, counts[kept.indices])
        plan.direct_flops[phase] = ev.eval_kernel.pair_flops(1, 1) * float((on * gone).sum())
    # -- ULI ---------------------------------------------------------------
    dual = plan.dual
    plan.uli = _uli_section(ev, mat, reuse, src, tgt, split.u, lists.u, scopes.uli, dual)

    # -- S2U, D2T, XLI + WLI -----------------------------------------------
    leaf_section = partial(_leaf_section, ev, mat, reuse)
    s2u_sel, d2t_sel = within(leaves, scopes.s2u), within(tleaves, scopes.d2t)
    plan.s2u = leaf_section(src, "s2u", s2u_sel)
    if dual:  # DE is UC: D2T reads S2U's K(UC, pts) records, arrays and all
        same = np.array_equal(s2u_sel, d2t_sel)
        plan.d2t = [replace(b, den_rows=None, pot_rows=b.den_rows, mat=None,
                            flops=ev.kernel.pair_flops(counts[b.group].sum(), ev.ns))
                    for b in (plan.s2u if same else leaf_section(src, "s2u", d2t_sel))]
    else:
        plan.d2t = leaf_section(tgt, "d2t", d2t_sel)
    # An X source is kept iff it holds points here, a W (and V, below)
    # source iff its octant holds a point on some rank; a vanishing density
    # adds zeros.
    nonempty = counts > 0 if scopes.nonempty is None else scopes.nonempty
    xf, xl = split.x.pairs(scopes.xli)
    wl, wf = split.w.pairs(within(tleaves, scopes.wli))
    xk, wk = counts[xl] > 0, nonempty[wf]
    plan.xli, plan.wli = _pair_section(
        ev, src, tgt, dual, mat, reuse, (xf[xk], xl[xk]), (wl[wk], wf[wk])
    )

    # -- U2U ---------------------------------------------------------------
    for lev in range(tree.max_level, 0, -1):
        nodes = tree.nodes_at_level(lev)
        nodes = nodes[within(counts[nodes] > 0, None if scopes.u2u is None else scopes.u2u[nodes])]
        plan.u2u += _child_steps(tree, nodes, lev, ev.ops.m2m, up=True)

    # -- VLI ---------------------------------------------------------------
    if ev.m2l_mode == "fft":
        plan.vli_fft = ev.fft.schedule(tree, lists.v, scopes.vli, nonempty)
        # build the levels' offset tables now, not at first apply; levels of
        # a homogeneous kernel share one table
        tables = [ev.fft.offset_table(g.level, plan.cdtype)[0] for g in plan.vli_fft]
        plan.vli_table_bytes = sum({id(t): t.nbytes for t in tables}.values())
    else:
        for lev, off, tgts, srcs in _v_offset_steps(tree, lists, scopes.vli):
            m = plan._cast(ev.ops.m2l_dense(lev, off))
            plan.vli_dense.append(
                _MatStep(mat=m, src=srcs, dst=tgts, flops=2.0 * tgts.size * m.size)
            )

    # -- D2D ---------------------------------------------------------------
    for lev in range(1, tree.max_level + 1):
        nodes = tree.nodes_at_level(lev)
        if scopes.d2d is not None:
            nodes = nodes[scopes.d2d[nodes]]
        if nodes.size:
            conv = ev.ops.dc2de(lev)
            plan.d2d.append(_D2dLevel(
                l2l=_child_steps(tree, nodes, lev, ev.ops.l2l, up=False), conv_mat=conv,
                nodes=nodes, conv_flops=2.0 * nodes.size * conv.size))

    return plan


def patch_plan(
    ev,
    old_plan: EvalPlan,
    old_tree: FmmTree,
    old_lists,
    tree: FmmTree,
    lists,
    delta: TreeDelta | None = None,
    scopes: PlanScopes | None = None,
    matrix_budget: int = MATRIX_BUDGET,
    precision: str | None = None,
) -> EvalPlan:
    """Recompile only the dirty sections of ``old_plan`` for a new geometry.

    Runs the *same* compile path as :func:`compile_plan` on
    ``(tree, lists)`` — so block structure, budget decisions and the
    resulting plan are bit-identical to a fresh compile by construction —
    but consults a :class:`_PlanReuse` oracle built from the
    :class:`TreeDelta`, which keeps the old kernel blocks of the four
    matrix sections — ULI, S2U, D2T and the X/W pair section — wherever
    the delta proves the inputs unchanged (a ULI block holds the columns
    of members it is the holder for, so a moved leaf dirties those
    holders' blocks too): a block whose slots all survive is shared,
    filled or not; the clean slots of a filled one are copied and only its
    dirty slots evaluated; a block with no filled clean slot is reserved
    empty, for the first apply to fill like a fresh one's.  Index arrays
    (gather/scatter schedules, V-list group tables, operator steps) are
    always rebuilt, in the one pass a fresh compile makes.

    ``delta`` defaults to a content diff of the two trees
    (:func:`repro.core.tree.diff_trees`), so arbitrary tree pairs patch —
    including per-rank LET trees whose point sets differ.  ``precision``
    defaults to the old plan's; a precision change disables kernel-matrix
    reuse (the stored dtypes differ).
    ``plan.patch_stats`` records what was reused.
    """
    old_plan.check(old_tree)
    precision = old_plan.precision if precision is None else precision
    if delta is None:
        delta = diff_trees(old_tree, tree)
    reuse = _PlanReuse(ev, old_plan, old_tree, old_lists, delta, precision)

    plan = compile_plan(ev, tree, lists, scopes=scopes, matrix_budget=matrix_budget,
                        precision=precision, _reuse=reuse)
    plan.patch_stats = dict(reuse.stats)
    return plan
