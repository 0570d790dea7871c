"""Tests for the plan-compiled evaluation engine (:mod:`repro.core.plan`).

The load-bearing invariant: a plan-based apply is **bit-identical** to the
legacy per-call path — same batches, same operation order, same floats.
That is what lets `DistributedFmm` swap plans in under resilient retries
and what keeps the chaos-matrix replay checks meaningful.
"""

import numpy as np
import pytest

from repro.core import Fmm, PlanMismatchError, PlanScopes, tree_fingerprint
from repro.datasets import uniform_cube
from repro.dist.driver import DistributedFmm
from repro.kernels import LaplaceGradientKernel
from repro.mpi import run_spmd

N = 2000
SEED = 7


def _points(n=N, seed=SEED):
    return uniform_cube(n, seed=seed)


def _setup(kernel="laplace", order=4, q=40, n=N, **kw):
    fmm = Fmm(kernel, order=order, max_points_per_box=q, **kw)
    pts = _points(n)
    plan = fmm.plan(pts)
    rng = np.random.default_rng(SEED)
    dens = rng.standard_normal(n * fmm.kernel.source_dim)
    srt = dens.reshape(-1, fmm.kernel.source_dim)[plan.tree.order].reshape(-1)
    return fmm, plan, srt


@pytest.mark.parametrize("kernel", ["laplace", "stokes", "yukawa"])
def test_plan_bit_identical(kernel):
    fmm, plan, dens = _setup(kernel)
    ev = fmm.evaluator
    ref = ev.evaluate(plan.tree, plan.lists, dens, use_plan=False).copy()
    ep = ev.compile_plan(plan.tree, plan.lists)
    out = ev.evaluate(plan.tree, plan.lists, dens, plan=ep)
    assert np.array_equal(ref, out)


def test_plan_bit_identical_gradient_eval_kernel():
    fmm, plan, dens = _setup(eval_kernel=LaplaceGradientKernel())
    ev = fmm.evaluator
    ref = ev.evaluate(plan.tree, plan.lists, dens, use_plan=False).copy()
    ep = ev.compile_plan(plan.tree, plan.lists)
    out = ev.evaluate(plan.tree, plan.lists, dens, plan=ep)
    assert np.array_equal(ref, out)


def test_plan_bit_identical_dense_m2l():
    fmm, plan, dens = _setup(m2l_mode="dense")
    ev = fmm.evaluator
    ref = ev.evaluate(plan.tree, plan.lists, dens, use_plan=False).copy()
    ep = ev.compile_plan(plan.tree, plan.lists)
    out = ev.evaluate(plan.tree, plan.lists, dens, plan=ep)
    assert np.array_equal(ref, out)


def test_plan_bit_identical_without_matrix_cache():
    """Budget misses fall back to per-apply kernel evaluation, same floats."""
    fmm, plan, dens = _setup()
    ev = fmm.evaluator
    ref = ev.evaluate(plan.tree, plan.lists, dens, use_plan=False).copy()
    ep = ev.compile_plan(plan.tree, plan.lists, cache_matrices=False)
    assert ep.matrix_bytes() == 0
    out = ev.evaluate(plan.tree, plan.lists, dens, plan=ep)
    assert np.array_equal(ref, out)


def test_plan_scoped_ownership_masks():
    """A plan compiled with node masks matches legacy scoped phases."""
    fmm, plan, dens = _setup()
    ev = fmm.evaluator
    tree, lists = plan.tree, plan.lists
    rng = np.random.default_rng(3)
    scope = rng.random(tree.n_nodes) < 0.7
    state_a = ev.allocate(tree)
    state_b = ev.allocate(tree)
    ep = ev.compile_plan(
        tree, lists,
        scopes=PlanScopes(s2u=scope, u2u=scope, vli=scope, xli=scope,
                          d2d=scope, wli=scope, d2t=scope, uli=scope),
    )
    assert ep.scoped
    from repro.util.timer import PhaseProfile

    pa, pb = PhaseProfile(), PhaseProfile()
    ev.s2u(tree, dens, state_a, pa, scope=scope)
    ev.s2u(tree, dens, state_b, pb, plan=ep)
    ev.u2u(tree, state_a, pa, scope=scope)
    ev.u2u(tree, state_b, pb, plan=ep)
    ev.vli(tree, lists, state_a, pa, scope=scope)
    ev.vli(tree, lists, state_b, pb, plan=ep)
    ev.xli(tree, lists, dens, state_a, pa, scope=scope)
    ev.xli(tree, lists, dens, state_b, pb, plan=ep)
    ev.d2d(tree, state_a, pa, scope=scope)
    ev.d2d(tree, state_b, pb, plan=ep)
    ev.wli(tree, lists, state_a, pa, scope=scope)
    ev.wli(tree, lists, state_b, pb, plan=ep)
    ev.d2t(tree, state_a, pa, scope=scope)
    ev.d2t(tree, state_b, pb, plan=ep)
    ev.uli(tree, lists, dens, state_a, pa, scope=scope)
    ev.uli(tree, lists, dens, state_b, pb, plan=ep)
    for key in ("up", "dcheck", "dequiv", "pot"):
        assert np.array_equal(state_a[key], state_b[key]), key


def test_wli_pattern_change_recompiles_bit_identically():
    """Zeroing densities changes the W-list up-gating; the lazy W-list
    schedule recompiles and results stay bit-identical."""
    fmm, plan, dens = _setup(n=2500, q=25)
    ev = fmm.evaluator
    tree, lists = plan.tree, plan.lists
    ep = ev.compile_plan(tree, lists)
    out1 = ev.evaluate(tree, lists, dens, plan=ep).copy()
    ref1 = ev.evaluate(tree, lists, dens, use_plan=False).copy()
    assert np.array_equal(ref1, out1)
    assert ep._wli is not None
    sig1 = ep._wli.sig.copy()
    # Zero the points of one W-list *leaf* source box: its up density
    # becomes exactly 0.0, flipping the keep mask for its pairs.
    counts = tree.point_counts()
    cols = ep.wli_cols
    src_leaves = cols[tree.is_leaf[cols] & (counts[cols] > 0)]
    assert src_leaves.size, "test tree has no leaf W-list sources"
    box = int(src_leaves[0])
    dens2 = dens.copy()
    dens2[tree.pt_begin[box] : tree.pt_end[box]] = 0.0
    out2 = ev.evaluate(tree, lists, dens2, plan=ep).copy()
    ref2 = ev.evaluate(tree, lists, dens2, use_plan=False).copy()
    assert np.array_equal(ref2, out2)
    assert not np.array_equal(sig1, ep._wli.sig)


def test_lazy_compile_on_second_call():
    fmm, plan, dens = _setup()
    ev = fmm.evaluator
    r1 = ev.evaluate(plan.tree, plan.lists, dens).copy()
    assert ev._plan_obj is None  # one-shot calls stay plan-free
    r2 = ev.evaluate(plan.tree, plan.lists, dens).copy()
    assert ev._plan_obj is not None
    r3 = ev.evaluate(plan.tree, plan.lists, dens).copy()
    assert np.array_equal(r1, r2) and np.array_equal(r1, r3)


def test_fmm_facade_plan_roundtrip():
    """Fmm.evaluate with an eagerly compiled eval_plan matches legacy."""
    fmm = Fmm("laplace", order=4, max_points_per_box=40)
    pts = _points()
    plan = fmm.plan(pts)
    dens = np.random.default_rng(SEED).standard_normal(N)
    ref = fmm.evaluate(pts, dens, plan=plan, use_plan=False)
    ep = fmm.compile_eval_plan(plan)
    out = fmm.evaluate(pts, dens, plan=plan, eval_plan=ep)
    assert np.array_equal(ref, out)


def test_plan_invalidation_fingerprint():
    """A plan compiled for tree A is rejected on a different tree B."""
    fmm, plan, dens = _setup()
    ep = fmm.evaluator.compile_plan(plan.tree, plan.lists)
    other = Fmm("laplace", order=4, max_points_per_box=70).plan(_points())
    assert tree_fingerprint(other.tree) != ep.fingerprint
    with pytest.raises(PlanMismatchError):
        fmm.evaluator.evaluate(
            other.tree, other.lists,
            dens[: other.tree.n_points], plan=ep,
        )
    # same tree object passes the identity fast-path
    ep.check(plan.tree)


@pytest.mark.parametrize("p", [1, 4])
def test_distributed_plan_bit_identical(p):
    points = _points(1600, seed=11)

    def body(comm, use_plan):
        fmm = DistributedFmm(order=4, max_points_per_box=40, use_plan=use_plan)
        fmm.setup(comm, points[comm.rank :: comm.size])
        pts = fmm.owned_points
        dens = np.sin(17.0 * pts[:, 0]) + pts[:, 2] * np.cos(11.0 * pts[:, 1])
        p1 = fmm.evaluate(dens)
        p2 = fmm.evaluate(dens)
        assert np.array_equal(p1, p2)
        assert (fmm._plan is not None) == use_plan
        return p1

    ref = run_spmd(p, body, False)
    new = run_spmd(p, body, True)
    for r in range(p):
        assert np.array_equal(ref.values[r], new.values[r])


def test_distributed_plan_compiles_once():
    """Trace setup:plan spans: exactly one compile per rank across
    consecutive evaluates (the cached plan is reused)."""
    points = _points(1600, seed=13)

    def body(comm):
        fmm = DistributedFmm(order=4, max_points_per_box=40)
        fmm.setup(comm, points[comm.rank :: comm.size])
        pts = fmm.owned_points
        dens = np.cos(5.0 * pts[:, 1])
        fmm.evaluate(dens)
        fmm.evaluate(dens)
        fmm.evaluate(2.0 * dens)  # new density, same plan
        return None

    res = run_spmd(4, body, trace=True)
    for r in range(4):
        spans = res.trace.span_events(rank=r, phase="setup:plan")
        assert len(spans) == 1, f"rank {r}: {len(spans)} setup:plan spans"


# -- V-list sibling-group schedule --------------------------------------------


def _listed(tree, v, scope=None):
    """V pairs per level, restricted to in-scope targets."""
    tgts, _ = v.pairs(scope)
    return np.bincount(tree.levels[tgts], minlength=tree.max_level + 1)


def _scheduled(fft, tree, v, scope=None):
    out = np.zeros(tree.max_level + 1, dtype=np.int64)
    for g in fft.schedule(tree, v, scope):
        out[g.level] += g.n_pairs
        assert g.nbr.shape == (len(g.tchild), len(g.dirs))
        assert len(g.tchild) <= fft.GROUP_PARENTS
    return out


def test_vlist_schedule_counts_adaptive_and_patched(rng):
    """The parent tables reproduce ``lists.v`` pair for pair, per level, on
    a deep adaptive tree and on the tree + lists an update step produces."""
    from repro.datasets import plummer_cluster

    pts = plummer_cluster(2500, seed=5)
    fmm = Fmm("laplace", order=4, max_points_per_box=20)
    plan = fmm.plan(pts)
    fft = fmm.evaluator.fft
    assert plan.tree.max_level >= 5
    assert np.array_equal(
        _scheduled(fft, plan.tree, plan.lists.v),
        _listed(plan.tree, plan.lists.v),
    )
    new = pts.copy()
    moved = np.arange(300)
    new[moved] = 0.31 + 0.01 * rng.random((300, 3))  # forces deep splits
    new_plan, delta = fmm.update_plan(plan, new, moved=moved)
    assert delta.refinement_changed
    assert np.array_equal(
        _scheduled(fft, new_plan.tree, new_plan.lists.v),
        _listed(new_plan.tree, new_plan.lists.v),
    )


@pytest.mark.parametrize("p", [2, 4])
def test_vlist_schedule_counts_let_scoped(p):
    """Same on per-rank LET trees under the ownership mask the driver
    compiles with."""
    from repro.datasets import ellipsoid_surface

    points = ellipsoid_surface(2400, seed=3)

    def body(comm):
        fmm = DistributedFmm(order=4, max_points_per_box=30)
        fmm.setup(comm, points[comm.rank :: comm.size])
        tree, v, scope = fmm.let.tree, fmm.lists.v, fmm.let.owned_contrib
        got = _scheduled(fmm.evaluator.fft, tree, v, scope)
        return got, _listed(tree, v, scope), _listed(tree, v)

    res = run_spmd(p, body)
    for got, want, unscoped in res.values:
        assert np.array_equal(got, want)
        assert want.sum() < unscoped.sum()  # the mask did restrict something


def test_vlist_schedule_rejects_non_product_list():
    """A V-list missing one pair is not a sibling-group product: compile
    refuses it, naming the level and both counts."""
    from repro.core.lists import CsrList, InteractionLists

    fmm, plan, _ = _setup()
    v = plan.lists.v
    node = int(np.flatnonzero(v.counts > 0)[-1])
    offsets = v.offsets.copy()
    offsets[node + 1 :] -= 1
    cut = CsrList(offsets, np.delete(v.indices, v.offsets[node]))
    lists = InteractionLists(
        plan.lists.u, cut, plan.lists.w, plan.lists.x, plan.lists.colleagues
    )
    level = int(plan.tree.levels[node])
    n_level = int(_listed(plan.tree, v)[level])
    with pytest.raises(
        PlanMismatchError,
        match=rf"level {level}.*imply {n_level} pairs.*holds {n_level - 1}",
    ):
        fmm.evaluator.compile_plan(plan.tree, lists)


def test_plan_nbytes_charges_each_offset_table_once(monkeypatch):
    """The serve plan cache budgets on ``nbytes``: a level's offset table
    counts once however many groups the level splits into, and the levels
    of a homogeneous kernel share one table."""
    from repro.core.fft_m2l import FftM2L

    for kernel, per_level in (("laplace", False), ("yukawa", True)):
        fmm, plan, _ = _setup(kernel, q=10)
        ep = fmm.compile_eval_plan(plan)
        levels = {g.level for g in ep.vli_fft}
        assert len(levels) >= 2
        one = fmm.evaluator.fft.offset_table(2)[0].nbytes
        assert ep.vli_table_bytes == one * (len(levels) if per_level else 1)
        with monkeypatch.context() as m:
            m.setattr(FftM2L, "GROUP_PARENTS", 2)
            split = fmm.compile_eval_plan(plan)
        assert len(split.vli_fft) > len(ep.vli_fft)
        assert split.vli_table_bytes == ep.vli_table_bytes
        assert ep.nbytes < split.nbytes < ep.nbytes + ep.vli_table_bytes
