"""Geometry updates: the rebuilt plan, its tree diff, and plan patching.

The contract under test is *bitwise identity*: :meth:`repro.core.fmm.Fmm.update_plan`
returns exactly what :meth:`~repro.core.fmm.Fmm.plan` builds on the new
points, whatever ``moved=`` names, and a plan patched by
:func:`repro.core.plan.patch_plan` — solo, through the serving layer's
``update_geometry`` or per rank — evaluates exactly as a fresh compile,
for any motion pattern.  Speed is measured elsewhere (``plan.update_s`` /
``plan.patch_s`` of ``bench/run.py --workload plummer_adaptive --trace``);
correctness is absolute here.
"""

import numpy as np
import pytest

from repro.core.fmm import Fmm
from repro.core.lists import check_lists
from repro.datasets import plummer_cluster


def _perturb(rng, pts, frac, scale):
    """Move the ``frac`` of the points nearest a random one by ``scale``."""
    n = len(pts)
    m = max(1, int(round(frac * n)))
    center = pts[rng.integers(n)]
    d2 = ((pts - center) ** 2).sum(axis=1)
    moved = np.argpartition(d2, m - 1)[:m] if m < n else np.arange(n)
    new = pts.copy()
    new[moved] = np.clip(
        new[moved] + rng.normal(scale=scale, size=(m, 3)), 1e-9, 1 - 1e-9
    )
    return new, moved


# -- plan update --------------------------------------------------------------


def _patch_and_compare(fmm, pts, new, moved, dens):
    """One geometry step through ``update_plan`` + ``patch_eval_plan``
    against ``plan`` + ``compile_eval_plan`` on the new points: the same
    tree and lists, and the same potential bit for bit."""
    plan = fmm.plan(pts)
    eplan = fmm.compile_eval_plan(plan)
    fmm.evaluate(pts, dens, plan=plan, eval_plan=eplan)  # fills the old plan
    new_plan, delta = fmm.update_plan(plan, new, moved=moved)
    ref_plan = fmm.plan(new)
    for name in ("keys", "is_leaf", "order", "points", "pt_begin", "pt_end"):
        np.testing.assert_array_equal(getattr(new_plan.tree, name),
                                      getattr(ref_plan.tree, name), err_msg=name)
    check_lists(new_plan.tree, new_plan.lists)
    for name in ("u", "v", "w", "x", "colleagues"):
        a, b = getattr(new_plan.lists, name), getattr(ref_plan.lists, name)
        np.testing.assert_array_equal(a.offsets, b.offsets, err_msg=name)
        np.testing.assert_array_equal(a.indices, b.indices, err_msg=name)
    patched = fmm.patch_eval_plan(eplan, plan, new_plan, delta=delta)
    fresh = fmm.compile_eval_plan(ref_plan)
    assert patched.fingerprint == fresh.fingerprint
    assert patched.precision == fresh.precision
    out_p = fmm.evaluate(new, dens, plan=new_plan, eval_plan=patched)
    out_f = fmm.evaluate(new, dens, plan=ref_plan, eval_plan=fresh)
    np.testing.assert_array_equal(out_p, out_f)
    return patched, plan, new_plan, delta


def _blob(frac, scale):
    def step(rng):
        pts = rng.random((1800, 3))
        return (pts, *_perturb(rng, pts, frac, scale))
    return step


def _key_collisions(rng):
    # many points in one MAX_DEPTH cell: the Morton order breaks ties by
    # point index, and the moved points all collide into another cell
    pts = rng.random((400, 3))
    pts[::3] = pts[0]
    new = pts.copy()
    moved = np.arange(0, 400, 5)
    new[moved] = pts[1]
    return pts, new, moved


def _incomplete_moved(rng):
    # ``moved`` names half of the rows that changed: the tree must not read it
    pts = plummer_cluster(1500, seed=4)
    new, moved = _perturb(rng, pts, 0.05, 0.01)
    return pts, new, moved[::2]


def _inside_one_leaf(rng):
    # one point moves inside its leaf: same octants, no ``moved`` given
    pts = rng.random((1200, 3))
    new = pts.copy()
    new[7] += 1e-9
    return pts, new, None


STEPS = {
    "blob-2%": (_blob(0.02, 0.01), 40),
    "blob-10%": (_blob(0.1, 0.2), 40),
    "all-moved": (_blob(1.0, 0.3), 40),
    "key-collisions": (_key_collisions, 40),
    "incomplete-moved": (_incomplete_moved, 25),
    "inside-one-leaf": (_inside_one_leaf, 64),
}


@pytest.mark.parametrize("step", list(STEPS))
def test_update_plan_matches_plan(rng, step):
    make, q = STEPS[step]
    pts, new, moved = make(rng)
    fmm = Fmm(kernel="laplace", order=4, max_points_per_box=q)
    _, plan, new_plan, delta = _patch_and_compare(
        fmm, pts, new, moved, rng.standard_normal(len(pts)))
    changed = np.flatnonzero(np.any(pts != new, axis=1))
    assert delta.n_moved == (changed.size if moved is None else np.unique(moved).size)
    # clean nodes have bitwise-identical point slices
    old, tree = plan.tree, new_plan.tree
    for i in np.flatnonzero(delta.node_clean):
        j = delta.old_index[i]
        assert j >= 0
        np.testing.assert_array_equal(tree.points[tree.pt_begin[i]:tree.pt_end[i]],
                                      old.points[old.pt_begin[j]:old.pt_end[j]])
    if not delta.refinement_changed:  # the same octants keep their lists
        assert new_plan.lists is plan.lists
    if step == "inside-one-leaf":
        assert not delta.refinement_changed


def test_update_plan_rejects_shape_change(rng):
    fmm = Fmm(kernel="laplace", order=4, max_points_per_box=40)
    plan = fmm.plan(rng.random((500, 3)))
    with pytest.raises(ValueError, match="same-shape"):
        fmm.update_plan(plan, rng.random((501, 3)))


# -- plan patching ------------------------------------------------------------


@pytest.mark.parametrize("kernel", ["laplace", "stokes", "yukawa"])
@pytest.mark.parametrize("precision", ["fp64", "fp32"])
def test_patched_plan_bit_identical(rng, kernel, precision):
    n = 1200
    pts = rng.random((n, 3))
    fmm = Fmm(kernel=kernel, order=4, max_points_per_box=30,
              precision=precision)
    new, moved = _perturb(rng, pts, 0.05, 0.02)
    dens = rng.standard_normal(n * fmm.kernel.source_dim)
    patched = _patch_and_compare(fmm, pts, new, moved, dens)[0]
    st = patched.patch_stats
    assert st.get("slots_reused", 0) + st.get("blocks_ref", 0) > 0


def test_patched_plan_counts_a_shared_slot_once(rng):
    """Plummer geometry, fully cached: W reads X's blocks, so a patched
    slot is one slot — reused plus fresh bytes add up to the bytes the
    plan holds, not to the bytes its records can see."""
    pts = plummer_cluster(1500, seed=4)
    fmm = Fmm(kernel="laplace", order=4, max_points_per_box=25)
    new, moved = _perturb(rng, pts, 0.05, 0.01)
    patched = _patch_and_compare(fmm, pts, new, moved, rng.standard_normal(1500))[0]
    st = patched.patch_stats
    assert any(w.kmat is x.kmat for w in patched.wli for x in patched.xli)
    assert st["bytes_reused"] > 0 and st["bytes_fresh"] > 0
    assert st["bytes_reused"] + st["bytes_fresh"] == patched.matrix_bytes()
    blocks = patched.uli + patched.s2u + patched.d2t + patched.xli + patched.wli
    n_slots = sum({id(b.kmat): b.kmat.shape[0] for b in blocks}.values())
    assert st["slots_reused"] + st["slots_fresh"] == n_slots


def test_patch_locality_survives_the_finer_block_classes(monkeypatch):
    """A block side is ``pad_class`` of the box's own count, so a clean
    box keeps its class and its slot key: one 5 % blob step reuses exactly
    the slots it reused under power-of-two sides, and no smaller a share
    of the plan's kernel bytes.  The step's redone work is pinned at what
    it was before the direct W/X rule moved small far leaves into ULI
    (505 slots, 2 728 768 bytes on this geometry); it may only shrink."""
    import repro.core.plan as plan_mod
    import repro.core.tree as tree_mod
    def patch_stats():
        rng = np.random.default_rng(11)
        pts = plummer_cluster(1500, seed=4)
        fmm = Fmm(kernel="laplace", order=4, max_points_per_box=25)
        plan = fmm.plan(pts)
        eplan = fmm.compile_eval_plan(plan)
        fmm.evaluate(pts, np.ones(len(pts)), plan=plan, eval_plan=eplan)  # fills it
        new, moved = _perturb(rng, pts, 0.05, 0.01)
        new_plan, delta = fmm.update_plan(plan, new, moved=moved)
        patched = fmm.patch_eval_plan(eplan, plan, new_plan, delta=delta)
        st = patched.patch_stats
        return (st["slots_reused"], st["slots_fresh"],
                st["bytes_reused"] / patched.matrix_bytes(), st["bytes_fresh"])

    def power_of_two(n):
        n = np.maximum(np.asarray(n, dtype=np.int64), 1)
        return np.int64(1) << np.frexp(n - 1)[1]

    reused, fresh, frac, bytes_fresh = patch_stats()
    monkeypatch.setattr(tree_mod, "pad_class", power_of_two)
    monkeypatch.setattr(plan_mod, "pad_class", power_of_two)
    reused2, fresh2, frac2, _ = patch_stats()
    assert (reused, fresh) == (reused2, fresh2)
    assert fresh <= 505 and bytes_fresh <= 2_728_768
    assert frac >= frac2 > 0.5


def test_patched_scoped_plan_with_one_sided_pairs(rng):
    """Different W and X ownership masks leave pairs only X reads, pairs
    only W reads and pairs both read (a LET's situation): the patched plan
    still equals the fresh compile, section by section and bit for bit."""
    from repro.core.plan import PlanScopes
    def scopes(tree):
        return PlanScopes(xli=tree.centers[:, 1] < 0.5, wli=tree.centers[:, 0] < 0.52)

    pts = plummer_cluster(1500, seed=4)
    fmm = Fmm(kernel="laplace", order=4, max_points_per_box=25)
    ev = fmm.evaluator
    plan = fmm.plan(pts)
    old = ev.compile_plan(plan.tree, plan.lists, scopes=scopes(plan.tree))
    ev.evaluate(plan.tree, plan.lists, np.ones(1500), plan=old)  # fills it
    new, moved = _perturb(rng, pts, 0.05, 0.01)
    new_plan, delta = fmm.update_plan(plan, new, moved=moved)
    tree, lists = new_plan.tree, new_plan.lists
    fresh = ev.compile_plan(tree, lists, scopes=scopes(tree))
    patched = ev.patch_plan(old, plan.tree, plan.lists, tree, lists,
                            delta=delta, scopes=scopes(tree))
    x_arrays = {id(b.kmat) for b in fresh.xli}
    w_arrays = {id(b.kmat) for b in fresh.wli}
    assert x_arrays & w_arrays and x_arrays - w_arrays and w_arrays - x_arrays
    assert patched.patch_stats["slots_reused"] > 0
    dens = rng.standard_normal(1500)[tree.order]
    np.testing.assert_array_equal(
        ev.evaluate(tree, lists, dens, plan=patched),
        ev.evaluate(tree, lists, dens, plan=fresh),
    )
    for name in ("xli", "wli"):  # both filled by the applies
        a, b = getattr(patched, name), getattr(fresh, name)
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.rows, pb.rows) and np.array_equal(pa.cols, pb.cols)
            assert np.array_equal(pa.kmat.array, pb.kmat.array)


def test_patched_plan_refinement_change(rng):
    # collapse a blob into one octant (splits) and scatter another (merges)
    n = 1500
    pts = rng.random((n, 3))
    fmm = Fmm(kernel="laplace", order=4, max_points_per_box=25)
    new = pts.copy()
    moved = np.arange(0, 300)
    new[moved] = 0.31 + 0.01 * rng.random((300, 3))  # forces deep splits
    dens = rng.standard_normal(n)
    plan = fmm.plan(pts)
    _, delta = fmm.update_plan(plan, new, moved=moved)
    assert delta.refinement_changed
    _patch_and_compare(fmm, pts, new, moved, dens)


def test_patched_plan_multi_rhs_and_chained_steps(rng):
    n = 1000
    pts = rng.random((n, 3))
    fmm = Fmm(kernel="laplace", order=4, max_points_per_box=30)
    plan = fmm.plan(pts)
    eplan = fmm.compile_eval_plan(plan)
    dens = rng.standard_normal((n, 3))
    for _ in range(3):  # patch the patched plan, repeatedly
        new, moved = _perturb(rng, pts, 0.04, 0.02)
        new_plan, delta = fmm.update_plan(plan, new, moved=moved)
        check_lists(new_plan.tree, new_plan.lists)
        eplan = fmm.patch_eval_plan(eplan, plan, new_plan, delta=delta)
        pts, plan = new, new_plan
    ref = fmm.compile_eval_plan(plan)
    out_p = fmm.evaluate(pts, dens, plan=plan, eval_plan=eplan)
    out_f = fmm.evaluate(pts, dens, plan=plan, eval_plan=ref)
    np.testing.assert_array_equal(out_p, out_f)


# -- serving ------------------------------------------------------------------


def test_serve_engine_update_geometry(rng):
    from repro.serve.engine import ServeEngine

    n = 900
    pts = rng.random((n, 3))
    fmm = Fmm(kernel="laplace", order=4, max_points_per_box=30)
    dens = rng.standard_normal(n)
    with ServeEngine(n_workers=2) as eng:
        eng.register("m", fmm, pts, warm=True)
        new, _ = _perturb(rng, pts, 0.05, 0.02)
        info = eng.update_geometry("m", new)
        assert info["version"] == 1
        assert "fp64" in info["plans_patched"]
        out = eng.evaluate("m", dens)
        snap = eng.metrics.snapshot()
        assert snap["models"]["m"]["geometry"]["updates"] == 1
        assert eng.plan_stats()["m"]["geometry_version"] == 1
    ref_fmm = Fmm(kernel="laplace", order=4, max_points_per_box=30)
    ref_plan = ref_fmm.plan(new)
    expect = ref_fmm.evaluate(new, dens, plan=ref_plan,
                              eval_plan=ref_fmm.compile_eval_plan(ref_plan))
    np.testing.assert_array_equal(out, expect)


def test_serve_engine_swap_is_atomic_between_batches(rng):
    # a worker snapshots geometry once per batch: requests racing an
    # update must each see a consistent (points, plan) pair and return
    # one of the two valid answers, never a torn mix
    from repro.serve.engine import ServeEngine

    n = 700
    pts = rng.random((n, 3))
    fmm = Fmm(kernel="laplace", order=4, max_points_per_box=30)
    dens = rng.standard_normal(n)
    with ServeEngine(n_workers=2) as eng:
        eng.register("m", fmm, pts, warm=True)
        old = eng.evaluate("m", dens)
        new, _ = _perturb(rng, pts, 0.05, 0.02)
        reqs = [eng.submit("m", dens) for _ in range(4)]
        eng.update_geometry("m", new)
        reqs += [eng.submit("m", dens) for _ in range(4)]
        fresh = eng.evaluate("m", dens)
        for r in reqs:
            got = r.result(timeout=60.0)
            assert np.array_equal(got, old) or np.array_equal(got, fresh)


def test_dist_fmm_update_geometry_p4(rng):
    from repro.serve.dist_engine import DistServeEngine

    n = 1200
    pts = rng.random((n, 3))
    dens = rng.standard_normal(n)
    eng = DistServeEngine(nranks=4)
    eng.register("m", pts, placement="sharded",
                 kernel="laplace", order=4, max_points_per_box=30)
    new, _ = _perturb(rng, pts, 0.05, 0.02)
    info = eng.update_geometry("m", new)
    assert info["ranks_patched"] == 4
    out = eng.evaluate("m", dens)
    ref = DistServeEngine(nranks=4)
    ref.register("m", new, placement="sharded",
                 kernel="laplace", order=4, max_points_per_box=30)
    np.testing.assert_array_equal(out, ref.evaluate("m", dens))


def test_dist_checkpoint_cleared_after_geometry_update(rng):
    # a post-upward checkpoint from the old geometry must not resume
    # into the patched plan: update_geometry clears it, and the next
    # resume=True evaluate silently runs the full pipeline bit-identically
    from repro.dist.driver import DistributedFmm
    from repro.mpi.runtime import run_spmd

    n = 800
    pts = rng.random((n, 3))
    new, _ = _perturb(rng, pts, 0.05, 0.02)
    dens_by_rank = {}
    out = {}

    def body(comm):
        fmm = DistributedFmm(kernel="laplace", order=4, max_points_per_box=30)
        fmm.setup(comm, pts[comm.rank :: comm.size])
        dens = np.arange(fmm.let.n_owned_points, dtype=np.float64)
        fmm.evaluate(dens)  # cuts a checkpoint for the old geometry
        assert fmm._ckpt is not None
        info = fmm.update_geometry(new[comm.rank :: comm.size])
        assert info["patched"]
        assert fmm._ckpt is None
        dens2 = np.arange(fmm.let.n_owned_points, dtype=np.float64)
        dens_by_rank[comm.rank] = dens2
        out[comm.rank] = fmm.evaluate(dens2, resume=True)

    run_spmd(2, body)

    ref = {}

    def ref_body(comm):
        fmm = DistributedFmm(kernel="laplace", order=4, max_points_per_box=30)
        fmm.setup(comm, new[comm.rank :: comm.size])
        ref[comm.rank] = fmm.evaluate(dens_by_rank[comm.rank])

    run_spmd(2, ref_body)
    for r in (0, 1):
        np.testing.assert_array_equal(out[r], ref[r])
