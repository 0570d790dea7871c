"""Tests for the plan-compiled evaluation engine (:mod:`repro.core.plan`).

Every evaluation is a plan apply, so two things are load-bearing.  The
answer is *right*: checked against direct summation, with the error
falling down the order ladder.  And it does not depend on what the plan
happened to cache: a fully cached plan, a matrix-free plan (what a
one-shot evaluate applies) and a plan whose budget covered only some
blocks are **bit-identical** — same batches, same operation order, same
floats.  That is what lets `DistributedFmm` swap plans in under resilient
retries and what keeps the chaos-matrix replay checks meaningful.
"""

import gc
import os
import subprocess
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import Fmm, PlanMismatchError, PlanScopes, tree_fingerprint
from repro.core.lists import evaluated_lists
from repro.core.plan import _KernelBlock
from repro.datasets import uniform_cube
from repro.dist.driver import DistributedFmm, match_owned_rows
from repro.gpu.accel import GpuFmmEvaluator
from repro.kernels import LaplaceGradientKernel, direct_sum, get_kernel
from repro.mpi import run_spmd
from repro.util.timer import PhaseProfile

N = 2000
SEED = 7

#: Relative l2 error against direct summation, per kernel and surface
#: order (N = 2000 uniform points, 40 per box; measured 2.4e-4 / 1.6e-6,
#: 3.5e-4 / 2.3e-6 and 1.3e-4).  Stokes has no order-4 rung: it needs
#: order >= 6 to mean anything.
LADDER = {
    "laplace": {4: 1e-3, 6: 1e-5},
    "yukawa": {4: 1.5e-3, 6: 1e-5},
    "stokes": {6: 1e-3},
}


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


def _reserved(ep) -> list:
    """The plan's reserved kernel blocks, each once."""
    secs = (ep.s2u, ep.d2t, ep.xli, ep.wli, ep.uli)
    return list({id(b.kmat): b.kmat for sec in secs for b in sec
                 if b.kmat is not None}.values())


def _filled(ep) -> list:
    """Fill state of each reserved kernel block."""
    return [k.array is not None for k in _reserved(ep)]


def _caching_variants(ev, tree, lists, **kw):
    """The same compile under three caching outcomes: every kernel block
    reserved, none (``matrix_budget=0``), and a budget that the first
    U-list block exhausts (so some blocks of the same phase are reserved
    and others not).  Nothing is filled yet."""
    full = ev.compile_plan(tree, lists, **kw)
    free = ev.compile_plan(tree, lists, matrix_budget=0, **kw)
    mixed = ev.compile_plan(
        tree, lists, matrix_budget=full.uli[0].kmat.nbytes, **kw
    )
    assert free.matrix_bytes() == 0
    assert 0 < mixed.matrix_bytes() < full.matrix_bytes()
    cached = [b.kmat is not None for b in mixed.uli]
    assert any(cached) and not all(cached)
    assert not any(_filled(full) + _filled(mixed))
    return full, free, mixed


def _apply_all_variants(ev, tree, lists, dens, **kw):
    """Apply ``dens`` through every caching variant — the reserving ones
    twice: unfilled (the apply fills them), then filled — assert the
    outputs are bit-identical, and return that output."""
    full, free, mixed = _caching_variants(ev, tree, lists, **kw)

    def apply(ep):
        return ev.evaluate(tree, lists, dens, plan=ep).copy()

    outs = [apply(full), apply(full), apply(free), apply(mixed), apply(mixed)]
    assert all(_filled(full)) and all(_filled(mixed))
    assert np.array_equal(outs[0], outs[1]), "unfilled != filled"
    assert np.array_equal(outs[0], outs[2]), "cached != matrix-free"
    assert np.array_equal(outs[0], outs[3]), "cached != partly cached, unfilled"
    assert np.array_equal(outs[0], outs[4]), "cached != partly cached, filled"
    return outs[0]


def _rel_err(kernel, tree, dens, pot):
    ref = direct_sum(kernel, tree.points, tree.points, dens)
    return np.linalg.norm(pot - ref) / np.linalg.norm(ref)


# fp64, the default, keeps the bare kernel id
@pytest.mark.parametrize("kernel,precision", [
    pytest.param(k, p, id=k if p == "fp64" else f"{k}-{p}")
    for p in ("fp64", "fp32") for k in ("laplace", "stokes", "yukawa")
])
def test_plan_bit_identical(kernel, precision):
    """Caching never changes the bits — a block evaluated in the tile and
    one kept from an earlier apply are the same, at either precision —
    and the bits are the right answer: the error against direct
    summation sits under the ladder and falls with the order."""
    errs = {}
    for order, bound in LADDER[kernel].items():
        fmm, plan, dens = _setup(kernel, order=order, n=N if kernel != "stokes" else 1000)
        out = _apply_all_variants(fmm.evaluator, plan.tree, plan.lists, dens,
                                  precision=precision)
        errs[order] = _rel_err(fmm.kernel, plan.tree, dens, out)
        assert errs[order] < bound, f"{kernel} order {order}: {errs[order]:.2e}"
    if len(errs) > 1:
        assert errs[6] < 0.1 * errs[4]


def _cloud(name, n, seed=SEED):
    from repro.datasets import ellipsoid_surface, plummer_cluster

    return {"plummer": plummer_cluster, "ellipsoid": ellipsoid_surface}[name](n, seed=seed)


def _has_direct_pairs(tree, lists, ns) -> bool:
    """Whether :func:`evaluated_lists` moves some W/X pair into ULI."""
    return evaluated_lists(tree, lists, ns).w.total() < lists.w.total()


# Stokes at order 4 has no ladder rung (it reads 0.14 - 0.63 on these
# clouds with or without the direct pairs), so it is not a case here.
@pytest.mark.parametrize("precision", ["fp64", "fp32"])
@pytest.mark.parametrize("kernel,order", [("laplace", 4), ("laplace", 6), ("stokes", 6)])
@pytest.mark.parametrize("cloud", ["plummer", "ellipsoid"])
def test_direct_wx_pairs_on_the_ladder(cloud, kernel, order, precision):
    """A W/X pair whose far box is a leaf with fewer points than its
    surface is evaluated point to point in ULI: on adaptive clouds, where
    that rule takes pairs, the answer sits under its ladder rung against
    direct summation, cached, matrix-free and partly cached alike, at
    either precision."""
    n = 1200 if kernel == "laplace" else 500
    fmm = Fmm(kernel, order=order, max_points_per_box=40)
    plan = fmm.plan(_cloud(cloud, n))
    assert _has_direct_pairs(plan.tree, plan.lists, fmm.evaluator.ns)
    ks = fmm.kernel.source_dim
    dens = np.random.default_rng(SEED).standard_normal((n, ks))[plan.tree.order].ravel()
    out = _apply_all_variants(fmm.evaluator, plan.tree, plan.lists, dens, precision=precision)
    assert _rel_err(fmm.kernel, plan.tree, dens, out) < LADDER[kernel][order]


def test_direct_wx_pairs_at_separate_targets():
    """``evaluate_targets`` compiles its W and U ∪ D sections from the
    same split as the source plan, so targets next to the sources — in
    leaves with direct pairs — read the direct sum to the order-6 rung."""
    src = _cloud("plummer", 1500)
    rng = np.random.default_rng(SEED)
    tgt = np.clip(src[::4] + 1e-3 * rng.standard_normal((375, 3)), 0.0, 1.0)
    dens = rng.standard_normal(1500)
    fmm = Fmm("laplace", order=6, max_points_per_box=30)
    plan = fmm.plan(src)
    assert _has_direct_pairs(plan.tree, plan.lists, fmm.evaluator.ns)
    out = fmm.evaluate_targets(src, dens, tgt, plan=plan)
    exact = direct_sum(fmm.kernel, tgt, src, dens)
    assert np.linalg.norm(out - exact) / np.linalg.norm(exact) < LADDER["laplace"][6]


def test_direct_wx_pairs_on_a_let():
    """On a LET the rule reads the rank's own counts; at p = 2 both ranks
    take direct pairs and the assembled answer sits under the ladder."""
    points = _cloud("ellipsoid", 2000)

    def densfn(pts):
        return np.sin(17.0 * pts[:, 0]) + pts[:, 2] * np.cos(11.0 * pts[:, 1])

    def body(comm):
        fmm = DistributedFmm(order=4, max_points_per_box=30)
        fmm.setup(comm, points[comm.rank :: comm.size])
        assert _has_direct_pairs(fmm.let.tree, fmm.lists, fmm.evaluator.ns)
        return match_owned_rows(points, fmm.owned_points), fmm.evaluate(densfn(fmm.owned_points))

    pot = np.empty(len(points))
    for rows, p in run_spmd(2, body).values:
        pot[rows] = p
    exact = direct_sum(get_kernel("laplace"), points, points, densfn(points))
    assert np.linalg.norm(pot - exact) / np.linalg.norm(exact) < LADDER["laplace"][4]


@pytest.mark.parametrize("cloud", ["plummer", "ellipsoid", "uniform"])
def test_direct_pairs_are_the_small_far_leaves(cloud):
    """The rule on a solo tree: the direct W pairs are exactly the
    transposes of the direct X pairs, every far side of one is a leaf with
    ``0 < n < ns`` points and no far side left in W is, and D joins U
    without overlapping it.  A tree with no W/X pair keeps its lists."""
    from repro.core import build_lists, build_tree

    tree = build_tree(_points(1500) if cloud == "uniform" else _cloud(cloud, 1500), 40)
    lists, counts, n = build_lists(tree), tree.point_counts(), tree.n_nodes

    def codes(csr):
        rows, cols = csr.pairs()
        return set((rows * n + cols).tolist())

    for ns in (56, 152):  # orders 4 and 6
        split = evaluated_lists(tree, lists, ns)
        assert split.v is lists.v and split.colleagues is lists.colleagues
        if not lists.w.total():
            assert split is lists
            continue
        dw, dx = codes(lists.w) - codes(split.w), codes(lists.x) - codes(split.x)
        assert dw and dw == {c % n * n + c // n for c in dx}
        small = tree.is_leaf & (counts > 0) & (counts < ns)
        assert small[[c % n for c in dw]].all()
        assert not small[split.w.indices].any() and not small[split.x.pairs()[0]].any()
        u = codes(lists.u)
        assert not u & (dw | dx) and codes(split.u) == u | dw | dx


def test_plan_bit_identical_gradient_eval_kernel():
    grad = LaplaceGradientKernel()
    fmm, plan, dens = _setup(eval_kernel=grad)
    out = _apply_all_variants(fmm.evaluator, plan.tree, plan.lists, dens)
    assert _rel_err(grad, plan.tree, dens, out) < 2e-3  # measured 4.5e-4


@pytest.mark.parametrize("kernel", ["laplace", "stokes", "yukawa", "gradient"])
def test_w_reads_x_blocks_iff_the_kernel_is_transpose_symmetric(kernel):
    """On an adaptive tree every W pair has its X dual.  A kernel that
    declares ``K(x, y) = K(y, x)ᵀ`` then holds one array per block — the
    W record's ``kmat`` *is* the X record's, charged once — and a gradient
    ``eval_kernel`` (odd in ``x - y``) keeps W blocks of its own through
    the same builder; cached == matrix-free == partly cached either way."""
    from repro.datasets import plummer_cluster

    kw = {"eval_kernel": LaplaceGradientKernel()} if kernel == "gradient" else {}
    order = max(LADDER[kernel]) if kernel == "stokes" else 4
    fmm = Fmm("laplace" if kw else kernel, order=order, max_points_per_box=25, **kw)
    plan = fmm.plan(plummer_cluster(800, seed=5))
    ev, tree, lists = fmm.evaluator, plan.tree, plan.lists
    dens = np.random.default_rng(SEED).standard_normal(800 * fmm.kernel.source_dim)
    out = _apply_all_variants(ev, tree, lists, dens)
    assert _rel_err(ev.eval_kernel, tree, dens, out) < 5e-3
    ep = ev.compile_plan(tree, lists)
    assert len(ep.wli) > 3 and all(b.kmat is not None for b in ep.xli + ep.wli)
    shared = [any(w.kmat is x.kmat for x in ep.xli) for w in ep.wli]
    assert all(shared) if fmm.kernel is ev.eval_kernel else not any(shared)
    x_bytes, w_bytes = (sum(b.kmat.nbytes for b in sec) for sec in (ep.xli, ep.wli))
    held = sum({id(b.kmat): b.kmat.nbytes for b in ep.xli + ep.wli}.values())
    assert held == (x_bytes if all(shared) else x_bytes + w_bytes)


@pytest.mark.parametrize("kernel", ["laplace", "stokes", "yukawa", "gradient"])
def test_d2t_reads_s2u_blocks_iff_the_kernel_is_transpose_symmetric(kernel):
    """DE is UC, so ``K(pts, DE) = K(UC, pts)ᵀ`` for a kernel that declares
    the transpose symmetry: each D2T record then reads its S2U record's
    arrays — kernel block, points and surface — charged once, while a
    gradient ``eval_kernel`` keeps D2T blocks of its own; cached ==
    matrix-free == partly cached either way."""
    kw = {"eval_kernel": LaplaceGradientKernel()} if kernel == "gradient" else {}
    order = max(LADDER[kernel]) if kernel == "stokes" else 4
    n = 1000 if kernel == "stokes" else N
    fmm, plan, dens = _setup("laplace" if kw else kernel, order=order, n=n, **kw)
    ev, tree, lists = fmm.evaluator, plan.tree, plan.lists
    out = _apply_all_variants(ev, tree, lists, dens)
    bound = 2e-3 if kw else LADDER[kernel][order]
    assert _rel_err(ev.eval_kernel, tree, dens, out) < bound
    ep = ev.compile_plan(tree, lists)
    dual = fmm.kernel is ev.eval_kernel
    assert len(ep.d2t) == len(ep.s2u) > 1
    for s, d in zip(ep.s2u, ep.d2t):
        assert np.array_equal(s.group, d.group)
        assert (s.kmat is d.kmat) == dual
        assert (s.pts is d.pts and s.surf is d.surf) == dual
    s_bytes, d_bytes = (sum(b.kmat.nbytes for b in sec) for sec in (ep.s2u, ep.d2t))
    held = sum({id(b.kmat): b.kmat.nbytes for b in ep.s2u + ep.d2t}.values())
    assert held == (s_bytes if dual else s_bytes + d_bytes)


def _uli_point_pairs(tree, ep):
    """Sorted ``target * (n + 1) + source`` point-pair codes of every
    contraction the ULI blocks run: a box's targets against its stored
    sources, and the transposed slots' points against the box's targets."""
    n, codes = tree.n_points + 1, []
    for b in ep.uli:
        bi, si = np.divmod(b.t_sel, b.sp)
        for j, i in enumerate(b.boxes):
            own = np.arange(tree.pt_begin[i], tree.pt_end[i])
            src = b.den_rows[j][b.den_rows[j] != tree.n_points]
            back = b.den_rows[j, si[bi == j]]
            codes += [(own[:, None] * n + src).ravel(), (back[:, None] * n + own).ravel()]
    return np.sort(np.concatenate(codes))


def _u_point_pairs(tree, u, targets):
    """The codes :func:`_uli_point_pairs` must hold: every point pair of
    every ordered U pair ``(i <- j)`` with ``i`` in ``targets``, once."""
    n, codes = tree.n_points + 1, []
    for i in targets:
        own = np.arange(tree.pt_begin[i], tree.pt_end[i])
        for j in u.of(i):
            src = np.arange(tree.pt_begin[j], tree.pt_end[j])
            codes.append((own[:, None] * n + src).ravel())
    return np.sort(np.concatenate(codes))


def _check_uli_coverage(tree, u, ep, scope, dual):
    """Every ordered U pair of the ``scope`` targets is contracted once,
    and something is read transposed iff the kernel is its own dual."""
    targets = np.flatnonzero(tree.is_leaf & (tree.point_counts() > 0) & scope)
    assert np.array_equal(_uli_point_pairs(tree, ep), _u_point_pairs(tree, u, targets))
    assert any(b.t_sel.size for b in ep.uli) == dual


@pytest.mark.parametrize("kernel", ["laplace", "gradient"])
def test_uli_contracts_every_ordered_pair_once(rng, kernel):
    """Under the transpose symmetry a pair of in-scope leaves (of U or of
    the direct W/X pairs) is held once, by its finer leaf or on one level
    by the lower key, and contracted both ways; every ordered pair
    ``(i <- j)`` is then contracted exactly once — directly or transposed —
    on a solo plan, on a patched one and on the LET plans of p = 2 and 3,
    fresh and patched after a geometry update.  A gradient
    ``eval_kernel`` keeps every pair in its target's block and reads
    nothing transposed."""
    from repro.datasets import plummer_cluster

    kw = {"eval_kernel": LaplaceGradientKernel()} if kernel == "gradient" else {}
    pts = plummer_cluster(1500, seed=5)
    new = pts.copy()
    new[:150] = 0.3 + 0.02 * rng.random((150, 3))
    fmm = Fmm("laplace", order=4, max_points_per_box=25, **kw)
    plan = fmm.plan(pts)
    ep = fmm.compile_eval_plan(plan)
    ns = fmm.evaluator.ns
    everything = np.ones(plan.tree.n_nodes, dtype=bool)
    u = evaluated_lists(plan.tree, plan.lists, ns).u  # U and the direct W/X pairs
    _check_uli_coverage(plan.tree, u, ep, everything, not kw)
    new_plan, delta = fmm.update_plan(plan, new)
    patched = fmm.patch_eval_plan(ep, plan, new_plan, delta=delta)
    assert patched.patch_stats["slots_reused"] > 0
    everything = np.ones(new_plan.tree.n_nodes, dtype=bool)
    u = evaluated_lists(new_plan.tree, new_plan.lists, ns).u
    _check_uli_coverage(new_plan.tree, u, patched, everything, not kw)
    if kw:  # DistributedFmm evaluates the base kernel only
        return

    def body(comm):
        dfmm = DistributedFmm(order=4, max_points_per_box=25)
        dfmm.setup(comm, pts[comm.rank :: comm.size])
        for step in range(2):
            if step:
                assert dfmm.update_geometry(new[comm.rank :: comm.size])["patched"]
            dfmm.evaluate(np.ones(len(dfmm.owned_points)))
            let = dfmm.let
            u = evaluated_lists(let.tree, dfmm.lists, ns).u
            _check_uli_coverage(let.tree, u, dfmm._plan, let.owned_leaf, True)

    for p in (2, 3):
        run_spmd(p, body)


def test_plan_bit_identical_dense_m2l():
    """Dense M2L is a different V-list arithmetic, not a different
    answer: same ladder rung as the FFT translation."""
    fmm, plan, dens = _setup(m2l_mode="dense")
    out = _apply_all_variants(fmm.evaluator, plan.tree, plan.lists, dens)
    assert _rel_err(fmm.kernel, plan.tree, dens, out) < LADDER["laplace"][4]


def test_one_shot_evaluate_is_the_matrix_free_plan():
    """A call that brings no plan applies one anyway, compiled once per
    ``(tree, lists)``: the first sighting keeps the plan but fills none of
    its blocks, the second fills them all, and every call equals the
    explicit matrix-free apply."""
    fmm, plan, dens = _setup()
    ev = fmm.evaluator
    free = ev.compile_plan(plan.tree, plan.lists, matrix_budget=0)
    ref = ev.evaluate(plan.tree, plan.lists, dens, plan=free).copy()
    r1 = ev.evaluate(plan.tree, plan.lists, dens).copy()
    kept = ev._plan_obj
    assert kept.matrix_bytes() > 0 and not any(_filled(kept))  # one-shot holds no block
    r2 = ev.evaluate(plan.tree, plan.lists, dens).copy()
    assert ev._plan_obj is kept and all(_filled(kept))
    r3 = ev.evaluate(plan.tree, plan.lists, dens).copy()
    assert ev._plan_obj is kept
    for r in (r1, r2, r3):
        assert np.array_equal(ref, r)


def test_plan_scoped_ownership_masks():
    """Node masks restrict every phase to the masked boxes — whatever the
    plan cached — and a plan scoped to everything is the unscoped plan."""
    fmm, plan, dens = _setup()
    ev = fmm.evaluator
    tree, lists = plan.tree, plan.lists
    rng = np.random.default_rng(3)
    scope = rng.random(tree.n_nodes) < 0.7

    def phases(ep):
        state, prof = ev.allocate(tree), PhaseProfile()
        ev.s2u(tree, dens, state, prof, ep)
        ev.u2u(tree, state, prof, ep)
        ev.vli(tree, lists, state, prof, ep)
        ev.xli(tree, lists, dens, state, prof, ep)
        ev.d2d(tree, state, prof, ep)
        ev.wli(tree, lists, state, prof, ep)
        ev.d2t(tree, state, prof, ep)
        ev.uli(tree, lists, dens, state, prof, ep)
        return state

    def masked(mask):
        return PlanScopes(s2u=mask, u2u=mask, vli=mask, xli=mask,
                          d2d=mask, wli=mask, d2t=mask, uli=mask)

    variants = _caching_variants(ev, tree, lists, scopes=masked(scope))
    states = [phases(ep) for ep in variants]
    assert all(ep.scoped for ep in variants)
    for key in ("up", "dcheck", "dequiv", "pot"):
        assert np.array_equal(states[0][key], states[1][key]), key
        assert np.array_equal(states[0][key], states[2][key]), key
    # the mask did restrict: S2U wrote only in-scope leaves, the downward
    # sweep only in-scope boxes, and potentials only in-scope leaves
    st = states[0]
    out_scope = np.flatnonzero(~scope)
    assert not st["dequiv"][out_scope].any()
    leaves_out = out_scope[tree.is_leaf[out_scope]]
    assert not st["up"][leaves_out].any()
    kt = fmm.kernel.target_dim
    for i in leaves_out:
        assert not st["pot"][tree.pt_begin[i] * kt : tree.pt_end[i] * kt].any()
    assert st["pot"].any() and st["dequiv"].any()
    everything = np.ones(tree.n_nodes, dtype=bool)
    full = phases(ev.compile_plan(tree, lists, scopes=masked(everything)))
    unscoped = phases(ev.compile_plan(tree, lists))
    for key in ("up", "dcheck", "dequiv", "pot"):
        assert np.array_equal(full[key], unscoped[key]), key


def _plan_state(ep):
    """What must not change once a plan is filled: its weight and the
    identity of every section's block list, blocks, reserved kernel blocks
    and their arrays."""
    sections = {
        name: getattr(ep, name)
        for name in ("s2u", "u2u", "vli_fft", "vli_dense", "xli", "d2d",
                     "wli", "d2t", "uli")
    }

    def kmat_ids(b):
        k = getattr(b, "kmat", None)
        return id(k), id(getattr(k, "array", None))

    ids = {
        name: (id(sec), [(id(b), kmat_ids(b)) for b in sec])
        for name, sec in sections.items()
    }
    return ep.nbytes, ep.matrix_bytes(), ids


def _zero_a_wli_source(tree, lists, dens):
    """``dens`` with the points of one W-list *leaf* source box zeroed,
    so that box's upward density is exactly 0.0 (a pair-block source or a
    direct one, whichever the list holds first)."""
    counts = tree.point_counts()
    cols = lists.w.indices
    src_leaves = cols[tree.is_leaf[cols] & (counts[cols] > 0)]
    assert src_leaves.size, "test tree has no leaf W-list sources"
    box = int(src_leaves[0])
    out = dens.copy()
    out[tree.pt_begin[box] : tree.pt_end[box]] = 0.0
    return out


def test_zeroed_wli_source_leaves_the_plan_untouched():
    """The W-list is a property of the tree: a source box whose density
    vanishes stays in the schedule and contributes exact zeros, so the
    plan is untouched, every caching variant agrees, and the answer is
    still right."""
    fmm, plan, dens = _setup(n=2500, q=25)
    ev = fmm.evaluator
    tree, lists = plan.tree, plan.lists
    ep = ev.compile_plan(tree, lists)
    ev.evaluate(tree, lists, dens, plan=ep)  # fills the plan
    before = _plan_state(ep)
    ledgers = []
    targets = tree.points[::2]  # some in every leaf, W targets included
    for d in (dens, _zero_a_wli_source(tree, lists, dens)):
        out = ev.evaluate(tree, lists, d, plan=ep).copy()
        assert _plan_state(ep) == before
        assert np.array_equal(_apply_all_variants(ev, tree, lists, d), out)
        assert _rel_err(fmm.kernel, tree, d, out) < LADDER["laplace"][4]
        # the per-box W walks (arbitrary targets, the device W-list) take
        # membership from the tree as well: their flop ledgers repeat
        prof = PhaseProfile()
        ev.evaluate_targets(tree, lists, d, targets, prof)
        gpu = GpuFmmEvaluator(fmm.kernel, 4, accelerate_wx=True)
        gpu.evaluate(tree, lists, d, PhaseProfile())
        assert gpu.gpu.ledger.kernel_flops["WLI"] > 0
        ledgers.append((prof.total_flops(), dict(gpu.gpu.ledger.kernel_flops)))
    assert ledgers[0] == ledgers[1]


def test_a_plan_is_written_once():
    """Four threads make the first applies of one unfilled plan at once,
    each bit-equal to its serial result; that fills every reserved block
    with one array of its reserved dtype and shape, ``matrix_bytes()``
    stays the reservation, and further applies (one with a zeroed W-list
    source) change nothing.  The virtual GPU's float32 read of an fp64
    plan fills nothing."""
    fmm, plan, dens = _setup(n=2500, q=25)
    ev = fmm.evaluator
    tree, lists = plan.tree, plan.lists
    rng = np.random.default_rng(SEED + 1)
    densities = [dens, rng.standard_normal(dens.size),
                 _zero_a_wli_source(tree, lists, dens), rng.standard_normal(dens.size)]
    ref = ev.compile_plan(tree, lists, matrix_budget=0)
    serial = [ev.evaluate(tree, lists, d, plan=ref).copy() for d in densities]

    gpu_plan = ev.compile_plan(tree, lists)
    gpu = GpuFmmEvaluator(fmm.kernel, 4, accelerate_wx=True)
    out = gpu.evaluate(tree, lists, dens, PhaseProfile(), plan=gpu_plan)
    assert np.allclose(out, serial[0], rtol=1e-4, atol=1e-4 * np.abs(serial[0]).max())
    assert not any(_filled(gpu_plan))

    ep = ev.compile_plan(tree, lists)
    reserved = ep.matrix_bytes()
    assert reserved > 0 and not any(_filled(ep))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(densities)) as pool:
            futures = [
                pool.submit(ev.evaluate, tree, lists, d, plan=ep)
                for d in densities
            ]
            outs = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, (out, want) in enumerate(zip(outs, serial)):
        assert np.array_equal(out, want), f"thread {i}"
    for k in _reserved(ep):
        assert isinstance(k.array, np.ndarray)
        assert (k.array.dtype, k.array.shape) == (k.dtype, k.shape)
    assert ep.matrix_bytes() == reserved
    assert sum(k.array.nbytes for k in _reserved(ep)) == reserved
    before = _plan_state(ep)
    for d, want in zip(densities, serial):
        assert np.array_equal(ev.evaluate(tree, lists, d, plan=ep), want)
        assert _plan_state(ep) == before


def test_compile_evaluates_no_kernel_block(monkeypatch, rng):
    """A fresh compile calls ``Kernel.matrix_batch`` zero times: its
    blocks are reserved, and the first apply evaluates them.  A patch of
    a filled plan calls it only for the dirty slots of the blocks it
    stitches — partly clean ones — and leaves a block with no clean slot
    reserved and empty for the next apply."""
    from repro.datasets import plummer_cluster
    from repro.kernels.base import Kernel

    pts = plummer_cluster(2500, seed=5)
    fmm = Fmm("laplace", order=4, max_points_per_box=25)
    plan = fmm.plan(pts)
    fmm.compile_eval_plan(plan)  # the evaluator's operators, built once
    calls = []
    batch = Kernel.matrix_batch

    def counted(self, a, b, dtype=np.float64):
        calls.append(len(a))
        return batch(self, a, b, dtype=dtype)

    monkeypatch.setattr(Kernel, "matrix_batch", counted)
    ep = fmm.compile_eval_plan(plan)
    assert calls == [] and ep.matrix_bytes() > 0 and not any(_filled(ep))
    dens = rng.standard_normal(len(pts))
    fmm.evaluate(pts, dens, plan=plan, eval_plan=ep)
    assert len(calls) >= len(_reserved(ep)) and all(_filled(ep))

    new = pts.copy()
    new[:100] += 0.01 * rng.standard_normal((100, 3))
    new_plan, delta = fmm.update_plan(plan, new)
    del calls[:]
    patched = fmm.patch_eval_plan(ep, plan, new_plan, delta=delta)
    old = {id(k) for k in _reserved(ep)}
    stitched = [k for k in _reserved(patched) if id(k) not in old and k.array is not None]
    empty = [k for k in _reserved(patched) if k.array is None]
    # a stitched block whose clean slots moved holds no dirty slot
    assert empty and 0 < len(calls) <= len(stitched)
    assert 0 < sum(calls) < sum(k.shape[0] for k in stitched)
    fresh = patched.patch_stats["slots_fresh"]
    assert sum(calls) == fresh - sum(k.shape[0] for k in empty)
    want = fmm.evaluate(new, dens, plan=new_plan, eval_plan=fmm.compile_eval_plan(new_plan))
    assert np.array_equal(fmm.evaluate(new, dens, plan=new_plan, eval_plan=patched), want)
    assert all(_filled(patched))


def test_lazy_plan_cache_lets_the_tree_go():
    """The evaluator's lazily compiled plan lives as long as its tree and
    no longer: neither the cache nor the plan keeps the tree alive."""
    fmm = Fmm("laplace", order=4, max_points_per_box=40)
    pts = _points(600)
    dens = np.random.default_rng(SEED).standard_normal(600)
    plan = fmm.plan(pts)
    fmm.evaluate(pts, dens, plan=plan)
    fmm.evaluate(pts, dens, plan=plan)
    assert fmm.evaluator._plan_obj is not None
    tree_ref = weakref.ref(plan.tree)
    del plan
    gc.collect()
    assert tree_ref() is None
    assert fmm.evaluator._plan_obj is None


def test_fmm_facade_plan_roundtrip():
    """Fmm.evaluate with an eagerly compiled eval_plan, with none, and
    direct summation agree (input order in, input order out)."""
    fmm = Fmm("laplace", order=4, max_points_per_box=40)
    pts = _points()
    plan = fmm.plan(pts)
    dens = np.random.default_rng(SEED).standard_normal(N)
    ref = fmm.evaluate(pts, dens, plan=plan)
    ep = fmm.compile_eval_plan(plan)
    out = fmm.evaluate(pts, dens, plan=plan, eval_plan=ep)
    assert np.array_equal(ref, out)
    exact = direct_sum(fmm.kernel, pts, pts, dens)
    assert np.linalg.norm(out - exact) / np.linalg.norm(exact) < LADDER["laplace"][4]


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
    """Each rank's ownership-scoped plan gives the same bits cached or
    matrix-free and across repeated evaluates.  One rank is the serial
    ``Fmm`` bit for bit; four ranks build different trees and sum in a
    different order, and land on the same ladder rung against direct
    summation."""
    points = _points(1600, seed=11)

    def densfn(pts):
        return np.sin(17.0 * pts[:, 0]) + pts[:, 2] * np.cos(11.0 * pts[:, 1])

    def body(comm, cache):
        fmm = DistributedFmm(order=4, max_points_per_box=40)
        fmm.setup(comm, points[comm.rank :: comm.size])
        if not cache:  # the driver's compile, with no kernel block reserved
            fmm._plan = fmm.evaluator.compile_plan(
                fmm.let.tree, fmm.lists, scopes=fmm._plan_scopes(), matrix_budget=0)
        dens = densfn(fmm.owned_points)
        p1 = fmm.evaluate(dens)
        p2 = fmm.evaluate(dens)
        assert np.array_equal(p1, p2)
        assert (fmm._plan.matrix_bytes() > 0) == cache and all(_filled(fmm._plan))
        return match_owned_rows(points, fmm.owned_points), p1

    free = run_spmd(p, body, False)
    cached = run_spmd(p, body, True)
    pot = np.empty(len(points))
    for (rows, a), (_, b) in zip(free.values, cached.values):
        assert np.array_equal(a, b)
        pot[rows] = b
    serial = Fmm("laplace", order=4, max_points_per_box=40)
    if p == 1:
        assert np.array_equal(pot, serial.evaluate(points, densfn(points)))
    exact = direct_sum(serial.kernel, points, points, densfn(points))
    assert np.linalg.norm(pot - exact) / np.linalg.norm(exact) < LADDER["laplace"][4]


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


def test_vlist_skips_empty_sources_bit_for_bit(monkeypatch):
    """A V source octant that holds no point is neither transformed nor
    multiplied (its spectrum is all zeros) and every potential keeps its
    bits; an empty *target* keeps its pairs (``evaluate_targets`` reads its
    far field)."""
    from repro.core.fft_m2l import FftM2L
    from repro.datasets import ellipsoid_surface

    pts = ellipsoid_surface(4000, seed=3)
    fmm = Fmm("laplace", order=4, max_points_per_box=30)
    plan = fmm.plan(pts)
    counts = plan.tree.point_counts()
    _, srcs = plan.lists.v.pairs()
    ep = fmm.compile_eval_plan(plan)
    assert (counts[srcs] == 0).sum() > 0.2 * srcs.size  # something to skip
    assert sum(g.n_pairs for g in ep.vli_fft) == (counts[srcs] > 0).sum()
    assert all((counts[g.usrc] > 0).all() for g in ep.vli_fft)
    assert any((counts[g.utgt] == 0).any() for g in ep.vli_fft)
    dens = np.random.default_rng(2).standard_normal(4000)
    got = fmm.evaluate(pts, dens, plan=plan, eval_plan=ep)
    schedule = FftM2L.schedule
    monkeypatch.setattr(FftM2L, "schedule",
                        lambda self, tree, v, scope=None, sources=None:
                        schedule(self, tree, v, scope))
    every = fmm.compile_eval_plan(plan)
    assert sum(g.n_pairs for g in every.vli_fft) == srcs.size
    assert np.array_equal(got, fmm.evaluate(pts, dens, plan=plan, eval_plan=every))


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


def test_warm_vlist_apply_allocates_no_table(monkeypatch):
    """Grids, FFT passes, frequency-major tables and the gather all live in
    ``EvalPlan._buffer`` scratch: from the third apply on, the V-list holds
    less than one slab of fresh memory at any moment.  (A table-sized
    ``np.fft`` output per apply costs a first touch per page wherever the
    allocator hands freed memory back, which the benchmark's allocator
    settings hide.)"""
    import tracemalloc

    from repro.core.fft_m2l import FftM2L
    from repro.core.plan import EvalPlan

    fmm, plan, dens = _setup(order=6, q=10)
    ep = fmm.compile_eval_plan(plan)
    tables = sum(g.usrc.size + g.utgt.size for g in ep.vli_fft)
    tables *= fmm.evaluator.fft.n ** 2 * fmm.evaluator.fft.nf * 16
    assert tables > 4 * FftM2L.SLAB_BYTES  # the guard has something to catch
    apply_vli, peaks = EvalPlan.apply_vli_fft, []

    def traced(self, *args, **kw):
        tracemalloc.start()
        try:
            apply_vli(self, *args, **kw)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(EvalPlan, "apply_vli_fft", traced)
    for _ in range(3):
        fmm.evaluator.evaluate(plan.tree, plan.lists, dens, plan=ep)
    assert peaks[0] > tables  # the first apply makes the scratch
    assert peaks[2] < FftM2L.SLAB_BYTES


def test_warm_wli_apply_copies_no_block(monkeypatch):
    """The W-list contracts X's cached blocks through a transposed *view*:
    a warm ``apply_wli`` never holds as much fresh memory as its largest
    block weighs (a silently copied transposed stack would hand the saved
    bytes back as memory traffic).  At q = 100 some far leaves hold more
    points than their surface, so W keeps blocks of its own size class."""
    import tracemalloc

    from repro.core.plan import EvalPlan
    from repro.datasets import plummer_cluster

    fmm = Fmm("laplace", order=4, max_points_per_box=100)
    pts = plummer_cluster(6000, seed=5)
    plan = fmm.plan(pts)
    ep = fmm.compile_eval_plan(plan)
    assert all(any(w.kmat is x.kmat for x in ep.xli) for w in ep.wli)
    largest = max(b.kmat.nbytes for b in ep.wli)
    apply_wli, peaks = EvalPlan.apply_wli, []

    def traced(self, *args, **kw):
        tracemalloc.start()
        try:
            apply_wli(self, *args, **kw)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(EvalPlan, "apply_wli", traced)
    dens = np.random.default_rng(SEED).standard_normal(len(pts))
    for _ in range(3):
        fmm.evaluate(pts, dens, plan=plan, eval_plan=ep)
    assert 0 < peaks[2] < largest


def _distinct_array_bytes(ep) -> tuple[int, int]:
    """``(distinct, naive)``: a plan's array and reserved-block bytes with
    every object counted once / once per record that holds it, offset
    tables aside."""
    records = []
    for name in ("s2u", "u2u", "vli_fft", "vli_dense", "xli", "wli", "d2t", "uli"):
        records += getattr(ep, name)
    for lv in ep.d2d:
        records += [lv, *lv.l2l]
    held = [v for r in records for v in vars(r).values()
            if isinstance(v, (np.ndarray, _KernelBlock))]
    return sum({id(v): v.nbytes for v in held}.values()), sum(v.nbytes for v in held)


def test_plan_weight_counts_each_array_once(rng):
    """``matrix_bytes()`` stays within the budget and ``nbytes`` is the sum
    over *distinct* arrays — a block W and X both read weighs once — on a
    solo plan, a patched plan and the ownership-scoped plans of p = 2."""
    from repro.datasets import plummer_cluster

    def check(ep, budget):
        kmats = {id(b.kmat): b.kmat.nbytes
                 for sec in (ep.s2u, ep.d2t, ep.xli, ep.wli, ep.uli)
                 for b in sec if b.kmat is not None}
        assert ep.matrix_bytes() == sum(kmats.values()) <= budget
        distinct, naive = _distinct_array_bytes(ep)
        assert ep.nbytes == distinct + ep.vli_table_bytes
        shared = sum(w.kmat.nbytes for w in ep.wli if w.kmat is not None
                     and any(w.kmat is x.kmat for x in ep.xli))
        assert shared > 0 and naive - distinct >= shared

    pts = plummer_cluster(2500, seed=5)
    fmm = Fmm("laplace", order=4, max_points_per_box=25)
    plan = fmm.plan(pts)
    full = fmm.compile_eval_plan(plan)
    check(full, full.matrix_bytes())
    budget = int(0.8 * full.matrix_bytes())  # the pair section runs dry
    tight = fmm.compile_eval_plan(plan, matrix_budget=budget)
    assert any(b.kmat is None for b in tight.xli)
    check(tight, budget)
    new = pts.copy()
    new[:100] += 0.01 * rng.standard_normal((100, 3))
    new_plan, delta = fmm.update_plan(plan, new)
    patched = fmm.patch_eval_plan(tight, plan, new_plan, delta=delta,
                                  matrix_budget=budget)
    check(patched, budget)

    def body(comm):
        dfmm = DistributedFmm(order=4, max_points_per_box=25)
        dfmm.setup(comm, pts[comm.rank :: comm.size])
        dfmm.evaluate(np.ones(len(dfmm.owned_points)))
        ep = dfmm._plan
        check(ep, full.matrix_bytes())
        return sum(not any(w.kmat is x.kmat for x in ep.xli) for w in ep.wli)

    assert sum(run_spmd(2, body).values) > 0  # a LET has one-sided W blocks


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


@pytest.mark.parametrize("points", ["uniform", "plummer"])
def test_blocks_carry_pairs(points):
    """Blocks are the size of their boxes: every block side is
    ``pad_class`` of its largest member's count — of the box alone, not of
    the batch — and a section's cached kernel bytes stay within 1.6x the
    bytes of its real (target, source) pairs (power-of-two sides, and a
    power of two over the packed U-list total, held 2.4x for ULI)."""
    from repro.core.tree import pad_class
    from repro.datasets import plummer_cluster

    pts = _points(2000) if points == "uniform" else plummer_cluster(800, seed=5)
    fmm = Fmm("laplace", order=4, max_points_per_box=40)
    plan = fmm.plan(pts)
    tree, ns = plan.tree, fmm.evaluator.ns
    u = evaluated_lists(tree, plan.lists, ns).u  # U and the direct W/X pairs
    ep = fmm.compile_eval_plan(plan)
    counts, lv = tree.point_counts(), tree.levels
    rows, cols = u.pairs()  # a leaf holds a pair it is the finer side of, or the lower key
    held = (lv[cols] < lv[rows]) | ((lv[cols] == lv[rows]) & (cols >= rows))
    csum = np.concatenate(([0], np.cumsum(counts[cols] * held)))
    total = csum[u.offsets[1:]] - csum[u.offsets[:-1]]  # per node: stored U sources

    held, real = {}, {}

    def tally(sec, blk, pairs):
        assert blk.kmat is not None  # everything fits the default budget
        held[sec] = held.get(sec, 0) + blk.kmat.nbytes
        real[sec] = real.get(sec, 0) + 8 * int(pairs)

    for sec in ("s2u", "d2t"):
        for b in getattr(ep, sec):
            assert b.pad == pad_class(counts[b.group].max())
            tally(sec, b, ns * counts[b.group].sum())
    for b in ep.xli:  # W's records read the same arrays
        assert b.pad == pad_class(counts[b.cols].max())
        tally("pair", b, ns * counts[b.cols].sum())
    for b in ep.uli:
        assert b.tp == pad_class(counts[b.boxes].max())
        assert b.sp == pad_class(total[b.boxes].max())
        tally("uli", b, (counts[b.boxes] * total[b.boxes]).sum())
    assert {"s2u", "d2t", "uli"} <= set(held)
    assert "pair" in held or points == "uniform"
    for sec in held:
        assert held[sec] <= 1.6 * real[sec], (sec, held[sec] / real[sec])


# -- compile identity: the per-box builders, kept as the oracle ---------------
#
# Compile cuts every kernel-matrix section from flat per-box arrays, one
# gather per batch.  The builders below are the per-box loops it replaced:
# a fresh compile, a LET's scoped compile and a patched plan must hold
# exactly the records they build, field by field.


def _oracle_point_rows(tree, nodes, pad):
    counts = (tree.pt_end - tree.pt_begin)[nodes]
    ar = np.arange(pad, dtype=np.int64)[None, :]
    rows = tree.pt_begin[nodes][:, None] + ar
    rows[ar >= counts[:, None]] = tree.n_points
    return rows


def _oracle_points(tree, nodes, pad):
    rows = _oracle_point_rows(tree, nodes, pad)
    pts = np.repeat(tree.centers[nodes][:, None, :], pad, axis=1)
    valid = rows != tree.n_points
    pts[valid] = tree.points[rows[valid]]
    return pts


def _oracle_uli_groups(tree, src_total, scope):
    from repro.core.tree import pad_class

    counts = tree.point_counts()
    sel = tree.is_leaf & (counts > 0) & (src_total > 0)
    leaves = np.flatnonzero(sel if scope is None else sel & scope)
    tpad, spad = pad_class(counts[leaves]), pad_class(src_total[leaves])
    code = tpad * np.int64(1 << 32) + spad
    for c in sorted(set(code.tolist())):
        grp = np.flatnonzero(code == c)
        tp, sp = int(tpad[grp[0]]), int(spad[grp[0]])
        chunk = max(1, int(1.5e6 / max(tp * sp, 1)))
        for s in range(0, grp.size, chunk):
            yield tp, sp, leaves[grp[s : s + chunk]]


def _oracle_sections(ev, tree, lists, scopes=None, matrix_budget=None,
                     precision="fp64", targets=None) -> dict:
    """The ULI, S2U, D2T, X and W records of a fresh compile, built box by
    box: ``{section: [{field: value}]}``, a reserved kernel block as its
    ``(shape, dtype)`` plus the first record holding it."""
    from repro.core.plan import (MATRIX_BUDGET, PlanScopes, _pair_batches, _scatter_schedule,
                                 _uli_members, _wx_dual)
    from repro.core.tree import leaf_batches
    from repro.core.work import member_sums

    scopes = scopes or PlanScopes()
    targets = tree if targets is None else targets
    own = targets is tree
    dual = own and _wx_dual(ev)
    rdtype = np.float32 if precision == "fp32" else np.float64
    left = MATRIX_BUDGET if matrix_budget is None else matrix_budget
    counts, tcounts = tree.point_counts(), targets.point_counts()
    ks, kt, ns = ev.kernel.source_dim, ev.kernel.target_dim, ev.ns
    out = {sec: [] for sec in ("uli", "s2u", "d2t", "xli", "wli")}

    def mat(kernel, a, b):
        nonlocal left
        shape = (a.shape[0], a.shape[1] * kernel.target_dim, b.shape[1] * kernel.source_dim)
        nbytes = np.dtype(rdtype).itemsize * int(np.prod(shape))
        if nbytes > left:
            return None
        left -= nbytes
        return _KernelBlock(rdtype, shape)

    def within(mask, scope):
        return mask if scope is None else mask & scope

    split = evaluated_lists(tree, lists, ns)
    leaves, tleaves = tree.is_leaf & (counts > 0), tree.is_leaf & (tcounts > 0)
    u = split.u
    urows, ucols = u.pairs()
    stored, trans = _uli_members(urows, ucols, counts, tree.levels, scopes.uli, dual)
    u_src = member_sums(lists.u, counts[lists.u.indices])
    held = member_sums(u, counts[ucols] * stored)
    for tp, sp, boxes in _oracle_uli_groups(targets, held, scopes.uli):
        src_rows = np.full((boxes.size, sp), tree.n_points, dtype=np.int64)
        t_mask = np.zeros((boxes.size, sp), dtype=bool)
        for j, i in enumerate(boxes):
            seg = slice(u.offsets[i], u.offsets[i + 1])
            mine = stored[seg]
            srcs = ucols[seg][mine]
            row = tree.point_rows(srcs)
            src_rows[j, : row.size] = row
            t_mask[j, : held[i]] = np.repeat(trans[seg][mine], counts[srcs])
        src_pts = np.repeat(tree.centers[boxes][:, None, :], sp, axis=1)
        valid = src_rows != tree.n_points
        src_pts[valid] = tree.points[src_rows[valid]]
        tgt_pts = _oracle_points(targets, boxes, tp)
        t_sel = np.flatnonzero(t_mask)
        out["uli"].append(dict(
            tp=tp, sp=sp, boxes=boxes, tgt_pts=tgt_pts, src_pts=src_pts,
            den_rows=src_rows, pot_rows=_oracle_point_rows(targets, boxes, tp),
            t_sel=t_sel, t_rows=src_rows.ravel()[t_sel],
            kmat=mat(ev.eval_kernel, tgt_pts, src_pts),
            flops=ev.eval_kernel.pair_flops(1, 1) * float((tcounts[boxes] * u_src[boxes]).sum()),
        ))

    def leaf_section(side, section, sel):
        up = section == "s2u"
        kernel = ev.kernel if up else ev.eval_kernel
        surface = ev.ops.uc_points if up else ev.ops.de_points
        recs = []
        for lev, pad, group in leaf_batches(side, sel):
            pts = _oracle_points(side, group, pad)
            surf = surface(lev)[None, :, :] + side.centers[group][:, None, :]
            rows = _oracle_point_rows(side, group, pad)
            n = side.point_counts()[group].sum()
            recs.append(dict(
                level=lev, pad=pad, group=group, pts=pts, surf=surf,
                den_rows=rows if up else None, pot_rows=None if up else rows,
                mat=ev.ops.uc2ue(lev) if up else None,
                kmat=mat(kernel, *((surf, pts) if up else (pts, surf))),
                flops=(kernel.pair_flops(ns, n) + 2.0 * group.size * (ns * ks) * (ns * kt)
                       if up else kernel.pair_flops(n, ns)),
            ))
        return recs

    s2u_sel, d2t_sel = within(leaves, scopes.s2u), within(tleaves, scopes.d2t)
    out["s2u"] = leaf_section(tree, "s2u", s2u_sel)
    if dual:
        same = np.array_equal(s2u_sel, d2t_sel)
        out["d2t"] = [{**b, "den_rows": None, "pot_rows": b["den_rows"], "mat": None,
                       "flops": ev.kernel.pair_flops(counts[b["group"]].sum(), ns)}
                      for b in (out["s2u"] if same else leaf_section(tree, "s2u", d2t_sel))]
    else:
        out["d2t"] = leaf_section(targets, "d2t", d2t_sel)

    nonempty = counts > 0 if scopes.nonempty is None else scopes.nonempty
    xf, xl = split.x.pairs(scopes.xli)
    wl, wf = split.w.pairs(within(tleaves, scopes.wli))
    xk, wk = counts[xl] > 0, nonempty[wf]
    xf, xl, wl, wf = xf[xk], xl[xk], wl[wk], wf[wk]
    xc, wc = (f * np.int64(tree.n_nodes) + l for f, l in ((xf, xl), (wf, wl)))
    both = np.isin(xc, wc) & dual
    lone = ~(np.isin(wc, xc) & dual)
    ue = np.stack([ev.ops.ue_points(lev) for lev in range(tree.max_level + 1)])

    def block(pad, fi, li, in_x, in_w):
        side = tree if in_x else targets
        pts = _oracle_points(side, li, pad)
        surf = ue[tree.levels[fi]] + tree.centers[fi][:, None, :]
        w_own = not (in_x or dual)
        n_pts = side.point_counts()[li].sum()
        sides = (ev.eval_kernel, pts, surf) if w_own else (ev.kernel, surf, pts)
        shared = dict(pad=pad, pts=pts, surf=surf, kmat=mat(*sides))
        if in_x:
            order, starts, seg = _scatter_schedule(fi)
            out["xli"].append(dict(
                rows=fi, cols=li, den_rows=_oracle_point_rows(tree, li, pad), order=order,
                starts=starts, seg=seg, pot_rows=None,
                flops=ev.kernel.pair_flops(ns, n_pts), **shared))
        if in_w:
            order, starts, seg = _scatter_schedule(li)
            out["wli"].append(dict(
                rows=li, cols=fi, den_rows=None, order=order, starts=starts, seg=seg,
                pot_rows=_oracle_point_rows(targets, seg, pad),
                flops=ev.eval_kernel.pair_flops(n_pts, ns), **shared))

    for pad, sel in _pair_batches(ns, counts[xl]):
        for part, in_w in ((sel[~both[sel]], False), (sel[both[sel]], True)):
            if part.size:
                block(pad, xf[part], xl[part], True, in_w)
    wf, wl = wf[lone], wl[lone]
    for pad, sel in _pair_batches(ns, targets.point_counts()[wl]):
        block(pad, wf[sel], wl[sel], False, True)
    return out


def _kmat_first_holders(sections: dict) -> dict:
    """``(section, index) -> (shape, dtype, first holder)`` of each record's
    kernel block (``None`` where none is reserved)."""
    first, out = {}, {}
    for sec in ("uli", "s2u", "d2t", "xli", "wli"):
        for j, rec in enumerate(sections[sec]):
            k = rec["kmat"] if isinstance(rec, dict) else rec.kmat
            out[sec, j] = None if k is None else (
                k.shape, k.dtype, first.setdefault(id(k), (sec, j)))
    return out


def _assert_compiled_as_oracle(ev, tree, lists, ep, **kw) -> None:
    """Every ULI / S2U / D2T / X / W record field of ``ep`` is the per-box
    oracle's: index arrays, masks, padded points, surfaces, schedules,
    operators and flops; kernel blocks alike in shape, dtype and sharing."""
    want = _oracle_sections(ev, tree, lists, **kw)
    got = {sec: getattr(ep, sec) for sec in want}
    for sec, recs in want.items():
        assert len(got[sec]) == len(recs), sec
        for j, (w, g) in enumerate(zip(recs, got[sec])):
            for name, val in w.items():
                if name == "kmat":
                    continue
                have = getattr(g, name)
                if isinstance(val, np.ndarray) or isinstance(have, np.ndarray):
                    assert have is not None and val is not None, (sec, j, name)
                    assert have.dtype == val.dtype and np.array_equal(have, val), (sec, j, name)
                else:
                    assert have == val, (sec, j, name, have, val)
    assert _kmat_first_holders(got) == _kmat_first_holders(want)


def _workload_trees():
    """The benchmark's four workload shapes: (kernel, order, precision,
    points), one fixed draw each."""
    from repro.datasets import ellipsoid_surface, plummer_cluster

    return {
        "uniform_laplace": ("laplace", 6, "fp64", uniform_cube(20_000, seed=1)),
        "plummer_adaptive": ("laplace", 6, "fp64", plummer_cluster(8_000, seed=2)),
        "ellipsoid_dist": ("laplace", 6, "fp64", ellipsoid_surface(20_000, seed=3)),
        "serve_lap": ("laplace", 4, "fp32", ellipsoid_surface(5_000, seed=4)),
        "serve_stk": ("stokes", 6, "fp64", uniform_cube(3_000, seed=5)),
    }


@pytest.mark.parametrize("name", list(_workload_trees()))
def test_compile_matches_the_per_box_builders(name):
    kernel, order, precision, pts = _workload_trees()[name]
    fmm = Fmm(kernel, order=order, max_points_per_box=64, precision=precision)
    plan = fmm.plan(pts)
    ev, tree, lists = fmm.evaluator, plan.tree, plan.lists
    for budget in (None, 40 * 2**20):  # every block reserved / the budget runs out
        kw = {} if budget is None else {"matrix_budget": budget}
        ep = ev.compile_plan(tree, lists, precision=precision, **kw)
        _assert_compiled_as_oracle(ev, tree, lists, ep, precision=precision, **kw)


def test_separate_target_compile_matches_the_per_box_builders():
    from repro.core.tree import tree_from_nodes
    from repro.datasets import plummer_cluster
    from repro.util import morton

    fmm = Fmm("laplace", order=4, max_points_per_box=40)
    plan = fmm.plan(plummer_cluster(3_000, seed=6))
    grid = uniform_cube(2_000, seed=7)
    keys = morton.encode_points(grid)
    order = np.argsort(keys, kind="stable")
    targets = tree_from_nodes(plan.tree.keys, plan.tree.is_leaf, grid[order], keys[order], order)
    ev = fmm.evaluator
    ep = ev.compile_plan(plan.tree, plan.lists, targets=targets)
    assert not ep.dual and ep.target_fingerprint is not None
    _assert_compiled_as_oracle(ev, plan.tree, plan.lists, ep, targets=targets)


@pytest.mark.parametrize("p", [2, 3])
def test_let_compile_matches_the_per_box_builders(p):
    from repro.datasets import ellipsoid_surface

    pts = ellipsoid_surface(4_000, seed=8)

    def body(comm):
        fmm = DistributedFmm(kernel="laplace", order=4, max_points_per_box=40)
        fmm.setup(comm, pts[comm.rank :: comm.size])
        ev, tree, lists = fmm.evaluator, fmm.let.tree, fmm.lists
        scopes = fmm._plan_scopes()
        ep = ev.compile_plan(tree, lists, scopes=scopes)
        _assert_compiled_as_oracle(ev, tree, lists, ep, scopes=scopes)
        return len(ep.uli) + len(ep.xli)

    assert all(run_spmd(p, body).values)


def test_patched_plans_match_the_per_box_builders():
    """Six seeded blob steps in the style of the ``plummer_adaptive``
    benchmark, each plan patched from the last (filled) one: every patched
    plan holds the fresh compile's records, and its reused blocks the
    bits the matrix-free plan evaluates."""
    from repro.datasets import plummer_cluster

    rng = np.random.default_rng(12)
    pts = plummer_cluster(3_000, seed=9)
    fmm = Fmm("laplace", order=4, max_points_per_box=30)
    ev = fmm.evaluator
    plan = fmm.plan(pts)
    ep = fmm.compile_eval_plan(plan)
    dens = rng.standard_normal(len(pts))
    reused = 0
    fmm.evaluate(pts, dens, plan=plan, eval_plan=ep)  # fills the first plan
    for _ in range(6):
        d2 = ((pts - pts[rng.integers(len(pts))]) ** 2).sum(axis=1)
        moved = np.argpartition(d2, 149)[:150]
        new = pts.copy()
        new[moved] = np.clip(new[moved] + rng.normal(scale=0.01, size=3)
                             + rng.normal(scale=0.0025, size=(150, 3)), 1e-9, 1 - 1e-9)
        new_plan, delta = fmm.update_plan(plan, new, moved=moved)
        ep = fmm.patch_eval_plan(ep, plan, new_plan, delta=delta)
        reused += ep.patch_stats["slots_reused"]
        _assert_compiled_as_oracle(ev, new_plan.tree, new_plan.lists, ep)
        free = fmm.compile_eval_plan(new_plan, matrix_budget=0)
        np.testing.assert_array_equal(
            fmm.evaluate(new, dens, plan=new_plan, eval_plan=ep),
            fmm.evaluate(new, dens, plan=new_plan, eval_plan=free))
        plan, pts = new_plan, new
    assert reused > 0


def test_cold_start_leaves_numpy_ma_unimported():
    """NumPy's hash-path ``np.unique`` and ``np.setdiff1d`` import
    ``numpy.ma`` (milliseconds of a cold start); a fresh process that
    plans, compiles and evaluates, solo and on two ranks, never does."""
    code = (
        "import sys, numpy as np\n"
        "from repro.core import Fmm\n"
        "from repro.datasets import plummer_cluster\n"
        "from repro.dist.driver import distributed_fmm_rank\n"
        "from repro.mpi import run_spmd\n"
        "pts = plummer_cluster(3000, seed=3)\n"
        "fmm = Fmm('laplace', order=4, max_points_per_box=30)\n"
        "plan = fmm.plan(pts)\n"
        "ep = fmm.compile_eval_plan(plan)\n"
        "fmm.evaluate(pts, np.ones(3000), plan=plan, eval_plan=ep)\n"
        "print('numpy.ma' in sys.modules)\n"
        "run_spmd(2, distributed_fmm_rank, pts, np.ones(3000), order=4, max_points_per_box=30)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert out.stdout.split() == ["False", "False"]
