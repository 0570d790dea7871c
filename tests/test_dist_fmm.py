"""End-to-end distributed FMM accuracy and equivalence tests."""

import time

import numpy as np
import pytest

from repro.core.lists import evaluated_lists
from repro.datasets import ellipsoid_surface, uniform_cube
from repro.dist.driver import DistributedFmm, distributed_fmm_rank
from repro.kernels import direct_sum, get_kernel
from repro.mpi import run_spmd
from repro.perf.model import EVAL_PHASES
from repro.util import morton


def _match(ref_pts, pts):
    """Row indices of ``pts`` inside ``ref_pts`` by exact coordinates."""
    dt = np.dtype([("x", "f8"), ("y", "f8"), ("z", "f8")])
    g = np.ascontiguousarray(ref_pts).view(dt).ravel()
    o = np.ascontiguousarray(pts).view(dt).ravel()
    order = np.argsort(g)
    pos = order[np.searchsorted(g[order], o)]
    assert np.array_equal(ref_pts[pos], pts)
    return pos


def _run_and_collect(pts, dens, p, **kwargs):
    res = run_spmd(p, distributed_fmm_rank, pts, dens, timeout=560, **kwargs)
    opts = np.concatenate([v[0] for v in res.values])
    opot = np.concatenate([v[1] for v in res.values])
    return opts, opot, res


def densfn(p):
    return np.sin(40 * p[:, 0]) + p[:, 2] * np.cos(23 * p[:, 1])


class TestDistributedAccuracy:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_uniform_laplace(self, p):
        pts = uniform_cube(1800, seed=31)
        kern = get_kernel("laplace")
        ref = direct_sum(kern, pts, pts, densfn(pts))
        opts, opot, _ = _run_and_collect(
            pts, densfn, p, kernel="laplace", order=6, max_points_per_box=30
        )
        assert len(opts) == len(pts)
        pos = _match(pts, opts)
        assert np.linalg.norm(opot - ref[pos]) / np.linalg.norm(ref) < 5e-5

    def test_ellipsoid_laplace(self):
        pts = ellipsoid_surface(1800, seed=32)
        kern = get_kernel("laplace")
        ref = direct_sum(kern, pts, pts, densfn(pts))
        opts, opot, _ = _run_and_collect(
            pts, densfn, 4, kernel="laplace", order=6, max_points_per_box=25
        )
        pos = _match(pts, opts)
        assert np.linalg.norm(opot - ref[pos]) / np.linalg.norm(ref) < 5e-5

    def test_stokes_distributed(self):
        pts = uniform_cube(900, seed=33)
        kern = get_kernel("stokes")

        def sdens(p):
            return np.stack(
                [np.sin(9 * p[:, 0]), p[:, 1], np.cos(7 * p[:, 2])], axis=1
            ).reshape(-1)

        ref = direct_sum(kern, pts, pts, sdens(pts))
        opts, opot, _ = _run_and_collect(
            pts, sdens, 4, kernel="stokes", order=6, max_points_per_box=40
        )
        pos = _match(pts, opts)
        ref_rows = ref.reshape(-1, 3)[pos].reshape(-1)
        assert np.linalg.norm(opot - ref_rows) / np.linalg.norm(ref) < 1e-3

    def test_density_array_input(self):
        pts = uniform_cube(1200, seed=34)
        kern = get_kernel("laplace")
        dens = densfn(pts)
        ref = direct_sum(kern, pts, pts, dens)
        opts, opot, _ = _run_and_collect(
            pts, dens, 4, kernel="laplace", order=6, max_points_per_box=30
        )
        pos = _match(pts, opts)
        assert np.linalg.norm(opot - ref[pos]) / np.linalg.norm(ref) < 5e-5


class TestSchemeEquivalence:
    def test_hypercube_equals_owner_exactly(self):
        pts = uniform_cube(1500, seed=35)
        out = {}
        for scheme in ("hypercube", "owner"):
            opts, opot, _ = _run_and_collect(
                pts,
                densfn,
                4,
                kernel="laplace",
                order=4,
                max_points_per_box=30,
                comm_scheme=scheme,
            )
            order = _match(pts, opts)
            full = np.empty(len(pts))
            full[order] = opot
            out[scheme] = full
        np.testing.assert_allclose(
            out["hypercube"], out["owner"], rtol=1e-10, atol=1e-14
        )

    def test_load_balance_preserves_result(self):
        pts = ellipsoid_surface(1500, seed=36)
        out = {}
        for lb in (False, True):
            opts, opot, _ = _run_and_collect(
                pts,
                densfn,
                4,
                kernel="laplace",
                order=4,
                max_points_per_box=25,
                load_balance=lb,
            )
            order = _match(pts, opts)
            full = np.empty(len(pts))
            full[order] = opot
            out[lb] = full
        np.testing.assert_allclose(out[False], out[True], rtol=1e-9, atol=1e-13)

    def test_load_balance_reduces_imbalance(self):
        pts = ellipsoid_surface(2500, seed=37)

        def imbalance(lb):
            _, _, res = _run_and_collect(
                pts,
                densfn,
                4,
                kernel="laplace",
                order=4,
                max_points_per_box=25,
                load_balance=lb,
            )
            flops = [
                sum(
                    prof.events[ph].flops
                    for ph in ("ULI", "VLI", "WLI", "XLI", "S2U", "U2U", "D2D", "D2T")
                    if ph in prof.events
                )
                for prof in res.profiles
            ]
            return max(flops) / (sum(flops) / len(flops))

        assert imbalance(True) <= imbalance(False) * 1.05


class TestLetNonemptyMask:
    @pytest.mark.parametrize("p", [2, 4])
    def test_w_sources_kept_iff_globally_nonempty(self, p):
        """The W-list sources a rank's plan keeps are exactly the octants
        that hold a point on *some* rank — ghost octants none of whose
        points this rank ever received included."""
        pts = ellipsoid_surface(6000, seed=35)

        def body(comm):
            fmm = DistributedFmm(
                "laplace", order=4, max_points_per_box=25, load_balance=True
            )
            fmm.setup(comm, pts[comm.rank :: comm.size])
            let, tree = fmm.let, fmm.let.tree
            local = tree.point_counts() > 0
            _, cols = fmm.lists.w.pairs(let.owned_leaf & local)
            return tree.keys[cols], let.nonempty[cols], local[cols]

        all_keys = np.sort(morton.encode_points(pts))
        from_reports = 0
        for keys, kept, local in run_spmd(p, body, timeout=300).values:
            lo = np.searchsorted(
                all_keys, morton.deepest_first_descendant(keys), side="left"
            )
            hi = np.searchsorted(
                all_keys, morton.deepest_last_descendant(keys), side="right"
            )
            assert np.array_equal(kept, hi > lo)
            from_reports += int((kept & ~local).sum())
        # some sources were decided by a sender's report, not by merged points
        assert from_reports > 0


class TestBlockClasses:
    def test_a_leafs_block_sides_come_from_its_own_counts(self):
        """The (pad, members) of an owned leaf's S2U / ULI block are
        ``pad_class`` of that leaf's point count and of its U-list's source
        total — nothing about the batch, the LET or the rank count enters:
        a leaf that keeps its counts keeps its block sides at p = 1, 2, 3."""
        from repro.core.tree import pad_class

        pts = ellipsoid_surface(4000, seed=35)

        def body(comm):
            fmm = DistributedFmm("laplace", order=4, max_points_per_box=25)
            fmm.setup(comm, pts[comm.rank :: comm.size])
            fmm.evaluate(np.ones(len(fmm.owned_points)))
            tree, ep = fmm.let.tree, fmm._plan
            u = evaluated_lists(tree, fmm.lists, fmm.evaluator.ns).u  # U and direct W/X
            counts = tree.point_counts()
            # a leaf's block holds itself, its coarser members, its higher
            # keys on its own level and its ghosts
            rows, cols = u.pairs()
            lv = tree.levels
            held = ((lv[cols] < lv[rows]) | ((lv[cols] == lv[rows]) & (cols >= rows))
                    | ~fmm.let.owned_leaf[cols])
            csum = np.concatenate(([0], np.cumsum(counts[cols] * held)))
            total = csum[u.offsets[1:]] - csum[u.offsets[:-1]]
            assert all(fmm.let.owned_leaf[b.group].all() for b in ep.s2u)
            # leaf key -> (its counts, its block sides), per section
            s2u = {int(tree.keys[i]): ((int(counts[i]),), (b.pad,))
                   for b in ep.s2u for i in b.group}
            uli = {int(tree.keys[i]): ((int(counts[i]), int(total[i])), (b.tp, b.sp))
                   for b in ep.uli for i in b.boxes}
            return s2u, uli

        runs = []
        for p in (1, 2, 3):
            merged = ({}, {})
            for rank in run_spmd(p, body, timeout=300).values:
                for into, part in zip(merged, rank):
                    assert not into.keys() & part.keys()  # owned once
                    into.update(part)
            for section in merged:
                for cnts, sides in section.values():
                    assert sides == tuple(pad_class(c) for c in cnts)
            runs.append(merged)
        for dist in runs[1:]:
            for solo_sec, dist_sec in zip(runs[0], dist):
                kept = [k for k in solo_sec.keys() & dist_sec.keys()
                        if solo_sec[k][0] == dist_sec[k][0]]  # same counts in both
                assert len(kept) > len(solo_sec) // 2
                assert all(solo_sec[k] == dist_sec[k] for k in kept)


class TestDriverContract:
    def test_evaluate_before_setup_raises(self):
        from repro.dist.driver import DistributedFmm

        fmm = DistributedFmm()
        with pytest.raises(RuntimeError, match="setup"):
            fmm.evaluate(np.zeros(4))

    def test_bad_scheme_rejected(self):
        from repro.dist.driver import DistributedFmm

        with pytest.raises(ValueError, match="comm_scheme"):
            DistributedFmm(comm_scheme="telepathy")

    def test_wrong_density_size(self):
        pts = uniform_cube(600, seed=38)

        def fn(comm):
            from repro.dist.driver import DistributedFmm

            fmm = DistributedFmm(order=4, max_points_per_box=40)
            fmm.setup(comm, pts[comm.rank :: comm.size])
            fmm.evaluate(np.zeros(3))

        with pytest.raises(RuntimeError, match="densities size"):
            run_spmd(2, fn, timeout=120)

    def test_non_finite_points_rejected(self):
        """One NaN coordinate on one rank is a ValueError naming ``points``
        on that rank, not non-finite potentials on every rank."""
        pts = uniform_cube(400, seed=40)
        pts[7, 2] = np.nan  # rank 1's local row 3

        def fn(comm):
            fmm = DistributedFmm(order=4, max_points_per_box=40)
            fmm.setup(comm, pts[comm.rank :: comm.size])

        with pytest.raises(RuntimeError, match=r"rank 1 .*points must be finite; row 3") as err:
            run_spmd(2, fn, timeout=120)
        assert isinstance(err.value.__cause__, ValueError)

    @pytest.mark.parametrize("at", ["setup", "update_geometry"])
    def test_points_outside_unit_cube_rejected(self, at):
        """A point outside the root box on one rank is a ValueError naming
        ``points`` on that rank, at setup and at a geometry update."""
        pts = uniform_cube(400, seed=40)
        bad = pts.copy()
        bad[7, 0] = 1.25  # rank 1's local row 3

        def fn(comm):
            fmm = DistributedFmm(order=4, max_points_per_box=40)
            if at == "setup":
                fmm.setup(comm, bad[comm.rank :: comm.size])
            else:
                fmm.setup(comm, pts[comm.rank :: comm.size])
                fmm.update_geometry(bad[comm.rank :: comm.size])

        with pytest.raises(RuntimeError, match=r"rank 1 .*points must lie in .*; row 3") as err:
            run_spmd(2, fn, timeout=120)
        assert isinstance(err.value.__cause__, ValueError)

    @pytest.mark.parametrize("bad", [np.nan, 1j])
    def test_bad_densities_rejected(self, bad):
        pts = uniform_cube(400, seed=41)

        def fn(comm):
            fmm = DistributedFmm(order=4, max_points_per_box=40)
            fmm.setup(comm, pts[comm.rank :: comm.size])
            dens = np.ones(fmm.owned_points.shape[0], dtype=type(bad))
            dens[5] += bad
            fmm.evaluate(dens)

        rule = "real" if bad == 1j else "finite; row 5"
        with pytest.raises(RuntimeError, match=rf"DistributedFmm.evaluate: densities must be {rule}"):
            run_spmd(2, fn, timeout=120)

    def test_points_conserved_and_owned_once(self):
        pts = uniform_cube(1000, seed=39)
        opts, _, _ = _run_and_collect(
            pts, densfn, 4, kernel="laplace", order=4, max_points_per_box=40
        )
        assert len(opts) == len(pts)
        assert len(np.unique(opts, axis=0)) == len(np.unique(pts, axis=0))


class TestPhaseWallsPartitionTheCall:
    """Every phase is entered once and none nests in another, so a rank's
    phase walls are disjoint sub-intervals of the call that accrued them."""

    @pytest.mark.parametrize("p", [1, 2])
    def test_setup_and_evaluate(self, p):
        pts = ellipsoid_surface(3000, seed=74)  # adaptive: non-empty X-list

        def body(comm):
            prof = comm.profile

            def phase_walls():
                return sum(ev.wall_seconds for ev in prof.events.values())

            fmm = DistributedFmm(order=4, max_points_per_box=40,
                                 load_balance=True)
            t0 = time.perf_counter()
            fmm.setup(comm, pts[comm.rank :: comm.size])
            setup_wall = time.perf_counter() - t0
            in_setup = phase_walls()
            assert fmm.lists.x.total() > 0
            dens = densfn(fmm.owned_points)
            fmm.evaluate(dens)  # compiles the plan
            before = phase_walls()
            t0 = time.perf_counter()
            fmm.evaluate(dens)
            eval_wall = time.perf_counter() - t0
            return in_setup, setup_wall, phase_walls() - before, eval_wall

        res = run_spmd(p, body, timeout=560, trace=True)
        for in_setup, setup_wall, in_eval, eval_wall in res.values:
            assert in_setup <= setup_wall
            assert in_eval <= eval_wall
        for rank in range(p):
            for phase in EVAL_PHASES:
                spans = res.trace.span_events(rank=rank, phase=phase)
                assert len(spans) == 2, (rank, phase)  # one per evaluate


class TestCheckpointResume:
    def test_resume_matches_fresh_eval(self):
        """Restarting from the post-upward checkpoint is bit-identical."""
        pts = uniform_cube(1200, seed=44)

        def body(comm):
            fmm = DistributedFmm(order=4, max_points_per_box=30)
            fmm.setup(comm, pts[comm.rank :: comm.size])
            dens = densfn(fmm.owned_points)
            fresh = fmm.evaluate(dens)
            assert fmm.checkpoint_phase == "upward"
            return fresh, fmm.evaluate(dens, resume=True)

        res = run_spmd(4, body, timeout=560)
        for fresh, resumed in res.values:
            assert np.array_equal(fresh, resumed)


class TestWarmReduce:
    """Algorithm 3's masks are a property of the geometry: a warm evaluate
    reads them back and decodes no Morton key, and returns the bits of the
    first evaluate, which computed them."""

    @pytest.mark.parametrize("p, scheme", [(2, "hypercube"), (4, "hypercube"), (3, "owner")])
    def test_warm_evaluate_decodes_no_key(self, monkeypatch, p, scheme):
        import functools
        import threading
        import types

        pts = ellipsoid_surface(2000, seed=45)
        calls, lock = [], threading.Lock()
        for name, fn in list(vars(morton).items()):
            if isinstance(fn, types.FunctionType):
                def counted(*a, _fn=fn, _name=name, **k):
                    with lock:
                        calls.append(_name)
                    return _fn(*a, **k)
                monkeypatch.setattr(morton, name, functools.wraps(fn)(counted))

        def body(comm):
            fmm = DistributedFmm(order=4, max_points_per_box=30, comm_scheme=scheme)
            fmm.setup(comm, pts[comm.rank :: comm.size])
            dens = densfn(fmm.owned_points)
            first = fmm.evaluate(dens)
            comm.barrier()
            before = len(calls)
            comm.barrier()
            warm = fmm.evaluate(dens)
            comm.barrier()
            return first, warm, len(calls) - before

        res = run_spmd(p, body, timeout=560)
        for first, warm, decoded in res.values:
            assert decoded == 0
            assert np.array_equal(first, warm)


class TestOddRankCounts:
    """Algorithm 3 needs 2^d ranks (as in the paper); other sizes must
    still produce correct results via the owner-based fallback."""

    @pytest.mark.parametrize("p", [3, 5, 6])
    def test_non_power_of_two(self, p):
        pts = uniform_cube(1200, seed=71)
        kern = get_kernel("laplace")
        ref = direct_sum(kern, pts, pts, densfn(pts))
        opts, opot, _ = _run_and_collect(
            pts, densfn, p, kernel="laplace", order=4, max_points_per_box=40
        )
        pos = _match(pts, opts)
        assert np.linalg.norm(opot - ref[pos]) / np.linalg.norm(ref) < 5e-3
