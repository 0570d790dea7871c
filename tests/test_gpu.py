"""Tests for the virtual GPU: device model, charge model, evaluator."""

import numpy as np
import pytest

from repro.core import build_lists, build_tree
from repro.core.evaluator import FmmEvaluator
from repro.core.lists import evaluated_lists
from repro.datasets import ellipsoid_surface, plummer_cluster, uniform_cube
from repro.dist.driver import DistributedFmm
from repro.gpu import DeviceModel, GpuFmmEvaluator, VirtualGpu
from repro.kernels import get_kernel
from repro.mpi import run_spmd
from repro.util.timer import PhaseProfile

LEDGER_FIELDS = ("kernel_flops", "kernel_gbytes", "kernel_seconds",
                 "transfer_bytes", "transfer_seconds")
class TestDeviceModel:
    def test_roofline(self):
        m = DeviceModel("d", peak_flops=1e12, mem_bandwidth=1e11,
                        pcie_bandwidth=1e9, launch_overhead=1e-5)
        # compute bound
        assert m.kernel_seconds(1e12, 1e9) == pytest.approx(1.0 + 1e-5)
        # bandwidth bound
        assert m.kernel_seconds(1e9, 1e12) == pytest.approx(10.0 + 1e-5)

    def test_transfers_charged(self):
        gpu = VirtualGpu()
        arr = gpu.to_device(np.zeros(1000, dtype=np.float64))
        assert arr.dtype == np.float32
        assert gpu.ledger.transfer_bytes["H2D"] == 4000
        back = gpu.to_host(arr)
        assert back.dtype == np.float64
        assert gpu.ledger.transfer_bytes["D2H"] == 4000

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            VirtualGpu(block_size=100)
        with pytest.raises(ValueError):
            VirtualGpu(block_size=16)


def _per_box_ledger(ev, tree, lists, plan):
    """The device ledger of one evaluate, charged from the per-box
    Algorithm-4 layout built box by box (phase VLI aside): per-leaf
    S2U/D2T point streams; per ULI leaf its targets padded to the block
    size and its whole non-empty U-list's sources packed; per-pair W/X.
    Per phase the charges run host-to-device, launch, device-to-host."""
    kern, ns, b = ev.kernel, ev.ns, ev.gpu.block_size
    ks, kt = kern.source_dim, kern.target_dim
    counts = tree.point_counts()
    gpu = VirtualGpu(ev.gpu.model, b)

    def nodes(section, attr):
        return sorted({int(i) for blk in section for i in getattr(blk, attr)})

    def pts(i):
        return tree.leaf_points(i).astype(np.float32)

    for phase, section in (("S2U", plan.s2u), ("D2T", plan.d2t)):
        leaves = [pts(i) for i in nodes(section, "group")]
        eq = np.zeros((len(leaves), ns * ks), np.float32)  # up / down densities
        if phase == "S2U":
            den = [np.zeros(len(p) * ks, np.float32) for p in leaves]
            gpu.to_device(np.concatenate(den + [np.zeros(0)]), phase)
            flops = sum(kern.pair_flops(ns, len(p)) + 2.0 * (ns * ks) * (ns * kt)
                        for p in leaves)
            gbytes = sum(p.nbytes + d.nbytes for p, d in zip(leaves, den)) + eq.nbytes
            gpu.charge_launch(phase, flops, gbytes)
            gpu.to_host(eq, phase)
        else:
            gpu.to_device(eq, phase)
            out = [np.zeros(len(p) * kt, np.float32) for p in leaves]
            flops = sum(kern.pair_flops(len(p), ns) for p in leaves)
            gbytes = sum(p.nbytes + o.nbytes for p, o in zip(leaves, out)) + eq.nbytes
            gpu.charge_launch(phase, flops, gbytes)
            gpu.to_host(np.concatenate(out + [np.zeros(0, np.float32)]), phase)

    if ev.accelerate_wx:
        # a direct W/X pair (evaluated point to point in ULI) charges its
        # point pairs to the launch of the list it came from
        split = evaluated_lists(tree, lists, ns)
        direct = {"WLI": 0.0, "XLI": 0.0}
        for i in nodes(plan.uli, "boxes"):
            for phase, full, kept in (("WLI", lists.w, split.w), ("XLI", lists.x, split.x)):
                for a in np.setdiff1d(full.of(i), kept.of(i)):
                    direct[phase] += kern.pair_flops(counts[i], counts[a])
        kept = {(int(r), int(c)) for blk in plan.wli for r, c in zip(blk.rows, blk.cols)}
        flops, gbytes = direct["WLI"], 0.0
        for i in sorted({r for r, _ in kept}):
            row = np.zeros(counts[i] * kt, np.float32)
            for a in lists.w.of(i):
                if (i, int(a)) in kept:
                    flops += kern.pair_flops(counts[i], ns)
                    gbytes += np.zeros(ns * ks, np.float32).nbytes  # up density
            gbytes += pts(i).nbytes + row.nbytes
        gpu.charge_launch("WLI", flops, gbytes)
        flops, gbytes = direct["XLI"], 0.0
        for i in nodes(plan.xli, "seg"):
            for a in lists.x.of(i):
                if counts[a]:
                    flops += kern.pair_flops(ns, counts[a])
                    gbytes += pts(a).nbytes + np.zeros(counts[a] * ks, np.float32).nbytes
            gbytes += np.zeros(ns * kt, np.float32).nbytes  # check potentials
        gpu.charge_launch("XLI", flops, gbytes)

    gpu.to_device(np.zeros(tree.n_points * ks), "ULI")
    flops = gbytes = 0.0
    rows = 0
    for i in nodes(plan.uli, "boxes"):
        tgt = np.full((-(-counts[i] // b) * b, 3), np.nan, np.float32)
        tgt[: counts[i]] = pts(i)
        src = np.concatenate([pts(a) for a in lists.u.of(i) if counts[a]])
        flops += kern.flops_per_pair * len(tgt) * (-(-len(src) // b) * b)
        gbytes += len(tgt) // b * (len(src) * 16.0) + len(tgt) * (12.0 + 4.0 * kt)
        rows += len(tgt)
    gpu.charge_launch("ULI", flops, gbytes)
    gpu.to_host(np.zeros(rows * kt, np.float32), "ULI")
    return gpu.ledger


def _assert_ledgers_equal(got, want):
    for f in LEDGER_FIELDS:
        mine = {k: v for k, v in getattr(got, f).items() if k != "VLI"}
        assert mine == getattr(want, f), f


def _scoped_runs(comm, pts, kname, order, block):
    fmm = DistributedFmm(kname, order=order, max_points_per_box=40,
                         gpu=VirtualGpu(block_size=block), gpu_wx=True)
    fmm.setup(comm, pts[comm.rank :: comm.size])
    fmm.evaluate(np.cos(3.0 * fmm.owned_points[:, 0]).repeat(fmm.kernel.source_dim))
    return fmm.let.tree, fmm.lists, fmm._plan, fmm.evaluator


class TestTranslation:
    """The tree -> device translation is now a charge model over the
    plan's blocks: the ledger must read what the per-box layout charged."""

    def test_uli_charges_padded_rows_and_computes_real_ones(self):
        """Every ledger field equals the per-box Algorithm-4 layout's, for
        Laplace and Stokes at two block sizes, on a solo plan and on each
        rank's scoped plan at p = 2; the solo potentials are the CPU's to
        single precision."""
        for kname, n, order in (("laplace", 1500, 4), ("stokes", 600, 4)):
            kern = get_kernel(kname)
            pts = plummer_cluster(n, seed=5)
            tree = build_tree(pts, 40)
            lists = build_lists(tree)
            dens = np.random.default_rng(3).standard_normal(n * kern.source_dim)
            cpu = FmmEvaluator(kern, order).evaluate(tree, lists, dens)
            for block in (64, 256):
                ev = GpuFmmEvaluator(kern, order, gpu=VirtualGpu(block_size=block),
                                     accelerate_wx=True)
                plan = ev.compile_plan(tree, lists)
                assert plan.wli and plan.xli  # every device phase has work
                pot = ev.evaluate(tree, lists, dens, plan=plan)
                assert np.linalg.norm(pot - cpu) / np.linalg.norm(cpu) < 5e-4
                _assert_ledgers_equal(ev.gpu.ledger, _per_box_ledger(ev, tree, lists, plan))
                for let_tree, let_lists, let_plan, rank_ev in run_spmd(
                    2, _scoped_runs, pts, kname, order, block, timeout=300
                ).values:
                    assert let_plan.scoped
                    _assert_ledgers_equal(
                        rank_ev.gpu.ledger,
                        _per_box_ledger(rank_ev, let_tree, let_lists, let_plan),
                    )


class TestGpuEvaluator:
    @pytest.mark.parametrize("dist", ["uniform", "ellipsoid"])
    def test_matches_cpu_single_precision(self, dist):
        maker = {"uniform": uniform_cube, "ellipsoid": ellipsoid_surface}[dist]
        pts = maker(2000, seed=42)
        kern = get_kernel("laplace")
        dens = np.random.default_rng(7).standard_normal(2000)
        tree = build_tree(pts, 60)
        lists = build_lists(tree)
        sdens = dens[tree.order]
        p_cpu = FmmEvaluator(kern, 6).evaluate(tree, lists, sdens, PhaseProfile())
        gpu = GpuFmmEvaluator(kern, 6)
        p_gpu = gpu.evaluate(tree, lists, sdens, PhaseProfile())
        assert np.linalg.norm(p_gpu - p_cpu) / np.linalg.norm(p_cpu) < 5e-4
        # the one-shot call above ran on a transient plan; a kept plan has
        # the same blocks
        ep = gpu.compile_plan(tree, lists)
        assert np.array_equal(p_gpu, gpu.evaluate(tree, lists, sdens, plan=ep))

    def test_stokes_gpu(self):
        """Stokes on the device at orders 4 and 6, on the uniform cloud and
        on the q = 40 Plummer / uniform clouds whose order-4 device S2U
        once read deviations of 0.5-0.9."""
        kern = get_kernel("stokes")
        clouds = ((uniform_cube(800, seed=43), 80), (plummer_cluster(600, seed=5), 40),
                  (uniform_cube(800, seed=43), 40))
        for order in (4, 6):
            for pts, q in clouds:
                dens = np.random.default_rng(8).standard_normal(3 * len(pts))
                tree = build_tree(pts, q)
                lists = build_lists(tree)
                sdens = dens.reshape(-1, 3)[tree.order].reshape(-1)
                p_cpu = FmmEvaluator(kern, order).evaluate(tree, lists, sdens, PhaseProfile())
                p_gpu = GpuFmmEvaluator(kern, order).evaluate(tree, lists, sdens, PhaseProfile())
                assert np.linalg.norm(p_gpu - p_cpu) / np.linalg.norm(p_cpu) < 5e-4, (order, q)

    @pytest.mark.parametrize("wx", [False, True])
    @pytest.mark.parametrize("kname,geom,n,q,order", [
        ("laplace", "plummer", 3000, 40, 4),
        ("laplace", "uniform", 2000, 60, 6),
        ("stokes", "uniform", 800, 40, 4),
    ])
    def test_fp32_device_is_the_fp32_plan(self, kname, geom, n, q, order, wx):
        """The device phases are the fp32 plan's applies: an fp32 GPU
        evaluate is the fp32 CPU evaluate bit for bit, for one density and
        a q = 3 block, while the ledger charges every device phase."""
        kern = get_kernel(kname)
        maker = {"uniform": lambda: uniform_cube(n, seed=42),
                 "plummer": lambda: plummer_cluster(n, seed=4)}[geom]
        tree = build_tree(maker(), q)
        lists = build_lists(tree)
        rng = np.random.default_rng(12)
        for shape in ((n * kern.source_dim,), (n * kern.source_dim, 3)):
            dens = rng.standard_normal(shape)
            cpu = FmmEvaluator(kern, order, precision="fp32").evaluate(tree, lists, dens)
            ev = GpuFmmEvaluator(kern, order, accelerate_wx=wx, precision="fp32")
            plan = ev.compile_plan(tree, lists)
            np.testing.assert_array_equal(ev.evaluate(tree, lists, dens, plan=plan), cpu)
            assert not ev.gpu.failed
            sections = {"S2U": plan.s2u, "VLI": plan.vli_fft, "D2T": plan.d2t, "ULI": plan.uli}
            if wx:
                sections.update(WLI=plan.wli, XLI=plan.xli)
            for ph, section in sections.items():
                assert ev.gpu.ledger.launches[ph] > 0, ph
                assert (ev.gpu.ledger.kernel_flops[ph] > 0) == bool(section), ph

    @pytest.mark.parametrize("wx", [False, True])
    def test_separate_targets(self, wx):
        """``evaluate_targets`` on the device: the target plan's D2T, ULI
        (and, with ``accelerate_wx``, WLI) run as the fp32 device phases,
        within the float32 floor of the direct sum at the targets."""
        from repro.kernels import direct_sum

        src, tgt = plummer_cluster(1500, seed=9), uniform_cube(400, seed=10)
        kern = get_kernel("laplace")
        dens = np.random.default_rng(11).standard_normal(1500)
        tree = build_tree(src, 40)
        gpu = GpuFmmEvaluator(kern, 6, accelerate_wx=wx)
        out = gpu.evaluate_targets(tree, build_lists(tree), dens[tree.order], tgt)
        ref = direct_sum(kern, tgt, src, dens)
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 5e-5  # F32_FLOOR
        for ph in ("D2T", "ULI") + (("WLI",) if wx else ()):
            assert gpu.gpu.ledger.kernel_flops[ph] > 0, ph

    def test_ledger_has_all_accelerated_phases(self):
        pts = uniform_cube(1500, seed=44)
        kern = get_kernel("laplace")
        tree = build_tree(pts, 50)
        lists = build_lists(tree)
        ev = GpuFmmEvaluator(kern, 6)
        ev.evaluate(tree, lists, np.ones(1500)[tree.order], PhaseProfile())
        led = ev.gpu.ledger
        for ph in ("S2U", "VLI", "D2T", "ULI"):
            assert led.phase_seconds(ph) > 0, ph
            assert led.kernel_flops.get(ph, 0) > 0 or ph == "VLI"

    @pytest.mark.parametrize(
        "kernel,order,n,q,want",
        [("laplace", 6, 2000, 50, (24966144.0, 52480512.0, 1032192.0)),
         ("stokes", 4, 1200, 40, (71331840.0, 54835200.0, 983040.0))],
    )
    def test_vlist_ledger_charges_the_paper_grid(self, kernel, order, n, q, want):
        """The device ledger charges the V-list on the paper's ``(2p)^3``
        grid, not on the smaller grid the host transforms: on a uniform
        cloud with no empty box, flops, bytes and transfers are the totals
        the ``(2p)^3`` implementation charged."""
        kern = get_kernel(kernel)
        tree = build_tree(uniform_cube(n, seed=47), q)
        lists = build_lists(tree)
        ev = GpuFmmEvaluator(kern, order)
        assert ev.fft.n == 2 * order - 1
        ev.evaluate(tree, lists, np.ones(n * kern.source_dim), PhaseProfile(),
                    plan=ev.compile_plan(tree, lists))
        led = ev.gpu.ledger
        got = (led.kernel_flops["VLI"], led.kernel_gbytes["VLI"], led.transfer_bytes["VLI"])
        assert got == want

    def test_translation_cost_is_minor(self):
        """The paper's claim: data-structure translation cost is minor."""
        pts = uniform_cube(3000, seed=45)
        kern = get_kernel("laplace")
        tree = build_tree(pts, 100)
        lists = build_lists(tree)
        prof = PhaseProfile()
        ev = GpuFmmEvaluator(kern, 6)
        ev.evaluate(tree, lists, np.ones(3000)[tree.order], prof)
        total_wall = sum(e.wall_seconds for e in prof.events.values())
        assert prof.events["translate"].wall_seconds < 0.5 * total_wall

    def test_padding_overhead_shrinks_with_q(self):
        """Small boxes waste more padded device work (Table III driver)."""
        pts = uniform_cube(4000, seed=46)
        kern = get_kernel("laplace")
        overhead = {}
        for q in (30, 500):
            tree = build_tree(pts, q)
            lists = build_lists(tree)
            ev = GpuFmmEvaluator(kern, 4)
            prof = PhaseProfile()
            ev.evaluate(tree, lists, np.ones(4000)[tree.order], prof)
            # the CPU charges the exact pairs
            cpu_prof = PhaseProfile()
            FmmEvaluator(kern, 4).evaluate(
                tree, lists, np.ones(4000)[tree.order], cpu_prof
            )
            overhead[q] = (
                ev.gpu.ledger.kernel_flops["ULI"] / cpu_prof.events["ULI"].flops
            )
        assert overhead[30] > overhead[500] >= 1.0


def _block_vs_columns(kern, pts, order, wx):
    """``(block potentials, stacked single potentials, block ledger,
    per-column ledger)`` for a q = 3 density block on one compiled plan."""
    tree = build_tree(pts, 40)
    lists = build_lists(tree)
    dens = np.random.default_rng(11).standard_normal((len(pts) * kern.source_dim, 3))
    blk_ev, col_ev = (GpuFmmEvaluator(kern, order, accelerate_wx=wx) for _ in range(2))
    plan = blk_ev.compile_plan(tree, lists)
    block = blk_ev.evaluate(tree, lists, dens, plan=plan)
    cols = np.stack([col_ev.evaluate(tree, lists, np.ascontiguousarray(dens[:, j]), plan=plan)
                     for j in range(3)], axis=1)
    return block, cols, blk_ev.gpu.ledger, col_ev.gpu.ledger


class TestMultiRhs:
    @pytest.mark.parametrize("wx", [False, True])
    @pytest.mark.parametrize("kname,n,order", [("laplace", 1200, 4), ("stokes", 500, 4)])
    def test_block_is_the_per_column_loop(self, kname, n, order, wx):
        """Each device phase runs its one-column body per column of the
        block: the potentials are the single evaluates' stacked, bit for
        bit, and the ledger is what one evaluate per column charges."""
        block, cols, got, want = _block_vs_columns(
            get_kernel(kname), plummer_cluster(n, seed=8), order, wx)
        assert block.shape == cols.shape
        np.testing.assert_array_equal(block, cols)
        for f in LEDGER_FIELDS + ("launches",):
            assert getattr(got, f) == getattr(want, f), f


_HOSTILE = {
    "n0": lambda rng: np.zeros((0, 3)),
    "n1": lambda rng: rng.random((1, 3)),
    "n2": lambda rng: rng.random((2, 3)),
    "one_leaf": lambda rng: 0.3 + 0.01 * rng.random((30, 3)),
    "repeated_x3": lambda rng: np.repeat(rng.random((150, 3)), 3, axis=0),
}


class TestHostileInputs:
    """Plan sections the device meets empty, and degenerate clouds."""

    @pytest.mark.parametrize("wx", [False, True])
    @pytest.mark.parametrize("case", sorted(_HOSTILE))
    def test_device_path_on_degenerate_clouds(self, case, wx):
        rng = np.random.default_rng(13)
        pts = _HOSTILE[case](rng)
        kern = get_kernel("laplace")
        tree = build_tree(pts, 40)
        lists = build_lists(tree)
        n = len(pts)
        for dens in (rng.standard_normal(n), rng.standard_normal((n, 2))):
            cpu = FmmEvaluator(kern, 4).evaluate(tree, lists, dens)
            ev = GpuFmmEvaluator(kern, 4, accelerate_wx=wx)
            plan = ev.compile_plan(tree, lists)
            pot = ev.evaluate(tree, lists, dens, plan=plan)
            assert pot.shape == cpu.shape
            assert np.all(np.isfinite(pot))
            assert np.linalg.norm(pot - cpu) <= 5e-4 * np.linalg.norm(cpu)
            led = ev.gpu.ledger
            sections = {"S2U": plan.s2u, "D2T": plan.d2t, "ULI": plan.uli}
            if wx:
                sections.update(WLI=plan.wli, XLI=plan.xli)
            for phase, section in sections.items():
                if not section:  # an empty section charges no work but its direct pairs'
                    assert led.kernel_gbytes[phase] == 0.0
                    assert led.kernel_flops[phase] == plan.direct_flops.get(phase, 0.0) * (
                        1 if dens.ndim == 1 else dens.shape[1])
                    assert led.transfer_bytes.get(phase, 0.0) == (
                        n * kern.source_dim * 4 if phase == "ULI" else 0.0)
            # a device fault falls back to the CPU bit for bit
            dead = GpuFmmEvaluator(kern, 4, accelerate_wx=wx)
            dead.gpu.arm_fault("*")
            np.testing.assert_array_equal(dead.evaluate(tree, lists, dens), cpu)
