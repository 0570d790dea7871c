"""Tests for the virtual GPU: device model, translation, kernels, evaluator."""

import numpy as np
import pytest

from repro.core import build_lists, build_tree
from repro.core.evaluator import FmmEvaluator
from repro.datasets import ellipsoid_surface, uniform_cube
from repro.gpu import DeviceModel, GpuFmmEvaluator, VirtualGpu
from repro.gpu.kernels import gpu_uli, pairwise_f32, pairwise_f32_batch
from repro.gpu.translate import build_leaf_stream, build_u_stream
from repro.kernels import get_kernel
from repro.util.timer import PhaseProfile


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


class TestPairwiseF32:
    def test_laplace_matches_double(self, rng):
        kern = get_kernel("laplace")
        t = rng.random((40, 3)).astype(np.float32)
        s = rng.random((30, 3)).astype(np.float32)
        d = rng.standard_normal(30).astype(np.float32)
        out = pairwise_f32(kern, t, s, d)
        ref = kern.matrix(t.astype(np.float64), s.astype(np.float64)) @ d
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 1e-5

    def test_self_interaction_skipped_by_fmax_trick(self, rng):
        kern = get_kernel("laplace")
        pts = rng.random((10, 3)).astype(np.float32)
        d = rng.standard_normal(10).astype(np.float32)
        out = pairwise_f32(kern, pts, pts, d)
        ref = kern.matrix(pts.astype(np.float64), pts.astype(np.float64)) @ d
        assert np.all(np.isfinite(out))
        assert np.linalg.norm(out - ref) / (np.linalg.norm(ref) + 1e-30) < 1e-5

    def test_nan_padding_rows_produce_zero(self, rng):
        kern = get_kernel("laplace")
        t = np.full((4, 3), np.nan, dtype=np.float32)
        s = rng.random((5, 3)).astype(np.float32)
        out = pairwise_f32(kern, t, s, np.ones(5, dtype=np.float32))
        np.testing.assert_array_equal(out, 0.0)

    def test_stokes_fallback(self, rng):
        kern = get_kernel("stokes")
        t = rng.random((6, 3)).astype(np.float32)
        s = rng.random((4, 3)).astype(np.float32)
        d = rng.standard_normal(12).astype(np.float32)
        out = pairwise_f32(kern, t, s, d)
        ref = kern.matrix(t.astype(np.float64), s.astype(np.float64)) @ d.astype(
            np.float64
        )
        assert out.shape == (18,)
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 1e-5


    def test_batched_laplace_is_the_k_reduction_bit_for_bit(self, rng):
        """The batched tile sums r^2 per component in place; the bits are
        those of the (b, m, n, 3) difference array reduced over k."""
        kern = get_kernel("laplace")
        t = rng.random((5, 7, 3)).astype(np.float32)
        t[:, 5:] = np.nan  # padding rows
        s = rng.random((5, 33, 3)).astype(np.float32)
        s[:, 0] = t[:, 0]  # self-interactions
        d = rng.standard_normal((5, 33)).astype(np.float32)
        diff = t[:, :, None, :] - s[:, None, :, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.float32(1.0) / np.sqrt(np.einsum("bmnk,bmnk->bmn", diff, diff))
            inv = np.fmax(inv + (inv - inv), np.float32(0.0))
        ref = np.float32(1.0 / (4.0 * np.pi)) * np.einsum("bmn,bn->bm", inv, d)
        np.testing.assert_array_equal(pairwise_f32_batch(kern, t, s, d), ref)


class TestTranslation:
    @pytest.fixture(scope="class")
    def built(self):
        pts = uniform_cube(2000, seed=41)
        tree = build_tree(pts, 60)
        return tree, build_lists(tree)

    def test_u_stream_padding(self, built):
        tree, lists = built
        sel = tree.is_leaf & (tree.point_counts() > 0)
        stream = build_u_stream(tree, lists, 64, sel)
        sizes = np.diff(stream.tgt_offsets)
        assert np.all(sizes % 64 == 0)
        assert stream.tgt_valid.sum() == tree.point_counts()[stream.boxes].sum()
        # padding slots are NaN
        assert np.all(np.isnan(stream.tgt_points[~stream.tgt_valid]))
        assert not np.any(np.isnan(stream.tgt_points[stream.tgt_valid]))

    def test_u_stream_sources_match_lists(self, built):
        tree, lists = built
        sel = tree.is_leaf & (tree.point_counts() > 0)
        stream = build_u_stream(tree, lists, 64, sel)
        counts = tree.point_counts()
        for j, i in enumerate(stream.boxes[:20]):
            srcs = lists.u.of(i)
            expect = counts[srcs][counts[srcs] > 0].sum()
            got = stream.src_offsets[j + 1] - stream.src_offsets[j]
            assert got == expect

    def test_streams_equal_the_per_box_layout(self, built):
        """The streams are built without per-box loops; this is the loop."""
        tree, lists = built
        counts = tree.point_counts()
        sel = tree.is_leaf & (np.arange(tree.n_nodes) % 3 != 0)
        boxes = np.flatnonzero(sel)
        tgt, valid, src, dens_idx, tgt_off, src_off = [], [], [], [], [0], [0]
        for i in boxes:
            pts = tree.leaf_points(i)
            pad = -(-len(pts) // 64) * 64
            tgt.append(np.full((pad, 3), np.nan, np.float32))
            tgt[-1][: len(pts)] = pts
            valid.append(np.arange(pad) < len(pts))
            srcs = [a for a in lists.u.of(i) if counts[a] > 0]
            src += [tree.leaf_points(a).astype(np.float32) for a in srcs]
            dens_idx += [np.arange(tree.pt_begin[a], tree.pt_end[a]) for a in srcs]
            tgt_off.append(tgt_off[-1] + pad)
            src_off.append(src_off[-1] + sum(counts[a] for a in srcs))
        u = build_u_stream(tree, lists, 64, sel)
        for got, want in ((u.boxes, boxes), (u.tgt_offsets, tgt_off),
                          (u.tgt_points, np.concatenate(tgt)),
                          (u.tgt_valid, np.concatenate(valid)),
                          (u.src_offsets, src_off),
                          (u.src_points, np.concatenate(src)),
                          (u.src_dens_index, np.concatenate(dens_idx))):
            np.testing.assert_array_equal(got, want)
        leaf = build_leaf_stream(tree, sel)
        np.testing.assert_array_equal(
            leaf.points,
            np.concatenate([tree.leaf_points(i) for i in boxes]).astype(np.float32),
        )
        np.testing.assert_array_equal(
            leaf.pt_offsets, np.concatenate(([0], np.cumsum(counts[boxes])))
        )

    def test_uli_charges_padded_rows_and_computes_real_ones(self, built):
        """Per box, the device U-list equals one tile over every padded
        target row (NaN rows give zero), and charges the padded pairs."""
        tree, lists = built
        kern = get_kernel("laplace")
        sel = tree.is_leaf & (tree.point_counts() > 0)
        stream = build_u_stream(tree, lists, 64, sel)
        dens = np.random.default_rng(3).standard_normal(tree.n_points)
        gpu = VirtualGpu(block_size=64)
        out = gpu_uli(gpu, stream, dens.astype(np.float32), kern)
        want = np.zeros_like(out)
        flops = 0.0
        for j in range(stream.n_boxes):
            t0, t1 = stream.tgt_offsets[j], stream.tgt_offsets[j + 1]
            s0, s1 = stream.src_offsets[j], stream.src_offsets[j + 1]
            spad = -(-(s1 - s0) // 64) * 64
            src = np.repeat(stream.tgt_points[t0:t0 + 1], spad, axis=0)
            src[: s1 - s0] = stream.src_points[s0:s1]
            den = np.zeros(spad, np.float32)
            den[: s1 - s0] = dens[stream.src_dens_index[s0:s1]]
            want[t0:t1] = pairwise_f32_batch(
                kern, stream.tgt_points[None, t0:t1], src[None], den[None]
            )[0]
            flops += kern.flops_per_pair * (t1 - t0) * spad
        np.testing.assert_array_equal(out, want)
        assert gpu.ledger.kernel_flops["ULI"] == pytest.approx(flops)

    def test_leaf_stream_geometry(self, built):
        tree, _ = built
        sel = tree.is_leaf & (tree.point_counts() > 0)
        stream = build_leaf_stream(tree, sel)
        np.testing.assert_allclose(
            stream.centers, tree.centers[stream.boxes], rtol=1e-6
        )
        assert stream.pt_offsets[-1] == tree.point_counts()[stream.boxes].sum()


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
        # the one-shot call above staged through a transient plan; a kept
        # plan stages the same streams
        ep = gpu.compile_plan(tree, lists)
        assert np.array_equal(p_gpu, gpu.evaluate(tree, lists, sdens, plan=ep))

    def test_stokes_gpu(self):
        pts = uniform_cube(800, seed=43)
        kern = get_kernel("stokes")
        dens = np.random.default_rng(8).standard_normal(2400)
        tree = build_tree(pts, 80)
        lists = build_lists(tree)
        sdens = dens.reshape(-1, 3)[tree.order].reshape(-1)
        p_cpu = FmmEvaluator(kern, 6).evaluate(tree, lists, sdens, PhaseProfile())
        p_gpu = GpuFmmEvaluator(kern, 6).evaluate(tree, lists, sdens, PhaseProfile())
        assert np.linalg.norm(p_gpu - p_cpu) / np.linalg.norm(p_cpu) < 5e-4

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
            true_flops = prof.events["ULI"].flops  # CPU model: exact pairs
            # re-run CPU to get true pair flops
            cpu_prof = PhaseProfile()
            FmmEvaluator(kern, 4).evaluate(
                tree, lists, np.ones(4000)[tree.order], cpu_prof
            )
            overhead[q] = (
                ev.gpu.ledger.kernel_flops["ULI"] / cpu_prof.events["ULI"].flops
            )
        assert overhead[30] > overhead[500] >= 1.0
