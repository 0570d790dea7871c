"""Tests for the paper's future-work items modelled as extensions:
GPU-accelerated sorting and communication/computation overlap."""

import numpy as np
import pytest

from repro.datasets import uniform_cube
from repro.dist.driver import distributed_fmm_rank
from repro.gpu import VirtualGpu
from repro.gpu.sort import RADIX_BITS
from repro.mpi import KRAKEN, run_spmd
from repro.perf.model import overlapped_eval_seconds


class TestGpuSort:
    def test_faster_than_modeled_cpu_sort(self):
        """The motivation: device sort beats one CPU core on bandwidth."""
        gpu = VirtualGpu()
        n = 1_000_000
        passes = -(-64 // RADIX_BITS)
        dev_seconds = gpu.model.kernel_seconds(
            passes * n * 4.0, passes * n * 20.0
        ) + gpu.model.transfer_seconds(n * 16.0)
        cpu_seconds = KRAKEN.compute_seconds(4.0 * n * np.log2(n))
        assert dev_seconds < cpu_seconds


class TestOverlapModel:
    def test_overlap_never_exceeds_sequential(self):
        pts = uniform_cube(1500, seed=41)

        def dens(p):
            return np.sin(5 * p[:, 0])

        res = run_spmd(
            4,
            distributed_fmm_rank,
            pts,
            dens,
            kernel="laplace",
            order=4,
            max_points_per_box=40,
            timeout=300,
        )
        ovl, seq = overlapped_eval_seconds(res.profiles, KRAKEN)
        assert 0.0 < ovl <= seq

    def test_pure_compute_profile_unchanged(self):
        from repro.util.timer import PhaseProfile

        prof = PhaseProfile()
        for ph in ("S2U", "VLI", "ULI"):
            prof.add_flops(1e9, phase=ph)
        ovl, seq = overlapped_eval_seconds([prof], KRAKEN)
        assert ovl == pytest.approx(seq)

    def test_comm_hides_behind_compute(self):
        from repro.util.timer import PhaseProfile

        prof = PhaseProfile()
        prof.add_flops(5e8, phase="S2U")  # 1 s at Kraken
        prof.add_message(100, 0.4, phase="COMM_exchange")  # hideable
        ovl, seq = overlapped_eval_seconds([prof], KRAKEN)
        assert seq == pytest.approx(1.4)
        assert ovl == pytest.approx(1.0)
