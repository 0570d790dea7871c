"""Tests for gradient (force) evaluation via the dual-kernel path."""

import numpy as np
import pytest

from repro.core import Fmm
from repro.core.evaluator import FmmEvaluator
from repro.datasets import plummer_cluster, uniform_cube
from repro.kernels import get_kernel
from repro.kernels.gradients import LaplaceGradientKernel


class TestGradientKernel:
    def test_matches_finite_difference(self, rng):
        k = get_kernel("laplace")
        gk = LaplaceGradientKernel()
        x = np.array([[0.3, 0.4, 0.5]])
        y = rng.random((6, 3))
        dens = rng.standard_normal(6)
        h = 1e-6
        grad_fd = np.empty(3)
        for a in range(3):
            xp, xm = x.copy(), x.copy()
            xp[0, a] += h
            xm[0, a] -= h
            grad_fd[a] = (
                (k.matrix(xp, y) - k.matrix(xm, y)) @ dens / (2 * h)
            )[0]
        grad = gk.matrix(x, y) @ dens
        np.testing.assert_allclose(grad, grad_fd, rtol=1e-5)

    def test_homogeneity_degree(self, rng):
        gk = LaplaceGradientKernel()
        t, s = rng.random((4, 3)), rng.random((5, 3))
        np.testing.assert_allclose(
            gk.matrix(2 * t, 2 * s), 0.25 * gk.matrix(t, s)
        )

    def test_batch_matches_loop(self, rng):
        """Bitwise, on slots large enough that the driver splits their rows
        (the broadcast oracle for this kernel is in test_kernels.py)."""
        t = rng.random((3, 70, 3))
        s = rng.random((3, 500, 3))
        s[:, :70][:, ::3] = t[:, ::3]  # coincident pairs
        for gk in (LaplaceGradientKernel(), LaplaceGradientKernel(softening=0.05)):
            batched = gk.matrix_batch(t, s)
            for i in range(3):
                assert batched[i].tobytes() == gk.matrix(t[i], s[i]).tobytes()


class TestGradientFmm:
    def test_field_matches_direct(self):
        pts = uniform_cube(1200, seed=5)
        dens = np.random.default_rng(0).standard_normal(1200)
        fmm = Fmm("laplace", order=6, max_points_per_box=40,
                  eval_kernel=LaplaceGradientKernel())
        g = fmm.evaluate(pts, dens)
        ref = LaplaceGradientKernel().apply(pts, pts, dens)
        assert np.linalg.norm(g - ref) / np.linalg.norm(ref) < 5e-4
        assert g.shape == (3600,)

    def test_clustered_distribution(self):
        pts = plummer_cluster(1000, seed=6)
        dens = np.abs(np.random.default_rng(1).standard_normal(1000))
        fmm = Fmm("laplace", order=6, max_points_per_box=30,
                  eval_kernel=LaplaceGradientKernel())
        g = fmm.evaluate(pts, dens)
        ref = LaplaceGradientKernel().apply(pts, pts, dens)
        assert np.linalg.norm(g - ref) / np.linalg.norm(ref) < 5e-4

    def test_gradient_at_separate_targets(self):
        src = uniform_cube(800, seed=7)
        tgt = uniform_cube(150, seed=8)
        dens = np.random.default_rng(2).standard_normal(800)
        fmm = Fmm("laplace", order=6, max_points_per_box=40,
                  eval_kernel=LaplaceGradientKernel())
        g = fmm.evaluate_targets(src, dens, tgt)
        ref = LaplaceGradientKernel().apply(tgt, src, dens)
        assert np.linalg.norm(g - ref) / np.linalg.norm(ref) < 5e-4

    def test_source_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="source_dim"):
            FmmEvaluator(
                get_kernel("stokes"), 4, eval_kernel=LaplaceGradientKernel()
            )

    def test_newton_third_law(self):
        """Total momentum change of equal-mass pairs ~ 0 (forces cancel)."""
        pts = uniform_cube(600, seed=9)
        mass = np.full(600, 1.0 / 600)
        fmm = Fmm("laplace", order=8, max_points_per_box=40,
                  eval_kernel=LaplaceGradientKernel())
        g = fmm.evaluate(pts, mass).reshape(-1, 3)
        force = -mass[:, None] * g  # attraction
        total = np.abs(force.sum(axis=0)).max()
        scale = np.abs(force).max()
        assert total < 1e-4 * scale * 600
