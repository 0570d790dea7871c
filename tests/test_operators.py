"""Tests for surfaces, operator construction and homogeneity scaling."""

import numpy as np
import pytest

from repro.core import surfaces
from repro.core.operators import (
    OperatorCache,
    child_center_offset,
    level_half_width,
    regularized_pinv,
)
from repro.kernels import get_kernel


class TestSurfaces:
    @pytest.mark.parametrize("p", [4, 6, 8, 10])
    def test_point_count(self, p):
        assert surfaces.n_surface_points(p) == 6 * (p - 1) ** 2 + 2
        assert len(surfaces.surface_lattice(p)) == surfaces.n_surface_points(p)

    def test_min_order_enforced(self):
        with pytest.raises(ValueError):
            surfaces.surface_lattice(3)
        with pytest.raises(ValueError):
            surfaces.inner_scale(2)

    def test_grid_indices_unique(self):
        ijk = surfaces.surface_lattice(6)
        assert len(np.unique(ijk, axis=0)) == len(ijk)
        assert ijk.min() >= 0 and ijk.max() < 6

    def test_lattice_on_boundary_only(self):
        ijk = surfaces.surface_lattice(6)
        on = (ijk == 0) | (ijk == 5)
        assert np.all(on.any(axis=1))

    def test_points_scale_and_center(self):
        c = np.array([0.3, 0.4, 0.5])
        pts = surfaces.surface_points(6, c, 0.1, 2.95)
        assert np.allclose(np.max(np.abs(pts - c)), 0.295)
        assert np.all(np.max(np.abs(pts - c), axis=1) >= 0.295 - 1e-12)

    def test_inner_scale_lattice_compatibility(self):
        """Surface spacing h = 2r/(p-2) must divide the box side 2r."""
        for p in (4, 6, 8):
            a = surfaces.inner_scale(p)
            spacing = 2.0 * a / (p - 1)  # in units of half-width r
            assert abs(round(2.0 / spacing) - 2.0 / spacing) < 1e-12


class TestPinv:
    def test_pinv_of_well_conditioned(self, rng):
        m = rng.random((10, 10)) + 10 * np.eye(10)
        p = regularized_pinv(m, 1e-12)
        np.testing.assert_allclose(p @ m, np.eye(10), atol=1e-8)

    def test_pinv_truncates(self):
        m = np.diag([1.0, 1e-3, 1e-12])
        p = regularized_pinv(m, 1e-6)
        assert p[2, 2] == 0.0
        assert p[1, 1] == pytest.approx(1e3)


class TestChildOffsets:
    def test_all_offsets_distinct(self):
        offs = {tuple(child_center_offset(k, 0.25)) for k in range(8)}
        assert len(offs) == 8
        for o in offs:
            assert set(np.abs(o)) == {0.25}

    def test_morton_bit_convention(self):
        # bit 2 = x, bit 1 = y, bit 0 = z
        np.testing.assert_allclose(child_center_offset(4, 1.0), [1, -1, -1])
        np.testing.assert_allclose(child_center_offset(1, 1.0), [-1, -1, 1])


@pytest.mark.parametrize("kname", ["laplace", "stokes", "yukawa"])
class TestOperatorAccuracy:
    """Each translation operator reproduces far fields of random sources."""

    def setup_ops(self, kname, order=6):
        kern = get_kernel(kname)
        return kern, OperatorCache(kern, order)

    def test_s2m_far_field(self, kname, rng):
        kern, ops = self.setup_ops(kname)
        lvl, r = 3, level_half_width(3)
        src = (rng.random((30, 3)) - 0.5) * 2 * r
        s = rng.standard_normal(30 * kern.source_dim)
        u = ops.uc2ue(lvl) @ (kern.matrix(ops.uc_points(lvl), src) @ s)
        far = np.array([[6 * r, r, 0.0], [0.0, -8 * r, 2 * r]])
        approx = kern.matrix(far, ops.ue_points(lvl)) @ u
        exact = kern.matrix(far, src) @ s
        assert np.linalg.norm(approx - exact) / np.linalg.norm(exact) < 1e-3

    def test_m2m_preserves_far_field(self, kname, rng):
        kern, ops = self.setup_ops(kname)
        child_lvl = 4
        rc = level_half_width(child_lvl)
        for pos in (0, 7):
            off = child_center_offset(pos, rc)
            src = (rng.random((25, 3)) - 0.5) * 2 * rc + off
            s = rng.standard_normal(25 * kern.source_dim)
            u_c = ops.uc2ue(child_lvl) @ (
                kern.matrix(ops.uc_points(child_lvl, off), src) @ s
            )
            u_p = ops.m2m(child_lvl, pos) @ u_c
            far = np.array([[10 * rc, -3 * rc, 5 * rc]])
            approx = kern.matrix(far, ops.ue_points(child_lvl - 1)) @ u_p
            exact = kern.matrix(far, src) @ s
            assert np.linalg.norm(approx - exact) / np.linalg.norm(exact) < 1e-3

    def test_m2l_l2t_chain(self, kname, rng):
        kern, ops = self.setup_ops(kname)
        lvl, r = 3, level_half_width(3)
        side = 2 * r
        src = (rng.random((30, 3)) - 0.5) * 2 * r
        s = rng.standard_normal(30 * kern.source_dim)
        u = ops.uc2ue(lvl) @ (kern.matrix(ops.uc_points(lvl), src) @ s)
        for off in [(3, 0, 0), (2, -2, 1), (-3, 3, -3)]:
            tgt_c = side * np.asarray(off, dtype=float)
            d = ops.dc2de(lvl) @ (ops.m2l_dense(lvl, off) @ u)
            tgt = (rng.random((15, 3)) - 0.5) * 1.8 * r + tgt_c
            approx = kern.matrix(tgt, ops.de_points(lvl, tgt_c)) @ d
            exact = kern.matrix(tgt, src) @ s
            assert np.linalg.norm(approx - exact) / np.linalg.norm(exact) < 2e-3

    def test_l2l_chain(self, kname, rng):
        """Parent downward density propagates to children accurately."""
        kern, ops = self.setup_ops(kname)
        plvl = 3
        rp = level_half_width(plvl)
        # far sources relative to the parent box at the origin
        src = rng.random((30, 3)) * rp + np.array([8 * rp, 8 * rp, 8 * rp])
        s = rng.standard_normal(30 * kern.source_dim)
        # parent downward density via its check surface
        q = kern.matrix(ops.dc_points(plvl), src) @ s
        d_p = ops.dc2de(plvl) @ q
        clvl = plvl + 1
        pos = 6
        off = child_center_offset(pos, level_half_width(clvl))
        q_c = ops.l2l(clvl, pos) @ d_p
        d_c = ops.dc2de(clvl) @ q_c
        tgt = (rng.random((10, 3)) - 0.5) * 1.5 * level_half_width(clvl) + off
        approx = kern.matrix(tgt, ops.de_points(clvl, off)) @ d_c
        exact = kern.matrix(tgt, src) @ s
        assert np.linalg.norm(approx - exact) / np.linalg.norm(exact) < 1e-3


class TestHomogeneityScaling:
    """Cached-and-scaled operators equal directly computed ones."""

    @pytest.mark.parametrize("kname", ["laplace", "stokes"])
    def test_scaled_equals_direct(self, kname):
        kern = get_kernel(kname)
        for lvl in (1, 4, 7):
            cached = OperatorCache(kern, 4)
            # compare against a cache tricked into computing literally
            literal = OperatorCache(kern, 4)
            literal.kernel = kern
            k_direct = kern.matrix(
                literal.uc_points(lvl), literal.ue_points(lvl)
            )
            from repro.core.operators import regularized_pinv

            p_direct = regularized_pinv(k_direct, cached.kernel.default_rcond)
            np.testing.assert_allclose(
                cached.uc2ue(lvl), p_direct, rtol=1e-10, atol=1e-30
            )

    def test_m2m_level_independent_for_homogeneous(self):
        kern = get_kernel("laplace")
        ops = OperatorCache(kern, 4)
        np.testing.assert_allclose(ops.m2m(2, 3), ops.m2m(6, 3))

    def test_yukawa_levels_differ(self):
        kern = get_kernel("yukawa", lam=5.0)
        ops = OperatorCache(kern, 4)
        a, b = ops.m2m(2, 3), ops.m2m(5, 3)
        assert not np.allclose(a, b)


class TestAmbientBlasWidth:
    """Operator bytes must not depend on the BLAS width at first use."""

    @pytest.mark.parametrize("kname", ["stokes", "laplace"])
    def test_operators_equal_pinned_and_unpinned(self, kname):
        from repro.util.blas import (
            blas_controller,
            blas_thread_count,
            limit_blas_threads,
        )

        if blas_controller() is None:
            pytest.skip("no controllable BLAS library resolved")
        if blas_thread_count() < 2:
            pytest.skip("ambient BLAS is single-threaded: nothing to compare")

        def build(ops):
            return [ops.uc2ue(2), ops.dc2de(2)] + [ops.m2m(2, k) for k in range(8)]

        kern = get_kernel(kname)
        with limit_blas_threads(1):
            pinned = build(OperatorCache(kern, 6))
        ambient = build(OperatorCache(kern, 6))
        for a, b in zip(pinned, ambient):
            assert a.tobytes() == b.tobytes()


class TestOneSvdForDualSurfaces:
    """DC is UE and DE is UC, so a transpose-symmetric kernel's ``dc2de``
    is ``uc2ue``'s transpose; any other kernel runs its own SVD."""

    @pytest.mark.parametrize(
        "kname, kwargs, order, level",
        [("laplace", {}, 6, 2), ("laplace", {}, 4, 2), ("stokes", {}, 6, 2),
         ("yukawa", {"lam": 5.0}, 4, 3), ("laplace", {"softening": 1e-3}, 4, 3)],
    )
    def test_dc2de_is_uc2ue_transposed(self, kname, kwargs, order, level):
        kern = get_kernel(kname, **kwargs)
        assert kern.transpose_symmetric
        ops = OperatorCache(kern, order)
        got = ops.dc2de(level)
        assert got.flags.c_contiguous
        assert np.array_equal(got, ops.uc2ue(level).T)
        direct = regularized_pinv(
            kern.matrix(ops.dc_points(level), ops.de_points(level)), kern.default_rcond
        )
        assert np.abs(got - direct).max() <= 1e-8 * np.abs(direct).max()

    def test_undeclared_kernel_runs_the_second_svd(self, monkeypatch, undeclared_laplace):
        import repro.core.operators as operators

        calls = []

        def counted(mat, rcond):
            calls.append(mat.shape)
            return regularized_pinv(mat, rcond)

        monkeypatch.setattr(operators, "regularized_pinv", counted)
        ops = OperatorCache(undeclared_laplace, 4)
        ops.uc2ue(2), ops.dc2de(2)
        assert len(calls) == 2
        ref = OperatorCache(get_kernel("laplace"), 4)
        ref.uc2ue(2), ref.dc2de(2)
        assert len(calls) == 3  # the declared kernel's one SVD
