"""Tests for interaction kernels and the direct-summation baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    LaplaceGradientKernel,
    LaplaceKernel,
    NavierKernel,
    StokesKernel,
    YukawaKernel,
    direct_flops,
    direct_sum,
    get_kernel,
)
from repro.util.timer import PhaseProfile

finite_pts = st.lists(
    st.tuples(*[st.floats(0.01, 0.99) for _ in range(3)]), min_size=2, max_size=6
).map(lambda rows: np.asarray(rows, dtype=float))


class TestRegistry:
    def test_lookup(self):
        assert isinstance(get_kernel("laplace"), LaplaceKernel)
        assert isinstance(get_kernel("Stokes"), StokesKernel)
        assert isinstance(get_kernel("yukawa", lam=3.0), YukawaKernel)

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            get_kernel("helmholtz")


class TestLaplace:
    def test_pointwise_value(self):
        k = LaplaceKernel()
        t = np.array([[0.0, 0.0, 0.0]])
        s = np.array([[0.0, 0.0, 2.0]])
        np.testing.assert_allclose(k.matrix(t, s), 1.0 / (8.0 * np.pi))

    def test_self_interaction_zero(self, rng):
        pts = rng.random((10, 3))
        m = LaplaceKernel().matrix(pts, pts)
        np.testing.assert_array_equal(np.diag(m), 0.0)
        assert np.all(np.isfinite(m))

    @given(finite_pts)
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, pts):
        m = LaplaceKernel().matrix(pts, pts)
        np.testing.assert_allclose(m, m.T)

    def test_homogeneity_declared_correctly(self, rng):
        k = LaplaceKernel()
        t, s = rng.random((4, 3)), rng.random((5, 3))
        lam = 3.7
        np.testing.assert_allclose(
            k.matrix(lam * t, lam * s), lam**k.homogeneity * k.matrix(t, s)
        )


class TestStokes:
    def test_shape_and_interleaving(self, rng):
        k = StokesKernel()
        m = k.matrix(rng.random((4, 3)), rng.random((6, 3)))
        assert m.shape == (12, 18)

    def test_against_formula(self, rng):
        k = StokesKernel(viscosity=2.0)
        t, s = rng.random((3, 3)), rng.random((3, 3))
        m = k.matrix(t, s)
        for i in range(3):
            for j in range(3):
                r = t[i] - s[j]
                rn = np.linalg.norm(r)
                ref = (np.eye(3) / rn + np.outer(r, r) / rn**3) / (16 * np.pi)
                np.testing.assert_allclose(
                    m[3 * i : 3 * i + 3, 3 * j : 3 * j + 3], ref
                )

    def test_block_symmetry(self, rng):
        """G(x, y) = G(y, x)^T for the Stokeslet."""
        k = StokesKernel()
        t, s = rng.random((4, 3)), rng.random((4, 3))
        a = k.matrix(t, s)
        b = k.matrix(s, t)
        for i in range(4):
            for j in range(4):
                np.testing.assert_allclose(
                    a[3 * i : 3 * i + 3, 3 * j : 3 * j + 3],
                    b[3 * j : 3 * j + 3, 3 * i : 3 * i + 3].T,
                )

    def test_self_interaction_zero(self, rng):
        pts = rng.random((5, 3))
        m = StokesKernel().matrix(pts, pts)
        for i in range(5):
            np.testing.assert_array_equal(m[3 * i : 3 * i + 3, 3 * i : 3 * i + 3], 0)

    def test_homogeneity(self, rng):
        k = StokesKernel()
        t, s = rng.random((4, 3)), rng.random((5, 3))
        np.testing.assert_allclose(k.matrix(2 * t, 2 * s), 0.5 * k.matrix(t, s))

    def test_invalid_viscosity(self):
        with pytest.raises(ValueError):
            StokesKernel(viscosity=0.0)


class TestYukawa:
    def test_reduces_to_laplace_at_zero_screening(self, rng):
        t, s = rng.random((5, 3)), rng.random((5, 3))
        np.testing.assert_allclose(
            YukawaKernel(lam=0.0).matrix(t, s), LaplaceKernel().matrix(t, s)
        )

    def test_screening_decays(self):
        t = np.array([[0.0, 0.0, 0.0]])
        s = np.array([[0.0, 0.0, 0.5]])
        v1 = YukawaKernel(lam=1.0).matrix(t, s)[0, 0]
        v5 = YukawaKernel(lam=5.0).matrix(t, s)[0, 0]
        assert v5 < v1

    def test_not_homogeneous(self):
        assert YukawaKernel().homogeneity is None

    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError):
            YukawaKernel(lam=-1.0)


class TestApplyAndDirect:
    @pytest.mark.parametrize("name", ["laplace", "stokes", "yukawa"])
    def test_apply_matches_matrix(self, name, rng):
        k = get_kernel(name)
        t, s = rng.random((40, 3)), rng.random((30, 3))
        dens = rng.standard_normal(30 * k.source_dim)
        np.testing.assert_allclose(
            k.apply(t, s, dens, block=7), k.matrix(t, s) @ dens
        )

    def test_apply_rejects_bad_density(self, rng):
        k = get_kernel("stokes")
        with pytest.raises(ValueError, match="density size"):
            k.apply(rng.random((4, 3)), rng.random((5, 3)), np.zeros(5))

    def test_direct_sum_charges_flops(self, rng):
        k = get_kernel("laplace")
        pts = rng.random((50, 3))
        prof = PhaseProfile()
        with prof.phase("direct"):
            direct_sum(k, pts, pts, rng.standard_normal(50), profile=prof)
        assert prof.events["direct"].flops == direct_flops(k, 50, 50)
        assert direct_flops(k, 50, 50) == 50 * 50 * k.flops_per_pair


# -- the broadcast oracle -----------------------------------------------------
#
# The formulas ``matrix_batch`` ran before it was tiled, kept here because
# ``matrix`` now shares the tiled core and can no longer referee it: the
# whole ``(b, m, n, 3)`` displacement tensor at once, same per-element
# operation sequence.  Only the r2 association is spelled out instead of
# left to ``einsum``; ``test_laplace_digest_frozen`` ties it to the bits the
# einsum form produced.

_FOUR_PI_INV = 1.0 / (4.0 * np.pi)


def _pairs(t, s):
    d = t[:, :, None, :] - s[:, None, :, :]
    return d, (d[..., 0] ** 2 + d[..., 2] ** 2) + d[..., 1] ** 2


def _oracle_laplace(k, t, s):
    _, r2 = _pairs(t, s)
    if k.softening > 0.0:
        return _FOUR_PI_INV / np.sqrt(r2 + k.softening**2)
    r = np.sqrt(r2)
    out = _FOUR_PI_INV / r
    out[r == 0.0] = 0.0
    return out


def _oracle_yukawa(k, t, s):
    r = np.sqrt(_pairs(t, s)[1])
    out = _FOUR_PI_INV * np.exp(-k.lam * r) / r
    out[r == 0.0] = 0.0
    return out


def _oracle_point_force(k, t, s):
    d, r2 = _pairs(t, s)
    r = np.sqrt(r2)
    rinv = 1.0 / r
    rinv3 = rinv**3
    zero = r == 0.0
    rinv[zero] = 0.0
    rinv3[zero] = 0.0
    b, m, n = r.shape
    g = np.einsum("zmna,zmnc->zmanc", d, d) * rinv3[:, :, None, :, None]
    diag = getattr(k, "_diag", 1.0)
    g += diag * np.eye(3)[None, None, :, None, :] * rinv[:, :, None, :, None]
    g *= k._scale
    return g.reshape(b, m * 3, n * 3)


def _oracle_gradient(k, t, s):
    d, r2 = _pairs(t, s)
    r2 = r2 + k.softening**2
    rinv3 = r2**-1.5
    rinv3[r2 == 0.0] = 0.0
    g = -d * rinv3[..., None] / (4.0 * np.pi)
    b, m, n = r2.shape
    return np.moveaxis(g, 3, 2).reshape(b, m * 3, n)


CONFIGS = {
    "laplace": (LaplaceKernel(), _oracle_laplace),
    "laplace-soft": (LaplaceKernel(softening=0.05), _oracle_laplace),
    "yukawa": (YukawaKernel(lam=1.7), _oracle_yukawa),
    "stokes": (StokesKernel(viscosity=0.7), _oracle_point_force),
    "navier": (NavierKernel(shear_modulus=2.0, poisson=0.25), _oracle_point_force),
    "gradient": (LaplaceGradientKernel(), _oracle_gradient),
    "gradient-soft": (LaplaceGradientKernel(softening=0.05), _oracle_gradient),
}

#: one tile; batch direction split with a ragged last tile; one slot larger
#: than a tile, so rows split (for every kernel's tile size); empty axes
SHAPES = [(5, 7, 4), (37, 64, 128), (3, 70, 1100), (0, 3, 4), (2, 0, 5), (2, 5, 0)]


def _points(seed, b, m, n, coincide=0.3):
    """Seeded targets/sources with ``coincide`` of the leading sources
    sitting exactly on a target, and some sharing one coordinate only (a
    zero difference whose product with a negative one is ``-0.0``)."""
    rng = np.random.default_rng(seed)
    t, s = rng.random((b, m, 3)), rng.random((b, n, 3))
    k = min(m, n)
    hit = rng.random((b, k)) < coincide
    s[:, :k][hit] = t[:, :k][hit]
    same_x = rng.random((b, k)) < 0.2
    s[:, :k, 0][same_x] = t[:, :k, 0][same_x]
    return t, s


@pytest.fixture(params=sorted(CONFIGS))
def config(request):
    return CONFIGS[request.param]


class TestMatrixBatch:
    @pytest.mark.parametrize("name", ["laplace", "stokes", "yukawa"])
    def test_batch_matches_loop(self, name, rng):
        k = get_kernel(name)
        t = rng.random((5, 7, 3))
        s = rng.random((5, 4, 3))
        batched = k.matrix_batch(t, s)
        for i in range(5):
            np.testing.assert_array_equal(batched[i], k.matrix(t[i], s[i]))

    @pytest.mark.parametrize("name", ["laplace", "stokes", "yukawa"])
    def test_batch_self_interaction_zero(self, name, rng):
        k = get_kernel(name)
        pts = rng.random((3, 6, 3))
        m = k.matrix_batch(pts, pts)
        for i in range(3):
            for j in range(6):
                td, sd = k.target_dim, k.source_dim
                block = m[i, j * td : (j + 1) * td, j * sd : (j + 1) * sd]
                np.testing.assert_array_equal(block, 0.0)

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_bitwise_equals_broadcast_oracle(self, config, shape):
        k, oracle = config
        t, s = _points(18, *shape)
        got = k.matrix_batch(t, s)
        ref = oracle(k, t, s)
        assert got.shape == ref.shape and got.dtype == np.float64
        assert got.tobytes() == ref.tobytes()

    def test_matrix_is_the_one_slot_batch(self, config):
        k, oracle = config
        t, s = _points(19, 1, 70, 1100)
        m = k.matrix(t[0], s[0])
        assert m.tobytes() == k.matrix_batch(t, s)[0].tobytes()
        assert m.tobytes() == oracle(k, t, s)[0].tobytes()

    def test_dtype_rounds_once_at_the_store(self, config):
        k, _ = config
        t, s = _points(20, 9, 64, 128)
        f32 = k.matrix_batch(t, s, dtype=np.float32)
        assert f32.dtype == np.float32
        assert f32.tobytes() == k.matrix_batch(t, s).astype(np.float32).tobytes()

    def test_float32_and_strided_inputs(self, config):
        k, _ = config
        t, s = _points(21, 4, 12, 10)
        t32, s32 = t.astype(np.float32), s.astype(np.float32)
        ref = k.matrix_batch(t32.astype(np.float64), s32.astype(np.float64))
        assert k.matrix_batch(t32, s32).tobytes() == ref.tobytes()
        wide = np.zeros((4, 12, 6))
        wide[..., ::2] = t
        got = k.matrix_batch(wide[..., ::2], np.asfortranarray(s))
        assert got.tobytes() == k.matrix_batch(t, s).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["fp64", "fp32"])
    def test_transpose_symmetry_is_declared(self, config, dtype):
        """``K(x, y) = K(y, x)ᵀ`` bit for bit iff the kernel says so —
        coincident pairs and single shared coordinates included.  It is
        what lets a plan hold one block for a W pair and its X dual; the
        gradient kernels flip sign with ``x - y`` and must say no."""
        k, _ = config
        a, b = _points(23, 6, 9, 12)
        fwd = k.matrix_batch(a, b, dtype=dtype)
        back = k.matrix_batch(b, a, dtype=dtype).transpose(0, 2, 1)
        assert np.array_equal(fwd, back) == k.transpose_symmetric
        assert np.array_equal(k.matrix(a[0], b[0]), k.matrix(b[0], a[0]).T) == (
            k.transpose_symmetric
        )
        if not k.transpose_symmetric:  # odd in x - y: every entry negated
            flipped = -back.reshape(6, 9, 12, 3).transpose(0, 1, 3, 2)
            assert np.array_equal(fwd, flipped.reshape(fwd.shape))

    def test_laplace_digest_frozen(self):
        """blake2b of one Laplace block, recorded before the kernel was
        tiled (when r2 came from ``einsum``).  subtract, multiply, add,
        sqrt and divide are IEEE-exact, so this pins the r2 summation
        order against a NumPy upgrade; the ``pow`` / ``exp`` kernels get
        no digest because their last bit belongs to libm."""
        import hashlib

        t, s = _points(18, 37, 64, 128)
        block = LaplaceKernel().matrix_batch(t, s)
        assert hashlib.blake2b(block.tobytes(), digest_size=16).hexdigest() == (
            "e4a27400936591aafb2d81c7cec7887e"
        )

    def test_temporaries_stay_tile_sized(self):
        """No clock: under tracemalloc a 32 MB block may cost its own
        bytes plus a few MB of tile scratch.  The broadcast evaluation
        peaked at ~5x the result."""
        import tracemalloc

        t, s = _points(22, 64, 64, 1024)
        k = LaplaceKernel()
        tracemalloc.start()
        try:
            out = k.matrix_batch(t, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 8 * 2**20

    def test_generic_fallback_used_by_base(self, rng):
        """A kernel that defines only matrix(): matrix_batch loops over it."""
        from repro.kernels.base import Kernel

        class Weird(Kernel):
            name = "weird"

            def matrix(self, targets, sources):
                d = targets[:, None, :] - sources[None, :, :]
                return np.abs(d).sum(axis=-1)

        k = Weird()
        t = rng.random((2, 3, 3))
        s = rng.random((2, 5, 3))
        out = k.matrix_batch(t, s)
        np.testing.assert_allclose(out[1], k.matrix(t[1], s[1]))

    def test_kernel_without_a_formula_raises(self, rng):
        from repro.kernels.base import Kernel

        class Nothing(Kernel):
            pass

        with pytest.raises(NotImplementedError, match="neither"):
            Nothing().matrix_batch(rng.random((1, 2, 3)), rng.random((1, 2, 3)))


class TestNavier:
    def test_against_formula(self, rng):
        from repro.kernels import NavierKernel

        mu, nu = 2.0, 0.25
        k = NavierKernel(shear_modulus=mu, poisson=nu)
        t, s = rng.random((3, 3)), rng.random((3, 3))
        m = k.matrix(t, s)
        for i in range(3):
            for j in range(3):
                r = t[i] - s[j]
                rn = np.linalg.norm(r)
                ref = ((3 - 4 * nu) * np.eye(3) / rn + np.outer(r, r) / rn**3) / (
                    16 * np.pi * mu * (1 - nu)
                )
                np.testing.assert_allclose(
                    m[3 * i : 3 * i + 3, 3 * j : 3 * j + 3], ref
                )

    def test_homogeneity(self, rng):
        from repro.kernels import NavierKernel

        k = NavierKernel()
        t, s = rng.random((4, 3)), rng.random((5, 3))
        np.testing.assert_allclose(k.matrix(2 * t, 2 * s), 0.5 * k.matrix(t, s))

    def test_incompressible_limit_matches_stokeslet_structure(self):
        """At nu = 0.5 the Kelvin tensor is proportional to the Stokeslet."""
        from repro.kernels import NavierKernel, StokesKernel

        nu = 0.4999999
        k = NavierKernel(shear_modulus=1.0, poisson=nu)
        s = StokesKernel(viscosity=1.0)
        t = np.array([[0.1, 0.2, 0.3]])
        y = np.array([[0.7, 0.5, 0.9]])
        np.testing.assert_allclose(k.matrix(t, y), s.matrix(t, y), rtol=1e-5)

    def test_parameter_validation(self):
        from repro.kernels import NavierKernel

        with pytest.raises(ValueError):
            NavierKernel(shear_modulus=0.0)
        with pytest.raises(ValueError):
            NavierKernel(poisson=0.5)

    def test_fmm_accuracy(self):
        from repro.core import Fmm
        from repro.datasets import uniform_cube

        k = get_kernel("navier", poisson=0.3)
        pts = uniform_cube(800, seed=9)
        dens = np.random.default_rng(1).standard_normal(2400)
        f = Fmm(k, order=6, max_points_per_box=40).evaluate(pts, dens)
        ref = direct_sum(k, pts, pts, dens)
        assert np.linalg.norm(f - ref) / np.linalg.norm(ref) < 1e-3
