"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.datasets import ellipsoid_surface, plummer_cluster, uniform_cube
from repro.kernels import LaplaceKernel


@pytest.fixture
def rng():
    return np.random.default_rng(20260708)


@pytest.fixture
def uniform_points():
    return uniform_cube(2000, seed=1)


@pytest.fixture
def ellipsoid_points():
    return ellipsoid_surface(2000, seed=2)


@pytest.fixture
def plummer_points():
    return plummer_cluster(2000, seed=3)


@pytest.fixture(params=["uniform", "ellipsoid", "plummer"])
def any_points(request):
    maker = {
        "uniform": uniform_cube,
        "ellipsoid": ellipsoid_surface,
        "plummer": plummer_cluster,
    }[request.param]
    return maker(1500, seed=7)


class CountingLaplace(LaplaceKernel):
    """Laplace that counts the points it evaluates."""

    def __init__(self):
        super().__init__()
        self.evaluated = 0

    def matrix_batch(self, targets, sources, dtype=np.float64):
        self.evaluated += np.shape(targets)[0] * np.shape(targets)[1]
        return super().matrix_batch(targets, sources, dtype)


class UndeclaredLaplace(CountingLaplace):
    """Laplace that does not declare its transpose symmetry, so every
    shortcut built on it must stay off."""

    name = "laplace-undeclared"
    transpose_symmetric = False


@pytest.fixture
def counting_laplace():
    return CountingLaplace()


@pytest.fixture
def undeclared_laplace():
    return UndeclaredLaplace()
