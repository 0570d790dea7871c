"""Particle distributions used by the paper's experiments."""

from repro.datasets.distributions import (
    DISTRIBUTIONS,
    ellipsoid_surface,
    filament,
    plummer_cluster,
    two_spheres,
    uniform_cube,
    make_distribution,
)

__all__ = [
    "uniform_cube",
    "ellipsoid_surface",
    "plummer_cluster",
    "two_spheres",
    "filament",
    "DISTRIBUTIONS",
    "make_distribution",
]
