"""Synthetic particle distributions (paper §V, "Particle distributions").

* ``uniform_cube`` — "random sampling with uniform probability density
  distribution on the unit cube"; the paper's *uniform* workload.
* ``ellipsoid_surface`` — "distribution of points on the surface of an
  ellipsoid of ratio 1:1:4 with uniform distribution of angle spacing in
  spherical coordinates"; the paper's *nonuniform* workload, producing
  highly adaptive trees (the Kraken run spanned leaf levels 2..27).
* ``plummer_cluster`` — a classic strongly clustered N-body distribution,
  included as an extra stress test beyond the paper's two.

All functions return points inside the open unit cube, ready for the
Morton machinery.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "uniform_cube",
    "ellipsoid_surface",
    "plummer_cluster",
    "two_spheres",
    "filament",
    "DISTRIBUTIONS",
    "make_distribution",
]


def uniform_cube(n: int, seed: int | np.random.Generator = 0) -> np.ndarray:
    """Uniform iid points in the unit cube."""
    rng = np.random.default_rng(seed)
    return rng.random((n, 3))


def ellipsoid_surface(
    n: int,
    seed: int | np.random.Generator = 0,
    semi_axes: tuple[float, float, float] = (0.1, 0.1, 0.4),
) -> np.ndarray:
    """Points on a 1:1:4 ellipsoid surface, uniform in spherical angles.

    Uniform *angle* spacing (as the paper specifies) concentrates points at
    the poles of the long axis, which together with the surface constraint
    yields the deep, badly unbalanced octrees the paper stresses.
    """
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, np.pi, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    a, b, c = semi_axes
    pts = np.stack(
        [
            a * np.sin(theta) * np.cos(phi),
            b * np.sin(theta) * np.sin(phi),
            c * np.cos(theta),
        ],
        axis=1,
    )
    return pts + 0.5


def plummer_cluster(
    n: int, seed: int | np.random.Generator = 0, scale: float = 0.06
) -> np.ndarray:
    """Plummer-model cluster, clipped into the unit cube around its centre."""
    rng = np.random.default_rng(seed)
    # Plummer radius sampling: r = scale / sqrt(u^{-2/3} - 1).
    u = rng.uniform(1e-8, 1.0, n)
    r = scale / np.sqrt(u ** (-2.0 / 3.0) - 1.0)
    r = np.minimum(r, 0.45)
    v = rng.standard_normal((n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return np.clip(v * r[:, None] + 0.5, 1e-9, 1.0 - 1e-9)


def two_spheres(n: int, seed: int | np.random.Generator = 0) -> np.ndarray:
    """Two well-separated spherical shells: a cluster-merger workload.

    Stresses the V-list across the gap and produces two disjoint refined
    regions in the octree — a common pattern in boundary-integral solvers
    (two interacting bodies).
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    centers = np.where(
        (np.arange(n) % 2 == 0)[:, None],
        np.array([0.27, 0.27, 0.27]),
        np.array([0.73, 0.73, 0.73]),
    )
    return np.clip(centers + 0.12 * v, 1e-9, 1 - 1e-9)


def filament(n: int, seed: int | np.random.Generator = 0,
             thickness: float = 0.004) -> np.ndarray:
    """Points along a helical filament: quasi-1D, extreme tree depth.

    Like the paper's ellipsoid, a lower-dimensional source manifold; the
    helix additionally curves through many octree branches, a hard case
    for Morton-contiguous partitioning.
    """
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 1.0, n)
    core = np.stack(
        [
            0.5 + 0.3 * np.cos(4 * np.pi * t),
            0.5 + 0.3 * np.sin(4 * np.pi * t),
            0.1 + 0.8 * t,
        ],
        axis=1,
    )
    return np.clip(core + thickness * rng.standard_normal((n, 3)), 1e-9, 1 - 1e-9)


_DISTRIBUTIONS = {
    "uniform": uniform_cube,
    "ellipsoid": ellipsoid_surface,
    "plummer": plummer_cluster,
    "two_spheres": two_spheres,
    "filament": filament,
}

#: The names :func:`make_distribution` accepts.
DISTRIBUTIONS = tuple(_DISTRIBUTIONS)


def make_distribution(name: str, n: int, seed: int = 0) -> np.ndarray:
    """Dispatch by name: uniform | ellipsoid | plummer | two_spheres | filament."""
    try:
        fn = _DISTRIBUTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown distribution {name!r}; available: {sorted(_DISTRIBUTIONS)}"
        ) from None
    return fn(n, seed)
