"""Linear (Morton-array) octrees: construction and the key-space helpers.

This subpackage is the reproduction of the paper's DENDRO substrate
(Sundar, Sampath & Biros, SISC 2008): octrees are plain sorted ``uint64``
arrays of octant ids, built bottom-up/top-down from point Morton keys
(``Points2Octree``).  The distributed build partitions them across
(virtual) MPI ranks by splitting the sorted array (:mod:`repro.dist`).
"""

from repro.octree.build import build_leaves, leaf_point_counts, points_to_octree
from repro.octree.linear import is_complete, is_sorted_unique

__all__ = [
    "build_leaves",
    "leaf_point_counts",
    "points_to_octree",
    "is_complete",
    "is_sorted_unique",
]
