"""CPU -> GPU data-structure translation (paper §IV / Algorithm 4 setup).

The evaluation tree uses pointers and ragged lists; the device wants flat,
streaming-friendly arrays.  The paper flags this translation as one of its
contributions ("carefully constructed data structure transformations ...
whose cost we show is minor", "somewhat high memory footprint").

:class:`UListStream` is the Algorithm 4 layout: target boxes padded to a
multiple of the thread-block size ``b`` (padded slots carry NaN targets —
harmless under the kernel's IEEE ``fmax`` trick and discarded on unpack),
plus a per-box CSR of source slices into one flat source array of
``(x, y, z, density...)`` records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.lists import InteractionLists
from repro.core.tree import FmmTree, concat_ranges

__all__ = ["UListStream", "LeafStream", "build_u_stream", "build_leaf_stream"]


@dataclass
class UListStream:
    """Flattened U-list interaction structure (Algorithm 4 input)."""

    boxes: np.ndarray  # leaf node index per streamed box
    tgt_offsets: np.ndarray  # (n_boxes + 1,) offsets into padded targets
    tgt_points: np.ndarray  # (n_padded, 3) float32, NaN in padding slots
    tgt_valid: np.ndarray  # (n_padded,) bool
    src_offsets: np.ndarray  # (n_boxes + 1,) offsets into flat sources
    src_points: np.ndarray  # (n_src_total, 3) float32
    src_dens_index: np.ndarray  # (n_src_total,) int: row into density table

    @property
    def n_boxes(self) -> int:
        return self.boxes.size


@dataclass
class LeafStream:
    """Per-leaf stream for the S2U / D2T phases.

    Surface points are *not* stored: the device kernels regenerate them
    from (center, half_width) — the paper's trick of producing the regular
    surface positions from data resident in shared memory, which is what
    buys the ">50X speed-up for those phases".
    """

    boxes: np.ndarray  # leaf node index per box
    levels: np.ndarray
    centers: np.ndarray  # float32 (n_boxes, 3)
    half_widths: np.ndarray  # float32 (n_boxes,)
    pt_offsets: np.ndarray  # (n_boxes + 1,) offsets into flat points
    points: np.ndarray  # float32 flat leaf points


def build_u_stream(
    tree: FmmTree,
    lists: InteractionLists,
    block: int,
    leaf_sel: np.ndarray,
) -> UListStream:
    """Flatten the U-list of the selected leaves into the device layout."""
    boxes = np.flatnonzero(leaf_sel)
    counts = tree.point_counts()
    n_tgt = counts[boxes]
    tgt_offsets = np.concatenate(([0], np.cumsum(-(-n_tgt // block) * block)))
    slots = concat_ranges(tgt_offsets[:-1], n_tgt)
    tgt_points = np.full((tgt_offsets[-1], 3), np.nan, dtype=np.float32)
    tgt_points[slots] = tree.points[tree.point_rows(boxes)]
    tgt_valid = np.zeros(tgt_offsets[-1], dtype=bool)
    tgt_valid[slots] = True
    # every box's non-empty U-list sources, in list order
    u = lists.u
    srcs = u.indices[concat_ranges(u.offsets[boxes], u.counts[boxes])]
    owner = np.repeat(np.arange(boxes.size), u.counts[boxes])
    keep = counts[srcs] > 0
    srcs, owner = srcs[keep], owner[keep]
    dens_index = tree.point_rows(srcs)
    per_box = np.bincount(owner, weights=counts[srcs], minlength=boxes.size)
    return UListStream(
        boxes=boxes,
        tgt_offsets=tgt_offsets.astype(np.int64),
        tgt_points=tgt_points,
        tgt_valid=tgt_valid,
        src_offsets=np.concatenate(([0], np.cumsum(per_box))).astype(np.int64),
        src_points=tree.points[dens_index].astype(np.float32),
        src_dens_index=dens_index,
    )


def build_leaf_stream(tree: FmmTree, leaf_sel: np.ndarray) -> LeafStream:
    """Flatten leaf geometry + points for the S2U / D2T device phases."""
    boxes = np.flatnonzero(leaf_sel)
    return LeafStream(
        boxes=boxes,
        levels=tree.levels[boxes].copy(),
        centers=tree.centers[boxes].astype(np.float32),
        half_widths=tree.half_widths[boxes].astype(np.float32),
        pt_offsets=np.concatenate(([0], np.cumsum(tree.point_counts()[boxes]))),
        points=tree.points[tree.point_rows(boxes)].astype(np.float32),
    )
