"""Work-based load balancing (paper §III-B).

After a first LET + interaction-list build, every leaf is assigned a
weight estimating the evaluation flops implied by its U/V/W/X lists; the
Morton-sorted leaf array is then repartitioned so per-rank total weights
are approximately equal (Algorithm 1 of Sundar et al., reduced here to a
global prefix scan + alltoall of whole leaves with their points).  As in
the paper, communication costs are ignored by the partitioner — "such an
approach is suboptimal, but is not expensive to compute and works
reasonably well in practice".
"""

from __future__ import annotations

import numpy as np

from repro.core.lists import InteractionLists
from repro.core.tree import FmmTree, concat_ranges
from repro.core.work import work_table
from repro.kernels.base import Kernel
from repro.mpi.comm import SimComm

__all__ = ["leaf_work_weights", "repartition_leaves"]


def leaf_work_weights(
    tree: FmmTree,
    lists: InteractionLists,
    kernel: Kernel,
    n_surf: int,
    leaf_nodes: np.ndarray,
) -> np.ndarray:
    """Estimated evaluation flops attributable to each given leaf.

    U-list work counts point-pair interactions; V/W/X and the up/down
    passes are charged per list entry at surface-point granularity.  The
    estimate only needs to *rank* leaves consistently, so the per-pair
    constants reuse the kernel flop model over the rows of the
    :func:`~repro.core.work.work_table`.
    """
    t = work_table(tree, lists)
    fpp = float(kernel.flops_per_pair)
    # surface degrees of freedom: vector kernels carry source_dim/target_dim
    # values per surface point, scaling the V-list matvecs accordingly
    ns_src = float(n_surf) * kernel.source_dim
    ns_tgt = float(n_surf) * kernel.target_dim
    npts = t.pts[leaf_nodes]
    return (
        fpp * npts * t.u_src[leaf_nodes]  # ULI
        + 2.0 * ns_src * ns_tgt * lists.v.counts[leaf_nodes]  # VLI
        + fpp * npts * n_surf * lists.w.counts[leaf_nodes]  # WLI
        + fpp * n_surf * t.x_src[leaf_nodes]  # XLI
        + (fpp * npts * n_surf * 2 + 4.0 * ns_src * ns_tgt)  # S2U/D2T/up/down
    )


def repartition_leaves(
    comm: SimComm,
    leaves: np.ndarray,
    weights: np.ndarray,
    points: np.ndarray,
    point_keys: np.ndarray,
    leaf_begin: np.ndarray,
    leaf_end: np.ndarray,
):
    """Redistribute whole leaves so per-rank weights balance.

    Every leaf (with its points) moves to rank
    ``floor(global_prefix_weight / (total/p))``; prefixes are monotone so
    each rank receives a contiguous Morton chunk.  Leaves move one at a
    time, as in the paper (§III-B); it suggests, but did not try, moving
    coarser blocks.

    Returns ``(leaves, points, point_keys)`` after the exchange.
    """
    p = comm.size
    local_total = float(weights.sum())
    before = comm.exscan(local_total)
    before = 0.0 if before is None else before
    total = comm.allreduce(local_total)
    if total <= 0.0:
        return leaves, points, point_keys
    prefix = before + np.cumsum(weights) - weights  # exclusive per leaf
    target = np.minimum((prefix * p / total).astype(np.int64), p - 1)
    target = np.maximum.accumulate(target)  # monotone guard

    blocks = []
    for dest in range(p):
        sel = np.flatnonzero(target == dest)
        rows = concat_ranges(leaf_begin[sel], leaf_end[sel] - leaf_begin[sel])
        blocks.append((leaves[sel], points[rows], point_keys[rows]))
    received = comm.alltoall(blocks)
    new_leaves = np.concatenate([b[0] for b in received])
    new_points = np.concatenate([b[1] for b in received])
    new_keys = np.concatenate([b[2] for b in received])
    order = np.argsort(new_keys, kind="stable")
    leaf_order = np.argsort(new_leaves, kind="stable")
    return new_leaves[leaf_order], new_points[order], new_keys[order]
