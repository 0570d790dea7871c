"""Per-node work counts: the one table of how much work each node carries.

The plan's per-block flops, the tuner's structural counts, the §III-B
load-balance weights and the virtual GPU's U-list charge all read
:func:`work_table`: pure counts, no kernel constants.  Each consumer keeps
its own formula over them (DESIGN.md, "Work counts", records how each
differs from what an apply books).  List lengths stay on
``lists.<list>.counts``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["WorkTable", "member_sums", "phase_flops", "plan_bytes_estimate", "work_table"]


@dataclass(frozen=True)
class WorkTable:
    """Per-node ``int64`` counts, indexed by tree node."""

    pts: np.ndarray  # points in the node's subtree
    u_src: np.ndarray  # points over the node's U-list (itself included)
    x_src: np.ndarray  # points over the node's X-list
    v_in: np.ndarray  # V-lists the node is in (its V-list in-degree)


def member_sums(csr, values) -> np.ndarray:
    """Exact ``int64`` per-node sums of ``values`` (one per entry of
    ``csr``, in ``csr.indices`` order) over each node's list members."""
    cum = np.concatenate(([0], np.cumsum(values, dtype=np.int64)))
    return cum[csr.offsets[1:]] - cum[csr.offsets[:-1]]


def work_table(tree, lists) -> WorkTable:
    """The :class:`WorkTable` of ``(tree, lists)``."""
    pts = tree.point_counts()
    return WorkTable(
        pts=pts,
        u_src=member_sums(lists.u, pts[lists.u.indices]),
        x_src=member_sums(lists.x, pts[lists.x.indices]),
        v_in=np.bincount(lists.v.indices, minlength=tree.n_nodes),
    )


def _totals(ev, tree, lists):
    """The tuner formulas' inputs: ``(table, ks, kt, ns, leaf points, U
    point pairs, X-list source points, W-list target points)``."""
    t = work_table(tree, lists)
    sums = (t.pts[tree.leaf_indices].sum(), (t.pts * t.u_src).sum(), t.x_src.sum(),
            (t.pts * lists.w.counts).sum())
    return (t, ev.kernel.source_dim, ev.eval_kernel.target_dim, ev.ns,
            *(float(s) for s in sums))


def phase_flops(ev, tree, lists) -> dict[str, float]:
    """Structural flop count of each phase for ``(tree, lists)``: formulas
    over the work table, nothing evaluated.  ``ev`` supplies the kernel
    dims, surface size and M2L mode.  These are the tuner's features, not
    what an apply books; :mod:`repro.tune.cost` records by how much."""
    t, ks, kt, ns, leaf_pts, u_pairs, x_src, w_tgt = _totals(ev, tree, lists)
    fpp, fpp_eval = ev.kernel.pair_flops(1, 1), ev.eval_kernel.pair_flops(1, 1)
    surf_dofs = float(ns * ks)
    solve = 2.0 * surf_dofs * surf_dofs  # one uc2ue / dc2de pseudo-inverse matvec
    # per tree edge: an ns x ns surface pair evaluation and a solve
    edges = (fpp * ns * ns + solve) * max(tree.n_nodes - 1, 0)
    v = lists.v
    if ev.fft is None:
        vli = v.total() * 2.0 * surf_dofs * (ns * kt)
    else:  # translations per pair, transforms of every box on either side
        vli = (v.total() * ev.fft.translate_flops_per_pair() + ev.fft.fft_flops_per_box()
               * (np.count_nonzero(t.v_in) * ks + np.count_nonzero(v.counts) * kt))
    return {
        "S2U": fpp * ns * leaf_pts + solve * tree.leaf_indices.size,
        "U2U": edges,
        "VLI": vli,
        "XLI": fpp * ns * x_src,
        "D2D": edges + solve * tree.n_nodes,  # plus a check-to-down solve per node
        "WLI": fpp_eval * ns * w_tgt,
        "D2T": fpp_eval * ns * leaf_pts,
        "ULI": fpp_eval * u_pairs,
    }


def plan_bytes_estimate(
    ev, tree, lists, precision: str = "fp64", matrix_budget: int | None = None
) -> float:
    """Rough resident bytes of a compiled plan for this geometry: the
    cached kernel-matrix entries of the GEMM phases at the precision's
    itemsize, capped at ``matrix_budget``, plus a small per-node index
    overhead.  Good to ~2x — enough to decide whether a candidate fits a
    plan-cache byte budget."""
    _, ks, kt, ns, leaf_pts, u_pairs, x_src, w_tgt = _totals(ev, tree, lists)
    entries = (ns * ks * leaf_pts * ks + leaf_pts * kt * ns * ks  # S2U, D2T
               + kt * ks * u_pairs + ns * ks * kt * x_src + kt * ks * ns * w_tgt)
    mat = entries * (4 if precision == "fp32" else 8)
    if matrix_budget is not None:
        mat = min(mat, float(matrix_budget))
    # index/schedule arrays: a few int64/float64 words per point and node
    return mat + 64.0 * (tree.n_points + tree.n_nodes)
