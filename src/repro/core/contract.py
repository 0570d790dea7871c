"""The shared dense-contraction primitive of the evaluation phases.

Every kernel-matrix phase (S2U, XLI, WLI, D2T, ULI) reduces to
``out[b] = k[b] @ den[b]`` over a batch of padded blocks.  A column must
come out **bit-identical** whether it is applied alone or as one of the
``q`` columns of a multi-RHS (serving batch) apply, so every phase body
of :mod:`repro.core.plan` funnels through :func:`gemm_cols` (or, reading
a block transposed, its row-major twin :func:`gemm_rows`), which fixes
the floating-point operation sequence by construction:

* The right-hand side is always materialised as a fresh C-contiguous
  ``(b, j, Q_PAD)`` block, zero-padded to a **fixed column width**.
  BLAS GEMM results depend on the operand shapes and memory layout (a
  ``(b, j, 1)`` matmul takes a different kernel than ``(b, j, 8)``, and
  a strided operand can change the blocking), but with the shape and
  layout pinned, each output column is an independent FMA chain over the
  same ``k`` elements: column ``c`` depends only on input column ``c``,
  not on its position's neighbours or on how many real columns there
  are.  Verified properties on this BLAS (see tests/test_multirhs.py):
  position-independence, other-column-value-independence.
* A single-RHS caller therefore pads its one column to ``Q_PAD`` and
  reads column 0; a ``q``-column batch runs ``ceil(q / Q_PAD)`` GEMM
  groups of the identical shape.  The padding columns are **not** free:
  GEMM at these sizes is not bound by streaming ``k``.  Batched
  ``np.matmul`` on the reference host (2 cores, OpenBLAS 0.3.31, two
  sittings, medians of 15 and 41): ``(180, 48, 1536) @ (., ., cols)`` —
  a ULI block — takes 4.0 / 5.2-6.1 / 6.2-7.5 ms at 1 / 4 / 8 columns,
  ``(2000, 152, 48)`` — an S2U block — 4.6 / 5.5-9.6 / 10.9-12.4 ms.  A
  single-RHS apply therefore pays 1.5-2.4x in every kernel-matrix phase
  for its seven zero columns (``k`` streams at 10-17 GB/s in the
  8-column call, against a ``host.triad_gbs`` of 24-26), while a column of a full
  group costs 0.13-0.24 of a solo one: that is the multi-RHS batching
  win, and ``Q_PAD`` trades the two against each other (ROADMAP, *open
  decision*).

This replaces the previous ``np.einsum("bij,bj->bi")`` formulation,
which never dispatched to BLAS (2-3x slower) and whose batched
``"bij,bqj->bqi"`` form only amortised the Python overhead, not the
``k`` traffic.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Q_PAD", "gemm_both", "gemm_cols", "gemm_rows"]

#: Fixed GEMM column-group width.  Changing this changes result bits
#: (legally — all paths change together), so it is a constant, not a
#: tuning knob.
Q_PAD = 8


def gemm_cols(k: np.ndarray, den_cols: np.ndarray) -> np.ndarray:
    """Batched ``k @ den_cols`` with a pinned GEMM shape per column group.

    ``k``: ``(b, i, j)`` kernel blocks, C-contiguous (cached plan
    matrices and ``matrix_batch`` outputs) or the ``transpose(0, 2, 1)``
    view of such a stack — the W-list contracts X's blocks that way;
    ``matmul`` passes BLAS a transpose flag and copies nothing.
    ``den_cols``: ``(b, j, q)`` density columns, any layout.
    Returns ``(b, i, q)``; column ``c`` is bit-identical for any ``q``,
    any column position, and any values in the other columns, for either
    layout of ``k`` (a view and its contiguous copy take different GEMM
    paths and may differ in the last bit from *each other*).

    Arithmetic runs in ``np.result_type(k, den_cols)``: all-float32
    operands stay in float32 (the mixed-precision plans depend on this),
    while float64 inputs take exactly the pre-dtype-parameterised path.
    """
    b, jdim, q = den_cols.shape
    dt = np.result_type(k, den_cols)
    outs = []
    for g0 in range(0, q, Q_PAD):
        g1 = min(g0 + Q_PAD, q)
        blk = np.zeros((b, jdim, Q_PAD), dtype=dt)
        blk[:, :, : g1 - g0] = den_cols[:, :, g0:g1]
        outs.append(np.matmul(k, blk)[:, :, : g1 - g0])
    return outs[0] if len(outs) == 1 else np.concatenate(outs, axis=2)


def gemm_rows(den_rows: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Batched ``den_rows @ k`` — ``(kᵀ @ den)ᵀ`` computed row-major — for
    ``(b, q, i)`` rows and a C-contiguous ``(b, i, j)`` ``k``; row ``c`` is
    bit-identical for any ``q``, row position and other rows' values.  On
    a ``(7, 144, 2304)`` Stokes block this takes the direct product's time
    (1.07 / 1.12 ms), the BLAS transpose flag (``gemm_cols`` on ``kᵀ``) 1.56."""
    b, q, idim = den_rows.shape
    dt = np.result_type(k, den_rows)
    outs = []
    for g0 in range(0, q, Q_PAD):
        g1 = min(g0 + Q_PAD, q)
        blk = np.zeros((b, Q_PAD, idim), dtype=dt)
        blk[:, : g1 - g0] = den_rows[:, g0:g1]
        outs.append(np.matmul(blk, k)[:, : g1 - g0])
    return outs[0] if len(outs) == 1 else np.concatenate(outs, axis=1)


def gemm_both(k: np.ndarray, den_cols: np.ndarray, den_rows: np.ndarray):
    """``(gemm_cols(k, den_cols), gemm_rows(den_rows, k))``, the second in
    ``(b, j, q)`` column layout, bit for bit: ~1 MB of the batch at a time,
    so the second reading finds ``k`` in L2 (one GEMM per batch item, so
    no column's bits depend on the items around it)."""
    step = max(1, 2**20 // max(k[0].nbytes, 1))
    if step >= k.shape[0]:
        return gemm_cols(k, den_cols), gemm_rows(den_rows, k).transpose(0, 2, 1)
    parts = [(gemm_cols(k[s : s + step], den_cols[s : s + step]),
              gemm_rows(den_rows[s : s + step], k[s : s + step]).transpose(0, 2, 1))
             for s in range(0, k.shape[0], step)]
    return tuple(np.concatenate(p) for p in zip(*parts))
