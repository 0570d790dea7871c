"""Budgeted, seeded config search against a typed SLO.

The search is successive-halving over a discrete grid, pruned by the
:class:`~repro.tune.cost.CostModel`:

1. **Calibrate + accuracy ladder** — one subsample probe per
   (order, precision) cell of the grid measures both the cost-model
   coefficients and the relative error against the direct-sum reference.
   Cells breaking the SLO's ``precision_rtol`` floor (fp32 with the
   probe safety factor) are filtered out before anything expensive runs.
2. **Predict** — the cost model scores every surviving config from the
   *full-N* tree/list structure (trees are built once per candidate leaf
   size and shared across orders/precisions).  No evaluation yet.
3. **Shortlist + measure** — only the top ``budget_frac`` of the grid by
   predicted objective gets measured probes (compile the candidate plan
   at full N, time warm multi-RHS applies, successive halving).  The
   probed fraction is reported and gated in CI.
4. **Select** — the cheapest measured config meeting the SLO wins;
   configs within 10% of each other are ties, broken deterministically
   by (predicted cost, config key), so measurement noise cannot flip the
   choice between near-equals.

Everything is seeded: the probe subsample, the density draws and the
grid order are all functions of ``seed``, and with ``measure=False`` the
search is exactly reproducible (this pure-model mode is also what the
distributed collective vote runs, so every rank proposes from the same
arithmetic).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.autotune import _FP32_SAFETY, SubsampleProbe
from repro.core.evaluator import FmmEvaluator
from repro.core.lists import build_lists
from repro.core.plan import MATRIX_BUDGET
from repro.core.tree import build_tree
from repro.kernels import get_kernel
from repro.tune.cost import CostModel, plan_bytes_estimate
from repro.util.timer import PhaseProfile

__all__ = [
    "SLO",
    "TuneConfig",
    "TuneReport",
    "default_grid",
    "tune",
    "propose_config",
    "measure_grid",
]

#: Measured times within this factor of each other are ties, broken by
#: (predicted cost, config key) — determinism beats a sub-noise win.
_TIE_RTOL = 0.10


@dataclass(frozen=True)
class SLO:
    """A serving objective: a latency target plus an accuracy floor.

    ``latency_s`` bounds the per-request latency at ``percentile`` (the
    monitor watches the serving sliding window at this percentile);
    ``precision_rtol`` is the relative-error floor every tuned config
    must clear on the probe.  ``drift_band`` is the tolerated overshoot
    factor before the online monitor declares drift.
    """

    latency_s: float = 0.25
    percentile: float = 95.0
    precision_rtol: float = 1e-4
    drift_band: float = 1.25
    min_window: int = 16

    def key(self) -> str:
        return (
            f"lat{self.latency_s:g}s@p{self.percentile:g}"
            f"+rtol{self.precision_rtol:g}"
        )

    def to_dict(self) -> dict:
        return {
            "latency_s": self.latency_s,
            "percentile": self.percentile,
            "precision_rtol": self.precision_rtol,
            "drift_band": self.drift_band,
            "min_window": self.min_window,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SLO":
        return cls(**{k: d[k] for k in (
            "latency_s", "percentile", "precision_rtol", "drift_band",
            "min_window",
        ) if k in d})


@dataclass(frozen=True)
class TuneConfig:
    """One point of the serving config space."""

    order: int = 6
    max_points: int = 64
    precision: str = "fp64"
    max_batch: int = 8
    max_wait_ms: float = 2.0
    matrix_budget: int = MATRIX_BUDGET
    threads: int = 1

    def key(self) -> str:
        return (
            f"o{self.order}q{self.max_points}{self.precision}"
            f"b{self.max_batch}w{self.max_wait_ms:g}"
            f"m{self.matrix_budget // 2**20}"
            f"t{self.threads}"
        )

    def fmm_kwargs(self) -> dict:
        """Constructor kwargs for :class:`repro.core.fmm.Fmm`."""
        return {
            "order": self.order,
            "max_points_per_box": self.max_points,
            "precision": self.precision,
            "threads": self.threads if self.threads > 1 else None,
        }

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "max_points": self.max_points,
            "precision": self.precision,
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_ms,
            "matrix_budget": self.matrix_budget,
            "threads": self.threads,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TuneConfig":
        return cls(**{k: d[k] for k in (
            "order", "max_points", "precision", "max_batch", "max_wait_ms",
            "matrix_budget", "threads",
        ) if k in d})


@dataclass
class TuneReport:
    """Everything one search run did, for gating and operator forensics."""

    config: TuneConfig
    slo: SLO
    seed: int
    grid_size: int = 0
    n_probed: int = 0
    feasible: int = 0
    met_slo: bool = False
    accuracy: dict[str, float] = field(default_factory=dict)
    predicted: dict[str, dict] = field(default_factory=dict)
    measured: dict[str, dict] = field(default_factory=dict)
    cost_model: dict = field(default_factory=dict)

    @property
    def probe_fraction(self) -> float:
        return self.n_probed / max(self.grid_size, 1)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "slo": self.slo.to_dict(),
            "seed": self.seed,
            "grid_size": self.grid_size,
            "n_probed": self.n_probed,
            "probe_fraction": self.probe_fraction,
            "feasible": self.feasible,
            "met_slo": self.met_slo,
            "accuracy": self.accuracy,
            "predicted": self.predicted,
            "measured": self.measured,
            "cost_model": self.cost_model,
        }


def default_grid(
    n: int,
    orders=(4, 6, 8),
    leaf_sizes=(64, 144, 400),
    precisions=("fp64", "fp32"),
    batch_shapes=((8, 2.0), (16, 4.0)),
    threads_opts=None,
    matrix_budgets=(MATRIX_BUDGET,),
) -> list[TuneConfig]:
    """The discrete grid the search walks; deterministic order.

    Leaf sizes larger than ``n // 4`` are dropped (a near-degenerate
    tree defeats both the cost model and the point of an FMM).
    ``threads_opts`` defaults to the host shape: ``(1,)`` on a
    single-core box, else ``(1, min(4, cores))`` — the intra-rank pool
    only helps when there are cores to spread the tiles over.
    """
    if threads_opts is None:
        cores = os.cpu_count() or 1
        threads_opts = (1,) if cores < 2 else (1, min(4, cores))
    leaf_sizes = [q for q in leaf_sizes if q <= max(n // 4, min(leaf_sizes))]
    grid = [
        TuneConfig(
            order=o, max_points=q, precision=p,
            max_batch=b, max_wait_ms=w, threads=t, matrix_budget=m,
        )
        for o in orders
        for q in leaf_sizes
        for p in precisions
        for (b, w) in batch_shapes
        for t in threads_opts
        for m in matrix_budgets
    ]
    return grid


def _measure_one(
    ev: FmmEvaluator, tree, lists, cfg: TuneConfig, rng, reps: int
) -> float:
    """Min warm multi-RHS apply time of one config at full N (seconds)."""
    plan = ev.compile_plan(
        tree, lists, precision=cfg.precision,
        matrix_budget=cfg.matrix_budget,
    )
    block = rng.standard_normal(
        (tree.n_points * ev.kernel.source_dim, cfg.max_batch)
    )
    prev_threads = ev.threads
    ev.configure_threads(cfg.threads if cfg.threads > 1 else None)
    try:
        ev.evaluate(tree, lists, block, PhaseProfile(), plan=plan)
        best = np.inf
        for _ in range(max(1, reps)):
            t0 = time.perf_counter()
            ev.evaluate(tree, lists, block, PhaseProfile(), plan=plan)
            best = min(best, time.perf_counter() - t0)
    finally:
        ev.configure_threads(prev_threads)
    return float(best)


def measure_grid(
    points: np.ndarray,
    kernel: str = "laplace",
    grid: list[TuneConfig] | None = None,
    seed: int = 0,
    reps: int = 2,
    log=None,
) -> dict[TuneConfig, float]:
    """Exhaustively measure every grid config's warm batch apply at full N.

    This is the gate's reference, not part of the search: the search must
    land within a small factor of the *best measured grid point* while
    probing only a fraction of the grid.  Returns
    ``{config: batch_apply_seconds}`` (min over ``reps`` warm applies).
    """
    pts = np.asarray(points, dtype=np.float64)
    kern = get_kernel(kernel) if isinstance(kernel, str) else kernel
    grid = grid if grid is not None else default_grid(len(pts))
    say = log or (lambda s: None)
    rng = np.random.default_rng(seed + 2)
    evs: dict[tuple[int, str], FmmEvaluator] = {}
    geoms: dict[int, tuple] = {}
    out: dict[TuneConfig, float] = {}
    for cfg in grid:
        if cfg.max_points not in geoms:
            tree = build_tree(pts, cfg.max_points)
            geoms[cfg.max_points] = (tree, build_lists(tree))
        tree, lists = geoms[cfg.max_points]
        key = (cfg.order, cfg.precision)
        if key not in evs:
            evs[key] = FmmEvaluator(kern, cfg.order, precision=cfg.precision)
        out[cfg] = _measure_one(evs[key], tree, lists, cfg, rng, reps)
        say(f"  grid {cfg.key()}: {out[cfg] * 1e3:.1f} ms/batch")
    return out


def _latency_s(cfg: TuneConfig, batch_apply_s: float) -> float:
    """Worst-case request latency: full batching wait + the batch apply."""
    return cfg.max_wait_ms / 1e3 + batch_apply_s


def _per_request_s(cfg: TuneConfig, batch_apply_s: float) -> float:
    """Throughput cost: batch apply amortised over its columns."""
    return batch_apply_s / max(cfg.max_batch, 1)


def tune(
    points: np.ndarray,
    kernel: str = "laplace",
    slo: SLO | None = None,
    grid: list[TuneConfig] | None = None,
    seed: int = 0,
    budget_frac: float = 0.25,
    sample: int | None = 2_000,
    measure: bool = True,
    model: CostModel | None = None,
    log=None,
) -> TuneReport:
    """Search the grid for the cheapest config meeting ``slo``.

    ``measure=False`` skips the full-N measured probes and selects purely
    on the calibrated cost model — fully deterministic for a fixed seed,
    and the mode the distributed collective vote runs.  ``log`` is an
    optional ``callable(str)`` for progress lines.
    """
    slo = slo or SLO()
    pts = np.asarray(points, dtype=np.float64)
    grid = grid if grid is not None else default_grid(len(pts))
    if not grid:
        raise ValueError("empty tuning grid")
    say = log or (lambda s: None)

    probe = SubsampleProbe(pts, kernel=kernel, sample=sample, seed=seed)
    model = model or CostModel()
    report = TuneReport(config=grid[0], slo=slo, seed=int(seed),
                        grid_size=len(grid))

    # -- 1. accuracy ladder doubles as cost-model calibration ------------
    evs: dict[tuple[int, str], FmmEvaluator] = {}

    def ev_for(order: int, precision: str) -> FmmEvaluator:
        key = (order, precision)
        if key not in evs:
            evs[key] = FmmEvaluator(probe.kernel, order, precision=precision)
        return evs[key]

    ladder_q = min(64, min(c.max_points for c in grid))
    cells = sorted({(c.order, c.precision) for c in grid})
    batch_probe_done: set[str] = set()
    accuracy: dict[tuple[int, str], float] = {}
    cal_tree, cal_lists, _ = probe.geometry(ladder_q)
    for order, prec in cells:
        ev = ev_for(order, prec)
        t1, pot, prof = probe.timed_apply(
            ev, ladder_q, precision=prec, warmups=1, reps=1
        )
        err = probe.error(pot, ladder_q)
        accuracy[(order, prec)] = err
        report.accuracy[f"o{order}/{prec}"] = err
        model.ingest_probe(ev, cal_tree, cal_lists, prof, prec)
        if prec not in batch_probe_done:
            bq = max(c.max_batch for c in grid)
            tq, _, _ = probe.timed_apply(
                ev, ladder_q, precision=prec, warmups=1, reps=1, batch=bq
            )
            eff = (tq / max(t1, 1e-9) - 1.0) / max(bq - 1, 1)
            model.batch_eff[prec] = float(min(max(eff, 0.02), 1.0))
            batch_probe_done.add(prec)
    say(f"calibrated {len(cells)} (order, precision) cells on "
        f"{probe.n}-point probe")

    def floor_ok(order: int, prec: str) -> bool:
        safety = _FP32_SAFETY if prec == "fp32" else 1.0
        return accuracy[(order, prec)] * safety <= slo.precision_rtol

    candidates = [c for c in grid if floor_ok(c.order, c.precision)]
    floor_met = bool(candidates)
    if not candidates:
        # nothing clears the floor: keep the most accurate cell's configs
        # so the search still returns the least-bad config (met_slo False)
        best_cell = min(accuracy, key=accuracy.get)
        candidates = [
            c for c in grid
            if (c.order, c.precision) == best_cell
        ]
    say(f"{len(candidates)}/{len(grid)} configs clear the accuracy floor")

    # -- 2. cost-model prediction over the full-N structure --------------
    geoms: dict[int, tuple] = {}

    def geom_for(q: int):
        if q not in geoms:
            tree = build_tree(pts, q)
            geoms[q] = (tree, build_lists(tree))
        return geoms[q]

    predicted: dict[TuneConfig, float] = {}  # per-request objective
    pred_lat: dict[TuneConfig, float] = {}
    for cfg in candidates:
        tree, lists = geom_for(cfg.max_points)
        ev = ev_for(cfg.order, cfg.precision)
        batch_s = model.predict_apply(
            ev, tree, lists, precision=cfg.precision, batch=cfg.max_batch,
            threads=cfg.threads,
        )
        predicted[cfg] = _per_request_s(cfg, batch_s)
        pred_lat[cfg] = _latency_s(cfg, batch_s)
        report.predicted[cfg.key()] = {
            "per_request_s": predicted[cfg],
            "latency_s": pred_lat[cfg],
            "plan_bytes": plan_bytes_estimate(
                ev, tree, lists, cfg.precision, cfg.matrix_budget
            ),
        }

    def pred_rank(cfg: TuneConfig):
        # SLO-violating predictions sort after meeting ones
        return (pred_lat[cfg] > slo.latency_s, predicted[cfg], cfg.key())

    ranked = sorted(candidates, key=pred_rank)
    report.feasible = sum(
        1 for c in candidates if pred_lat[c] <= slo.latency_s
    )

    if not measure:
        best = ranked[0]
        report.config = best
        report.met_slo = floor_met and pred_lat[best] <= slo.latency_s
        report.cost_model = model.to_dict()
        return report

    # -- 3. measured probes for the shortlist (successive halving) -------
    shortlist = ranked[: max(1, math.ceil(budget_frac * len(grid)))]
    say(f"measuring {len(shortlist)}/{len(grid)} shortlisted configs "
        f"at N={len(pts)}")
    rng = np.random.default_rng(seed + 2)
    measured: dict[TuneConfig, float] = {}  # batch apply seconds

    def measure_cfg(cfg: TuneConfig, reps: int) -> float:
        tree, lists = geom_for(cfg.max_points)
        ev = ev_for(cfg.order, cfg.precision)
        return _measure_one(ev, tree, lists, cfg, rng, reps)

    # round 1: one timed rep each; round 2: top half again with 2 reps
    for cfg in shortlist:
        measured[cfg] = measure_cfg(cfg, reps=1)
    report.n_probed = len(shortlist)
    if len(shortlist) > 2:
        half = sorted(
            shortlist, key=lambda c: _per_request_s(c, measured[c])
        )[: max(2, len(shortlist) // 2)]
        for cfg in half:
            measured[cfg] = min(measured[cfg], measure_cfg(cfg, reps=2))

    for cfg, batch_s in measured.items():
        report.measured[cfg.key()] = {
            "batch_apply_s": batch_s,
            "per_request_s": _per_request_s(cfg, batch_s),
            "latency_s": _latency_s(cfg, batch_s),
        }

    # -- 4. deterministic selection with a measured-tie tolerance --------
    meeting = [
        c for c in measured if _latency_s(c, measured[c]) <= slo.latency_s
    ]
    pool = meeting or list(measured)
    best_t = min(_per_request_s(c, measured[c]) for c in pool)
    ties = [
        c for c in pool
        if _per_request_s(c, measured[c]) <= best_t * (1 + _TIE_RTOL)
    ]
    best = min(ties, key=lambda c: (predicted[c], c.key()))
    report.config = best
    report.met_slo = floor_met and bool(meeting)
    report.cost_model = model.to_dict()
    say(f"chose {best.key()} "
        f"(measured {_per_request_s(best, measured[best]) * 1e3:.2f} ms/req, "
        f"SLO {'met' if report.met_slo else 'MISSED'})")
    return report


def propose_config(
    points: np.ndarray,
    kernel: str = "laplace",
    slo: SLO | None = None,
    grid: list[TuneConfig] | None = None,
    seed: int = 0,
    sample: int | None = 2_000,
) -> TuneConfig:
    """Cheap, fully deterministic cost-model-only pick (no measured probes).

    This is what each rank of the distributed collective vote runs on its
    local point slice — deterministic arithmetic per rank, reduced to one
    agreed config by the vote.
    """
    return tune(
        points, kernel=kernel, slo=slo, grid=grid, seed=seed,
        sample=sample, measure=False,
    ).config
