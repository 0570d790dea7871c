"""Budgeted, seeded config search against a typed SLO.

The search walks a discrete grid, pruned by the
:class:`~repro.tune.cost.CostModel`:

1. **Calibrate + accuracy ladder** — one
   :meth:`~repro.tune.probe.SubsampleProbe.ladder` rung per (order,
   precision) cell of the grid measures both the cost-model coefficients
   and the relative error against the direct-sum reference.  Cells
   breaking the SLO's ``precision_rtol`` floor
   (:func:`~repro.tune.probe.clears_rtol`) are filtered out before
   anything expensive runs.
2. **Predict** — the cost model scores every surviving config from the
   *full-N* tree/list structure (trees are built once per candidate leaf
   size and shared across orders/precisions).  No evaluation yet.
3. **Shortlist + measure** — only the top ``budget_frac`` of the grid by
   predicted objective gets measured probes: warm multi-RHS applies at
   full N, one compiled plan per (order, tree, precision, matrix budget)
   family (leaf sizes that build the same tree share it), timed config
   by config, one live full-N plan at a time.  The probed fraction is
   reported.
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

import functools
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from repro.core.evaluator import FmmEvaluator
from repro.core.plan import MATRIX_BUDGET
from repro.core.work import plan_bytes_estimate
from repro.tune.cost import CostModel
from repro.tune.probe import (
    DEFAULT_PRECISION_RTOL,
    SubsampleProbe,
    clears_rtol,
    time_applies,
)

__all__ = [
    "SLO",
    "TuneConfig",
    "TuneReport",
    "default_grid",
    "tune",
    "propose_config",
]

#: Measured times within this factor of each other are ties, broken by
#: (predicted cost, config key) — determinism beats a sub-noise win.
_TIE_RTOL = 0.10


def _from_dict(cls, d: dict):
    """``cls`` from a stored dict; keys it no longer has are ignored."""
    return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


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
    precision_rtol: float = DEFAULT_PRECISION_RTOL
    drift_band: float = 1.25
    min_window: int = 16

    def key(self) -> str:
        return (
            f"lat{self.latency_s:g}s@p{self.percentile:g}"
            f"+rtol{self.precision_rtol:g}"
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SLO":
        return _from_dict(cls, d)


@dataclass(frozen=True)
class TuneConfig:
    """One point of the serving config space."""

    order: int = 6
    max_points: int = 64
    precision: str = "fp64"
    max_batch: int = 8
    max_wait_ms: float = 2.0
    matrix_budget: int = MATRIX_BUDGET

    def key(self) -> str:
        return (
            f"o{self.order}q{self.max_points}{self.precision}"
            f"b{self.max_batch}w{self.max_wait_ms:g}"
            f"m{self.matrix_budget // 2**20}"
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TuneConfig":
        return _from_dict(cls, d)


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
        return {**asdict(self), "probe_fraction": self.probe_fraction}


def default_grid(
    n: int,
    orders=(4, 6, 8),
    leaf_sizes=(64, 144, 400),
    precisions=("fp64", "fp32"),
    batch_shapes=((8, 2.0), (16, 4.0)),
    matrix_budgets=(MATRIX_BUDGET,),
) -> list[TuneConfig]:
    """The discrete grid the search walks; deterministic order.

    Leaf sizes larger than ``n // 4`` are dropped (a near-degenerate
    tree defeats both the cost model and the point of an FMM).  There
    is no thread axis: a rank's core count is fixed by its placement,
    not tuned.
    """
    leaf_sizes = [q for q in leaf_sizes if q <= max(n // 4, min(leaf_sizes))]
    grid = [
        TuneConfig(
            order=o, max_points=q, precision=p,
            max_batch=b, max_wait_ms=w, matrix_budget=m,
        )
        for o in orders
        for q in leaf_sizes
        for p in precisions
        for (b, w) in batch_shapes
        for m in matrix_budgets
    ]
    return grid


def _evaluators(kernel):
    """Memoised ``(order, precision) -> FmmEvaluator`` for ``kernel``, one
    thread wide: the ladder calibrates the cost model's serial
    coefficients, and :func:`_measure` times every config at that width."""
    return functools.cache(
        lambda order, precision: FmmEvaluator(
            kernel, order, precision=precision, threads=1
        )
    )


def _measure(full: SubsampleProbe, ev_for, configs, seed: int, reps: int):
    """Min warm multi-RHS apply seconds of each config at full N.

    Configs sharing (order, tree, precision, matrix_budget) — leaf sizes
    that build one tree share it — share one compiled plan: the batch
    shape is an apply-time knob.  That plan is dropped before the
    next family compiles.  Each config times one warm-up and ``reps``
    applies of a seeded density block.
    """
    rng = np.random.default_rng(seed + 2)
    families: dict[tuple, list[TuneConfig]] = {}
    for cfg in configs:
        tree = full.geometry(cfg.max_points)[0]
        key = (cfg.order, id(tree), cfg.precision, cfg.matrix_budget)
        families.setdefault(key, []).append(cfg)
    out: dict[TuneConfig, float] = {}
    for (order, _, precision, budget), cfgs in families.items():
        tree, lists, _ = full.geometry(cfgs[0].max_points)
        ev = ev_for(order, precision)
        plan = ev.compile_plan(
            tree, lists, precision=precision, matrix_budget=budget
        )
        rows = tree.n_points * ev.kernel.source_dim
        for cfg in cfgs:
            block = rng.standard_normal((rows, cfg.max_batch))
            out[cfg] = time_applies(ev, tree, lists, block, plan, reps=reps)[0]
            del block  # one density block alive at a time
        del plan  # before the next family compiles: one live full-N plan
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
    full = SubsampleProbe(pts, kernel=probe.kernel, sample=None, seed=seed)
    model = model or CostModel()
    report = TuneReport(config=grid[0], slo=slo, seed=int(seed),
                        grid_size=len(grid))

    # -- 1. accuracy ladder doubles as cost-model calibration ------------
    ev_for = _evaluators(probe.kernel)
    ladder_q = min(64, min(c.max_points for c in grid))
    cells = sorted({(c.order, c.precision) for c in grid})
    rungs, batch_eff = probe.ladder(
        cells, ev_for, ladder_q, batch=max(c.max_batch for c in grid)
    )
    model.ingest_ladder(probe, ladder_q, rungs, batch_eff)
    accuracy = {cell: r.error for cell, r in rungs.items()}
    report.accuracy = {f"o{o}/{p}": err for (o, p), err in accuracy.items()}
    say(f"calibrated {len(cells)} (order, precision) cells on "
        f"{probe.n}-point probe")

    candidates = [
        c for c in grid
        if clears_rtol(c.precision, accuracy[(c.order, c.precision)],
                       slo.precision_rtol)
    ]
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
    predicted: dict[TuneConfig, float] = {}  # per-request objective
    pred_lat: dict[TuneConfig, float] = {}
    for cfg in candidates:
        tree, lists, _ = full.geometry(cfg.max_points)
        ev = ev_for(cfg.order, cfg.precision)
        batch_s = model.predict_apply(
            ev, tree, lists, precision=cfg.precision, batch=cfg.max_batch
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
        report.met_slo = bool(floor_met and pred_lat[best] <= slo.latency_s)
        report.cost_model = model.to_dict()
        return report

    # -- 3. measured probes for the shortlist ----------------------------
    shortlist = ranked[: max(1, math.ceil(budget_frac * len(grid)))]
    say(f"measuring {len(shortlist)}/{len(grid)} shortlisted configs "
        f"at N={len(pts)}")
    measured = _measure(full, ev_for, shortlist, seed, reps=2)
    report.n_probed = len(shortlist)
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
