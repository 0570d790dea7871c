"""Autotuning: probes, cost model, budgeted search, store, SLO monitor.

The config space the serving stack exposes is wide — expansion order,
leaf ``max_points``, precision, batch shape, matrix budget — and the
right point depends on geometry, kernel and hardware (paper Table III;
Holm et al., PAPERS.md).  This package picks it automatically:

* :mod:`repro.tune.probe` — the one measurement layer: the
  :class:`~repro.tune.probe.SubsampleProbe` harness and its (order,
  precision) probe ladder, the fp32 accuracy rule, the precision pick
  behind ``precision="auto"`` and the points-per-box (q) sweep.
* :mod:`repro.tune.cost` — a per-phase cost model calibrated from that
  ladder; it prices :mod:`repro.core.work`'s structural counts.
* :mod:`repro.tune.search` — a seeded, budgeted search over the discrete
  config grid against a typed :class:`~repro.tune.search.SLO`; the cost
  model prunes, measured probes decide only among the shortlist.
* :mod:`repro.tune.store` — persistent JSON store of tuned configs keyed
  by (geometry fingerprint, kernel, SLO, backend).
* :mod:`repro.tune.monitor` — watches serving sliding-window percentiles
  and triggers a bounded off-hot-path re-tune when p95 drifts out of the
  SLO band.
"""

from repro.core.work import phase_flops, plan_bytes_estimate
from repro.tune.cost import CostModel
from repro.tune.monitor import SloMonitor
from repro.tune.probe import SubsampleProbe, autotune_points_per_box, autotune_precision
from repro.tune.search import (
    SLO,
    TuneConfig,
    TuneReport,
    default_grid,
    propose_config,
    tune,
)
from repro.tune.store import TuneStore, geometry_fingerprint

__all__ = [
    "CostModel",
    "phase_flops",
    "plan_bytes_estimate",
    "SubsampleProbe",
    "autotune_points_per_box",
    "autotune_precision",
    "SLO",
    "TuneConfig",
    "TuneReport",
    "default_grid",
    "propose_config",
    "tune",
    "TuneStore",
    "geometry_fingerprint",
    "SloMonitor",
]
