"""The public surface, pinned: options and names.

Each census entry point maps to the parameter names of its signature,
and each package to its ``__all__``.  Adding, renaming or retiring an
option or a public name fails here until these tables are edited in the
same change, next to the census in CHANGES.md that names the workload,
bench, example, tutorial step or CLI flag that needs it.
"""

import importlib
import inspect

import pytest

from repro import DistributedFmm, Fmm, GpuFmmEvaluator
from repro.core.evaluator import FmmEvaluator
from repro.core.operators import OperatorCache
from repro.core.plan import compile_plan, patch_plan
from repro.dist.loadbalance import repartition_leaves
from repro.serve import DistServeEngine, Router, ServeEngine
from repro.serve.loadgen import run_load
from repro.tune.probe import autotune_precision

SURFACE = {
    Fmm: (
        "kernel", "order", "max_points_per_box", "m2l_mode", "eval_kernel",
        "precision", "precision_rtol", "threads",
    ),
    Fmm.evaluate: ("self", "points", "densities", "plan", "profile", "eval_plan"),
    FmmEvaluator: (
        "kernel", "order", "m2l_mode", "eval_kernel", "precision",
        "precision_rtol", "threads",
    ),
    OperatorCache: ("kernel", "order"),
    GpuFmmEvaluator: ("kernel", "order", "gpu", "accelerate_wx", "precision"),
    DistributedFmm: (
        "kernel", "order", "max_points_per_box", "comm_scheme", "load_balance",
        "use_gpu", "gpu", "gpu_wx", "precision", "threads",
    ),
    autotune_precision: (
        "points", "kernel", "order", "rtol", "m2l_mode", "eval_kernel",
    ),
    repartition_leaves: (
        "comm", "leaves", "weights", "points", "point_keys", "leaf_begin",
        "leaf_end",
    ),
    compile_plan: (
        "ev", "tree", "lists", "scopes", "matrix_budget", "precision",
        "targets", "_reuse",
    ),
    patch_plan: (
        "ev", "old_plan", "old_tree", "old_lists", "tree", "lists", "delta",
        "scopes", "matrix_budget", "precision",
    ),
    ServeEngine: (
        "n_workers", "max_queue", "max_batch", "max_wait_ms", "plan_budget",
        "faults", "retry", "trace", "matrix_budget", "threads",
    ),
    ServeEngine.register: (
        "self", "name", "fmm", "points", "warm", "precision", "allowed",
        "slo", "store", "tune_grid",
    ),
    DistServeEngine: (
        "nranks", "faults", "retry", "breaker_threshold",
        "breaker_cooldown_s", "trace",
    ),
    DistServeEngine.register: (
        "self", "name", "points", "placement", "replicas", "fallback_replica",
        "slo", "store", "tune_grid", "fmm_kwargs",
    ),
    Router: ("engine", "n_dispatchers", "max_queue"),
    run_load: ("engine", "models", "duration_s", "clients", "timeout_s", "seed"),
}


PUBLIC_NAMES = {
    "repro": (
        "Fmm", "DistributedFmm", "GpuFmmEvaluator", "VirtualGpu", "get_kernel",
        "direct_sum", "run_spmd", "__version__",
    ),
    "repro.core": (
        "Fmm", "FmmPlan", "FmmEvaluator", "FftM2L", "OperatorCache", "FmmTree",
        "build_tree", "CsrList", "InteractionLists", "build_lists", "EvalPlan",
        "PlanScopes", "PlanMismatchError", "compile_plan", "tree_fingerprint",
    ),
    "repro.datasets": (
        "uniform_cube", "ellipsoid_surface", "plummer_cluster", "two_spheres",
        "filament", "DISTRIBUTIONS", "make_distribution",
    ),
    "repro.dist": (
        "DistributedFmm", "distributed_fmm_rank", "RankGeometry",
        "distributed_points_to_octree", "hypercube_reduce_scatter",
        "owner_reduce_scatter",
    ),
    "repro.gpu": (
        "DeviceModel", "GpuLedger", "TESLA_S1070", "VirtualGpu", "GpuFmmEvaluator",
    ),
    "repro.kernels": (
        "Kernel", "LaplaceKernel", "StokesKernel", "YukawaKernel", "NavierKernel",
        "LaplaceGradientKernel", "direct_sum", "direct_flops", "get_kernel",
    ),
    "repro.mpi": (
        "MachineModel", "KRAKEN", "LINCOLN", "LOCAL", "SimComm", "CorruptMessage",
        "SpmdError", "run_spmd", "run_spmd_resilient",
    ),
    "repro.octree": (
        "build_leaves", "leaf_point_counts", "points_to_octree", "is_complete",
        "is_sorted_unique",
    ),
    "repro.perf": (
        "PhaseTimes", "evaluation_phase_times", "EVAL_PHASES", "format_table",
        "phase_breakdown_table", "TraceRecorder", "MessageEvent", "SpanEvent",
        "CommMatrix", "CriticalPath", "communication_matrix", "phase_matrices",
        "critical_path", "phase_critical_paths", "render_matrix",
        "render_phase_summary",
    ),
    "repro.serve": (
        "CircuitBreaker", "DeadlineExceeded", "DistServeEngine", "FairQueue",
        "Overloaded", "PlanCache", "RankHealth", "RegisteredModel", "Request",
        "Router", "ServeEngine", "ServeMetrics", "ShardUnavailable",
        "UnknownModel", "WorkerPool",
    ),
    "repro.sort": ("parallel_sample_sort", "bitonic_sort"),
    "repro.tune": (
        "CostModel", "phase_flops", "plan_bytes_estimate", "SubsampleProbe",
        "autotune_points_per_box", "autotune_precision", "SLO", "TuneConfig",
        "TuneReport", "default_grid", "propose_config", "tune", "TuneStore",
        "geometry_fingerprint", "SloMonitor",
    ),
    "repro.util": ("morton", "box_center", "box_half_width", "PhaseProfile"),
}


@pytest.mark.parametrize("entry", list(SURFACE), ids=lambda f: f.__qualname__)
def test_signature_is_pinned(entry):
    assert tuple(inspect.signature(entry).parameters) == SURFACE[entry]


@pytest.mark.parametrize("package", list(PUBLIC_NAMES))
def test_public_names_are_pinned(package):
    assert tuple(importlib.import_module(package).__all__) == PUBLIC_NAMES[package]


if __name__ == "__main__":
    # the settable values of the pinned surface (parameters with a
    # default), then the pinned public names
    print(sum(p.default is not p.empty
              for f in SURFACE for p in inspect.signature(f).parameters.values()),
          sum(map(len, PUBLIC_NAMES.values())))
