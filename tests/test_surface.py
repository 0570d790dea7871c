"""The public option surface, pinned.

Each census entry point maps to the parameter names of its signature.
Adding, renaming or retiring an option fails here until this table is
edited in the same change, next to the census in CHANGES.md that names
the workload, bench, example or tutorial step that needs the option.
"""

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
        "tenant_weights", "faults", "retry", "trace", "matrix_budget",
        "threads",
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


@pytest.mark.parametrize("entry", list(SURFACE), ids=lambda f: f.__qualname__)
def test_signature_is_pinned(entry):
    assert tuple(inspect.signature(entry).parameters) == SURFACE[entry]


if __name__ == "__main__":
    # the settable values of the pinned surface: parameters with a default
    print(sum(p.default is not p.empty
              for f in SURFACE for p in inspect.signature(f).parameters.values()))
