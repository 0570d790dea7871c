"""The paper's primary contribution: the kernel-independent adaptive FMM.

Public entry point: :class:`repro.core.Fmm` (single process).  The
distributed driver lives in :mod:`repro.dist`, the virtual-GPU accelerated
evaluator in :mod:`repro.gpu`.
"""

from repro.core.evaluator import FmmEvaluator
from repro.core.fft_m2l import FftM2L
from repro.core.fmm import Fmm, FmmPlan
from repro.core.lists import CsrList, InteractionLists, build_lists
from repro.core.operators import OperatorCache
from repro.core.plan import (
    EvalPlan,
    PlanMismatchError,
    PlanScopes,
    compile_plan,
    tree_fingerprint,
)
from repro.core.tree import FmmTree, build_tree

__all__ = [
    "Fmm",
    "FmmPlan",
    "FmmEvaluator",
    "FftM2L",
    "OperatorCache",
    "FmmTree",
    "build_tree",
    "CsrList",
    "InteractionLists",
    "build_lists",
    "EvalPlan",
    "PlanScopes",
    "PlanMismatchError",
    "compile_plan",
    "tree_fingerprint",
]
