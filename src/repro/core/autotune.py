"""Autotuning probes: points-per-box, precision, and the shared harness.

Paper §V, on the Table III sweep: "This test resembles the tuning phase
and can be part of an autotuning algorithm."  This module holds that
algorithm's measurement layer: every tuning decision in the repo is made
against *subsample probes* — a deterministic subsample of the target
workload, a seeded density draw, and direct-sum references — so probes
are cheap, reproducible, and comparable across candidates.

:class:`SubsampleProbe` is the one harness behind all of them:

* :func:`autotune_points_per_box` evaluates candidate ``q`` values on the
  probe and picks the one minimising measured wall time (CPU) or modelled
  device time (virtual GPU), as the paper did per architecture.
* :func:`autotune_precision` evaluates an fp64 and an fp32 plan on the
  probe, measures each candidate's relative error against the direct-sum
  reference and its warm apply time, and picks the cheapest candidate
  meeting the caller's relative-error target (Holm et al., PAPERS.md).
* :class:`repro.tune.cost.CostModel` calibration runs its per-phase
  timing probes through the same harness, so the online autotuner's cost
  model and the legacy one-knob tuners measure the same way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.evaluator import FmmEvaluator
from repro.core.lists import build_lists
from repro.core.tree import build_tree
from repro.kernels import Kernel, direct_sum, get_kernel
from repro.util.timer import PhaseProfile

__all__ = [
    "SubsampleProbe",
    "TuneResult",
    "PrecisionResult",
    "autotune_points_per_box",
    "autotune_precision",
]

#: Geometric default candidate grid, bracketing the usual optimum.
DEFAULT_CANDIDATES = (16, 32, 64, 128, 256, 512, 1024)

#: Default relative-error target for ``precision="auto"``: order 6 lands
#: around 1e-5 in fp64, so 1e-4 accepts fp32 at the default order while
#: still rejecting it when the expansion order outruns float32.
DEFAULT_PRECISION_RTOL = 1e-4

#: fp32 must clear the target with this safety factor on the probe: the
#: probe is a subsample, and float32 roundoff grows (slowly) with N, so a
#: probe error right at the target is not trustworthy on the full set.
_FP32_SAFETY = 2.0


class SubsampleProbe:
    """Deterministic subsample-probe harness shared by every tuner.

    One instance owns a seeded subsample of the production points, a
    seeded density draw, and lazily built, cached geometry per candidate
    ``max_points_per_box`` — so sweeping precision, expansion order or
    batch shape over the same ``q`` reuses one tree, one set of lists
    and one direct-sum reference.

    Parameters
    ----------
    points:
        The production point set.  A random subsample of ``sample``
        points is probed (tree *shape* statistics transfer); ``None``
        keeps every point.
    kernel / eval_kernel:
        Kernel configuration; ``eval_kernel`` optionally overrides the
        target-side kernel exactly as in :class:`FmmEvaluator`.
    seed:
        Drives both the subsample choice and the density draw — equal
        seeds give bit-equal probes.
    """

    def __init__(
        self,
        points: np.ndarray,
        kernel: Kernel | str = "laplace",
        sample: int | None = 2_000,
        seed: int = 0,
        eval_kernel: Kernel | None = None,
    ):
        self.kernel = get_kernel(kernel) if isinstance(kernel, str) else kernel
        self.eval_kernel = (
            self.kernel if eval_kernel is None else eval_kernel
        )
        self.seed = int(seed)
        pts = np.asarray(points, dtype=np.float64)
        if sample is not None and len(pts) > sample:
            rng = np.random.default_rng(self.seed)
            pts = pts[rng.choice(len(pts), sample, replace=False)]
        self.points = pts
        self.dens_raw = np.random.default_rng(
            self.seed + 1
        ).standard_normal(len(pts) * self.kernel.source_dim)
        self._geoms: dict[int, tuple] = {}
        self._refs: dict[int, tuple[np.ndarray, float]] = {}

    @property
    def n(self) -> int:
        return len(self.points)

    def geometry(self, max_points: int):
        """``(tree, lists, sorted_dens)`` for one candidate ``q``, cached."""
        q = int(max_points)
        hit = self._geoms.get(q)
        if hit is None:
            tree = build_tree(self.points, q)
            lists = build_lists(tree)
            dens = (
                self.dens_raw.reshape(-1, self.kernel.source_dim)[tree.order]
                .reshape(-1)
            )
            hit = self._geoms[q] = (tree, lists, dens)
        return hit

    def reference(self, max_points: int) -> tuple[np.ndarray, float]:
        """Direct-sum reference (and its norm) in ``q``'s tree order."""
        q = int(max_points)
        hit = self._refs.get(q)
        if hit is None:
            tree, _, dens = self.geometry(q)
            ref = direct_sum(self.eval_kernel, tree.points, tree.points, dens)
            hit = self._refs[q] = (ref, float(np.linalg.norm(ref)))
        return hit

    def error(self, pot: np.ndarray, max_points: int) -> float:
        """Relative error of a probe result against the direct sum."""
        ref, ref_norm = self.reference(max_points)
        return float(np.linalg.norm(pot - ref)) / max(ref_norm, 1e-300)

    def timed_apply(
        self,
        ev: FmmEvaluator,
        max_points: int,
        precision: str = "fp64",
        warmups: int = 1,
        reps: int = 1,
        batch: int = 1,
    ) -> tuple[float, np.ndarray, PhaseProfile]:
        """Compile a plan and time ``reps`` warm applies on the probe.

        Returns ``(seconds, potentials, profile)`` where ``seconds`` is
        the *minimum* timed warm apply (robust to scheduler noise),
        ``potentials`` is the (single-column) result for accuracy
        checks, and ``profile`` carries the per-phase wall/flop counters
        of the last timed apply — the cost-model calibration reads its
        coefficients from there.  ``batch > 1`` times a multi-RHS apply
        of that width (the same density in every column) and still
        returns column 0.
        """
        tree, lists, dens = self.geometry(max_points)
        plan = ev.compile_plan(tree, lists, precision=precision)
        block = batch > 1
        if block:
            dens = np.repeat(dens[:, None], int(batch), axis=1)

        def one(profile):
            return ev.evaluate(tree, lists, dens, profile, plan=plan)

        for _ in range(max(0, warmups)):
            pot = one(PhaseProfile())
        best = np.inf
        profile = PhaseProfile()
        for _ in range(max(1, reps)):
            profile = PhaseProfile()
            t0 = time.perf_counter()
            pot = one(profile)
            best = min(best, time.perf_counter() - t0)
        if block:
            pot = np.ascontiguousarray(pot[:, 0])
        return float(best), pot, profile


@dataclass
class TuneResult:
    """Outcome of one autotuning sweep."""

    best_q: int
    costs: dict[int, float]  # candidate q -> cost (seconds)
    metric: str  # "wall" or "device-model"

    def ranked(self) -> list[tuple[int, float]]:
        return sorted(self.costs.items(), key=lambda kv: kv[1])


def _gpu_cost(kernel, order, tree, lists, dens) -> float:
    from repro.gpu.accel import GpuFmmEvaluator
    from repro.mpi import LINCOLN

    ev = GpuFmmEvaluator(kernel, order)
    prof = PhaseProfile()
    ev.evaluate(tree, lists, dens, prof)
    cost = ev.gpu.ledger.total_seconds()
    for ph in ("WLI", "XLI"):
        e = prof.events.get(ph)
        if e is not None:
            cost += LINCOLN.compute_seconds(e.flops)
    for ph in ("U2U", "D2D", "VLI"):
        e = prof.events.get(ph)
        if e is not None:
            cost += LINCOLN.fft_seconds(e.flops)
    return cost


def autotune_points_per_box(
    points: np.ndarray,
    kernel: Kernel | str = "laplace",
    order: int = 6,
    candidates=DEFAULT_CANDIDATES,
    sample: int | None = 20_000,
    target: str = "cpu",
    seed: int = 0,
) -> TuneResult:
    """Pick the best ``max_points_per_box`` for a workload.

    Parameters
    ----------
    points:
        The production point set (a random subsample of ``sample`` points
        is tuned on; the tree *shape* statistics transfer).
    target:
        ``"cpu"`` minimises measured wall seconds of a full evaluation;
        ``"gpu"`` minimises the virtual-device modelled seconds.
    """
    if target not in ("cpu", "gpu"):
        raise ValueError("target must be 'cpu' or 'gpu'")
    probe = SubsampleProbe(points, kernel=kernel, sample=sample, seed=seed)

    costs: dict[int, float] = {}
    for q in candidates:
        tree, lists, dens = probe.geometry(int(q))
        if target == "cpu":
            ev = FmmEvaluator(probe.kernel, order)
            t0 = time.perf_counter()
            ev.evaluate(tree, lists, dens, PhaseProfile())
            costs[int(q)] = time.perf_counter() - t0
        else:
            costs[int(q)] = _gpu_cost(probe.kernel, order, tree, lists, dens)

    best = min(costs, key=costs.get)
    return TuneResult(
        best_q=best,
        costs=costs,
        metric="wall" if target == "cpu" else "device-model",
    )


@dataclass
class PrecisionResult:
    """Outcome of one :func:`autotune_precision` calibration probe."""

    best: str  # chosen precision ("fp64" or "fp32")
    errors: dict[str, float]  # precision -> probe relative error
    times: dict[str, float]  # precision -> warm-plan apply seconds
    rtol: float  # the relative-error target calibrated against
    met: bool  # whether the chosen precision met the target

    def ranked(self) -> list[tuple[str, float]]:
        return sorted(self.times.items(), key=lambda kv: kv[1])


def autotune_precision(
    points: np.ndarray,
    kernel: Kernel | str = "laplace",
    order: int = 6,
    rtol: float | None = None,
    m2l_mode: str = "fft",
    eval_kernel: Kernel | None = None,
    rcond: float | None = None,
    sample: int | None = 2_000,
    max_points_per_box: int = 64,
    seed: int = 0,
) -> PrecisionResult:
    """Pick the cheapest plan precision meeting a relative-error target.

    A random subsample of ``sample`` points is evaluated once with an
    fp64 plan and once with an fp32 plan (warm applies: the timed pass
    reuses the compiled plan), and each result is compared against the
    exact direct sum over the subsample.  The cheapest candidate whose
    probe error clears the target is chosen; fp32 must clear it with a
    2x safety factor (``_FP32_SAFETY`` — probe errors are measured on a
    subsample and float32 roundoff grows slowly with N).  If no
    candidate qualifies, fp64 is returned with ``met=False`` — the
    caller's accuracy budget needs a higher expansion order, not a
    precision choice.
    """
    rtol = DEFAULT_PRECISION_RTOL if rtol is None else float(rtol)
    if rtol <= 0:
        raise ValueError("rtol must be positive")
    probe = SubsampleProbe(
        points, kernel=kernel, sample=sample, seed=seed,
        eval_kernel=eval_kernel,
    )

    errors: dict[str, float] = {}
    times: dict[str, float] = {}
    for prec in ("fp64", "fp32"):
        ev = FmmEvaluator(
            probe.kernel, order, m2l_mode=m2l_mode, rcond=rcond,
            eval_kernel=eval_kernel,
        )
        seconds, pot, _ = probe.timed_apply(
            ev, max_points_per_box, precision=prec, warmups=1, reps=1
        )
        times[prec] = seconds
        errors[prec] = probe.error(pot, max_points_per_box)

    qualifying = [
        p
        for p in ("fp64", "fp32")
        if errors[p] * (_FP32_SAFETY if p == "fp32" else 1.0) <= rtol
    ]
    if qualifying:
        best = min(qualifying, key=lambda p: times[p])
        met = True
    else:
        best, met = "fp64", False
    return PrecisionResult(best=best, errors=errors, times=times, rtol=rtol, met=met)
