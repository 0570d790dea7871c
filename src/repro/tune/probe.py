"""Tuner probes: the subsample harness, the precision pick and the q axis.

Paper §V calls its Table III sweep "the tuning phase [that] can be part of
an autotuning algorithm"; this is that algorithm's measurement layer.
Every tuning decision is ranked on a :class:`SubsampleProbe` (seeded
subsample, seeded densities, direct-sum references) by one loop,
:meth:`SubsampleProbe.ladder`, which ``tune``'s accuracy floor and cost
calibration read, and :func:`autotune_precision` (behind
``precision="auto"``) applies each precision of the same probe once;
:func:`clears_rtol` is the one accuracy rule, and
:func:`autotune_points_per_box` is the leaf-size (q) axis (Holm et al.,
PAPERS.md: one calibrated probe that every knob is ranked by).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.evaluator import FmmEvaluator
from repro.core.lists import build_lists
from repro.core.plan import tree_fingerprint
from repro.core.tree import build_tree
from repro.kernels import Kernel, direct_sum, get_kernel
from repro.util.timer import PhaseProfile

__all__ = [
    "SubsampleProbe",
    "Rung",
    "TuneResult",
    "PrecisionResult",
    "clears_rtol",
    "autotune_points_per_box",
    "autotune_precision",
]

#: Geometric default candidate grid, bracketing the usual optimum.
DEFAULT_CANDIDATES = (16, 32, 64, 128, 256, 512, 1024)

#: Default relative-error target for ``precision="auto"`` and the SLO
#: floor: order 6 lands around 1e-5 in fp64, so 1e-4 accepts fp32 at the
#: default order while still rejecting it when the expansion order
#: outruns float32.
DEFAULT_PRECISION_RTOL = 1e-4

#: fp32 must clear the target with this safety factor on the probe: the
#: probe is a subsample, and float32 roundoff grows (slowly) with N, so a
#: probe error right at the target is not trustworthy on the full set.
_FP32_SAFETY = 2.0


def clears_rtol(precision: str, error: float, rtol: float) -> bool:
    """Whether a probe ``error`` at ``precision`` meets ``rtol``
    (fp32 with the ``_FP32_SAFETY`` factor)."""
    return error * (_FP32_SAFETY if precision == "fp32" else 1.0) <= rtol


@dataclass
class Rung:
    """One probed (order, precision) cell of :meth:`SubsampleProbe.ladder`."""

    ev: FmmEvaluator
    seconds: float  # min warm single-RHS apply
    error: float  # relative error against the direct sum
    profile: PhaseProfile  # per-phase counters of the timed apply


class SubsampleProbe:
    """Deterministic subsample-probe harness shared by every tuner.

    One instance owns a random subsample of ``sample`` production points
    (``None`` keeps every point; tree *shape* statistics transfer), a
    density draw, and lazily built, cached geometry and direct-sum
    references per candidate ``max_points_per_box`` — so sweeping
    precision, order or batch shape over one ``q`` reuses one tree.
    ``seed`` drives the subsample and the densities: equal seeds give
    bit-equal probes.  ``eval_kernel`` overrides the target-side kernel
    as in :class:`FmmEvaluator`.
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
        self.eval_kernel = self.kernel if eval_kernel is None else eval_kernel
        self.seed = int(seed)
        pts = np.asarray(points, dtype=np.float64)
        if sample is not None and len(pts) > sample:
            rng = np.random.default_rng(self.seed)
            pts = pts[rng.choice(len(pts), sample, replace=False)]
        self.points = pts
        rng = np.random.default_rng(self.seed + 1)
        self.dens_raw = rng.standard_normal(len(pts) * self.kernel.source_dim)
        self._geoms: dict[int, tuple] = {}
        self._shapes: dict[str, tuple] = {}
        self._refs: dict[int, tuple[np.ndarray, float]] = {}

    @property
    def n(self) -> int:
        return len(self.points)

    def geometry(self, max_points: int):
        """``(tree, lists, sorted_dens)`` for one candidate ``q``, cached;
        leaf sizes that build the same tree share one entry (one tree
        object), so a plan compiled on it serves every such ``q``."""
        q = int(max_points)
        hit = self._geoms.get(q)
        if hit is None:
            tree = build_tree(self.points, q)
            shape = tree_fingerprint(tree)
            hit = self._shapes.get(shape)
            if hit is None:
                dens = (
                    self.dens_raw.reshape(-1, self.kernel.source_dim)[tree.order]
                    .reshape(-1)
                )
                hit = self._shapes[shape] = (tree, build_lists(tree), dens)
            self._geoms[q] = hit
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

        Returns ``(seconds, potentials, profile)``: the *minimum* timed
        apply (robust to scheduler noise), the single-column result and
        the per-phase counters of the last timed apply.  ``batch > 1``
        times a multi-RHS apply of that width (the same density in every
        column) and still returns column 0.
        """
        tree, lists, dens = self.geometry(max_points)
        plan = ev.compile_plan(tree, lists, precision=precision)
        if batch > 1:
            dens = np.repeat(dens[:, None], int(batch), axis=1)
        best, pot, profile = time_applies(
            ev, tree, lists, dens, plan, warmups, reps
        )
        if batch > 1:
            pot = np.ascontiguousarray(pot[:, 0])
        return best, pot, profile

    def ladder(self, cells, ev_for, max_points: int = 64, batch: int = 1):
        """Probe each ``(order, precision)`` cell on ``max_points``'s tree.

        ``ev_for(order, precision)`` returns the cell's evaluator; each
        cell gets one warm single-RHS :meth:`timed_apply` and becomes a
        :class:`Rung`.  With ``batch > 1`` the first cell of each
        precision also times a ``batch``-column apply:
        ``batch_eff[precision]`` is the cost of one more column as a
        fraction of a single-RHS apply, ``(t_batch / t_1 - 1) / (batch -
        1)`` clamped to ``[0.02, 1]``.  Returns ``(rungs, batch_eff)``,
        ``rungs`` keyed by cell in the order given.
        """
        rungs: dict[tuple, Rung] = {}
        batch_eff: dict[str, float] = {}
        for order, prec in cells:
            ev = ev_for(order, prec)
            t1, pot, prof = self.timed_apply(ev, max_points, precision=prec)
            rungs[(order, prec)] = Rung(
                ev, t1, self.error(pot, max_points), prof
            )
            if batch > 1 and prec not in batch_eff:
                tq, _, _ = self.timed_apply(
                    ev, max_points, precision=prec, batch=batch
                )
                eff = (tq / max(t1, 1e-9) - 1.0) / (batch - 1)
                batch_eff[prec] = float(min(max(eff, 0.02), 1.0))
        return rungs, batch_eff


def time_applies(ev, tree, lists, dens, plan, warmups=1, reps=1):
    """``(min seconds, last result, last profile)`` of ``reps`` timed
    applies of ``plan`` after ``warmups`` untimed ones."""
    for _ in range(max(0, warmups)):
        ev.evaluate(tree, lists, dens, PhaseProfile(), plan=plan)
    best = np.inf
    for _ in range(max(1, reps)):
        profile, pot = PhaseProfile(), None  # one result alive at a time
        t0 = time.perf_counter()
        pot = ev.evaluate(tree, lists, dens, profile, plan=plan)
        best = min(best, time.perf_counter() - t0)
    return float(best), pot, profile


@dataclass
class PrecisionResult:
    """Outcome of one :func:`autotune_precision` calibration probe."""

    best: str  # chosen precision ("fp64" or "fp32")
    errors: dict[str, float]  # precision -> probe relative error
    rtol: float  # the relative-error target calibrated against
    met: bool  # whether the chosen precision met the target


def autotune_precision(
    points: np.ndarray,
    kernel: Kernel | str = "laplace",
    order: int = 6,
    rtol: float | None = None,
    m2l_mode: str = "fft",
    eval_kernel: Kernel | None = None,
) -> PrecisionResult:
    """Pick the cheaper plan precision that meets a relative-error target.

    The seed-0 :class:`SubsampleProbe` of ``points`` (its default 2 000
    points, leaves of 64) is evaluated once with an fp64 and once with an
    fp32 plan, each error taken against the exact direct sum: the rung
    errors :func:`~repro.tune.search.tune` reads for a ``max_points=64``
    config at its default sample and seed.  fp32 is chosen when it
    :func:`clears_rtol`: it holds half the matrix bytes, so it is the
    cheaper plan by construction, and no timing decides the pick.
    Otherwise fp64 is returned, with ``met=False`` when it misses the
    target too — the caller's accuracy budget needs a higher expansion
    order, not a precision choice.
    """
    rtol = DEFAULT_PRECISION_RTOL if rtol is None else float(rtol)
    if rtol <= 0:
        raise ValueError("rtol must be positive")
    probe = SubsampleProbe(points, kernel=kernel, eval_kernel=eval_kernel)
    tree, lists, dens = probe.geometry(64)
    errors = {
        prec: probe.error(FmmEvaluator(
            probe.kernel, order, m2l_mode=m2l_mode, eval_kernel=eval_kernel,
        ).evaluate(tree, lists, dens, precision=prec), 64)
        for prec in ("fp64", "fp32")
    }
    fp32 = clears_rtol("fp32", errors["fp32"], rtol)
    return PrecisionResult(
        best="fp32" if fp32 else "fp64", errors=errors, rtol=rtol,
        met=fp32 or clears_rtol("fp64", errors["fp64"], rtol),
    )


@dataclass
class TuneResult:
    """Outcome of one :func:`autotune_points_per_box` sweep."""

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
    """Pick the best ``max_points_per_box`` for a workload (the q axis).

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
