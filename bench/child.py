"""One workload, one fresh process: the measuring side of the benchmark.

``run.py`` starts this file once per sample with a JSON job
``{"workload", "seed", "seconds", "mode", "smoke"}`` and reads the record it
prints as its last line.  ``mode`` is

* ``setup``   -- cold start to first answer, nothing else;
* ``measure`` -- the same cold start, then the warm end-to-end measurements
  for ``seconds`` seconds and the output checks;
* ``trace``   -- the layers called one at a time under spans, with the
  program's own ``PhaseProfile`` counters, for the per-layer metrics.

Layers are measured from outside: spans around calls into public functions,
plus the profiles the public API accepts (``profile=``) or returns
(``SpmdResult.profiles``).
"""

from __future__ import annotations

import json
import sys
import threading
import time
import traceback

import numpy as np

import benchlib as bl
from benchlib import metric, timing

sys.path.insert(0, str(bl.ROOT / "src"))

now = time.perf_counter
Q_BATCH = 8  # columns of the multi-RHS block, the engine's max_batch
SPMD_TIMEOUT_S = 150.0  # one run_spmd call; the runner's own deadline is above it


class Run:
    """Counters, checks and metrics of one child process."""

    def __init__(self, job: dict):
        self.job = job
        self.spec = bl.workload_spec(job["workload"], job["smoke"])
        self.seed = int(job["seed"])
        self.seconds = float(job["seconds"])
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.checks: dict[str, str] = {}
        self.metrics: dict[str, dict] = {}
        self.spans = bl.Spans(job["workload"])

    def fail(self, what: str, cause) -> None:
        self.failed += 1
        self.failures.append({"what": what, "cause": str(cause)[:300]})

    def timed(self, what: str, fn):
        """Run one counted operation; a raise or a non-finite result is a
        failure with its cause, never an abort of the workload."""
        self.attempted += 1
        t0 = now()
        try:
            out = fn()
        except Exception as exc:  # boundary: count it, keep measuring
            self.fail(what, f"{type(exc).__name__}: {exc}")
            return None, now() - t0
        dt = now() - t0
        if isinstance(out, np.ndarray) and not np.isfinite(out).all():
            self.fail(what, "non-finite output")
            return None, dt
        return out, dt

    def check(self, name: str, ok, detail: str = "") -> None:
        self.checks[name] = "enforced" if ok else f"failed({detail})"

    def skip(self, name: str, reason: str) -> None:
        self.checks[name] = f"skipped({reason})"

    def prefault(self) -> None:
        """Warm the pages the timed region is about to use (see
        ``benchlib.prefault``); the traced run records what that cost."""
        pf = bl.prefault(self.spec["prefault_mb"])
        self.checks["prefault"] = pf["check"]
        if self.job["mode"] == "trace":
            for when in ("before", "after"):
                self.metrics[f"host.first_touch_gbs.{when}"] = metric(pf[when], "GB/s")

    def loop(self, what: str, fn, budget_s: float, min_n: int = 4):
        """Repeat ``fn`` for ``budget_s`` seconds: at least ``min_n`` times
        and an even number of times (consecutive W-list applies alternate
        between a fast and a slow one when blocks miss the matrix budget).
        Returns the per-call seconds of the calls that succeeded and the
        last result."""
        times, last = [], None
        t_end = now() + budget_s
        while len(times) < min_n or len(times) % 2 or now() < t_end:
            out, dt = self.timed(what, lambda: fn(len(times)))
            if out is None:
                if self.failed > 3:
                    break
                continue
            times.append(dt)
            last = out
        return times, last

    def record(self) -> dict:
        from repro.util.blas import blas_thread_count

        correct = not any(v.startswith("failed") for v in self.checks.values())
        return {
            "blas_threads": blas_thread_count(),  # as the program got them
            "workload": self.job["workload"], "mode": self.job["mode"],
            "correct": correct, "attempted": self.attempted,
            "failed": self.failed, "failures": self.failures,
            "checks": self.checks, "metrics": self.metrics,
            "spans": self.spans.rows,
        }


def rel_err(kernel, pts, dens, pot, rng, n_targets: int = 256) -> float:
    """Relative 2-norm error against direct summation at seeded targets."""
    from repro import direct_sum

    idx = rng.choice(len(pts), size=min(n_targets, len(pts)), replace=False)
    ref = direct_sum(kernel, pts[idx], pts, dens)
    got = np.asarray(pot).reshape(len(pts), -1)[idx].reshape(-1)
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


def check_err(run: Run, name: str, err: float, ceiling: float) -> None:
    run.check(name, np.isfinite(err) and err <= ceiling,
              f"{err:.3e} > {ceiling:.0e}")


def end_to_end(run: Run, setup_s, apply, batch_col) -> None:
    """The end-to-end record of a measuring child; ``apply`` and
    ``batch_col`` are metric records, or None when every attempt failed."""
    run.metrics["setup_s"] = metric(setup_s, "s")
    if apply is not None:
        run.metrics["apply_s"] = apply
    if batch_col is not None:
        run.metrics["batch_col_s"] = batch_col
    run.metrics["peak_rss_mb"] = metric(bl.peak_rss_mb(), "MB")


def timing_or_none(values):
    return timing(values) if values else None


# =============================================================================
# solo: Fmm on one process (uniform_laplace, plummer_adaptive)
# =============================================================================

class Solo:
    def __init__(self, run: Run):
        from repro import Fmm

        spec = run.spec
        self.run = run
        self.pts = bl.make_points(spec["points"], spec["n"], bl.rng_for(run.seed, 0))
        self.dens_rng = bl.rng_for(run.seed, 1)
        self.fmm = Fmm(spec["kernel"], order=spec["order"],
                       max_points_per_box=spec["q"])
        self.nd = spec["n"] * self.fmm.kernel.source_dim
        self.plan = self.ep = None

    def density(self, cols: int | None = None):
        shape = self.nd if cols is None else (self.nd, cols)
        return self.dens_rng.standard_normal(shape)

    def apply(self, dens, **kw):
        return self.fmm.evaluate(self.pts, dens, plan=self.plan,
                                 eval_plan=self.ep, **kw)

    def cold_start(self) -> float:
        """Arrays in memory -> first answer: plan + compile + first evaluate
        (lazy sections such as ``setup:wli`` land here)."""
        run, fmm = self.run, self.fmm
        run.prefault()
        dens = self.density()
        t0 = now()
        self.plan = fmm.plan(self.pts)
        self.ep = fmm.compile_eval_plan(self.plan)
        pot = self.apply(dens)
        setup_s = now() - t0
        run.attempted += 1
        err = rel_err(fmm.kernel, self.pts, dens, pot, bl.rng_for(run.seed, 2))
        check_err(run, "rel_err", err, run.spec["err_ceiling"])
        return setup_s

    def setup(self) -> None:
        self.run.metrics["setup_s"] = metric(self.cold_start(), "s")

    def batch(self, last_dens, last_pot, blocks: int = 2):
        """q=8 multi-RHS blocks, the way serving uses the plan layer: seconds
        per column.  Column 0 of the first block repeats the last solo
        apply and must match it bit for bit."""
        times = []
        for k in range(blocks):
            block = self.density(Q_BATCH)
            if k == 0:
                block[:, 0] = last_dens
            out, dt = self.run.timed("batch", lambda: self.apply(block))
            if out is None:
                continue
            times.append(dt / Q_BATCH)
            if k == 0:
                self.run.check("multirhs_col0_bit_identical",
                               np.array_equal(out[:, 0], last_pot))
        return float(np.mean(times)) if times else None

    def measure(self) -> None:
        run = self.run
        setup_s = self.cold_start()
        dens = []

        def one(i):
            dens.append(self.density())
            return self.apply(dens[-1])

        applies, pot = run.loop("apply", one, 0.5 * run.seconds)
        col_s = self.batch(dens[-1], pot) if applies else None
        end_to_end(run, setup_s, timing_or_none(applies),
                   None if col_s is None else metric(col_s, "s"))

    # -- traced run --------------------------------------------------------------

    def trace(self) -> None:
        from repro.core import FmmPlan, build_lists, build_tree
        from repro.octree import points_to_octree
        from repro.util.timer import PhaseProfile

        run, spec, fmm, sp = self.run, self.run.spec, self.fmm, self.run.spans
        m = run.metrics
        run.prefault()

        with sp.span("octree.points_to_octree"):
            points_to_octree(self.pts, spec["q"])
        with sp.span("tree.build"):
            tree = build_tree(self.pts, spec["q"])
        with sp.span("lists.build"):
            lists = build_lists(tree)
        self.plan = FmmPlan(tree, lists)
        for name in ("octree.points_to_octree", "tree.build", "lists.build"):
            m[name + "_s"] = metric(sp.seconds(name)[0], "s")
        m["tree.nodes"] = metric(tree.n_nodes, "count")
        m["tree.leaves"] = metric(len(tree.leaf_indices), "count")
        m["tree.depth"] = metric(tree.max_level, "count")
        work = lists.work_summary()
        for key in ("u_pairs", "v_pairs", "w_pairs", "x_pairs"):
            m[f"lists.{key}"] = metric(work[key], "count")

        # first compile in the process, then a second with operators cached
        # (what a serve plan-cache miss pays); the first plan is dropped
        # before the second so both fill the same warm pages
        with sp.span("plan.compile_cold"):
            self.ep = fmm.compile_eval_plan(self.plan)
        self.ep = None
        with sp.span("plan.compile_warm"):
            self.ep = fmm.compile_eval_plan(self.plan)
        cold, warm = sp.seconds("plan.compile_cold")[0], sp.seconds("plan.compile_warm")[0]
        m["plan.compile_cold_s"] = metric(cold, "s")
        m["plan.compile_warm_s"] = metric(warm, "s")
        m["operators.precompute_s"] = metric(cold - warm, "s")

        dens0 = self.density()
        with sp.span("plan.first_apply"):
            pot0, first_s = run.timed("first_apply", lambda: self.apply(dens0))
        err = rel_err(fmm.kernel, self.pts, dens0, pot0, bl.rng_for(run.seed, 2))
        check_err(run, "rel_err", err, spec["err_ceiling"])
        m["accuracy.rel_err"] = metric(err, "rel")

        # untraced baseline, then the same applies under spans + profile
        budget = 0.2 * run.seconds
        plain, _ = run.loop("apply", lambda i: self.apply(self.density()), budget, 2)
        profile = PhaseProfile()
        profile.bind_trace(sp)
        dens = []

        def traced(i):
            dens.append(self.density())
            with sp.span("apply", sample=i):
                return self.apply(dens[-1], profile=profile)

        applies, pot = run.loop("traced_apply", traced, budget, 2)
        n = len(applies)
        apply_s = float(np.mean(plain))
        traced_s = float(np.mean(applies))
        m["plan.first_apply_extra_s"] = metric(first_s - apply_s, "s")
        m["trace.apply_s"] = timing(applies)
        m["trace.overhead_frac"] = metric(traced_s / apply_s - 1.0, "frac")
        phase_sum = 0.0
        for ph in bl.PHASES:
            ev = profile.events.get(ph)
            secs = ev.wall_seconds / n if ev else 0.0
            flops = ev.flops / n if ev else 0.0
            phase_sum += secs
            m[f"phase.{ph}.s"] = metric(secs, "s")
            m[f"phase.{ph}.flops"] = metric(flops, "flop")
            m[f"phase.{ph}.gflops"] = metric(flops / secs / 1e9 if secs else 0.0,
                                             "GFLOP/s")
        run.check("phases_sum_to_apply", abs(phase_sum / traced_s - 1.0) <= 0.05,
                  f"sum {phase_sum:.4f}s vs apply {traced_s:.4f}s")
        fft = fmm.evaluator.fft
        grid_bytes = fft.n * fft.n * fft.nf * 16
        m["phase.VLI.pairs"] = metric(work["v_pairs"], "count")
        # computed, not measured: source hat + kernel hat + accumulator per pair
        m["phase.VLI.bytes_computed"] = metric(work["v_pairs"] * grid_bytes * 3, "B")

        ep = self.ep
        m["plan.nbytes_mb"] = metric(ep.nbytes / 2**20, "MB")
        m["plan.matrix_mb"] = metric(ep.matrix_bytes() / 2**20, "MB")
        in_sections = 0
        for sec in ("uli", "s2u", "d2t", "xli"):
            blocks = getattr(ep, sec)
            cached = [b for b in blocks if b.kmat is not None]
            in_sections += sum(b.kmat.nbytes for b in cached)
            m[f"plan.cached_frac.{sec}"] = metric(
                len(cached) / len(blocks) if blocks else 1.0, "frac")
        m["plan.wli_cached_mb"] = metric(
            (ep.matrix_bytes() - in_sections) / 2**20, "MB")

        col_s = self.batch(dens[-1], pot, blocks=1)
        m["multirhs.col_s"] = metric(col_s or 0.0, "s")
        m["multirhs.col_ratio"] = metric((col_s or 0.0) / apply_s, "ratio")

        self.trace_threads(dens[-1], pot, apply_s, budget)
        self.trace_steps(dens[-1])
        m.update(bl.host_references(sp))

    def trace_threads(self, last_dens, last_pot, apply_s, budget) -> None:
        """The same applies on the ``threads=2`` tile pool."""
        run, m = self.run, self.run.metrics
        if bl.nproc() < 2:
            run.skip("threads2_bit_identical", "nproc<2")
            for name, unit in (("apply_mt_s", "s"), ("speedup", "ratio"),
                               ("bit_identical", "bool")):
                m[f"parallel.{name}"] = metric(0.0, unit)
            return
        self.fmm.evaluator.configure_threads(2)
        try:
            same, _ = run.timed("apply_mt", lambda: self.apply(last_dens))
            times, _ = run.loop("apply_mt",
                                lambda i: self.apply(self.density()), budget / 2, 2)
        finally:
            self.fmm.evaluator.configure_threads(None)
        ok = same is not None and np.array_equal(same, last_pot)
        run.check("threads2_bit_identical", ok)
        mt = float(np.mean(times)) if times else 0.0
        m["parallel.apply_mt_s"] = metric(mt, "s", n=len(times))
        m["parallel.speedup"] = metric(apply_s / mt if mt else 0.0, "ratio")
        m["parallel.bit_identical"] = metric(float(ok), "bool")

    def trace_steps(self, dens) -> None:
        """Seeded geometry steps through ``update_plan`` + ``patch_eval_plan``;
        the last patched plan must equal a fresh compile bit for bit."""
        run, m, sp, fmm = self.run, self.run.metrics, self.run.spans, self.fmm
        names = ("plan.update_s", "plan.update_tree_s", "plan.patch_s",
                 "plan.apply_after_patch_s")
        if not run.spec["steps"]:
            run.skip("patched_bit_identical", "workload has no geometry steps")
            for name in names:
                m[name] = metric(0.0, "s")
            m["plan.patch_reused_frac"] = metric(0.0, "frac")
            return
        rng = bl.rng_for(run.seed, 3)
        pts, plan, ep = self.pts, self.plan, self.ep
        reused = fresh = 0
        for k in range(run.spec["steps"]):
            new_pts, moved = bl.blob_step(rng, pts)
            run.attempted += 1
            try:
                with sp.span("plan.update_tree", sample=k):
                    new_plan, delta = fmm.update_plan(plan, new_pts, moved=moved)
                with sp.span("plan.patch", sample=k):
                    ep = fmm.patch_eval_plan(ep, plan, new_plan, delta=delta)
            except Exception as exc:  # boundary: count the step, keep going
                run.fail("geometry_step", f"{type(exc).__name__}: {exc}")
                continue
            pts, plan = new_pts, new_plan
            reused += ep.patch_stats.get("bytes_reused", 0)
            fresh += ep.patch_stats.get("bytes_fresh", 0)
        tree_s, patch_s = sp.seconds("plan.update_tree"), sp.seconds("plan.patch")
        done = max(len(patch_s), 1)
        m["plan.update_tree_s"] = metric(sum(tree_s) / done, "s")
        m["plan.patch_s"] = metric(sum(patch_s) / done, "s")
        m["plan.update_s"] = metric((sum(tree_s) + sum(patch_s)) / done, "s",
                                    n=len(patch_s))
        m["plan.patch_reused_frac"] = metric(
            reused / (reused + fresh) if reused + fresh else 0.0, "frac")
        self.pts, self.plan, self.ep = pts, plan, ep
        # the first apply on a patched plan (it recompiles the lazy W section)
        patched, after_s = run.timed("apply_after_patch", lambda: self.apply(dens))
        m["plan.apply_after_patch_s"] = metric(after_s, "s")
        self.ep = fmm.compile_eval_plan(plan)
        ref, _ = run.timed("fresh_apply", lambda: self.apply(dens))
        run.check("patched_bit_identical",
                  ref is not None and patched is not None
                  and np.array_equal(ref, patched))


# =============================================================================
# dist: DistributedFmm under run_spmd (ellipsoid_dist)
# =============================================================================

def _dist_setup(comm, spec, pts, dens):
    from repro import DistributedFmm
    from repro.dist.driver import match_owned_rows

    fmm = DistributedFmm(spec["kernel"], order=spec["order"],
                         max_points_per_box=spec["q"], load_balance=True)
    fmm.setup(comm, pts[comm.rank::comm.size])
    rows = match_owned_rows(pts, fmm.owned_points)
    return fmm, rows, fmm.evaluate(dens[rows])


def _dist_applies(comm, shards, dens_rng_seed, n_points, budget_s, min_n):
    """Warm evaluates on ranks that are already set up.  Rank 0 keeps the
    clock and tells the others when to stop; every evaluate is timed
    between barriers, so the time is the slowest rank's."""
    fmm, rows, _ = shards[comm.rank]
    fmm.rebind(comm)
    rng = bl.rng_for(*dens_rng_seed)
    times, pot, dens = [], None, None
    t_end = now() + budget_s
    while comm.bcast(len(times) < min_n or now() < t_end, root=0):
        dens = rng.standard_normal(n_points)
        comm.barrier()
        t0 = now()
        pot = fmm.evaluate(dens[rows])
        comm.barrier()
        times.append(now() - t0)
    return times, pot, dens


class Dist:
    def __init__(self, run: Run):
        from repro import get_kernel

        spec = run.spec
        self.run = run
        self.pts = bl.make_points(spec["points"], spec["n"], bl.rng_for(run.seed, 0))
        self.kernel = get_kernel(spec["kernel"])

    def gather(self, shards, pots) -> np.ndarray:
        out = np.full(len(self.pts), np.nan)
        for (_, rows, _), pot in zip(shards, pots):
            out[rows] = pot
        return out

    def cold_start(self, p: int):
        """Arrays in memory -> first answer: ``setup`` + first ``evaluate``
        inside ``run_spmd``, timed from outside."""
        from repro import run_spmd

        run = self.run
        dens = bl.rng_for(run.seed, 1, p).standard_normal(len(self.pts))
        t0 = now()
        res = run_spmd(p, _dist_setup, run.spec, self.pts, dens,
                       timeout=SPMD_TIMEOUT_S)
        setup_s = now() - t0
        run.attempted += 1
        pot = self.gather(res.values, [v[2] for v in res.values])
        if not np.isfinite(pot).all():
            run.fail("first_evaluate", "non-finite or unowned potentials")
        err = rel_err(self.kernel, self.pts, dens, pot, bl.rng_for(run.seed, 2))
        check_err(run, f"rel_err.p{p}", err, run.spec["err_ceiling"])
        return setup_s, err, res

    def setup(self) -> None:
        self.run.prefault()
        setup_s, _, _ = self.cold_start(min(self.run.spec["p"], bl.nproc()))
        self.run.metrics["setup_s"] = metric(setup_s, "s")

    def warm(self, p: int, shards, budget_s: float, min_n: int = 4, **kw):
        """(per-evaluate seconds, seconds per evaluate as the caller of one
        ``run_spmd`` dispatch sees it, result)."""
        from repro import run_spmd

        run = self.run
        t0 = now()
        res = run_spmd(p, _dist_applies, shards, (run.seed, 4, p), len(self.pts),
                       budget_s, min_n, timeout=SPMD_TIMEOUT_S, **kw)
        wall = now() - t0
        times, _, dens = res.values[0]
        run.attempted += len(times)
        pot = self.gather(shards, [v[1] for v in res.values])
        err = rel_err(self.kernel, self.pts, dens, pot, bl.rng_for(run.seed, 5))
        check_err(run, f"rel_err.warm.p{p}", err, run.spec["err_ceiling"])
        return times, wall / len(times), res

    def measure(self) -> None:
        run, p = self.run, min(self.run.spec["p"], bl.nproc())
        run.prefault()
        setup_s, _, res = self.cold_start(p)
        applies, per_dispatch_s, _ = self.warm(p, res.values, 0.8 * run.seconds)
        end_to_end(run, setup_s, timing_or_none(applies), metric(per_dispatch_s, "s"))

    def trace(self) -> None:
        from repro.mpi import KRAKEN
        from repro.perf.model import evaluation_phase_times

        run, m, sp = self.run, self.run.metrics, self.run.spans
        p = min(run.spec["p"], bl.nproc())
        run.prefault()
        budget = 0.2 * run.seconds

        with sp.span("dist.cold_start", sample=p):
            _, err, res = self.cold_start(p)
        m["accuracy.rel_err"] = metric(err, "rel")
        for name, phase in (("dist.setup.tree_s", "tree"), ("dist.setup.let_s", "let"),
                            ("dist.setup.lists_s", "lists"),
                            ("dist.setup.balance_s", "balance"),
                            ("dist.plan_compile_s", "setup:plan")):
            m[name] = metric(max(
                pr.events[phase].wall_seconds if phase in pr.events else 0.0
                for pr in res.profiles), "s")

        # the same evaluates without and with a span around the dispatch;
        # counts and modelled seconds use the Kraken alpha-beta constants
        # and are never compared with a wall-clock number
        plain, _, _ = self.warm(p, res.values, budget / 2, min_n=2)
        with sp.span("dist.warm", sample=p):
            times, _, warm = self.warm(p, res.values, budget / 2, min_n=2,
                                       machine=KRAKEN)
        n = len(times)
        m["trace.apply_s"] = timing(times)
        m["trace.overhead_frac"] = metric(np.mean(times) / np.mean(plain) - 1.0, "frac")
        for name, phase in (("comm_exchange", "COMM_exchange"),
                            ("comm_reduce", "COMM_reduce")):
            evs = [pr.events[phase] for pr in warm.profiles if phase in pr.events]
            m[f"dist.eval.{name}.msgs"] = metric(
                max((e.comm_messages for e in evs), default=0) / n, "count")
            m[f"dist.eval.{name}.bytes"] = metric(
                max((e.comm_bytes for e in evs), default=0) / n, "B")
        m["dist.eval.comm_wait_s"] = metric(max(
            sum(e.wall_seconds for k, e in pr.events.items() if k.startswith("COMM"))
            for pr in warm.profiles) / n, "s")
        flops = [sum(pr.events[ph].flops for ph in bl.PHASES if ph in pr.events)
                 for pr in warm.profiles]
        m["dist.eval.flops_imbalance"] = metric(max(flops) / np.mean(flops), "ratio")
        m["dist.modelled_eval_s.p2"] = metric(
            evaluation_phase_times(warm.profiles, KRAKEN)[0].max_seconds / n,
            "s", modelled=True)

        # strong scaling: the same problem on one rank
        with sp.span("dist.cold_start", sample=1):
            _, _, res1 = self.cold_start(1)
        with sp.span("dist.warm", sample=1):
            times1, _, _ = self.warm(1, res1.values, 0.0, min_n=2)
        del res1
        m["dist.apply_s.p1"] = timing(times1)
        m["dist.strong_eff_p2"] = metric(
            np.mean(times1) / (p * np.mean(times)), "ratio", p=p)

        # p=4 has more ranks than cores here: counts and modelled time only
        with sp.span("dist.cold_start", sample=4):
            _, _, res4 = self.cold_start(4)
        with sp.span("dist.warm", sample=4):
            times4, _, warm4 = self.warm(4, res4.values, 0.0, min_n=1, machine=KRAKEN)
        n4 = len(times4)
        red = [pr.events["COMM_reduce"] for pr in warm4.profiles]
        exc = [pr.events["COMM_exchange"] for pr in warm4.profiles]
        m["dist.p4.comm_reduce.msgs"] = metric(max(e.comm_messages for e in red) / n4, "count")
        m["dist.p4.comm_reduce.bytes"] = metric(max(e.comm_bytes for e in red) / n4, "B")
        m["dist.p4.comm_exchange.bytes"] = metric(max(e.comm_bytes for e in exc) / n4, "B")
        m["dist.modelled_eval_s.p4"] = metric(
            evaluation_phase_times(warm4.profiles, KRAKEN)[0].max_seconds / n4,
            "s", modelled=True)
        m.update(bl.host_references(sp))


# =============================================================================
# serve: ServeEngine under an open-loop schedule (serve_mixed)
# =============================================================================

def saturated(rows) -> tuple[float | None, dict]:
    """Seconds per reply of a phase offered more than the engine can serve:
    first request due -> last reply, over the replies.  Continuous, and set
    by the engine rather than by how many arrivals the seed drew."""
    done = [r["reply"] for r in rows if r.get("ok")]
    if not done:
        return None, {}
    span = max(done)
    return span / len(done), {"replies": len(done), "sent": len(rows),
                              "rps": len(done) / span}


def mix_latency(rows, mix) -> float:
    """Due-time -> reply latency of a request drawn from ``mix``: the median
    per model, weighted by the model's share.  The plain median would be a
    ``lap`` latency whatever ``stk`` did, and the mean follows the few
    slowest replies."""
    total = 0.0
    for name in set(mix):
        lat = [r["reply"] - r["due"] for r in rows
               if r.get("ok") and r["model"] == name]
        total += mix.count(name) / len(mix) * (float(np.median(lat)) if lat else 0.0)
    return total


class Model:
    """One served model: its Fmm, points, and density / reply sizes."""

    def __init__(self, ms: dict, rng):
        from repro import Fmm

        self.precision = ms["precision"]
        self.pts = bl.make_points(ms["points"], ms["n"], rng)
        self.fmm = Fmm(ms["kernel"], order=ms["order"],
                       max_points_per_box=ms["q"], precision=ms["precision"])
        self.n_in = ms["n"] * self.fmm.kernel.source_dim
        self.n_out = ms["n"] * self.fmm.kernel.target_dim
        self.registered = None


class Serve:
    def __init__(self, run: Run):
        self.run = run
        # served models are fixed assets: one draw each, whatever the seed
        # (3 000 uniform points at q=64 split a box on a third of all draws,
        # which grows a W-list and triples the Stokes latency); the seed
        # draws the traffic
        self.models = {
            name: Model(ms, bl.rng_for(2009, 1 + i))
            for i, (name, ms) in enumerate(run.spec["models"].items())}
        self.dens_rng = bl.rng_for(run.seed, 1)
        self.engine = None

    def density(self, name: str) -> np.ndarray:
        return self.dens_rng.standard_normal(self.models[name].n_in)

    def cold_start(self) -> tuple[float, float]:
        """Arrays in memory -> one reply per model: engine construction,
        both ``register(warm=True)``, ``start`` and the first replies."""
        from repro.serve import ServeEngine

        run = self.run
        run.prefault()
        dens = {name: self.density(name) for name in self.models}
        t0 = now()
        self.engine = eng = ServeEngine(n_workers=2, max_batch=Q_BATCH, max_wait_ms=2)
        for name, mdl in self.models.items():
            mdl.registered = eng.register(name, mdl.fmm, mdl.pts, warm=True,
                                          precision=mdl.precision)
        eng.start()
        reqs = {name: eng.submit(name, dens[name]) for name in self.models}
        pots = {name: req.result(timeout=60.0) for name, req in reqs.items()}
        setup_s = now() - t0
        run.attempted += len(pots)
        worst = 0.0
        for i, (name, mdl) in enumerate(self.models.items()):
            err = rel_err(mdl.fmm.kernel, mdl.pts, dens[name], pots[name],
                          bl.rng_for(run.seed, 2, i))
            check_err(run, f"rel_err.{name}", err, run.spec["err_ceiling"][name])
            worst = max(worst, err)
        return setup_s, worst

    def setup(self) -> None:
        try:
            self.run.metrics["setup_s"] = metric(self.cold_start()[0], "s")
        finally:
            if self.engine is not None:
                self.engine.stop()

    def send(self, row: dict, dens, t0: float, waiters: list) -> None:
        """Submit one request and hand its reply to a waiter thread, which
        stamps the arrival and checks the reply is finite and well shaped.
        A refusal at admission or a typed error is a miss with its cause."""
        row["sent"] = now() - t0

        def wait(req):
            try:
                pot = req.result(timeout=60.0)
                row["ok"] = (pot.shape == (self.models[row["model"]].n_out,)
                             and bool(np.isfinite(pot).all()))
                row["cause"] = "" if row["ok"] else "non-finite or misshaped reply"
            except Exception as exc:  # boundary: a typed rejection is a miss
                row["ok"], row["cause"] = False, f"{type(exc).__name__}: {exc}"
            row["reply"] = now() - t0
            row["wait_s"], row["batch"] = req.wait_s, req.batch_size

        try:
            req = self.engine.submit(row["model"], dens)
        except Exception as exc:  # boundary: refused at admission
            row.update(ok=False, cause=f"{type(exc).__name__}: {exc}",
                       reply=now() - t0, wait_s=0.0, batch=0)
            row["submit_s"] = row["reply"] - row["sent"]
            return
        row["submit_s"] = now() - t0 - row["sent"]
        th = threading.Thread(target=wait, args=(req,), daemon=True)
        th.start()
        waiters.append(th)

    def finish(self, phase: str, rows: list, waiters: list) -> list:
        for th in waiters:
            th.join(65.0)
        self.run.attempted += len(rows)
        for row in rows:
            if not row.get("ok"):
                self.run.fail(f"request.{phase}", row.get("cause", "no reply"))
        return rows

    def open_loop(self, phase: str, rate: float, duration: float, stream: int,
                  poisson: bool = True):
        """One generator thread submits ``rate * duration`` requests on a
        seeded schedule; each request is timed from the moment it was due,
        so a late generator or a stalled engine shows as latency.  Returns
        one row per request, after the last reply has arrived."""
        run = self.run
        sched = bl.schedule(bl.rng_for(run.seed, 6, stream), rate,
                            max(int(round(rate * duration)), 1), run.spec["mix"],
                            poisson)
        dens = [self.density(name) for _, name in sched]
        rows = [{"phase": phase, "model": name, "due": due} for due, name in sched]
        waiters: list = []

        def generate():
            for row, d in zip(rows, dens):
                delay = t0 + row["due"] - now()
                if delay > 0:
                    time.sleep(delay)
                self.send(row, d, t0, waiters)

        t0 = now()
        gen = threading.Thread(target=generate, daemon=True)
        gen.start()
        gen.join(2.0 * duration + 30.0)
        return self.finish(phase, rows, waiters)

    def closed_loop(self, n: int) -> list[float]:
        """``n`` lap requests one at a time through the same bookkeeping."""
        rows = []
        for _ in range(n):
            row, waiters = {"phase": "closed", "model": "lap", "due": 0.0}, []
            self.send(row, self.density("lap"), now(), waiters)
            rows += self.finish("closed", [row], waiters)
        return [r["reply"] - r["sent"] for r in rows if r.get("ok")]

    def measure(self) -> None:
        run, spec = self.run, self.run.spec
        setup_s, _ = self.cold_start()
        try:
            # A: a jittered fixed-rate clock, so latency is the request path
            # and not the luck of a burst; B: Poisson, above capacity
            rows_a = self.open_loop("A", spec["rate_a"], 0.65 * run.seconds, 0,
                                    poisson=False)
            rows_b = self.open_loop("B", spec["rate_b"], 0.15 * run.seconds, 1)
        finally:
            self.engine.stop()
        lat = [r["reply"] - r["due"] for r in rows_a if r.get("ok")]
        col_s, extra = saturated(rows_b)
        end_to_end(
            run, setup_s,
            {**timing(lat), "value": mix_latency(rows_a, spec["mix"])} if lat else None,
            None if col_s is None else metric(col_s, "s", **extra))

    def trace(self) -> None:
        run, spec, m, sp = self.run, self.run.spec, self.run.metrics, self.run.spans
        _, err = self.cold_start()
        eng = self.engine
        m["accuracy.rel_err"] = metric(err, "rel")
        try:
            # the same registered model through Fmm.evaluate, engine idle
            solo = {}
            cached = eng.plans.entries()
            for name, mdl in self.models.items():
                ep = eng.plans.peek(next(k for k in cached if k.split("@")[0] == name))
                times, _ = run.loop(
                    f"solo_apply.{name}",
                    lambda i: mdl.fmm.evaluate(mdl.pts, self.density(name),
                                               plan=mdl.registered.plan,
                                               eval_plan=ep), 0.0)
                solo[name] = float(np.median(times))
                m[f"serve.solo_apply_s.{name}"] = metric(solo[name], "s", n=len(times))

            # one request at a time: bare evaluate() against the same
            # request with the waiter-thread bookkeeping spans are built from
            bare, _ = run.loop(
                "closed", lambda i: eng.evaluate("lap", self.density("lap")), 0.0, 6)
            booked = self.closed_loop(6)
            m["trace.overhead_frac"] = metric(
                np.median(booked) / np.median(bare) - 1.0 if booked else 0.0, "frac")

            # phase A doubles as the lowest step of the rate sweep
            phases = {}
            for stream, (rate, share) in enumerate(
                    [(spec["rate_a"], 0.4)] + [(r, 0.2) for r in spec["sweep"]]):
                phases[rate] = self.open_loop(f"r{rate:g}", rate, share * run.seconds,
                                              stream, poisson=stream > 0)
            rows_b = self.open_loop("B", spec["rate_b"], 0.05 * run.seconds, 8)
            snap = eng.metrics.snapshot()
        finally:
            eng.stop()

        every = [r for rows in phases.values() for r in rows] + rows_b
        for i, r in enumerate(every):
            rid = f"{r['phase']}-{i}"
            top = sp.add("serve.request", r["due"], r["reply"], None, rid)
            sp.add("serve.submit", r["sent"], r["sent"] + r["submit_s"], top, rid)
            sp.add("serve.queue_wait", r["sent"], r["sent"] + r["wait_s"], top, rid)
            sp.add("serve.service", r["sent"] + r["wait_s"], r["reply"], top, rid)

        ok_a = [r for r in phases[spec["rate_a"]] if r.get("ok")]
        lat = [r["reply"] - r["due"] for r in ok_a] or [0.0]
        waits = [r["wait_s"] for r in ok_a] or [0.0]
        m["trace.apply_s"] = timing(lat)
        m["serve.latency_mix_s"] = metric(
            mix_latency(phases[spec["rate_a"]], spec["mix"]), "s")
        m["serve.latency_p50_s"] = metric(np.median(lat), "s", n=len(lat))
        m["serve.queue_wait_s.p50"] = metric(np.median(waits), "s")
        for name, values in (("serve.latency_tail_s", lat),
                             ("serve.queue_wait_s.tail", waits)):
            value, pct = bl.tail(values)
            m[name] = metric(value, "s", tail_pct=round(pct, 1))
        m["serve.submit_s"] = metric(np.mean([r["submit_s"] for r in every]), "s")
        for label, rows in (("A", ok_a), ("B", rows_b)):
            sizes = [r["batch"] for r in rows if r.get("ok")]
            m[f"serve.batch_size.mean.{label}"] = metric(
                np.mean(sizes) if sizes else 0.0, "count")
        m["serve.rps.B"] = metric(saturated(rows_b)[1].get("rps", 0.0), "1/s",
                                  sent=len(rows_b))
        for name in self.models:
            svc = [r["reply"] - r["sent"] - r["wait_s"] for r in ok_a
                   if r["model"] == name and r["batch"] == 1]
            service = float(np.median(svc)) if svc else 0.0
            m[f"serve.service_s.{name}"] = metric(service, "s", n=len(svc))
            m[f"serve.overhead_ratio.{name}"] = metric(service / solo[name], "ratio")
        m["serve.plan_cache.hit_rate"] = metric(snap["plan_cache"]["hit_rate"] or 0.0,
                                                "frac")
        for key in ("rejected", "expired", "retried"):
            m[f"serve.{key}"] = metric(snap[key], "count")
        m["serve.loadgen.late_max_s"] = metric(
            max(r["sent"] - r["due"] for r in every), "s")
        m["serve.max_rate_ok_rps"] = metric(
            max((rate for rate, rows in phases.items()
                 if sustained(rows, spec["tail_limit_s"])), default=0.0),
            "1/s", limit_s=spec["tail_limit_s"])
        m.update(bl.host_references(sp))


def sustained(rows, limit_s: float) -> bool:
    """A rate is met when every request was answered, the tail latency is
    within the limit, and the backlog did not grow: the last quarter of the
    phase waited no more than twice as long as the phase as a whole."""
    lat = [r["reply"] - r["due"] for r in rows if r.get("ok")]
    if not lat or len(lat) < len(rows):
        return False
    last = lat[-max(len(lat) // 4, 1):]
    return (bl.tail(lat)[0] <= limit_s
            and np.median(last) <= 2.0 * np.median(lat) + 0.05)


KINDS = {"solo": Solo, "dist": Dist, "serve": Serve}


def main() -> int:
    job = json.loads(sys.argv[1])
    run = Run(job)
    try:
        getattr(KINDS[run.spec["kind"]](run), job["mode"])()
    except Exception as exc:  # boundary: the parent counts the child as failed
        traceback.print_exc()
        run.fail("child", f"{type(exc).__name__}: {exc}")
        run.check("child_completed", False, type(exc).__name__)
    print("BENCH_RESULT " + json.dumps(run.record(), default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
