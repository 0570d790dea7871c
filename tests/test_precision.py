"""Precision axis of the plan-compiled engine.

Covers the contract the precision feature is sold on:

* **fp64 is bit-identical** to the pre-precision engine: plan applies,
  multi-RHS blocks, distributed runs and checkpoint resumes all produce
  exactly the bytes the fp64 path always produced.
* **fp32 is a bounded accuracy trade**: across kernels and orders the
  fp32 error stays within a documented factor of fp64 (10x, or inside
  the float32 accuracy floor when truncation error is already below it),
  and is deterministic run-to-run.
* **auto never violates its target**: the calibration probe may pick
  either precision, but the end-to-end error always meets ``rtol``.
* **misuse fails typed**: fp32 without a plan, conflicting overrides,
  and disallowed serve-side precisions raise
  :class:`~repro.core.plan.PrecisionError`.
"""

import numpy as np
import pytest

from repro.tune.probe import autotune_precision
from repro.core.fmm import Fmm
from repro.core.plan import PrecisionError
from repro.core.evaluator import FmmEvaluator
from repro.datasets import ellipsoid_surface, uniform_cube
from repro.kernels import direct_sum, get_kernel
from repro.util.timer import PhaseProfile

#: fp32 may lose up to this factor over fp64 before we call it broken.
ERR_FACTOR = 10.0
#: Relative-error floor of float32 arithmetic on these sums; when the
#: fp64 error is already below it (high orders), fp32 lands here.
F32_FLOOR = 5e-5


def _dens_for(kernel, n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n * kernel.source_dim)


def _rel_err(kernel, points, dens, pot):
    ref = direct_sum(kernel, points, points, dens)
    return np.linalg.norm(pot - ref) / np.linalg.norm(ref)


class TestAccuracyLadder:
    """fp32 error within a documented factor of fp64, per kernel/order."""

    @pytest.mark.parametrize("kernel_name,n", [
        ("laplace", 900), ("stokes", 500), ("yukawa", 900),
    ])
    @pytest.mark.parametrize("order", [4, 6, 8])
    def test_fp32_within_factor_of_fp64(self, kernel_name, n, order):
        kernel = get_kernel(kernel_name)
        points = uniform_cube(n, seed=order)
        dens = _dens_for(kernel, n, seed=7)
        fmm = Fmm(kernel_name, order=order, max_points_per_box=40)
        plan = fmm.plan(points)
        errs = {}
        for prec in ("fp64", "fp32"):
            ep = fmm.compile_eval_plan(plan, precision=prec)
            pot = fmm.evaluate(points, dens, plan=plan, eval_plan=ep)
            errs[prec] = _rel_err(kernel, points, dens, pot)
        assert errs["fp32"] <= max(ERR_FACTOR * errs["fp64"], F32_FLOOR), (
            f"{kernel_name} order {order}: fp32 err {errs['fp32']:.2e} vs "
            f"fp64 {errs['fp64']:.2e}"
        )

    def test_auto_meets_target(self):
        # generous target: either pick qualifies, auto must still meet it
        kernel = get_kernel("laplace")
        n = 1_200
        points = ellipsoid_surface(n, seed=3)
        dens = _dens_for(kernel, n, seed=3)
        rtol = 1e-3
        fmm = Fmm("laplace", order=6, max_points_per_box=40,
                  precision="auto", precision_rtol=rtol)
        plan = fmm.plan(points)
        ep = fmm.compile_eval_plan(plan)
        assert ep.precision in ("fp64", "fp32")
        pot = fmm.evaluate(points, dens, plan=plan, eval_plan=ep)
        assert _rel_err(kernel, points, dens, pot) <= rtol

    def test_auto_unsatisfiable_target_falls_back_to_fp64(self):
        points = uniform_cube(1_000, seed=4)
        res = autotune_precision(points, kernel="laplace", order=4, rtol=1e-14)
        assert res.best == "fp64"
        assert not res.met
        assert set(res.errors) == {"fp64", "fp32"}

    def test_probe_ranks_both_precisions(self):
        points = uniform_cube(1_000, seed=5)
        res = autotune_precision(points, kernel="laplace", order=4, rtol=1e-3)
        assert res.met
        assert set(res.errors) == {"fp64", "fp32"}

    def test_auto_pick_ignores_the_clock(self, monkeypatch):
        """fp32 clears the target, so it is picked even when the fp64
        probe apply is timed faster: the pick reads errors, not seconds."""
        import repro.tune.probe as probe_mod

        real = probe_mod.time_applies

        def fp64_faster(ev, tree, lists, dens, plan, *args):
            _, pot, prof = real(ev, tree, lists, dens, plan, *args)
            return (1e-6 if plan.precision == "fp64" else 1.0), pot, prof

        monkeypatch.setattr(probe_mod, "time_applies", fp64_faster)
        points = uniform_cube(1_000, seed=5)
        res = autotune_precision(points, kernel="laplace", order=4, rtol=1e-3)
        assert res.met and res.best == "fp32"


class TestFp64BitIdentity:
    """precision='fp64' must be byte-for-byte the pre-precision engine."""

    def test_explicit_fp64_is_the_default(self):
        n = 1_500
        points = uniform_cube(n, seed=11)
        fmm = Fmm("laplace", order=4, max_points_per_box=40)
        dens = _dens_for(fmm.kernel, n, seed=11)
        plan = fmm.plan(points)
        default = fmm.evaluate(points, dens, plan=plan)
        ep = fmm.compile_eval_plan(plan, precision="fp64")
        assert ep.precision == "fp64"
        planned = fmm.evaluate(points, dens, plan=plan, eval_plan=ep)
        np.testing.assert_array_equal(planned, default)
        assert _rel_err(fmm.kernel, points, dens, planned) < 1e-3

    def test_multi_rhs_matches_columns(self):
        n = 1_000
        points = uniform_cube(n, seed=12)
        fmm = Fmm("laplace", order=4, max_points_per_box=40)
        rng = np.random.default_rng(12)
        block = rng.standard_normal((n, 3))
        plan = fmm.plan(points)
        ep = fmm.compile_eval_plan(plan, precision="fp64")
        pot = fmm.evaluate(points, block, plan=plan, eval_plan=ep)
        for j in range(block.shape[1]):
            solo = fmm.evaluate(
                points, np.ascontiguousarray(block[:, j]),
                plan=plan, eval_plan=ep,
            )
            np.testing.assert_array_equal(pot[:, j], solo)

    @pytest.mark.parametrize("p", [1, 4])
    def test_distributed_fp64_identical_to_default(self, p):
        from repro.dist.driver import distributed_fmm_rank
        from repro.mpi import run_spmd

        pts = uniform_cube(1_200, seed=13)

        def densfn(q):
            return np.sin(17 * q[:, 0]) + q[:, 2]

        def fn(comm, **kw):
            own, pot, _ = distributed_fmm_rank(
                comm, pts, densfn, kernel="laplace", order=4,
                max_points_per_box=40, **kw,
            )
            return pot

        base = run_spmd(p, fn, timeout=300)
        explicit = run_spmd(p, fn, timeout=300, precision="fp64")
        for r in range(p):
            np.testing.assert_array_equal(
                explicit.values[r], base.values[r]
            )

    def test_checkpoint_resume_bit_identical(self):
        from repro.dist.driver import DistributedFmm
        from repro.mpi import run_spmd

        pts = ellipsoid_surface(1_000, seed=14)

        def fn(comm, precision):
            fmm = DistributedFmm(
                order=4, max_points_per_box=40, precision=precision
            )
            fmm.setup(comm, pts[comm.rank :: comm.size])
            own = fmm.owned_points
            dens = np.sin(9 * own[:, 0]) + own[:, 1]
            first = fmm.evaluate(dens)
            resumed = fmm.evaluate(dens, resume=True)
            return first, resumed

        for prec in ("fp64", "fp32"):
            res = run_spmd(4, fn, prec, timeout=300)
            for first, resumed in res.values:
                np.testing.assert_array_equal(first, resumed)


class TestFp32Behaviour:
    def test_fp32_deterministic(self):
        n = 1_200
        points = uniform_cube(n, seed=21)
        fmm = Fmm("laplace", order=4, max_points_per_box=40)
        dens = _dens_for(fmm.kernel, n, seed=21)
        plan = fmm.plan(points)
        ep = fmm.compile_eval_plan(plan, precision="fp32")
        a = fmm.evaluate(points, dens, plan=plan, eval_plan=ep)
        b = fmm.evaluate(points, dens, plan=plan, eval_plan=ep)
        np.testing.assert_array_equal(a, b)

    def test_fp32_plan_smaller(self):
        points = uniform_cube(1_500, seed=22)
        fmm = Fmm("laplace", order=6, max_points_per_box=40)
        plan = fmm.plan(points)
        ep64 = fmm.compile_eval_plan(plan, precision="fp64")
        ep32 = fmm.compile_eval_plan(plan, precision="fp32")
        assert ep32.matrix_bytes() * 2 == ep64.matrix_bytes()
        assert ep32.nbytes < 0.75 * ep64.nbytes

    def test_fp32_serves_the_first_call(self):
        # call one compiles the plan at the requested precision and
        # applies it without filling a block; call two fills it, as for
        # fp64, and compiles nothing
        n = 800
        points = uniform_cube(n, seed=23)
        fmm = Fmm("laplace", order=4, max_points_per_box=40,
                  precision="fp32")
        dens = _dens_for(fmm.kernel, n, seed=23)
        plan = fmm.plan(points)
        prof = PhaseProfile()
        pot = fmm.evaluate(points, dens, plan=plan, profile=prof)
        assert prof.precision == "fp32"
        compile_s = prof.events["setup:plan"].wall_seconds
        kept = fmm.evaluator._plan_obj
        assert kept.precision == "fp32"
        assert all(b.kmat.array is None for b in kept.uli)
        ep = fmm.compile_eval_plan(plan)
        assert ep.precision == "fp32"
        np.testing.assert_array_equal(
            pot, fmm.evaluate(points, dens, plan=plan, eval_plan=ep)
        )
        fmm.evaluate(points, dens, plan=plan, profile=prof)
        assert prof.events["setup:plan"].wall_seconds == compile_s
        assert fmm.evaluator._plan_obj is kept
        assert all(b.kmat.array.dtype == np.float32 for b in kept.uli)

    def test_fp32_reaches_separate_targets(self):
        # evaluate_targets resolves its plan like evaluate: an fp32 Fmm
        # runs the upward/downward phases in float32, not silently fp64
        n = 800
        points = uniform_cube(n, seed=25)
        targets = uniform_cube(60, seed=26)
        dens = _dens_for(get_kernel("laplace"), n, seed=25)
        pots, profs = {}, {}
        for prec in ("fp64", "fp32"):
            fmm = Fmm("laplace", order=6, max_points_per_box=40,
                      precision=prec)
            profs[prec] = PhaseProfile()
            pots[prec] = fmm.evaluate_targets(
                points, dens, targets, profile=profs[prec]
            )
            assert profs[prec].precision == prec
        assert not np.array_equal(pots["fp32"], pots["fp64"])
        ref = direct_sum(get_kernel("laplace"), targets, points, dens)
        err = np.linalg.norm(pots["fp32"] - ref) / np.linalg.norm(ref)
        assert err < F32_FLOOR

    def test_gpu_fp32_uses_plan_buffers(self):
        from repro.core.lists import build_lists
        from repro.core.tree import build_tree
        from repro.gpu.accel import GpuFmmEvaluator

        n = 1_000
        points = uniform_cube(n, seed=24)
        kernel = get_kernel("laplace")
        ev = GpuFmmEvaluator(kernel, 4, precision="fp32")
        tree = build_tree(points, 40)
        lists = build_lists(tree)
        dens = _dens_for(kernel, n, seed=24)[tree.order]
        plan = ev.compile_plan(tree, lists)
        assert plan.precision == "fp32"
        a = ev.evaluate(tree, lists, dens, plan=plan)
        b = ev.evaluate(tree, lists, dens, plan=plan)
        np.testing.assert_array_equal(a, b)
        # host and device read the evaluator's one complex64 offset table
        assert plan.vli_table_bytes == ev.fft.offset_table(2, np.complex64)[0].nbytes


class TestTypedErrors:
    def test_invalid_precision_rejected(self):
        with pytest.raises(PrecisionError, match="precision"):
            Fmm("laplace", order=4, precision="fp16")
        with pytest.raises(PrecisionError, match="precision"):
            FmmEvaluator(get_kernel("laplace"), 4, precision="double")

    def test_conflicting_plan_override_rejected(self):
        n = 600
        points = uniform_cube(n, seed=32)
        fmm = Fmm("laplace", order=4, max_points_per_box=40)
        dens = _dens_for(fmm.kernel, n, seed=32)
        plan = fmm.plan(points)
        ep64 = fmm.compile_eval_plan(plan, precision="fp64")
        with pytest.raises(PrecisionError, match="fp32"):
            fmm.evaluator.evaluate(plan.tree, plan.lists, dens[plan.tree.order],
                                   plan=ep64, precision="fp32")


class TestServePrecision:
    def _engine_and_model(self, **reg_kwargs):
        from repro.serve import ServeEngine

        n = 800
        points = uniform_cube(n, seed=41)
        fmm = Fmm("laplace", order=4, max_points_per_box=40)
        eng = ServeEngine(n_workers=1, max_batch=4, max_wait_ms=5.0)
        eng.register("m", fmm, points, **reg_kwargs)
        return eng, n

    def test_fp32_model_serves_and_caches_separately(self):
        eng, n = self._engine_and_model(precision="fp32")
        rng = np.random.default_rng(41)
        d = rng.standard_normal(n)
        with eng:
            p32 = eng.evaluate("m", d, timeout_s=60.0)
            p64 = eng.evaluate("m", d, timeout_s=60.0, precision="fp64")
        assert not np.array_equal(p32, p64)  # genuinely different plans
        stats = eng.plan_stats()["m"]
        assert stats["precision"] == "fp32"
        assert set(stats["plan_bytes"]) == {"fp64", "fp32"}
        assert stats["plan_bytes"]["fp32"] < stats["plan_bytes"]["fp64"]

    def test_disallowed_precision_rejected_typed(self):
        eng, n = self._engine_and_model(
            precision="fp32", allowed={"fp32"}
        )
        with pytest.raises(PrecisionError, match="allow"):
            eng.submit("m", np.zeros(n), precision="fp64")

    def test_default_outside_allowed_rejected(self):
        from repro.serve import ServeEngine

        points = uniform_cube(500, seed=42)
        eng = ServeEngine(n_workers=1)
        with pytest.raises(PrecisionError, match="allowed"):
            eng.register("m", Fmm("laplace", order=4), points,
                         precision="fp64", allowed={"fp32"})

    def test_batches_never_mix_precisions(self):
        from repro.serve.scheduler import FairQueue, Request

        q = FairQueue(max_depth=16)
        for prec in ("fp64", "fp64", "fp32", "fp32"):
            q.push(Request("m", np.zeros(1), precision=prec))
        head = q.pop()
        assert head.precision == "fp64"
        taken = q.take_matching("m", 8, precision=head.precision)
        # Only the head run of matching requests is taken: the second
        # fp64 joins the batch, the fp32 pair behind it stays queued
        # (FIFO order within a tenant is never reordered).
        assert [r.precision for r in taken] == ["fp64"]
        assert q.depth == 2
        assert q.take_matching("m", 8, precision="fp64") == []


class TestChaosFp32:
    def test_fp32_survives_retries_bit_identically(self):
        from repro.dist.driver import DistributedFmm
        from repro.mpi import run_spmd_resilient
        from repro.mpi.faults import Fault, FaultPlan, RetryPolicy

        pts = ellipsoid_surface(900, seed=51)

        def body(comm, state):
            if "fmm" not in state:
                fmm = DistributedFmm(
                    order=4, max_points_per_box=40, precision="fp32"
                )
                fmm.setup(comm, pts[comm.rank :: comm.size])
                state["fmm"] = fmm
                own = fmm.owned_points
                state["dens"] = np.sin(11 * own[:, 0]) + own[:, 2]
            else:
                fmm = state["fmm"]
                fmm.rebind(comm)
            return fmm.evaluate(state["dens"], resume=True)

        def run(faults=None):
            return run_spmd_resilient(
                4, body, policy=RetryPolicy(max_attempts=3),
                faults=faults, rank_state=True, timeout=120.0,
            )

        base = run()
        faults = FaultPlan(
            [Fault("crash", rank=1, op="phase", phase="VLI", attempts=1)],
            seed=5,
        )
        faulted = run(faults=faults)
        assert faulted.attempts > 1
        for r in range(4):
            np.testing.assert_array_equal(
                faulted.values[r], base.values[r]
            )
        again = run()
        for r in range(4):
            np.testing.assert_array_equal(again.values[r], base.values[r])


class TestTracePrecision:
    def test_spans_carry_precision(self, tmp_path):
        from repro.perf.trace import TraceRecorder

        n = 800
        points = uniform_cube(n, seed=61)
        fmm = Fmm("laplace", order=4, max_points_per_box=40,
                  precision="fp32")
        dens = _dens_for(fmm.kernel, n, seed=61)
        rec = TraceRecorder()
        prof = PhaseProfile()
        prof.bind_trace(rec, rank=0)
        plan = fmm.plan(points, profile=prof)
        fmm.evaluate(points, dens, plan=plan, profile=prof)
        phases = {ev.phase for ev in rec.span_events()}
        assert "VLI" in phases
        eval_spans = [ev for ev in rec.span_events() if ev.phase == "VLI"]
        assert all(ev.precision == "fp32" for ev in eval_spans)

        # JSONL roundtrip preserves the field; signatures match
        out = tmp_path / "trace.jsonl"
        rec.write_jsonl(str(out))
        back = TraceRecorder.read_jsonl(str(out))
        assert back.signature() == rec.signature()

    def test_old_traces_without_precision_still_load(self):
        from repro.perf.trace import TraceRecorder

        rec = TraceRecorder.from_records([
            {"kind": "span", "rank": 0, "phase": "VLI", "wall_s": 0.1,
             "flops": 10.0, "comm_messages": 0, "comm_bytes": 0.0,
             "comm_s": 0.0, "aborted": False},
        ])
        assert rec.span_events()[0].precision == "fp64"
