"""Pipelined (overlapped) vs sequential distributed evaluation.

The ISSUE acceptance criteria for the nonblocking runtime:

* pipelined ``DistributedFmm.evaluate`` is **bit-identical** to the
  sequential schedule at p in {1, 4, 8}, for fp64 and fp32 plans, with
  and without checkpoint resume — the overlap reorders *when* messages
  fly, never *what* is computed (X-list adds are deferred to their
  sequential position);
* per-rank ledger totals (``messages_sent`` / ``bytes_sent``) are
  unchanged between the two schedules — the same messages move, only
  earlier;
* a pipelined run emits ``INFLIGHT:*`` trace spans that
  :func:`repro.perf.model.overlap_report` turns into achieved-overlap
  seconds; a sequential run emits none.
"""

import numpy as np
import pytest

from repro.datasets import ellipsoid_surface, uniform_cube
from repro.dist.driver import DistributedFmm, distributed_fmm_rank
from repro.mpi import LOCAL, run_spmd
from repro.perf.model import (
    achieved_overlap_seconds,
    overlap_report,
    overlapped_eval_seconds,
)


def densfn(p):
    return np.sin(17 * p[:, 0]) + p[:, 2] * np.cos(9 * p[:, 1])


def _run(pts, p, **kwargs):
    res = run_spmd(
        p, distributed_fmm_rank, pts, densfn, timeout=560,
        machine=LOCAL, trace=True, **kwargs,
    )
    opts = np.concatenate([v[0] for v in res.values])
    opot = np.concatenate([v[1] for v in res.values])
    return opts, opot, res


FMM_KW = dict(kernel="laplace", order=4, max_points_per_box=30)


class TestBitIdentity:
    @pytest.mark.parametrize("p", [1, 4, 8])
    @pytest.mark.parametrize("precision", ["fp64", "fp32"])
    def test_pipelined_equals_sequential(self, p, precision):
        pts = uniform_cube(1500, seed=41)
        kw = dict(FMM_KW, precision=precision)
        opts_s, pot_s, res_s = _run(pts, p, pipeline=False, **kw)
        opts_p, pot_p, res_p = _run(pts, p, pipeline=True, **kw)
        np.testing.assert_array_equal(opts_s, opts_p)
        assert np.array_equal(pot_s, pot_p)  # bitwise, not allclose
        # same messages moved, only earlier: per-rank ledgers unchanged
        for cs, cp in zip(res_s.comms, res_p.comms):
            assert cs.messages_sent == cp.messages_sent
            assert cs.bytes_sent == cp.bytes_sent

    @pytest.mark.parametrize("scheme", ["hypercube", "owner"])
    def test_both_reduce_schemes(self, scheme):
        pts = ellipsoid_surface(1200, seed=42)
        _, pot_s, _ = _run(pts, 4, pipeline=False, comm_scheme=scheme, **FMM_KW)
        _, pot_p, _ = _run(pts, 4, pipeline=True, comm_scheme=scheme, **FMM_KW)
        assert np.array_equal(pot_s, pot_p)


class TestCheckpointResume:
    @pytest.mark.parametrize("pipeline", [False, True])
    def test_resume_matches_fresh_eval(self, pipeline):
        """Resume after the checkpoint cut is bit-identical under both
        schedules (a resumed evaluation skips the overlapped phases
        entirely — nothing is in flight at the checkpoint)."""
        pts = uniform_cube(1200, seed=44)

        def body(comm):
            mine = pts[comm.rank :: comm.size]
            fmm = DistributedFmm(pipeline=pipeline, **FMM_KW)
            fmm.setup(comm, mine)
            dens = densfn(fmm.owned_points)
            fresh = fmm.evaluate(dens)
            assert fmm.checkpoint_phase == "upward"
            resumed = fmm.evaluate(dens, resume=True)
            return fresh, resumed

        res = run_spmd(4, body, timeout=560)
        for fresh, resumed in res.values:
            assert np.array_equal(fresh, resumed)

    def test_resumed_equals_sequential_schedule(self):
        pts = uniform_cube(1200, seed=45)

        def body(comm, pipeline):
            mine = pts[comm.rank :: comm.size]
            fmm = DistributedFmm(pipeline=pipeline, **FMM_KW)
            fmm.setup(comm, mine)
            dens = densfn(fmm.owned_points)
            fmm.evaluate(dens)
            return fmm.evaluate(dens, resume=True)

        seq = run_spmd(4, body, False, timeout=560)
        pip = run_spmd(4, body, True, timeout=560)
        for a, b in zip(seq.values, pip.values):
            assert np.array_equal(a, b)


class TestInflightSpans:
    def test_pipelined_run_emits_inflight_spans(self):
        pts = uniform_cube(1500, seed=46)
        _, _, res_p = _run(pts, 4, pipeline=True, **FMM_KW)
        _, _, res_s = _run(pts, 4, pipeline=False, **FMM_KW)
        spans_p = [
            ev for ev in res_p.trace.span_events()
            if ev.phase.startswith("INFLIGHT:")
        ]
        spans_s = [
            ev for ev in res_s.trace.span_events()
            if ev.phase.startswith("INFLIGHT:")
        ]
        assert not spans_s  # sequential schedule keeps nothing in flight
        labels = {ev.phase for ev in spans_p}
        assert labels == {"INFLIGHT:COMM_exchange", "INFLIGHT:COMM_reduce"}
        # every rank flew both groups
        for r in range(4):
            assert len([ev for ev in spans_p if ev.rank == r]) == 2
        # the in-flight groups carried real messages at modelled cost
        assert all(ev.comm_messages > 0 and ev.comm_s > 0 for ev in spans_p)
        # and real compute ran while they were airborne
        assert any(ev.flops > 0 for ev in spans_p)

    def test_achieved_overlap_and_report(self):
        pts = uniform_cube(1500, seed=47)
        _, _, res_p = _run(pts, 4, pipeline=True, **FMM_KW)
        hidden = achieved_overlap_seconds(res_p.trace, LOCAL)
        assert set(hidden) == {0, 1, 2, 3}
        assert all(h > 0 for h in hidden.values())
        rep = overlap_report(res_p.profiles, LOCAL, trace=res_p.trace)
        assert rep["modelled_overlapped"] < rep["sequential"]
        assert rep["sequential"] - rep["hidden_max"] <= rep["achieved"]
        assert rep["achieved"] <= rep["sequential"]

    def test_modelled_overlap_matches_between_schedules(self):
        """Ledger equality makes the *model* schedule-independent: the
        modelled overlapped/sequential bounds agree whichever schedule
        actually ran."""
        pts = uniform_cube(1500, seed=48)
        _, _, res_s = _run(pts, 4, pipeline=False, **FMM_KW)
        _, _, res_p = _run(pts, 4, pipeline=True, **FMM_KW)
        ovl_s, seq_s = overlapped_eval_seconds(res_s.profiles, LOCAL)
        ovl_p, seq_p = overlapped_eval_seconds(res_p.profiles, LOCAL)
        assert ovl_s == pytest.approx(ovl_p, rel=1e-12)
        assert seq_s == pytest.approx(seq_p, rel=1e-12)
        assert ovl_p < seq_p  # overlap strictly helps at p = 4
