"""Tests for the online autotuner: cost model, search, store, monitor,
serving integration and the distributed collective config vote."""

import numpy as np
import pytest

from repro import Fmm
from repro.tune.probe import SubsampleProbe, autotune_precision
from repro.core.evaluator import FmmEvaluator
from repro.core.lists import build_lists
from repro.core.plan import compile_plan
from repro.core.tree import build_tree
from repro.datasets import ellipsoid_surface, plummer_cluster, uniform_cube
from repro.dist.driver import DistributedFmm
from repro.kernels import get_kernel
from repro.mpi import run_spmd
from repro.serve import ServeEngine
from repro.serve.metrics import ServeMetrics
from repro.tune import phase_flops, plan_bytes_estimate
from repro.tune.cost import CostModel
from repro.tune.monitor import SloMonitor
from repro.tune.search import (
    SLO,
    TuneConfig,
    default_grid,
    propose_config,
    tune,
)
from repro.tune.store import TuneStore, geometry_fingerprint
from tests.test_gpu import _HOSTILE

SEED = 0


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(SEED).random((900, 3))


#: A grid whose winner dominates by construction (order 4 strictly beats
#: order 6 on cost at equal accuracy-feasibility), so selection does not
#: hinge on sub-noise measured differences.
def tiny_grid():
    return default_grid(
        900, orders=(4, 6), leaf_sizes=(64,), precisions=("fp64",),
        batch_shapes=((4, 1.0),),
    )


class TestCostModel:
    def test_phase_flops_positive(self, points):
        ev = FmmEvaluator(get_kernel("laplace"), 4)
        tree = build_tree(points, 64)
        lists = build_lists(tree)
        flops = phase_flops(ev, tree, lists)
        assert set(flops) == {"S2U", "U2U", "VLI", "XLI", "D2D", "WLI",
                              "D2T", "ULI"}
        assert flops["ULI"] > 0 and flops["S2U"] > 0 and flops["VLI"] > 0

    def test_plan_bytes_scale_with_precision(self, points):
        ev = FmmEvaluator(get_kernel("laplace"), 4)
        tree = build_tree(points, 64)
        lists = build_lists(tree)
        b64 = plan_bytes_estimate(ev, tree, lists, "fp64", 2**30)
        b32 = plan_bytes_estimate(ev, tree, lists, "fp32", 2**30)
        assert 0 < b32 < b64

    def test_calibrated_predictions_positive(self, points):
        probe = SubsampleProbe(points, sample=500, seed=SEED)
        model = CostModel()
        model.calibrate(
            probe, lambda p: FmmEvaluator(probe.kernel, 4, precision=p),
            precisions=("fp64",), max_points=64, order=4,
        )
        ev = FmmEvaluator(probe.kernel, 4)
        tree = build_tree(points, 64)
        lists = build_lists(tree)
        t1 = model.predict_apply(ev, tree, lists, "fp64", batch=1)
        t8 = model.predict_apply(ev, tree, lists, "fp64", batch=8)
        assert 0 < t1 <= t8

    def test_fresh_calibration_carries_the_faster_vlist(self):
        """The sibling-group V-list moved the U/V balance, and the measured
        coefficient, not a constant, has to carry that (Holm et al.): a
        fresh calibration prices VLI below a profile stored before the
        change, and still ranks the dominated order last."""
        # VLI seconds per flop of the per-offset sweep, calibrated exactly
        # as below at the parent commit on the 2-core reference host
        # (9.1e-10 .. 9.5e-10 over three runs; 1.9e-10 .. 2.2e-10 after)
        stored = CostModel.from_dict({"coeffs": {"VLI@fp64": 9.2e-10}})
        pts = np.random.default_rng(SEED).random((3000, 3))
        probe = SubsampleProbe(pts, sample=None, seed=SEED)
        fresh = CostModel()
        fresh.calibrate(
            probe, lambda p: FmmEvaluator(probe.kernel, 4, precision=p),
            precisions=("fp64",), max_points=20, order=4, batch=1,
        )
        assert fresh.coeffs[("VLI", "fp64")] < stored.coeffs[("VLI", "fp64")]
        tree, lists, _ = probe.geometry(20)
        cost = {
            order: fresh.predict_apply(
                FmmEvaluator(probe.kernel, order), tree, lists, "fp64"
            )
            for order in (4, 6)
        }
        assert cost[4] < cost[6]

    def test_roundtrip_and_observe_bounds(self):
        model = CostModel()
        model.coeffs[("ULI", "fp64")] = 1e-9
        model.overhead["fp64"] = 1e-3
        back = CostModel.from_dict(model.to_dict())
        assert back.coeffs[("ULI", "fp64")] == pytest.approx(1e-9)
        for _ in range(50):
            model.observe(observed_s=100.0, predicted_s=1.0)
        assert model.correction <= 10.0
        for _ in range(50):
            model.observe(observed_s=1.0, predicted_s=100.0)
        assert model.correction >= 0.1


def _pair_sum(csr, counts_t, counts_s) -> float:
    """Sum over CSR pairs (i, j) of ``counts_t[i] * counts_s[j]``."""
    rows, cols = csr.pairs()
    return float(np.sum(counts_t[rows] * counts_s[cols]))


def _ref_phase_flops(ev, tree, lists):
    """The pair-sum ``phase_flops`` the work table replaced: the reference."""
    ks = ev.kernel.source_dim
    kt = ev.eval_kernel.target_dim
    ns = ev.ns
    fpp = ev.kernel.pair_flops(1, 1)
    fpp_eval = ev.eval_kernel.pair_flops(1, 1)
    counts = tree.point_counts().astype(np.float64)
    leaf = tree.leaf_indices
    n_leaf_pts = float(counts[leaf].sum())
    n_nodes = tree.n_nodes
    surf_dofs = float(ns * ks)
    solve = 2.0 * surf_dofs * surf_dofs
    out = {}
    out["S2U"] = fpp * ns * n_leaf_pts + solve * len(leaf)
    edges = max(n_nodes - 1, 0)
    out["U2U"] = (fpp * ns * ns + solve) * edges
    out["D2D"] = (fpp * ns * ns + solve) * edges + solve * n_nodes
    v = lists.v
    if ev.fft is not None:
        n_tgt = int(np.count_nonzero(v.counts))
        n_src = int(np.count_nonzero(np.bincount(
            v.indices, minlength=n_nodes
        ))) if v.indices.size else 0
        out["VLI"] = (
            v.total() * ev.fft.translate_flops_per_pair()
            + ev.fft.fft_flops_per_box() * (n_src * ks + n_tgt * kt)
        )
    else:
        out["VLI"] = v.total() * 2.0 * surf_dofs * (ns * kt)
    out["XLI"] = fpp * ns * _pair_sum(lists.x, np.ones(n_nodes), counts)
    out["WLI"] = fpp_eval * ns * _pair_sum(lists.w, counts, np.ones(n_nodes))
    out["D2T"] = fpp_eval * ns * n_leaf_pts
    out["ULI"] = fpp_eval * _pair_sum(lists.u, counts, counts)
    return out


def _ref_plan_bytes(ev, tree, lists, precision):
    """The pair-sum ``plan_bytes_estimate`` (uncapped): the reference."""
    ks = ev.kernel.source_dim
    kt = ev.eval_kernel.target_dim
    ns = ev.ns
    counts = tree.point_counts().astype(np.float64)
    n_leaf_pts = float(counts[tree.leaf_indices].sum())
    n_nodes = tree.n_nodes
    itemsize = 4 if precision == "fp32" else 8
    entries = (
        ns * ks * n_leaf_pts * ks
        + n_leaf_pts * kt * ns * ks
        + kt * ks * _pair_sum(lists.u, counts, counts)
        + ns * ks * kt * _pair_sum(lists.x, np.ones(n_nodes), counts)
        + kt * ks * ns * _pair_sum(lists.w, counts, np.ones(n_nodes))
    )
    return entries * itemsize + 64.0 * (tree.n_points + n_nodes)


def _ref_uli_flops(ev, tree, lists, plan):
    """Each ULI block's flops from the U-source bincount the plan used."""
    counts = tree.point_counts()
    urows, ucols = lists.u.pairs()
    full = np.bincount(urows, counts[ucols], tree.n_nodes).astype(np.int64)
    fpp = ev.eval_kernel.pair_flops(1, 1)
    return [fpp * float((counts[b.boxes] * full[b.boxes]).sum()) for b in plan.uli]


_CLOUDS = {"uniform": uniform_cube, "plummer": plummer_cluster, "ellipsoid": ellipsoid_surface}


def _cloud(name):
    """1500 seed-0 points of a cloud, or a degenerate one of ``_HOSTILE``."""
    if name in _CLOUDS:
        return _CLOUDS[name](1500, seed=0)
    return _HOSTILE[name](np.random.default_rng(13))


def _assert_counts_equal(ev, tree, lists):
    got, want = phase_flops(ev, tree, lists), _ref_phase_flops(ev, tree, lists)
    assert got == want
    for prec in ("fp64", "fp32"):
        assert plan_bytes_estimate(ev, tree, lists, prec) == _ref_plan_bytes(ev, tree, lists, prec)


def _let_counts(comm, pts):
    fmm = DistributedFmm("laplace", order=4, max_points_per_box=40, load_balance=True)
    fmm.setup(comm, pts[comm.rank :: comm.size])
    return fmm.let.tree, fmm.lists, fmm.evaluator


class TestWorkCounts:
    """The tuner's counts and the plan's ULI flops, read from the work
    table, are ``==`` to the pair sums and bincounts they replaced."""

    @pytest.mark.parametrize("mode", ["fft", "dense"])
    @pytest.mark.parametrize("kname", ["laplace", "stokes"])
    @pytest.mark.parametrize(
        "cloud", ["uniform", "plummer", "ellipsoid", "n0", "n1", "one_leaf", "repeated_x3"])
    def test_tuner_counts_equal_the_pair_sums(self, cloud, kname, mode):
        tree = build_tree(_cloud(cloud), 40)
        lists = build_lists(tree)
        ev = FmmEvaluator(get_kernel(kname), 4, m2l_mode=mode)
        _assert_counts_equal(ev, tree, lists)
        if mode == "fft":
            plan = compile_plan(ev, tree, lists, matrix_budget=0)
            assert [b.flops for b in plan.uli] == _ref_uli_flops(ev, tree, lists, plan)

    def test_let_counts_equal_the_pair_sums(self):
        pts = ellipsoid_surface(3000, seed=0)
        for tree, lists, ev in run_spmd(2, _let_counts, pts, timeout=300).values:
            _assert_counts_equal(ev, tree, lists)


class TestSearch:
    def test_propose_deterministic_under_fixed_seed(self, points):
        slo = SLO(latency_s=30.0, precision_rtol=1e-2)
        a = propose_config(points, slo=slo, grid=tiny_grid(),
                           seed=SEED, sample=500)
        b = propose_config(points, slo=slo, grid=tiny_grid(),
                           seed=SEED, sample=500)
        assert a == b
        assert a.order == 4  # dominated order never wins

    def test_measured_search_deterministic_and_within_budget(self, points):
        slo = SLO(latency_s=30.0, precision_rtol=1e-2)
        r1 = tune(points, slo=slo, grid=tiny_grid(), seed=SEED, sample=500)
        r2 = tune(points, slo=slo, grid=tiny_grid(), seed=SEED, sample=500)
        assert r1.config == r2.config
        assert r1.n_probed <= max(1, int(np.ceil(0.25 * r1.grid_size)))
        assert r1.met_slo

    def test_accuracy_floor_never_violated(self, points):
        slo = SLO(latency_s=30.0, precision_rtol=1e-3)
        grid = default_grid(900, orders=(4, 6), leaf_sizes=(64,),
                            precisions=("fp64", "fp32"),
                            batch_shapes=((4, 1.0),))
        rep = tune(points, slo=slo, grid=grid, seed=SEED, sample=500)
        cfg = rep.config
        cell = rep.accuracy[f"o{cfg.order}/{cfg.precision}"]
        safety = 2.0 if cfg.precision == "fp32" else 1.0
        assert cell * safety <= slo.precision_rtol

    def test_impossible_floor_reported_not_silently_met(self, points):
        slo = SLO(latency_s=30.0, precision_rtol=1e-15)
        rep = tune(points, slo=slo, grid=tiny_grid(), seed=SEED, sample=500)
        assert not rep.met_slo  # nothing clears a 1e-15 floor

    def test_config_key_roundtrip(self):
        cfg = TuneConfig(order=6, max_points=144, precision="fp32",
                         max_batch=16, max_wait_ms=4.0)
        assert TuneConfig.from_dict(cfg.to_dict()) == cfg
        assert "o6q144fp32" in cfg.key()
        # entries stored before the vli_multi_bytes and threads knobs were
        # removed still load: unknown keys are ignored
        stored = {**cfg.to_dict(), "vli_multi_bytes": 8 * 2**20, "threads": 2}
        assert TuneConfig.from_dict(stored) == cfg


class TestStore:
    def test_roundtrip(self, tmp_path, points):
        store = TuneStore(tmp_path / "t.json")
        slo = SLO()
        fp = geometry_fingerprint(points)
        cfg = TuneConfig(order=4, max_points=64)
        store.put(fp, "laplace", slo, cfg)
        assert store.get(fp, "laplace", slo) == cfg

    def test_invalidation_on_fingerprint_change(self, tmp_path, points):
        store = TuneStore(tmp_path / "t.json")
        slo = SLO()
        fp = geometry_fingerprint(points)
        store.put(fp, "laplace", slo, TuneConfig())
        moved = points + np.array([0.21, 0.0, 0.0])  # geometry changed
        fp2 = geometry_fingerprint(np.clip(moved, 0, 1.2))
        assert fp2 != fp
        assert store.get(fp2, "laplace", slo) is None  # never looked up
        assert store.invalidate(fp) == 1
        assert store.get(fp, "laplace", slo) is None

    def test_key_axes_are_independent(self, tmp_path, points):
        store = TuneStore(tmp_path / "t.json")
        fp = geometry_fingerprint(points)
        store.put(fp, "laplace", SLO(), TuneConfig(order=4))
        assert store.get(fp, "stokes", SLO()) is None
        assert store.get(fp, "laplace", SLO(latency_s=9.0)) is None
        assert store.get(fp, "laplace", SLO(), backend="dist4") is None

    def test_corrupt_and_versioned_files_treated_empty(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("{not json")
        store = TuneStore(path)
        assert store.entries() == []
        path.write_text('{"version": 999, "entries": {"k": {}}}')
        assert store.entries() == []


class _FakeMetrics:
    """Minimal window surface the monitor polls."""

    def __init__(self):
        self.p95 = 0.0
        self.count = 100
        self.resets = 0

    def window_count(self, model):
        return self.count

    def window_quantile(self, model, pct, kind="latencies"):
        return self.p95

    def reset_window(self, model):
        self.resets += 1


class TestMonitor:
    def make(self, retunes, **kw):
        metrics = _FakeMetrics()
        slo = SLO(latency_s=0.1, drift_band=1.25, min_window=16)
        mon = SloMonitor(metrics, "m", slo,
                         retune=lambda m, p: retunes.append(p), **kw)
        return metrics, mon

    def test_sustained_drift_fires_exactly_once(self):
        fired = []
        metrics, mon = self.make(fired, sustain=3, cooldown_s=30.0)
        metrics.p95 = 0.5  # 4x over the band
        assert not mon.poll(now=0.0)
        assert not mon.poll(now=1.0)
        assert mon.poll(now=2.0)  # third consecutive -> fire
        assert fired == [0.5]
        assert metrics.resets == 1  # stale window cleared after re-tune
        # cooldown: still drifting, but no flapping
        assert not mon.poll(now=3.0)
        assert not mon.poll(now=4.0)
        assert not mon.poll(now=5.0)
        assert fired == [0.5]

    def test_transient_spike_does_not_fire(self):
        fired = []
        metrics, mon = self.make(fired, sustain=3)
        metrics.p95 = 0.5
        mon.poll(now=0.0)
        mon.poll(now=1.0)
        metrics.p95 = 0.05  # recovered: sustain counter resets
        mon.poll(now=2.0)
        metrics.p95 = 0.5
        mon.poll(now=3.0)
        mon.poll(now=4.0)
        assert fired == []

    def test_refires_after_cooldown(self):
        fired = []
        metrics, mon = self.make(fired, sustain=1, cooldown_s=10.0)
        metrics.p95 = 0.5
        assert mon.poll(now=0.0)
        assert not mon.poll(now=5.0)  # inside cooldown
        assert mon.poll(now=11.0)  # cooldown over, drift persists
        assert len(fired) == 2

    def test_short_window_never_fires(self):
        fired = []
        metrics, mon = self.make(fired, sustain=1)
        metrics.count = 3  # below slo.min_window
        metrics.p95 = 9.9
        assert not mon.poll(now=0.0)
        assert fired == []

    def test_retune_exceptions_do_not_leak_state(self):
        metrics = _FakeMetrics()
        slo = SLO(latency_s=0.1, min_window=16)

        def boom(m, p):
            raise RuntimeError("probe failed")

        mon = SloMonitor(metrics, "m", slo, retune=boom, sustain=1)
        metrics.p95 = 0.5
        with pytest.raises(RuntimeError):
            mon.poll(now=0.0)
        assert mon._in_progress is False  # guard released


class TestWindowMetrics:
    def test_window_tracks_recent_only_after_reset(self):
        m = ServeMetrics(window_k=8)
        for _ in range(20):
            m.record_completed("a", 1.0, 0.0, 1)
        assert m.window_count("a") == 8  # bounded by K
        assert m.window_quantile("a", 95.0) == pytest.approx(1.0)
        m.reset_window("a")
        assert m.window_count("a") == 0
        m.record_completed("a", 5.0, 0.0, 1)
        assert m.window_quantile("a", 95.0) == pytest.approx(5.0)
        # lifetime reservoir survives the window reset
        snap = m.snapshot()
        assert snap["models"]["a"]["completed"] == 21

    def test_merge_concatenates_windows(self):
        a, b = ServeMetrics(window_k=8), ServeMetrics(window_k=8)
        for _ in range(4):
            a.record_completed("m", 1.0, 0.0, 1)
        for _ in range(4):
            b.record_completed("m", 3.0, 0.0, 1)
        snap = ServeMetrics.merge([a, b])
        w = snap["models"]["m"]["window"]
        assert w["count"] == 8
        # union of raw samples, not percentile-of-percentiles
        assert w["latency_s"]["p50"] == pytest.approx(2.0, abs=1.01)

    def test_config_swaps_counted(self):
        m = ServeMetrics()
        m.record_config_swap("m", tune_s=0.5)
        m.record_config_swap("m")
        assert m.snapshot()["models"]["m"]["config_swaps"] == 2


class TestServeIntegration:
    @pytest.fixture()
    def tuned_engine(self, points, tmp_path):
        engine = ServeEngine(n_workers=1)
        store = TuneStore(tmp_path / "store.json")
        slo = SLO(latency_s=30.0, precision_rtol=1e-2)
        engine.register("m", Fmm("laplace"), points, slo=slo, store=store,
                        tune_grid=tiny_grid())
        yield engine, store, slo
        engine.stop()

    def test_register_applies_tuned_config(self, tuned_engine, points):
        engine, store, slo = tuned_engine
        model = engine._model("m")
        assert model.tuned is not None
        assert model.geometry.fmm.order == model.tuned.order
        stats = engine.plan_stats()["m"]["config"]
        assert stats["order"] == model.tuned.order
        assert stats["precision"] == model.tuned.precision
        # the vote/store agree on a second registration (store hit)
        engine2 = ServeEngine(n_workers=1)
        engine2.register("m", Fmm("laplace"), points, slo=slo, store=store,
                         tune_grid=tiny_grid())
        assert engine2._model("m").tuned == model.tuned

    def test_served_answers_bit_identical_per_version(self, tuned_engine,
                                                      points):
        engine, _, _ = tuned_engine
        model = engine._model("m")
        dens = np.random.default_rng(1).standard_normal(model.expected)
        with engine:
            a = engine.evaluate("m", dens)
            b = engine.evaluate("m", dens)
            assert np.array_equal(a, b)
            # swap to a different config: new version, still bit-stable
            new = TuneConfig(order=4, max_points=144, precision="fp64",
                             max_batch=4, max_wait_ms=1.0)
            res = engine.apply_tuned_config("m", new)
            assert res["swapped"]
            c = engine.evaluate("m", dens)
            d = engine.evaluate("m", dens)
            assert np.array_equal(c, d)
        assert engine._model("m").tuned == new

    def test_swap_to_same_config_is_noop(self, tuned_engine):
        engine, _, _ = tuned_engine
        model = engine._model("m")
        res = engine.apply_tuned_config("m", model.tuned)
        assert res["swapped"] is False

    def test_monitor_drift_triggers_engine_retune(self, tuned_engine):
        engine, _, slo = tuned_engine
        calls = []
        real_retune = engine.retune

        def counting(name, observed_s=None):
            calls.append(observed_s)
            return real_retune(name, observed_s=observed_s)

        mon = SloMonitor(engine.metrics, "m", slo, retune=counting,
                         sustain=2, cooldown_s=60.0)
        # synthesize a sustained drift in the sliding window
        for _ in range(slo.min_window):
            engine.metrics.record_completed(
                "m", slo.latency_s * 3.0, 0.0, 1)
        assert not mon.poll(now=0.0)
        assert mon.poll(now=1.0)
        assert len(calls) == 1
        assert engine.metrics.window_count("m") == 0  # reset after re-tune
        assert not mon.poll(now=2.0)  # no flapping

    def test_start_monitor_replaces_and_stops(self, tuned_engine):
        """TUTORIAL §16's ``engine.start_monitor("m")``: a running monitor,
        replaced (and stopped) by a second call, stopped by ``stop()``."""
        engine, _, _ = tuned_engine
        first = engine.start_monitor("m", interval_s=60.0)
        assert isinstance(first, SloMonitor)
        t1 = first._thread
        assert t1 is not None and t1.is_alive()
        second = engine.start_monitor("m", interval_s=60.0)
        assert second is not first and not t1.is_alive()
        t2 = second._thread
        assert t2 is not None and t2.is_alive()
        engine.stop()
        assert not t2.is_alive()

    def test_update_geometry_keeps_the_tuned_matrix_budget(self, points):
        """A geometry patch compiles under the tuned config's matrix
        budget, like ``_plan_for`` and ``apply_tuned_config``."""
        budget = 2 * 2**20
        grid = default_grid(
            900, orders=(4,), leaf_sizes=(64,), precisions=("fp64",),
            batch_shapes=((4, 1.0),),
            matrix_budgets=(budget,),
        )
        engine = ServeEngine(n_workers=1)
        engine.register("m", Fmm("laplace"), points,
                        slo=SLO(latency_s=30.0, precision_rtol=1e-2),
                        tune_grid=grid)
        model = engine._model("m")
        assert model.tuned.matrix_budget == budget
        dens = np.random.default_rng(2).standard_normal(model.expected)
        moved = points.copy()
        moved[:40] = np.clip(moved[:40] + 0.01, 1e-9, 1.0 - 1e-9)
        with engine:
            engine.update_geometry("m", moved)
            key = engine._plan_key("m", model.geometry.version,
                                   model.precision)
            patched = engine.plans.peek(key)
            assert patched.matrix_bytes() <= budget
            out = engine.evaluate("m", dens)
            # the same (model, version, precision) key recompiled on a miss
            engine.plans.invalidate(key)
            fresh = engine._plan_for(model)
            assert fresh is not patched
            assert fresh.matrix_bytes() == patched.matrix_bytes()
            assert np.array_equal(engine.evaluate("m", dens), out)

    def test_retune_without_slo_raises(self, points):
        engine = ServeEngine(n_workers=1)
        engine.register("plain", Fmm("laplace"), points)
        with pytest.raises(ValueError):
            engine.retune("plain")
        engine.stop()


class TestDistVote:
    def test_vote_reduction_modal_with_deterministic_ties(self, points,
                                                          monkeypatch):
        from repro.serve.dist_engine import DistServeEngine
        import repro.tune.search as search_mod

        cfg_x = TuneConfig(order=4, max_points=64)
        cfg_y = TuneConfig(order=4, max_points=144)

        def rigged(pts, kernel="laplace", slo=None, grid=None, seed=0,
                   sample=None):
            return cfg_x if seed % 4 == 0 else cfg_y  # rank 0 dissents

        monkeypatch.setattr(search_mod, "propose_config", rigged)
        eng = DistServeEngine(nranks=4)
        won = eng._vote_config(points, get_kernel("laplace"), 4, SLO(),
                               None, None)
        assert won == cfg_y  # modal proposal wins over the dissenter

    @pytest.mark.parametrize("p", [2, 4])
    def test_collective_vote_agrees_and_serves(self, points, tmp_path, p):
        from repro.serve.dist_engine import DistServeEngine

        store = TuneStore(tmp_path / f"dist{p}.json")
        slo = SLO(latency_s=30.0, precision_rtol=1e-2)
        eng = DistServeEngine(nranks=p)
        m = eng.register("m", points, slo=slo, store=store,
                         tune_grid=tiny_grid())
        assert m.tuned is not None and m.slo == slo
        # the agreed config is persisted under the dist backend key
        fp = geometry_fingerprint(points)
        assert store.get(fp, "laplace", slo, backend=f"dist{p}") == m.tuned
        # a second engine takes the store-hit path to the same config
        eng2 = DistServeEngine(nranks=p)
        m2 = eng2.register("m", points, slo=slo, store=store,
                          tune_grid=tiny_grid())
        assert m2.tuned == m.tuned
        dens = np.random.default_rng(2).standard_normal(m.expected)
        assert np.array_equal(eng.evaluate("m", dens),
                              eng.evaluate("m", dens))

    def test_router_snapshot_exposes_tuned_config(self, points, tmp_path):
        from repro.serve.dist_engine import DistServeEngine
        from repro.serve.router import Router

        eng = DistServeEngine(nranks=2)
        eng.register("m", points, slo=SLO(latency_s=30.0,
                                          precision_rtol=1e-2),
                     tune_grid=tiny_grid())
        snap = Router(eng).metrics_snapshot()
        assert snap["tuned"]["m"]["config"]["order"] == 4
        assert snap["tuned"]["m"]["slo"]["latency_s"] == 30.0


def one_cell_grid(*precisions):
    return default_grid(
        900, orders=(4,), leaf_sizes=(64,), precisions=precisions,
        batch_shapes=((4, 1.0),),
    )


class TestStoreHitHonoursGrid:
    """The store key does not cover the grid: a stored config outside the
    caller's grid is a miss, searched and re-persisted."""

    slo = SLO(latency_s=30.0, precision_rtol=1e-2)

    def test_serve_register_with_narrower_allowed(self, points, tmp_path):
        store = TuneStore(tmp_path / "t.json")
        engine = ServeEngine(n_workers=1)
        engine.register("m", Fmm("laplace"), points, slo=self.slo,
                        store=store, tune_grid=one_cell_grid("fp32"))
        assert engine._model("m").tuned.precision == "fp32"
        engine.register("m", Fmm("laplace"), points, slo=self.slo,
                        store=store, tune_grid=one_cell_grid("fp64", "fp32"),
                        allowed={"fp64"})
        model = engine._model("m")
        assert model.tuned.precision == model.precision == "fp64"
        fp = geometry_fingerprint(points)
        assert store.get(fp, "laplace", self.slo) == model.tuned
        engine.stop()

    def test_dist_vote_with_another_grid(self, points, tmp_path):
        from repro.serve.dist_engine import DistServeEngine

        store = TuneStore(tmp_path / "d.json")
        first = DistServeEngine(nranks=2).register(
            "m", points, slo=self.slo, store=store,
            tune_grid=one_cell_grid("fp32"),
        )
        assert first.tuned.precision == "fp32"
        grid = one_cell_grid("fp64")
        second = DistServeEngine(nranks=2).register(
            "m", points, slo=self.slo, store=store, tune_grid=grid,
        )
        assert second.tuned in grid


class TestOneTuner:
    def test_precision_pick_and_tune_floor_apply_one_rule(self, points):
        """On one probe, ``autotune_precision`` picks fp32 exactly when
        ``tune``'s floor admits the (order, fp32) cell; both read the
        same error bits."""
        order, q = 4, 64  # autotune_precision probes leaves of 64

        def pick(rtol):
            return autotune_precision(points, order=order, rtol=rtol)

        err32 = pick(1.0).errors["fp32"]
        admitted_seen = set()
        for factor in (1.0, 1.9, 2.0, 2.1, 10.0):
            rtol = factor * err32
            res = pick(rtol)
            rep = tune(points, slo=SLO(latency_s=1e3, precision_rtol=rtol),
                       grid=[TuneConfig(order=order, max_points=q,
                                        precision="fp32", max_batch=1)],
                       seed=SEED, measure=False)
            assert rep.accuracy[f"o{order}/fp32"] == res.errors["fp32"]
            admitted = rep.met_slo  # one fp32 cell, latency never binds
            admitted_seen.add(admitted)
            assert (res.best == "fp32") == admitted
        assert admitted_seen == {True, False}

    def test_one_full_n_plan_per_config_family(self, points, monkeypatch):
        """Measured probes compile one full-N plan per (order, tree,
        precision, matrix_budget) and hold at most one of them alive."""
        import gc
        import weakref

        import repro.core.plan as plan_mod
        from repro.core.plan import tree_fingerprint

        real = plan_mod.compile_plan
        compiled, alive = [], []

        def counting(ev, tree, lists, *args, **kwargs):
            if tree.n_points == len(points):
                gc.collect()
                assert not any(ref() is not None for ref in alive)
                compiled.append((ev.order, id(tree), kwargs["precision"],
                                 kwargs["matrix_budget"]))
            plan = real(ev, tree, lists, *args, **kwargs)
            if tree.n_points == len(points):
                alive.append(weakref.ref(plan))
            return plan

        monkeypatch.setattr(plan_mod, "compile_plan", counting)
        # q = 64 and 144 build different trees here; q = 200 builds the
        # q = 144 tree again, so its configs share that tree's plans
        grid = default_grid(
            900, orders=(4,), leaf_sizes=(64, 144, 200),
            precisions=("fp64", "fp32"),
            batch_shapes=((4, 1.0), (8, 2.0)),
        )
        shape = {q: tree_fingerprint(build_tree(points, q))
                 for q in (64, 144, 200)}
        assert shape[200] == shape[144] != shape[64]

        def families(configs):
            return {(c.order, shape[c.max_points], c.precision,
                     c.matrix_budget) for c in configs}

        rep = tune(points, slo=SLO(latency_s=30.0, precision_rtol=1e-2),
                   grid=grid, seed=SEED, sample=500, budget_frac=1.0)
        measured = [c for c in grid if c.key() in rep.measured]
        assert len(measured) == rep.n_probed == len(grid)
        assert len(compiled) == len(set(compiled)) == len(families(grid))


class TestBatcherLimits:
    def test_per_model_limits_override_engine_defaults(self):
        from repro.serve.batcher import MicroBatcher
        from repro.serve.scheduler import FairQueue

        limits = {"tuned": (16, 4.0)}
        b = MicroBatcher(FairQueue(), max_batch=8, max_wait_ms=2.0,
                         limits=limits.get)
        assert b._limits_for("tuned") == (16, 0.004)
        assert b._limits_for("plain") == (8, 0.002)
