"""Tests for the points-per-box autotuner (paper §V extension)."""

import pytest

from repro.tune.probe import TuneResult, autotune_points_per_box
from repro.datasets import uniform_cube


class TestAutotune:
    def test_cpu_tuning_returns_candidate(self):
        pts = uniform_cube(4000, seed=3)
        res = autotune_points_per_box(
            pts, order=4, candidates=(25, 100, 400), sample=None
        )
        assert res.best_q in (25, 100, 400)
        assert res.metric == "wall"
        assert set(res.costs) == {25, 100, 400}
        assert all(c > 0 for c in res.costs.values())

    def test_gpu_tuning_prefers_bigger_boxes(self):
        """The device model should penalise tiny boxes harder than the
        CPU does (the paper: GPU runs used ~4x bigger q)."""
        pts = uniform_cube(12_000, seed=4)
        res = autotune_points_per_box(
            pts, order=4, candidates=(16, 128, 512), sample=None, target="gpu"
        )
        assert res.metric == "device-model"
        assert res.best_q >= 128

    def test_ranked_sorted_by_cost(self):
        r = TuneResult(best_q=8, costs={8: 0.1, 16: 0.4, 4: 0.2}, metric="wall")
        assert [q for q, _ in r.ranked()] == [8, 4, 16]

    def test_sampling_caps_size(self):
        pts = uniform_cube(5000, seed=5)
        res = autotune_points_per_box(
            pts, order=4, candidates=(64,), sample=1000
        )
        assert res.best_q == 64

    def test_invalid_target(self):
        with pytest.raises(ValueError, match="target"):
            autotune_points_per_box(uniform_cube(100), target="tpu")


def test_precision_pick_applies_each_precision_once(monkeypatch):
    """``autotune_precision`` needs one error per precision: two applies
    of the probe, no warm-up and no timed repeat."""
    from repro.core.evaluator import FmmEvaluator
    from repro.tune.probe import autotune_precision

    calls = []
    evaluate = FmmEvaluator.evaluate

    def counted(self, *a, **k):
        calls.append(k.get("precision"))
        return evaluate(self, *a, **k)

    monkeypatch.setattr(FmmEvaluator, "evaluate", counted)
    res = autotune_precision(uniform_cube(3000, seed=6), order=4)
    assert sorted(calls) == ["fp32", "fp64"]
    assert set(res.errors) == {"fp32", "fp64"}
