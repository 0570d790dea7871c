"""Self-test of the benchmark at ``--smoke`` scale (N ~ 2000, about a minute).

    python -m pytest bench/ -q

Not collected by the tier-1 suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import copy
import json
import math
import re
import subprocess
import sys

import pytest

import benchlib as bl
import compare
import run as runner

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = bl.contract()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUN = [sys.executable, str(bl.BENCH_DIR / "run.py"), "--smoke"]


def bench(*args, timeout=170):
    proc = subprocess.run([*RUN, *args], capture_output=True, text=True,
                          timeout=timeout, cwd=bl.ROOT)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def assert_well_formed(metrics: dict, listed: list) -> None:
    assert set(metrics) == {m["name"] for m in listed}
    units = {m["name"]: m["unit"] for m in listed}
    for name, m in metrics.items():
        assert NAME_RE.match(name), name
        assert m["unit"] == units[name] and m["unit"]
        assert math.isfinite(m["value"]), name


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """The one command, untraced, over all four workloads."""
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    proc, last = bench("--out", str(out))
    return proc, last, out


def test_one_command_reports_every_end_to_end_metric(full_run):
    proc, last, out = full_run
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    (run,) = json.loads(out.read_text())["runs"]
    assert run["scale"] == "smoke" and run["host"]["nproc"] >= 1
    assert set(run["workloads"]) == set(WORKLOADS)
    for name, rec in run["workloads"].items():
        assert_well_formed(rec["metrics"], SPEC["end_to_end"])
        assert len(rec["metrics"]["setup_s"]["samples"]) == runner.SETUP_SAMPLES
        assert all(v == "enforced" or v.startswith("skipped(")
                   for v in rec["checks"].values()), rec["checks"]
        assert f"{name:18s} apply_s" in proc.stdout  # printed by name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    proc, last = bench("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert last["correct"] and last["failed"] == 0
    assert_well_formed(last["metrics"], SPEC["per_layer"])
    assert "trace.overhead_frac" in proc.stdout
    spans = json.loads((bl.OUT_DIR / "trace.json").read_text())["spans"]
    assert spans and all(
        set(s) == {"name", "start", "end", "parent", "workload", "sample"}
        and s["workload"] == workload and s["end"] >= s["start"] for s in spans)
    # a layer the workload runs is measured, not defaulted
    ran = {"uniform_laplace": "phase.VLI.s", "plummer_adaptive": "plan.patch_s",
           "ellipsoid_dist": "dist.eval.comm_reduce.bytes",
           "serve_mixed": "serve.service_s.lap"}[workload]
    assert last["metrics"][ran]["value"] > 0


def test_driver_line_holds_exactly_the_contract_metrics():
    proc, last = bench("--workload", "uniform_laplace", "--seed", "7",
                       "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert_well_formed(last["metrics"], SPEC["end_to_end"])


def test_contract_names_and_limits():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert len(SPEC["per_layer"]) <= 128 and set(WORKLOADS) == set(bl.WORKLOADS)


def test_corrupted_result_trips_the_check_and_the_exit_code(monkeypatch, capsys):
    import child

    job = {"workload": "uniform_laplace", "seed": 0, "seconds": 0.2,
           "mode": "measure", "smoke": True}
    run = child.Run(job)
    solo = child.Solo(run)
    honest = solo.apply
    monkeypatch.setattr(solo, "apply", lambda dens, **kw: 1.01 * honest(dens, **kw))
    solo.measure()
    record = run.record()
    assert not record["correct"]
    assert record["checks"]["rel_err"].startswith("failed(")

    monkeypatch.setattr(runner, "run_child", lambda job, timeout: copy.deepcopy(record))
    code = runner.main(["--smoke", "--workload", "uniform_laplace"])
    assert code != 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"] is False


def test_dead_child_is_counted_not_waited_for():
    rec = runner.run_child({"workload": "uniform_laplace", "seed": 0, "seconds": 30,
                            "mode": "measure", "smoke": False}, timeout=1.0)
    assert rec["failed"] == 1 and not rec["correct"]
    assert "timeout" in rec["failures"][0]["cause"]


def test_compare_flags_a_regression_and_passes_identical_files(full_run, tmp_path, capsys):
    _, _, out = full_run
    doc = json.loads(out.read_text())
    doc["runs"] = [copy.deepcopy(doc["runs"][0]) for _ in range(3)]
    same, slow, full = (tmp_path / n for n in ("same.json", "slow.json", "full.json"))
    same.write_text(json.dumps(doc))
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "apply_s")
    for run in doc["runs"]:  # a synthetic regression just past the bound
        run["workloads"]["plummer_adaptive"]["metrics"]["apply_s"]["value"] *= 1.05 + bound
    slow.write_text(json.dumps(doc))
    for run in doc["runs"]:
        run["scale"] = "full"
    full.write_text(json.dumps(doc))

    assert compare.main([str(out), str(same)]) == 0
    assert "regressed" not in capsys.readouterr().out
    assert compare.main([str(same), str(slow)]) == 1
    rows = [ln for ln in capsys.readouterr().out.splitlines() if "regressed" in ln]
    assert len(rows) == 1 and "plummer_adaptive" in rows[0] and "apply_s" in rows[0]
    assert compare.main([str(same), str(full)]) == 2  # never mixes scales


def test_compare_reports_wide_overlapping_sets_as_unresolved():
    a, b = [1.0, 1.3, 1.6, 1.0], [1.05, 1.35, 1.5, 1.1]
    assert compare.verdict(a, b, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(a, [0.5, 0.6, 0.7, 0.5], "lower", 0.1)[0] == "ok"
    assert compare.verdict([10, 10.1, 9.9], [8, 8.1, 7.9], "higher", 0.1)[0] == "regressed"
