#!/usr/bin/env python3
"""One harness, named metrics: cold start, warm apply, serving, distributed.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--out FILE] [--smoke]

Every input is generated from ``--seed`` inside the benchmark; the program
is handed arrays only.  Each workload runs in fresh child processes
(``child.py``) under a wall-clock timeout.  Without ``--trace`` a run takes
the end-to-end metrics; ``--trace`` is a separate run that calls the layers
one at a time under spans, takes the per-layer metrics and writes
``bench/out/trace.json``.  Every metric is printed by name with its unit,
outputs are checked, and the exit code is non-zero if anything failed.

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding exactly the
metrics ``BENCHMARK.json`` lists for that kind of run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import benchlib as bl

SETUP_SAMPLES = 2  # fresh processes behind the median of setup_s
RUN_DEADLINE_S = 165.0  # one workload, all children, under the 180 s limit


def run_child(job: dict, timeout: float) -> dict:
    """One child process -> its record, or a failure record with the cause.
    A crash, a timeout or a missing result can never hang the run."""
    cmd = [sys.executable, str(bl.BENCH_DIR / "child.py"), json.dumps(job)]
    cause = None
    try:
        proc = subprocess.run(cmd, cwd=bl.ROOT, timeout=max(timeout, 1.0),
                              capture_output=True, text=True,
                              env={**os.environ, **bl.CHILD_ENV})
        for line in reversed(proc.stdout.splitlines()):
            if line.startswith("BENCH_RESULT "):
                return json.loads(line[len("BENCH_RESULT "):])
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        cause = f"exit code {proc.returncode}, no result: {tail}"
    except subprocess.TimeoutExpired:
        cause = f"timeout after {timeout:.0f}s"
    return {"workload": job["workload"], "mode": job["mode"], "correct": False,
            "attempted": 1, "failed": 1, "metrics": {}, "spans": [],
            "failures": [{"what": f"child.{job['mode']}", "cause": cause}],
            "checks": {"child_completed": f"failed({cause})"}}


def run_workload(name: str, args) -> dict:
    """All children of one workload, folded into one record."""
    t_end = time.monotonic() + RUN_DEADLINE_S
    job = {"workload": name, "seed": args.seed, "seconds": args.seconds,
           "smoke": args.smoke, "mode": "trace" if args.trace else "measure"}
    rec = run_child(job, t_end - time.monotonic())
    children = [rec]
    if not args.trace:
        # setup_s is the median over fresh processes: the measuring child's
        # own cold start plus setup-only children
        for _ in range(SETUP_SAMPLES - 1):
            children.append(run_child(dict(job, mode="setup"),
                                      min(90.0, t_end - time.monotonic())))
        samples = [c["metrics"]["setup_s"]["value"] for c in children
                   if "setup_s" in c["metrics"]]
        if samples:
            rec["metrics"]["setup_s"] = bl.metric(
                statistics.median(samples), "s", samples=samples)
    for child in children[1:]:
        rec["correct"] = rec["correct"] and child["correct"]
        rec["attempted"] += child["attempted"]
        rec["failed"] += child["failed"]
        rec["failures"] += child["failures"]
        for key, val in child["checks"].items():
            if not rec["checks"].get(key, "").startswith("failed"):
                rec["checks"][key] = val
    rec["fail_frac"] = rec["failed"] / max(rec["attempted"], 1)
    return rec


def contract_metrics(rec: dict, spec: dict, trace: int) -> dict:
    """Exactly the metrics BENCHMARK.json lists for this kind of run.  A
    layer the workload does not run reports 0 (no time spent, nothing
    counted there)."""
    out = {}
    if trace:
        for m in spec["per_layer"]:
            got = rec["metrics"].get(m["name"])
            out[m["name"]] = {"value": got["value"] if got else 0.0,
                              "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            got = rec["metrics"].get(m["name"])
            if got is not None:
                out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def print_record(rec: dict) -> None:
    name = rec["workload"]
    for key in sorted(rec["metrics"]):
        m = rec["metrics"][key]
        extra = " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in m.items()
                         if k not in ("value", "unit", "samples"))
        print(f"{name:18s} {key:34s} {m['value']:.6g} {m['unit']}  {extra}".rstrip())
    print(f"{name:18s} {'fail_frac':34s} {rec['fail_frac']:.6g} frac  "
          f"failed={rec['failed']} attempted={rec['attempted']}")
    for key, val in sorted(rec["checks"].items()):
        print(f"{name:18s} check {key:28s} {val}")
    for f in rec["failures"]:
        print(f"{name:18s} FAILED {f['what']}: {f['cause']}")


def main(argv=None) -> int:
    spec = bl.contract()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--out", help="append this run's record to FILE")
    ap.add_argument("--smoke", action="store_true",
                    help="N ~ 2000 self-test scale; never comparable with full")
    args = ap.parse_args(argv)
    if not (bl.ROOT / "src" / "repro").is_dir():
        print(f"bench: the program is not here ({bl.ROOT / 'src' / 'repro'})",
              file=sys.stderr)
        return 2
    if args.smoke:
        args.seconds = min(args.seconds, 2.0)

    host = bl.host_block(args.seed)
    records = {}
    for name in ([args.workload] if args.workload else names):
        records[name] = rec = run_workload(name, args)
        print_record(rec)
        host["blas_threads"] = rec.pop("blas_threads", host["blas_threads"])
    print("host " + json.dumps(host))
    ok = all(r["correct"] and not r["failed"] for r in records.values())

    spans = [s for r in records.values() for s in r.pop("spans")]
    if args.trace:
        bl.OUT_DIR.mkdir(exist_ok=True)
        (bl.OUT_DIR / "trace.json").write_text(
            json.dumps({"host": host, "spans": spans}))
        print(f"trace: {len(spans)} spans -> bench/out/trace.json")
    if args.out:
        try:
            with open(args.out) as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            doc = {"runs": []}
        doc["runs"].append({
            "scale": "smoke" if args.smoke else "full", "trace": args.trace,
            "seed": args.seed, "seconds": args.seconds, "host": host,
            "workloads": records})
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)

    if args.workload:
        rec = records[args.workload]
        print(json.dumps({
            "correct": bool(rec["correct"]), "attempted": rec["attempted"],
            "failed": rec["failed"],
            "metrics": contract_metrics(rec, spec, args.trace)}))
    else:
        print(json.dumps({
            "correct": ok,
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values())}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
