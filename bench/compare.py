#!/usr/bin/env python3
"""Compare sets of benchmark runs: ``compare.py A.json B.json [C.json ...]``.

Each file is what ``run.py --out FILE`` wrote: one record per run, appended,
so running the same command three times with the same ``--out`` makes a set
of three.  Every later file is compared with the first.  One row per
workload and end-to-end metric gives both medians, both quartile pairs and
the bound ``BENCHMARK.json`` fixes, with a verdict:

* ``regressed``  -- the median got worse by more than the bound;
* ``unresolved`` -- a set's own spread (quartile distance over median) is
  wider than the bound and the two sets overlap, so "no change" cannot be
  claimed either;
* ``ok``         -- anything else.

Exit code 1 if any row regressed, 2 if the files cannot be compared (no
untraced runs, or smoke and full scale mixed), else 0.
"""

from __future__ import annotations

import json
import sys

import benchlib as bl


def load(path: str) -> tuple[str, dict]:
    """(scale, {workload: {metric: [values over the untraced runs]}})."""
    with open(path) as fh:
        runs = [r for r in json.load(fh)["runs"] if not r["trace"]]
    if not runs:
        raise ValueError(f"{path}: no untraced runs")
    scales = {r["scale"] for r in runs}
    if len(scales) != 1:
        raise ValueError(f"{path}: mixes scales {sorted(scales)}")
    values: dict = {}
    for run in runs:
        for wname, rec in run["workloads"].items():
            for mname, m in rec["metrics"].items():
                values.setdefault(wname, {}).setdefault(mname, []).append(m["value"])
    return scales.pop(), values


def verdict(a: list, b: list, better: str, bound: float) -> tuple[str, float]:
    """(verdict, share by which B's median is worse than A's)."""
    med_a, med_b = bl.quartiles(a)[1], bl.quartiles(b)[1]
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if worse > bound:
        return "regressed", worse
    b_all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if max(bl.spread(a), bl.spread(b)) > bound and not b_all_better:
        return "unresolved", worse
    return "ok", worse


def compare(path_a: str, path_b: str, metrics: list) -> int:
    scale_a, a = load(path_a)
    scale_b, b = load(path_b)
    if scale_a != scale_b:
        raise ValueError(f"refusing to compare {scale_a} ({path_a}) "
                         f"with {scale_b} ({path_b})")
    print(f"{path_a} -> {path_b}  ({scale_a} scale)")
    print(f"{'workload':18s} {'metric':12s} {'median A':>11s} {'q1..q3 A':>23s} "
          f"{'median B':>11s} {'q1..q3 B':>23s} {'worse':>7s} {'bound':>6s}  verdict")
    regressed = 0
    for wname in sorted(set(a) & set(b)):
        for m in metrics:
            va, vb = a[wname].get(m["name"]), b[wname].get(m["name"])
            if not va or not vb:
                continue
            v, worse = verdict(va, vb, m["better"], m["bound"])
            regressed += v == "regressed"
            (qa1, qa2, qa3), (qb1, qb2, qb3) = bl.quartiles(va), bl.quartiles(vb)
            print(f"{wname:18s} {m['name']:12s} {qa2:11.5g} "
                  f"{qa1:11.5g}..{qa3:<10.5g} {qb2:11.5g} "
                  f"{qb1:11.5g}..{qb3:<10.5g} {worse:+7.1%} {m['bound']:6.2f}  "
                  f"{v} (n={len(va)},{len(vb)})")
    return regressed


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else list(argv)
    if len(paths) < 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    metrics = bl.contract()["end_to_end"]
    try:
        regressed = sum(compare(paths[0], p, metrics) for p in paths[1:])
    except (ValueError, KeyError, OSError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
