"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``evaluate``  run a single-process FMM on a synthetic distribution and
              (optionally) verify against direct summation
``trace``     run a distributed FMM with per-message tracing and print
              the communication matrices and critical-path estimates
``tune``      autotune the points-per-box parameter for CPU or GPU
``chaos``     run the fault-injection matrix: every fault class against
              a distributed FMM, checking typed failure or bit-identical
              recovery, plus seeded-determinism replay checks
``serve``     stand up the in-process evaluation service, drive it with
              closed-loop clients, and report latency/throughput/batching
              metrics (``--bench`` gates and writes BENCH_serving.json)
``info``      print version, kernels, machine/device models
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np


def _cmd_evaluate(args) -> int:
    from repro import Fmm, direct_sum, get_kernel
    from repro.datasets import make_distribution
    from repro.util.timer import PhaseProfile

    kernel = get_kernel(args.kernel)
    points = make_distribution(args.distribution, args.n, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    dens = rng.standard_normal(args.n * kernel.source_dim)

    fmm = Fmm(kernel, order=args.order, max_points_per_box=args.q,
              precision=args.precision, threads=args.threads)
    if args.steps:
        return _cmd_evaluate_dynamic(args, fmm, kernel, points, dens)
    profile = PhaseProfile()
    recorder = None
    if args.trace:
        from repro.perf.trace import TraceRecorder

        recorder = TraceRecorder()
        profile.bind_trace(recorder, 0)
    t0 = time.perf_counter()
    plan = fmm.plan(points, profile=profile)
    pot = fmm.evaluate(points, dens, plan=plan, profile=profile)
    dt = time.perf_counter() - t0
    # --repeat: re-apply on the same tree (iterative-solver pattern); the
    # evaluator compiles its EvalPlan on the second call and amortises it
    for k in range(args.repeat - 1):
        t1 = time.perf_counter()
        pot = fmm.evaluate(points, dens, plan=plan, profile=profile)
        print(f"  repeat {k + 2}: {time.perf_counter() - t1:.2f}s")
    if recorder is not None:
        n = recorder.write_jsonl(args.trace)
        print(f"trace: {n} events -> {args.trace}")
    print(
        f"N={args.n} {args.distribution} {args.kernel} order={args.order} "
        f"q={args.q} precision={profile.precision}: {dt:.2f}s (first call), "
        f"{profile.total_flops():.3g} flops"
    )
    for name, wall, flops, _, _ in profile.as_table():
        print(f"  {name:8s} {wall:7.2f}s  {flops:.3g} flops")
    if args.check:
        sample = rng.choice(args.n, min(args.n, args.check), replace=False)
        ref = direct_sum(kernel, points[sample], points, dens)
        kt = kernel.target_dim
        got = pot.reshape(-1, kt)[sample].reshape(-1)
        err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
        print(f"spot check ({len(sample)} targets): rel err {err:.2e}")
    return 0


def _blob_step(rng, pts, frac, eps):
    """One localized motion step: drift the ``frac`` fraction of points
    nearest a random center by ``eps`` (plus jitter).  Spatially compact
    motion stays compact in Morton order — the regime the incremental
    geometry path targets (uniform random motion dirties nearly every
    leaf and degenerates to a recompile)."""
    n = len(pts)
    m = max(1, int(round(frac * n)))
    center = pts[rng.integers(n)]
    d2 = ((pts - center) ** 2).sum(axis=1)
    moved = np.argpartition(d2, m - 1)[:m] if m < n else np.arange(n)
    new_pts = pts.copy()
    new_pts[moved] = np.clip(
        new_pts[moved]
        + rng.normal(scale=eps, size=3)
        + rng.normal(scale=eps / 4.0, size=(m, 3)),
        1e-9, 1.0 - 1e-9,
    )
    return new_pts, moved


def _cmd_evaluate_dynamic(args, fmm, kernel, points, dens) -> int:
    """``evaluate --steps K``: the dynamic-geometry patch-vs-recompile bench.

    Each step moves a Morton-localized blob of sources, rebuilds the
    geometry incrementally (delta-sort + dirty-subtree rebuild + plan
    patch) and from scratch, and bit-compares the two evaluations.  With
    ``--p`` the final geometry is additionally pushed through a p-rank
    sharded :class:`~repro.serve.dist_engine.DistServeEngine` via its
    ``update_geometry`` and checked against a freshly registered engine.
    """
    import json

    rng = np.random.default_rng(args.seed + 1)
    pts = points
    plan = fmm.plan(pts)
    t0 = time.perf_counter()
    eplan = fmm.compile_eval_plan(plan)
    compile0_s = time.perf_counter() - t0
    print(f"dynamic geometry: N={args.n} order={args.order} q={args.q} "
          f"{args.kernel}; initial plan compile {compile0_s:.2f}s")

    steps, all_bit = [], True
    for k in range(args.steps):
        new_pts, moved = _blob_step(rng, pts, args.moved_frac, args.perturb)

        t0 = time.perf_counter()
        new_plan, delta = fmm.update_plan(plan, new_pts, moved=moved)
        pe = fmm.patch_eval_plan(eplan, plan, new_plan, delta=delta)
        t_patch = time.perf_counter() - t0

        t0 = time.perf_counter()
        ref_plan = fmm.plan(new_pts)
        fe = fmm.compile_eval_plan(ref_plan)
        t_full = time.perf_counter() - t0

        out_p = fmm.evaluate(new_pts, dens, plan=new_plan, eval_plan=pe)
        out_f = fmm.evaluate(new_pts, dens, plan=ref_plan, eval_plan=fe)
        bit = bool(np.array_equal(out_p, out_f))
        all_bit &= bit
        st = pe.patch_stats
        reused = st.get("slots_reused", 0)
        fresh = st.get("slots_fresh", 0)
        steps.append({
            "step": k + 1,
            "n_moved": int(len(moved)),
            "patch_s": t_patch,
            "recompile_s": t_full,
            "speedup": t_full / t_patch if t_patch > 0 else None,
            "bit_identical": bit,
            "kmat_slots_reused": int(reused),
            "kmat_slots_fresh": int(fresh),
            "refinement_changed": bool(delta.refinement_changed),
        })
        print(f"  step {k + 1}: patch {t_patch:.3f}s vs recompile "
              f"{t_full:.3f}s ({t_full / max(t_patch, 1e-12):.1f}x), "
              f"kmat reuse {reused}/{reused + fresh}, "
              f"bit-identical={bit}")
        pts, plan, eplan = new_pts, new_plan, pe

    dist_bit = None
    if args.p > 0:
        from repro.serve.dist_engine import DistServeEngine

        eng = DistServeEngine(nranks=args.p)
        eng.register("dyn", points, placement="sharded", group=args.p,
                     kernel=kernel, order=args.order,
                     max_points_per_box=args.q)
        eng.update_geometry("dyn", pts)  # initial -> final geometry
        out_p = eng.evaluate("dyn", dens)
        ref = DistServeEngine(nranks=args.p)
        ref.register("dyn", pts, placement="sharded", group=args.p,
                     kernel=kernel, order=args.order,
                     max_points_per_box=args.q)
        dist_bit = bool(np.array_equal(out_p, ref.evaluate("dyn", dens)))
        all_bit &= dist_bit
        print(f"  sharded p={args.p} update_geometry bit-identical: "
              f"{dist_bit}")

    med_patch = float(np.median([s["patch_s"] for s in steps]))
    med_full = float(np.median([s["recompile_s"] for s in steps]))
    speedup = med_full / med_patch if med_patch > 0 else None
    result = {
        "bench": "dynamic_geometry",
        "config": {
            "kernel": args.kernel, "n": args.n, "order": args.order,
            "q": args.q, "precision": args.precision,
            "distribution": args.distribution, "steps": args.steps,
            "perturb": args.perturb, "moved_frac": args.moved_frac,
            "seed": args.seed, "p": args.p,
        },
        "initial_compile_s": compile0_s,
        "median_patch_s": med_patch,
        "median_recompile_s": med_full,
        "median_speedup": speedup,
        "bit_identical": all_bit,
        "dist_bit_identical": dist_bit,
        "steps": steps,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
    print(f"median: patch {med_patch:.3f}s vs recompile {med_full:.3f}s "
          f"-> {speedup:.1f}x; bit-identical={all_bit} -> {args.out}")
    if args.gate:
        ok = all_bit and med_patch < 0.5 * med_full
        if not ok:
            print("GATE FAILED: need bit-identity and patch < 0.5x recompile")
            return 1
        print("gate passed: bit-identical and patch < 0.5x recompile")
    return 0


def _cmd_trace(args) -> int:
    from repro.datasets import make_distribution
    from repro.dist.driver import distributed_fmm_rank
    from repro.mpi import KRAKEN, LINCOLN, LOCAL, run_spmd
    from repro.perf.commviz import render_matrix, render_phase_summary, phase_matrices
    from repro.perf.trace import TraceRecorder

    machine = {"kraken": KRAKEN, "lincoln": LINCOLN, "local": LOCAL}[args.machine]
    points = make_distribution(args.distribution, args.n, seed=args.seed)

    from repro import get_kernel

    ks = get_kernel(args.kernel).source_dim

    def density(pts):
        base = np.sin(17.0 * pts[:, 0]) + pts[:, 2] * np.cos(11.0 * pts[:, 1])
        return np.tile(base[:, None], (1, ks)).reshape(-1)

    recorder = TraceRecorder()
    result = run_spmd(
        args.p,
        distributed_fmm_rank,
        points,
        density,
        machine=machine,
        trace=recorder,
        kernel=args.kernel,
        order=args.order,
        max_points_per_box=args.q,
        comm_scheme=args.scheme,
    )
    # ledger/trace consistency is an invariant worth asserting on every run
    ledger = {c.rank: c.messages_sent for c in result.comms}
    traced = recorder.per_rank_send_counts()
    for r in range(args.p):
        if ledger.get(r, 0) != traced.get(r, 0):
            print(f"WARNING: rank {r} ledger={ledger.get(r)} trace={traced.get(r)}")
    print(render_phase_summary(recorder, machine, args.p))
    if args.matrices:
        for ph, cm in phase_matrices(recorder, args.p).items():
            if args.phase and ph != args.phase:
                continue
            print()
            print(render_matrix(cm))
    if args.out:
        n = recorder.write_jsonl(args.out)
        print(f"\ntrace: {n} events -> {args.out}")
    return 0


def _cmd_tune_q_sweep(args) -> int:
    """Legacy one-knob sweep: points-per-box for a CPU or modelled GPU."""
    from repro.core.autotune import autotune_points_per_box
    from repro.datasets import make_distribution

    n = args.n if args.n is not None else 20_000
    points = make_distribution(args.distribution, n, seed=args.seed)
    res = autotune_points_per_box(
        points,
        kernel=args.kernel,
        order=args.order,
        target=args.target,
        sample=args.sample,
    )
    print(f"best q for {args.target}: {res.best_q}  (metric: {res.metric})")
    for q, cost in res.ranked():
        marker = " <-- best" if q == res.best_q else ""
        print(f"  q={q:5d}: {cost:.4f}s{marker}")
    return 0


def _tune_grid_from_args(args, n):
    from repro.tune.search import default_grid

    orders = tuple(int(x) for x in args.orders.split(","))
    leafs = tuple(int(x) for x in args.leaf_sizes.split(","))
    precs = tuple(p.strip() for p in args.precisions.split(","))
    shapes = tuple(
        (int(b), float(w))
        for b, w in (s.split(":") for s in args.batch_shapes.split(","))
    )
    threads_opts = (
        tuple(int(x) for x in args.threads.split(","))
        if getattr(args, "threads", None) else None
    )
    return default_grid(n, orders=orders, leaf_sizes=leafs,
                        precisions=precs, batch_shapes=shapes,
                        threads_opts=threads_opts)


def _write_bench_json(path, key, payload) -> None:
    import json
    from pathlib import Path

    out = Path(path)
    data = {}
    if out.exists():
        try:
            data = json.loads(out.read_text())
        except (ValueError, OSError):
            data = {}
    data[key] = payload
    out.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {out}")


def _cmd_tune(args) -> int:
    """SLO-driven config search (default), CI gate, or acceptance bench.

    Default mode runs one budgeted search
    (:func:`repro.tune.search.tune`) on a synthetic distribution and
    prints/persists the chosen config.  ``--gate`` is CI's tiny-N smoke:
    it additionally measures the *whole* grid exhaustively and asserts
    the search landed within ``--gate-factor`` of the best measured grid
    point while probing at most ``--budget-frac`` of it, and that a
    same-seed replay picks the same config.  ``--bench`` runs the full
    acceptance: two (distribution, kernel) pairs plus the workload-shift
    re-tune drill (see :func:`_tune_shift_drill`); results land in
    ``BENCH_autotune.json``.
    """
    if args.q_sweep:
        return _cmd_tune_q_sweep(args)
    from repro.datasets import make_distribution
    from repro.tune.search import SLO, measure_grid, tune
    from repro.tune.store import TuneStore, geometry_fingerprint

    if args.bench:
        return _cmd_tune_bench(args)

    n = args.n if args.n is not None else (4_000 if args.gate else 20_000)
    latency_ms = (
        args.latency_ms if args.latency_ms is not None
        else (500.0 if args.gate else 250.0)
    )
    slo = SLO(latency_s=latency_ms / 1e3, percentile=args.percentile,
              precision_rtol=args.rtol)
    if args.gate and args.leaf_sizes == "64,144,400":
        args.leaf_sizes = "64,144"  # tiny-N gate: 8-config grid
    points = make_distribution(args.distribution, n, seed=args.seed)
    grid = _tune_grid_from_args(args, n)

    print(f"tune: N={n} {args.distribution} {args.kernel} "
          f"SLO {slo.key()} grid {len(grid)} configs "
          f"budget {args.budget_frac:.0%}")
    t0 = time.perf_counter()
    report = tune(
        points, kernel=args.kernel, slo=slo, grid=grid, seed=args.seed,
        budget_frac=args.budget_frac, sample=args.sample,
        measure=not args.no_measure, log=print,
    )
    wall = time.perf_counter() - t0
    cfg = report.config
    print(f"chosen: {cfg.key()}  (order={cfg.order} q={cfg.max_points} "
          f"{cfg.precision} batch={cfg.max_batch} "
          f"wait={cfg.max_wait_ms:g}ms)")
    print(f"  SLO {'met' if report.met_slo else 'MISSED'}; probed "
          f"{report.n_probed}/{report.grid_size} "
          f"({report.probe_fraction:.0%}) in {wall:.1f}s")

    if args.store:
        store = TuneStore(args.store)
        key = store.put(
            geometry_fingerprint(points), args.kernel, slo, cfg,
            report=report.to_dict(),
        )
        print(f"stored under {key} in {args.store}")

    if not args.gate:
        if args.out:
            _write_bench_json(args.out, "tune", {
                "config_cli": {
                    "n": n, "distribution": args.distribution,
                    "kernel": args.kernel, "seed": args.seed,
                },
                "wall_s": wall,
                "report": report.to_dict(),
            })
        return 0

    # -- gate: deterministic replay + exhaustive-grid reference ----------
    report2 = tune(
        points, kernel=args.kernel, slo=slo, grid=grid, seed=args.seed,
        budget_frac=args.budget_frac, sample=args.sample,
        measure=not args.no_measure,
    )
    deterministic = report2.config == cfg
    print(f"replay (same seed): {report2.config.key()} "
          f"{'== chosen' if deterministic else '!= chosen (NONDETERMINISTIC)'}")
    print(f"exhaustive reference: measuring all {len(grid)} configs ...")
    exhaustive = measure_grid(points, kernel=args.kernel, grid=grid,
                              seed=args.seed, reps=3, log=print)
    per_req = {c: t / max(c.max_batch, 1) for c, t in exhaustive.items()}
    best_cfg = min(per_req, key=per_req.get)
    ratio = per_req[cfg] / per_req[best_cfg]
    checks = [
        (f"tuned {per_req[cfg] * 1e3:.2f} ms/req within "
         f"{args.gate_factor:g}x best grid point "
         f"{per_req[best_cfg] * 1e3:.2f} ms/req ({best_cfg.key()}): "
         f"ratio {ratio:.3f}", ratio <= args.gate_factor),
        ("same-seed replay picks the same config", deterministic),
        (f"probed {report.probe_fraction:.0%} <= "
         f"{args.budget_frac:.0%} of the grid",
         report.n_probed <= max(1, int(np.ceil(
             args.budget_frac * len(grid))))),
        ("accuracy floor honoured (met_slo implies feasible cell)",
         not report.met_slo or report.feasible > 0),
    ]
    ok = True
    for label, passed in checks:
        print(f"  [{'PASS' if passed else 'FAIL'}] {label}")
        ok = ok and passed
    _write_bench_json(args.out or "BENCH_autotune.json", "gate", {
        "config_cli": {"n": n, "distribution": args.distribution,
                       "kernel": args.kernel, "seed": args.seed},
        "report": report.to_dict(),
        "deterministic_replay": deterministic,
        "exhaustive_per_request_s": {
            c.key(): per_req[c] for c in grid
        },
        "best_grid_config": best_cfg.key(),
        "tuned_over_best_ratio": ratio,
        "passed": ok,
    })
    return 0 if ok else 1


def _cmd_tune_bench(args) -> int:
    """Acceptance bench: tuned vs exhaustive on two (distribution, kernel)
    pairs, plus the online workload-shift re-tune drill."""
    from repro.datasets import make_distribution
    from repro.tune.search import SLO, measure_grid, tune

    n = args.n if args.n is not None else 20_000
    pairs = [("uniform", "laplace"), ("ellipsoid", "yukawa")]
    checks, results = [], {}
    for dist, kern in pairs:
        latency_ms = args.latency_ms if args.latency_ms is not None else 2_000.0
        slo = SLO(latency_s=latency_ms / 1e3, percentile=args.percentile,
                  precision_rtol=args.rtol)
        points = make_distribution(dist, n, seed=args.seed)
        grid = _tune_grid_from_args(args, n)
        print(f"\n=== pair ({dist}, {kern}): N={n}, grid {len(grid)}, "
              f"SLO {slo.key()} ===")
        t0 = time.perf_counter()
        report = tune(points, kernel=kern, slo=slo, grid=grid,
                      seed=args.seed, budget_frac=args.budget_frac,
                      sample=args.sample, log=print)
        tune_s = time.perf_counter() - t0
        print(f"exhaustive reference: measuring all {len(grid)} configs ...")
        exhaustive = measure_grid(points, kernel=kern, grid=grid,
                                  seed=args.seed, reps=2, log=print)
        per_req = {c: t / max(c.max_batch, 1) for c, t in exhaustive.items()}
        best_cfg = min(per_req, key=per_req.get)
        ratio = per_req[report.config] / per_req[best_cfg]
        key = f"{dist}/{kern}"
        results[key] = {
            "n": n,
            "tune_wall_s": tune_s,
            "report": report.to_dict(),
            "exhaustive_per_request_s": {
                c.key(): per_req[c] for c in grid
            },
            "best_grid_config": best_cfg.key(),
            "tuned_over_best_ratio": ratio,
        }
        checks += [
            (f"{key}: tuned config meets SLO", report.met_slo),
            (f"{key}: tuned within 1.1x best grid point "
             f"(ratio {ratio:.3f})", ratio <= 1.1),
            (f"{key}: probed {report.probe_fraction:.0%} <= 25% of grid",
             report.probe_fraction <= 0.25 + 1e-9),
        ]

    drill, drill_checks = _tune_shift_drill(args)
    checks += drill_checks

    ok = True
    print()
    for label, passed in checks:
        print(f"  [{'PASS' if passed else 'FAIL'}] {label}")
        ok = ok and passed
    _write_bench_json(args.out or "BENCH_autotune.json", "autotune", {
        "config_cli": {"n": n, "seed": args.seed,
                       "budget_frac": args.budget_frac},
        "pairs": results,
        "shift_drill": drill,
        "passed": ok,
    })
    return 0 if ok else 1


def _tune_shift_drill(args):
    """Induced workload shift -> exactly one online re-tune -> SLO back.

    Registers an autotuned model on a uniform cube (the tuner picks a
    mid-size leaf there), serves a window of requests, then swaps the
    geometry to an ellipsoid *surface* — a distribution whose U-list
    blows up at the uniform-tuned leaf size, so served latency drifts
    past the SLO band.  The monitor (polled manually for determinism)
    must fire exactly one bounded re-tune that swaps in a config meeting
    the SLO again, and answers must stay bit-identical per active config
    version.  The drill SLO is placed adaptively between the measured
    re-tuned and mis-tuned costs so the pass bands don't depend on the
    host machine's absolute speed.
    """
    from repro import Fmm
    from repro.datasets import make_distribution
    from repro.serve import ServeEngine
    from repro.tune.monitor import SloMonitor
    from repro.tune.search import SLO, default_grid, measure_grid, tune

    n, seed, kern = args.drill_n, args.seed, "laplace"
    rtol = 1e-3
    grid = default_grid(n, orders=(4,), leaf_sizes=(64, 144, 400),
                        precisions=("fp64", "fp32"),
                        batch_shapes=((8, 2.0),))
    pts_a = make_distribution("uniform", n, seed=seed)
    pts_b = make_distribution("ellipsoid", n, seed=seed)
    print(f"\n=== workload-shift drill: N={n} uniform -> ellipsoid ===")

    # offline reference optima on both distributions (same grid + seed
    # the engine will use), to place the drill SLO between the re-tuned
    # and mis-tuned latencies with machine-independent margins
    loose = SLO(latency_s=60.0, precision_rtol=rtol)
    cfg_a = tune(pts_a, kernel=kern, slo=loose, grid=grid,
                 seed=seed).config
    cfg_b = tune(pts_b, kernel=kern, slo=loose, grid=grid,
                 seed=seed).config
    m_a = measure_grid(pts_a, kernel=kern, grid=[cfg_a], seed=seed,
                       reps=2)[cfg_a]
    meas_b = measure_grid(pts_b, kernel=kern, grid=[cfg_a, cfg_b],
                          seed=seed, reps=2)
    m_mis, m_b = meas_b[cfg_a], meas_b[cfg_b]
    print(f"offline: tuned A {cfg_a.key()} ({m_a * 1e3:.0f} ms), "
          f"tuned B {cfg_b.key()} ({m_b * 1e3:.0f} ms), "
          f"A-config on B {m_mis * 1e3:.0f} ms "
          f"({m_mis / max(m_b, 1e-9):.2f}x worse)")
    band = 1.25
    lo = 1.15 * max(m_a, m_b)
    hi = m_mis / band / 1.1
    if not (cfg_a != cfg_b and lo < hi):
        drill = {"feasible": False, "cfg_a": cfg_a.key(),
                 "cfg_b": cfg_b.key(), "m_a_s": m_a, "m_b_s": m_b,
                 "m_mis_s": m_mis}
        return drill, [("shift drill feasible (distinct optima with a "
                        "latency gap)", False)]
    latency_s = float(np.sqrt(lo * hi))
    slo = SLO(latency_s=latency_s, precision_rtol=rtol,
              drift_band=band, min_window=8)
    print(f"drill SLO: {latency_s * 1e3:.0f} ms at p95 "
          f"(drift above {latency_s * band * 1e3:.0f} ms)")

    engine = ServeEngine(n_workers=1)
    template = Fmm(kern)
    engine.register("drill", template, pts_a, slo=slo, tune_grid=grid,
                    tune_seed=seed)
    model = engine._model("drill")
    v0 = model.tuned
    monitor = SloMonitor(
        engine.metrics, "drill", slo,
        retune=lambda m, p: engine.retune(m, observed_s=p),
        sustain=2, cooldown_s=60.0,
    )
    rng = np.random.default_rng(seed)
    probe = rng.standard_normal(model.expected)

    def drive(k):
        # submit full batches so served latencies match the batch-wide
        # measure_grid numbers the SLO band was placed from
        for _ in range(k):
            width = max(1, engine._model("drill").tuned.max_batch)
            reqs = [engine.submit("drill", probe) for _ in range(width)]
            for r in reqs:
                r.result(timeout=120.0)

    drill = {"feasible": True, "slo": slo.to_dict(),
             "cfg_a": cfg_a.key(), "cfg_b": cfg_b.key(),
             "m_a_s": m_a, "m_b_s": m_b, "m_mis_s": m_mis}
    with engine:
        drive(2 * slo.min_window)
        pre_fired = any(monitor.poll() for _ in range(3))
        drill["p95_baseline_s"] = engine.metrics.window_quantile(
            "drill", 95.0)
        bit_v0 = np.array_equal(
            engine.evaluate("drill", probe), engine.evaluate("drill", probe)
        )
        engine.update_geometry("drill", pts_b)
        drive(slo.min_window + 2)
        drill["p95_shifted_s"] = engine.metrics.window_quantile(
            "drill", 95.0)
        fired = sum(monitor.poll() for _ in range(4))
        drill["retunes"] = monitor.retunes
        v1 = engine._model("drill").tuned
        drill["retuned_config"] = v1.key()
        drive(slo.min_window + 2)
        drill["p95_restored_s"] = engine.metrics.window_quantile(
            "drill", 95.0)
        refired = any(monitor.poll() for _ in range(3))
        bit_v1 = np.array_equal(
            engine.evaluate("drill", probe), engine.evaluate("drill", probe)
        )
    drill["bit_identical_v0"] = bool(bit_v0)
    drill["bit_identical_v1"] = bool(bit_v1)
    print(f"drill: baseline p95 {drill['p95_baseline_s'] * 1e3:.0f} ms, "
          f"shifted {drill['p95_shifted_s'] * 1e3:.0f} ms, "
          f"restored {drill['p95_restored_s'] * 1e3:.0f} ms "
          f"({v0.key()} -> {v1.key()}, {monitor.retunes} retune)")
    checks = [
        ("drill: baseline meets SLO, no spurious retune",
         not pre_fired
         and drill["p95_baseline_s"] <= slo.latency_s),
        ("drill: shift drifts past the band and fires exactly one retune",
         fired == 1 and monitor.retunes == 1 and not refired),
        ("drill: retune swaps the config",
         v1 != v0),
        ("drill: post-retune p95 back inside the SLO",
         drill["p95_restored_s"] is not None
         and drill["p95_restored_s"] <= slo.latency_s),
        ("drill: answers bit-identical per active config version",
         bit_v0 and bit_v1),
    ]
    return drill, checks


def _cmd_chaos(args) -> int:
    """Fault-matrix smoke: each fault class either recovers bit-identically
    (retry / checkpoint resume / CPU fallback) or fails with a typed error
    before the deadline — never a hang — and seeded plans replay exactly."""
    from repro.datasets import make_distribution
    from repro.dist.driver import DistributedFmm
    from repro.mpi import SpmdError, run_spmd_resilient
    from repro.mpi.faults import (
        Fault,
        FaultPlan,
        RetryPolicy,
        TRANSIENT_ERRORS,
    )

    p = args.p
    points = make_distribution("ellipsoid", args.n, seed=args.seed)

    def body(comm, state, use_gpu=False):
        if "fmm" not in state:
            fmm = DistributedFmm(
                order=args.order, max_points_per_box=args.q, use_gpu=use_gpu
            )
            fmm.setup(comm, points[comm.rank :: comm.size])
            state["fmm"] = fmm
            pts = fmm.owned_points
            state["dens"] = np.sin(17.0 * pts[:, 0]) + pts[:, 2] * np.cos(
                11.0 * pts[:, 1]
            )
        else:
            fmm = state["fmm"]
            fmm.rebind(comm)
        return fmm.evaluate(state["dens"], resume=True)

    def run(plan=None, use_gpu=False, timeout=None, trace=False):
        return run_spmd_resilient(
            p,
            body,
            policy=RetryPolicy(max_attempts=3),
            faults=plan,
            rank_state=True,
            integrity=True,
            timeout=timeout if timeout is not None else args.timeout,
            trace=trace,
            use_gpu=use_gpu,
        )

    t_start = time.perf_counter()
    base = run()
    print(f"baseline: p={p} n={args.n} ok ({time.perf_counter() - t_start:.1f}s)")

    def identical(res) -> bool:
        return all(
            np.array_equal(res.values[r], base.values[r]) for r in range(p)
        )

    s = args.seed
    plans = {
        "crash": FaultPlan(
            [Fault("crash", rank=(1 + s) % p, op="phase", phase="VLI", attempts=1)],
            seed=s,
        ),
        "straggle": FaultPlan(
            [Fault("straggle", rank=(2 + s) % p, op="phase", phase="S2U",
                   seconds=5.0)],
            seed=s,
        ),
        "drop": FaultPlan(
            [Fault("drop", rank=s % p, op="send", index=5, attempts=1)], seed=s
        ),
        "duplicate": FaultPlan(
            [Fault("duplicate", rank=s % p, op="send", index=5, attempts=1)],
            seed=s,
        ),
        "bitflip": FaultPlan(
            [Fault("bitflip", rank=(3 + s) % p, op="send", index=4,
                   bit=97 + s, attempts=1)],
            seed=s,
        ),
        "gpu": FaultPlan(
            [Fault("gpu", rank=r, op="launch", phase="*") for r in range(p)],
            seed=s,
        ),
    }

    failures = 0
    rows = []
    for kind, plan in plans.items():
        t0 = time.perf_counter()
        # a dropped delivery usually wedges a collective until the deadline
        # (no later traffic exposes the sequence gap), so give that class a
        # short per-attempt timeout: the retry converges either way
        timeout = min(args.timeout, 20.0) if kind == "drop" else None
        try:
            res = run(plan=plan, use_gpu=(kind == "gpu"), timeout=timeout,
                      trace=bool(args.out) and kind == "crash")
        except TRANSIENT_ERRORS + (SpmdError,) as exc:
            cause = exc.__cause__ if exc.__cause__ is not None else exc
            if isinstance(cause, TRANSIENT_ERRORS):
                rows.append((kind, f"typed {type(cause).__name__} "
                                   f"({time.perf_counter() - t0:.1f}s)", True))
            else:
                rows.append((kind, f"FAIL untyped {cause!r}", False))
                failures += 1
            continue
        ok = identical(res)
        n_inj = len(res.fault_events)
        rows.append(
            (kind,
             f"{'bit-identical' if ok else 'FAIL result mismatch'} "
             f"(attempts={res.attempts}, injections={n_inj}, "
             f"{time.perf_counter() - t0:.1f}s)",
             ok),
        )
        if not ok:
            failures += 1
        if args.out and kind == "crash" and res.trace is not None:
            n = res.trace.write_jsonl(args.out)
            print(f"crash-class trace: {n} events -> {args.out}")

    # seeded determinism: identical plans replay identical event sequences
    # (crash class) and identical completed-run traces (straggle class)
    e1 = run(plan=plans["crash"]).fault_events
    e2 = run(plan=plans["crash"]).fault_events
    det_events = e1 == e2
    t1 = run(plan=plans["straggle"], trace=True).trace.signature()
    t2 = run(plan=plans["straggle"], trace=True).trace.signature()
    det_trace = t1 == t2
    rows.append(("determinism",
                 f"events {'replay' if det_events else 'DIVERGE'}, "
                 f"trace signature {'replay' if det_trace else 'DIVERGE'}",
                 det_events and det_trace))
    if not (det_events and det_trace):
        failures += 1

    width = max(len(k) for k, _, _ in rows)
    for kind, msg, ok in rows:
        print(f"  {kind:{width}s}  {'PASS' if ok else 'FAIL'}  {msg}")
    print(
        f"chaos matrix: {len(rows) - failures}/{len(rows)} passed "
        f"({time.perf_counter() - t_start:.1f}s)"
    )
    return 1 if failures else 0


#: `serve` flag defaults; the distributed plane runs whole SPMD FMM
#: evaluations per request, so its defaults are one notch smaller.
_SERVE_DEFAULTS = {"n": 8_000, "order": 6, "q": 400, "duration": 5.0,
                   "clients": 8}
_DIST_SERVE_DEFAULTS = {"n": 2_000, "order": 4, "q": 64, "duration": 4.0,
                        "clients": 6}


def _cmd_serve_dist(args) -> int:
    """Distributed serving bench: router + rank-sharded/replicated models.

    Registers one rank-sharded model (with a fallback replica, on the
    simulated GPU so device faults are exercised) and one replicated
    model, runs closed-loop load twice — clean, then under a seeded
    fault plan covering crash / recv-crash / straggler / in-flight
    corruption / GPU device fault — and gates (``--bench``):

    * zero untyped errors in both runs (faults surface only as typed
      rejections or recovered answers),
    * a probe request evaluated under a fresh crash plan returns the
      **bit-identical** answer of the fault-free reference,
    * chaos p99 stays within a bounded factor of the clean p99 (recovery
      costs retries, not meltdowns).

    Writes both summaries plus the fabric-wide merged metrics snapshot
    to ``BENCH_dist_serving.json``.
    """
    import json
    from pathlib import Path

    from repro.datasets import make_distribution
    from repro.mpi.faults import Fault, FaultPlan, RetryPolicy
    from repro.serve.dist_engine import DistServeEngine
    from repro.serve.loadgen import run_load
    from repro.serve.metrics import ServeMetrics
    from repro.serve.router import Router

    p = args.shards
    engine = DistServeEngine(
        nranks=p,
        retry=RetryPolicy(max_attempts=3, backoff=0.05, seed=args.seed),
        integrity=True,
        run_timeout_s=args.timeout,
        threads=args.threads,
    )
    print(
        f"registering 3 models on {p} ranks: N={args.n} {args.kernel} "
        f"order={args.order} box={args.q} (m0 sharded+fallback, "
        f"m1 replicated x{args.replicas}, g0 sharded on gpu) ..."
    )
    pts0 = make_distribution(args.distribution, args.n, seed=args.seed)
    engine.register(
        "m0", pts0, placement="sharded", fallback_replica=True,
        kernel=args.kernel, order=args.order, max_points_per_box=args.q,
    )
    pts1 = make_distribution(args.distribution, args.n, seed=args.seed + 1)
    engine.register(
        "m1", pts1, placement="replicated", replicas=args.replicas,
        kernel=args.kernel, order=args.order, max_points_per_box=args.q,
    )
    # g0 shares m0's geometry and parameters but runs on the simulated
    # GPU: the device-fault drill degrades it to the CPU path, which
    # must then match m0's (CPU) answer bitwise (the PR 2 contract)
    engine.register(
        "g0", pts0, placement="sharded",
        kernel=args.kernel, order=args.order, max_points_per_box=args.q,
        use_gpu=True,
    )
    names = ["m0", "m1"]

    rng = np.random.default_rng(args.seed)
    probes = {m: rng.standard_normal(engine._model(m).expected)
              for m in names}
    refs = {m: engine.evaluate(m, probes[m]) for m in names}

    def drive(label):
        with Router(engine, n_dispatchers=args.dispatchers,
                    max_queue=args.max_queue) as router:
            print(
                f"{label} load: {args.clients} closed-loop clients for "
                f"{args.duration:.0f}s ..."
            )
            summary = run_load(
                router, names,
                duration_s=args.duration, clients=args.clients,
                timeout_s=args.timeout, seed=args.seed,
            )
        return summary

    clean = drive("clean")

    # the chaos drill: one representative of every fault class the plane
    # must absorb, spread over the rank space, each with a bounded budget.
    # The recv crash hits rank 0's first receive inside COMM_reduce, its
    # peers blocked in the reduction; the receives before it in a dispatch
    # are the resume vote (allgather) and the ghost exchange (p - 1)
    vote_recvs = (p - 1).bit_length() if p & (p - 1) == 0 else p - 1
    faults = FaultPlan(
        [
            Fault("crash", rank=1 % p, op="phase", phase="D2T", attempts=1),
            Fault("crash", rank=0, op="recv", index=vote_recvs + p - 1,
                  attempts=1),
            Fault("bitflip", rank=(p - 1) % p, op="send", index=3,
                  attempts=1),
            Fault("straggle", rank=2 % p, op="phase", phase="S2U",
                  seconds=1.0, sleep=True, attempts=1),
        ],
        seed=args.seed,
    )
    engine.set_faults(faults)
    chaos = drive("chaos")
    engine.set_faults(None)

    # bit-identity probe: a fresh crash plan against a single request —
    # the recovered answer must equal the fault-free reference bitwise
    engine.set_faults(FaultPlan(
        [Fault("crash", rank=0, op="phase", phase="D2T", attempts=1)],
        seed=args.seed,
    ))
    probe_ok = all(
        np.array_equal(engine.evaluate(m, probes[m]), refs[m])
        for m in names
    )
    engine.set_faults(None)

    # GPU drill: device faults on every rank of g0's group at the first
    # accelerated phase degrade the whole evaluation to the CPU path —
    # which must match m0's (same geometry, CPU) answer bit-for-bit
    engine.set_faults(FaultPlan(
        [Fault("gpu", rank=r, op="launch", phase="*", attempts=1)
         for r in range(p)],
        seed=args.seed,
    ))
    gpu_ok = np.array_equal(
        engine.evaluate("g0", probes["m0"]), refs["m0"]
    )
    engine.set_faults(None)

    fabric = {
        "rank_metrics": ServeMetrics.merge(engine.rank_metrics),
        "health": engine.health.snapshot(),
        "breakers": engine.breaker_snapshot(),
        "suspect_ranks": engine.health.suspect_ranks(),
    }

    def report(label, s):
        lg = s["loadgen"]
        print(
            f"{label}: {lg['ok']} ok, {lg['overloaded']} overloaded, "
            f"{lg['deadline']} deadline, {lg['shard_unavailable']} "
            f"shard-unavailable, {lg['errors']} untyped errors "
            f"({s.get('throughput_rps', 0.0):.1f} req/s); "
            f"retries {s['retried']}"
        )
        for m in names:
            mm = s["models"].get(m)
            if mm and mm["completed"]:
                lat = mm["latency_s"]
                print(
                    f"  {m}: {mm['completed']} done, {mm['failed']} failed "
                    f"| latency p50 {lat['p50'] * 1e3:.0f} "
                    f"p95 {lat['p95'] * 1e3:.0f} p99 {lat['p99'] * 1e3:.0f} ms"
                )

    report("clean", clean)
    report("chaos", chaos)
    retried_by_cause = fabric["rank_metrics"]["retried_by_cause"]
    print(f"fabric retries by cause: {retried_by_cause or '{}'}")
    print(f"breakers: { {k: v['state'] for k, v in fabric['breakers'].items()} }")
    print(f"bit-identity probe under crash plan: "
          f"{'PASS' if probe_ok else 'FAIL'}")
    print(f"gpu device fault -> bit-identical CPU degrade: "
          f"{'PASS' if gpu_ok else 'FAIL'}")

    out = Path(args.out) if args.out else Path("BENCH_dist_serving.json")
    data = {}
    if out.exists():
        try:
            data = json.loads(out.read_text())
        except (ValueError, OSError):
            data = {}
    data["dist_serving"] = {
        "config": {
            "n": args.n, "order": args.order, "q": args.q,
            "kernel": args.kernel, "shards": p,
            "replicas": args.replicas, "dispatchers": args.dispatchers,
            "clients": args.clients, "duration_s": args.duration,
            "timeout_s": args.timeout, "seed": args.seed,
            "chaos_factor": args.chaos_factor,
        },
        "clean": clean,
        "chaos": chaos,
        "fabric": fabric,
        "probe_bit_identical": probe_ok,
        "gpu_degrade_bit_identical": gpu_ok,
    }
    out.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {out}")

    if args.bench:
        clean_p99s = [clean["models"][m]["latency_s"]["p99"] for m in names
                      if clean["models"].get(m, {}).get("completed")]
        chaos_p99s = [chaos["models"][m]["latency_s"]["p99"] for m in names
                      if chaos["models"].get(m, {}).get("completed")]
        clean_p99 = max(clean_p99s) if clean_p99s else float("inf")
        chaos_p99 = max(chaos_p99s) if chaos_p99s else float("inf")
        # recovery costs bounded retries (backoff + re-evaluation + the
        # injected straggle), never a meltdown: the chaos p99 must stay
        # within --chaos-factor of clean (with a small absolute floor so
        # tiny clean p99s don't make the gate spuriously tight)
        p99_bound = max(args.chaos_factor * clean_p99, 3.0)
        checks = [
            ("clean: 0 failed requests",
             clean["failed"] == 0 and clean["loadgen"]["errors"] == 0),
            ("clean: every model completed requests",
             len(clean_p99s) == len(names)),
            ("chaos: 0 untyped errors (typed-only contract)",
             chaos["loadgen"]["errors"] == 0),
            ("chaos: requests still complete", chaos["completed"] > 0),
            ("chaos: faults actually injected + retried",
             sum(retried_by_cause.values()) > 0),
            ("probe under crash plan is bit-identical", probe_ok),
            ("gpu device fault degrades to the bit-identical CPU path",
             gpu_ok),
            (f"chaos p99 {chaos_p99:.2f}s within bound {p99_bound:.2f}s",
             chaos_p99 < p99_bound),
        ]
        ok = True
        for label, passed in checks:
            print(f"  [{'PASS' if passed else 'FAIL'}] {label}")
            ok = ok and passed
        return 0 if ok else 1
    return 0


def _cmd_serve(args) -> int:
    """Serving smoke/bench: register models, run closed-loop load, report.

    With ``--bench`` the run is gated (CI's serving-smoke step): every
    accepted request must complete (0 failed), p99 latency must beat the
    request timeout, and the mean batch size must exceed 1 (batching
    actually engaged); the metrics snapshot lands under the ``serving``
    key of ``BENCH_serving.json``.

    With ``--dist`` the distributed serving plane runs instead: a router
    in front of rank-sharded / replicated models (see
    :func:`_cmd_serve_dist`).
    """
    defaults = _DIST_SERVE_DEFAULTS if args.dist else _SERVE_DEFAULTS
    for key, val in defaults.items():
        if getattr(args, key) is None:
            setattr(args, key, val)
    if args.dist:
        return _cmd_serve_dist(args)

    import json
    from pathlib import Path

    from repro import Fmm
    from repro.datasets import make_distribution
    from repro.serve import ServeEngine
    from repro.serve.loadgen import run_load

    faults = None
    retry = None
    if args.chaos:
        from repro.mpi.faults import Fault, FaultPlan, RetryPolicy

        # one phase-crash per worker early in the run: every accepted
        # request must still complete bit-identically via retry
        faults = FaultPlan(
            [Fault("crash", rank=r, op="phase", phase="S2U", attempts=1)
             for r in range(args.workers)],
            seed=args.seed,
        )
        retry = RetryPolicy(max_attempts=3)

    engine = ServeEngine(
        n_workers=args.workers,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        faults=faults,
        retry=retry,
        matrix_budget=args.matrix_budget_mb * 2**20,
        threads=args.threads,
    )
    print(
        f"registering {args.models} model(s): N={args.n} {args.kernel} "
        f"order={args.order} box={args.q} (tree + warm plan) ..."
    )
    slo = store = None
    if args.autotune:
        from repro.tune.search import SLO
        from repro.tune.store import TuneStore

        slo = SLO(latency_s=args.slo_ms / 1e3, precision_rtol=1e-3)
        store = TuneStore(args.store) if args.store else None
    names = []
    for i in range(args.models):
        name = f"m{i}"
        pts = make_distribution(args.distribution, args.n, seed=args.seed + i)
        fmm = Fmm(args.kernel, order=args.order, max_points_per_box=args.q)
        if slo is not None:
            engine.register(name, fmm, pts, warm=True, slo=slo, store=store)
            engine.start_monitor(name)
            tuned = engine._model(name).tuned
            print(f"  {name}: autotuned {tuned.key()} "
                  f"against SLO {slo.key()}")
        else:
            engine.register(name, fmm, pts, warm=True,
                            precision=args.precision)
        names.append(name)

    with engine:
        print(
            f"load: {args.clients} closed-loop clients for "
            f"{args.duration:.0f}s (timeout {args.timeout:.0f}s/request)"
        )
        summary = run_load(
            engine,
            names,
            duration_s=args.duration,
            clients=args.clients,
            timeout_s=args.timeout,
            seed=args.seed,
        )
    summary["config"] = {
        "n": args.n, "order": args.order, "q": args.q,
        "kernel": args.kernel, "models": args.models,
        "workers": args.workers, "clients": args.clients,
        "max_batch": args.max_batch, "max_wait_ms": args.max_wait_ms,
        "timeout_s": args.timeout, "chaos": bool(args.chaos),
        "matrix_budget_mb": args.matrix_budget_mb,
        "threads": args.threads,
        "precision": args.precision,
        "autotune": bool(args.autotune),
        "slo_ms": args.slo_ms if args.autotune else None,
    }
    # per-model served precision + cached plan bytes (dtype-honest)
    summary["plans"] = engine.plan_stats()
    for name, info in summary["plans"].items():
        if name in summary.get("models", {}):
            summary["models"][name]["precision"] = info["precision"]
    if args.chaos:
        summary["fault_injections"] = len(engine.fault_events)

    lg = summary["loadgen"]
    print(
        f"\nrequests: {lg['ok']} ok, {lg['overloaded']} overloaded, "
        f"{lg['errors']} errors in {lg['elapsed_s']:.1f}s "
        f"({summary['throughput_rps']:.1f} req/s)"
    )
    for name in names:
        m = summary["models"][name]
        lat = m["latency_s"]
        if m["completed"]:
            print(
                f"  {name}: {m['completed']} done, {m['failed']} failed | "
                f"latency p50 {lat['p50'] * 1e3:.0f} p95 {lat['p95'] * 1e3:.0f} "
                f"p99 {lat['p99'] * 1e3:.0f} ms | "
                f"batch mean {m['batch_size']['mean']:.2f}"
            )
        else:
            print(f"  {name}: 0 done, {m['failed']} failed")
    pc = summary["plan_cache"]
    print(
        f"plan cache: {pc['hits']} hits / {pc['misses']} misses "
        f"(hit rate {pc['hit_rate']:.3f}); retries {summary['retried']}, "
        f"rejected {summary['rejected']}, expired {summary['expired']}"
    )
    for name, info in summary["plans"].items():
        nb = sum(info["plan_bytes"].values())
        print(
            f"  {name}: precision {info['precision']}, "
            f"cached plan bytes {nb / 2**20:.1f} MiB "
            f"({', '.join(f'{p}={b / 2**20:.1f}' for p, b in info['plan_bytes'].items())})"
        )
    if args.chaos:
        print(f"chaos: {summary['fault_injections']} injected fault(s)")
    for err in lg["error_samples"]:
        print(f"  error: {err}")

    if args.out or args.bench:
        out = Path(args.out) if args.out else Path("BENCH_serving.json")
        data = {}
        if out.exists():
            try:
                data = json.loads(out.read_text())
            except (ValueError, OSError):
                data = {}
        data["serving"] = summary
        out.write_text(json.dumps(data, indent=2) + "\n")
        print(f"wrote {out}")

    if args.bench:
        failed_total = sum(
            summary["models"][m]["failed"] for m in names
        ) + lg["errors"]
        p99s = [summary["models"][m]["latency_s"]["p99"] for m in names
                if summary["models"][m]["completed"]]
        batch_means = [summary["models"][m]["batch_size"]["mean"]
                       for m in names if summary["models"][m]["completed"]]
        checks = [
            ("0 failed requests", failed_total == 0),
            ("every model completed requests", len(p99s) == len(names)),
            (f"p99 < timeout ({args.timeout:.0f}s)",
             bool(p99s) and max(p99s) < args.timeout),
            ("mean batch size > 1 (batching engaged)",
             bool(batch_means) and max(batch_means) > 1.0),
        ]
        ok = True
        for label, passed in checks:
            print(f"  [{'PASS' if passed else 'FAIL'}] {label}")
            ok = ok and passed
        return 0 if ok else 1
    return 0


def _cmd_info(args) -> int:
    import repro
    from repro.gpu.device import TESLA_S1070
    from repro.kernels import _REGISTRY
    from repro.mpi import KRAKEN, LINCOLN

    print(f"repro {repro.__version__} — SC'09 parallel adaptive KIFMM reproduction")
    print(f"kernels: {', '.join(sorted(_REGISTRY))}")
    for m in (KRAKEN, LINCOLN):
        print(
            f"machine {m.name}: {m.cpu_flops / 1e6:.0f} MFlop/s/core, "
            f"t_s={m.latency * 1e6:.0f}us, bw={m.bandwidth / 1e9:.1f} GB/s"
        )
    d = TESLA_S1070
    print(
        f"device {d.name}: {d.peak_flops / 1e9:.0f} GFlop/s, "
        f"{d.mem_bandwidth / 1e9:.0f} GB/s, PCIe {d.pcie_bandwidth / 1e9:.0f} GB/s"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Parallel adaptive kernel-independent FMM (SC'09 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("evaluate", help="run an FMM evaluation")
    pe.add_argument("--kernel", default="laplace")
    pe.add_argument("--distribution", default="uniform",
                    choices=["uniform", "ellipsoid", "plummer",
                             "two_spheres", "filament"])
    pe.add_argument("--n", type=int, default=10_000)
    pe.add_argument("--order", type=int, default=6)
    pe.add_argument("--q", type=int, default=100,
                    help="max points per box")
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--check", type=int, nargs="?", const=200, default=0,
                    metavar="N_SAMPLES",
                    help="verify against direct summation on a sample")
    pe.add_argument("--trace", default=None, metavar="OUT_JSONL",
                    help="record phase span events to a JSONL trace file")
    pe.add_argument("--repeat", type=int, default=1, metavar="K",
                    help="apply K times on the fixed tree (amortised plan "
                         "path kicks in from the second call)")
    pe.add_argument("--precision", default="fp64",
                    choices=["fp64", "fp32", "auto"],
                    help="plan precision: fp64 (bit-identical baseline), "
                         "fp32 (float32 GEMM/FFT phases), or auto "
                         "(calibrated pick meeting the error target)")
    pe.add_argument("--steps", type=int, default=0, metavar="K",
                    help="dynamic-geometry mode: perturb a localized blob "
                         "of sources K times, patching the plan each step "
                         "and comparing against a full recompile "
                         "(writes BENCH_dynamic_geometry.json)")
    pe.add_argument("--perturb", type=float, default=0.01, metavar="EPS",
                    help="per-step displacement scale for --steps")
    pe.add_argument("--moved-frac", type=float, default=0.05,
                    help="fraction of points moved per --steps step")
    pe.add_argument("--p", type=int, default=0, metavar="RANKS",
                    help="with --steps: also verify a p-rank sharded "
                         "geometry update bit-identically (0 = skip)")
    pe.add_argument("--out", default="BENCH_dynamic_geometry.json",
                    help="result file for --steps mode")
    pe.add_argument("--gate", action="store_true",
                    help="with --steps: exit nonzero unless every step is "
                         "bit-identical and the median patch time beats "
                         "0.5x the median recompile time")
    pe.add_argument("--threads", type=int, default=None, metavar="T",
                    help="intra-rank parallelism: run plan phase tiles on "
                         "a T-thread pool (bit-identical to serial; "
                         "default: single-threaded)")
    pe.set_defaults(fn=_cmd_evaluate)

    pr = sub.add_parser(
        "trace",
        help="trace a distributed run: comm matrices + critical path",
    )
    pr.add_argument("--kernel", default="laplace")
    pr.add_argument("--distribution", default="ellipsoid",
                    choices=["uniform", "ellipsoid", "plummer",
                             "two_spheres", "filament"])
    pr.add_argument("--n", type=int, default=4_000)
    pr.add_argument("--p", type=int, default=4, help="virtual rank count")
    pr.add_argument("--order", type=int, default=4)
    pr.add_argument("--q", type=int, default=50, help="max points per box")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--machine", default="kraken",
                    choices=["kraken", "lincoln", "local"])
    pr.add_argument("--scheme", default="hypercube",
                    choices=["hypercube", "owner"],
                    help="shared-density reduction scheme")
    pr.add_argument("--phase", default=None,
                    help="only print the matrix of this phase")
    pr.add_argument("--no-matrices", dest="matrices", action="store_false",
                    help="skip the per-phase matrix dump")
    pr.add_argument("--out", default=None, metavar="OUT_JSONL",
                    help="write the full event trace to a JSONL file")
    pr.set_defaults(fn=_cmd_trace)

    pt = sub.add_parser(
        "tune",
        help="SLO-driven config search (cost-model-guided); "
             "--q-sweep for the legacy points-per-box sweep",
    )
    pt.add_argument("--kernel", default="laplace")
    pt.add_argument("--distribution", default="uniform",
                    choices=["uniform", "ellipsoid", "plummer",
                             "two_spheres", "filament"])
    pt.add_argument("--n", type=int, default=None,
                    help="point count (default 20000; 4000 with --gate)")
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--sample", type=int, default=2_000,
                    help="subsample-probe size for calibration/accuracy")
    pt.add_argument("--latency-ms", type=float, default=None,
                    help="SLO latency target in ms (default 250; "
                         "500 with --gate, 2000 with --bench)")
    pt.add_argument("--percentile", type=float, default=95.0,
                    help="SLO latency percentile")
    pt.add_argument("--rtol", type=float, default=1e-3,
                    help="SLO accuracy floor (relative error)")
    pt.add_argument("--budget-frac", type=float, default=0.25,
                    help="fraction of the grid measured probes may touch")
    pt.add_argument("--orders", default="4,6",
                    help="comma list of expansion orders in the grid")
    pt.add_argument("--leaf-sizes", default="64,144,400",
                    help="comma list of max points-per-box in the grid")
    pt.add_argument("--precisions", default="fp64,fp32",
                    help="comma list of plan precisions in the grid")
    pt.add_argument("--batch-shapes", default="8:2",
                    help="comma list of max_batch:max_wait_ms pairs")
    pt.add_argument("--threads", default=None, metavar="T1,T2,...",
                    help="comma list of intra-rank thread counts in the "
                         "grid (default: auto from the host core count)")
    pt.add_argument("--store", default=None, metavar="PATH",
                    help="persist the chosen config in this TuneStore JSON")
    pt.add_argument("--no-measure", action="store_true",
                    help="cost-model-only selection (no measured probes; "
                         "fully deterministic)")
    pt.add_argument("--gate", action="store_true",
                    help="CI gate: assert tuned <= --gate-factor x the "
                         "best exhaustively measured grid point, "
                         "deterministic replay, probe budget respected; "
                         "writes BENCH_autotune.json")
    pt.add_argument("--gate-factor", type=float, default=1.05)
    pt.add_argument("--bench", action="store_true",
                    help="full acceptance: two (distribution, kernel) "
                         "pairs + the workload-shift re-tune drill; "
                         "writes BENCH_autotune.json")
    pt.add_argument("--drill-n", type=int, default=4_000,
                    help="point count of the --bench workload-shift drill")
    pt.add_argument("--out", default=None, metavar="OUT_JSON")
    pt.add_argument("--q-sweep", action="store_true",
                    help="legacy mode: sweep points-per-box only")
    pt.add_argument("--order", type=int, default=6,
                    help="expansion order (--q-sweep only)")
    pt.add_argument("--target", default="cpu", choices=["cpu", "gpu"],
                    help="architecture the --q-sweep tunes for")
    pt.set_defaults(fn=_cmd_tune)

    pc = sub.add_parser(
        "chaos",
        help="fault-injection matrix: typed failure or bit-identical recovery",
    )
    pc.add_argument("--seed", type=int, default=0,
                    help="fault-plan seed (same seed = same injections)")
    pc.add_argument("--p", type=int, default=8, help="virtual rank count")
    pc.add_argument("--n", type=int, default=1200)
    pc.add_argument("--order", type=int, default=4)
    pc.add_argument("--q", type=int, default=50, help="max points per box")
    pc.add_argument("--timeout", type=float, default=120.0,
                    help="per-attempt deadline in seconds")
    pc.add_argument("--out", default=None, metavar="OUT_JSONL",
                    help="write the crash-class recovery trace to JSONL")
    pc.set_defaults(fn=_cmd_chaos)

    ps = sub.add_parser(
        "serve",
        help="run the in-process evaluation service under closed-loop load",
    )
    ps.add_argument("--kernel", default="laplace")
    ps.add_argument("--distribution", default="uniform",
                    choices=["uniform", "ellipsoid", "plummer",
                             "two_spheres", "filament"])
    ps.add_argument("--n", type=int, default=None,
                    help="points per registered model "
                         "(default 8000; 2000 with --dist)")
    ps.add_argument("--order", type=int, default=None,
                    help="expansion order (default 6; 4 with --dist)")
    ps.add_argument("--q", type=int, default=None,
                    help="max points per box (large: shifts work into the "
                         "GEMM-batched U-list, where batching pays; "
                         "default 400; 64 with --dist)")
    ps.add_argument("--models", type=int, default=1,
                    help="number of models to register (m0..mK-1)")
    ps.add_argument("--workers", type=int, default=2)
    ps.add_argument("--clients", type=int, default=None,
                    help="closed-loop client threads "
                         "(default 8; 6 with --dist)")
    ps.add_argument("--duration", type=float, default=None,
                    help="load-generation window in seconds "
                         "(default 5; 4 with --dist)")
    ps.add_argument("--timeout", type=float, default=30.0,
                    help="per-request deadline in seconds")
    ps.add_argument("--max-batch", type=int, default=8)
    ps.add_argument("--max-wait-ms", type=float, default=2.0)
    ps.add_argument("--max-queue", type=int, default=64)
    ps.add_argument("--matrix-budget-mb", type=int, default=2048,
                    help="kernel-matrix cache budget per compiled plan")
    ps.add_argument("--precision", default="fp64",
                    choices=["fp64", "fp32", "auto"],
                    help="plan precision the models are registered at "
                         "(auto calibrates once per model at registration)")
    ps.add_argument("--autotune", action="store_true",
                    help="register models via the SLO-driven autotuner "
                         "(cost-model search + online drift monitor) "
                         "instead of the fixed --order/--q/--precision")
    ps.add_argument("--slo-ms", type=float, default=250.0,
                    help="autotune SLO: p95 latency target in ms")
    ps.add_argument("--store", default=None, metavar="PATH",
                    help="TuneStore JSON consulted/updated by --autotune")
    ps.add_argument("--threads", type=int, default=None, metavar="T",
                    help="intra-rank parallelism: all models share one "
                         "T-thread tile pool (bit-identical results; "
                         "default: single-threaded applies)")
    ps.add_argument("--chaos", action="store_true",
                    help="inject one phase-crash per worker; accepted "
                         "requests must still complete via retry")
    ps.add_argument("--dist", action="store_true",
                    help="run the distributed serving plane: router + "
                         "rank-sharded/replicated models, chaos failover")
    ps.add_argument("--shards", type=int, default=4,
                    help="virtual rank count of the serving fabric (--dist)")
    ps.add_argument("--replicas", type=int, default=2,
                    help="replica count of the replicated model (--dist)")
    ps.add_argument("--dispatchers", type=int, default=2,
                    help="router dispatcher threads (--dist)")
    ps.add_argument("--chaos-factor", type=float, default=10.0,
                    help="bound: chaos p99 must stay within this factor "
                         "of the clean p99 (--dist --bench)")
    ps.add_argument("--bench", action="store_true",
                    help="gate the run (0 failed, p99 < timeout, batching "
                         "engaged) and write BENCH_serving.json")
    ps.add_argument("--out", default=None, metavar="OUT_JSON",
                    help="write the metrics summary JSON here")
    ps.add_argument("--seed", type=int, default=0)
    ps.set_defaults(fn=_cmd_serve)

    pi = sub.add_parser("info", help="print build/config information")
    pi.set_defaults(fn=_cmd_info)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
