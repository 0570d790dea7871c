"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``evaluate``  run a single-process FMM on a synthetic distribution and
              (optionally) verify against direct summation
``trace``     run a distributed FMM with per-message tracing and print
              the communication matrices and critical-path estimates
``tune``      search the (order, leaf size, precision, batch shape) grid
              for the cheapest config meeting an SLO
``serve``     stand up the in-process evaluation service, drive it with
              closed-loop clients, and print latency/throughput/batching
              metrics (``--out`` writes the metrics snapshot)
``info``      print version, kernels, machine/device models

This module parses arguments and calls the library; a ``ValueError``
the library raises, on the caller's thread or on a rank, ends as a usage
error (exit 2).  What the repository measures is measured by
``bench/run.py`` (see ``bench/README.md``).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.datasets import DISTRIBUTIONS
from repro.mpi import SpmdError


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


def _cmd_trace(args) -> int:
    from repro import get_kernel
    from repro.datasets import make_distribution
    from repro.dist.driver import distributed_fmm_rank
    from repro.mpi import KRAKEN, LINCOLN, LOCAL, run_spmd
    from repro.perf.commviz import render_matrix, render_phase_summary, phase_matrices
    from repro.perf.trace import TraceRecorder

    machine = {"kraken": KRAKEN, "lincoln": LINCOLN, "local": LOCAL}[args.machine]
    points = make_distribution(args.distribution, args.n, seed=args.seed)
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


def _tune_grid_from_args(args):
    from repro.tune.search import default_grid

    return default_grid(
        args.n, orders=tuple(int(x) for x in args.orders.split(",")),
        leaf_sizes=tuple(int(x) for x in args.leaf_sizes.split(",")),
        precisions=tuple(p.strip() for p in args.precisions.split(",")),
        batch_shapes=tuple((int(b), float(w)) for b, w in (
            s.split(":") for s in args.batch_shapes.split(","))))


def _cmd_tune(args) -> int:
    """One budgeted SLO-driven config search
    (:func:`repro.tune.search.tune`) on a synthetic distribution; prints
    the chosen config and, with ``--store``, persists it."""
    from repro.datasets import make_distribution
    from repro.tune.search import SLO, tune
    from repro.tune.store import TuneStore, geometry_fingerprint

    slo = SLO(latency_s=args.latency_ms / 1e3, percentile=args.percentile,
              precision_rtol=args.rtol)
    points = make_distribution(args.distribution, args.n, seed=args.seed)
    grid = _tune_grid_from_args(args)

    print(f"tune: N={args.n} {args.distribution} {args.kernel} "
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
        key = TuneStore(args.store).put(geometry_fingerprint(points), args.kernel,
                                        slo, cfg, report=report.to_dict())
        print(f"stored under {key} in {args.store}")
    return 0


def _cmd_serve(args) -> int:
    """Register models on a :class:`~repro.serve.ServeEngine`, drive them
    with closed-loop clients and print the metrics snapshot ``run_load``
    returns; ``--out`` writes that snapshot as JSON."""
    from repro import Fmm
    from repro.datasets import make_distribution
    from repro.serve import ServeEngine
    from repro.serve.loadgen import run_load

    engine = ServeEngine(
        n_workers=args.workers, max_queue=args.max_queue,
        max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
        matrix_budget=args.matrix_budget_mb * 2**20, threads=args.threads,
    )
    print(f"registering {args.models} model(s): N={args.n} {args.kernel} "
          f"order={args.order} box={args.q} (tree + warm plan) ...")
    names = [f"m{i}" for i in range(args.models)]
    for i, name in enumerate(names):
        pts = make_distribution(args.distribution, args.n, seed=args.seed + i)
        fmm = Fmm(args.kernel, order=args.order, max_points_per_box=args.q)
        engine.register(name, fmm, pts, warm=True, precision=args.precision)

    with engine:
        print(f"load: {args.clients} closed-loop clients for {args.duration:g}s "
              f"(timeout {args.timeout:g}s/request)")
        summary = run_load(engine, names, duration_s=args.duration,
                           clients=args.clients, timeout_s=args.timeout,
                           seed=args.seed)
    lg, pc, stats = summary["loadgen"], summary["plan_cache"], engine.plan_stats()
    print(f"\nrequests: {lg['ok']} ok, {lg['overloaded']} overloaded, "
          f"{lg['errors']} errors in {lg['elapsed_s']:.1f}s "
          f"({summary['throughput_rps']:.1f} req/s)")
    for name in names:
        # the snapshot lists only the models that were sent a request
        m = summary["models"].get(name, {"completed": 0, "failed": 0})
        line = f"  {name}: {m['completed']} done, {m['failed']} failed | "
        if m["completed"]:
            ms = {q: m["latency_s"][q] * 1e3 for q in ("p50", "p95", "p99")}
            line += (f"latency p50 {ms['p50']:.0f} p95 {ms['p95']:.0f} "
                     f"p99 {ms['p99']:.0f} ms | batch mean "
                     f"{m['batch_size']['mean']:.2f} | ")
        # served precision and cached plan bytes (dtype-honest)
        mib = sum(stats[name]["plan_bytes"].values()) / 2**20
        print(line + f"{stats[name]['precision']} plan {mib:.1f} MiB")
    print(f"plan cache: {pc['hits']} hits / {pc['misses']} misses "
          f"(hit rate {pc['hit_rate']:.3f}); retries {summary['retried']}, "
          f"rejected {summary['rejected']}, expired {summary['expired']}")
    for err in lg["error_samples"]:
        print(f"  error: {err}")

    if args.out:
        import json

        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
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
                    choices=DISTRIBUTIONS)
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
    pe.add_argument("--precision", default="fp64",
                    choices=["fp64", "fp32", "auto"],
                    help="plan precision; auto: the calibrated pick meeting "
                         "the error target")
    pe.add_argument("--threads", type=int, default=None, metavar="T",
                    help="plan tiles on a T-thread pool, at most every usable "
                         "core (default), bit-identical at any T")
    pe.set_defaults(fn=_cmd_evaluate)

    pr = sub.add_parser(
        "trace",
        help="trace a distributed run: comm matrices + critical path",
    )
    pr.add_argument("--kernel", default="laplace")
    pr.add_argument("--distribution", default="ellipsoid",
                    choices=DISTRIBUTIONS)
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
        help="SLO-driven config search (cost-model-guided)",
    )
    pt.add_argument("--kernel", default="laplace")
    pt.add_argument("--distribution", default="uniform",
                    choices=DISTRIBUTIONS)
    pt.add_argument("--n", type=int, default=20_000)
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--sample", type=int, default=2_000,
                    help="subsample-probe size for calibration/accuracy")
    pt.add_argument("--latency-ms", type=float, default=250.0,
                    help="SLO latency target in ms")
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
    pt.add_argument("--store", default=None, metavar="PATH",
                    help="persist the chosen config in this TuneStore JSON")
    pt.add_argument("--no-measure", action="store_true",
                    help="cost-model-only selection (no measured probes; "
                         "fully deterministic)")
    pt.set_defaults(fn=_cmd_tune)

    ps = sub.add_parser(
        "serve",
        help="run the in-process evaluation service under closed-loop load",
    )
    ps.add_argument("--kernel", default="laplace")
    ps.add_argument("--distribution", default="uniform",
                    choices=DISTRIBUTIONS)
    ps.add_argument("--n", type=int, default=8_000,
                    help="points per registered model")
    ps.add_argument("--order", type=int, default=6)
    ps.add_argument("--q", type=int, default=400,
                    help="max points per box (large: shifts work into the "
                         "GEMM-batched U-list, where batching pays)")
    ps.add_argument("--models", type=int, default=1,
                    help="number of models to register (m0..mK-1)")
    ps.add_argument("--workers", type=int, default=2)
    ps.add_argument("--clients", type=int, default=8,
                    help="closed-loop client threads")
    ps.add_argument("--duration", type=float, default=5.0,
                    help="load-generation window in seconds")
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
    ps.add_argument("--threads", type=int, default=None, metavar="T",
                    help="one T-thread tile pool for all models, at most every "
                         "usable core (default), bit-identical at any T")
    ps.add_argument("--out", default=None, metavar="OUT_JSON",
                    help="write the metrics snapshot JSON here "
                         "(default: nothing is written)")
    ps.add_argument("--seed", type=int, default=0)
    ps.set_defaults(fn=_cmd_serve)

    pi = sub.add_parser("info", help="print build/config information")
    pi.set_defaults(fn=_cmd_info)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, SpmdError) as exc:
        # the library names the offending parameter: a usage error, also
        # when a rank raised it
        cause = exc.__cause__ if isinstance(exc, SpmdError) else exc
        if not isinstance(cause, ValueError):
            raise
        sub.choices[args.command].error(str(cause))


if __name__ == "__main__":
    sys.exit(main())
