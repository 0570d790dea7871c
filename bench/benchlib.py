"""Shared pieces of the benchmark: workload table, seeded inputs, statistics,
spans, host description and host hygiene.

Nothing here imports :mod:`repro` at module level, so the parent runner and
``compare.py`` work without the program on the path; the few helpers that
call into it import it inside the function.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
PHASES = ("S2U", "U2U", "VLI", "XLI", "D2D", "WLI", "D2T", "ULI")


def contract() -> dict:
    """The root ``BENCHMARK.json``: workload names, metric names, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- workloads -----------------------------------------------------------------
#
# Sizes are chosen for a 2-core host: every workload's cold start, warm
# measurement and checks fit one ~30 s run.  ``prefault_mb`` is about 80 %
# of the workload's own peak RSS (see ``prefault``); ``err_ceiling`` is the
# hard accuracy limit of the (kernel, order, precision) it runs.

WORKLOADS = {
    "uniform_laplace": {
        "kind": "solo", "points": "uniform", "n": 20000, "kernel": "laplace",
        "order": 6, "q": 64, "steps": 0, "err_ceiling": 1e-5,
        "prefault_mb": 550,
    },
    "plummer_adaptive": {
        "kind": "solo", "points": "plummer", "n": 8000, "kernel": "laplace",
        "order": 6, "q": 64, "steps": 6, "err_ceiling": 1e-5,
        "prefault_mb": 800,
    },
    "ellipsoid_dist": {
        "kind": "dist", "points": "ellipsoid", "n": 20000, "kernel": "laplace",
        "order": 6, "q": 64, "p": 2, "err_ceiling": 1e-5,
        "prefault_mb": 800,
    },
    "serve_mixed": {
        "kind": "serve", "err_ceiling": {"lap": 1e-3, "stk": 5e-4},
        "models": {
            "lap": {"points": "ellipsoid", "n": 5000, "kernel": "laplace",
                    "order": 4, "q": 64, "precision": "fp32"},
            "stk": {"points": "uniform", "n": 3000, "kernel": "stokes",
                    "order": 6, "q": 64, "precision": "fp64"},
        },
        "mix": ("lap",) * 7 + ("stk",) * 3,
        "rate_a": 3.0, "rate_b": 32.0, "sweep": (6.0, 9.0),
        "tail_limit_s": 1.5, "prefault_mb": 550,
    },
}

#: ``--smoke``: same code paths at N ~ 2000, for the self-test only.
SMOKE = {
    "uniform_laplace": {"n": 2000, "prefault_mb": 64},
    "plummer_adaptive": {"n": 2000, "prefault_mb": 64, "steps": 2},
    "ellipsoid_dist": {"n": 2000, "prefault_mb": 64},
    "serve_mixed": {"prefault_mb": 64, "rate_a": 12.0, "rate_b": 128.0,
                    "sweep": (24.0, 36.0), "models": {
        name: {**model, "n": n} for (name, model), n in zip(
            WORKLOADS["serve_mixed"]["models"].items(), (1500, 800))}},
}


def workload_spec(name: str, smoke: bool = False) -> dict:
    spec = dict(WORKLOADS[name])
    if smoke:
        spec.update(SMOKE[name])
    return spec


# -- seeded inputs -------------------------------------------------------------
#
# The benchmark makes its own inputs and hands the program arrays only.

def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *stream])


def make_points(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` points in the open unit cube: uniform, the paper's 1:1:4
    ellipsoid surface (uniform in the spherical angles), or a Plummer
    cluster.

    The Plummer cluster is one fixed draw.  Two draws differ by ~5 % in
    list sizes and, through which W-list blocks miss the matrix budget, by
    +-12 % in apply time, which would be the run-to-run spread of every
    metric on that workload; the seed still draws its densities and its
    geometry steps."""
    if kind == "uniform":
        return rng.random((n, 3))
    if kind == "ellipsoid":
        theta = rng.uniform(0.0, np.pi, n)
        phi = rng.uniform(0.0, 2.0 * np.pi, n)
        st = np.sin(theta)
        return 0.5 + np.stack(
            [0.1 * st * np.cos(phi), 0.1 * st * np.sin(phi),
             0.4 * np.cos(theta)], axis=1)
    if kind == "plummer":
        rng = rng_for(2009, 0)
        u = rng.uniform(1e-8, 1.0, n)
        r = np.minimum(0.06 / np.sqrt(u ** (-2.0 / 3.0) - 1.0), 0.45)
        v = rng.standard_normal((n, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return np.clip(0.5 + v * r[:, None], 1e-9, 1.0 - 1e-9)
    raise ValueError(f"unknown point distribution {kind!r}")


def blob_step(rng, pts: np.ndarray, frac: float = 0.05, sigma: float = 0.01):
    """Drift the ``frac`` of points nearest a random centre by ``sigma``."""
    n = len(pts)
    m = max(1, int(round(frac * n)))
    d2 = ((pts - pts[rng.integers(n)]) ** 2).sum(axis=1)
    moved = np.argpartition(d2, m - 1)[:m]
    new = pts.copy()
    new[moved] = np.clip(
        new[moved] + rng.normal(scale=sigma, size=3)
        + rng.normal(scale=sigma / 4.0, size=(m, 3)), 1e-9, 1.0 - 1e-9)
    return new, moved


def schedule(rng, rate: float, n: int, mix: tuple, poisson: bool = True):
    """Open-loop arrivals: ``n`` due times at ``rate`` with exponential gaps
    (Poisson) or, for a phase that measures latency without bursts, a
    jittered fixed-rate clock.  The count is fixed and the model of each
    request comes from seeded shuffles of ``mix``, so every seed offers the
    same work and only its order and timing differ."""
    gaps = rng.exponential(1.0, n) if poisson else rng.uniform(0.7, 1.3, n)
    names = []
    while len(names) < n:
        names.extend(rng.permutation(np.array(mix)).tolist())
    return list(zip((np.cumsum(gaps) / rate).tolist(), names[:n]))


# -- statistics ----------------------------------------------------------------

def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    vals = [float(v) for v in values]
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile; with 20 samples or fewer nothing above the median is
    supported, so the median is returned as p50."""
    vals = sorted(float(v) for v in values)
    n = len(vals)
    if n <= 20:
        return statistics.median(vals), 50.0
    return vals[n - 11], 100.0 * (n - 10) / n


def timing(values) -> dict:
    """A timing record: mean as the value, plus median, tail and count."""
    t, pct = tail(values)
    return {"value": float(np.mean(values)), "unit": "s",
            "median": statistics.median(values), "tail": t,
            "tail_pct": round(pct, 1), "n": len(values)}


def metric(value, unit: str, **extra) -> dict:
    return {"value": float(value), "unit": unit, **extra}


# -- spans ---------------------------------------------------------------------

class Spans:
    """In-memory span log, written out by the runner when the benchmark ends.

    A span is (name, start, end, parent, workload, sample).  ``span()``
    wraps a benchmark-side call; :meth:`record_span` is the duck-typed hook
    ``PhaseProfile.bind_trace`` calls when a phase closes, so the program's
    own phases nest under the benchmark-side span that was open.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.rows: list[dict] = []
        self._open: list[int] = []

    def add(self, name, start, end, parent=None, sample=None) -> int:
        self.rows.append({"name": name, "start": start, "end": end,
                          "parent": parent, "workload": self.workload,
                          "sample": sample})
        return len(self.rows) - 1

    @contextmanager
    def span(self, name: str, sample=None):
        parent = self._open[-1] if self._open else None
        idx = self.add(name, time.perf_counter(), None, parent, sample)
        self._open.append(idx)
        try:
            yield self.rows[idx]
        finally:
            self._open.pop()
            self.rows[idx]["end"] = time.perf_counter()

    def record_span(self, rank, name, wall, *counters, **flags) -> None:
        end = time.perf_counter()
        parent = self._open[-1] if self._open else None
        sample = self.rows[parent]["sample"] if parent is not None else None
        self.add(f"phase.{name}", end - wall, end, parent, sample)

    def seconds(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.rows if r["name"] == name]


# -- host ------------------------------------------------------------------------

def _first_line(path: str, key: str) -> str:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


#: glibc malloc settings every child runs under: freed memory stays in the
#: process (one arena, no mmap for large blocks, no trimming).  This VM's
#: hypervisor takes freed pages back within about a second and charges
#: ~17 us to touch one again, so under the default allocator an apply that
#: frees and reallocates its temporaries about once a second alternates
#: between two speeds (8 000-point Plummer, same seed: 0.97-1.05 s with a
#: 1.6 s worst apply by default, 0.69-0.75 s with a 0.83 s worst apply under
#: these settings).  Recorded in the host block.
CHILD_ENV = {"MALLOC_ARENA_MAX": "1", "MALLOC_MMAP_MAX_": "0",
             "MALLOC_TRIM_THRESHOLD_": str(2**36)}


def host_block(seed: int) -> dict:
    """What the numbers were taken on.  BLAS threads are reported as the
    program got them: the benchmark never sets a thread variable."""
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, timeout=10,
            capture_output=True, text=True).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "cpu": _first_line("/proc/cpuinfo", "model name"),
        "mem_total": _first_line("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": None,  # filled in from what the measuring child got
        "blas_env": {k: v for k, v in os.environ.items()
                     if k.endswith("_NUM_THREADS")},
        "malloc_env": CHILD_ENV,
        "git_sha": sha,
        "seed": seed,
    }


# -- host hygiene --------------------------------------------------------------

def first_touch_gbs(mb: int) -> float:
    """Allocate ``mb`` MiB, write one byte per page, free; GB/s achieved."""
    n = mb * 2**20
    t0 = time.perf_counter()
    buf = np.empty(n, dtype=np.uint8)
    buf[::4096] = 1
    dt = time.perf_counter() - t0
    del buf
    return n / dt / 1e9


def reset_peak_rss() -> bool:
    """Reset this process's RSS high-water mark (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def prefault(mb: int) -> dict:
    """Touch and free ``mb`` MiB right before a timed region.

    A page the guest has never touched, or that the hypervisor took back,
    costs ~17 us on first touch here, which moved the same cold compile
    between 2 s and 6 s across fresh processes.  Under ``CHILD_ENV`` the
    freed block stays in the heap, so the timed region fills pages that are
    already resident.  ``mb`` is kept below the workload's own peak and the
    high-water mark is reset afterwards, so ``peak_rss_mb`` still reads the
    program's peak; where the mark cannot be reset the pre-fault is skipped
    and the check says so.
    """
    if not reset_peak_rss():
        return {"check": "skipped(cannot reset VmHWM)", "before": 0.0, "after": 0.0}
    before = first_touch_gbs(mb)
    after = first_touch_gbs(mb)
    reset_peak_rss()
    return {"check": "enforced", "before": before, "after": after}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- same-run references (traced run only) -----------------------------------------

def host_references(spans: Spans) -> dict:
    """Triad bandwidth, DGEMM rate and direct-sum pair rates taken in the
    same run, so phase flop rates and computed bytes can be read against a
    roofline.  The triad arrays are 64 MiB each (recorded); a VM's reported
    last-level cache can be larger than that, so the figure is an upper
    bound on sustainable bandwidth, not a guarantee of it."""
    from repro import direct_sum, get_kernel

    out = {}
    n = 8 * 2**20
    a, b, c = np.ones(n), np.ones(n), np.ones(n)
    best = float("inf")
    for _ in range(3):
        with spans.span("host.triad") as sp:
            np.multiply(c, 3.0, out=a)
            np.add(a, b, out=a)
        best = min(best, sp["end"] - sp["start"])
    # two passes, each reading two arrays and writing one
    out["host.triad_gbs"] = metric(6 * 8 * n / best / 1e9, "GB/s", array_mb=64)
    del a, b, c
    m = 768
    x, y = np.ones((m, m)), np.ones((m, m))
    x @ y
    best = float("inf")
    for _ in range(3):
        with spans.span("host.dgemm") as sp:
            x @ y
        best = min(best, sp["end"] - sp["start"])
    out["host.dgemm_gflops"] = metric(2 * m**3 / best / 1e9, "GFLOP/s", n=m)
    rng = rng_for(0, 99)
    pts = rng.random((2000, 3))
    for name in ("laplace", "stokes"):
        kern = get_kernel(name)
        dens = rng.standard_normal(2000 * kern.source_dim)
        direct_sum(kern, pts[:64], pts, dens)
        with spans.span(f"kernels.{name}.direct_sum") as sp:
            direct_sum(kern, pts, pts, dens)
        out[f"kernels.{name}.pairs_per_s"] = metric(
            4e6 / (sp["end"] - sp["start"]), "1/s")
    return out
