"""From ledgers to modelled seconds.

The paper's Table II reports, per evaluation phase, the maximum and the
average (over ranks) of wall-clock time and flops.  Here the per-rank time
of a phase is modelled as

    t_rank(phase) = flops_rank(phase) / cpu_flops + comm_seconds_rank(phase)

with ``comm_seconds`` already accumulated message-by-message by the
simulated communicator under the alpha-beta model.  ``Max`` over ranks
approximates the critical path (barrier-synchronised phases), ``Avg`` the
load; their gap is the paper's load-imbalance signal (Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mpi.machine import MachineModel
from repro.util.timer import PhaseProfile

__all__ = [
    "PhaseTimes",
    "evaluation_phase_times",
    "EVAL_PHASES",
    "aggregate",
    "parallel_report",
    "serve_span_summary",
]

#: Fine-grained evaluation phases, in execution order.  The two
#: communication steps of §III-C are tracked separately: the ghost
#: density exchange and the shared-density reduce-scatter.
EVAL_PHASES = [
    "S2U",
    "U2U",
    "COMM_exchange",
    "COMM_reduce",
    "VLI",
    "XLI",
    "D2D",
    "WLI",
    "D2T",
    "ULI",
]

#: Paper Table II rows -> our fine-grained phases.
TABLE2_ROWS = {
    "Upward": ["S2U", "U2U"],
    "Comm.": ["COMM_exchange", "COMM_reduce"],
    "U-list": ["ULI"],
    "V-list": ["VLI"],
    "W-list": ["WLI"],
    "X-list": ["XLI"],
    "Downward": ["D2D", "D2T"],
}


@dataclass
class PhaseTimes:
    """Max/avg modelled seconds and flops of one phase across ranks."""

    name: str
    max_seconds: float
    avg_seconds: float
    max_flops: float
    avg_flops: float


def _phase_values(profiles: list[PhaseProfile], machine: MachineModel, phases):
    secs = np.zeros(len(profiles))
    flops = np.zeros(len(profiles))
    for i, prof in enumerate(profiles):
        for ph in phases:
            ev = prof.events.get(ph)
            if ev is None:
                continue
            secs[i] += machine.compute_seconds(ev.flops) + ev.comm_seconds
            flops[i] += ev.flops
    return secs, flops


def aggregate(
    profiles: list[PhaseProfile],
    machine: MachineModel,
    name: str,
    phases: list[str],
) -> PhaseTimes:
    """Max/avg across ranks of the combined listed phases."""
    secs, flops = _phase_values(profiles, machine, phases)
    return PhaseTimes(
        name=name,
        max_seconds=float(secs.max()),
        avg_seconds=float(secs.mean()),
        max_flops=float(flops.max()),
        avg_flops=float(flops.mean()),
    )


def evaluation_phase_times(
    profiles: list[PhaseProfile], machine: MachineModel
) -> list[PhaseTimes]:
    """The paper's Table II rows (Total eval + breakdown + Comp)."""
    rows = [aggregate(profiles, machine, "Total eval", EVAL_PHASES)]
    for row_name, phases in TABLE2_ROWS.items():
        rows.append(aggregate(profiles, machine, row_name, phases))
    comp = [ph for ph in EVAL_PHASES if not ph.startswith("COMM")]
    rows.append(aggregate(profiles, machine, "Comp", comp))
    return rows


def overlapped_eval_seconds(
    profiles: list[PhaseProfile], machine: MachineModel
) -> tuple[float, float]:
    """Evaluation time with communication/computation overlap (future work).

    The paper lists overlap as an unexploited opportunity ("we do not
    thoroughly overlap computation and communication").  Two overlaps are
    legal by the dependency structure of Algorithm 1:

    * the ghost density exchange only feeds the *direct* phases, so it can
      hide behind S2U + U2U;
    * the reduce-scatter only feeds V/W, so it can hide behind the X-list
      (which needs ghost points but not reduced densities).

    Returns ``(overlapped, sequential)`` max-over-ranks modelled seconds.
    """
    seq = np.zeros(len(profiles))
    ovl = np.zeros(len(profiles))
    for i, prof in enumerate(profiles):
        t = {}
        for ph in EVAL_PHASES:
            ev = prof.events.get(ph)
            t[ph] = (
                machine.compute_seconds(ev.flops) + ev.comm_seconds
                if ev is not None
                else 0.0
            )
        seq[i] = sum(t.values())
        upward = t["S2U"] + t["U2U"]
        rest = t["VLI"] + t["D2D"] + t["WLI"] + t["D2T"] + t["ULI"]
        ovl[i] = (
            max(t["COMM_exchange"], upward)
            + max(t["COMM_reduce"], t["XLI"])
            + rest
        )
    return float(ovl.max()), float(seq.max())


def parallel_report(trace) -> dict:
    """Modelled vs achieved intra-rank parallel speedup per phase.

    Reads the ``PARALLEL:<phase>`` / ``PARALLEL:busy:<phase>`` span pairs
    the tile executor emits (see
    :func:`repro.core.parallel.record_parallel_spans`): the first carries
    the section's elapsed wall seconds and its tile count (in
    ``comm_messages``), the second the summed per-tile busy seconds and
    the pool's thread count.  Per phase:

    * ``achieved`` — summed busy over summed elapsed: how many tiles
      were, on average, actually in flight at once.  1.0 means the
      section ran serially (one core, GIL-bound tiles, or a 1-thread
      pool); ``threads`` is the ceiling.
    * ``modelled`` — ``tiles / ceil(tiles / threads)`` averaged over
      sections (elapsed-weighted): the speedup a perfect
      fixed-assignment schedule of equal-cost tiles would reach, i.e.
      the quantisation-limited bound for the observed tile counts.

    The ``overall`` entry aggregates every phase.  The gap between
    achieved and modelled is lost to tile cost imbalance, combine
    serialisation and pool handoff.
    """
    per_phase: dict[str, dict[str, float]] = {}
    for ev in trace.span_events():
        ph = ev.phase
        if not ph.startswith("PARALLEL:"):
            continue
        busy = ph.startswith("PARALLEL:busy:")
        name = ph.split(":", 2)[2] if busy else ph.split(":", 1)[1]
        st = per_phase.setdefault(name, {
            "elapsed_s": 0.0, "busy_s": 0.0, "tiles": 0, "sections": 0,
            "threads": 0,
        })
        if busy:
            st["busy_s"] += ev.wall_s
            st["threads"] = max(st["threads"], int(ev.comm_messages))
        else:
            st["elapsed_s"] += ev.wall_s
            st["tiles"] += int(ev.comm_messages)
            st["sections"] += 1
    out: dict[str, dict] = {}
    tot_elapsed = tot_busy = 0.0
    tot_modelled_w = 0.0
    for name, st in per_phase.items():
        threads = max(st["threads"], 1)
        # elapsed-weighted mean of the per-section quantisation bound;
        # sections of one phase share a tile count in steady state, so
        # using the aggregate tiles/sections is faithful
        tiles_per_section = st["tiles"] / max(st["sections"], 1)
        waves = np.ceil(tiles_per_section / threads)
        modelled = (
            tiles_per_section / waves if waves > 0 else 1.0
        )
        achieved = (
            st["busy_s"] / st["elapsed_s"] if st["elapsed_s"] > 0 else 1.0
        )
        out[name] = {
            "modelled": float(min(modelled, threads)),
            "achieved": float(achieved),
            "elapsed_s": float(st["elapsed_s"]),
            "busy_s": float(st["busy_s"]),
            "tiles": int(st["tiles"]),
            "sections": int(st["sections"]),
            "threads": int(threads),
        }
        tot_elapsed += st["elapsed_s"]
        tot_busy += st["busy_s"]
        tot_modelled_w += out[name]["modelled"] * st["elapsed_s"]
    report = {"phases": out}
    if out:
        report["overall"] = {
            "modelled": float(
                tot_modelled_w / tot_elapsed if tot_elapsed > 0 else 1.0
            ),
            "achieved": float(
                tot_busy / tot_elapsed if tot_elapsed > 0 else 1.0
            ),
            "elapsed_s": float(tot_elapsed),
            "busy_s": float(tot_busy),
        }
    return report


def serve_span_summary(trace) -> dict:
    """Aggregate the serving plane's trace spans into one health report.

    The distributed serving plane narrates itself through three span
    families on the shared :class:`~repro.perf.trace.TraceRecorder`:

    * ``SERVE:heartbeat:<model>`` — one per rank per completed dispatch
      (liveness: a silent rank under traffic is a wedged rank),
    * ``SERVE:dispatch:<model>`` — the router rank's per-request spans,
    * ``RECOVERY:retry#K:<cause>:backoff=<s>s`` — one per failover retry
      (the span's ``comm_s`` carries the backoff actually slept), plus
      ``RECOVERY:resume`` / ``RECOVERY:gpu_fallback:*`` from the
      checkpoint and device-degrade machinery, and ``CHAOS:*`` spans
      marking the injections themselves.

    Returns a JSON-friendly dict: per-model heartbeat counts per rank,
    per-model dispatch count and wall-time sum, retries by cause with
    total backoff, and raw counts of resume / fallback / chaos spans.
    """
    heartbeats: dict[str, dict[int, int]] = {}
    dispatches: dict[str, dict] = {}
    retries: dict[str, int] = {}
    backoff_s = 0.0
    resumes = 0
    gpu_fallbacks = 0
    chaos: dict[str, int] = {}
    for ev in trace.span_events():
        ph = ev.phase
        if ph.startswith("SERVE:heartbeat:"):
            model = ph.split(":", 2)[2]
            per_rank = heartbeats.setdefault(model, {})
            per_rank[ev.rank] = per_rank.get(ev.rank, 0) + 1
        elif ph.startswith("SERVE:dispatch:"):
            model = ph.split(":", 2)[2]
            d = dispatches.setdefault(model, {"count": 0, "wall_s": 0.0})
            d["count"] += 1
            d["wall_s"] += ev.wall_s
        elif ph.startswith("RECOVERY:retry"):
            # RECOVERY:retry#K:<cause>:backoff=<s>s
            parts = ph.split(":")
            cause = parts[2] if len(parts) > 2 else "unknown"
            retries[cause] = retries.get(cause, 0) + 1
            backoff_s += ev.comm_s
        elif ph == "RECOVERY:resume":
            resumes += 1
        elif ph.startswith("RECOVERY:gpu_fallback"):
            gpu_fallbacks += 1
        elif ph.startswith("CHAOS:"):
            kind = ph.split(":", 1)[1]
            chaos[kind] = chaos.get(kind, 0) + 1
    return {
        "heartbeats": heartbeats,
        "dispatches": dispatches,
        "retries_by_cause": retries,
        "backoff_s": backoff_s,
        "checkpoint_resumes": resumes,
        "gpu_fallbacks": gpu_fallbacks,
        "injections": chaos,
    }
