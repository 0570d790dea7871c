"""Simulated MPI runtime.

This environment has no MPI (and one core), so the paper's distributed
algorithms run on a *simulated* communicator: every virtual rank executes
the real SPMD code in its own thread, exchanging pickled payloads through
an in-process fabric with MPI point-to-point semantics.  Collectives are
implemented *on top of* point-to-point with the textbook algorithms
(binomial trees, recursive doubling, pairwise exchange), so per-rank
message counts and byte volumes are the ones a real run would produce.

Time is *modelled*, not measured: each message charges the standard
alpha-beta cost ``t_s + nbytes / bandwidth`` to both endpoints' phase
profiles, and compute phases are converted from counted flops by
:mod:`repro.perf.model` using a :class:`MachineModel`.  This reproduces the
paper's own analysis framework (its Section III-C/III-D complexity model)
at laptop scale.

Failure semantics: when a rank raises (or the run times out) the fabric
aborts via ``Fabric.abort_all``, which sets the abort flag *and* notifies
every rank's condition variable — surviving ranks blocked in ``recv``
unblock immediately with ``SpmdAborted`` instead of waiting on a poll
tick.  ``run_spmd``'s ``timeout`` is one shared deadline for the whole
run: all thread joins draw from a single time budget, so a wedged run
fails after ``timeout`` seconds total rather than ``nranks * timeout``.

Per-message observability is opt-in: ``run_spmd(..., trace=True)``
threads a :class:`repro.perf.trace.TraceRecorder` through every rank's
communicator; see :mod:`repro.perf.commviz` for communication matrices
and critical-path estimates built from the trace.

Chaos and recovery (see :mod:`repro.mpi.faults`): a seeded
:class:`~repro.mpi.faults.FaultPlan` passed as ``run_spmd(...,
faults=...)`` injects rank crashes, stragglers, dropped/duplicated
deliveries and payload bit-flips deterministically;
``integrity=True`` adds a CRC32 + sequence frame to every message so
corruption surfaces as a typed :class:`~repro.mpi.comm.CorruptMessage`
instead of an unpickling crash or a silent hang.
:func:`~repro.mpi.runtime.run_spmd_resilient` retries whole runs on
typed transient faults under a bounded
:class:`~repro.mpi.faults.RetryPolicy`.
"""

from repro.mpi.machine import KRAKEN, LINCOLN, LOCAL, MachineModel
from repro.mpi.comm import CorruptMessage, SimComm
from repro.mpi.runtime import SpmdError, run_spmd, run_spmd_resilient

__all__ = [
    "MachineModel",
    "KRAKEN",
    "LINCOLN",
    "LOCAL",
    "SimComm",
    "CorruptMessage",
    "SpmdError",
    "run_spmd",
    "run_spmd_resilient",
]
