"""One serving front: ``ServeEngine`` and ``Router`` share the admission,
deadline, drain and blocking-evaluate contract of ``ServeFront``.

Every test runs against both classes.  What differs between them (the
precision policy, the breaker fast-fail, how a batch is executed) is
tested in ``test_serve.py`` / ``test_precision.py`` / ``test_dist_serve.py``.
"""

import inspect
import time

import numpy as np
import pytest

from repro.core import Fmm
from repro.datasets import uniform_cube
from repro.serve import (
    DeadlineExceeded,
    DistServeEngine,
    Overloaded,
    Router,
    ServeEngine,
    UnknownModel,
)
from repro.serve.scheduler import ServeFront, retry_after_hint

N = 300
MAX_QUEUE = 3
POINTS = uniform_cube(N, seed=5)


@pytest.fixture(scope="module")
def dist_engine():
    eng = DistServeEngine(nranks=2)
    eng.register("m", POINTS, order=4, max_points_per_box=40)
    return eng


@pytest.fixture(params=["engine", "router"])
def front(request):
    """An unstarted front with model ``"m"`` and room for MAX_QUEUE requests."""
    if request.param == "router":
        made = Router(request.getfixturevalue("dist_engine"),
                      n_dispatchers=1, max_queue=MAX_QUEUE)
    else:
        made = ServeEngine(n_workers=1, max_queue=MAX_QUEUE)
        made.register("m", Fmm("laplace", order=4, max_points_per_box=40),
                      POINTS)
    assert isinstance(made, ServeFront)
    yield made
    made.stop()


def test_bad_input_is_typed_before_anything_is_queued(front):
    with pytest.raises(UnknownModel):
        front.submit("nope", np.zeros(N))
    with pytest.raises(ValueError, match=r"shape \(7,\).*expected.*300"):
        front.submit("m", np.zeros(7))
    assert front.expected("m") == N
    assert front.queue.depth == 0


def test_overloaded_carries_a_bounded_retry_after(front):
    for _ in range(MAX_QUEUE):  # not started: the queue can only fill
        front.submit("m", np.zeros(N))
    with pytest.raises(Overloaded) as rejected:
        front.submit("m", np.zeros(N))
    bounds = inspect.signature(retry_after_hint).parameters
    assert (bounds["floor_s"].default <= rejected.value.retry_after_s
            <= bounds["cap_s"].default)
    snap = front.metrics.snapshot()
    assert snap["rejected"] == 1
    # depth is sampled after a successful push only: the peak is the full
    # queue, and the rejected request left no sample
    assert snap["queue_depth"] == {
        "peak": MAX_QUEUE, "mean": (1 + MAX_QUEUE) / 2,
    }


def test_request_expired_in_queue_is_typed_never_evaluated(front):
    late = front.submit("m", np.zeros(N), timeout_s=0.001)
    fine = front.submit("m", np.ones(N), timeout_s=60.0)
    time.sleep(0.05)  # the first deadline lapses before any worker runs
    front.start()
    with pytest.raises(DeadlineExceeded):
        late.result(timeout=30.0)
    assert np.isfinite(fine.result(timeout=30.0)).all()
    snap = front.metrics.snapshot()
    assert snap["expired"] == 1
    assert snap["models"]["m"]["completed"] == 1


def test_stop_rejects_and_counts_every_queued_request(front):
    reqs = [front.submit("m", np.zeros(N)) for _ in range(MAX_QUEUE)]
    front.stop()  # never started: nothing may be left hanging
    for req in reqs:
        with pytest.raises(Overloaded):
            req.result(timeout=1.0)
    assert front.metrics.snapshot()["failed"] == MAX_QUEUE
    front.stop()  # idempotent


def test_evaluate_blocks_for_the_reply(front):
    dens = np.random.default_rng(1).standard_normal(N)
    with front:
        first = front.evaluate("m", dens, timeout_s=30.0)
        assert np.array_equal(front.evaluate("m", dens, tenant="t1"), first)
    assert first.shape == (N,)
