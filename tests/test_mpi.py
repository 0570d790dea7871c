"""Tests for the simulated MPI runtime: semantics, ledgers, failure modes."""

import numpy as np
import pytest

from repro.mpi import KRAKEN, LOCAL, MachineModel, run_spmd
from repro.util.blas import blas_controller, blas_thread_count


class TestMachineModel:
    def test_message_seconds(self):
        m = MachineModel("m", cpu_flops=1e9, latency=1e-6, bandwidth=1e9)
        assert m.message_seconds(0) == pytest.approx(1e-6)
        assert m.message_seconds(1e9) == pytest.approx(1.0 + 1e-6)

    def test_compute_seconds(self):
        assert KRAKEN.compute_seconds(500e6) == pytest.approx(1.0)


class TestPointToPoint:
    def test_ring_exchange(self):
        def ring(comm):
            r, p = comm.rank, comm.size
            comm.send(("payload", r), (r + 1) % p, tag=3)
            who, val = None, None
            val, who = comm.recv((r - 1) % p, tag=3)[::-1], None
            return val

        res = run_spmd(4, ring, timeout=60)
        assert [v[0] for v in res.values] == [3, 0, 1, 2]

    def test_numpy_payload_is_isolated(self):
        """Receiver mutations must not affect the sender's array."""

        def fn(comm):
            arr = np.arange(5)
            if comm.rank == 0:
                comm.send(arr, 1, tag=1)
                comm.barrier()
                return arr.copy()
            got = comm.recv(0, tag=1)
            got += 100
            comm.barrier()
            return got

        res = run_spmd(2, fn, timeout=60)
        np.testing.assert_array_equal(res.values[0], np.arange(5))
        np.testing.assert_array_equal(res.values[1], np.arange(5) + 100)

    def test_tag_selectivity(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("a", 1, tag=1)
                comm.send("b", 1, tag=2)
                return None
            second = comm.recv(0, tag=2)
            first = comm.recv(0, tag=1)
            return (first, second)

        res = run_spmd(2, fn, timeout=60)
        assert res.values[1] == ("a", "b")

    def test_invalid_peer_rejected(self):
        def fn(comm):
            comm.send(1, 5)

        with pytest.raises(RuntimeError, match="invalid dest"):
            run_spmd(2, fn, timeout=60)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
class TestCollectives:
    def test_bcast_all_roots(self, p):
        def fn(comm):
            out = []
            for root in range(comm.size):
                val = {"r": root} if comm.rank == root else None
                out.append(comm.bcast(val, root=root)["r"])
            return out

        res = run_spmd(p, fn, timeout=120)
        for v in res.values:
            assert v == list(range(p))

    def test_reduce_and_allreduce(self, p):
        def fn(comm):
            total = comm.reduce(np.array([comm.rank + 1.0]), root=0)
            every = comm.allreduce(comm.rank + 1.0)
            return total, every

        res = run_spmd(p, fn, timeout=120)
        expect = p * (p + 1) / 2
        assert res.values[0][0][0] == expect
        assert all(v[1] == expect for v in res.values)

    def test_gather_allgather(self, p):
        def fn(comm):
            g = comm.gather(comm.rank**2, root=p - 1)
            ag = comm.allgather(chr(ord("a") + comm.rank))
            return g, ag

        res = run_spmd(p, fn, timeout=120)
        assert res.values[p - 1][0] == [i**2 for i in range(p)]
        for v in res.values:
            assert v[1] == [chr(ord("a") + i) for i in range(p)]

    def test_alltoall(self, p):
        def fn(comm):
            out = comm.alltoall([(comm.rank, k) for k in range(comm.size)])
            return out

        res = run_spmd(p, fn, timeout=120)
        for r, v in enumerate(res.values):
            assert v == [(k, r) for k in range(p)]

    def test_exscan(self, p):
        def fn(comm):
            return comm.exscan(float(comm.rank + 1))

        res = run_spmd(p, fn, timeout=120)
        assert res.values[0] is None
        for r in range(1, p):
            assert res.values[r] == r * (r + 1) / 2

    def test_barrier_completes(self, p):
        def fn(comm):
            for _ in range(3):
                comm.barrier()
            return True

        assert all(run_spmd(p, fn, timeout=120).values)


class TestCollectiveTagStress:
    @pytest.mark.parametrize("p", [2, 5, 8])
    def test_skewed_collective_sequences(self, p):
        """Rank-dependent point-to-point skew around back-to-back collectives.

        Buffered user sends land before/after the collectives depending on
        rank parity; the drain at the end must see them all in order, and
        no round of a (round-stamped) collective may have swallowed one.
        """

        def fn(comm):
            r, psz = comm.rank, comm.size
            peer = r ^ 1 if (r ^ 1) < psz else r
            acc = []
            for it in range(4):
                # skew: even ranks post before the collective, odd after
                if r % 2 == 0:
                    comm.send((r, it), peer, tag=11)
                acc.append(comm.allreduce(it + r))
                if r % 2 == 1:
                    comm.send((r, it), peer, tag=11)
                comm.barrier()
            drained = [comm.recv(peer, tag=11) for _ in range(4)]
            return acc, drained

        res = run_spmd(p, fn, timeout=120)
        for r, (acc, drained) in enumerate(res.values):
            peer = r ^ 1 if (r ^ 1) < p else r
            assert drained == [(peer, it) for it in range(4)]
            for it in range(4):
                assert acc[it] == p * it + p * (p - 1) // 2


class TestAlltoallNonPowerOfTwo:
    def test_every_block_arrives_exactly_once_p6(self):
        """Non-power-of-two sizes take the (r + i) % p partner path; every
        one of the p*p blocks must arrive exactly once at its destination."""
        p = 6

        def fn(comm):
            blocks = [f"{comm.rank}->{k}" for k in range(comm.size)]
            return comm.alltoall(blocks)

        res = run_spmd(p, fn, timeout=120)
        seen = [blk for got in res.values for blk in got]
        assert len(seen) == p * p
        assert len(set(seen)) == p * p, "a block arrived more than once"
        for r, got in enumerate(res.values):
            assert got == [f"{k}->{r}" for k in range(p)]


class TestLedger:
    def test_bytes_and_messages_counted(self):
        def fn(comm):
            comm.send(np.zeros(1000), (comm.rank + 1) % 2, tag=1)
            comm.recv((comm.rank + 1) % 2, tag=1)
            return comm.messages_sent, comm.bytes_sent

        res = run_spmd(2, fn, machine=LOCAL, timeout=60)
        msgs, nbytes = res.values[0]
        assert msgs == 1
        assert nbytes > 8000  # 1000 float64 + pickle framing

    def test_phase_attribution(self):
        def fn(comm):
            with comm.profile.phase("talk"):
                comm.sendrecv(np.zeros(100), comm.rank ^ 1, tag=2)
            return None

        res = run_spmd(2, fn, machine=LOCAL, timeout=60)
        ev = res.profiles[0].events["talk"]
        assert ev.comm_messages == 2  # one send + one recv charged
        assert ev.comm_seconds > 0

    def test_modeled_phase_seconds(self):
        def fn(comm):
            with comm.profile.phase("work"):
                comm.profile.add_flops(2e9)
            return None

        res = run_spmd(2, fn, machine=LOCAL, timeout=60)
        assert res.max_phase_seconds(LOCAL, "work") == pytest.approx(2.0)
        assert res.avg_phase_seconds(LOCAL, "work") == pytest.approx(2.0)


class TestFailures:
    def test_exception_propagates(self):
        def fn(comm):
            if comm.rank == 1:
                raise ValueError("kaboom")
            comm.recv(1, tag=9)

        with pytest.raises(RuntimeError, match="kaboom"):
            run_spmd(3, fn, timeout=60)

    def test_bad_nranks(self):
        with pytest.raises(ValueError):
            run_spmd(0, lambda comm: None)


class TestBlasPin:
    """Ranks are threads of one process: more than one rank runs with one
    BLAS thread each, or p ranks x the BLAS pool oversubscribe the host."""

    @pytest.fixture
    def ambient(self):
        ctl = blas_controller()
        if ctl is None:
            pytest.skip("no controllable BLAS")
        saved = blas_thread_count()
        ctl.set(2)  # an ambient setting the pin has to change and restore
        try:
            if blas_thread_count() != 2:
                pytest.skip("BLAS does not take a second thread here")
            yield 2
        finally:
            ctl.set(saved)

    def test_ranks_run_pinned_and_the_setting_comes_back(self, ambient):
        res = run_spmd(2, lambda comm: blas_thread_count(), timeout=60)
        assert res.values == [1, 1]
        assert blas_thread_count() == ambient

    def test_restored_when_a_rank_raises(self, ambient):
        def fn(comm):
            if comm.rank == 1:
                raise ValueError("kaboom")
            comm.recv(1, tag=9)

        with pytest.raises(RuntimeError, match="kaboom"):
            run_spmd(2, fn, timeout=60)
        assert blas_thread_count() == ambient

    def test_single_rank_is_left_alone(self, ambient):
        res = run_spmd(1, lambda comm: blas_thread_count(), timeout=60)
        assert res.values == [ambient]
