"""Determinism of the DES backend; equivalence spot-checks against the
real-threads backend; trace accounting."""

import threading
import time

import pytest

from repro.errors import DeadlockError
from repro.mpsim import CostModel, SimulatedCluster, ThreadCluster
from repro.mpsim.faults import FaultPlan


def chatter_program(ctx):
    """A moderately contended program: random sends, reductions."""
    total = 0
    for round_no in range(5):
        dest = ctx.rng.randint(ctx.size)
        yield from ctx.send(dest, 1, (ctx.rank, round_no))
        yield from ctx.compute(1.0)
        counts = yield from ctx.allreduce(1)
        total += counts
    # drain: every rank sent 5 messages; receive what's addressed to us
    yield from ctx.barrier()
    inbox = []
    while (yield from ctx.iprobe(tag=1)):
        msg = yield from ctx.recv(tag=1)
        inbox.append(msg.payload)
    got = yield from ctx.allreduce(len(inbox))
    return (total, got)


def late_barrier_program(ctx):
    """Every rank computes, then joins two barriers.  Rank 0 reaches
    the first one 20 ms late, so the others wait there for it."""
    yield from ctx.compute(0.0)
    if ctx.rank == 0:
        time.sleep(0.02)
    yield from ctx.barrier()
    yield from ctx.barrier()
    return ctx.rank


class TestDeterminism:
    def test_same_seed_same_everything(self):
        a = SimulatedCluster(6, seed=11).run(chatter_program)
        b = SimulatedCluster(6, seed=11).run(chatter_program)
        assert a.values == b.values
        assert a.sim_time == b.sim_time
        assert [t.messages_sent for t in a.trace.ranks] == [
            t.messages_sent for t in b.trace.ranks]

    def test_different_seed_differs(self):
        a = SimulatedCluster(6, seed=11).run(chatter_program)
        b = SimulatedCluster(6, seed=12).run(chatter_program)
        # the random destinations differ, so traffic patterns differ
        assert ([t.messages_received for t in a.trace.ranks]
                != [t.messages_received for t in b.trace.ranks])

    def test_all_messages_drained(self):
        res = SimulatedCluster(6, seed=11).run(chatter_program)
        total_sent = 6 * 5
        # every rank reports the same global received count
        assert all(v[1] == total_sent for v in res.values)


class TestThreadsBackendEquivalence:
    def test_collective_results_match_sim(self):
        def prog(ctx):
            s = yield from ctx.allreduce(ctx.rank + 1)
            g = yield from ctx.allgather(ctx.rank)
            return (s, tuple(g))

        sim = SimulatedCluster(4, seed=0).run(prog)
        thr = ThreadCluster(4, seed=0, recv_timeout=10.0).run(prog)
        assert sim.values == thr.values

    def test_threads_deadlock_times_out(self):
        def prog(ctx):
            msg = yield from ctx.recv()
            return msg

        with pytest.raises(DeadlockError):
            ThreadCluster(2, seed=0, recv_timeout=0.3).run(prog)

    def test_threads_exception_propagates(self):
        def prog(ctx):
            yield from ctx.compute(0.0)
            if ctx.rank == 1:
                raise RuntimeError("boom")
            # other ranks block; abort must release them
            msg = yield from ctx.recv()
            return msg

        start = time.monotonic()
        with pytest.raises(RuntimeError, match="boom"):
            ThreadCluster(3, seed=0, recv_timeout=10.0).run(prog)
        # The failing rank wakes the blocked receivers; the run does
        # not wait for their recv_timeout guard.
        assert time.monotonic() - start < 2.0

    def test_threads_point_to_point(self):
        def prog(ctx):
            nxt = (ctx.rank + 1) % ctx.size
            prv = (ctx.rank - 1) % ctx.size
            yield from ctx.send(nxt, 1, ctx.rank)
            msg = yield from ctx.recv(source=prv, tag=1)
            return msg.payload

        res = ThreadCluster(5, seed=0, recv_timeout=10.0).run(prog)
        assert res.values == [(r - 1) % 5 for r in range(5)]


class TestThreadsCollectiveHandOut:
    def test_crash_after_collective_does_not_strand_a_slow_member(
            self, monkeypatch):
        """Rank 0 completes barrier 0, takes its result and crashes at
        its next op (op 3).  Ranks 1 and 2 wake up from that barrier
        10 and 50 ms late, after the crash; each must still find its
        own result instead of waiting out ``recv_timeout``."""
        delays = {"rank-1": 0.01, "rank-2": 0.05}
        real_wait = threading.Condition.wait

        def slow_wake(cond, timeout=None):
            woke = real_wait(cond, timeout)
            delay = delays.pop(threading.current_thread().name, None)
            if delay:
                cond.release()  # the other ranks run meanwhile
                try:
                    time.sleep(delay)
                finally:
                    cond.acquire()
            return woke

        monkeypatch.setattr(threading.Condition, "wait", slow_wake)
        plan = FaultPlan(seed=0, crash_rank=0, crash_at_op=3)
        res = ThreadCluster(3, seed=0, recv_timeout=2.0,
                            faults=plan).run(late_barrier_program)
        assert not delays  # both slow wake-ups happened
        assert res.trace.crashed_ranks == [0]
        assert res.values == [None, 1, 2]


class TestTraceAccounting:
    def test_message_and_byte_counters(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 1, "x", nbytes=100)
                yield from ctx.send(1, 1, "y", nbytes=50)
                return None
            for _ in range(2):
                yield from ctx.recv()
            return None

        res = SimulatedCluster(2, seed=0).run(prog)
        assert res.trace.ranks[0].messages_sent == 2
        assert res.trace.ranks[0].bytes_sent == 150
        assert res.trace.ranks[1].messages_received == 2
        assert res.trace.total_bytes == 150

    def test_collective_counter(self):
        def prog(ctx):
            yield from ctx.barrier()
            yield from ctx.allreduce(1)
            return None

        res = SimulatedCluster(3, seed=0).run(prog)
        assert all(t.collectives == 2 for t in res.trace.ranks)

    def test_makespan_is_max_finish(self):
        def prog(ctx):
            yield from ctx.compute(10.0 * (ctx.rank + 1))
            return None

        res = SimulatedCluster(3, seed=0).run(prog)
        assert res.trace.makespan == pytest.approx(30.0)
        assert res.sim_time == pytest.approx(30.0)
