"""Tests for the real-processes backend.

Programs must be module-level (pickled into children).
"""

import os
import time

import pytest

from repro.errors import SimulationError, WorkerError
from repro.mpsim.faults import FaultPlan
from repro.mpsim.procs import ProcessCluster


def ring_program(ctx):
    nxt = (ctx.rank + 1) % ctx.size
    prv = (ctx.rank - 1) % ctx.size
    yield from ctx.send(nxt, 1, ctx.rank * 100)
    msg = yield from ctx.recv(source=prv, tag=1)
    return msg.payload


def collective_program(ctx):
    total = yield from ctx.allreduce(ctx.rank + 1)
    gathered = yield from ctx.allgather(ctx.rank)
    yield from ctx.barrier()
    return (total, tuple(gathered))


def rng_program(ctx):
    yield from ctx.compute(0.0)
    return ctx.rng.randint(10**9)


def probe_program(ctx):
    if ctx.rank == 0:
        yield from ctx.send(1, 5, "ping")
        yield from ctx.barrier()
        return None
    yield from ctx.barrier()  # after this, the message has been routed
    flag = yield from ctx.iprobe(source=0, tag=5)
    msg = yield from ctx.recv(source=0, tag=5)
    return (flag, msg.payload)


def crash_program(ctx):
    yield from ctx.barrier()
    if ctx.rank == 1:
        raise ValueError("child exploded")
    msg = yield from ctx.recv()
    return msg


def far_ping_pong_program(ctx):
    """Ranks 0 and 3 bounce a message 200 times while ranks 1 and 2
    sit silent in the closing barrier; rank 0 returns the loop's wall
    time."""
    elapsed = None
    if ctx.rank in (0, 3):
        peer = 3 - ctx.rank
        start = time.perf_counter()
        for i in range(200):
            if ctx.rank == 0:
                yield from ctx.send(peer, 1, i)
                yield from ctx.recv(source=peer, tag=1)
            else:
                msg = yield from ctx.recv(source=peer, tag=1)
                yield from ctx.send(peer, 1, msg.payload)
        elapsed = time.perf_counter() - start
    yield from ctx.barrier()
    return elapsed


MESH_ROUNDS = 25


def mesh_order_program(ctx):
    """Every rank sends numbered messages to every other rank, one
    round across all destinations at a time, and takes the same number
    back with any-source receives in between.  Then every rank sends
    one message to each peer before a barrier and iprobes each of them
    right after it.  Returns (per-sender order kept, probe flags)."""
    peers = [r for r in range(ctx.size) if r != ctx.rank]
    expected = dict.fromkeys(peers, 0)
    in_order = True
    for i in range(MESH_ROUNDS):
        for dest in peers:
            yield from ctx.send(dest, 1, i)
        for _ in peers:
            msg = yield from ctx.recv(tag=1)
            in_order &= msg.payload == expected[msg.source]
            expected[msg.source] += 1
    for dest in peers:
        yield from ctx.send(dest, 2, ctx.rank)
    yield from ctx.barrier()
    flags = []
    for src in peers:
        flag = yield from ctx.iprobe(source=src, tag=2)
        flags.append(flag)
    for src in peers:
        msg = yield from ctx.recv(source=src, tag=2)
        in_order &= msg.payload == src
    return (in_order, tuple(flags))


def killed_worker_program(ctx):
    """Rank 1 dies after the barrier without a word to anyone."""
    yield from ctx.barrier()
    if ctx.rank == 1:
        os._exit(3)
    msg = yield from ctx.recv()
    return msg


def blind_sender_program(ctx):
    """Rank 0 sends five messages to rank 1 without reading anything
    first, so it cannot know whether rank 1 is still alive."""
    if ctx.rank == 0:
        for i in range(5):
            yield from ctx.send(1, 4, i)
    yield from ctx.barrier()
    return None


def late_sender_program(ctx):
    """Rank 1 returns at once; rank 0 then sends it two messages."""
    if ctx.rank == 1:
        return None
    yield from ctx.compute(0.0)
    for i in range(2):
        yield from ctx.send(1, 4, i)
    return None


def gather_then_crash_program(ctx):
    """Ranks 0 and 2 join a gather; rank 1 crashes after they have
    joined (the plan stops it at its second op), which completes the
    gather over the survivors, and a gather is not dead-tolerant."""
    yield from ctx.compute(0.0)
    if ctx.rank == 1:
        time.sleep(0.3)
    got = yield from ctx.gather(ctx.rank)
    return got


def mismatch_program(ctx):
    if ctx.rank == 0:
        yield from ctx.barrier()
    else:
        yield from ctx.allgather(1)


class TestProcessCluster:
    def test_ring(self):
        res = ProcessCluster(3, seed=1).run(ring_program)
        assert res.values == [200, 0, 100]
        assert res.trace.total_messages == 3

    def test_collectives(self):
        res = ProcessCluster(4, seed=2).run(collective_program)
        assert res.values == [(10, (0, 1, 2, 3))] * 4

    def test_per_rank_rng_streams_differ_and_reproduce(self):
        a = ProcessCluster(3, seed=7).run(rng_program)
        b = ProcessCluster(3, seed=7).run(rng_program)
        assert a.values == b.values
        assert len(set(a.values)) == 3

    def test_probe_and_recv(self):
        res = ProcessCluster(2, seed=3).run(probe_program)
        flag, payload = res.values[1]
        assert payload == "ping"

    def test_child_exception_surfaces(self):
        with pytest.raises(SimulationError, match="child exploded"):
            ProcessCluster(3, seed=4, join_timeout=30.0).run(crash_program)

    def test_router_forwards_without_polling_idle_ranks(self):
        # Each hop must cost a pipe wake-up, not a sweep of timed polls
        # over the silent ranks' pipes.
        res = ProcessCluster(4, seed=6, join_timeout=60.0).run(
            far_ping_pong_program)
        assert res.values[0] < 2.0
        assert res.trace.total_messages == 400

    def test_mesh_keeps_pair_order_and_probe_after_barrier(self):
        # p = 4: all six rank pairs carry traffic both ways at once.
        res = ProcessCluster(4, seed=9, join_timeout=60.0).run(
            mesh_order_program)
        assert res.values == [(True, (True, True, True))] * 4
        assert res.trace.total_messages == 4 * 3 * (MESH_ROUNDS + 1)
        assert res.trace.total_undelivered == 0

    def test_killed_worker_fails_the_run(self):
        # A worker that dies without reporting must not leave the run
        # waiting for the join timeout.
        start = time.monotonic()
        with pytest.raises(WorkerError, match="rank 1 .*exit code 3"):
            ProcessCluster(3, seed=8, join_timeout=30.0).run(
                killed_worker_program)
        assert time.monotonic() - start < 10.0

    def test_sends_read_by_a_crashed_rank_are_dead_letters(self):
        # Rank 1 crashes at its first op and never reads; its worker
        # drains the five frames as a sink, and they are charged to
        # rank 0 as dead letters, not as messages sent.
        plan = FaultPlan(seed=0, crash_rank=1, crash_at_op=1)
        res = ProcessCluster(3, seed=10, faults=plan).run(
            blind_sender_program)
        assert res.trace.crashed_ranks == [1]
        assert res.trace.ranks[0].dead_letters == 5
        assert res.trace.ranks[0].messages_sent == 0
        assert res.trace.total_undelivered == 0

    def test_sends_to_a_finished_rank_are_undelivered(self):
        res = ProcessCluster(2, seed=11).run(late_sender_program)
        assert res.trace.ranks[0].messages_sent == 2
        assert res.trace.ranks[1].undelivered == 2

    def test_crash_completing_an_intolerant_collective_fails_at_once(self):
        # The error must end the run when the crash is reported, not
        # leave the survivors waiting for a result until recv_timeout.
        plan = FaultPlan(seed=0, crash_rank=1, crash_at_op=2)
        start = time.monotonic()
        with pytest.raises(SimulationError, match="not dead-tolerant"):
            ProcessCluster(3, seed=12, recv_timeout=20.0,
                           join_timeout=60.0, faults=plan).run(
                gather_then_crash_program)
        assert time.monotonic() - start < 10.0

    def test_collective_mismatch_detected(self):
        with pytest.raises(SimulationError, match="mismatch"):
            ProcessCluster(2, seed=5, join_timeout=30.0).run(mismatch_program)

    def test_invalid_rank_count(self):
        with pytest.raises(SimulationError):
            ProcessCluster(0)

    def test_per_rank_args_length_checked(self):
        with pytest.raises(SimulationError):
            ProcessCluster(2).run(ring_program, per_rank_args=[1])
