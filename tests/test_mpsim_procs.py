"""Tests for the real-processes backend.

Programs must be module-level (pickled into children).
"""

import time

import pytest

from repro.errors import SimulationError
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

    def test_collective_mismatch_detected(self):
        with pytest.raises(SimulationError, match="mismatch"):
            ProcessCluster(2, seed=5, join_timeout=30.0).run(mismatch_program)

    def test_invalid_rank_count(self):
        with pytest.raises(SimulationError):
            ProcessCluster(0)

    def test_per_rank_args_length_checked(self):
        with pytest.raises(SimulationError):
            ProcessCluster(2).run(ring_program, per_rank_args=[1])
