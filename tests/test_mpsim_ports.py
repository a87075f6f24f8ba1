"""The blocking backends' shared receive (``MailboxPort``): what a rank
finds in its mailbox after a collective, and per-pair FIFO under load.

Programs are module-level so the process backend can pickle them.
"""

import sys

import pytest

from repro.mpsim import ThreadCluster
from repro.mpsim.faults import FaultPlan
from repro.mpsim.procs import ProcessCluster

K = 50
FLOOD = 2000


def drain_after_barrier_program(ctx):
    """Rank 0 sends K messages and joins a barrier; rank 1 joins it and
    then takes every message with non-blocking probes alone."""
    if ctx.rank == 0:
        for i in range(K):
            yield from ctx.send(1, 3, i)
        yield from ctx.barrier()
        return None
    yield from ctx.barrier()
    got = []
    while (yield from ctx.iprobe(source=0, tag=3)):
        msg = yield from ctx.recv(source=0, tag=3)
        got.append(msg.payload)
    return got


def flood_program(ctx):
    """Ranks 1-3 each send FLOOD numbered messages to rank 0, which
    takes them source by source, in turn."""
    if ctx.rank:
        for i in range(FLOOD):
            yield from ctx.send(0, 1, (ctx.rank, i))
        return None
    out_of_order = 0
    for i in range(FLOOD):
        for src in (1, 2, 3):
            msg = yield from ctx.recv(source=src, tag=1)
            out_of_order += msg.payload != (src, i)
    return out_of_order


def unread_at_stop_program(ctx):
    """Rank 0 sends five messages to rank 1; both join a barrier and
    stop.  Rank 1 never takes them."""
    if ctx.rank == 0:
        for i in range(5):
            yield from ctx.send(1, 4, i)
    yield from ctx.barrier()
    yield from ctx.compute(0.0)


@pytest.mark.parametrize("cluster", [ThreadCluster, ProcessCluster])
def test_sends_before_a_barrier_are_probeable_after_it(cluster):
    res = cluster(2, seed=0, recv_timeout=10.0).run(
        drain_after_barrier_program)
    assert res.values[1] == list(range(K))
    assert res.trace.total_undelivered == 0


@pytest.mark.parametrize("crash", [False, True])
@pytest.mark.parametrize("cluster", [ThreadCluster, ProcessCluster])
def test_messages_a_stopped_rank_never_took_are_counted(cluster, crash):
    # Crashed at its op after the barrier, rank 1 holds them as dead
    # letters; finished, as undelivered messages.
    plan = FaultPlan(seed=0, crash_rank=1, crash_at_op=2) if crash else None
    res = cluster(2, seed=0, faults=plan).run(unread_at_stop_program)
    assert res.trace.ranks[0].messages_sent == 5
    rank1 = res.trace.ranks[1]
    assert (rank1.dead_letters, rank1.undelivered) == (
        (5, 0) if crash else (0, 5))


def test_threads_keep_pair_order_without_loss():
    # Four rank threads, with a GIL switch forced about every
    # 10 us, so the lock-free puts and the owner's sweeps interleave.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        res = ThreadCluster(4, seed=0, recv_timeout=10.0).run(flood_program)
    finally:
        sys.setswitchinterval(interval)
    assert res.values[0] == 0
    assert res.trace.ranks[0].messages_received == 3 * FLOOD
    assert res.trace.total_undelivered == 0
