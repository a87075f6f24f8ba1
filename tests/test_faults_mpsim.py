"""Deterministic fault injection at the mpsim layer.

The same :class:`FaultPlan` must be interpreted identically by all
three backends: the per-rank fault stream is keyed on
``(plan.seed, rank)`` and advanced once per send, so *which* sends are
dropped/duplicated/delayed never depends on the backend's scheduling.

Programs are module-level (the process backend pickles them).
"""

import pytest

from repro.mpsim.cluster import SimulatedCluster
from repro.mpsim.faults import (
    FaultPlan,
    RankFaultInjector,
    RankObituary,
    TAG_OBITUARY,
)
from repro.mpsim.ops import Send
from repro.mpsim.procs import ProcessCluster
from repro.mpsim.threads import ThreadCluster


# -- programs ----------------------------------------------------------


def pingpong_program(ctx):
    """Rank 0 sends 10 numbered messages to rank 1.  The test plans
    pin one drop and one duplicate, so exactly 10 copies arrive —
    rank 1 receives them blocking and reports the multiset."""
    if ctx.rank == 0:
        for i in range(10):
            yield from ctx.send(1, 7, i)
        yield from ctx.barrier()
        return None
    got = []
    for _ in range(10):
        msg = yield from ctx.recv(source=0, tag=7)
        got.append(msg.payload)
    yield from ctx.barrier()
    return tuple(got)


def crash_witness_program(ctx):
    """Rank 1 crashes mid-run; the others collect its obituary and
    still finish their (dead-tolerant) collective."""
    yield from ctx.compute(1.0)
    yield from ctx.compute(1.0)
    yield from ctx.compute(1.0)
    # the dead-tolerant allgather completes at p - 1 participants, and
    # by then the obituary is already in every survivor's mailbox
    values = yield from ctx.allgather(ctx.rank)
    obituaries = []
    while True:
        msg = yield from ctx.recv(tag=TAG_OBITUARY, timeout=0.2)
        if msg is None:
            break
        obituaries.append(msg.payload)
    return (tuple(obituaries), tuple(values))


def last_words_program(ctx):
    """Rank 1 sends one message to rank 0 and crashes at its next op.
    Rank 0 reads everything rank 1 ever sent, up to its obituary, then
    sends three messages to the dead rank.  Rank 2 has nothing to do."""
    if ctx.rank == 1:
        yield from ctx.send(0, 3, "last words")
        yield from ctx.compute(1.0)  # the plan crashes rank 1 here
        return None
    if ctx.rank == 2:
        return None
    tags = []
    while not tags or tags[-1] != TAG_OBITUARY:
        msg = yield from ctx.recv(source=1)
        tags.append(msg.tag)
    for i in range(3):
        yield from ctx.send(1, 4, i)
    return tuple(tags)


def timed_recv_program(ctx):
    """A recv with a timeout and no sender returns None instead of
    deadlocking."""
    msg = yield from ctx.recv(source=ctx.size - 1, tag=99, timeout=0.1)
    yield from ctx.barrier()
    return msg


# -- injector unit tests -----------------------------------------------


class TestInjectorDeterminism:
    def test_same_plan_same_verdicts(self):
        plan = FaultPlan(seed=3, drop_rate=0.2, duplicate_rate=0.2)
        a = RankFaultInjector(plan, rank=1)
        b = RankFaultInjector(plan, rank=1)
        op = Send(dest=0, tag=1, payload="x", nbytes=8)
        out_a = [len(a.on_send(op)) for _ in range(200)]
        out_b = [len(b.on_send(op)) for _ in range(200)]
        assert out_a == out_b
        assert a.events == b.events
        # the rates actually fire
        assert 0 in out_a and 2 in out_a

    def test_ranks_draw_independent_streams(self):
        plan = FaultPlan(seed=3, drop_rate=0.3)
        op = Send(dest=0, tag=1, payload="x", nbytes=8)
        seqs = []
        for rank in (0, 1, 2):
            inj = RankFaultInjector(plan, rank)
            seqs.append(tuple(len(inj.on_send(op)) for _ in range(100)))
        assert len(set(seqs)) == 3

    def test_pinned_faults_take_precedence(self):
        plan = FaultPlan(seed=0, drop=((0, 1),), duplicate=((0, 3),))
        inj = RankFaultInjector(plan, rank=0)
        op = Send(dest=1, tag=1, payload="x", nbytes=8)
        counts = [len(inj.on_send(op)) for _ in range(5)]
        assert counts == [1, 0, 1, 2, 1]

    def test_delay_reorders_behind_later_sends(self):
        plan = FaultPlan(seed=0, delay=((0, 0, 2),))
        inj = RankFaultInjector(plan, rank=0)
        ops = [Send(dest=1, tag=1, payload=i, nbytes=8) for i in range(4)]
        released = [tuple(m.payload for m in inj.on_send(op)) for op in ops]
        # send #0 held, re-emitted after send #2
        assert released == [(), (1,), (2, 0), (3,)]
        assert inj.flush() == []

    def test_flush_releases_held_messages(self):
        plan = FaultPlan(seed=0, delay=((0, 0, 50),))
        inj = RankFaultInjector(plan, rank=0)
        inj.on_send(Send(dest=1, tag=1, payload="held", nbytes=8))
        out = inj.flush()
        assert [m.payload for m in out] == ["held"]

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=0.8, duplicate_rate=0.4)
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=-0.1)


# -- backend-level behaviour -------------------------------------------


def _pingpong_payloads(cluster):
    res = cluster.run(pingpong_program)
    return res.values[1]


class TestMessageFaultsAcrossBackends:
    PLAN = FaultPlan(seed=11, drop=((0, 2),), duplicate=((0, 5),))

    def test_pinned_plan_identical_on_all_backends(self):
        """Drop send #2 and duplicate send #5 of rank 0: every backend
        delivers exactly the same multiset of payloads."""
        expected = (0, 1, 3, 4, 5, 5, 6, 7, 8, 9)
        sim = _pingpong_payloads(SimulatedCluster(2, seed=1, faults=self.PLAN))
        thr = _pingpong_payloads(ThreadCluster(2, seed=1, faults=self.PLAN))
        assert tuple(sorted(sim)) == expected
        assert tuple(sorted(thr)) == expected

    def test_pinned_plan_on_procs(self):
        prc = _pingpong_payloads(
            ProcessCluster(2, seed=1, faults=self.PLAN))
        assert tuple(sorted(prc)) == (0, 1, 3, 4, 5, 5, 6, 7, 8, 9)

    def test_faults_recorded_in_trace(self):
        # One test over all three backends (a loop rather than
        # parametrize, so the test keeps its id).
        for make in (SimulatedCluster, ThreadCluster, ProcessCluster):
            res = make(2, seed=1, faults=self.PLAN).run(pingpong_program)
            rank0 = res.trace.ranks[0]
            assert rank0.faults_injected == 2, make.__name__
            assert any("drop" in e for e in rank0.fault_events)
            assert any("duplicate" in e for e in rank0.fault_events)


class TestCrash:
    PLAN = FaultPlan(seed=0, crash_rank=1, crash_at_op=2)

    @pytest.mark.parametrize("make", [
        lambda plan: SimulatedCluster(3, seed=4, faults=plan),
        lambda plan: ThreadCluster(3, seed=4, faults=plan),
        lambda plan: ProcessCluster(3, seed=4, faults=plan),
    ], ids=["sim", "threads", "procs"])
    def test_crash_delivers_obituaries(self, make):
        res = make(self.PLAN).run(crash_witness_program)
        assert res.trace.crashed_ranks == [1]
        assert res.values[1] is None  # the dead rank returns nothing
        for rank in (0, 2):
            obits, gathered = res.values[rank]
            assert any(isinstance(o, RankObituary) and o.rank == 1
                       for o in obits)
            # dead-tolerant allgather: None at the dead slot
            assert gathered[1] is None
            assert gathered[rank] == rank

    @pytest.mark.parametrize("make", [
        lambda plan: SimulatedCluster(3, seed=4, faults=plan),
        lambda plan: ThreadCluster(3, seed=4, faults=plan),
        lambda plan: ProcessCluster(3, seed=4, faults=plan),
    ], ids=["sim", "threads", "procs"])
    def test_obituary_follows_last_message_and_sends_become_dead_letters(
            self, make):
        plan = FaultPlan(seed=0, crash_rank=1, crash_at_op=2)
        res = make(plan).run(last_words_program)
        assert res.trace.crashed_ranks == [1]
        assert res.values[0] == (3, TAG_OBITUARY)
        rank0 = res.trace.ranks[0]
        assert rank0.dead_letters == 3
        assert rank0.messages_sent == 0


_TRACE_FIELDS = (
    "messages_sent", "messages_received", "bytes_sent", "collectives",
    "compute_time", "dead_letters", "undelivered", "faults_injected",
    "fault_events",
)


def _trace_rows(result):
    return [{f: getattr(t, f) for f in _TRACE_FIELDS}
            for t in result.trace.ranks]


class TestRankTraceParity:
    """Threads and procs run the same op loop, so a run's per-rank
    counters agree between them."""

    @pytest.mark.parametrize("program,p,plan", [
        (pingpong_program, 2, TestMessageFaultsAcrossBackends.PLAN),
        (crash_witness_program, 3, TestCrash.PLAN),
    ], ids=["pingpong", "crash_witness"])
    def test_threads_and_procs_record_the_same_trace(self, program, p,
                                                     plan):
        thr = ThreadCluster(p, seed=4, faults=plan).run(program)
        prc = ProcessCluster(p, seed=4, faults=plan).run(program)
        assert _trace_rows(thr) == _trace_rows(prc)
        if program is crash_witness_program:
            # three Compute(1.0) on a survivor, one before the crash
            assert [t.compute_time for t in prc.trace.ranks] == [
                3.0, 1.0, 3.0]


class TestTimedRecv:
    @pytest.mark.parametrize("make", [
        lambda: SimulatedCluster(2, seed=0),
        lambda: ThreadCluster(2, seed=0),
        lambda: ProcessCluster(2, seed=0),
    ], ids=["sim", "threads", "procs"])
    def test_timeout_returns_none(self, make):
        res = make().run(timed_recv_program)
        assert res.values[0] is None
