"""Unit tests for the conversation state machine, driven directly
through a scripted context (no cluster).

These pin down the abort/commit bookkeeping that the integration tests
only exercise statistically: reservations released on abort, checkouts
restored on retry, servant state dropped exactly once, etc.
"""

import pytest

from repro.core.parallel.driver import (
    ParallelSwitchConfig,
    PerRankArgs,
)
from repro.core.parallel.messages import (
    Abort,
    Commit,
    Retry,
    SwitchRequest,
    Validate,
)
from repro.core.parallel.rank_program import SwitchRank
from repro.core.parallel.state import InitiatorState, ServantState
from repro.errors import ProtocolError
from repro.graphs.reduced import ReducedAdjacencyGraph
from repro.mpsim.context import RankContext
from repro.mpsim.costmodel import CostModel
from repro.mpsim.ops import Compute, Probe, Send
from repro.partition.base import Partitioner
from repro.util.rng import RngStream


class ModPartitioner(Partitioner):
    """owner(v) = v mod p — easy to reason about in tests."""

    @property
    def name(self):
        return "TEST"

    def owner(self, v):
        return v % self.num_ranks


def make_rank(rank=0, size=2, vertices=(), edges=(), n=100, tick=None):
    """A SwitchRank wired to a real context but never run as a
    program; we drive its handler generators by hand.  ``tick`` arms
    fault tolerance (the reliable channel)."""
    part = ReducedAdjacencyGraph(vertices)
    for e in edges:
        part.add_edge(*e)
    cfg = ParallelSwitchConfig(t=10, step_size=10, cost=CostModel(),
                               fault_tolerance=tick)
    args = PerRankArgs(part, ModPartitioner(n, size), cfg)
    ctx = RankContext(rank, size, RngStream(1), args)
    return SwitchRank(ctx)


def drain(gen):
    """Run a handler generator to completion, collecting Sends."""
    sends = []
    try:
        op = next(gen)
        while True:
            if isinstance(op, Send):
                sends.append(op)
            elif not isinstance(op, (Compute, Probe)):
                raise AssertionError(f"unexpected op {op!r}")
            op = gen.send(False if isinstance(op, Probe) else None)
    except StopIteration:
        pass
    return sends


class TestServantAbort:
    def test_abort_releases_checkout_and_reservation(self):
        # rank 0 (p=2) owns even vertices; it is a servant holding e2
        # checked out and a replacement edge reserved
        rank = make_rank(rank=0, size=2,
                         vertices=[0, 2, 4], edges=[(0, 5), (2, 7)])
        conv = (1, 0)
        rank.part.checkout((0, 5))
        rank.reserved.add((2, 9))
        rank.servant[conv] = ServantState(conv, checked_out=[(0, 5)],
                                          reserved=[(2, 9)])
        drain(rank.handle_abort(1, Abort(conv)))
        assert not rank.servant
        assert not rank.reserved
        assert rank.part.pool_size == 2  # (0,5) restored
        assert rank.part.has_edge(0, 5)

    def test_abort_unknown_conv_raises(self):
        rank = make_rank()
        with pytest.raises(ProtocolError):
            drain(rank.handle_abort(1, Abort((1, 99))))


class TestServantCommit:
    def test_commit_applies_and_acks(self):
        # Nothing acknowledges a Commit: the servant applies its share
        # and sends nothing back (termination proves it landed).
        rank = make_rank(rank=0, size=2,
                         vertices=[0, 2, 4], edges=[(0, 5), (2, 7)])
        conv = (1, 3)
        rank.part.checkout((0, 5))
        rank.reserved.add((2, 9))
        rank.servant[conv] = ServantState(conv, checked_out=[(0, 5)],
                                          reserved=[(2, 9)])
        sends = drain(rank.handle_commit(1, Commit(conv)))
        assert not rank.part.has_edge(0, 5)     # removal finalised
        assert rank.part.has_edge(2, 9)         # reservation realised
        assert not rank.reserved
        assert not rank.servant
        assert sends == []

    def test_commit_unknown_conv_raises(self):
        rank = make_rank()
        with pytest.raises(ProtocolError):
            drain(rank.handle_commit(1, Commit((1, 99))))


class TestInitiatorRetry:
    def test_retry_releases_everything(self):
        rank = make_rank(rank=0, size=2,
                         vertices=[0, 2], edges=[(0, 3), (2, 5)])
        conv = (0, 0)
        rank.part.checkout((0, 3))
        rank.reserved.add((2, 11))
        rank.active = InitiatorState(conv, (0, 3),
                                     checked_out=[(0, 3)],
                                     reserved=[(2, 11)])
        drain(rank.handle_retry(1, Retry(conv, "parallel")))
        assert rank.active is None
        assert rank.part.pool_size == 2
        assert not rank.reserved
        assert rank.report.rejections.get("parallel") == 1

    def test_retry_unknown_conv_raises(self):
        rank = make_rank()
        with pytest.raises(ProtocolError):
            drain(rank.handle_retry(1, Retry((0, 5), "loop")))


class TestPartnerRequest:
    def test_empty_pool_sends_retry(self):
        rank = make_rank(rank=1, size=2, vertices=[1, 3], edges=[])
        sends = drain(rank.handle_request(0, SwitchRequest((0, 0), (0, 5))))
        assert len(sends) == 1
        payload = sends[0].payload
        assert isinstance(payload, Retry)
        assert payload.reason == "empty_pool"
        assert not rank.servant

    def test_successful_request_checks_out_e2_and_forwards(self):
        # rank 1 owns odd vertices (list them all so replacement-edge
        # checks can land here); one edge so e2 is forced
        rank = make_rank(rank=1, size=2, vertices=[1, 3, 5, 7, 9],
                         edges=[(3, 8)])
        conv = (0, 0)
        sends = drain(rank.handle_request(0, SwitchRequest(conv, (0, 5))))
        # e2 = (3, 8); whatever kind was chosen, a message went out
        assert rank.part.is_checked_out((3, 8)) or not rank.servant
        if rank.servant:  # feasible proposal: conversation recorded
            assert len(sends) == 1
            assert isinstance(sends[0].payload, (Validate,))
            st = rank.servant[conv]
            assert st.checked_out == [(3, 8)]


class TestValidateChain:
    def test_conflict_sends_abort_and_retry(self):
        # rank 0 owns vertex 0; replacement (0, 9) already exists there
        rank = make_rank(rank=0, size=2, vertices=[0, 2],
                         edges=[(0, 9), (2, 5)])
        conv = (1, 0)
        # cross switch of e1=(0?, ...) — craft a Validate whose
        # replacements include (0, 9): e1=(0, 7), e2=(9, 11) cross ->
        # (0, 11) and (7, 9)... choose e1=(0,11), e2=(9,13):
        # cross -> (0, 13), (9, 11). Not (0,9).
        # Simpler: e1=(0, 11), e2=(9, 11) shares v -> useless.
        # Use e1=(0, 5), e2=(9, 14): cross -> (0, 14) and (5, 9).
        # We need a replacement equal to (0, 9): e1=(0, x), e2=(9, y)
        # straight -> (0, 9) and (x, y).  Take x=5, y=14.
        msg = Validate(conv, (0, 5), (9, 14), "straight", partner=1,
                       visited=(1,), remaining=())
        # rank 0 is NOT the initiator (conv[0] == 1), remaining empty
        # would be a protocol error; put rank 0 mid-chain instead:
        msg = Validate(conv, (0, 5), (9, 14), "straight", partner=1,
                       visited=(1,), remaining=(1,))
        sends = drain(rank.handle_validate(1, msg))
        # conflict on (0, 9): abort to visited (rank 1) + retry to
        # initiator (rank 1) — two messages to rank 1
        kinds = sorted(type(s.payload).__name__ for s in sends)
        assert kinds == ["Abort", "Retry"]
        assert not rank.reserved

    def test_mid_chain_reserves_and_forwards(self):
        rank = make_rank(rank=0, size=2, vertices=[0, 2], edges=[(2, 5)])
        conv = (1, 0)
        # straight: e1=(0w...) — replacements (0, 9), (5, 14): rank 0
        # owns vertex 0, so it validates (0, 9) (absent -> reserve)
        msg = Validate(conv, (0, 5), (9, 14), "straight", partner=1,
                       visited=(1,), remaining=(1,))
        sends = drain(rank.handle_validate(1, msg))
        assert (0, 9) in rank.reserved
        assert conv in rank.servant
        assert len(sends) == 1
        fwd = sends[0].payload
        assert isinstance(fwd, Validate)
        assert fwd.visited == (1, 0)
        assert fwd.remaining == ()
        assert sends[0].dest == 1

    def test_chain_ending_at_non_initiator_raises(self):
        rank = make_rank(rank=0, size=2, vertices=[0, 2], edges=[])
        msg = Validate((1, 0), (0, 5), (9, 14), "straight", partner=1,
                       visited=(1,), remaining=())
        with pytest.raises(ProtocolError):
            drain(rank.handle_validate(1, msg))

    def test_infeasible_pair_in_validate_raises(self):
        rank = make_rank(rank=0, size=2, vertices=[0], edges=[])
        msg = Validate((1, 0), (0, 5), (0, 5), "cross", partner=1,
                       visited=(1,), remaining=(1,))
        with pytest.raises(ProtocolError):
            drain(rank.handle_validate(1, msg))


def unframed(sends):
    """``(dest, payload)`` of each Send, out of its reliable frame."""
    return [(op.dest, op.payload.payload) for op in sends]


STALE = [
    ("handle_retry", Retry((0, 7), "parallel")),
    ("handle_abort", Abort((1, 7))),
    ("handle_commit", Commit((1, 7))),
]


class TestStaleTrafficAfterDeath:
    """Under fault tolerance a message for an unknown conversation is
    tolerated only once a peer has died: before that, nothing can have
    dropped the state it was meant for."""

    @pytest.mark.parametrize("handler,msg", STALE)
    def test_unknown_conv_raises_while_all_alive(self, handler, msg):
        rank = make_rank(tick=50.0)
        assert rank.channel is not None
        with pytest.raises(ProtocolError):
            drain(getattr(rank, handler)(1, msg))

    @pytest.mark.parametrize("handler,msg", STALE)
    def test_unknown_conv_ignored_after_a_death(self, handler, msg):
        rank = make_rank(size=3, tick=50.0)
        drain(rank._on_rank_dead(2))
        assert drain(getattr(rank, handler)(1, msg)) == []
        assert rank.active is None and not rank.servant


class TestForfeitedChainReturns:
    def test_completed_validate_for_forfeited_conv_aborts_visited(self):
        """Rank 0's partner (rank 1) dies while rank 0's conversation
        (0, 0) is in flight, so rank 0 forfeits it and starts (0, 1).
        The chain of (0, 0) still completes through rank 2 and returns
        to rank 0.  Rank 0 aborts it at every visited rank (the copy
        to dead rank 1 is dropped at the source), leaves (0, 1) alone
        and raises nothing."""
        rank = make_rank(rank=0, size=3, vertices=[0, 3, 6, 9],
                         edges=[(0, 4), (3, 7)], tick=50.0)
        rank.part.checkout((0, 4))
        rank.active = InitiatorState((0, 0), (0, 4), checked_out=[(0, 4)])
        rank.serial = 1
        drain(rank._on_rank_dead(1))
        assert rank.active is None
        assert rank.report.rejections.get("dead_peer") == 1
        rank.part.checkout((3, 7))
        newer = InitiatorState((0, 1), (3, 7), checked_out=[(3, 7)])
        rank.active = newer
        # straight: replacements (0, 5) (owned here) and (4, 8)
        msg = Validate((0, 0), (0, 4), (5, 8), "straight", partner=1,
                       visited=(1, 2), remaining=())
        sends = drain(rank.handle_validate(2, msg))
        assert unframed(sends) == [(2, Abort((0, 0)))]
        assert rank.active is newer
        assert newer.checked_out == [(3, 7)] and newer.reserved == []
        assert not rank.reserved
        assert rank.part.is_checked_out((3, 7))
        assert not rank.part.is_checked_out((0, 4))

    def test_any_death_forfeits_and_the_returning_chain_is_aborted(self):
        """Rank 0's conversation (0, 0) has partner 1, but an owner the
        initiator never hears of may die after rejecting it.  So rank 0
        forfeits (0, 0) on the death of rank 2, which does not take
        part, and the completed Validate that rank 1 then sends back
        is aborted at every visited rank instead of committed."""
        rank = make_rank(rank=0, size=3, vertices=[0, 3, 6, 9],
                         edges=[(0, 4)], tick=50.0)
        rank.part.checkout((0, 4))
        rank.active = InitiatorState((0, 0), (0, 4), checked_out=[(0, 4)])
        drain(rank._on_rank_dead(2))
        assert rank.active is None
        assert not rank.part.is_checked_out((0, 4))
        assert rank.report.rejections.get("dead_peer") == 1
        # straight: replacements (0, 5) (owned here) and (4, 8)
        msg = Validate((0, 0), (0, 4), (5, 8), "straight", partner=1,
                       visited=(1,), remaining=())
        sends = drain(rank.handle_validate(1, msg))
        assert unframed(sends) == [(1, Abort((0, 0)))]
        assert rank.active is None
        assert not rank.reserved
        assert rank.report.switches_completed == 0

    def test_completed_validate_for_unknown_conv_raises_without_death(self):
        rank = make_rank(rank=0, size=3, vertices=[0, 3, 6, 9],
                         edges=[(0, 4)], tick=50.0)
        msg = Validate((0, 0), (0, 4), (5, 8), "straight", partner=1,
                       visited=(1,), remaining=())
        with pytest.raises(ProtocolError):
            drain(rank.handle_validate(1, msg))


class TestRetryNamesTheDeath:
    def test_retry_caused_by_a_death_marks_the_rank_dead(self):
        """A Retry caused by rank 2's death can arrive before rank 2's
        obituary: the receiver learns of the death from the Retry and
        then ignores it as stale."""
        rank = make_rank(rank=0, size=3, tick=50.0)
        assert not rank.dead
        drain(rank.handle_retry(1, Retry((0, 0), "dead_peer", 2)))
        assert rank.dead == {2}
        assert rank.active is None

    def test_servant_retry_on_a_death_names_the_dead_rank(self):
        rank = make_rank(rank=1, size=3, tick=50.0)
        rank.servant[(0, 0)] = ServantState((0, 0), peers=(0, 2))
        sends = drain(rank._on_rank_dead(2))
        assert unframed(sends) == [(0, Retry((0, 0), "dead_peer", 2))]
        assert not rank.servant
