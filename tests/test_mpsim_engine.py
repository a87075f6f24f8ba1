"""Tests for the discrete-event message-passing engine."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.mpsim import ANY_SOURCE, ANY_TAG, CostModel, SimulatedCluster
from repro.mpsim.ops import Compute, Message


def make_cluster(p, **kw):
    kw.setdefault("seed", 1)
    return SimulatedCluster(p, **kw)


class TestBasics:
    def test_single_rank_returns_value(self):
        def prog(ctx):
            yield from ctx.compute(5.0)
            return ctx.rank * 10 + 7

        res = make_cluster(1).run(prog)
        assert res.values == [7]
        assert res.sim_time == pytest.approx(5.0)

    def test_invalid_rank_count(self):
        with pytest.raises(SimulationError):
            SimulatedCluster(0)

    def test_compute_accumulates(self):
        def prog(ctx):
            for _ in range(4):
                yield from ctx.compute(2.5)
            return None

        res = make_cluster(2).run(prog)
        assert res.sim_time == pytest.approx(10.0)
        assert all(t.compute_time == pytest.approx(10.0)
                   for t in res.trace.ranks)

    def test_per_rank_args(self):
        def prog(ctx):
            yield from ctx.compute(0.1)
            return ctx.args

        res = make_cluster(3).run(prog, per_rank_args=["a", "b", "c"])
        assert res.values == ["a", "b", "c"]

    def test_per_rank_args_length_checked(self):
        def prog(ctx):
            yield from ctx.compute(0.1)

        with pytest.raises(SimulationError):
            make_cluster(3).run(prog, per_rank_args=["a"])


class TestPointToPoint:
    def test_send_recv(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 7, "hello")
                return None
            msg = yield from ctx.recv(source=0, tag=7)
            return msg.payload

        res = make_cluster(2).run(prog)
        assert res.values == [None, "hello"]
        assert res.total_messages == 1

    def test_message_latency_charged(self):
        cm = CostModel(alpha=10.0, beta=0.0,
                       send_overhead=1.0, recv_overhead=1.0)

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 1, "x")
                return None
            msg = yield from ctx.recv()
            return msg.arrival

        res = make_cluster(2, cost_model=cm).run(prog)
        # send completes at 1 (overhead), arrival at 1 + 10
        assert res.values[1] == pytest.approx(11.0)
        # receiver: idle till 11, + recv overhead
        assert res.sim_time == pytest.approx(12.0)

    def test_any_source_any_tag(self):
        def prog(ctx):
            if ctx.rank == 0:
                got = []
                for _ in range(2):
                    msg = yield from ctx.recv(source=ANY_SOURCE, tag=ANY_TAG)
                    got.append((msg.source, msg.payload))
                return sorted(got)
            yield from ctx.compute(ctx.rank * 3.0)  # stagger sends
            yield from ctx.send(0, ctx.rank, f"from{ctx.rank}")
            return None

        res = make_cluster(3).run(prog)
        assert res.values[0] == [(1, "from1"), (2, "from2")]

    def test_tag_filtering(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 5, "five")
                yield from ctx.send(1, 9, "nine")
                return None
            nine = yield from ctx.recv(source=0, tag=9)
            five = yield from ctx.recv(source=0, tag=5)
            return (nine.payload, five.payload)

        res = make_cluster(2).run(prog)
        assert res.values[1] == ("nine", "five")

    def test_fifo_per_channel(self):
        def prog(ctx):
            if ctx.rank == 0:
                for i in range(20):
                    yield from ctx.send(1, 1, i, nbytes=8 * (20 - i))
                return None
            out = []
            for _ in range(20):
                msg = yield from ctx.recv(source=0, tag=1)
                out.append(msg.payload)
            return out

        # decreasing sizes would reorder arrivals without FIFO clamping
        res = make_cluster(2).run(prog)
        assert res.values[1] == list(range(20))

    def test_send_to_self(self):
        def prog(ctx):
            yield from ctx.send(0, 1, "loop")
            msg = yield from ctx.recv()
            return msg.payload

        res = make_cluster(1).run(prog)
        assert res.values == ["loop"]

    def test_send_invalid_rank(self):
        def prog(ctx):
            yield from ctx.send(5, 1, "x")

        with pytest.raises(SimulationError):
            make_cluster(2).run(prog)

    def test_iprobe(self):
        def prog(ctx):
            if ctx.rank == 0:
                empty = yield from ctx.iprobe()
                yield from ctx.send(1, 1, "x")
                return empty
            # wait long enough for the message to have arrived
            yield from ctx.compute(1000.0)
            flag = yield from ctx.iprobe(source=0)
            msg = yield from ctx.recv()
            return (flag, msg.payload)

        res = make_cluster(2).run(prog)
        assert res.values[0] is False
        assert res.values[1] == (True, "x")

    def test_iprobe_does_not_see_future_messages(self):
        cm = CostModel(alpha=50.0, beta=0.0,
                       send_overhead=0.0, recv_overhead=0.0)

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 1, "x")
                return None
            # at time ~0 the message (arrival 50) must be invisible
            flag_early = yield from ctx.iprobe()
            yield from ctx.compute(100.0)
            flag_late = yield from ctx.iprobe()
            return (flag_early, flag_late)

        res = make_cluster(2, cost_model=cm).run(prog)
        assert res.values[1] == (False, True)


class TestBlockingAndDeadlock:
    def test_deadlock_detected(self):
        def prog(ctx):
            msg = yield from ctx.recv()  # nobody ever sends
            return msg

        with pytest.raises(DeadlockError):
            make_cluster(2).run(prog)

    def test_deadlock_message_names_blocked_ranks(self):
        def prog(ctx):
            if ctx.rank == 0:
                msg = yield from ctx.recv(source=1, tag=42)
                return msg
            return None
            yield  # pragma: no cover

        with pytest.raises(DeadlockError) as exc:
            make_cluster(2).run(prog)
        assert "rank 0" in str(exc.value)
        assert "tag=42" in str(exc.value)

    def test_event_budget(self):
        def prog(ctx):
            while True:
                yield from ctx.compute(1.0)
                flag = yield from ctx.iprobe()  # sync op: forces events

        with pytest.raises(SimulationError):
            SimulatedCluster(1, max_events=500, seed=0).run(prog)

    def test_rank_exception_propagates(self):
        def prog(ctx):
            yield from ctx.compute(1.0)
            raise ValueError("rank blew up")

        with pytest.raises(ValueError, match="rank blew up"):
            make_cluster(2).run(prog)


class TestPingPong:
    def test_round_trip_ordering(self):
        """Classic ping-pong: strict alternation must hold."""
        def prog(ctx):
            other = 1 - ctx.rank
            log = []
            for i in range(10):
                if ctx.rank == 0:
                    yield from ctx.send(other, 1, i)
                    msg = yield from ctx.recv(source=other)
                    log.append(msg.payload)
                else:
                    msg = yield from ctx.recv(source=other)
                    log.append(msg.payload)
                    yield from ctx.send(other, 1, msg.payload * 2)
            return log

        res = make_cluster(2).run(prog)
        assert res.values[0] == [i * 2 for i in range(10)]
        assert res.values[1] == list(range(10))
        assert res.total_messages == 20


class TestWakeRule:
    def test_blocked_recv_wakes_at_first_matching_arrival(self):
        """A later send to a blocked rank must not postpone the wake an
        earlier arrival already set: rank 0 takes A at 1.06 and replies
        by 2.37, so rank 1's probe at 3.25 sees the reply, although B
        (arrival 6.06) was sent to rank 0 while it was blocked."""
        def prog(ctx):
            if ctx.rank == 0:
                first = yield from ctx.recv()
                yield from ctx.send(1, 5, "reply", nbytes=8)
                second = yield from ctx.recv()
                return (first.payload, first.arrival, second.payload)
            if ctx.rank == 1:
                yield from ctx.send(0, 1, "A", nbytes=8)
                yield from ctx.compute(3.0)
                flag = yield from ctx.iprobe(tag=5)
                reply = yield from ctx.recv(tag=5)
                return (flag, reply.arrival)
            yield from ctx.compute(5.0)
            yield from ctx.send(0, 1, "B", nbytes=8)
            return None

        res = make_cluster(3).run(prog)
        first, a_arrival, second = res.values[0]
        assert (first, second) == ("A", "B")
        assert a_arrival == pytest.approx(1.058, abs=1e-4)
        flag, reply_arrival = res.values[1]
        assert reply_arrival == pytest.approx(2.366, abs=1e-4)
        assert flag is True

    @pytest.mark.parametrize("timeout,expect",
                             [(10.0, ("x", 10.0)), (9.5, None)])
    def test_deadline_wake_checks_for_a_match_first(self, timeout, expect):
        """A timed receive whose deadline equals a message's arrival
        returns that message; one whose deadline comes first expires."""
        cm = CostModel(alpha=10.0, beta=0.0,
                       send_overhead=0.0, recv_overhead=0.0)

        def prog(ctx):
            if ctx.rank == 0:
                msg = yield from ctx.recv(source=1, timeout=timeout)
                late = yield from ctx.recv(source=1, timeout=1.0)
                got = None if msg is None else (msg.payload, msg.arrival)
                return (got, late is None)
            yield from ctx.send(0, 1, "x")
            return None

        res = make_cluster(2, cost_model=cm).run(prog)
        assert res.values[0] == (expect, expect is not None)
