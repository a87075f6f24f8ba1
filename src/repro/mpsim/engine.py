"""Conservative discrete-event engine executing rank programs.

Scheduling rule: events are processed in strictly non-decreasing global
time, so when a rank resolves a synchronising op (receive, probe,
collective join) every other rank's clock is already at or beyond that
time — no message can later appear "in the past".  Purely local ops
(:class:`Compute`) and :class:`Send` (buffered, asynchronous) are
batched without returning to the event heap, which keeps the event
count proportional to the number of *synchronising* ops rather than all
ops.

Determinism: ties on the heap are broken by rank id, messages are FIFO
per (source, dest) pair, and all randomness comes from per-rank
spawned streams — the same master seed always yields the same trace.

Wake rule: a blocked receive keeps one wake time, the earliest
arrival of a matching message or its deadline, whichever comes first.
A delivery pushes a new wake only when it is earlier than that, and
the woken rank's clock is set to the wake time.  So a rank never wakes
after a message it could have taken, and a woken receive resolves at
the global minimum time like every other synchronising op.

One delivery, one receive: every message — a send, each message a
fault injector releases, a crash's obituaries — reaches its mailbox
through :meth:`SimulationEngine._deliver` (the FIFO clamp, the mailbox
append, the wake check), and every receive, fresh or woken, runs
through :meth:`SimulationEngine._recv`.  A blocked rank keeps its
:class:`Recv` as its pending op, and its wake event runs it again.

Hot path: :meth:`SimulationEngine.run` is one event loop that pops an
event and then drives that rank's generator in place.  The cost-model
constants and the heap are bound to locals once per run and each
generator's ``send`` once per rank; trace counters are bumped inline;
the wire time is computed inline (``α + β·bytes``; ``CostModel`` is a
flat frozen value type, never subclassed), and ``_deliver`` builds the
:class:`~repro.mpsim.ops.Message` by ``tuple.__new__``; FIFO channels
are keyed by ``source·p + dest`` ints; and a rank whose deferred
synchronising op would provably be the next event popped skips the
heap round-trip.  That last fast path preserves the exact event order:
the rank proceeds only when ``(clock, rid)`` sorts strictly before the
heap top, which is precisely the condition under which pushing and
immediately popping would return the same rank.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.errors import DeadlockError, SimulationError
from repro.mpsim.costmodel import CostModel
from repro.mpsim.faults import RankFaultInjector, RankObituary, TAG_OBITUARY
from repro.mpsim.interpreter import (
    CollectiveTable,
    CompletedCollective,
    settle_trace,
)
from repro.mpsim.ops import (
    Collective,
    Compute,
    Message,
    Probe,
    Recv,
    Send,
)
from repro.mpsim.trace import RankTrace

__all__ = ["SimulationEngine"]

# Rank status values.
_READY = 0
_BLOCKED_RECV = 1
_BLOCKED_COLL = 2
_DONE = 3

# Minimum spacing enforcing FIFO per channel.
_FIFO_EPS = 1e-9

_INF = float("inf")


class _RankState:
    """Mutable per-rank bookkeeping."""

    __slots__ = (
        "rid", "send", "clock", "status", "mailbox", "deadline", "wake",
        "token", "resume_value", "pending_op", "value", "trace",
    )

    def __init__(self, rid: int, gen: Generator):
        self.rid = rid
        #: The generator's ``send``, bound once for the event loop.
        self.send = gen.send
        #: Virtual time; it stays where the rank blocked until it wakes.
        self.clock = 0.0
        self.status = _READY
        self.mailbox: List[Message] = []
        #: Virtual time at which a blocked timed Recv gives up.
        self.deadline = _INF
        #: A blocked Recv's wake time: its earliest matching arrival,
        #: or its deadline.
        self.wake = _INF
        self.token = 0
        self.resume_value: Any = None
        #: The op to run when the rank's next event pops: a deferred
        #: synchronising op, or the Recv it is blocked on.
        self.pending_op: Any = None
        self.value: Any = None
        self.trace = RankTrace(rid)


class SimulationEngine:
    """Executes one SPMD run of ``num_ranks`` rank programs."""

    def __init__(
        self,
        generators: List[Generator],
        cost_model: CostModel,
        max_events: int = 500_000_000,
        injectors: Optional[List[RankFaultInjector]] = None,
    ):
        self.p = len(generators)
        if self.p < 1:
            raise SimulationError("need at least one rank")
        self.cm = cost_model
        self.max_events = max_events
        self.ranks = [_RankState(i, g) for i, g in enumerate(generators)]
        self._heap: List[Tuple[float, int, int]] = []
        #: Last arrival per FIFO channel, keyed ``source * p + dest``.
        self._fifo_last: Dict[int, float] = {}
        self.collectives = CollectiveTable(self.p)
        self._finished = 0
        if injectors is not None and len(injectors) != self.p:
            raise SimulationError(
                f"{len(injectors)} fault injectors for {self.p} ranks")
        self.injectors = injectors

    # -- public ---------------------------------------------------------

    def run(self) -> float:
        """Run to completion; returns the simulated makespan.

        One event loop: pop the earliest event, then drive that rank
        from its pending op (a deferred op, or the Recv a wake is for)
        until it blocks, defers or ends (see the module docstring's
        hot-path notes).
        """
        send_ovh = self.cm.send_overhead
        alpha = self.cm.alpha
        beta = self.cm.beta
        p = self.p
        ranks = self.ranks
        dead = self.collectives.dead
        deliver = self._deliver
        recv = self._recv
        heap = self._heap
        heappush = heapq.heappush
        heappop = heapq.heappop
        injectors = self.injectors
        max_events = self.max_events
        events = 0
        for state in ranks:
            self._push(state, 0.0)
        while self._finished < p:
            if not heap:
                self._raise_deadlock()
            t_pop, rid, token = heappop(heap)
            state = ranks[rid]
            status = state.status
            if status == _DONE or token != state.token:
                continue  # stale event
            events += 1
            if events > max_events:
                raise SimulationError(
                    f"event budget exceeded ({max_events}); "
                    "likely a livelock in a rank program"
                )
            if status == _BLOCKED_RECV:
                state.clock = t_pop  # the wake time
            elif status == _BLOCKED_COLL:
                # Collective members are resumed via _finish_collective.
                raise SimulationError(
                    f"rank {rid}: unexpected event while blocked on a collective"
                )
            trace = state.trace
            gen_send = state.send
            inj = injectors[rid] if injectors is not None else None
            value = state.resume_value
            state.resume_value = None
            op = state.pending_op
            state.pending_op = None
            while True:
                if op is None:
                    try:
                        op = gen_send(value)
                    except StopIteration as stop:
                        state.status = _DONE
                        state.value = stop.value
                        trace.finish_time = state.clock
                        self._finished += 1
                        break
                    except Exception:
                        state.status = _DONE
                        self._finished += 1
                        raise
                    value = None
                    if inj is not None:
                        # Fault hook fires once per freshly yielded op
                        # (ops re-examined after a block are not
                        # re-counted).
                        action = inj.on_op(op)
                        if action == "crash":
                            self._crash(state)
                            break
                        if action == "stall":
                            state.clock += inj.plan.stall_cost
                            trace.record_compute(inj.plan.stall_cost)
                kind = type(op)
                if kind is Compute:
                    state.clock += op.cost
                    trace.compute_time += op.cost
                    op = None
                    continue
                if kind is Send:
                    for real in (op,) if inj is None else inj.on_send(op):
                        dest, tag, payload, nbytes = real
                        if dest < 0 or dest >= p:
                            raise SimulationError(
                                f"rank {rid} sent to invalid rank {dest}")
                        clock = state.clock + send_ovh
                        state.clock = clock
                        trace.compute_time += send_ovh
                        if dead and dest in dead:
                            # Dead letter: charged to the sender, never
                            # delivered.
                            trace.dead_letters += 1
                            continue
                        trace.messages_sent += 1
                        trace.bytes_sent += nbytes
                        deliver(rid, dest, tag, payload,
                                clock + alpha + beta * nbytes)
                    op = None
                    continue
                # Synchronising ops must resolve at the global minimum
                # time.
                clock = state.clock
                if clock > t_pop:
                    # Fast path: if (clock, rid) sorts strictly before
                    # the heap top, pushing and popping would hand
                    # control straight back to this rank — skip the
                    # round-trip.  (Exact order preserved; ties defer to
                    # the heap.)
                    if heap:
                        top = heap[0]
                        if clock < top[0] or (clock == top[0]
                                              and rid < top[1]):
                            t_pop = clock
                        else:
                            # Defer: _push, inlined.
                            state.pending_op = op
                            tk = state.token + 1
                            state.token = tk
                            heappush(heap, (clock, rid, tk))
                            break
                    else:
                        t_pop = clock
                    # A jump still counts against the event budget so an
                    # infinite sync-op loop cannot livelock the host.
                    events += 1
                    if events > max_events:
                        raise SimulationError(
                            f"event budget exceeded ({max_events}); "
                            "likely a livelock in a rank program"
                        )
                if kind is Recv:
                    if recv(state, op):
                        value = state.resume_value
                        state.resume_value = None
                        op = None
                        continue
                    break  # blocked
                if kind is Probe:
                    src = op.source
                    tag = op.tag
                    value = False
                    for msg in state.mailbox:
                        if (msg.arrival <= clock
                                and (src == -1 or src == msg.source)
                                and (tag == -1 or tag == msg.tag)):
                            value = True
                            break
                    op = None
                    continue
                if kind is Collective:
                    self._join_collective(state, op)
                    break
                raise SimulationError(
                    f"rank {rid} yielded unknown op {op!r}")
        injectors = injectors or [None] * p
        for st, inj in zip(ranks, injectors):
            settle_trace(st.trace, st.mailbox, inj)
        return max(st.trace.finish_time for st in ranks)

    def values(self) -> List[Any]:
        """Rank-program return values, in rank order."""
        return [st.value for st in self.ranks]

    def traces(self) -> List[RankTrace]:
        return [st.trace for st in self.ranks]

    # -- scheduling -------------------------------------------------------

    def _push(self, state: _RankState, time: float) -> None:
        state.token += 1
        heapq.heappush(self._heap, (time, state.rid, state.token))

    def _raise_deadlock(self) -> None:
        blocked = []
        for st in self.ranks:
            if st.status == _BLOCKED_RECV:
                op = st.pending_op
                blocked.append(
                    f"rank {st.rid} waiting for (source={op.source}, "
                    f"tag={op.tag}) at t={st.clock:.3f}"
                )
            elif st.status == _BLOCKED_COLL:
                blocked.append(f"rank {st.rid} waiting in a collective")
        raise DeadlockError(
            "no runnable rank and no pending event; blocked ranks:\n  "
            + "\n  ".join(blocked)
        )

    # -- messages ----------------------------------------------------------

    def _deliver(self, src: int, dest: int, tag: int, payload: Any,
                 arrival: float) -> None:
        """Put a message into ``dest``'s mailbox, clamped to arrive
        after the last one on channel ``src → dest`` (FIFO), and wake a
        receive blocked on it."""
        chan = src * self.p + dest
        last = self._fifo_last.get(chan, -_INF)
        if arrival <= last:
            arrival = last + _FIFO_EPS
        self._fifo_last[chan] = arrival
        st = self.ranks[dest]
        # Message(src, tag, payload, arrival) without the NamedTuple
        # constructor's Python frame.
        st.mailbox.append(tuple.__new__(Message, (src, tag, payload, arrival)))
        if st.status == _BLOCKED_RECV:
            want = st.pending_op
            if ((want.source == -1 or want.source == src)
                    and (want.tag == -1 or want.tag == tag)):
                wake = arrival if arrival > st.clock else st.clock
                if wake < st.wake:
                    st.wake = wake
                    self._push(st, wake)

    def _recv(self, state: _RankState, op: Recv) -> bool:
        """Run ``op`` at the rank's clock, fresh or at a wake: take the
        earliest matching message that has arrived, or time out at the
        deadline, or block (again) until the wake time.  Returns False
        when the rank blocks."""
        now = state.clock
        src = op.source
        tag = op.tag
        best = None
        best_idx = -1
        future = _INF
        idx = 0
        for msg in state.mailbox:
            if (src == -1 or src == msg.source) and (tag == -1
                                                     or tag == msg.tag):
                arr = msg.arrival
                if arr <= now:
                    if best is None or arr < best.arrival:
                        best = msg
                        best_idx = idx
                elif arr < future:
                    future = arr
            idx += 1
        if best is not None:
            del state.mailbox[best_idx]
            ovh = self.cm.recv_overhead
            state.clock = now + ovh
            state.status = _READY
            state.deadline = _INF
            trace = state.trace
            trace.messages_received += 1
            trace.compute_time += ovh
            state.resume_value = best
            return True
        if state.status != _BLOCKED_RECV:
            state.status = _BLOCKED_RECV
            if op.timeout is not None:
                state.deadline = now + op.timeout
        elif now >= state.deadline:
            # A timed receive expired with nothing matching: resume the
            # rank with None at the deadline.
            state.status = _READY
            state.deadline = _INF
            return True
        state.pending_op = op
        wake = future if future < state.deadline else state.deadline
        state.wake = wake
        if wake < _INF:
            self._push(state, wake)
        return False

    # -- collectives -------------------------------------------------------------

    def _join_collective(self, state: _RankState, op: Collective) -> None:
        state.status = _BLOCKED_COLL
        state.trace.record_collective()
        done = self.collectives.join(state.rid, op)
        if done is not None:
            self._finish_collective(done)

    def _finish_collective(self, done: CompletedCollective) -> None:
        # A blocked rank's clock stays where it joined.
        ranks = self.ranks
        arrive = max(ranks[r].clock for r in done.members)
        nbytes = max(op.nbytes for op in done.members.values())
        kind = next(iter(done.members.values())).kind
        t_done = arrive + self.cm.collective_time(kind, self.p, nbytes)
        for rid, result in done.results.items():
            st = ranks[rid]
            st.clock = t_done
            st.status = _READY
            st.resume_value = result
            self._push(st, t_done)

    # -- faults ------------------------------------------------------------

    def _crash(self, state: _RankState) -> None:
        """Fail-stop with notification: stop the rank's program at this
        op boundary, deliver a :class:`RankObituary` to every
        still-running rank, and complete any collective that was
        waiting only on the deceased."""
        rid = state.rid
        state.status = _DONE
        state.trace.crashed = True
        state.trace.finish_time = state.clock
        self._finished += 1
        arrival = state.clock + self.cm.wire_time(64)
        obit = RankObituary(rid)
        for st in self.ranks:
            if st.status != _DONE:
                self._deliver(rid, st.rid, TAG_OBITUARY, obit, arrival)
        for done in self.collectives.rank_died(rid):
            self._finish_collective(done)
