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

Hot path: :meth:`SimulationEngine.run` is one event loop that pops an
event and then drives that rank's generator in place, and it is
written for speed.  The cost-model constants, the FIFO table and the
heap are bound to locals once per run and each generator's ``send``
once per rank; trace counters are bumped inline; the fault-free send
is inlined, with the wire-time formula (``α + β·bytes``; ``CostModel``
is a flat frozen value type, never subclassed) and the delivered
:class:`~repro.mpsim.ops.Message` built by ``tuple.__new__``; FIFO
channels are keyed by ``source·p + dest`` ints; and a rank whose
deferred synchronising op would provably be the next event popped
skips the heap round-trip.  That last fast path preserves the exact
event order: the rank proceeds only when ``(clock, rid)`` sorts
strictly before the heap top, which is precisely the condition under
which pushing and immediately popping would return the same rank.
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


class _RankState:
    """Mutable per-rank bookkeeping."""

    __slots__ = (
        "rid", "send", "clock", "status", "mailbox", "want_source",
        "want_tag", "block_clock", "deadline", "token", "resume_value",
        "pending_op", "value", "trace",
    )

    def __init__(self, rid: int, gen: Generator):
        self.rid = rid
        #: The generator's ``send``, bound once for the event loop.
        self.send = gen.send
        self.clock = 0.0
        self.status = _READY
        self.mailbox: List[Message] = []
        self.want_source = 0
        self.want_tag = 0
        self.block_clock = 0.0
        #: Virtual time at which a timed Recv gives up (None = forever).
        self.deadline: Optional[float] = None
        self.token = 0
        self.resume_value: Any = None
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

        One event loop: pop the earliest event, complete the receive it
        announces, then drive that rank's generator until it blocks,
        defers or ends (see the module docstring's hot-path notes).
        """
        cm = self.cm
        send_ovh = cm.send_overhead
        alpha = cm.alpha
        beta = cm.beta
        p = self.p
        ranks = self.ranks
        dead = self.collectives.dead
        fifo = self._fifo_last
        fifo_get = fifo.get
        heap = self._heap
        heappush = heapq.heappush
        heappop = heapq.heappop
        new_tuple = tuple.__new__
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
                self._complete_recv(state, t_pop)
                if state.status != _READY:
                    continue
                t_pop = state.clock
            elif status != _READY:
                # BLOCKED_COLL ranks are resumed via _finish_collective.
                raise SimulationError(
                    f"rank {rid}: unexpected event while blocked on a collective"
                )
            trace = state.trace
            gen_send = state.send
            inj = injectors[rid] if injectors is not None else None
            chan_base = rid * p
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
                    if inj is not None:
                        for real in inj.on_send(op):
                            self._do_send(state, real)
                        op = None
                        continue
                    # The fault-free send, inlined: _do_send's
                    # arithmetic without per-message function calls.
                    dest_rid, tag, payload, nbytes = op
                    if dest_rid < 0 or dest_rid >= p:
                        raise SimulationError(
                            f"rank {rid} sent to invalid rank {dest_rid}"
                        )
                    clock = state.clock + send_ovh
                    state.clock = clock
                    trace.compute_time += send_ovh
                    if dead and dest_rid in dead:
                        # Dead letter: charged to the sender, never
                        # delivered.
                        trace.dead_letters += 1
                        op = None
                        continue
                    arrival = clock + alpha + beta * nbytes
                    chan = chan_base + dest_rid
                    last = fifo_get(chan)
                    if last is not None and arrival <= last:
                        arrival = last + _FIFO_EPS
                    fifo[chan] = arrival
                    dest = ranks[dest_rid]
                    # Message(rid, tag, payload, arrival) without the
                    # NamedTuple constructor's Python frame.
                    dest.mailbox.append(
                        new_tuple(Message, (rid, tag, payload, arrival)))
                    trace.messages_sent += 1
                    trace.bytes_sent += nbytes
                    if dest.status == _BLOCKED_RECV:
                        ws = dest.want_source
                        wt = dest.want_tag
                        if ((ws == -1 or ws == rid)
                                and (wt == -1 or wt == tag)):
                            bc = dest.block_clock
                            wake = arrival if arrival > bc else bc
                            ddl = dest.deadline
                            if ddl is None or wake <= ddl:
                                tk = dest.token + 1
                                dest.token = tk
                                heappush(heap, (wake, dest_rid, tk))
                            # else: the receive's deadline event is
                            # still the valid token and fires first —
                            # the receive times out before this message
                            # arrives.
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
                    if self._try_recv(state, op):
                        value = state.resume_value
                        state.resume_value = None
                        op = None
                        continue
                    break  # blocked
                if kind is Probe:
                    now = state.clock
                    src = op.source
                    tag = op.tag
                    value = False
                    for msg in state.mailbox:
                        if (msg.arrival <= now
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
                blocked.append(
                    f"rank {st.rid} waiting for (source={st.want_source}, "
                    f"tag={st.want_tag}) at t={st.block_clock:.3f}"
                )
            elif st.status == _BLOCKED_COLL:
                blocked.append(f"rank {st.rid} waiting in a collective")
        raise DeadlockError(
            "no runnable rank and no pending event; blocked ranks:\n  "
            + "\n  ".join(blocked)
        )

    # -- op execution ----------------------------------------------------------

    def _do_send(self, state: _RankState, op: Send) -> None:
        """Single-message send (the fault-injection path; the fault-free
        send is inlined in :meth:`run`)."""
        if not 0 <= op.dest < self.p:
            raise SimulationError(
                f"rank {state.rid} sent to invalid rank {op.dest}"
            )
        cm = self.cm
        state.clock += cm.send_overhead
        state.trace.record_compute(cm.send_overhead)
        if op.dest in self.collectives.dead:
            # Dead letter: charged to the sender, never delivered.
            state.trace.dead_letters += 1
            return
        arrival = state.clock + cm.wire_time(op.nbytes)
        chan = state.rid * self.p + op.dest
        last = self._fifo_last.get(chan)
        if last is not None and arrival <= last:
            arrival = last + _FIFO_EPS
        self._fifo_last[chan] = arrival
        msg = Message(state.rid, op.tag, op.payload, arrival)
        dest = self.ranks[op.dest]
        dest.mailbox.append(msg)
        state.trace.record_send(op.nbytes)
        if dest.status == _BLOCKED_RECV and msg.matches(dest.want_source, dest.want_tag):
            wake = max(dest.block_clock, arrival)
            if dest.deadline is None or wake <= dest.deadline:
                self._push(dest, wake)
            # else: the receive's deadline event is still the valid
            # token and fires first — the receive times out before
            # this message arrives.

    def _try_recv(self, state: _RankState, op: Recv) -> bool:
        """Complete the receive if a matching message has arrived;
        otherwise block the rank.  Returns True on completion."""
        now = state.clock
        src = op.source
        tag = op.tag
        best_idx = -1
        best_arrival = float("inf")
        earliest_future = None
        idx = 0
        for msg in state.mailbox:
            if (src == -1 or src == msg.source) and (tag == -1
                                                     or tag == msg.tag):
                arr = msg.arrival
                if arr <= now:
                    if arr < best_arrival:
                        best_arrival = arr
                        best_idx = idx
                elif earliest_future is None or arr < earliest_future:
                    earliest_future = arr
            idx += 1
        if best_idx >= 0:
            msg = state.mailbox.pop(best_idx)
            ovh = self.cm.recv_overhead
            state.clock = now + ovh
            trace = state.trace
            trace.messages_received += 1
            trace.compute_time += ovh
            state.resume_value = msg
            return True
        state.status = _BLOCKED_RECV
        state.want_source = src
        state.want_tag = tag
        state.block_clock = now
        state.deadline = None if op.timeout is None else now + op.timeout
        wake = earliest_future
        if state.deadline is not None and (wake is None
                                           or state.deadline < wake):
            wake = state.deadline
        if wake is not None:
            self._push(state, wake)
        return False

    def _complete_recv(self, state: _RankState, time: float) -> None:
        """Wake event for a blocked receiver: consume the earliest
        matching arrived message."""
        src = state.want_source
        tag = state.want_tag
        best_idx = -1
        best_arrival = float("inf")
        idx = 0
        for msg in state.mailbox:
            arr = msg.arrival
            if (arr <= time and arr < best_arrival
                    and (src == -1 or src == msg.source)
                    and (tag == -1 or tag == msg.tag)):
                best_arrival = arr
                best_idx = idx
            idx += 1
        if best_idx < 0:
            if (state.deadline is not None
                    and time >= state.deadline - _FIFO_EPS):
                # Timed receive expired with nothing matching: resume
                # the rank with None at the deadline.
                state.clock = max(state.block_clock, state.deadline)
                state.status = _READY
                state.deadline = None
                state.resume_value = None
                return
            # The message this wake announced was consumed is impossible
            # (only this rank consumes its mailbox); treat as fault.
            raise SimulationError(
                f"rank {state.rid}: wake at t={time} with no matching message"
            )
        msg = state.mailbox.pop(best_idx)
        bc = state.block_clock
        ovh = self.cm.recv_overhead
        state.clock = (best_arrival if best_arrival > bc else bc) + ovh
        state.status = _READY
        state.deadline = None
        trace = state.trace
        trace.messages_received += 1
        trace.compute_time += ovh
        state.resume_value = msg

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
        obit = RankObituary(rid)
        cm = self.cm
        for st in self.ranks:
            if st.status == _DONE:
                continue
            arrival = state.clock + cm.wire_time(64)
            chan = rid * self.p + st.rid
            last = self._fifo_last.get(chan)
            if last is not None and arrival <= last:
                arrival = last + _FIFO_EPS
            self._fifo_last[chan] = arrival
            msg = Message(rid, TAG_OBITUARY, obit, arrival)
            st.mailbox.append(msg)
            if (st.status == _BLOCKED_RECV
                    and msg.matches(st.want_source, st.want_tag)):
                wake = max(st.block_clock, arrival)
                if st.deadline is None or wake <= st.deadline:
                    self._push(st, wake)
        for done in self.collectives.rank_died(rid):
            self._finish_collective(done)
