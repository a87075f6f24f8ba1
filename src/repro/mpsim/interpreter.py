"""What the three backends do the same way when they interpret ops.

The discrete-event engine, the threads backend and the process backend
run one op set (:mod:`repro.mpsim.ops`).  They differ in how a rank
blocks (event heap, queue inbox, poll selector), how a message
travels and how an obituary is delivered.  Everything else lives here,
written once:

* :class:`CollectiveTable` sequences collectives: per-rank sequence
  numbers, the SPMD mismatch check, the dead set, and completion over
  the survivors when a rank dies;
* :func:`collective_results` computes every member's result;
* :func:`settle_trace` does a rank's end-of-run accounting (dead
  letters, undelivered messages, injected faults);
* :func:`run_ops` is the op loop of the two blocking backends, with
  the fault-injection hooks.  The engine keeps its own inlined loop
  (``SimulationEngine.run``): it resumes ranks from an event heap and
  cannot block in place;
* :class:`MailboxPort` is those two backends' receive: matching in a
  private mailbox, a sweep of the transport, and a blocking pull
  bounded by the deadline and the ``recv_timeout`` guard.
"""

from __future__ import annotations

import time as _time
from typing import (
    Any, Collection, Dict, Generator, List, NamedTuple, Optional, Sequence,
    Set,
)

from repro.errors import DeadlockError, SimulationError
from repro.mpsim.context import reduce_values
from repro.mpsim.faults import RankFaultInjector, TAG_OBITUARY
from repro.mpsim.ops import Collective, Compute, Message, Probe, Recv, Send
from repro.mpsim.trace import RankTrace

__all__ = [
    "CompletedCollective",
    "CollectiveTable",
    "MailboxPort",
    "collective_results",
    "settle_trace",
    "run_ops",
]


class CompletedCollective(NamedTuple):
    """A collective every live rank has joined."""

    seq: int
    #: The op each member issued, in join order.
    members: Dict[int, Collective]
    #: Each member's result.
    results: Dict[int, Any]


class CollectiveTable:
    """Matches each rank's n-th collective with every other rank's.

    Pure logic, no I/O: a backend calls :meth:`join` when a rank issues
    a collective and :meth:`rank_died` when a fault plan crashes one,
    and hands the completed collectives' results to their members.
    Both raise :class:`~repro.errors.SimulationError` when the ranks do
    not issue the same sequence of collectives.
    """

    def __init__(self, p: int):
        self.p = p
        #: Sequence number of each rank's next collective.
        self.seq_of = [0] * p
        #: Crashed ranks: a collective completes without them.
        self.dead: Set[int] = set()
        self._slots: Dict[int, Dict[int, Collective]] = {}

    def join(self, rank: int, op: Collective
             ) -> Optional[CompletedCollective]:
        """Add ``rank``'s next collective; return it once complete."""
        seq = self.seq_of[rank]
        self.seq_of[rank] = seq + 1
        slot = self._slots.setdefault(seq, {})
        if slot:
            first = next(iter(slot.values()))
            if first.kind != op.kind or first.root != op.root:
                raise SimulationError(
                    f"collective mismatch at seq {seq}: rank {rank} "
                    f"issued {op.kind!r}, others issued {first.kind!r}")
        if rank in slot:
            raise SimulationError(
                f"rank {rank} joined collective seq {seq} twice")
        slot[rank] = op
        if len(slot) == self.p - len(self.dead):
            return self._complete(seq)
        return None

    def rank_died(self, rank: int) -> List[CompletedCollective]:
        """Mark ``rank`` dead; return the collectives that were waiting
        only on it, in sequence order."""
        self.dead.add(rank)
        live = self.p - len(self.dead)
        return [self._complete(seq) for seq in sorted(self._slots)
                if self._slots[seq] and len(self._slots[seq]) >= live]

    def _complete(self, seq: int) -> CompletedCollective:
        slot = self._slots.pop(seq)
        op = next(iter(slot.values()))
        values = [slot[r].value if r in slot else None
                  for r in range(self.p)]
        results = collective_results(op.kind, op.root, op.op, values,
                                     self.p, self.dead)
        return CompletedCollective(seq, slot,
                                   {r: results[r] for r in slot})


def collective_results(kind: str, root: int, redop: str,
                       values: Sequence[Any], p: int,
                       dead: Collection[int] = ()) -> List[Any]:
    """Per-rank results of a completed collective.

    ``values`` has ``None`` at dead ranks' slots.  With ranks dead, only
    the kinds the switching protocol uses are defined: a barrier
    completes over the survivors, an allgather keeps ``None`` at dead
    slots (so every survivor sees the same deaths), an allreduce
    reduces the live values, and a bcast works while its root lives.
    The other kinds have no sensible partial result and raise.
    """
    if kind == "barrier":
        return [None] * p
    if kind == "allgather":
        return [list(values) for _ in range(p)]
    if kind == "allreduce":
        if dead:
            values = [v for r, v in enumerate(values) if r not in dead]
        reduced = reduce_values(values, redop)
        return [reduced] * p
    if kind == "bcast":
        if root in dead:
            raise SimulationError(f"bcast root rank {root} is dead")
        return [values[root]] * p
    if dead:
        raise SimulationError(
            f"collective kind {kind!r} is not dead-tolerant "
            f"(dead ranks: {sorted(dead)})")
    if kind == "gather":
        return [list(values) if r == root else None for r in range(p)]
    if kind == "scatter":
        seq = values[root]
        if seq is None or len(seq) != p:
            raise SimulationError(
                f"scatter root must supply exactly {p} values")
        return list(seq)
    if kind == "alltoall":
        for v in values:
            if v is None or len(v) != p:
                raise SimulationError(
                    f"alltoall requires {p} values from every rank")
        return [[values[j][i] for j in range(p)] for i in range(p)]
    raise SimulationError(f"unknown collective kind {kind!r}")


def settle_trace(trace: RankTrace, leftover: Sequence[Message],
                 inj: Optional[RankFaultInjector]) -> None:
    """End-of-run accounting for one rank whose program has stopped.

    A crashed rank's leftover mailbox is casualties: dead letters, not
    undelivered messages.  A rank that ended normally loses what its
    injector still holds (a message the network holds when its sender
    exits is never delivered; a reliable sender has long since
    retransmitted it), and counts its leftovers, obituaries aside, as
    undelivered.
    """
    if trace.crashed:
        trace.dead_letters += len(leftover)
        trace.undelivered = 0
    else:
        if inj is not None:
            trace.dead_letters += len(inj.flush())
        trace.undelivered = sum(1 for m in leftover
                                if m.tag != TAG_OBITUARY)
    if inj is not None:
        trace.faults_injected = len(inj.events)
        trace.fault_events = list(inj.events)


class MailboxPort:
    """The receive half of a port on a backend whose ranks block in
    place (threads, procs), written once.

    Arrived messages sit in ``mailbox``, which only the rank itself
    reads.  A receive or probe scans it; on a miss it sweeps the
    transport once and scans only what the sweep added.  A receive
    that still misses blocks in pulls bounded by its deadline and by
    the ``recv_timeout`` guard, and names its op in ``waiting`` while
    it does.

    A backend sets ``mailbox`` and ``recv_timeout`` and supplies
    ``_pull(timeout)``, which moves what has arrived into the mailbox,
    waits up to ``timeout`` seconds for a message if nothing has
    (``0``: no wait), and returns whether it moved any; and
    ``_stuck()``, the :class:`~repro.errors.DeadlockError` raised when
    the guard expires.
    """

    #: The op this rank is blocked in, ``None`` while it runs.
    waiting: Optional[str] = None

    def _find(self, source: int, tag: int, start: int) -> int:
        """Index of the first match at or after ``mailbox[start]``, or
        -1."""
        mailbox = self.mailbox
        for idx in range(start, len(mailbox)):
            m = mailbox[idx]
            if ((source == -1 or source == m.source)
                    and (tag == -1 or tag == m.tag)):
                return idx
        return -1

    def probe(self, op: Probe) -> bool:
        source, tag = op.source, op.tag
        if self._find(source, tag, 0) >= 0:
            return True
        start = len(self.mailbox)
        return self._pull(0) and self._find(source, tag, start) >= 0

    def recv(self, op: Recv) -> Optional[Message]:
        """The first matching message; ``None`` when a timed receive
        expires."""
        source, tag = op.source, op.tag
        mailbox = self.mailbox
        idx = self._find(source, tag, 0)
        if idx < 0:
            start = len(mailbox)
            if self._pull(0):
                idx = self._find(source, tag, start)
        if idx >= 0:
            return mailbox.pop(idx)
        now = _time.monotonic()
        timed = op.timeout is not None and op.timeout <= self.recv_timeout
        limit = now + (op.timeout if timed else self.recv_timeout)
        self.waiting = f"recv(source={source}, tag={tag})"
        try:
            while now < limit:
                start = len(mailbox)
                if self._pull(limit - now):
                    idx = self._find(source, tag, start)
                    if idx >= 0:
                        return mailbox.pop(idx)
                now = _time.monotonic()
            if timed:
                return None  # timed receive expired
            raise self._stuck()
        finally:
            self.waiting = None


def run_ops(gen: Generator, rank: int, port, trace: RankTrace,
            inj: Optional[RankFaultInjector]) -> Any:
    """Interpret one rank program on a backend whose ranks block in
    place; return the program's value (``None`` if the plan crashed
    the rank, which leaves ``trace.crashed`` set).

    ``port`` is the backend's half: ``send(op)`` (counts the send or
    the dead letter), ``recv(op)`` (a :class:`Message`, or ``None``
    when a timed receive expires), ``probe(op)``, ``collective(op)``
    and ``crash()`` (obituaries and the collective sweep).
    """
    send = port.send
    recv = port.recv
    probe = port.probe
    value: Any = None
    while True:
        try:
            op = gen.send(value)
        except StopIteration as stop:
            return stop.value
        value = None
        if inj is not None:
            action = inj.on_op(op)
            if action == "crash":
                trace.crashed = True
                port.crash()
                return None
            if action == "stall":
                _time.sleep(inj.plan.stall_cost)
        kind = type(op)
        if kind is Compute:
            trace.compute_time += op.cost
        elif kind is Send:
            if inj is None:
                send(op)
            else:
                for real in inj.on_send(op):
                    send(real)
        elif kind is Recv:
            value = recv(op)
            if value is not None:
                trace.messages_received += 1
        elif kind is Probe:
            value = probe(op)
        elif kind is Collective:
            trace.collectives += 1
            value = port.collective(op)
        else:
            raise SimulationError(f"rank {rank} yielded unknown op {op!r}")
