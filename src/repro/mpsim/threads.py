"""Real-threads backend: the same rank programs, real concurrency.

Purpose: the discrete-event backend is deterministic, which is good for
experiments but means a protocol bug that only shows under unusual
interleavings could hide.  This backend runs each rank program on an OS
thread, so the GIL's preemption supplies genuine nondeterminism.  The
test suite runs the full switching protocol here and re-checks every
invariant.

Timing is not modelled: :class:`Compute` only adds to the rank's
``compute_time``, and ``RunResult.sim_time`` is wall-clock seconds.
Every 64th send or inbox sweep calls ``time.sleep(0)`` to encourage
preemption.

Each thread runs the op loop shared with the process backend
(:func:`repro.mpsim.interpreter.run_ops`), with the fault-injection
hooks, so a :class:`~repro.mpsim.faults.FaultPlan` produces the same
faults here as under simulation.  Receives and probes are the
process backend's too (:class:`~repro.mpsim.interpreter.MailboxPort`).
This module supplies the rest of the rank's port.  Every rank has a
``queue.SimpleQueue`` inbox: a send is one ``put``, with no lock, and
only the owner takes from it, into a private mailbox; a rank that has
to wait blocks in ``get``.  A rank that fails puts a sentinel into
every inbox, which wakes the blocked receivers into the abort.  The
one lock guards the collectives.  A crashed rank thread stops
interpreting, puts a :class:`~repro.mpsim.faults.RankObituary` into
every still-running rank's inbox, and completes any collective that
was waiting only on it.  At the end of a run each inbox is swept into
its mailbox before the accounting, so a message that reached a crashed
rank counts as a dead letter.
"""

from __future__ import annotations

import threading
import time as _time
from queue import Empty, SimpleQueue
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.errors import DeadlockError, SimulationError
from repro.mpsim.cluster import RunResult
from repro.mpsim.context import RankContext, RankProgram
from repro.mpsim.faults import (
    FaultPlan,
    RankFaultInjector,
    RankObituary,
    TAG_OBITUARY,
    build_injectors,
)
from repro.mpsim.interpreter import (
    CollectiveTable,
    CompletedCollective,
    MailboxPort,
    run_ops,
    settle_trace,
)
from repro.mpsim.ops import Collective, Message, Send
from repro.mpsim.trace import ClusterTrace, RankTrace
from repro.util.rng import spawn_streams

__all__ = ["ThreadCluster"]

_new_message = tuple.__new__


class _Shared:
    """State shared by all rank threads."""

    def __init__(self, p: int):
        self.p = p
        #: Each rank's inbox: any thread puts, only the owner takes.
        self.inboxes = [SimpleQueue() for _ in range(p)]
        self.ports: List[_ThreadPort] = []
        #: Guards the collective state below and ``finished``.
        self.lock = threading.Lock()
        self.collectives = CollectiveTable(p)
        #: rank -> result of the collective it waits in (at most one:
        #: a rank joins its next collective only after taking it).
        #: Each member takes its own entry, so one that moves on (or
        #: dies) never retires a result a slower member has not read.
        self.coll_results: Dict[int, Any] = {}
        self.coll_cond = threading.Condition(self.lock)
        self.errors: List[BaseException] = []
        self.abort = False
        #: Ranks whose program returned normally (no obituaries to them).
        self.finished: Set[int] = set()

    def blocked_report(self) -> str:
        """Every currently blocked rank and what it waits on.  Ranks
        set their ``waiting`` without the lock, so each is read once."""
        lines = [f"rank {port.rank} waiting for {what}"
                 for port in self.ports if (what := port.waiting) is not None]
        if not lines:
            return "no other rank is blocked"
        return "blocked ranks:\n  " + "\n  ".join(lines)

    def hand_out(self, done: CompletedCollective) -> None:
        """Give a completed collective's members their results (lock
        held)."""
        self.coll_results.update(done.results)
        self.coll_cond.notify_all()


class _ThreadPort(MailboxPort):
    """One rank thread's half of :func:`run_ops`: a send is one ``put``
    into the destination's inbox, and the rank moves its own inbox into
    its private mailbox, blocking in ``get`` when it has to wait."""

    def __init__(self, rank: int, shared: _Shared, trace: RankTrace,
                 recv_timeout: float):
        self.rank = rank
        self.shared = shared
        self.inbox = shared.inboxes[rank]
        self.mailbox: List[Message] = []
        self.trace = trace
        self.recv_timeout = recv_timeout
        self.value: Any = None
        self._nudges = 0

    def main(self, gen, inj: Optional[RankFaultInjector]) -> None:
        """Thread body."""
        sh = self.shared
        try:
            self.value = run_ops(gen, self.rank, self, self.trace, inj)
            with sh.lock:
                sh.finished.add(self.rank)
        except BaseException as exc:  # propagate to the driver
            with sh.lock:
                sh.errors.append(exc)
                sh.abort = True
                sh.coll_cond.notify_all()
            # Wake every rank blocked in a receive: it sees the abort.
            for inbox in sh.inboxes:
                inbox.put(None)

    def _nudge(self) -> None:
        """Yield the processor every 64 sends and pulls, to encourage
        preemption and so varied interleavings."""
        self._nudges += 1
        if self._nudges % 64 == 0:
            _time.sleep(0)

    def send(self, op: Send) -> None:
        self._nudge()
        sh = self.shared
        dest = op.dest
        if not 0 <= dest < sh.p:
            raise SimulationError(
                f"rank {self.rank} sent to invalid rank {dest}")
        if dest in sh.collectives.dead:
            self.trace.dead_letters += 1
            return
        sh.inboxes[dest].put(
            _new_message(Message, (self.rank, op.tag, op.payload, 0.0)))
        self.trace.record_send(op.nbytes)

    def _pull(self, timeout: float) -> bool:
        self._nudge()
        inbox = self.inbox
        n = inbox.qsize()
        if n:
            # Only this rank takes, so n puts are there to take.
            get = inbox.get_nowait
            put = self.mailbox.append
            for _ in range(n):
                put(get())
        elif timeout > 0:
            try:
                self.mailbox.append(inbox.get(True, timeout))
            except Empty:
                return False
        else:
            return False
        # The abort sentinel lands in the mailbox, but is never read.
        if self.shared.abort:
            raise SimulationError("aborting: another rank failed")
        return True

    def _stuck(self) -> DeadlockError:
        return DeadlockError(
            f"rank {self.rank} timed out waiting for {self.waiting}; "
            + self.shared.blocked_report())

    def collective(self, op: Collective) -> Any:
        sh = self.shared
        deadline = _time.monotonic() + self.recv_timeout
        with sh.lock:
            seq = sh.collectives.seq_of[self.rank]
            done = sh.collectives.join(self.rank, op)
            if done is not None:
                sh.hand_out(done)
            self.waiting = f"collective(kind={op.kind!r}, seq={seq})"
            try:
                while self.rank not in sh.coll_results:
                    if sh.abort:
                        raise SimulationError("aborting: another rank failed")
                    remaining = deadline - _time.monotonic()
                    if remaining <= 0:
                        raise DeadlockError(
                            f"rank {self.rank} timed out in collective seq "
                            f"{seq} (kind={op.kind!r}); "
                            + sh.blocked_report())
                    sh.coll_cond.wait(remaining)
            finally:
                self.waiting = None
            return sh.coll_results.pop(self.rank)

    def crash(self) -> None:
        """Fail-stop this rank: deliver obituaries and complete the
        collectives that were waiting only on it."""
        sh = self.shared
        obit = Message(self.rank, TAG_OBITUARY, RankObituary(self.rank), 0.0)
        with sh.lock:
            for r in range(sh.p):
                if not (r == self.rank or r in sh.collectives.dead
                        or r in sh.finished):
                    sh.inboxes[r].put(obit)
            for done in sh.collectives.rank_died(self.rank):
                sh.hand_out(done)


class ThreadCluster:
    """Drop-in alternative to :class:`SimulatedCluster` on real threads.

    Keep ``num_ranks`` modest (≤ 32): threads are OS resources.
    """

    def __init__(self, num_ranks: int, seed: Optional[int] = None,
                 recv_timeout: float = 30.0,
                 faults: Optional[FaultPlan] = None):
        if num_ranks < 1:
            raise SimulationError(f"need at least 1 rank, got {num_ranks}")
        self.num_ranks = num_ranks
        self.seed = seed
        self.recv_timeout = recv_timeout
        self.faults = faults

    def run(
        self,
        program: RankProgram,
        args: Any = None,
        per_rank_args: Optional[Sequence[Any]] = None,
    ) -> RunResult:
        if per_rank_args is not None and len(per_rank_args) != self.num_ranks:
            raise SimulationError(
                f"per_rank_args has {len(per_rank_args)} entries for "
                f"{self.num_ranks} ranks"
            )
        streams = spawn_streams(self.seed, self.num_ranks)
        injectors = (build_injectors(self.faults, self.num_ranks)
                     or [None] * self.num_ranks)
        shared = _Shared(self.num_ranks)
        ports = shared.ports
        threads: List[threading.Thread] = []
        start = _time.monotonic()
        for rank in range(self.num_ranks):
            rank_args = per_rank_args[rank] if per_rank_args is not None else args
            ctx = RankContext(rank, self.num_ranks, streams[rank], rank_args)
            port = _ThreadPort(rank, shared, RankTrace(rank),
                               self.recv_timeout)
            ports.append(port)
            threads.append(threading.Thread(
                target=port.main, name=f"rank-{rank}", daemon=True,
                args=(program(ctx), injectors[rank])))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if shared.errors:
            raise shared.errors[0]
        wall = _time.monotonic() - start
        traces = [port.trace for port in ports]
        for port, inj in zip(ports, injectors):
            port.trace.finish_time = wall
            port._pull(0)  # what reached the rank after it stopped
            settle_trace(port.trace, port.mailbox, inj)
        return RunResult(wall, [port.value for port in ports],
                         ClusterTrace(traces))
