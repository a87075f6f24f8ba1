"""Real-threads backend: the same rank programs, real concurrency.

Purpose: the discrete-event backend is deterministic, which is good for
experiments but means a protocol bug that only shows under unusual
interleavings could hide.  This backend runs each rank program on an OS
thread with shared mailboxes, so the GIL's preemption supplies genuine
nondeterminism.  The test suite runs the full switching protocol here
and re-checks every invariant.

Timing is not modelled: :class:`Compute` only adds to the rank's
``compute_time``, and ``RunResult.sim_time`` is wall-clock seconds.
Every 64th send, receive or probe calls ``time.sleep(0)`` to encourage
preemption.

Each thread runs the op loop shared with the process backend
(:func:`repro.mpsim.interpreter.run_ops`), with the fault-injection
hooks, so a :class:`~repro.mpsim.faults.FaultPlan` produces the same
faults here as under simulation.  This module supplies the rank's
port: mailboxes and a condition variable per rank under one lock.  A
crashed rank thread stops interpreting, delivers a
:class:`~repro.mpsim.faults.RankObituary` to every still-running rank,
and completes any collective that was waiting only on it.
"""

from __future__ import annotations

import threading
import time as _time
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
    run_ops,
    settle_trace,
)
from repro.mpsim.ops import Collective, Message, Probe, Recv, Send
from repro.mpsim.trace import ClusterTrace, RankTrace
from repro.util.rng import spawn_streams

__all__ = ["ThreadCluster"]


class _Shared:
    """State shared by all rank threads."""

    def __init__(self, p: int):
        self.p = p
        self.lock = threading.Lock()
        self.conds = [threading.Condition(self.lock) for _ in range(p)]
        self.mailboxes: List[List[Message]] = [[] for _ in range(p)]
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
        #: Blocked-rank registry: rank -> human description of the op it
        #: waits on.  Read (under the lock) to build DeadlockError
        #: payloads naming every blocked rank, like the engine does.
        self.waiting: Dict[int, str] = {}

    def blocked_report(self) -> str:
        """Every currently blocked rank and what it waits on (call with
        the lock held)."""
        if not self.waiting:
            return "no other rank is blocked"
        lines = [f"rank {r} waiting for {what}"
                 for r, what in sorted(self.waiting.items())]
        return "blocked ranks:\n  " + "\n  ".join(lines)

    def hand_out(self, done: CompletedCollective) -> None:
        """Give a completed collective's members their results (lock
        held)."""
        self.coll_results.update(done.results)
        self.coll_cond.notify_all()


class _ThreadPort:
    """One rank thread's half of :func:`run_ops`: sends append to the
    destination's mailbox under the shared lock, and a blocked rank
    waits on a condition variable."""

    def __init__(self, rank: int, shared: _Shared, trace: RankTrace,
                 recv_timeout: float):
        self.rank = rank
        self.shared = shared
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
                for cond in sh.conds:
                    cond.notify_all()
                sh.coll_cond.notify_all()

    def _nudge(self) -> None:
        """Yield the processor every 64 non-waiting ops, to encourage
        preemption and so varied interleavings."""
        self._nudges += 1
        if self._nudges % 64 == 0:
            _time.sleep(0)

    def send(self, op: Send) -> None:
        self._nudge()
        sh = self.shared
        if not 0 <= op.dest < sh.p:
            raise SimulationError(
                f"rank {self.rank} sent to invalid rank {op.dest}")
        msg = Message(self.rank, op.tag, op.payload, 0.0)
        with sh.lock:
            if op.dest in sh.collectives.dead:
                self.trace.dead_letters += 1
                return
            sh.mailboxes[op.dest].append(msg)
            sh.conds[op.dest].notify_all()
        self.trace.record_send(op.nbytes)

    def recv(self, op: Recv) -> Optional[Message]:
        self._nudge()
        sh = self.shared
        now = _time.monotonic()
        guard = now + self.recv_timeout
        deadline = None if op.timeout is None else now + op.timeout
        with sh.lock:
            sh.waiting[self.rank] = (
                f"recv(source={op.source}, tag={op.tag})")
            try:
                while True:
                    if sh.abort:
                        raise SimulationError("aborting: another rank failed")
                    box = sh.mailboxes[self.rank]
                    for idx, msg in enumerate(box):
                        if msg.matches(op.source, op.tag):
                            return box.pop(idx)
                    now = _time.monotonic()
                    if deadline is not None and now >= deadline:
                        return None  # timed receive expired
                    if now >= guard:
                        raise DeadlockError(
                            f"rank {self.rank} timed out waiting for "
                            f"(source={op.source}, tag={op.tag}); "
                            + sh.blocked_report())
                    limit = guard if deadline is None else min(guard, deadline)
                    sh.conds[self.rank].wait(
                        timeout=min(limit - now, 0.1))
            finally:
                sh.waiting.pop(self.rank, None)

    def probe(self, op: Probe) -> bool:
        self._nudge()
        sh = self.shared
        with sh.lock:
            return any(m.matches(op.source, op.tag)
                       for m in sh.mailboxes[self.rank])

    def collective(self, op: Collective) -> Any:
        sh = self.shared
        deadline = _time.monotonic() + self.recv_timeout
        with sh.lock:
            seq = sh.collectives.seq_of[self.rank]
            done = sh.collectives.join(self.rank, op)
            if done is not None:
                sh.hand_out(done)
            sh.waiting[self.rank] = f"collective(kind={op.kind!r}, seq={seq})"
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
                    sh.coll_cond.wait(timeout=min(remaining, 0.1))
            finally:
                sh.waiting.pop(self.rank, None)
            return sh.coll_results.pop(self.rank)

    def crash(self) -> None:
        """Fail-stop this rank: deliver obituaries and complete the
        collectives that were waiting only on it."""
        sh = self.shared
        obit = RankObituary(self.rank)
        with sh.lock:
            for r in range(sh.p):
                if (r == self.rank or r in sh.collectives.dead
                        or r in sh.finished):
                    continue
                sh.mailboxes[r].append(
                    Message(self.rank, TAG_OBITUARY, obit, 0.0))
                sh.conds[r].notify_all()
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
        ports: List[_ThreadPort] = []
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
        for rank, tr in enumerate(traces):
            tr.finish_time = wall
            settle_trace(tr, shared.mailboxes[rank], injectors[rank])
        return RunResult(wall, [port.value for port in ports],
                         ClusterTrace(traces))
