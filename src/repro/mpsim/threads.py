"""Real-threads backend: the same rank programs, real concurrency.

Purpose: the discrete-event backend is deterministic, which is good for
experiments but means a protocol bug that only shows under unusual
interleavings could hide.  This backend runs each rank program on an OS
thread with shared mailboxes, so the GIL's preemption supplies genuine
nondeterminism.  The test suite runs the full switching protocol here
and re-checks every invariant.

Timing is not modelled: :class:`Compute` is a scheduling hint only (it
calls ``time.sleep(0)`` occasionally to encourage interleaving), and
``RunResult.sim_time`` is wall-clock seconds.

Fault injection: a :class:`~repro.mpsim.faults.FaultPlan` attaches one
:class:`~repro.mpsim.faults.RankFaultInjector` per rank thread, hooked
into the same op-dispatch points as the discrete-event engine — faults
key on logical counters (op count, send sequence), so a plan produces
the same faults here as under simulation.  A crashed rank thread simply
stops interpreting: it marks itself dead, delivers a
:class:`~repro.mpsim.faults.RankObituary` to every still-running rank,
and completes any collective that was waiting only on it.
"""

from __future__ import annotations

import threading
import time as _time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import DeadlockError, SimulationError
from repro.mpsim.cluster import RunResult
from repro.mpsim.context import RankContext, RankProgram
from repro.mpsim.engine import _collective_results, _collective_results_live
from repro.mpsim.faults import (
    FaultPlan,
    RankFaultInjector,
    RankObituary,
    TAG_OBITUARY,
    build_injectors,
)
from repro.mpsim.ops import (
    Collective,
    Compute,
    Message,
    Probe,
    Recv,
    Send,
)
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
        # collectives: seq -> {rank: op}; results: seq -> per-rank list
        self.coll_pending: Dict[int, Dict[int, Collective]] = {}
        self.coll_results: Dict[int, List[Any]] = {}
        self.coll_consumed: Dict[int, int] = {}
        self.coll_cond = threading.Condition(self.lock)
        self.errors: List[BaseException] = []
        self.abort = False
        #: Ranks a fault plan crashed (fail-stop).
        self.dead: Set[int] = set()
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


class _RankThread(threading.Thread):
    def __init__(self, rank: int, gen, shared: _Shared, trace: RankTrace,
                 recv_timeout: float,
                 injector: Optional[RankFaultInjector] = None):
        super().__init__(name=f"rank-{rank}", daemon=True)
        self.rank = rank
        self.gen = gen
        self.shared = shared
        self.trace = trace
        self.recv_timeout = recv_timeout
        self.injector = injector
        self.coll_seq = 0
        self.value: Any = None
        self._op_count = 0

    # -- thread body ------------------------------------------------------

    def run(self) -> None:  # pragma: no cover - exercised via ThreadCluster
        try:
            self._interpret()
            with self.shared.lock:
                self.shared.finished.add(self.rank)
        except BaseException as exc:  # propagate to the driver
            with self.shared.lock:
                self.shared.errors.append(exc)
                self.shared.abort = True
                for cond in self.shared.conds:
                    cond.notify_all()
                self.shared.coll_cond.notify_all()

    def _interpret(self) -> None:
        inj = self.injector
        value: Any = None
        while True:
            try:
                op = self.gen.send(value)
            except StopIteration as stop:
                if inj is not None:
                    # held-back messages die with the run, they are
                    # not delivered into exited ranks' mailboxes
                    self.trace.dead_letters += len(inj.flush())
                self.value = stop.value
                return
            value = None
            self._op_count += 1
            if self._op_count % 64 == 0:
                _time.sleep(0)  # encourage preemption / interleaving
            if inj is not None:
                action = inj.on_op(op)
                if action == "crash":
                    self._crash()
                    return
                if action == "stall":
                    _time.sleep(inj.plan.stall_cost)
            kind = type(op)
            if kind is Compute:
                self.trace.record_compute(op.cost)
            elif kind is Send:
                if inj is not None:
                    for real in inj.on_send(op):
                        self._send(real)
                else:
                    self._send(op)
            elif kind is Recv:
                value = self._recv(op)
            elif kind is Probe:
                value = self._probe(op)
            elif kind is Collective:
                value = self._collective(op)
            else:
                raise SimulationError(
                    f"rank {self.rank} yielded unknown op {op!r}"
                )

    # -- op handlers ----------------------------------------------------------

    def _send(self, op: Send) -> None:
        sh = self.shared
        if not 0 <= op.dest < sh.p:
            raise SimulationError(f"rank {self.rank} sent to invalid rank {op.dest}")
        msg = Message(self.rank, op.tag, op.payload, 0.0)
        with sh.lock:
            if op.dest in sh.dead:
                self.trace.dead_letters += 1
                return
            sh.mailboxes[op.dest].append(msg)
            sh.conds[op.dest].notify_all()
        self.trace.record_send(op.nbytes)

    def _recv(self, op: Recv) -> Optional[Message]:
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
                            box.pop(idx)
                            self.trace.record_recv()
                            return msg
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

    def _probe(self, op: Probe) -> bool:
        sh = self.shared
        with sh.lock:
            return any(m.matches(op.source, op.tag) for m in sh.mailboxes[self.rank])

    def _collective(self, op: Collective) -> Any:
        sh = self.shared
        seq = self.coll_seq
        self.coll_seq += 1
        deadline = _time.monotonic() + self.recv_timeout
        with sh.lock:
            slot = sh.coll_pending.setdefault(seq, {})
            if slot:
                first = next(iter(slot.values()))
                if first.kind != op.kind or first.root != op.root:
                    sh.abort = True
                    sh.coll_cond.notify_all()
                    raise SimulationError(
                        f"collective mismatch at seq {seq}: {op.kind!r} vs "
                        f"{first.kind!r}"
                    )
            slot[self.rank] = op
            self.trace.record_collective()
            if len(slot) == sh.p - len(sh.dead):
                _finish_slot(sh, seq, slot)
            sh.waiting[self.rank] = f"collective(kind={op.kind!r}, seq={seq})"
            try:
                while seq not in sh.coll_results:
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
            result = sh.coll_results[seq][self.rank]
            sh.coll_consumed[seq] += 1
            if sh.coll_consumed[seq] >= sh.p - len(sh.dead):
                del sh.coll_results[seq]
                del sh.coll_consumed[seq]
            return result

    # -- faults ----------------------------------------------------------

    def _crash(self) -> None:
        """Fail-stop this rank: mark dead, deliver obituaries, complete
        collectives that were waiting only on us."""
        sh = self.shared
        self.trace.crashed = True
        obit = RankObituary(self.rank)
        with sh.lock:
            sh.dead.add(self.rank)
            for r in range(sh.p):
                if r == self.rank or r in sh.dead or r in sh.finished:
                    continue
                sh.mailboxes[r].append(
                    Message(self.rank, TAG_OBITUARY, obit, 0.0))
                sh.conds[r].notify_all()
            for seq, slot in sorted(list(sh.coll_pending.items())):
                if slot and len(slot) >= sh.p - len(sh.dead):
                    _finish_slot(sh, seq, slot)
            sh.coll_cond.notify_all()


def _finish_slot(sh: _Shared, seq: int,
                 slot: Dict[int, Collective]) -> None:
    """Compute a completed collective's results (lock held)."""
    any_op = next(iter(slot.values()))
    values = [slot[r].value if r in slot else None for r in range(sh.p)]
    if sh.dead:
        sh.coll_results[seq] = _collective_results_live(
            any_op.kind, any_op.root, any_op.op, values, sh.p, sh.dead)
    else:
        sh.coll_results[seq] = _collective_results(
            any_op.kind, any_op.root, any_op.op, values, sh.p)
    sh.coll_consumed[seq] = 0
    del sh.coll_pending[seq]
    sh.coll_cond.notify_all()


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
        injectors = build_injectors(self.faults, self.num_ranks)
        shared = _Shared(self.num_ranks)
        threads: List[_RankThread] = []
        start = _time.monotonic()
        for rank in range(self.num_ranks):
            rank_args = per_rank_args[rank] if per_rank_args is not None else args
            ctx = RankContext(rank, self.num_ranks, streams[rank], rank_args)
            trace = RankTrace(rank)
            threads.append(
                _RankThread(rank, program(ctx), shared, trace,
                            self.recv_timeout,
                            injectors[rank] if injectors else None)
            )
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if shared.errors:
            raise shared.errors[0]
        wall = _time.monotonic() - start
        traces = [t.trace for t in threads]
        for tr in traces:
            tr.finish_time = wall
            box = shared.mailboxes[tr.rank]
            if tr.crashed:
                tr.dead_letters += len(box)
                tr.undelivered = 0
            else:
                tr.undelivered = sum(
                    1 for m in box if m.tag != TAG_OBITUARY)
        if injectors is not None:
            for tr, inj in zip(traces, injectors):
                tr.faults_injected = len(inj.events)
                tr.fault_events = list(inj.events)
        return RunResult(wall, [t.value for t in threads], ClusterTrace(traces))
