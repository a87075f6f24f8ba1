"""Real-processes backend: rank programs on ``multiprocessing``.

The third interpreter for the same op set: every rank is an OS process
with its own memory, and all communication crosses real process
boundaries through pipes — the closest offline stand-in for the
paper's MPI deployment.  Where the threads backend validates the
protocol under preemptive interleaving, this backend validates that
nothing relies on shared memory: payloads, per-rank args, and return
values must all survive pickling, exactly as they must survive MPI
serialisation.

Topology: a star of ``multiprocessing.Pipe`` duplex connections to a
router thread in the parent.  The router forwards point-to-point
messages (preserving per-channel FIFO) and sequences collectives with
the same result semantics as the other backends
(:func:`repro.mpsim.engine._collective_results`).

Fault injection mirrors the other backends: each worker builds its own
:class:`~repro.mpsim.faults.RankFaultInjector` from the (pickled)
:class:`~repro.mpsim.faults.FaultPlan`, so the same plan fires the
same faults here.  A crash is reported to the router with a dedicated
wire command; the router then broadcasts
:class:`~repro.mpsim.faults.RankObituary` messages, completes pending
collectives over the survivors, and drops subsequent messages towards
the dead rank as dead letters.

Failure reporting: a worker that raises ships ``(type name, message,
formatted traceback)`` to the parent, which re-raises a
:class:`~repro.errors.WorkerError` carrying the child's traceback —
the parent-side exception shows where in the rank program the child
failed.  Worker-side receive timeouts are reported as
:class:`~repro.errors.DeadlockError` naming every blocked rank and the
op it was waiting on, matching the other backends' payloads.

Use small rank counts (≤ 8): process startup dominates.  ``Compute``
is a no-op; ``sim_time`` reports wall-clock seconds.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time as _time
import traceback as _traceback
from multiprocessing.connection import wait as _wait
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import DeadlockError, SimulationError, WorkerError
from repro.mpsim.cluster import RunResult
from repro.mpsim.context import RankContext, RankProgram
from repro.mpsim.engine import _collective_results, _collective_results_live
from repro.mpsim.faults import (
    FaultPlan,
    RankFaultInjector,
    RankObituary,
    TAG_OBITUARY,
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
from repro.util.rng import RngStream

__all__ = ["ProcessCluster"]

# router <-> worker wire commands
_MSG = "msg"            # point-to-point payload delivery
_COLL = "coll"          # collective join / result
_DONE = "done"          # worker finished (value attached)
_FAIL = "fail"          # worker raised ((type, message, traceback))
_CRASH = "crash"        # fault plan crashed the worker (trace attached)
_STOP = "stop"          # router tells worker to abort


def _worker_main(rank: int, size: int, program: RankProgram, args: Any,
                 seed_material: Tuple, conn, recv_timeout: float,
                 fault_plan: Optional[FaultPlan]) -> None:
    """Child-process body: interpret the rank program's ops, routing
    all communication through ``conn`` (a Pipe to the router)."""
    rng = RngStream(seed_material)
    ctx = RankContext(rank, size, rng, args)
    inj = (RankFaultInjector(fault_plan, rank)
           if fault_plan is not None else None)
    mailbox: List[Message] = []
    trace: Dict[str, Any] = {"sent": 0, "bytes": 0, "received": 0,
                             "collectives": 0}

    def pump_until(predicate, deadline_op=None):
        """Pump router frames until ``predicate`` holds.

        With ``deadline_op`` (a timed :class:`Recv`), returns False on
        expiry instead of raising; without it, exceeding
        ``recv_timeout`` raises :class:`DeadlockError`.
        """
        guard = _time.monotonic() + recv_timeout
        deadline = (None if deadline_op is None or deadline_op.timeout is None
                    else _time.monotonic() + deadline_op.timeout)
        while not predicate():
            now = _time.monotonic()
            if deadline is not None and now >= deadline:
                return False
            if now >= guard:
                raise DeadlockError(_blocked_desc)
            limit = guard if deadline is None else min(guard, deadline)
            if conn.poll(min(limit - now, 0.2)):
                kind, payload = conn.recv()
                if kind == _MSG:
                    mailbox.append(payload)
                elif kind == _COLL:
                    coll_results.append(payload)
                elif kind == _STOP:
                    raise SimulationError("aborting: another rank failed")
                else:
                    raise SimulationError(f"unexpected router frame {kind}")
        return True

    def drain_pending():
        while conn.poll(0):
            kind, payload = conn.recv()
            if kind == _MSG:
                mailbox.append(payload)
            elif kind == _COLL:
                coll_results.append(payload)
            elif kind == _STOP:
                raise SimulationError("aborting: another rank failed")

    def transmit(op: Send) -> None:
        conn.send((_MSG, (op.dest, Message(rank, op.tag, op.payload, 0.0))))
        trace["sent"] += 1
        trace["bytes"] += op.nbytes

    coll_results: List[Any] = []
    _blocked_desc = ""
    value: Any = None
    try:
        # Inside the try: a program that fails while building its
        # generator is reported like one that fails mid-run.
        gen = program(ctx)
        while True:
            try:
                op = gen.send(value)
            except StopIteration as stop:
                if inj is not None:
                    # held-back messages die with the run, they are
                    # not delivered into exited ranks' mailboxes
                    trace["dead_letters"] = (
                        trace.get("dead_letters", 0) + len(inj.flush()))
                drain_pending()
                trace["undelivered"] = sum(
                    1 for m in mailbox if m.tag != TAG_OBITUARY)
                _finish_trace(trace, inj)
                conn.send((_DONE, (stop.value, trace)))
                return
            value = None
            if inj is not None:
                action = inj.on_op(op)
                if action == "crash":
                    trace["crashed"] = True
                    trace["dead_letters"] = len(mailbox)
                    trace["undelivered"] = 0
                    _finish_trace(trace, inj)
                    conn.send((_CRASH, trace))
                    return
                if action == "stall":
                    _time.sleep(fault_plan.stall_cost)
            kind = type(op)
            if kind is Compute:
                continue
            if kind is Send:
                if inj is not None:
                    for real in inj.on_send(op):
                        transmit(real)
                else:
                    transmit(op)
            elif kind is Recv:
                def match():
                    return any(m.matches(op.source, op.tag) for m in mailbox)
                _blocked_desc = f"recv(source={op.source}, tag={op.tag})"
                drain_pending()
                if not pump_until(match, deadline_op=op):
                    value = None  # timed receive expired
                    continue
                for idx, m in enumerate(mailbox):
                    if m.matches(op.source, op.tag):
                        value = mailbox.pop(idx)
                        trace["received"] += 1
                        break
            elif kind is Probe:
                drain_pending()
                value = any(m.matches(op.source, op.tag) for m in mailbox)
            elif kind is Collective:
                conn.send((_COLL, op))
                trace["collectives"] += 1
                _blocked_desc = f"collective(kind={op.kind!r})"
                drain_pending()
                pump_until(lambda: coll_results)
                value = coll_results.pop(0)
            else:
                raise SimulationError(f"rank {rank}: unknown op {op!r}")
    except BaseException as exc:
        try:
            conn.send((_FAIL, (type(exc).__name__, str(exc),
                               _traceback.format_exc())))
        except Exception:
            pass


def _finish_trace(trace: Dict[str, Any],
                  inj: Optional[RankFaultInjector]) -> None:
    if inj is not None:
        trace["faults"] = len(inj.events)
        trace["fault_events"] = list(inj.events)


class _Router(threading.Thread):
    """Parent-side router: forwards messages, sequences collectives,
    and handles fault-plan crashes (obituaries, survivor collectives,
    dead-letter drops)."""

    def __init__(self, conns, p: int, recv_timeout: float):
        super().__init__(name="mpsim-router", daemon=True)
        self.conns = conns
        self.rank_of = {conn: rank for rank, conn in enumerate(conns)}
        self.p = p
        self.recv_timeout = recv_timeout
        self.done: Dict[int, Any] = {}
        self.traces: Dict[int, Dict] = {}
        #: ("deadlock", {rank: op desc}, unfinished ranks) or
        #: ("fail", rank, type name, message, traceback) or
        #: ("error", message)
        self.failure: Optional[Tuple] = None
        self.coll_slots: Dict[int, Dict[int, Collective]] = {}
        self.coll_seq_of = [0] * p
        self.dead: Set[int] = set()
        self.dead_letters: Dict[int, int] = {}

    def run(self) -> None:
        live = set(range(self.p))
        while live:
            conns = [self.conns[r] for r in sorted(live)]
            # Non-blocking sweep first (cheap when traffic is dense);
            # block on all live pipes at once only when none is ready.
            ready = [c for c in conns if c.poll(0)] or _wait(conns)
            for conn in ready:
                rank = self.rank_of[conn]
                # Drain in arrival order: per-pair FIFO holds.
                while rank in live and conn.poll(0):
                    if not self._route(rank, conn, live):
                        return

    def _route(self, rank: int, conn, live) -> bool:
        """Handle one frame from ``rank``; False once the run failed
        (the workers have been told to stop)."""
        try:
            kind, payload = conn.recv()
        except EOFError:
            live.discard(rank)
            return True
        if kind == _MSG:
            dest, msg = payload
            if not 0 <= dest < self.p:
                self.failure = ("error",
                                f"rank {rank} sent to invalid {dest}")
                self._abort(live)
                return False
            if dest in self.dead:
                self.dead_letters[rank] = self.dead_letters.get(rank, 0) + 1
            else:
                self.conns[dest].send((_MSG, msg))
        elif kind == _COLL:
            self._join(rank, payload, live)
            if self.failure:
                self._abort(live)
                return False
        elif kind == _DONE:
            value, trace = payload
            self.done[rank] = value
            self.traces[rank] = trace
            live.discard(rank)
        elif kind == _CRASH:
            self.traces[rank] = payload
            live.discard(rank)
            self._rank_died(rank, live)
        elif kind == _FAIL:
            tname, msg, tb = payload
            if tname == "DeadlockError":
                self._collect_deadlock(rank, msg, live)
            else:
                self.failure = ("fail", rank, tname, msg, tb)
            self._abort(live)
            return False
        return True

    # -- faults ---------------------------------------------------------

    def _rank_died(self, rank: int, live) -> None:
        """Fault-plan crash: obituaries to survivors, complete pending
        collectives over the new live set."""
        self.dead.add(rank)
        obit = Message(rank, TAG_OBITUARY, RankObituary(rank), 0.0)
        for r in sorted(live):
            self.conns[r].send((_MSG, obit))
        for seq, slot in sorted(list(self.coll_slots.items())):
            if slot and len(slot) >= self.p - len(self.dead):
                self._finish_slot(seq, slot)
                if self.failure:
                    return

    def _collect_deadlock(self, rank: int, desc: str, live) -> None:
        """One worker timed out.  Its peers (blocked since roughly the
        same time) will time out too — give them a short grace window
        to report, then name every blocked rank in one payload."""
        reports = {rank: desc}
        live.discard(rank)
        grace = _time.monotonic() + min(2.0, self.recv_timeout)
        while live:
            ready = _wait([self.conns[r] for r in sorted(live)],
                          max(0.0, grace - _time.monotonic()))
            if not ready:
                break  # grace window closed
            for conn in ready:
                r = self.rank_of[conn]
                try:
                    kind, payload = conn.recv()
                except EOFError:
                    live.discard(r)
                    continue
                if kind == _FAIL and payload[0] == "DeadlockError":
                    reports[r] = payload[1]
                    live.discard(r)
                elif kind == _DONE:
                    value, trace = payload
                    self.done[r] = value
                    self.traces[r] = trace
                    live.discard(r)
                # _MSG/_COLL frames can no longer make progress; drop.
        lines = [f"rank {r} waiting for {what}"
                 for r, what in sorted(reports.items())]
        for r in sorted(live):
            lines.append(f"rank {r} blocked (no report before abort)")
        self.failure = ("deadlock",
                        "deadlock: blocked ranks:\n  " + "\n  ".join(lines))

    def _join(self, rank: int, op: Collective, live) -> None:
        seq = self.coll_seq_of[rank]
        self.coll_seq_of[rank] += 1
        slot = self.coll_slots.setdefault(seq, {})
        if slot:
            first = next(iter(slot.values()))
            if first.kind != op.kind or first.root != op.root:
                self.failure = (
                    "error",
                    f"collective mismatch at seq {seq}: {op.kind!r} vs "
                    f"{first.kind!r}")
                return
        slot[rank] = op
        if len(slot) == self.p - len(self.dead):
            self._finish_slot(seq, slot)

    def _finish_slot(self, seq: int, slot: Dict[int, Collective]) -> None:
        any_op = next(iter(slot.values()))
        try:
            values = [slot[r].value if r in slot else None
                      for r in range(self.p)]
            if self.dead:
                results = _collective_results_live(
                    any_op.kind, any_op.root, any_op.op, values, self.p,
                    self.dead)
            else:
                results = _collective_results(
                    any_op.kind, any_op.root, any_op.op, values, self.p)
        except SimulationError as exc:
            self.failure = ("error", str(exc))
            return
        del self.coll_slots[seq]
        for r in slot:
            self.conns[r].send((_COLL, results[r]))

    def _abort(self, live) -> None:
        for rank in live:
            try:
                self.conns[rank].send((_STOP, None))
            except Exception:
                pass


class ProcessCluster:
    """Drop-in alternative backend on real OS processes.

    Restrictions relative to the in-process backends: ``program``,
    per-rank args, payloads and return values must be picklable, and
    ``program`` must be importable (defined at module top level).

    ``recv_timeout`` bounds every blocking wait inside the workers (the
    analogue of :class:`ThreadCluster`'s parameter of the same name);
    ``join_timeout`` bounds the whole run from the parent's side.
    """

    def __init__(self, num_ranks: int, seed: Optional[int] = None,
                 join_timeout: float = 120.0, recv_timeout: float = 60.0,
                 faults: Optional[FaultPlan] = None):
        if num_ranks < 1:
            raise SimulationError(f"need at least 1 rank, got {num_ranks}")
        self.num_ranks = num_ranks
        self.seed = seed
        self.join_timeout = join_timeout
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
                f"{self.num_ranks} ranks")
        import numpy as np

        base = np.random.SeedSequence(self.seed)
        # spawned children differ by spawn_key, which does not survive a
        # plain entropy round-trip — ship generated state words instead,
        # which are picklable and fully determine independent streams
        seed_words = [
            tuple(int(w) for w in child.generate_state(4))
            for child in base.spawn(self.num_ranks)
        ]

        ctx_conns = []
        workers = []
        start = _time.monotonic()
        mp_ctx = mp.get_context("fork") if hasattr(mp, "get_context") else mp
        for rank in range(self.num_ranks):
            parent_end, child_end = mp_ctx.Pipe()
            ctx_conns.append(parent_end)
            rank_args = per_rank_args[rank] if per_rank_args is not None else args
            proc = mp_ctx.Process(
                target=_worker_main,
                args=(rank, self.num_ranks, program, rank_args,
                      seed_words[rank], child_end, self.recv_timeout,
                      self.faults),
                daemon=True,
            )
            workers.append(proc)
        router = _Router(ctx_conns, self.num_ranks, self.recv_timeout)
        for proc in workers:
            proc.start()
        router.start()
        router.join(self.join_timeout)
        alive = router.is_alive()
        for proc in workers:
            proc.join(0.5 if not alive else 0.0)
            if proc.is_alive():
                proc.terminate()
        if alive:
            unfinished = sorted(set(range(self.num_ranks))
                                - set(router.done) - router.dead)
            raise DeadlockError(
                "process cluster did not finish within the join timeout; "
                f"unfinished ranks: {unfinished}")
        if router.failure:
            self._raise_failure(router.failure)
        wall = _time.monotonic() - start

        traces = []
        for rank in range(self.num_ranks):
            t = RankTrace(rank)
            counters = router.traces.get(rank, {})
            routed_dead = router.dead_letters.get(rank, 0)
            t.messages_sent = max(0, counters.get("sent", 0) - routed_dead)
            t.bytes_sent = counters.get("bytes", 0)
            t.messages_received = counters.get("received", 0)
            t.collectives = counters.get("collectives", 0)
            t.undelivered = counters.get("undelivered", 0)
            t.crashed = counters.get("crashed", False)
            t.dead_letters = counters.get("dead_letters", 0) + routed_dead
            t.faults_injected = counters.get("faults", 0)
            t.fault_events = counters.get("fault_events", [])
            t.finish_time = wall
            traces.append(t)
        values = [router.done.get(r) for r in range(self.num_ranks)]
        return RunResult(wall, values, ClusterTrace(traces))

    @staticmethod
    def _raise_failure(failure: Tuple) -> None:
        if failure[0] == "deadlock":
            raise DeadlockError(failure[1])
        if failure[0] == "fail":
            _, rank, tname, msg, tb = failure
            raise WorkerError(f"rank {rank}: {tname}: {msg}", rank=rank,
                              exc_type=tname, remote_traceback=tb)
        raise SimulationError(failure[1])
