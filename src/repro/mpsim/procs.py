"""Real-processes backend: rank programs on ``multiprocessing``.

The third interpreter for the same op set: every rank is an OS process
with its own memory, and all communication crosses real process
boundaries through pipes — the closest offline stand-in for the
paper's MPI deployment.  Where the threads backend validates the
protocol under preemptive interleaving, this backend validates that
nothing relies on shared memory: payloads, per-rank args, and return
values must all survive pickling, exactly as they must survive MPI
serialisation.

Topology: a full mesh of ``multiprocessing.Pipe`` duplex connections,
one per unordered pair of ranks, so a point-to-point message goes from
sender to receiver in one pipe transfer (per-pair FIFO is the pipe's
order; the receiver takes the source from the pipe a frame came in
on).  Each worker also has a control pipe to a router thread in the
parent, which never sees point-to-point traffic: it sequences
collectives in the :class:`~repro.mpsim.interpreter.CollectiveTable`
the other backends use, collects results and failures, and ends the
run.  A worker runs the op loop and the receive shared with the
threads backend (:func:`~repro.mpsim.interpreter.run_ops`,
:class:`~repro.mpsim.interpreter.MailboxPort`): it matches in a
private mailbox, sweeps its pipes, and waits on all of them at once in
one ``poll`` selector.  It ships its
:class:`~repro.mpsim.trace.RankTrace` to the parent when it ends.

Fault injection mirrors the other backends: each worker builds its own
:class:`~repro.mpsim.faults.RankFaultInjector` from the (pickled)
:class:`~repro.mpsim.faults.FaultPlan`, so the same plan fires the
same faults here.  A crashing worker writes a
:class:`~repro.mpsim.faults.RankObituary` down each of its peer pipes,
behind its last message, and then reports the crash to the router,
which completes pending collectives over the survivors.  A rank that
has read an obituary counts its later sends to the dead rank as its
own dead letters; a send already on its way is read by the dead
worker, which stays up as a sink until the run ends, and charged to
its sender the same way.

Failure reporting: a worker that raises ships ``(type name, message,
formatted traceback)`` to the parent, which re-raises a
:class:`~repro.errors.WorkerError` carrying the child's traceback —
the parent-side exception shows where in the rank program the child
failed.  A worker that dies without a report (a signal, ``os._exit``)
closes its control pipe; the parent then stops the others and raises
a :class:`~repro.errors.WorkerError` naming the rank and its exit
code.  Worker-side receive timeouts are reported as
:class:`~repro.errors.DeadlockError` naming every blocked rank and the
op it was waiting on, matching the other backends' payloads.

Limit: ``Connection.send`` blocks while the pipe's buffer is full
(about 80 KiB each way on Linux).  Protocol frames are under 1 KiB, so
two ranks writing to each other without reading can deadlock only with
that much in flight on one pair.  Results and final edge lists travel
on the control pipes, which the router thread keeps reading.

Use small rank counts (≤ 8): process startup dominates, and the mesh
holds p(p+1) socket ends in all — p in each worker and p in the
parent, 72 at p = 8.  ``Compute`` only adds to the rank's
``compute_time``; ``sim_time`` reports wall-clock seconds.
"""

from __future__ import annotations

import multiprocessing as mp
import selectors
import threading
import time as _time
import traceback as _traceback
from multiprocessing.connection import wait as _wait
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import DeadlockError, SimulationError, WorkerError
from repro.mpsim.cluster import RunResult
from repro.mpsim.context import RankContext, RankProgram
from repro.mpsim.faults import (
    FaultPlan,
    RankFaultInjector,
    RankObituary,
    TAG_OBITUARY,
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
from repro.util.rng import RngStream

__all__ = ["ProcessCluster"]

# router <-> worker commands on the control pipes
_COLL = "coll"          # collective join / result
_DONE = "done"          # worker finished (value, trace)
_FAIL = "fail"          # worker raised ((type, message, traceback))
_CRASH = "crash"        # fault plan crashed the worker (trace attached)
_STOP = "stop"          # router ends the run, or aborts it
_LATE = "late"          # sink's arrivals after _DONE/_CRASH, per source

#: Selector key data of a worker's control pipe (peer pipes carry the
#: peer's rank).
_CONTROL = -1


class _WorkerPort(MailboxPort):
    """A worker's half of :func:`run_ops`: a pipe per peer and a
    control pipe to the router, all waited on in one poll selector.

    ``links`` maps each peer rank to this worker's end of their pipe;
    ``ctl`` is the control pipe to the router.
    """

    def __init__(self, rank: int, ctl, links: Dict[int, Any],
                 recv_timeout: float, trace: RankTrace):
        self.rank = rank
        self.ctl = ctl
        self.links = links
        self.recv_timeout = recv_timeout
        self.trace = trace
        self.sel = selectors.PollSelector()
        self.sel.register(ctl, selectors.EVENT_READ, _CONTROL)
        for src, conn in links.items():
            self.sel.register(conn, selectors.EVENT_READ, src)
        self.mailbox: List[Message] = []
        self.coll_results: List[Any] = []
        #: peers known dead: obituary read, or pipe closed
        self.dead: Set[int] = set()

    def _pull(self, timeout: float) -> bool:
        """Read every ready pipe until none is; wait up to ``timeout``
        seconds for one if none is ready at first."""
        ready = self.sel.select(timeout)
        if not ready:
            return False
        while ready:
            for key, _ in ready:
                src = key.data
                try:
                    frame = key.fileobj.recv()
                except (EOFError, OSError):
                    if src == _CONTROL:
                        raise SimulationError("aborting: router is gone")
                    # the peer died without a report; the router fails
                    # the run, and sends to it are dead letters until then
                    self.sel.unregister(key.fileobj)
                    self.dead.add(src)
                    continue
                if src == _CONTROL:
                    if frame[0] == _STOP:
                        raise SimulationError(
                            "aborting: another rank failed")
                    self.coll_results.append(frame[1])
                else:
                    tag = frame[0]
                    if tag == TAG_OBITUARY:
                        self.dead.add(src)
                    self.mailbox.append(Message(src, tag, frame[1], 0.0))
            ready = self.sel.select(0)
        return True

    def _stuck(self) -> DeadlockError:
        return DeadlockError(self.waiting)

    def collective(self, op: Collective) -> Any:
        self.ctl.send((_COLL, op))
        guard = _time.monotonic() + self.recv_timeout
        while not self.coll_results:
            remaining = guard - _time.monotonic()
            if remaining <= 0:
                raise DeadlockError(f"collective(kind={op.kind!r})")
            self._pull(remaining)
        return self.coll_results.pop(0)

    def send(self, op: Send) -> None:
        dest = op.dest
        trace = self.trace
        conn = self.links.get(dest)
        if conn is None:
            if dest != self.rank:
                raise SimulationError(
                    f"rank {self.rank} sent to invalid rank {dest}")
            self.mailbox.append(Message(self.rank, op.tag, op.payload, 0.0))
        elif dest in self.dead:
            trace.dead_letters += 1
            return
        else:
            try:
                conn.send((op.tag, op.payload))
            except OSError:
                # the peer's process is gone (see _pull)
                self.dead.add(dest)
                trace.dead_letters += 1
                return
        trace.messages_sent += 1
        trace.bytes_sent += op.nbytes

    def crash(self) -> None:
        """Write an obituary down every live peer's pipe, behind this
        rank's last message to it."""
        obituary = (TAG_OBITUARY, RankObituary(self.rank))
        for dest, conn in self.links.items():
            if dest not in self.dead:
                try:
                    conn.send(obituary)
                except OSError:
                    pass  # that peer's process is gone

    def linger(self) -> None:
        """After the rank has reported: read and count what still
        arrives, per source, until the router ends the run."""
        late: Dict[int, int] = {}
        stopping = False
        while True:
            ready = self.sel.select(0 if stopping else None)
            if stopping and not ready:
                self.ctl.send((_LATE, late))
                return
            for key, _ in ready:
                src = key.data
                try:
                    frame = key.fileobj.recv()
                except (EOFError, OSError):
                    if src == _CONTROL:
                        return
                    self.sel.unregister(key.fileobj)
                    continue
                if src == _CONTROL:
                    # _STOP: every peer wrote its last frame before it
                    # reported, so one final sweep finds the rest
                    stopping = True
                elif frame[0] != TAG_OBITUARY:
                    late[src] = late.get(src, 0) + 1


def _worker_main(rank: int, size: int, program: RankProgram, args: Any,
                 seed_material: Tuple, ctl, links: Dict[int, Any],
                 foreign: List, recv_timeout: float,
                 fault_plan: Optional[FaultPlan]) -> None:
    """Child-process body: interpret the rank program's ops, report the
    value and :class:`RankTrace`, then stay up as a sink.

    ``foreign`` holds the inherited pipe ends of other processes,
    closed here so that a dead process's pipes reach EOF.
    """
    for conn in foreign:
        conn.close()
    ctx = RankContext(rank, size, RngStream(seed_material), args)
    inj = (RankFaultInjector(fault_plan, rank)
           if fault_plan is not None else None)
    trace = RankTrace(rank)
    port = _WorkerPort(rank, ctl, links, recv_timeout, trace)
    try:
        # Inside the try: a program that fails while building its
        # generator is reported like one that fails mid-run.
        value = run_ops(program(ctx), rank, port, trace, inj)
        settle_trace(trace, port.mailbox, inj)
        ctl.send((_CRASH, trace) if trace.crashed
                 else (_DONE, (value, trace)))
        port.linger()
    except BaseException as exc:
        try:
            ctl.send((_FAIL, (type(exc).__name__, str(exc),
                              _traceback.format_exc())))
        except Exception:
            pass


class _Router(threading.Thread):
    """Parent-side router on the control pipes: sequences collectives,
    records results, crashes and failures, and ends the run.  It never
    sees point-to-point traffic."""

    def __init__(self, conns, p: int, recv_timeout: float):
        super().__init__(name="mpsim-router", daemon=True)
        self.conns = conns
        self.rank_of = {conn: rank for rank, conn in enumerate(conns)}
        self.p = p
        self.recv_timeout = recv_timeout
        self.done: Dict[int, Any] = {}
        self.traces: Dict[int, RankTrace] = {}
        #: ("deadlock", message) or ("lost", rank) or
        #: ("fail", rank, type name, message, traceback) or
        #: ("error", message)
        self.failure: Optional[Tuple] = None
        self.collectives = CollectiveTable(p)
        #: rank -> {source: frames read after the rank reported}
        self.late: Dict[int, Dict[int, int]] = {}

    def run(self) -> None:
        live = set(range(self.p))
        while live:
            for conn in _wait([self.conns[r] for r in sorted(live)]):
                rank = self.rank_of[conn]
                if rank in live and not self._route(rank, conn, live):
                    return
        self._end_run()

    def _route(self, rank: int, conn, live) -> bool:
        """Handle one frame from ``rank``; False once the run failed
        (the workers have been told to stop)."""
        try:
            kind, payload = conn.recv()
        except (EOFError, OSError):
            # the worker's process ended without a report
            live.discard(rank)
            self.failure = ("lost", rank)
            self._abort()
            return False
        if kind == _FAIL:
            tname, msg, tb = payload
            if tname == "DeadlockError":
                self._collect_deadlock(rank, msg, live)
            else:
                self.failure = ("fail", rank, tname, msg, tb)
            self._abort()
            return False
        try:
            if kind == _COLL:
                self._hand_out(self.collectives.join(rank, payload))
            elif kind == _DONE:
                value, trace = payload
                self.done[rank] = value
                self.traces[rank] = trace
                live.discard(rank)
            elif kind == _CRASH:
                self.traces[rank] = payload
                live.discard(rank)
                self._hand_out(*self.collectives.rank_died(rank))
        except SimulationError as exc:  # the collectives do not match
            self.failure = ("error", str(exc))
            self._abort()
            return False
        return True

    def _end_run(self) -> None:
        """Every rank has reported: stop the workers (now sinks) and
        collect what reached each one late."""
        waiting = set(range(self.p))
        self._abort()
        while waiting:
            ready = _wait([self.conns[r] for r in sorted(waiting)],
                          self.recv_timeout)
            if not ready:
                return
            for conn in ready:
                rank = self.rank_of[conn]
                waiting.discard(rank)
                try:
                    kind, payload = conn.recv()
                except (EOFError, OSError):
                    continue
                if kind == _LATE:
                    self.late[rank] = payload

    # -- faults ---------------------------------------------------------

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
                except (EOFError, OSError):
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
                # _COLL frames can no longer make progress; drop.
        lines = [f"rank {r} waiting for {what}"
                 for r, what in sorted(reports.items())]
        for r in sorted(live):
            lines.append(f"rank {r} blocked (no report before abort)")
        self.failure = ("deadlock",
                        "deadlock: blocked ranks:\n  " + "\n  ".join(lines))

    def _hand_out(self, *completed: Optional[CompletedCollective]) -> None:
        """Send each member of the completed collectives its result."""
        for done in completed:
            if done is not None:
                for r, result in done.results.items():
                    self.conns[r].send((_COLL, result))

    def _abort(self) -> None:
        """Send ``_STOP`` to every worker: a running one aborts, a
        finished or crashed one reports its late count and exits."""
        for conn in self.conns:
            try:
                conn.send((_STOP, None))
            except Exception:
                pass  # that worker's process is gone


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

        p = self.num_ranks
        workers = []
        start = _time.monotonic()
        mp_ctx = mp.get_context("fork") if hasattr(mp, "get_context") else mp
        # Every pipe exists before the first fork, so each worker
        # inherits all of them and closes the ends it does not own.
        router_ends, control_ends = zip(*(mp_ctx.Pipe() for _ in range(p)))
        links: List[Dict[int, Any]] = [{} for _ in range(p)]
        for a in range(p):
            for b in range(a + 1, p):
                links[a][b], links[b][a] = mp_ctx.Pipe()
        worker_ends = [*control_ends,
                       *(conn for own in links for conn in own.values())]
        for rank in range(p):
            own = {control_ends[rank], *links[rank].values()}
            foreign = [c for c in (*router_ends, *worker_ends)
                       if c not in own]
            rank_args = (per_rank_args[rank] if per_rank_args is not None
                         else args)
            proc = mp_ctx.Process(
                target=_worker_main,
                args=(rank, p, program, rank_args, seed_words[rank],
                      control_ends[rank], links[rank], foreign,
                      self.recv_timeout, self.faults),
                daemon=True,
            )
            workers.append(proc)
        router = _Router(list(router_ends), p, self.recv_timeout)
        for proc in workers:
            proc.start()
        for conn in worker_ends:
            conn.close()
        router.start()
        router.join(self.join_timeout)
        alive = router.is_alive()
        for proc in workers:
            proc.join(0.5 if not alive else 0.0)
            if proc.is_alive():
                proc.terminate()
        if alive:
            unfinished = sorted(set(range(p))
                                - set(router.done) - router.collectives.dead)
            raise DeadlockError(
                "process cluster did not finish within the join timeout; "
                f"unfinished ranks: {unfinished}")
        if router.failure:
            if router.failure[0] == "lost":
                rank = router.failure[1]
                raise WorkerError(
                    f"rank {rank} ended without a report (exit code "
                    f"{workers[rank].exitcode})", rank=rank)
            self._raise_failure(router.failure)
        wall = _time.monotonic() - start

        # Frames a crashed rank read after its crash are its senders'
        # dead letters; frames a finished rank never received are its
        # own undelivered messages.
        charged = [0] * p
        late_undelivered = [0] * p
        for rank, late in router.late.items():
            if rank in router.collectives.dead:
                for src, count in late.items():
                    charged[src] += count
            else:
                late_undelivered[rank] = sum(late.values())
        traces = []
        for rank in range(p):
            t = router.traces[rank]
            t.messages_sent -= charged[rank]
            t.dead_letters += charged[rank]
            t.undelivered += late_undelivered[rank]
            t.finish_time = wall
            traces.append(t)
        values = [router.done.get(r) for r in range(p)]
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
