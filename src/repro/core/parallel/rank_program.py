"""The SPMD rank program: step loop, work distribution, termination.

Per step (Section 4.5's three-phase summary):

1. **Distribute** — ``s`` switch operations are split over ranks by the
   parallel multinomial algorithm with ``q_i = |E_i|/|E|``;
2. **Switch & serve** — each rank runs its conversation loop: initiate
   its own operations (one in flight at a time) while serving every
   incoming protocol message; a two-phase termination wave over a
   binary tree detects when every rank's quota is done (phase 0) and
   then when every Commit and Abort has landed (phase 1);
3. **Refresh** — an allgather collects every rank's new ``|E_i|`` and
   its completed operations, the probability vector is rebuilt, and the
   next step begins.

Forfeits: a rank whose edge pool empties mid-step (its edges migrated
away) cannot fulfil its remaining quota; the budget shrinks only by the
step's completions, so the shortfall is carried into subsequent steps
and the total operation count is preserved.

Fault tolerance (``ParallelSwitchConfig.fault_tolerance``) changes the
serve loop in three ways, all dormant when the feature is off:

* every protocol payload travels framed through a
  :class:`~repro.core.parallel.ftolerance.ReliableChannel` — the serve
  loop uses a *timed* receive and retransmits unacked frames on expiry;
* rank deaths (backend obituaries, or ``None`` slots in the step
  allgather) trigger :meth:`SwitchRank._on_rank_dead`: in-flight
  conversations with the dead rank are forfeited, its budget share
  re-budgeted at the next barrier;
* the termination wave runs over a *flat* topology rooted at the
  lowest live rank instead of the tree (a tree cannot survive the
  death of an inner node): everyone sends DoneUp to the live root, the
  root broadcasts DoneAll, and every DoneAll receiver re-floods it so
  the broadcast survives even the root dying halfway through it.

Checkpoint/restart: at a step boundary the protocol is quiescent (no
messages in flight, no open conversations), so
``PerRankArgs.checkpoint_sink`` snapshots exactly the partition, visit
tracker, RNG position and budget counters; ``restore_state`` replays a
snapshot before the initial allgather and the resumed run continues
bit-identically on the discrete-event backend.
"""

from __future__ import annotations

import pickle
from typing import FrozenSet, List, Optional, Set, Tuple

from repro.audit.auditor import ProtocolAuditor
from repro.core.constraints import FailureReason
from repro.core.parallel.ftolerance import (
    MAX_RETRIES,
    RETRANSMIT_AFTER,
    ReliableChannel,
)
from repro.core.parallel.messages import (
    Abort,
    Commit,
    DoneAll,
    DoneUp,
    Frame,
    FrameAck,
    NBYTES,
    Retry,
    SwitchRequest,
    TAG_PROTO,
    Validate,
    wire_nbytes,
)
from repro.core.parallel.protocol import (
    ConversationMixin,
    PROBE_PROTO,
    RECV_PROTO,
)
from repro.core.parallel.state import InitiatorState, RankReport, ServantState
from repro.util.rng import BlockSampler, CumulativeWeights
from repro.core.visit_rate import VisitTracker
from repro.errors import ProtocolError
from repro.mpsim.context import RankContext
from repro.mpsim.faults import TAG_OBITUARY
from repro.mpsim.ops import Compute, Probe, Recv, Send
from repro.rvgen.parallel_multinomial import distribute_switch_counts

__all__ = ["SwitchRank", "switch_rank_program"]

#: Step-budget guard: a run stops after this many times the steps its
#: budget needs (plus 8), whatever forfeits leave undelivered.
MAX_STEPS_FACTOR = 3
#: Livelock guard ceiling: give up one operation after this many
#: consecutive failed attempts (degenerate graphs such as stars).
CONSECUTIVE_FAILURE_LIMIT = 10_000

#: Fault tolerance probes wildcard: obituaries travel under their own
#: (negative) tag.
_PROBE_ANY = Probe()
_RECV_ANY = Recv()


class SwitchRank(ConversationMixin):
    """One rank's complete execution of the parallel edge switch."""

    def __init__(self, ctx: RankContext):
        args = ctx.args
        self.ctx = ctx
        self.part = args.partition
        self.owner = args.partitioner.owner
        self.config = args.config
        self.cost = cost = args.config.cost
        self.switch_op = Compute(cost.switch_compute)
        self.check_ops = tuple(Compute(cost.check_compute * k)
                               for k in range(5))
        self.failure_limit = CONSECUTIVE_FAILURE_LIMIT
        self.report = RankReport(rank=ctx.rank)
        #: Conversation handler per payload type, bound once per rank
        #: (the serve loop's fault-free dispatch, and ``_dispatch``).
        self.handlers = {
            SwitchRequest: self.handle_request,
            Validate: self.handle_validate,
            Retry: self.handle_retry,
            Abort: self.handle_abort,
            Commit: self.handle_commit,
        }
        self.tracker = VisitTracker(self.part.edges())
        # audit (off by default: self.audit stays None and every hook
        # in the conversation mixin is a single identity check)
        audit_cfg = self.config.audit
        if audit_cfg is not None:
            self.audit = ProtocolAuditor(ctx.rank, audit_cfg)
            scope = getattr(args, "audit_scope", None)
            if scope is not None:
                scope.register(ctx.rank, self.audit.recorder)
        else:
            self.audit = None
        # fault tolerance (off by default: channel stays None, the set
        # checks below cost one falsy test each on the hot path)
        tick = self.config.fault_tolerance
        if tick is not None:
            self.channel = ReliableChannel(ctx.rank)
            # The serve loop's timed receive: one "tick" of the channel.
            self.ft_recv = Recv(timeout=tick)
        else:
            self.channel = None
            self.ft_recv = None
        self.dead: Set[int] = set()
        self.completed_total = [0] * ctx.size
        self._accounted_dead: Set[int] = set()
        #: Ranks a final DoneAll copy for the current step arrived from
        #: (the implicit acknowledgement in ``_ft_finish_step``).
        self.done_heard: Set[int] = set()
        # checkpoint/restart (in-process backends only; see driver)
        self.checkpoint_sink = getattr(args, "checkpoint_sink", None)
        self.restore_state = getattr(args, "restore_state", None)
        self.halt_after_step = getattr(args, "halt_after_step", None)
        # conversation state (ConversationMixin contract)
        self.sampler = BlockSampler(ctx.rng)
        self.reserved = set()
        self.servant = {}
        self.active: Optional[InitiatorState] = None
        self.serial = 0
        self.consecutive_failures = 0
        # step state
        self.q: List[float] = []
        self.q_pick = CumulativeWeights(self.q)
        self.quota = 0
        self.step_index = 0
        self._step_completed_base = 0
        # termination wave (see _done_gate): 0 and 1 are the phases
        # being reported, 2 means DoneAll ended the step here
        self.phase = 0
        #: Per phase, the ranks whose DoneUp for it arrived this step.
        self.reported: Tuple[Set[int], Set[int]] = (set(), set())
        #: Where this phase's DoneUp went (None: not sent yet).
        self.up_to: Optional[int] = None
        # Topology: ``up`` is where DoneUp goes (-1 at the root) and
        # ``waiting_for`` the ranks whose DoneUp must arrive first.  A
        # binary tree rooted at 0; fault tolerance uses the flat
        # live-root scheme instead (_flat_topology).
        me = ctx.rank
        self.up = (me - 1) // 2 if me > 0 else -1
        self.children = [c for c in (2 * me + 1, 2 * me + 2) if c < ctx.size]
        self.waiting_for: FrozenSet[int] = frozenset(self.children)
        if tick is not None:
            self._flat_topology()

    # -- main -----------------------------------------------------------

    def main(self):
        """The rank program (generator)."""
        cfg = self.config
        if self.restore_state is not None:
            remaining = self._restore(self.restore_state)
            if self.audit is not None:
                self.audit.record(
                    "checkpoint", note=f"restored step={self.step_index}")
        else:
            remaining = cfg.t
            self.report.initial_edges = self.part.num_edges
            self.report.initial_count = self.tracker.initial_count

        counts = yield from self.ctx.allgather(self.part.num_edges, nbytes=8)
        for r, c in enumerate(counts):
            if c is None:  # a rank died before the run even started
                yield from self._on_rank_dead(r)
        counts = [c if c is not None else 0 for c in counts]
        self._set_q(_normalise(counts))
        if self.audit is not None:
            self.audit.begin_run(sum(counts))

        max_steps = MAX_STEPS_FACTOR * _ceil_div(cfg.t, cfg.step_size) + 8
        while remaining > 0 and self.step_index < max_steps:
            step_quota = min(cfg.step_size, remaining)
            assigned = yield from distribute_switch_counts(
                self.ctx, step_quota, self.q, self.cost)
            self.report.assigned_total += assigned
            if self.audit is not None:
                self.audit.begin_step(self.step_index, assigned, self.report)
            yield from self._run_step(assigned)
            remaining, counts, stop = yield from self._step_barrier(
                remaining, step_quota)
            if self.audit is not None:
                self.audit.end_step(self.step_index, self, sum(counts))
            self.report.edge_trajectory.append(self.part.num_edges)
            self._set_q(_normalise(counts))
            self.step_index += 1
            self.report.steps = self.step_index
            sink = self.checkpoint_sink
            if sink is not None and sink.wants(self.step_index):
                blob = pickle.dumps(self._snapshot(remaining))
                sink.offer(self.ctx.rank, self.step_index, blob)
                if self.audit is not None:
                    self.audit.record(
                        "checkpoint",
                        note=f"step={self.step_index} bytes={len(blob)}")
            if (self.halt_after_step is not None
                    and self.step_index >= self.halt_after_step):
                break  # deterministic kill point for restart testing
            if stop:
                break  # nobody can make progress; stop rather than spin

        # Exiting with remaining > 0 (the step guard or an all-forfeit
        # step) is legal but must not be silent: record the shortfall
        # so the driver and callers can see under-delivery.
        self.report.unfulfilled = remaining
        self.report.visited_count = self.tracker.visited_count
        self.report.final_edges = self.part.num_edges
        if cfg.collect_edges:
            self.report.final_edge_list = list(self.part.edges())
        if self.channel is not None:
            yield from self._drain_mailbox()
            self._report_ft_counters()
        self._verify_quiescent()
        if self.audit is not None:
            self.report.audit_events = list(self.audit.recorder.tail())
        return self.report

    def _set_q(self, q: List[float]) -> None:
        self.q = q
        self.q_pick = CumulativeWeights(q)

    # -- one step ------------------------------------------------------------

    def _run_step(self, assigned: int):
        # Drop prefetched RNG blocks at every step entry: a restored
        # run starts the step with the snapshot's bare stream position,
        # so the live run must too (see BlockSampler.reset).
        self.sampler.reset()
        self.quota = assigned
        # Livelock guard, scaled to what this rank can pick from: a
        # small partition whose edges cannot be switched forfeits after
        # a few hundred failures instead of the ceiling.
        self.failure_limit = min(CONSECUTIVE_FAILURE_LIMIT,
                                 64 + 16 * self.part.pool_size)
        self._step_completed_base = self.report.switches_completed
        self.phase = 0
        self.reported = (set(), set())
        self.up_to = None
        self.done_heard.clear()

        ft = self.channel is not None
        probe = _PROBE_ANY if ft else PROBE_PROTO
        recv = self.ft_recv if ft else RECV_PROTO
        handlers = self.handlers
        aud = self.audit
        while True:
            while self._done_gate():
                yield from self._report_done()
            if self.phase == 2:
                break
            if self.quota > 0 and self.active is None:
                if not (yield probe):
                    # try_initiate returns when a conversation goes
                    # remote, the quota is exhausted/forfeited, or an
                    # incoming message demands service.
                    yield from self.try_initiate()
                    continue
            msg = yield recv
            if ft:
                if msg is None:  # the fault-tolerance tick expired
                    yield from self._ft_tick()
                else:
                    yield from self._dispatch(msg)
                continue
            # Fault-free: the payload is bare and the tag is TAG_PROTO,
            # so a conversation message goes straight to its handler.
            handler = handlers.get(type(msg.payload))
            if handler is None:
                yield from self._dispatch(msg)
            else:
                if aud is not None:
                    aud.conv_message(msg.source, msg.payload)
                yield from handler(msg.source, msg.payload)
        if ft:
            yield from self._ft_finish_step()

    def _dispatch(self, msg):
        payload = msg.payload
        if msg.tag == TAG_OBITUARY:
            yield from self._on_rank_dead(payload.rank)
            return
        ch = self.channel
        if ch is not None:
            source = msg.source
            if source in self.dead:
                return  # late traffic from a dead rank
            kind = type(payload)
            if kind is FrameAck:
                frame = ch.on_ack(source, payload.upto, payload.nack)
                if frame is not None:
                    yield self._resend(source, frame)
                return
            if kind is Frame:
                payload, reply = ch.accept(source, payload)
                if reply is not None:
                    yield Send(source, TAG_PROTO, reply, NBYTES[FrameAck])
                if payload is None:
                    if self.audit is not None:
                        self.audit.record("dup_drop", note=f"from={source}")
                    return
        kind = type(payload)
        if kind is DoneUp:
            if self._check_step(payload.step):
                self.reported[payload.phase].add(msg.source)
            return
        if kind is DoneAll:
            if not self._check_step(payload.step):
                return
            if payload.phase:
                self.done_heard.add(msg.source)
            if payload.phase < self.phase:
                return  # a flood copy of a phase that already ended here
            if self.audit is not None:
                self.audit.record(
                    "done_all",
                    note=f"phase={payload.phase} from={msg.source}")
            yield from self._end_phase(payload.phase)
            return
        handler = self.handlers.get(kind)
        if handler is None:
            raise ProtocolError(
                f"rank {self.ctx.rank}: unexpected payload {payload!r}")
        yield from handler(msg.source, payload)

    def _check_step(self, step: int) -> bool:
        if step == self.step_index:
            return True
        if self.channel is not None and step < self.step_index:
            # A delayed retransmission of an older step's termination
            # message; delivery once per step is dedup-guaranteed, so
            # stale copies are noise.
            if self.audit is not None:
                self.audit.record("dup_drop", note=f"stale_done step={step}")
            return False
        raise ProtocolError(
            f"rank {self.ctx.rank}: termination message for step "
            f"{step} during step {self.step_index}")

    def _done_gate(self) -> bool:
        """May this rank report the current termination phase now?

        The one done-gate of both topologies.  Phase 0 reports "every
        initiator here is done": quota spent and no conversation of my
        own open.  Once every rank reported it, no SwitchRequest,
        Validate or Retry is in flight and none can be created.  Phase
        1 (started by DoneAll for phase 0) reports "I hold no servant
        state".  Every Commit and Abort goes to a rank that holds a
        servant entry until the message lands, so the final DoneAll
        proves all of them arrived.  Neither condition reverts within
        its phase, so an early report cannot go stale.  Beyond its own
        condition a rank waits for ``waiting_for`` to report, and
        reports once per phase to its current ``up``."""
        phase = self.phase
        if phase == 0:
            if self.quota > 0 or self.active is not None:
                return False
        elif phase == 2 or self.servant:
            return False
        return (self.up_to != self.up
                and self.waiting_for <= self.reported[phase])

    def _report_done(self):
        """Send this phase's DoneUp, or at the root end the phase."""
        phase = self.phase
        aud = self.audit
        if phase and self.up_to is None and self.channel is not None:
            # This step's first phase-1 report: the wave proves what
            # was sent before it (see _ft_finish_step).
            self.channel.mark()
        if self.up >= 0:
            if aud is not None:
                aud.record("done_up", note=f"phase={phase} to={self.up}")
                if phase and self.channel is None:
                    aud.seal()
            self.up_to = self.up
            yield self._proto(self.up, DoneUp(self.step_index, phase))
            return
        if aud is not None:
            aud.record("done_all", note=f"phase={phase} root broadcast")
            if phase and self.channel is None:
                aud.seal()
        yield from self._end_phase(phase)

    def _end_phase(self, phase: int):
        """Pass DoneAll for ``phase`` on and advance to the next phase:
        down the tree, or under fault tolerance to every live rank (a
        re-flood, so the broadcast survives the root dying halfway
        through it; frame dedup drops each receiver's extra copies)."""
        msg = DoneAll(self.step_index, phase)
        if self.channel is None:
            for child in self.children:
                yield Send(child, TAG_PROTO, msg, NBYTES[DoneAll])
        else:
            for r in range(self.ctx.size):
                if r != self.ctx.rank and r not in self.dead:
                    yield self._proto(r, msg)
        self.phase = phase + 1
        self.up_to = None

    # -- fault tolerance -------------------------------------------------

    def _ft_tick(self):
        """The timed receive expired: send the channel's due
        retransmissions and owed acks."""
        for dest, payload in self.channel.on_tick():
            if type(payload) is Frame:
                yield self._resend(dest, payload)
            else:
                yield Send(dest, TAG_PROTO, payload, NBYTES[FrameAck])

    def _resend(self, dest: int, frame: Frame) -> Send:
        if self.audit is not None:
            self.audit.record("retransmit", note=f"to={dest} seq={frame.seq}")
        return Send(dest, TAG_PROTO, frame, wire_nbytes(frame))

    def _on_rank_dead(self, d: int):
        """A peer fail-stopped: forfeit everything shared with it."""
        if d in self.dead:
            return
        self.dead.add(d)
        aud = self.audit
        if aud is not None:
            aud.record("rank_dead", note=f"rank={d}")
        if self.channel is not None:
            self.channel.cancel_dest(d)
            self._flat_topology()
        if d < len(self.q):
            self.q[d] = 0.0  # never pick the dead as a partner again
            self._set_q(self.q)
        # Forfeit my own in-flight conversation, whoever takes part in
        # it (the operation is retried with a fresh pair): I know only
        # its partner, and an owner that dies after rejecting it leaves
        # nobody to send me the Retry.  A chain that still comes back
        # is aborted in handle_validate.
        st = self.active
        if st is not None:
            if aud is not None:
                aud.conv_close(st.conv, "forfeit")
            self._initiator_release(FailureReason.DEAD_PEER)
            self.consecutive_failures += 1
        # Servant state for conversations the dead rank participated
        # in: drop it, undo checkouts/reservations, and release the
        # (live) initiator with a Retry so it does not wait forever.
        doomed = [c for c, s in self.servant.items()
                  if c[0] == d or d in s.peers]
        for conv in doomed:
            self._release(self.servant.pop(conv))
            if aud is not None:
                aud.conv_close(conv, "forfeit")
            if conv[0] != d and conv[0] not in self.dead:
                yield self._proto(
                    conv[0], Retry(conv, FailureReason.DEAD_PEER.value, d))

    def _flat_topology(self) -> None:
        """Fault-tolerant termination: flat, rooted at the lowest live
        rank.  After the root's death a rank whose DoneUp went there
        sends it again to the new root (``up_to != up``)."""
        me = self.ctx.rank
        live = [r for r in range(self.ctx.size) if r not in self.dead]
        if live[0] == me:
            self.up = -1
            self.waiting_for = frozenset(live[1:])
        else:
            self.up = live[0]
            self.waiting_for = frozenset()

    def _ft_finish_step(self):
        """Serve the channel after the step's final DoneAll until what
        the two-phase wave does not already prove has landed.

        The wave proves delivery of every frame sent before this rank's
        phase-1 report (:meth:`ReliableChannel.mark`) and of every
        DoneUp, so the drain waits only for (a) servant state, which
        after a rank's death a forfeited chain can still open, its
        Abort arriving after DoneAll; (b) other frames sent after the
        report, such as that Abort at its sender; but not (c) DoneAll
        copies to a rank ``r`` in ``done_heard``: a final DoneAll copy
        from ``r`` shows ``r`` knows the step is over, which is all the
        copy says.  ``r`` may already be in the barrier, where it acks
        nothing.  Every DoneAll copy is acked on its own, apart from
        the ack riding on this rank's flood copy, and every frame that
        arrives here at once, since its sender may be waiting for it in
        its own drain.  Bounded: once the window closes, the rest is
        left to :meth:`ReliableChannel.settle` (docs/protocol.md)."""
        ch = self.channel
        heard = self.done_heard
        limit = ch.ticks + RETRANSMIT_AFTER * (MAX_RETRIES + 2)
        for r in heard - self.dead:
            yield Send(r, TAG_PROTO, ch.ack_now(r), NBYTES[FrameAck])
        while self.servant or any(
                kind is not DoneUp and (kind is not DoneAll or d not in heard)
                for d, kind in ch.since_mark()):
            if ch.ticks >= limit:
                if self.audit is not None:
                    self.audit.record("drain", note="window closed")
                break
            msg = yield self.ft_recv
            if msg is None:
                yield from self._ft_tick()
                continue
            source = msg.source
            if type(msg.payload) is not Frame or source in self.dead:
                # Obituaries, acks and late traffic from the dead.
                yield from self._dispatch(msg)
                continue
            inner, reply = ch.accept(source, msg.payload)
            kind = type(inner)
            if (kind is DoneAll and inner.step == self.step_index
                    and inner.phase):
                heard.add(source)
            elif kind is Abort:
                # We served a forfeited chain after our DoneUp and its
                # Abort lost the race with DoneAll; the servant entry
                # waits for it here.
                yield from self.handle_abort(source, inner)
            # Anything else new can only be termination noise — every
            # other payload was delivered before DoneAll existed (the
            # termination wave) — so it is consumed.
            if inner is not None:
                reply = ch.ack_now(source)
            if reply is not None:
                yield Send(source, TAG_PROTO, reply, NBYTES[FrameAck])
        ch.settle()

    def _step_barrier(self, remaining: int, step_quota: int):
        """The step allgather and budget accounting.

        Every live rank contributes ``(|E_i|, completed this step)``;
        dead slots come back ``None`` (backend death consensus — every
        survivor sees the same set).  ``remaining`` shrinks by the sum
        of live completions.  Each rank's assignment is its completions
        plus its forfeits, and the assignments sum to ``step_quota``, so
        this is the ``step_quota - Σ forfeited`` rule.  A newly-dead
        rank's lifetime completions are re-budgeted, keeping
        ``t == Σ_survivor completed + unfulfilled`` exact."""
        step_completed = (self.report.switches_completed
                          - self._step_completed_base)
        pairs = yield from self.ctx.allgather(
            (self.part.num_edges, step_completed), nbytes=16)
        counts: List[int] = []
        completed_this = 0
        for r, item in enumerate(pairs):
            if item is None:
                counts.append(0)
                yield from self._on_rank_dead(r)
                continue
            counts.append(item[0])
            completed_this += item[1]
            self.completed_total[r] += item[1]
        remaining -= completed_this
        new_dead = sorted(self.dead - self._accounted_dead)
        for d in new_dead:
            self._accounted_dead.add(d)
            remaining += self.completed_total[d]
            if self.audit is not None:
                self.audit.record(
                    "rank_dead",
                    note=f"rebudget rank={d} n={self.completed_total[d]}")
        if new_dead and self.audit is not None:
            # The dead partitions' edges left the global total (and a
            # torn commit may have shifted survivor counts): move the
            # conservation baseline.
            self.audit.rebase_edges(
                sum(counts), note=f"dead={sorted(self.dead)}")
        stop = completed_this == 0 and step_quota > 0
        return remaining, counts, stop

    def _report_ft_counters(self) -> None:
        ch, rep = self.channel, self.report
        rep.ft_ticks, rep.retransmits, rep.dup_drops, rep.abandoned = (
            ch.ticks, ch.retransmits, ch.dup_drops, ch.abandoned)

    def _drain_mailbox(self):
        """Consume what is left in the mailbox after the final step
        barrier, so no message counts as undelivered at shutdown.

        No rank sends after joining that barrier, so once one more
        barrier has completed, every message sent in the run has
        arrived and a probe finds it, on every backend:

        * threads: a send puts the message into the destination's
          inbox before the sender's op returns, so before its barrier
          join, and ``probe`` sweeps the inbox before it answers;
        * procs: a send is written into the pair's pipe before the
          sender writes its barrier join to the router, and ``probe``
          reads every ready pipe until none is left;
        * sim: a frame arrives ``α + β·bytes`` after it is sent, less
          than the ``α`` rounds of the step allgather and this barrier
          together for any frame under ``α/β`` (800) bytes; the
          largest is 112.

        So the drain needs no timed receive."""
        yield from self.ctx.barrier()
        drained = 0
        while (yield _PROBE_ANY):
            yield _RECV_ANY
            drained += 1
        if drained and self.audit is not None:
            self.audit.record("drain", note=f"n={drained}")

    # -- checkpoint/restart ----------------------------------------------

    def _snapshot(self, remaining: int) -> dict:
        """Step-boundary state capture; quiescence (verified by the
        auditor) means no mailbox or conversation state exists.

        Only the raw pool travels — the edge list in its stored
        (unsorted) order plus the checked-out set.  The adjacency sets
        and the position map are derivable, and pickling them roughly
        tripled the blob and the snapshot time; restore rebuilds them
        (``ReducedAdjacencyGraph.restore_pool``).  Nothing sorts here:
        canonical ordering is a verification-time concern
        (``edge_list`` in tests), not a snapshot one."""
        if self.channel is not None:
            self._report_ft_counters()
        part = self.part
        return {
            "edges": part._edges,
            "checked": part._checked,
            "tracker_remaining": self.tracker._remaining,
            "tracker_initial": self.tracker._initial_count,
            "rng": self.ctx.rng.get_state(),
            "serial": self.serial,
            "consecutive_failures": self.consecutive_failures,
            "report": self.report,
            "remaining": remaining,
            "step_index": self.step_index,
            "completed_total": self.completed_total,
        }

    def _restore(self, state: dict) -> int:
        """Restore a :meth:`_snapshot`; returns the remaining budget.

        The partition is restored *in place*: the driver holds
        references to the partition objects for final reassembly."""
        self.part.restore_pool(state["edges"], state["checked"])
        self.tracker._remaining = set(state["tracker_remaining"])
        self.tracker._initial_count = state["tracker_initial"]
        self.ctx.rng.set_state(state["rng"])
        self.serial = state["serial"]
        self.consecutive_failures = state["consecutive_failures"]
        self.report = rep = state["report"]
        ch = self.channel
        if ch is not None:
            # Counters carry on from the snapshot.  Frames still unacked
            # at a step boundary are proven delivered or not needed
            # (every rank restarts its seqs together), so the channel
            # starts empty and its tick clock may jump.
            ch.ticks, ch.retransmits, ch.dup_drops, ch.abandoned = (
                rep.ft_ticks, rep.retransmits, rep.dup_drops, rep.abandoned)
        self.step_index = state["step_index"]
        self.completed_total = list(state["completed_total"])
        return state["remaining"]

    # -- invariants ------------------------------------------------------------

    def _verify_quiescent(self) -> None:
        """At run end no conversation state may linger."""
        if self.audit is not None:
            # Richer failure: the auditor raises ProtocolAuditError
            # with the flight-recorder tail attached.
            self.audit.end_run(self)
        if self.active is not None:
            raise ProtocolError(
                f"rank {self.ctx.rank}: active conversation at shutdown")
        if self.servant:
            raise ProtocolError(
                f"rank {self.ctx.rank}: {len(self.servant)} servant "
                "conversations at shutdown")
        if self.reserved:
            raise ProtocolError(
                f"rank {self.ctx.rank}: {len(self.reserved)} reservations "
                "at shutdown")


def switch_rank_program(ctx: RankContext):
    """Entry point handed to a cluster's ``run``: the rank's generator
    itself, with no wrapping frame."""
    return SwitchRank(ctx).main()


def _normalise(counts: List[int]) -> List[float]:
    total = sum(counts)
    if total == 0:
        return [1.0 / len(counts)] * len(counts)
    return [c / total for c in counts]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)
