"""Conversation state machine of the distributed switch (Section 4.4).

Each rank plays three roles, any of which may coincide:

* **initiator** — selects ``e1`` from its own partition, picks a
  partner rank with probability ``|E_j|/|E|`` (Algorithm 2), and has at
  most one conversation in flight at a time (the sequential-per-rank
  discipline of Section 4.5);
* **partner** — supplies ``e2``, decides straight vs cross with a fair
  coin, and starts the validation chain;
* **replacement-edge owner** — validates that a replacement edge does
  not already exist (and is not *reserved* by a concurrent
  conversation — the "potential edge" tracking of Section 4.5) and
  reserves it.

Consistency devices, mapping to the paper:

* **checkout** — a selected edge leaves its owner's sampling pool but
  stays visible to existence checks until commit, so two simultaneous
  conversations can never switch the same edge;
* **reservation** — a validated replacement edge is recorded in the
  owner's reserved set, so the same new edge cannot be created twice
  concurrently (the paper's four-way collision example);
* **restart** — any failed check aborts the conversation everywhere
  and the initiator redraws a fresh pair, exactly like the sequential
  algorithm's rejection loop.

The generalisation over the paper's prose: with hash partitioning the
*two* replacement edges can be owned by two distinct third-party ranks,
so a conversation may span four ranks; the validation chain simply
visits both owners before reaching the initiator.  The paper's three
cases (``P_k = P_j``, ``P_k = P_i``, distinct ``P_k``) are the chain's
length-1 and length-2 specialisations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.audit.auditor import ProtocolAuditor
from repro.core.constraints import FailureReason, SwitchKind, propose_switch
from repro.core.parallel.ftolerance import ReliableChannel
from repro.core.parallel.messages import (
    Abort,
    Commit,
    Conv,
    FRAME_OVERHEAD,
    NBYTES,
    Retry,
    SwitchRequest,
    TAG_PROTO,
    Validate,
)
from repro.core.parallel.state import InitiatorState, RankReport, ServantState
from repro.core.visit_rate import VisitTracker
from repro.errors import ProtocolError
from repro.mpsim.ops import Compute, Probe, Recv, Send
from repro.types import Edge
from repro.util.rng import BlockSampler

__all__ = ["ConversationMixin", "PROBE_PROTO", "RECV_PROTO"]

#: ``SwitchKind`` by its wire value (``Validate.kind``); a dict lookup
#: instead of the enum's value-lookup call.
_KINDS = {kind.value: kind for kind in SwitchKind}

#: The serve loop's hot synchronising ops.  Ops are immutable tuples,
#: so one instance serves every yield.
PROBE_PROTO = Probe(tag=TAG_PROTO)
RECV_PROTO = Recv(tag=TAG_PROTO)


class ConversationMixin:
    """Conversation handling; mixed into
    :class:`~repro.core.parallel.rank_program.SwitchRank`, which
    provides ``self.ctx``, ``self.part`` (the rank's partition),
    ``self.owner`` (the global ownership function), ``self.cost``,
    ``self.report``, ``self.tracker``, ``self.q_pick`` (partner
    probabilities, prepared for bisection) and ``self.quota``.
    """

    # Charge ops built once per rank from ``self.cost`` (same float
    # products as building them per yield, so clocks are unchanged).
    #: ``Compute(switch_compute)``.
    switch_op: Compute
    #: ``check_ops[k] == Compute(check_compute * k)`` for k = 0..4.
    check_ops: Tuple[Compute, ...]

    # These attributes are initialised by the owner class.
    reserved: Set[Edge]
    servant: Dict[Conv, ServantState]
    active: Optional[InitiatorState]
    serial: int
    tracker: VisitTracker
    report: RankReport
    #: Block-buffered edge-index and coin draws (``edge_at`` sampling);
    #: reset at every step entry for checkpoint stream alignment.
    sampler: BlockSampler
    #: Flight recorder + invariant checker; ``None`` when auditing is
    #: off, so the hot path pays a single identity check per hook.
    audit: Optional[ProtocolAuditor]
    #: Reliable-delivery layer; ``None`` when fault tolerance is off,
    #: so the fault-free hot path sends payloads bare.
    channel: Optional[ReliableChannel]
    #: Ranks known to have failed (always a set; empty without faults).
    dead: Set[int]

    # -- helpers -----------------------------------------------------------

    def _conflicts(self, edges: List[Edge]) -> bool:
        """Would creating any of ``edges`` violate simplicity here?  True
        if one already exists or a concurrent conversation reserved it."""
        reserved = self.reserved
        has_edge = self.part.has_edge
        for e in edges:
            if e in reserved or has_edge(*e):
                return True
        return False

    def _group_by_owner(self, edges: Tuple[Edge, Edge]) -> Dict[int, List[Edge]]:
        """The two replacement edges grouped by owning rank, in edge
        order (deterministic insertion order)."""
        a, b = edges
        owner_a = self.owner(a[0])
        owner_b = self.owner(b[0])
        if owner_a == owner_b:
            return {owner_a: [a, b]}
        return {owner_a: [a], owner_b: [b]}

    def _proto(self, dest: int, payload):
        # Hot path: handlers yield op objects directly rather than
        # delegating through context helper generators — each avoided
        # sub-generator saves one frame per resume (profiled ~25%).
        ch = self.channel
        if ch is None:
            return Send(dest, TAG_PROTO, payload, NBYTES[type(payload)])
        if dest in self.dead:
            # Conversations towards the dead are forfeited elsewhere;
            # anything still addressed there is dropped at the source.
            return Compute(0.0)
        frame = ch.wrap(dest, payload)
        return Send(dest, TAG_PROTO, frame,
                    FRAME_OVERHEAD + NBYTES[type(payload)])

    def _new_conv(self) -> Conv:
        conv = (self.ctx.rank, self.serial)
        self.serial += 1
        return conv

    # -- initiation ---------------------------------------------------------

    def try_initiate(self):
        """Start switch operations until one goes remote (conversation
        in flight), the quota is exhausted, or the pool runs dry.

        Fully local switches (both edges and both replacement edges
        owned here) complete inline with zero messages.  The caller
        has just probed and found nothing pending.
        """
        me = self.ctx.rank
        aud = self.audit
        check_ops = self.check_ops
        probe = False
        while self.quota > 0 and self.active is None:
            # Fairness: a long streak of local switches must not starve
            # ranks waiting for service from us — serve first.  The
            # first iteration runs at the instant of the caller's probe,
            # so probing again there would only repeat its answer.
            if probe and (yield PROBE_PROTO):
                return
            probe = True
            if self.part.pool_size == 0:
                # Nothing selectable; if nothing is in flight either,
                # this step's remaining quota is unfulfillable here.
                if aud is not None:
                    aud.record("forfeit", note=f"n={self.quota} empty_pool")
                self.report.forfeited += self.quota
                self.quota = 0
                return
            if self.consecutive_failures > self.failure_limit:
                # Livelock guard for degenerate graphs (e.g. stars):
                # give up one operation and keep going.  The counter is
                # engine-wide so remote Retry storms trip it too.
                if aud is not None:
                    aud.record("forfeit", note="n=1 livelock_guard")
                self.report.forfeited += 1
                self.quota -= 1
                self.consecutive_failures = 0
                continue
            yield self.switch_op
            # Edge indices and coins come from vectorised blocks (the
            # sequential hot loop's trick); only the partner pick stays
            # a scalar draw (its weights change every step).
            e1 = self.part.edge_at(self.sampler.index(self.part.pool_size))
            self.part.checkout(e1)
            partner = self.ctx.rng.choice_cumulative(self.q_pick)
            if partner != me:
                if partner in self.dead:
                    # All-zero weights fallback can still surface a dead
                    # rank; treat it like any failed attempt.
                    self.part.release(e1)
                    self.report.bump_rejection(FailureReason.DEAD_PEER)
                    self.consecutive_failures += 1
                    continue
                conv = self._new_conv()
                self.active = InitiatorState(conv, e1, checked_out=[e1])
                if aud is not None:
                    aud.conv_open(conv, "initiator")
                    aud.record("initiate", conv, f"partner={partner}")
                yield self._proto(partner, SwitchRequest(conv, e1))
                return
            # -- local partner: run the partner phase inline ------------
            reason, e2, kind, groups, mine = self._partner_phase(e1)
            if mine is not None:
                yield check_ops[len(mine)]
            if reason is not None:
                self.part.release(e1)
                if e2 is not None:
                    self.part.release(e2)
                self.report.bump_rejection(reason)
                self.consecutive_failures += 1
                continue
            if not groups:
                # Zero-message fast path: commit immediately.
                self._apply_local((e1, e2), mine)
                yield check_ops[4]
                self.quota -= 1
                self.report.switches_completed += 1
                self.report.local_switches += 1
                self.report.bump_span(1)
                self.consecutive_failures = 0
                if aud is not None:
                    aud.record("local")
                continue
            # Local pair, but a replacement edge lives elsewhere: start
            # the validation chain (the paper's local switch with
            # P_k != P_i).
            conv = self._new_conv()
            self.active = InitiatorState(
                conv, e1, e2=e2, checked_out=[e1, e2], reserved=list(mine))
            if aud is not None:
                aud.conv_open(conv, "initiator")
                aud.record("initiate", conv, f"chain={list(groups.keys())}")
            chain = list(groups.keys()) + [me]
            msg = Validate(
                conv, e1, e2, kind.value, partner=me,
                visited=(), remaining=tuple(chain[1:]),
            )
            yield self._proto(chain[0], msg)
            return

    # -- message handlers ---------------------------------------------------

    def _partner_phase(self, e1: Edge):
        """The partner step of both the local pair and a remote
        request: draw ``e2``, flip the kind, validate and reserve my
        replacement edges.

        Returns ``(reason, e2, kind, groups, mine)``.  ``reason`` is
        ``None`` on success, else the failure; ``e2`` is ``None`` when
        none was checked out; ``mine`` is ``None`` when no proposal was
        made, else the replacement edges I own (reserved on success),
        and ``groups`` the others by owner.  A plain method, not a
        generator: the caller yields ``check_ops[len(mine)]`` for a
        proposal and releases what a failure leaves checked out."""
        part = self.part
        if part.pool_size == 0:
            return FailureReason.EMPTY_POOL, None, None, None, None
        e2 = part.edge_at(self.sampler.index(part.pool_size))
        part.checkout(e2)
        kind = SwitchKind.CROSS if self.sampler.coin() \
            else SwitchKind.STRAIGHT
        proposal, reason = propose_switch(e1, e2, kind)
        if proposal is None:
            return reason, e2, kind, None, None
        groups = self._group_by_owner(proposal.add)
        mine = groups.pop(self.ctx.rank, [])
        if self._conflicts(mine):
            reason = FailureReason.PARALLEL
        elif self.dead and any(r in self.dead for r in groups):
            reason = FailureReason.DEAD_PEER
        else:
            self.reserved.update(mine)
        return reason, e2, kind, groups, mine

    def handle_request(self, source: int, msg: SwitchRequest):
        """Partner role: run the partner phase for ``msg.e1`` and launch
        the validation chain, or send the initiator a Retry."""
        me = self.ctx.rank
        aud = self.audit
        if aud is not None:
            aud.record("request", msg.conv, f"from={source}")
        yield self.switch_op
        reason, e2, kind, groups, mine = self._partner_phase(msg.e1)
        if mine is not None:
            yield self.check_ops[len(mine)]
        if reason is not None:
            if e2 is not None:
                self.part.release(e2)
            if aud is not None:
                aud.record("retry", msg.conv, f"send {reason.value}")
            yield self._proto(source, Retry(msg.conv, reason.value))
            return
        self.servant[msg.conv] = ServantState(
            msg.conv, checked_out=[e2], reserved=mine,
            peers=tuple(groups.keys()))
        if aud is not None:
            aud.conv_open(msg.conv, "partner")
        chain = [r for r in groups.keys() if r != source] + [source]
        out = Validate(
            msg.conv, msg.e1, e2, kind.value, partner=me,
            visited=(me,), remaining=tuple(chain[1:]),
        )
        yield self._proto(chain[0], out)

    def handle_validate(self, source: int, msg: Validate):
        """Owner / initiator role: validate & reserve my replacement
        edges, then forward the chain or (as initiator) commit."""
        me = self.ctx.rank
        aud = self.audit
        initiator = msg.conv[0]
        if aud is not None:
            aud.record("validate", msg.conv, f"from={source}")
        proposal, reason = propose_switch(msg.e1, msg.e2, _KINDS[msg.kind])
        if proposal is None:  # degenerate cases are filtered at the partner
            raise ProtocolError(
                f"rank {me}: Validate carries infeasible pair "
                f"{msg.e1}/{msg.e2}: {reason}")
        groups = self._group_by_owner(proposal.add)
        mine = groups.get(me, [])
        yield self.check_ops[max(1, len(mine))]
        dead = self.dead
        # The first dead participant (-1: none).
        gone = next((r for r in (msg.partner, initiator, *msg.visited,
                                 *msg.remaining) if r in dead),
                    -1) if dead else -1
        st = self.active
        if gone >= 0 or (dead and me == initiator
                         and (st is None or st.conv != msg.conv)):
            # A participant died, or the chain came back to an
            # initiator that forfeited the conversation on a death.
            reason = FailureReason.DEAD_PEER
        elif self._conflicts(mine):
            reason = FailureReason.PARALLEL
        else:
            reason = None
        if reason is not None:
            # Restart: abort every state holder upstream; the initiator
            # drops its own state, or is told to by a Retry, and redraws.
            if aud is not None:
                aud.record("abort", msg.conv,
                           f"send {reason.value} to={list(msg.visited)}")
            for v in msg.visited:
                yield self._proto(v, Abort(msg.conv))
            if me == initiator:
                # After a death the conversation may already be
                # forfeited here, and a newer one active.
                if st is not None and st.conv == msg.conv:
                    if aud is not None:
                        aud.conv_close(msg.conv, "abort")
                    self._initiator_release(reason)
            elif initiator not in dead:
                if aud is not None:
                    aud.record("retry", msg.conv, f"send {reason.value}")
                yield self._proto(initiator,
                                  Retry(msg.conv, reason.value, gone))
            return
        self.reserved.update(mine)
        if msg.remaining:
            if me == initiator:
                raise ProtocolError(
                    f"rank {me}: initiator must terminate the chain")
            # Only a peer's death reads ``peers`` (fault tolerance).
            peers = () if self.channel is None else tuple(
                {msg.partner, *msg.visited, *msg.remaining} - {me})
            self.servant[msg.conv] = ServantState(
                msg.conv, checked_out=[], reserved=mine, peers=peers)
            if aud is not None:
                aud.conv_open(msg.conv, "owner")
            out = Validate(
                msg.conv, msg.e1, msg.e2, msg.kind, msg.partner,
                visited=msg.visited + (me,), remaining=msg.remaining[1:],
            )
            yield self._proto(msg.remaining[0], out)
            return
        # Chain complete: I am the initiator — commit.
        if me != initiator:
            raise ProtocolError(
                f"rank {me}: chain ended at non-initiator (conv {msg.conv})")
        if st is None or st.conv != msg.conv:
            raise ProtocolError(
                f"rank {me}: commit for unknown conversation {msg.conv}")
        st.reserved.extend(mine)
        if aud is not None and mine:
            aud.record("reserve", msg.conv, f"n={len(mine)}")
        self._apply_local(st.checked_out, st.reserved)
        yield self.check_ops[4]
        for v in msg.visited:
            yield self._proto(v, Commit(msg.conv))
        # Pipelining: the switch is complete for initiation purposes the
        # moment the commits are sent — the next operation may start
        # while they are in flight.  Each receiver holds a servant entry
        # until its Commit lands, and termination's phase 1 waits for
        # every servant table to empty.
        if aud is not None:
            aud.record("commit", msg.conv, f"send to={list(msg.visited)}")
            aud.conv_close(msg.conv, "commit")
        self.report.bump_span(len(msg.visited) + 1)
        self._complete_active()

    def handle_retry(self, source: int, msg: Retry):
        """Initiator role: the attempt failed somewhere; release
        everything and fall back to the initiation loop."""
        if msg.dead >= 0:
            # Learn of the death that caused it first: its obituary may
            # still be on the way.
            yield from self._on_rank_dead(msg.dead)
        st = self.active
        if st is None or st.conv != msg.conv:
            if self.dead:
                # After a death, a forfeited or already-resolved
                # conversation can still receive late Retries (several
                # servants report the same dead peer).
                if self.audit is not None:
                    self.audit.record("retry", msg.conv, "recv stale ignored")
                return
            raise ProtocolError(
                f"rank {self.ctx.rank}: Retry for unknown conversation "
                f"{msg.conv}")
        if self.audit is not None:
            self.audit.conv_close(msg.conv, "retry")
        self._initiator_release(FailureReason(msg.reason))
        self.consecutive_failures += 1

    def handle_abort(self, source: int, msg: Abort):
        """Servant role: drop conversation state, undo checkout and
        reservations."""
        st = self.servant.pop(msg.conv, None)
        if st is None:
            if self.dead:
                # After a death: state already dropped (peer death
                # cleanup raced the abort), nothing left to undo.
                if self.audit is not None:
                    self.audit.record("abort", msg.conv, "recv stale ignored")
                return
            raise ProtocolError(
                f"rank {self.ctx.rank}: Abort for unknown conversation "
                f"{msg.conv}")
        if self.audit is not None:
            self.audit.conv_close(msg.conv, "abort")
        self._release(st)
        return
        yield  # pragma: no cover

    def handle_commit(self, source: int, msg: Commit):
        """Servant role: apply my share of the switch.  Nothing is sent
        back; the initiator counted the switch when it committed."""
        st = self.servant.pop(msg.conv, None)
        if st is None:
            if self.dead:
                # Torn commit: our state went down with a dead peer but
                # the initiator committed before learning of the death.
                # The switch is accepted as torn (simplicity still
                # holds; degree conservation is knowingly given up on
                # death).
                if self.audit is not None:
                    self.audit.record("commit", msg.conv,
                                      "recv stale ignored")
                return
            raise ProtocolError(
                f"rank {self.ctx.rank}: Commit for unknown conversation "
                f"{msg.conv}")
        if self.audit is not None:
            self.audit.conv_close(msg.conv, "commit")
        self._apply_local(st.checked_out, st.reserved)
        yield self.check_ops[len(st.checked_out) + len(st.reserved)]

    # -- local application ------------------------------------------------------

    def _apply_local(self, checked_out: List[Edge], reserved: List[Edge]) -> None:
        for e in checked_out:
            self.part.commit_removal(e)
            self.tracker.consume(e)
        for e in reserved:
            self.reserved.discard(e)
            self.part.add_edge(*e)

    def _complete_active(self) -> None:
        st = self.active
        self.quota -= 1
        self.consecutive_failures = 0
        self.report.switches_completed += 1
        if st.e2 is not None:  # local pair (partner == me)
            self.report.local_switches += 1
        else:
            self.report.global_switches += 1
        self.active = None

    def _release(self, st) -> None:
        """Undo a conversation's checkouts and reservations here."""
        for e in st.checked_out:
            self.part.release(e)
        for e in st.reserved:
            self.reserved.discard(e)

    def _initiator_release(self, reason: FailureReason) -> None:
        self._release(self.active)
        self.report.bump_rejection(reason)
        self.active = None
