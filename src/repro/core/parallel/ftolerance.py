"""Protocol-level fault tolerance: reliable conversations over a lossy
transport.

The switching protocol of Section 4.4 assumes reliable FIFO channels.
A :class:`FaultPlan` (see :mod:`repro.mpsim.faults`) breaks that
assumption — messages drop, duplicate and reorder, and ranks fail-stop.
This module supplies the recovery layer between the conversation
handlers and the transport, one :class:`_Link` per peer:

* **framing** — with fault tolerance enabled every protocol payload
  travels inside a :class:`~repro.core.parallel.messages.Frame`
  carrying a per-destination sequence number, numbered from 0 without
  gaps;
* **cumulative, piggy-backed acknowledgement** — every frame also
  carries ``ack``, the sender's receive low-water mark for the
  destination (every seq below it arrived), and an ack clears every
  unacked frame below it.  A bare
  :class:`~repro.core.parallel.messages.FrameAck` goes out only for an
  ack no frame has carried: on a serve-loop tick, at once in answer to
  a duplicate (the sender is retransmitting, so it is missing an ack),
  and from the end-of-step drain;
* **gap NACK and retransmit** — a receiver that sees a seq above its
  low-water mark asks for the missing seq at once with a NACK (a
  ``FrameAck`` with ``nack`` set), as in TCP fast retransmit (RFC
  5681), and again on each tick while the gap is open.  Each peer
  also has one retransmit timer, counted in ticks (timed receives that
  expired idle): on expiry it resends only the *oldest* unacked frame,
  with seeded jitter and bounded exponential backoff, since a
  cumulative ack for it clears everything the receiver already holds;
* **idempotent receive** — duplicates (from the fault plan or from
  retransmission) are suppressed by the per-source low-water mark plus
  the set of seqs delivered ahead of it, making every handler
  effectively exactly-once.  A gap is always filled — its seq is
  NACKed and the sender keeps every frame until it is acked — so that
  set is bounded by the reordering window, not by the run length;
* **bounded delivery** — after ``MAX_RETRIES`` retransmissions the
  oldest frame to a peer is abandoned.  Until then the step's
  two-phase termination wave holds the step open for every
  conversation payload: a lost SwitchRequest, Validate or Retry keeps
  its initiator from reporting phase 0, a lost Commit or Abort keeps
  its servant from reporting phase 1, and a lost DoneUp keeps the root
  from deciding.  The sender stays in its serve loop and retransmits
  until the frame lands.  A lost DoneAll copy is covered by the other
  ranks' re-floods.

Once a step's wave has ended, :meth:`ReliableChannel.settle` stops the
timers: what is still unacked is proven delivered or no longer needed
(docs/protocol.md, *End-of-step drain*).  Such frames stay kept until
acked, so a NACK can still fill a gap they left.

Everything here is pure bookkeeping — no yields, no I/O — so it can be
unit-tested without a cluster and reused identically by all three
backends.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.parallel.messages import Frame, FrameAck
from repro.util.rng import BlockSampler, RngStream

__all__ = ["BACKOFF", "MAX_RETRIES", "RETRANSMIT_AFTER", "ReliableChannel"]

#: Retransmit the oldest unacked frame after this many ticks (timed
#: serve-loop receives that expired idle).
RETRANSMIT_AFTER = 3
#: Backoff multiplier applied to the wait after each retransmit.
BACKOFF = 2.0
#: Give up on a frame after this many retransmissions.
MAX_RETRIES = 8


class _Link:
    """Both directions of the channel between this rank and one peer."""

    __slots__ = ("next_seq", "unacked", "due", "retries", "mark", "low",
                 "ahead", "told", "nacked")

    def __init__(self):
        # -- sending
        self.next_seq = 0
        #: Frames sent and not yet acked, oldest (lowest seq) first.
        self.unacked: Deque[Frame] = deque()
        #: Tick at which ``unacked[0]`` is resent; None: timer stopped.
        self.due: Optional[int] = None
        #: Retransmissions of ``unacked[0]`` so far.
        self.retries = 0
        #: ``next_seq`` when this rank made its phase-1 report.
        self.mark = 0
        # -- receiving
        #: Every frame seq below this was delivered.
        self.low = 0
        #: Delivered seqs above ``low``.
        self.ahead: Set[int] = set()
        #: The highest ``low`` sent to the peer (an ack is owed while
        #: ``low > told``).
        self.told = 0
        #: ``low`` when the last NACK was sent (-1: none yet).
        self.nacked = -1


class ReliableChannel:
    """Per-rank framing, acknowledgement, dedup and retransmit state.

    The owner drives it from the serve loop: :meth:`wrap` on send,
    :meth:`accept`/:meth:`on_ack` on receive, :meth:`on_tick` whenever
    the timed receive expires, :meth:`mark` at its phase-1 termination
    report, :meth:`settle` when its step ends, :meth:`cancel_dest` on a
    peer's death.  Every method that produces a reply returns it; the
    owner sends it.
    """

    __slots__ = ("rank", "links", "ticks", "retransmits",
                 "dup_drops", "abandoned", "_jitter")

    def __init__(self, rank: int):
        self.rank = rank
        self.links: Dict[int, _Link] = {}
        self.ticks = 0
        self.retransmits = 0
        self.dup_drops = 0
        self.abandoned = 0
        # Drawn in blocks: the same values as scalar draws from this
        # stream, without a numpy call per armed timer.
        self._jitter = BlockSampler(RngStream((0, rank)))

    def link(self, peer: int) -> _Link:
        link = self.links.get(peer)
        if link is None:
            link = self.links[peer] = _Link()
        return link

    def _arm(self, link: _Link) -> None:
        # Seeded jitter spreads the first retransmit over one extra
        # tick so simultaneous losses do not retransmit in lockstep.
        link.due = self.ticks + RETRANSMIT_AFTER + self._jitter.index(2)

    # -- sending -------------------------------------------------------

    def wrap(self, dest: int, payload) -> Frame:
        """Frame ``payload`` for ``dest``, carrying the ack owed to it,
        and keep the frame until it is acknowledged."""
        link = self.link(dest)
        seq = link.next_seq
        link.next_seq = seq + 1
        link.told = low = link.low
        frame = Frame(seq, low, payload)
        link.unacked.append(frame)
        if link.due is None:
            self._arm(link)
        return frame

    def _resend(self, link: _Link) -> Frame:
        """A fresh copy of the oldest unacked frame, with the current
        ack."""
        seq, _, payload = link.unacked[0]
        link.told = low = link.low
        self.retransmits += 1
        return Frame(seq, low, payload)

    def on_ack(self, source: int, upto: int,
               nack: bool = False) -> Optional[Frame]:
        """Every frame to ``source`` below ``upto`` arrived: forget it.
        On a NACK (frame ``upto`` is missing), returns the copy of it
        to send now, if it is still held."""
        link = self.links.get(source)
        if link is None:
            return None
        q = link.unacked
        if q and q[0].seq < upto:
            q.popleft()
            while q and q[0].seq < upto:
                q.popleft()
            # Progress restarts a running timer; a stopped one (the
            # step has settled) stays stopped.
            if link.due is not None:
                link.retries = 0
                if q:
                    self._arm(link)
                else:
                    link.due = None
        if nack and q and q[0].seq == upto:
            return self._resend(link)
        return None

    # -- receiving -----------------------------------------------------

    def accept(self, source: int,
               frame: Frame) -> Tuple[object, Optional[FrameAck]]:
        """Take in a received frame: its piggy-backed ack, then dedup.

        Returns ``(payload, reply)``.  ``payload`` is ``None`` for a
        suppressed duplicate.  ``reply`` is a bare ack to send at once
        — for a duplicate (its sender is missing an ack) or a NACK for
        a newly seen gap — or ``None``."""
        link = self.link(source)
        seq, ack, payload = frame
        q = link.unacked
        if q and q[0].seq < ack:
            self.on_ack(source, ack)
        low = link.low
        ahead = link.ahead
        if seq == low:
            low += 1
            while low in ahead:
                ahead.discard(low)
                low += 1
            link.low = low
            # Still ahead: the next gap, asked for at once.
            return payload, self._ack(link) if ahead else None
        if seq < low or seq in ahead:
            self.dup_drops += 1
            return None, self._ack(link)
        ahead.add(seq)
        if link.nacked != low:
            return payload, self._ack(link)
        return payload, None

    def ack_now(self, source: int) -> FrameAck:
        """A bare ack for ``source``, to send now."""
        return self._ack(self.link(source))

    @staticmethod
    def _ack(link: _Link) -> FrameAck:
        """The bare cumulative ack for ``link``'s peer, a NACK while a
        gap is open; it counts as told."""
        link.told = low = link.low
        if link.ahead:
            link.nacked = low
            return FrameAck(low, True)
        return FrameAck(low)

    # -- timeouts ------------------------------------------------------

    def on_tick(self) -> List[Tuple[int, object]]:
        """Advance the tick clock; returns the ``(dest, payload)`` pairs
        to send: per peer, the oldest unacked frame when its timer is
        due, and a bare ack (a NACK while a gap is open) when one is
        owed that no frame carries.  A frame past ``MAX_RETRIES`` is
        abandoned instead, and the next one gets its own retries."""
        self.ticks = ticks = self.ticks + 1
        out: List[Tuple[int, object]] = []
        for dest, link in self.links.items():
            due = link.due
            if due is not None and due <= ticks:
                if link.retries >= MAX_RETRIES:
                    link.unacked.popleft()
                    self.abandoned += 1
                    link.retries = 0
                    if link.unacked:
                        self._arm(link)
                    else:
                        link.due = None
                else:
                    link.retries += 1
                    wait = RETRANSMIT_AFTER * BACKOFF ** link.retries
                    link.due = ticks + int(wait) + self._jitter.index(2)
                    out.append((dest, self._resend(link)))
            if link.ahead or link.low > link.told:
                out.append((dest, self._ack(link)))
        return out

    # -- step end ------------------------------------------------------

    def mark(self) -> None:
        """This rank made its phase-1 report: the step's wave proves
        delivery of every frame sent so far (see
        :meth:`since_mark`)."""
        for link in self.links.values():
            link.mark = link.next_seq

    def since_mark(self) -> Iterator[Tuple[int, type]]:
        """The destination and payload type of every frame still
        unacked that was sent after :meth:`mark`."""
        for dest, link in self.links.items():
            mark = link.mark
            for frame in reversed(link.unacked):
                if frame.seq < mark:
                    break
                yield dest, type(frame.payload)

    def settle(self) -> None:
        """The step ended here: stop every retransmit timer.  Frames
        still unacked stay kept until acked, for a NACK."""
        for link in self.links.values():
            link.due = None
            link.retries = 0

    # -- death ---------------------------------------------------------

    def cancel_dest(self, dest: int) -> int:
        """A peer died: forget its link, and so every unacked frame
        addressed to it.  Returns how many were dropped."""
        link = self.links.pop(dest, None)
        return 0 if link is None else len(link.unacked)
