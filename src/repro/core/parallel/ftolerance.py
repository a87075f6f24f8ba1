"""Protocol-level fault tolerance: reliable conversations over a lossy
transport.

The switching protocol of Section 4.4 assumes reliable FIFO channels.
A :class:`FaultPlan` (see :mod:`repro.mpsim.faults`) breaks that
assumption — messages drop, duplicate and reorder, and ranks fail-stop.
This module supplies the recovery layer between the conversation
handlers and the transport:

* **framing** — with fault tolerance enabled every protocol payload
  travels inside a :class:`~repro.core.parallel.messages.Frame`
  carrying a per-destination sequence number;
* **acknowledgement & retransmit** — the receiver answers each frame
  with a :class:`~repro.core.parallel.messages.FrameAck`; unacked
  frames are retransmitted on conversation-level timeouts (the serve
  loop's timed receive) with seeded, bounded exponential backoff;
* **idempotent receive** — duplicates (from the fault plan or from
  retransmission) are suppressed by ``(source, seq)`` bookkeeping,
  making every handler effectively exactly-once.  Senders number
  frames per destination from 0 without gaps, so each source needs
  only a low-water mark (every seq below it was delivered) plus the
  set of seqs delivered ahead of it; memory is bounded by the
  reordering window, not by the run length.  ``dedup=False``
  disables the suppression — the mutation-test knob: the auditor must
  then catch the resulting double-applies;
* **bounded delivery** — after ``max_retries`` retransmissions a frame
  is abandoned.  Until then the step's two-phase termination wave
  holds the step open for every conversation payload: a lost
  SwitchRequest, Validate or Retry keeps its initiator from reporting
  phase 0, a lost Commit or Abort keeps its servant from reporting
  phase 1, and a lost DoneUp keeps the root from deciding.  The sender
  stays in its serve loop and retransmits until the frame lands.  A
  lost DoneAll copy is covered by the other ranks' re-floods.

Everything here is pure bookkeeping — no yields, no I/O — so it can be
unit-tested without a cluster and reused identically by all three
backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.parallel.messages import Frame, FrameAck
from repro.util.rng import RngStream

__all__ = ["FTConfig", "ReliableChannel"]


@dataclass(frozen=True)
class FTConfig:
    """Fault-tolerance parameters (carried in
    :class:`~repro.core.parallel.driver.ParallelSwitchConfig`).

    ``tick`` is the serve loop's receive timeout in backend-local units
    (simulated cost units on the discrete-event backend, seconds on
    threads/procs); ``None`` lets the driver pick a backend default.
    """

    #: Serve-loop receive timeout (one "tick"); backend-local units.
    tick: Optional[float] = None
    #: Retransmit an unacked frame after this many ticks.
    retransmit_after: int = 3
    #: Backoff multiplier applied to the wait after each retransmit.
    backoff: float = 2.0
    #: Give up on a frame after this many retransmissions.
    max_retries: int = 8
    #: Seed of the per-rank retransmit-jitter stream.
    seed: int = 0
    #: Duplicate suppression on receive.  Disabling it is deliberately
    #: breaking the protocol — the mutation-test knob for the auditor.
    dedup: bool = True

    def __post_init__(self):
        if self.retransmit_after < 1:
            raise ValueError("retransmit_after must be >= 1")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


class _Pending:
    """One unacked frame awaiting acknowledgement."""

    __slots__ = ("dest", "frame", "due_tick", "retries")

    def __init__(self, dest: int, frame: Frame, due_tick: int):
        self.dest = dest
        self.frame = frame
        self.due_tick = due_tick
        self.retries = 0


class ReliableChannel:
    """Per-rank framing, dedup, and retransmit state.

    The owner drives it from the serve loop: :meth:`wrap` on send,
    :meth:`accept`/:meth:`on_ack` on receive, :meth:`on_tick` whenever
    the timed receive expires, :meth:`cancel_dest` on a peer's death.
    """

    __slots__ = ("cfg", "rank", "next_seq", "pending", "low_water",
                 "out_of_order", "ticks", "retransmits", "dup_drops",
                 "abandoned", "_jitter")

    def __init__(self, rank: int, cfg: FTConfig):
        self.cfg = cfg
        self.rank = rank
        self.next_seq: Dict[int, int] = {}
        #: (dest, seq) -> _Pending, insertion-ordered (oldest first).
        self.pending: Dict[Tuple[int, int], _Pending] = {}
        #: Per source: every frame seq below this was delivered.
        self.low_water: Dict[int, int] = {}
        #: Per source: delivered seqs above the low-water mark.
        self.out_of_order: Dict[int, Set[int]] = {}
        self.ticks = 0
        self.retransmits = 0
        self.dup_drops = 0
        self.abandoned = 0
        self._jitter = RngStream((cfg.seed, rank))

    # -- sending -------------------------------------------------------

    def wrap(self, dest: int, payload) -> Frame:
        """Frame ``payload`` for ``dest`` and register it for
        retransmission until acknowledged."""
        seq = self.next_seq.get(dest, 0)
        self.next_seq[dest] = seq + 1
        frame = Frame(seq, payload)
        # Seeded jitter spreads the first retransmit over one extra
        # tick so simultaneous losses do not retransmit in lockstep.
        due = self.ticks + self.cfg.retransmit_after + self._jitter.randint(2)
        self.pending[(dest, seq)] = _Pending(dest, frame, due)
        return frame

    def on_ack(self, source: int, ack: FrameAck) -> None:
        self.pending.pop((source, ack.seq), None)

    # -- receiving -----------------------------------------------------

    def accept(self, source: int, frame: Frame):
        """Dedup a received frame; returns the inner payload, or
        ``None`` when it is a duplicate (suppressed)."""
        if self.cfg.dedup:
            seq = frame.seq
            low = self.low_water.get(source, 0)
            ahead = self.out_of_order.get(source)
            if seq < low or (ahead and seq in ahead):
                self.dup_drops += 1
                return None
            if seq == low:
                low += 1
                if ahead:
                    while low in ahead:
                        ahead.discard(low)
                        low += 1
                self.low_water[source] = low
            elif ahead is None:
                self.out_of_order[source] = {seq}
            else:
                ahead.add(seq)
        return frame.payload

    # -- timeouts ------------------------------------------------------

    def on_tick(self) -> List[Tuple[int, Frame]]:
        """Advance the tick clock; returns the ``(dest, frame)`` pairs
        due for retransmission (already re-registered with backoff).
        Frames past ``max_retries`` are abandoned instead."""
        self.ticks += 1
        if not self.pending:
            return []
        out: List[Tuple[int, Frame]] = []
        dead_keys: List[Tuple[int, int]] = []
        for key, p in self.pending.items():
            if p.due_tick > self.ticks:
                continue
            if p.retries >= self.cfg.max_retries:
                dead_keys.append(key)
                continue
            p.retries += 1
            wait = self.cfg.retransmit_after * (self.cfg.backoff ** p.retries)
            p.due_tick = self.ticks + int(wait) + self._jitter.randint(2)
            out.append((p.dest, p.frame))
        for key in dead_keys:
            del self.pending[key]
            self.abandoned += 1
        self.retransmits += len(out)
        return out

    # -- death / teardown ----------------------------------------------

    def cancel_dest(self, dest: int) -> int:
        """A peer died: drop every unacked frame addressed to it.
        Returns how many were dropped."""
        keys = [k for k in self.pending if k[0] == dest]
        for k in keys:
            del self.pending[k]
        return len(keys)

    def clear_pending(self) -> int:
        """Drop all unacked frames (used at points where the protocol
        has independently proven delivery, e.g. a completed step's
        termination wave: only the acks, not the payloads, can be
        missing).  Returns how many were dropped."""
        n = len(self.pending)
        self.pending.clear()
        return n
