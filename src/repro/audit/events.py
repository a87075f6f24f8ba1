"""Event vocabulary of the protocol flight recorder.

One :class:`AuditEvent` is recorded per protocol action.  The kinds
mirror the conversation lifecycle of ``docs/protocol.md``:

========== =====================================================
kind        meaning
========== =====================================================
step_begin  a step started (note: assigned quota)
initiate    this rank started a conversation (note: partner/chain)
request     SwitchRequest received (partner role)
validate    Validate received (owner/initiator role)
reserve     replacement edges reserved (note: count)
commit      Commit sent/received (note: direction)
retry       Retry sent/received (note: direction + reason)
abort       Abort sent/received (note: direction)
local       fully local switch committed (zero messages)
forfeit     operations given up (note: count + reason)
done_up     DoneUp sent towards the termination root (note: phase)
done_all    DoneAll received or broadcast by the root (note: phase)
step_end    step boundary passed all invariant checks
run_end     run boundary reached
violation   an invariant check failed (the auditor raises too)
retransmit  an unacked frame was retransmitted (fault tolerance)
dup_drop    a duplicate frame was suppressed on receive
rank_dead   a peer's death was learned (note: cleanup performed)
checkpoint  a step-boundary snapshot was offered/restored
drain       end-of-run drain consumed leftover traffic (note: count)
========== =====================================================

Events are small frozen dataclasses so they pickle cheaply (the
process backend ships them home inside the rank report).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["AuditEvent", "EVENT_KINDS"]

#: The closed vocabulary; the recorder rejects kinds outside it so a
#: typo in a hook cannot silently create an unmatchable event stream.
EVENT_KINDS = frozenset({
    "step_begin",
    "initiate",
    "request",
    "validate",
    "reserve",
    "commit",
    "retry",
    "abort",
    "local",
    "forfeit",
    "done_up",
    "done_all",
    "step_end",
    "run_end",
    "violation",
    "retransmit",
    "dup_drop",
    "rank_dead",
    "checkpoint",
    "drain",
})


@dataclass(frozen=True)
class AuditEvent:
    """One recorded protocol action on one rank."""

    #: Per-rank monotone sequence number (gaps mean ring eviction).
    seq: int
    #: Step index the event occurred in (-1 before the first step).
    step: int
    #: Rank that recorded the event.
    rank: int
    #: One of :data:`EVENT_KINDS`.
    kind: str
    #: Conversation id ``(initiator, serial)`` when applicable.
    conv: Optional[Tuple[int, int]] = None
    #: Free-form short annotation (direction, counts, reason).
    note: str = ""

    def __str__(self) -> str:
        conv = f" conv={self.conv}" if self.conv is not None else ""
        note = f" [{self.note}]" if self.note else ""
        return (f"#{self.seq} step={self.step} rank={self.rank} "
                f"{self.kind}{conv}{note}")
