"""Wire protocol of the distributed switching algorithm.

Every message carries a *conversation id* ``conv = (initiator_rank,
serial)`` identifying one switch attempt.  A conversation touches up to
four ranks:

* the **initiator** ``P_i`` holding the first edge ``e1``;
* the **partner** ``P_j`` holding the second edge ``e2`` (may equal
  ``P_i`` — a *local switch*);
* the **owners** of the two replacement edges (each is the rank owning
  the replacement's lower endpoint; may coincide with ``P_i``/``P_j``
  or be third parties — the ``P_k`` of the paper's case analysis).

Message flow of a successful global switch::

    P_i --SwitchRequest(e1)--> P_j
    P_j: select e2, pick kind, validate own edges, reserve
    P_j --Validate--> owner --Validate--> ... --Validate--> P_i
    P_i: validate own edges, apply local ops
    P_i --Commit--> every other participant
    participant: apply ops

On any validation failure the failing rank sends :class:`Abort` to all
participants that already hold state and :class:`Retry` to the
initiator, which releases ``e1`` and restarts with a fresh pair — the
restart rule of Section 4.4.

All messages travel under one tag (:data:`TAG_PROTO`); dispatch is by
payload type.  FIFO per channel is guaranteed by the backends.  Nothing
acknowledges a Commit: step termination (:class:`DoneUp`,
:class:`DoneAll`) proves every Commit and Abort has landed.

Payloads are :class:`typing.NamedTuple` subclasses, like the ops of
:mod:`repro.mpsim.ops`: one is built per protocol hop, and a tuple is
several times cheaper to construct than a frozen dataclass while
staying immutable and picklable.  Tuple equality ignores the type
(``Abort(c) == Commit(c)``), so code tells payloads apart with
``type()`` and never compares two payloads with ``==``.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from repro.types import Edge

__all__ = [
    "TAG_PROTO",
    "Conv",
    "SwitchRequest",
    "Validate",
    "Retry",
    "Abort",
    "Commit",
    "DoneUp",
    "DoneAll",
    "Frame",
    "FrameAck",
    "NBYTES",
    "FRAME_OVERHEAD",
    "wire_nbytes",
]

#: Single tag for all protocol traffic (dispatch is on payload type).
TAG_PROTO = 1

#: Conversation id: (initiator rank, per-initiator attempt serial).
Conv = Tuple[int, int]


class SwitchRequest(NamedTuple):
    """Initiator → partner: "switch my ``e1`` with one of your edges"."""

    conv: Conv
    e1: Edge


class Validate(NamedTuple):
    """Chain message: validate & reserve the replacement edges you own.

    ``visited`` lists ranks already holding conversation state (for
    aborts); ``remaining`` is the rest of the chain, initiator last.
    """

    conv: Conv
    e1: Edge
    e2: Edge
    kind: str  # "cross" | "straight"
    partner: int
    visited: Tuple[int, ...]
    remaining: Tuple[int, ...]


class Retry(NamedTuple):
    """Any participant → initiator: attempt failed, pick a new pair.

    ``dead`` names the rank whose death caused the failure (``-1``: no
    death).  The receiver learns of that death first, because a Retry
    can arrive before the dead rank's obituary (process backend: they
    travel on different pipes)."""

    conv: Conv
    reason: str  # FailureReason.value
    dead: int = -1


class Abort(NamedTuple):
    """Failure cleanup: release checkouts and reservations for ``conv``."""

    conv: Conv


class Commit(NamedTuple):
    """Initiator → participants: all checks passed, apply your ops."""

    conv: Conv


class DoneUp(NamedTuple):
    """Termination wave, towards the root: the sender and every rank
    below it satisfy ``phase``'s condition for step ``step``.

    Phase 0: every initiator is done (quota spent, no conversation of
    its own open).  Phase 1: no servant state is held.  Both
    conditions are stable once reported, so a report never goes stale
    (docs/protocol.md, *Termination*)."""

    step: int
    phase: int


class DoneAll(NamedTuple):
    """Termination wave, away from the root: every rank reported
    ``phase``.  Phase 0 starts phase 1; phase 1 ends the step, so the
    receiver stops serving and proceeds to the step barrier."""

    step: int
    phase: int


class Frame(NamedTuple):
    """Fault-tolerance envelope around a protocol message.

    ``seq`` is the sender's per-destination frame serial, from 0
    without gaps; the receiver uses ``(source, seq)`` for duplicate
    suppression.  ``ack`` is a cumulative acknowledgement riding along:
    every frame the destination sent the sender with a seq below
    ``ack`` has arrived.  Only used when fault tolerance is enabled —
    the fault-free hot path sends payloads bare.
    """

    seq: int
    ack: int
    payload: object


class FrameAck(NamedTuple):
    """Receiver → sender, when no frame carries the ack: every frame
    with a seq below ``upto`` arrived.  With ``nack`` set, frame
    ``upto`` is missing while later ones arrived: resend it now.  Not
    itself framed or acknowledged, so acks cannot recurse."""

    upto: int
    nack: bool = False


#: Approximate on-wire sizes per message type, for the cost model.
NBYTES = {
    SwitchRequest: 40,
    Validate: 96,
    Retry: 32,
    Abort: 24,
    Commit: 24,
    DoneUp: 16,
    DoneAll: 16,
    FrameAck: 16,
}

#: Framing overhead added on top of the inner payload's size.
FRAME_OVERHEAD = 16


def wire_nbytes(payload: object) -> int:
    """On-wire size estimate for a (possibly framed) protocol payload."""
    if isinstance(payload, Frame):
        return FRAME_OVERHEAD + wire_nbytes(payload.payload)
    return NBYTES.get(type(payload), 64)
