"""Protocol flight recorder and online invariant auditor.

Correctness tooling for the distributed switch protocol (Sections
4.4/4.5): every rank can record its conversation events (initiate →
request → validate → reserve → commit / retry / abort) into a
bounded ring buffer, while an online auditor checks protocol
invariants at event, step, and run boundaries:

* per-conversation checkout/reservation balance (each open
  conversation resolved exactly once);
* a sealed step end — no conversation message reaches a rank after
  its phase-1 termination report (runs without fault tolerance);
* quiescence at every step boundary — no initiator or servant state,
  no reservations, no checked-out edges;
* budget conservation — per step, ``assigned == completed +
  forfeited``; per run, ``t == completed + unfulfilled``;
* global edge-count conservation at every step's allgather.

On violation the auditor raises
:class:`~repro.errors.ProtocolAuditError` carrying a compact event
trace, so a protocol bug arrives with its own minimal repro.  Auditing
is opt-in (``parallel_edge_switch(..., audit=True)``) and the hot path
pays only a ``None`` check when it is off.

Layers:

* :mod:`~repro.audit.events` — the event vocabulary;
* :mod:`~repro.audit.recorder` — the bounded per-rank ring buffer;
* :mod:`~repro.audit.auditor` — the online invariant checker.
"""

from repro.audit.auditor import AuditConfig, AuditScope, ProtocolAuditor
from repro.audit.events import AuditEvent, EVENT_KINDS
from repro.audit.recorder import FlightRecorder

__all__ = [
    "AuditConfig",
    "AuditScope",
    "AuditEvent",
    "EVENT_KINDS",
    "FlightRecorder",
    "ProtocolAuditor",
]
