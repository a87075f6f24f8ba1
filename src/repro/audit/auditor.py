"""Online invariant auditor for the distributed switch protocol.

One :class:`ProtocolAuditor` per rank.  The protocol handlers feed it
conversation lifecycle hooks; the rank program feeds it step and run
boundaries.  Every hook records a flight-recorder event *and* updates
a small ledger of open conversations; any inconsistency raises
:class:`~repro.errors.ProtocolAuditError` with the offending
conversation's event trace attached.

Invariants checked
------------------

Event level
    * a conversation is opened at most once per rank and resolved
      (commit/abort/retry) exactly once;
    * termination is sealed — without a fault-tolerance channel, no
      conversation message reaches a rank after its phase-1 report
      (for the root, after its final decision) in the same step: the
      report claims that nothing is owed to the rank any more.

Step boundary (after DoneAll, at the step allgather)
    * ledger quiescence — no open conversations;
    * live-state quiescence — no initiator/servant state, no
      reservations, no checked-out edges (``pool_size == num_edges``);
    * budget conservation — ``assigned == completed + forfeited`` for
      the step just finished;
    * global edge-count conservation — the allgathered ``Σ|E_i|``
      equals its initial value.

Run boundary
    * the same quiescence battery once more (it also protects audit-off
      runs via ``SwitchRank._verify_quiescent``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.audit.events import AuditEvent
from repro.audit.recorder import DEFAULT_CAPACITY, FlightRecorder
from repro.errors import ProtocolAuditError

__all__ = ["AuditConfig", "AuditScope", "ProtocolAuditor"]

Conv = Tuple[int, int]


@dataclass(frozen=True)
class AuditConfig:
    """Auditing parameters carried inside ``ParallelSwitchConfig``."""

    #: Flight-recorder ring capacity per rank.
    ring: int = DEFAULT_CAPACITY
    #: Events per rank included when a failure trace is assembled.
    trail: int = 24


class AuditScope:
    """Driver-side registry of the live per-rank recorders.

    Shared-memory backends (sim, threads) register their recorders
    here, so when a run dies mid-flight (deadlock, protocol error) the
    driver can still assemble a cross-rank event trace.  The process
    backend pickles a copy per worker, so registrations stay in the
    children; its traces travel home in the rank reports instead and
    mid-flight failures carry no tail.
    """

    def __init__(self, config: AuditConfig):
        self.config = config
        self.recorders: Dict[int, FlightRecorder] = {}

    def register(self, rank: int, recorder: FlightRecorder) -> None:
        self.recorders[rank] = recorder

    def tails(self) -> Tuple[AuditEvent, ...]:
        """Recent events of every registered rank, merged in
        (step, rank, seq) order."""
        merged = []
        for recorder in self.recorders.values():
            merged.extend(recorder.tail(self.config.trail))
        merged.sort(key=lambda e: (e.step, e.rank, e.seq))
        return tuple(merged)


class ProtocolAuditor:
    """Per-rank online invariant checker; see the module docstring."""

    __slots__ = (
        "rank", "recorder", "trail", "open_convs", "sealed",
        "initial_global_edges", "_step_assigned", "_completed_base",
        "_forfeited_base",
    )

    def __init__(self, rank: int, config: Optional[AuditConfig] = None):
        config = config if config is not None else AuditConfig()
        self.rank = rank
        self.recorder = FlightRecorder(rank, config.ring)
        self.trail = config.trail
        #: Ledger of the conversations open here: conv -> role.
        self.open_convs: Dict[Conv, str] = {}
        #: This step's phase-1 report was made (see :meth:`seal`).
        self.sealed = False
        self.initial_global_edges: Optional[int] = None
        self._step_assigned = 0
        self._completed_base = 0
        self._forfeited_base = 0

    # -- raw recording -------------------------------------------------

    def record(self, kind: str, conv: Optional[Conv] = None,
               note: str = "") -> None:
        self.recorder.record(kind, conv, note)

    # -- failure path --------------------------------------------------

    def fail(self, message: str, conv: Optional[Conv] = None) -> None:
        """Record a violation event and raise with a compact trace."""
        self.recorder.record("violation", conv, message)
        if conv is not None:
            events = self.recorder.events_for(conv)
            if len(events) <= 1:
                # Only the violation itself survives — the lifecycle
                # events were evicted from the ring (e.g. by a retry
                # storm): fall back to the recent tail for context.
                events = self.recorder.tail(self.trail)
        else:
            events = self.recorder.tail(self.trail)
        raise ProtocolAuditError(
            message, rank=self.rank, step=self.recorder.step, conv=conv,
            events=events)

    # -- conversation ledger -------------------------------------------

    def conv_open(self, conv: Conv, role: str) -> None:
        if conv in self.open_convs:
            self.fail(f"conversation opened twice (role {role})", conv)
        self.open_convs[conv] = role

    def conv_close(self, conv: Conv, how: str) -> None:
        role = self.open_convs.pop(conv, None)
        if role is None:
            self.fail(f"{how} for a conversation not open here", conv)
        kind = how if how in ("commit", "abort", "retry", "forfeit") \
            else "commit"
        self.record(kind, conv, f"close role={role}")

    def seal(self) -> None:
        """This rank reported termination phase 1 (fault-free runs):
        no conversation message may reach it for the rest of the step."""
        self.sealed = True

    def conv_message(self, source: int, payload) -> None:
        """A conversation message is about to be handled here."""
        if self.sealed:
            self.fail(
                f"{type(payload).__name__} from rank {source} reached "
                f"this rank after its phase-1 termination report",
                payload.conv)

    def rebase_edges(self, global_edges: int, note: str = "") -> None:
        """A rank died: its partition leaves the global edge total, so
        the conservation baseline must move (fault tolerance only)."""
        self.initial_global_edges = global_edges
        self.record("rank_dead", note=note or f"rebase={global_edges}")

    # -- boundaries ----------------------------------------------------

    def begin_run(self, global_edges: int) -> None:
        self.initial_global_edges = global_edges

    def begin_step(self, step: int, assigned: int, report) -> None:
        self.recorder.step = step
        self.sealed = False
        self._step_assigned = assigned
        self._completed_base = report.switches_completed
        self._forfeited_base = report.forfeited
        self.record("step_begin", note=f"assigned={assigned}")

    def end_step(self, step: int, rank_state, global_edges: int) -> None:
        """The full step-boundary battery; ``rank_state`` is the live
        :class:`~repro.core.parallel.rank_program.SwitchRank`."""
        if self.open_convs:
            conv = next(iter(self.open_convs))
            self.fail(
                f"{len(self.open_convs)} conversation(s) still open at "
                f"step end", conv)
        self._check_quiescent(rank_state, f"step {step} end")
        report = rank_state.report
        completed = report.switches_completed - self._completed_base
        forfeited = report.forfeited - self._forfeited_base
        if completed + forfeited != self._step_assigned:
            self.fail(
                f"budget leak in step {step}: assigned "
                f"{self._step_assigned} != completed {completed} + "
                f"forfeited {forfeited}")
        if (self.initial_global_edges is not None
                and global_edges != self.initial_global_edges):
            self.fail(
                f"global edge count drifted: {global_edges} != "
                f"{self.initial_global_edges} at step {step} end")
        self.record("step_end")

    def end_run(self, rank_state) -> None:
        if self.open_convs:
            self.fail(
                f"{len(self.open_convs)} conversation(s) open at run end",
                next(iter(self.open_convs)))
        self._check_quiescent(rank_state, "run end")
        self.record("run_end")

    def _check_quiescent(self, rank_state, where: str) -> None:
        if rank_state.active is not None:
            self.fail(f"initiator state lingers at {where}",
                      rank_state.active.conv)
        if rank_state.servant:
            self.fail(
                f"{len(rank_state.servant)} servant conversation(s) "
                f"linger at {where}", next(iter(rank_state.servant)))
        if rank_state.reserved:
            sample = sorted(rank_state.reserved)[:4]
            self.fail(
                f"{len(rank_state.reserved)} reservation(s) linger at "
                f"{where}: {sample}")
        part = rank_state.part
        if part.pool_size != part.num_edges:
            self.fail(
                f"checked-out edges linger at {where}: pool "
                f"{part.pool_size} != edges {part.num_edges}")
