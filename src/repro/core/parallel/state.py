"""Per-rank runtime state and result records for the parallel switch."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.constraints import FailureReason
from repro.graphs.reduced import ReducedAdjacencyGraph
from repro.types import Edge

__all__ = ["InitiatorState", "ServantState", "RankReport"]


@dataclass
class InitiatorState:
    """The (single) conversation this rank currently has in flight as
    initiator."""

    conv: Tuple[int, int]
    e1: Edge
    #: Second edge once known (set for local-partner conversations).
    e2: Optional[Edge] = None
    #: Checked-out edges this rank must finalise/release (always e1;
    #: plus e2 when the partner is the initiator itself).
    checked_out: List[Edge] = field(default_factory=list)
    #: Replacement edges this rank reserved (to add at commit).
    reserved: List[Edge] = field(default_factory=list)


@dataclass
class ServantState:
    """State held for a conversation this rank serves (partner or
    replacement-edge owner)."""

    conv: Tuple[int, int]
    #: Edges checked out here (the partner's e2), finalised at commit.
    checked_out: List[Edge] = field(default_factory=list)
    #: Replacement edges reserved here, added at commit.
    reserved: List[Edge] = field(default_factory=list)
    #: Every other participating rank this servant knows of (fault
    #: tolerance: state is dropped if any of them dies).
    peers: Tuple[int, ...] = ()


@dataclass
class RankReport:
    """What one rank returns from a parallel switching run."""

    rank: int
    #: Switch operations this rank initiated and completed.
    switches_completed: int = 0
    #: ... of which both edges were local (zero-message fast path).
    local_switches: int = 0
    #: ... of which involved at least one other rank.
    global_switches: int = 0
    #: Total switch operations assigned over all steps (the paper's
    #: per-rank "workload", Figs. 19–21).
    assigned_total: int = 0
    #: Assigned operations this rank could not perform (empty pool).
    forfeited: int = 0
    #: Failed attempts by reason.
    rejections: Dict[str, int] = field(default_factory=dict)
    #: Steps executed.
    steps: int = 0
    #: Initial edges of this rank's partition touched by switches.
    visited_count: int = 0
    #: Initial edges of this rank's partition.
    initial_count: int = 0
    #: |E_i| at the end of the run.
    final_edges: int = 0
    #: |E_i| at the start of the run.
    initial_edges: int = 0
    #: Completed initiated conversations by number of participating
    #: ranks (1 = fully local zero-message switch).  The paper's
    #: reduced-adjacency-list argument is that this stays at 2-3.
    span_histogram: Dict[int, int] = field(default_factory=dict)
    #: Final edge list of this rank's partition — populated only when
    #: the config asks for it (process backend, where the driver cannot
    #: read the partitions out of the workers' memory).
    final_edge_list: Optional[List[Edge]] = None
    #: |E_i| after every step — the drift time series behind Fig. 18.
    edge_trajectory: List[int] = field(default_factory=list)
    #: Budget the run ended without delivering (``remaining`` at exit;
    #: global, so every rank reports the same value).  Non-zero when
    #: the step guard or an all-forfeit step stopped the run early —
    #: previously this shortfall was silently dropped.
    unfulfilled: int = 0
    #: Fault-tolerance channel counters (all zero when it is off):
    #: serve-loop ticks waited out, frames retransmitted, duplicate
    #: frames suppressed, and frames given up after ``MAX_RETRIES``.
    ft_ticks: int = 0
    retransmits: int = 0
    dup_drops: int = 0
    abandoned: int = 0
    #: Flight-recorder event tail, populated only when auditing is on
    #: (the process backend ships events home through here).
    audit_events: Optional[List] = None

    def bump_span(self, ranks_involved: int) -> None:
        self.span_histogram[ranks_involved] = (
            self.span_histogram.get(ranks_involved, 0) + 1)

    def bump_rejection(self, reason: FailureReason) -> None:
        key = reason.value
        self.rejections[key] = self.rejections.get(key, 0) + 1
