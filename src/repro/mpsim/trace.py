"""Execution counters collected by all three backends.

One :class:`RankTrace` per rank; the cluster aggregates them into a
:class:`ClusterTrace`.  The scaling benches read simulated busy time
and message counts from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

__all__ = ["RankTrace", "ClusterTrace"]


@dataclass
class RankTrace:
    """Counters for one rank."""

    rank: int
    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    compute_time: float = 0.0
    collectives: int = 0
    finish_time: float = 0.0
    #: Messages still sitting in this rank's mailbox when its program
    #: returned.  Always 0 for a correct protocol — the auditor treats
    #: any leftover as a violation (e.g. a DoneUp that outran cleanup).
    undelivered: int = 0
    #: True when a fault plan crashed this rank (fail-stop).  A crashed
    #: rank's leftover mailbox is *not* counted as undelivered.
    crashed: bool = False
    #: Messages sent towards an already-dead rank (dropped by the
    #: backend, never delivered).
    dead_letters: int = 0
    #: Faults the plan injected on this rank (drop/dup/delay/crash/stall).
    faults_injected: int = 0
    #: Human-readable description of each injected fault, in order.
    fault_events: List[str] = field(default_factory=list)

    def record_send(self, nbytes: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += nbytes

    def record_recv(self) -> None:
        self.messages_received += 1

    def record_compute(self, cost: float) -> None:
        self.compute_time += cost

    def record_collective(self) -> None:
        self.collectives += 1


@dataclass
class ClusterTrace:
    """Aggregate view over all ranks of one run."""

    ranks: List[RankTrace] = field(default_factory=list)

    @property
    def total_messages(self) -> int:
        return sum(r.messages_sent for r in self.ranks)

    @property
    def total_bytes(self) -> int:
        return sum(r.bytes_sent for r in self.ranks)

    @property
    def total_compute(self) -> float:
        return sum(r.compute_time for r in self.ranks)

    @property
    def total_undelivered(self) -> int:
        """Messages never consumed by any rank program (0 when the
        protocol drained cleanly)."""
        return sum(r.undelivered for r in self.ranks)

    @property
    def total_faults_injected(self) -> int:
        """Faults the plan injected across all ranks (0 without a plan)."""
        return sum(r.faults_injected for r in self.ranks)

    @property
    def crashed_ranks(self) -> List[int]:
        """Ranks a fault plan crashed, ascending."""
        return [r.rank for r in self.ranks if r.crashed]

    @property
    def makespan(self) -> float:
        """Simulated completion time (max finish over ranks)."""
        return max((r.finish_time for r in self.ranks), default=0.0)

    def compute_times(self) -> List[float]:
        """Per-rank busy times — the workload-distribution series of
        Figs. 19–21."""
        return [r.compute_time for r in self.ranks]
