"""Visit-rate tracking (Section 3.1).

An edge of the *initial* graph is "visited" once it participates in
any switch operation.  The visit rate is the fraction of initial edges
visited; edges created by switches (modified edges) are never counted,
even if a later switch happens to re-create an initial edge's label
pair — the initial edge was consumed when it first participated.
"""

from __future__ import annotations

from typing import Iterable, Set

from repro.types import Edge, canonical_edge

__all__ = ["VisitTracker"]


class VisitTracker:
    """Tracks which initial edges have been consumed by switches."""

    __slots__ = ("_initial_count", "_remaining")

    def __init__(self, edges: Iterable[Edge]):
        # canonical_edge, inlined: one call per initial edge adds up.
        self._remaining: Set[Edge] = {(u, v) if u <= v else (v, u)
                                      for u, v in edges}
        self._initial_count = len(self._remaining)

    @property
    def initial_count(self) -> int:
        """``m``: number of edges in the initial graph."""
        return self._initial_count

    @property
    def visited_count(self) -> int:
        """``m'``: initial edges touched so far."""
        return self._initial_count - len(self._remaining)

    @property
    def visit_rate(self) -> float:
        """``x' = m'/m``."""
        if self._initial_count == 0:
            return 0.0
        return self.visited_count / self._initial_count

    def consume(self, edge: Edge) -> None:
        """Record that ``edge`` participated in a switch.  No-op for
        modified edges (not in the initial set)."""
        self._remaining.discard(canonical_edge(*edge))

    def is_original(self, edge: Edge) -> bool:
        """True iff ``edge`` is an initial edge not yet visited."""
        return canonical_edge(*edge) in self._remaining

    def merge_visited(self, other: "VisitTracker") -> None:
        """Fold another tracker's progress into this one (used to
        aggregate per-rank trackers after a parallel run: both must have
        been built over the same initial edge subset semantics —
        disjoint subsets, so intersection of remaining is a union merge).
        """
        # Per-rank trackers cover disjoint edge subsets, so combining is
        # simple set union of remaining over a union of initials.
        self._remaining |= other._remaining
        self._initial_count += other._initial_count
