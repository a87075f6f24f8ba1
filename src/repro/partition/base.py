"""Partitioner interface and the partition builder.

A partitioner is a pure function ``vertex label -> rank``; the builder
materialises the per-rank :class:`ReducedAdjacencyGraph` partitions from
a full graph.  The contract (checked by tests): partitions are disjoint,
cover all edges, and edge ``(u, v), u < v`` lands on ``owner(u)``.
"""

from __future__ import annotations

import abc
from typing import List

from repro.errors import PartitionError
from repro.graphs.graph import SimpleGraph
from repro.graphs.reduced import ReducedAdjacencyGraph

__all__ = ["Partitioner", "build_partitions"]


class Partitioner(abc.ABC):
    """Maps vertex labels to ranks."""

    def __init__(self, num_vertices: int, num_ranks: int):
        if num_ranks < 1:
            raise PartitionError(f"need at least 1 rank, got {num_ranks}")
        if num_vertices < 0:
            raise PartitionError(f"vertex count must be >= 0, got {num_vertices}")
        self.num_vertices = num_vertices
        self.num_ranks = num_ranks

    @abc.abstractmethod
    def owner(self, v: int) -> int:
        """Rank owning vertex ``v`` (deterministic, total)."""

    def vertices_of(self, rank: int) -> List[int]:
        """All vertex labels owned by ``rank``.

        Default is an O(n) scan; subclasses with closed-form inverses
        (e.g. consecutive ranges) override it.
        """
        if not 0 <= rank < self.num_ranks:
            raise PartitionError(f"rank {rank} out of range [0, {self.num_ranks})")
        return [v for v in range(self.num_vertices) if self.owner(v) == rank]

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short scheme name used in experiment tables ("CP", "HP-U", …)."""


def build_partitions(
    graph: SimpleGraph, partitioner: Partitioner
) -> List[ReducedAdjacencyGraph]:
    """Materialise one reduced-adjacency partition per rank.

    Edge ``(u, v), u < v`` is stored on ``partitioner.owner(u)``; each
    rank's pool lists its edges in ``graph.edges()`` order (see
    :meth:`ReducedAdjacencyGraph.from_simple`).
    """
    if partitioner.num_vertices != graph.num_vertices:
        raise PartitionError(
            f"partitioner built for n={partitioner.num_vertices}, "
            f"graph has n={graph.num_vertices}"
        )
    vert_lists: List[List[int]] = [[] for _ in range(partitioner.num_ranks)]
    for v in range(graph.num_vertices):
        r = partitioner.owner(v)
        if not 0 <= r < partitioner.num_ranks:
            raise PartitionError(f"owner({v}) = {r} outside [0, {partitioner.num_ranks})")
        vert_lists[r].append(v)
    return [ReducedAdjacencyGraph.from_simple(graph, vs) for vs in vert_lists]
