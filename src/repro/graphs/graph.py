"""A simple undirected graph stored as adjacency sets.

"Simple" is enforced as an invariant (Section 2 of the paper): no
self-loops, no parallel edges.  Adjacency sets give the ``O(1)``
membership test that the switch-feasibility checks of Section 3.2 rely
on (the paper uses balanced trees for ``O(log d)``; hash sets are the
idiomatic Python equivalent with the same role).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Set

from repro.errors import GraphError, NotSimpleError
from repro.types import Edge, Vertex

__all__ = ["SimpleGraph"]


class SimpleGraph:
    """An undirected simple graph over vertices ``0 .. n-1``.

    Vertices are created eagerly: the constructor takes the vertex count
    and all labels in ``range(n)`` exist from the start (matching the
    paper's labelling convention).

    >>> g = SimpleGraph(4)
    >>> g.add_edge(0, 1); g.add_edge(1, 2)
    >>> sorted(g.edges())
    [(0, 1), (1, 2)]
    >>> g.degree(1)
    2
    """

    __slots__ = ("_adj", "_num_edges")

    def __init__(self, num_vertices: int):
        if num_vertices < 0:
            raise GraphError(f"vertex count must be >= 0, got {num_vertices}")
        self._adj: List[Set[int]] = [set() for _ in range(num_vertices)]
        self._num_edges = 0

    # -- construction ---------------------------------------------------

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[Edge]) -> "SimpleGraph":
        """Build a graph from an iterable of edges (duplicates rejected).

        Equivalent to :meth:`add_edge` per edge, in order, and raises the
        same errors, but without two method calls and two range checks
        per edge.  Adjacency sets are filled in edge order, so
        :meth:`edges` iterates as it would after the per-edge build.
        """
        g = cls(num_vertices)
        adj = g._adj
        count = 0
        for u, v in edges:
            if u == v or not (0 <= u < num_vertices and 0 <= v < num_vertices):
                g._check_vertex(u)
                g._check_vertex(v)
                raise NotSimpleError(f"self-loop at vertex {u}")
            nbrs = adj[u]
            if v in nbrs:
                raise NotSimpleError(f"parallel edge ({u}, {v})")
            nbrs.add(v)
            adj[v].add(u)
            count += 1
        g._num_edges = count
        return g

    def copy(self) -> "SimpleGraph":
        """Deep copy (adjacency sets are duplicated)."""
        g = SimpleGraph(self.num_vertices)
        g._adj = [set(nbrs) for nbrs in self._adj]
        g._num_edges = self._num_edges
        return g

    # -- basic queries ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """``n = |V|``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """``m = |E|``."""
        return self._num_edges

    def degree(self, u: Vertex) -> int:
        """``d_u = |N(u)|``."""
        self._check_vertex(u)
        return len(self._adj[u])

    def neighbors(self, u: Vertex) -> Set[int]:
        """The adjacency set ``N(u)`` (live view; do not mutate)."""
        self._check_vertex(u)
        return self._adj[u]

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """``O(1)`` membership test for edge ``{u, v}``."""
        if not (0 <= u < len(self._adj)) or not (0 <= v < len(self._adj)):
            return False
        return v in self._adj[u]

    def edges(self) -> Iterator[Edge]:
        """Iterate every edge once, in canonical ``(u, v), u < v`` form."""
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def edge_list(self) -> List[Edge]:
        """Materialised, sorted canonical edge list."""
        return sorted(self.edges())

    def degree_sequence(self) -> List[int]:
        """Degrees of all vertices in label order."""
        return [len(nbrs) for nbrs in self._adj]

    # -- mutation ---------------------------------------------------------

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Insert edge ``{u, v}``; raises :class:`NotSimpleError` on a
        self-loop or an already-present edge."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise NotSimpleError(f"self-loop at vertex {u}")
        if v in self._adj[u]:
            raise NotSimpleError(f"parallel edge ({u}, {v})")
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove edge ``{u, v}``; raises :class:`GraphError` if absent."""
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._adj[u]:
            raise GraphError(f"edge ({u}, {v}) not in graph")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1

    # -- comparison / verification -----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self):  # graphs are mutable
        raise TypeError("SimpleGraph is unhashable")

    def check_invariants(self) -> None:
        """Assert internal consistency: symmetric adjacency, no loops,
        edge count matches.  Used by tests and failure-injection code."""
        count = 0
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u == v:
                    raise NotSimpleError(f"self-loop at {u}")
                if u not in self._adj[v]:
                    raise GraphError(f"asymmetric adjacency: {u}->{v}")
                if u < v:
                    count += 1
        if count != self._num_edges:
            raise GraphError(
                f"edge count mismatch: counted {count}, recorded {self._num_edges}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimpleGraph(n={self.num_vertices}, m={self.num_edges})"

    # -- helpers ------------------------------------------------------------

    def _check_vertex(self, u: Vertex) -> None:
        if not (0 <= u < len(self._adj)):
            raise GraphError(
                f"vertex {u} out of range [0, {len(self._adj)})"
            )
