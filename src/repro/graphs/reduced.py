"""The reduced adjacency list of Section 4.2, with O(1) uniform edge
sampling and the checkout discipline the concurrent protocol needs.

An edge ``(u, v)`` with ``u < v`` is stored *only* in the list of its
lower endpoint ``u``.  In the distributed algorithms each rank holds a
:class:`ReducedAdjacencyGraph` over the vertices it owns; an edge then
belongs to exactly one rank, which is what makes simultaneous selection
of the same edge by two ranks impossible.

Besides the per-vertex sets, the structure keeps an *indexed edge list*
(array + position map with swap-remove) so that selecting an edge
uniformly at random — the core primitive of every switch — is ``O(1)``,
as are insertion and deletion.

Checkout discipline
-------------------
While a switch conversation is in flight, the edges it selected must
(1) stay visible to parallel-edge existence checks (they are still in
the graph) but (2) leave the sampling pool so no concurrent
conversation can select them, and (3) be restorable if the conversation
aborts.  :meth:`checkout` / :meth:`release` / :meth:`commit_removal`
implement exactly that.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Dict, Iterable, Iterator, List, Optional, Set

from repro.errors import GraphError, NotSimpleError
from repro.types import Edge, Vertex
from repro.util.rng import RngStream

__all__ = ["ReducedAdjacencyGraph"]


class ReducedAdjacencyGraph:
    """Reduced adjacency lists over an arbitrary set of owned vertices.

    Parameters
    ----------
    vertices:
        The vertex labels this instance owns.  Edges may only be added
        if their *lower* endpoint is owned; the higher endpoint may be
        any label (it may live on another rank).

    >>> g = ReducedAdjacencyGraph([0, 1, 2])
    >>> g.add_edge(0, 5); g.add_edge(1, 2)
    >>> g.num_edges
    2
    >>> g.has_edge(0, 5)
    True
    """

    __slots__ = ("_adj", "_edges", "_index", "_checked")

    def __init__(self, vertices: Iterable[Vertex] = ()):
        self._adj: Dict[int, Set[int]] = {int(v): set() for v in vertices}
        self._edges: List[Edge] = []
        self._index: Dict[Edge, int] = {}
        self._checked: Set[Edge] = set()

    # -- construction -----------------------------------------------------

    @classmethod
    def from_simple(cls, graph, vertices: Optional[Iterable[Vertex]] = None
                    ) -> "ReducedAdjacencyGraph":
        """Extract the reduced lists of ``vertices`` (default: all) from a
        :class:`~repro.graphs.graph.SimpleGraph`.

        One pass per owned vertex, in ascending label order, so the pool
        lists the edges in ``graph.edges()`` order (filtered to the owned
        lower endpoints).  Samplers index into the pool, so same-seed
        runs depend on this order.  The input is a simple graph, so the
        per-edge checks of :meth:`add_edge` cannot fail and are skipped.
        """
        if vertices is None:
            owned: Iterable[int] = range(graph.num_vertices)
        else:
            owned = sorted({int(v) for v in vertices})
        out = cls(owned)
        adj = out._adj
        pool = out._edges
        for u in owned:
            higher = [v for v in graph.neighbors(u) if v > u]
            adj[u].update(higher)
            pool.extend(zip(repeat(u), higher))
        out._index = dict(zip(pool, range(len(pool))))
        return out

    # -- queries ------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Edges stored here (``|E_i|``), *including* checked-out ones —
        they are still part of the graph until committed."""
        return len(self._edges) + len(self._checked)

    @property
    def pool_size(self) -> int:
        """Edges currently available for uniform sampling."""
        return len(self._edges)

    @property
    def num_vertices(self) -> int:
        """Number of owned vertices."""
        return len(self._adj)

    def owns_vertex(self, u: Vertex) -> bool:
        """True iff ``u``'s reduced list lives in this instance."""
        return u in self._adj

    def owned_vertices(self) -> Iterator[int]:
        """Iterate the owned vertex labels."""
        return iter(self._adj)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Membership test for edge ``{u, v}`` (checked-out edges count
        as present).

        Only answerable when the lower endpoint is owned; raises
        :class:`GraphError` otherwise (a protocol bug would silently
        corrupt the graph if this returned False instead).
        """
        lo, hi = (u, v) if u < v else (v, u)
        if lo not in self._adj:
            raise GraphError(f"vertex {lo} not owned; cannot test edge ({u},{v})")
        return hi in self._adj[lo]

    def reduced_neighbors(self, u: Vertex) -> Set[int]:
        """The reduced list ``{v : (u,v) in E, u < v}`` (live view)."""
        if u not in self._adj:
            raise GraphError(f"vertex {u} not owned")
        return self._adj[u]

    def reduced_degree(self, u: Vertex) -> int:
        """Size of ``u``'s reduced list (not the full degree)."""
        if u not in self._adj:
            raise GraphError(f"vertex {u} not owned")
        return len(self._adj[u])

    def edges(self) -> Iterator[Edge]:
        """Iterate all stored edges, including checked-out ones."""
        return chain(iter(self._edges), iter(self._checked))

    def edge_list(self) -> List[Edge]:
        """Sorted copy of all stored edges."""
        return sorted(self.edges())

    # -- mutation ------------------------------------------------------------

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Insert edge ``{u, v}``; the lower endpoint must be owned.

        Raises :class:`NotSimpleError` for loops/duplicates.
        """
        if u == v:
            raise NotSimpleError(f"self-loop at vertex {u}")
        lo, hi = (u, v) if u < v else (v, u)
        if lo not in self._adj:
            raise GraphError(f"vertex {lo} not owned; cannot add edge ({u},{v})")
        if hi in self._adj[lo]:
            raise NotSimpleError(f"parallel edge ({lo}, {hi})")
        self._adj[lo].add(hi)
        edge = (lo, hi)
        self._index[edge] = len(self._edges)
        self._edges.append(edge)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove an edge that is in the pool (not checked out), O(1)."""
        lo, hi = (u, v) if u < v else (v, u)
        edge = (lo, hi)
        if edge in self._checked:
            raise GraphError(
                f"edge {edge} is checked out; use commit_removal/release"
            )
        if lo not in self._adj or hi not in self._adj[lo]:
            raise GraphError(f"edge ({u}, {v}) not stored here")
        self._adj[lo].discard(hi)
        self._pool_remove(edge)

    # -- checkout discipline -----------------------------------------------

    def checkout(self, edge: Edge) -> None:
        """Withdraw ``edge`` from the sampling pool while a conversation
        decides its fate.  It remains visible to :meth:`has_edge`."""
        if edge not in self._index:
            raise GraphError(f"edge {edge} not in pool; cannot checkout")
        self._pool_remove(edge)
        self._checked.add(edge)

    def release(self, edge: Edge) -> None:
        """Return a checked-out edge to the sampling pool (abort path)."""
        if edge not in self._checked:
            raise GraphError(f"edge {edge} is not checked out")
        self._checked.discard(edge)
        self._index[edge] = len(self._edges)
        self._edges.append(edge)

    def commit_removal(self, edge: Edge) -> None:
        """Finalise the removal of a checked-out edge (commit path)."""
        if edge not in self._checked:
            raise GraphError(f"edge {edge} is not checked out")
        self._checked.discard(edge)
        lo, hi = edge
        self._adj[lo].discard(hi)

    def is_checked_out(self, edge: Edge) -> bool:
        return edge in self._checked

    # -- snapshot/restore --------------------------------------------------

    def restore_pool(self, edges: List[Edge], checked: Iterable[Edge]) -> None:
        """Rebuild the full structure from a raw pool snapshot.

        ``edges`` is the pool in its stored (unsorted) order and
        ``checked`` the checked-out set; the position map and the
        adjacency sets are derived, so snapshots need not carry them.
        Restores *in place* — callers holding a reference keep it.
        The owned-vertex set is unchanged (ownership is fixed for a
        partition's lifetime).
        """
        adj = self._adj
        for s in adj.values():
            s.clear()
        self._edges[:] = edges
        self._index.clear()
        for pos, (lo, hi) in enumerate(edges):
            self._index[(lo, hi)] = pos
            adj[lo].add(hi)
        self._checked.clear()
        for lo, hi in checked:
            self._checked.add((lo, hi))
            adj[lo].add(hi)

    # -- sampling ------------------------------------------------------------

    def sample_edge(self, rng: RngStream) -> Edge:
        """A uniform random pool edge, O(1).

        This is the "select an edge from ``E_i`` uniformly at random" of
        Algorithm 2.
        """
        if not self._edges:
            raise GraphError("cannot sample from an empty edge pool")
        return self._edges[rng.randint(len(self._edges))]

    def edge_at(self, index: int) -> Edge:
        """Pool edge by position — lets batched samplers draw indices in
        bulk (the sequential algorithm's hot loop)."""
        return self._edges[index]

    # -- verification ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert index/list/set consistency (used by tests)."""
        if len(self._edges) != len(self._index):
            raise GraphError("edge list / index size mismatch")
        for pos, edge in enumerate(self._edges):
            lo, hi = edge
            if lo >= hi:
                raise GraphError(f"non-canonical stored edge {edge}")
            if self._index.get(edge) != pos:
                raise GraphError(f"index desync for {edge}")
            if lo not in self._adj or hi not in self._adj[lo]:
                raise GraphError(f"edge {edge} missing from adjacency")
        for edge in self._checked:
            lo, hi = edge
            if edge in self._index:
                raise GraphError(f"edge {edge} both pooled and checked out")
            if lo not in self._adj or hi not in self._adj[lo]:
                raise GraphError(f"checked-out edge {edge} missing from adjacency")
        total = sum(len(s) for s in self._adj.values())
        if total != len(self._edges) + len(self._checked):
            raise GraphError("adjacency / edge list count mismatch")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReducedAdjacencyGraph(owned={len(self._adj)}, "
            f"edges={self.num_edges}, checked_out={len(self._checked)})"
        )

    # -- helpers ------------------------------------------------------------

    def _pool_remove(self, edge: Edge) -> None:
        pos = self._index.pop(edge)
        last = self._edges.pop()
        if pos < len(self._edges):
            self._edges[pos] = last
            self._index[last] = pos
