"""Tests for repro.graphs.graph.SimpleGraph."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError, NotSimpleError
from repro.graphs.graph import SimpleGraph


class TestConstruction:
    def test_empty(self):
        g = SimpleGraph(0)
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_negative_rejected(self):
        with pytest.raises(GraphError):
            SimpleGraph(-1)

    def test_from_edges(self):
        g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        assert g.num_edges == 2
        assert g.has_edge(1, 0)  # undirected

    def test_from_edges_duplicate_rejected(self):
        with pytest.raises(NotSimpleError):
            SimpleGraph.from_edges(3, [(0, 1), (1, 0)])

    def test_from_edges_self_loop_rejected(self):
        with pytest.raises(NotSimpleError):
            SimpleGraph.from_edges(3, [(0, 1), (2, 2)])

    @pytest.mark.parametrize("edge", [(-1, 1), (1, -1), (0, 3), (3, 0)])
    def test_from_edges_out_of_range_rejected(self, edge):
        # A list index would wrap -1 to the last vertex without a check.
        with pytest.raises(GraphError):
            SimpleGraph.from_edges(3, [(0, 1), edge])

    def test_from_edges_duplicate_across_chained_inputs_rejected(self):
        with pytest.raises(NotSimpleError):
            SimpleGraph.from_edges(
                4, itertools.chain([(0, 1), (2, 3)], [(3, 0), (1, 0)]))

    def test_from_edges_matches_per_edge_build(self, er_graph):
        edges = list(er_graph.edges())
        bulk = SimpleGraph.from_edges(er_graph.num_vertices, iter(edges))
        single = SimpleGraph(er_graph.num_vertices)
        for u, v in edges:
            single.add_edge(u, v)
        assert bulk == single
        assert bulk.num_edges == single.num_edges
        assert list(bulk.edges()) == list(single.edges())
        bulk.check_invariants()

    def test_copy_is_deep(self, tiny_graph):
        c = tiny_graph.copy()
        c.remove_edge(0, 1)
        assert tiny_graph.has_edge(0, 1)
        assert not c.has_edge(0, 1)
        assert c.num_edges == tiny_graph.num_edges - 1


class TestSimplicity:
    def test_self_loop_rejected(self):
        g = SimpleGraph(3)
        with pytest.raises(NotSimpleError):
            g.add_edge(1, 1)

    def test_parallel_edge_rejected(self):
        g = SimpleGraph(3)
        g.add_edge(0, 1)
        with pytest.raises(NotSimpleError):
            g.add_edge(1, 0)

    def test_out_of_range_rejected(self):
        g = SimpleGraph(3)
        with pytest.raises(GraphError):
            g.add_edge(0, 3)
        with pytest.raises(GraphError):
            g.add_edge(-1, 0)


class TestQueries:
    def test_degree(self, tiny_graph):
        assert tiny_graph.degree(3) == 3  # edges to 2, 4, 0
        assert tiny_graph.degree(5) == 1

    def test_neighbors(self, tiny_graph):
        assert tiny_graph.neighbors(0) == {1, 3}

    def test_has_edge_out_of_range_is_false(self, tiny_graph):
        assert not tiny_graph.has_edge(0, 99)

    def test_edges_canonical_unique(self, tiny_graph):
        edges = list(tiny_graph.edges())
        assert len(edges) == tiny_graph.num_edges
        assert all(u < v for u, v in edges)
        assert len(set(edges)) == len(edges)

    def test_degree_sequence_sums_to_2m(self, er_graph):
        assert sum(er_graph.degree_sequence()) == 2 * er_graph.num_edges

    def test_equality(self):
        a = SimpleGraph.from_edges(3, [(0, 1)])
        b = SimpleGraph.from_edges(3, [(0, 1)])
        c = SimpleGraph.from_edges(3, [(1, 2)])
        assert a == b
        assert a != c

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(SimpleGraph(1))


class TestMutation:
    def test_remove_edge(self):
        g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        g.remove_edge(1, 0)
        assert not g.has_edge(0, 1)
        assert g.num_edges == 1

    def test_remove_missing_raises(self):
        g = SimpleGraph(3)
        with pytest.raises(GraphError):
            g.remove_edge(0, 1)

    def test_add_remove_roundtrip(self, tiny_graph):
        before = tiny_graph.edge_list()
        tiny_graph.add_edge(0, 5)
        tiny_graph.remove_edge(0, 5)
        assert tiny_graph.edge_list() == before


class TestInvariants:
    def test_check_invariants_ok(self, er_graph):
        er_graph.check_invariants()

    def test_detects_corruption(self):
        g = SimpleGraph.from_edges(3, [(0, 1)])
        g._adj[0].discard(1)  # simulate internal corruption
        with pytest.raises(GraphError):
            g.check_invariants()

    @given(st.lists(
        st.tuples(st.integers(0, 19), st.integers(0, 19)),
        max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_property_build_always_consistent(self, pairs):
        g = SimpleGraph(20)
        for u, v in pairs:
            if u != v and not g.has_edge(u, v):
                g.add_edge(u, v)
        g.check_invariants()
        assert sum(g.degree_sequence()) == 2 * g.num_edges
