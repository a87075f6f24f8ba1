"""Tests for repro.graphs.reduced.ReducedAdjacencyGraph, including the
checkout discipline the concurrent protocol depends on."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError, NotSimpleError
from repro.graphs.graph import SimpleGraph
from repro.graphs.reduced import ReducedAdjacencyGraph
from repro.util.rng import RngStream


class TestOwnership:
    def test_edge_stored_at_lower_endpoint(self):
        g = ReducedAdjacencyGraph([0, 1])
        g.add_edge(5, 0)  # canonicalised to (0, 5); 0 is owned
        assert g.has_edge(0, 5)
        assert g.reduced_neighbors(0) == {5}

    def test_add_unowned_lower_rejected(self):
        g = ReducedAdjacencyGraph([5])
        with pytest.raises(GraphError):
            g.add_edge(0, 5)  # lower endpoint 0 not owned

    def test_has_edge_unowned_raises(self):
        g = ReducedAdjacencyGraph([1])
        with pytest.raises(GraphError):
            g.has_edge(0, 1)

    def test_owns_vertex(self):
        g = ReducedAdjacencyGraph([2, 4])
        assert g.owns_vertex(2)
        assert not g.owns_vertex(3)

    def test_from_simple_full(self, tiny_graph):
        r = ReducedAdjacencyGraph.from_simple(tiny_graph)
        assert r.num_edges == tiny_graph.num_edges
        assert sorted(r.edges()) == tiny_graph.edge_list()

    def test_from_simple_keeps_graph_edge_order(self, er_graph):
        r = ReducedAdjacencyGraph.from_simple(er_graph)
        assert list(r.edges()) == list(er_graph.edges())
        r.check_invariants()

    def test_from_simple_subset(self, tiny_graph):
        r = ReducedAdjacencyGraph.from_simple(tiny_graph, vertices=[0, 1])
        # edges with lower endpoint 0 or 1: (0,1), (0,3), (1,2)
        assert sorted(r.edges()) == [(0, 1), (0, 3), (1, 2)]


class TestSimplicity:
    def test_loop_rejected(self):
        g = ReducedAdjacencyGraph([0])
        with pytest.raises(NotSimpleError):
            g.add_edge(0, 0)

    def test_duplicate_rejected(self):
        g = ReducedAdjacencyGraph([0])
        g.add_edge(0, 1)
        with pytest.raises(NotSimpleError):
            g.add_edge(1, 0)


class TestSampling:
    def test_sample_uniformity(self):
        g = ReducedAdjacencyGraph([0])
        for v in range(1, 6):
            g.add_edge(0, v)
        rng = RngStream(3)
        counts = {}
        for _ in range(5000):
            e = g.sample_edge(rng)
            counts[e] = counts.get(e, 0) + 1
        for e, c in counts.items():
            assert c / 5000 == pytest.approx(0.2, abs=0.03)

    def test_sample_empty_raises(self, rng):
        g = ReducedAdjacencyGraph([0])
        with pytest.raises(GraphError):
            g.sample_edge(rng)

    def test_swap_remove_keeps_sampling_valid(self, rng):
        g = ReducedAdjacencyGraph([0, 1, 2])
        edges = [(0, 1), (0, 2), (1, 2), (0, 3), (2, 5)]
        for e in edges:
            g.add_edge(*e)
        g.remove_edge(0, 2)
        g.check_invariants()
        remaining = {(0, 1), (1, 2), (0, 3), (2, 5)}
        for _ in range(50):
            assert g.sample_edge(rng) in remaining


class TestCheckout:
    def test_checkout_hides_from_pool_not_from_has_edge(self, rng):
        g = ReducedAdjacencyGraph([0])
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        g.checkout((0, 1))
        assert g.has_edge(0, 1)          # still in the graph
        assert g.num_edges == 2          # logically present
        assert g.pool_size == 1          # not selectable
        for _ in range(20):
            assert g.sample_edge(rng) == (0, 2)

    def test_release_restores_pool(self):
        g = ReducedAdjacencyGraph([0])
        g.add_edge(0, 1)
        g.checkout((0, 1))
        g.release((0, 1))
        assert g.pool_size == 1
        g.check_invariants()

    def test_commit_removal_finalises(self):
        g = ReducedAdjacencyGraph([0])
        g.add_edge(0, 1)
        g.checkout((0, 1))
        g.commit_removal((0, 1))
        assert g.num_edges == 0
        assert not g.has_edge(0, 1)
        g.check_invariants()

    def test_checkout_missing_raises(self):
        g = ReducedAdjacencyGraph([0])
        with pytest.raises(GraphError):
            g.checkout((0, 1))

    def test_double_checkout_raises(self):
        g = ReducedAdjacencyGraph([0])
        g.add_edge(0, 1)
        g.checkout((0, 1))
        with pytest.raises(GraphError):
            g.checkout((0, 1))

    def test_remove_checked_out_raises(self):
        g = ReducedAdjacencyGraph([0])
        g.add_edge(0, 1)
        g.checkout((0, 1))
        with pytest.raises(GraphError):
            g.remove_edge(0, 1)

    def test_release_not_checked_out_raises(self):
        g = ReducedAdjacencyGraph([0])
        g.add_edge(0, 1)
        with pytest.raises(GraphError):
            g.release((0, 1))

    def test_is_checked_out(self):
        g = ReducedAdjacencyGraph([0])
        g.add_edge(0, 1)
        assert not g.is_checked_out((0, 1))
        g.checkout((0, 1))
        assert g.is_checked_out((0, 1))

    def test_edges_iterates_checked_out_too(self):
        g = ReducedAdjacencyGraph([0])
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        g.checkout((0, 1))
        assert sorted(g.edges()) == [(0, 1), (0, 2)]


class TestPropertyBased:
    @given(st.lists(st.sampled_from(["add", "remove", "checkout",
                                     "release", "commit"]),
                    max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_random_op_sequences_stay_consistent(self, ops):
        """Drive a random op sequence through the structure, mirroring
        it in a plain model; invariants must hold throughout."""
        rng = RngStream(42)
        g = ReducedAdjacencyGraph(range(10))
        pool = set()      # model: edges in pool
        checked = set()   # model: checked-out edges
        next_hi = [10]
        for op in ops:
            if op == "add":
                u = rng.randint(10)
                v = u + 1 + rng.randint(10)
                e = (u, v)
                if e not in pool and e not in checked:
                    g.add_edge(*e)
                    pool.add(e)
            elif op == "remove" and pool:
                e = sorted(pool)[0]
                g.remove_edge(*e)
                pool.discard(e)
            elif op == "checkout" and pool:
                e = sorted(pool)[0]
                g.checkout(e)
                pool.discard(e)
                checked.add(e)
            elif op == "release" and checked:
                e = sorted(checked)[0]
                g.release(e)
                checked.discard(e)
                pool.add(e)
            elif op == "commit" and checked:
                e = sorted(checked)[0]
                g.commit_removal(e)
                checked.discard(e)
            g.check_invariants()
            assert g.pool_size == len(pool)
            assert g.num_edges == len(pool) + len(checked)
        assert sorted(g.edges()) == sorted(pool | checked)
