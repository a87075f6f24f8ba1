"""Failure-injection and stress tests for the distributed protocol.

Corner regimes the normal experiments never visit: ranks with zero
edges, more ranks than edges, collision storms on tiny dense graphs,
forfeit paths, adversarially skewed partitions.
"""

import pytest

from repro.core.parallel.driver import parallel_edge_switch
from repro.errors import PartitionError
from repro.graphs.generators import erdos_renyi_gnm, preferential_attachment
from repro.graphs.graph import SimpleGraph
from repro.partition.adversary import (
    adversarial_labels_division,
    relabel_graph,
)
from repro.partition.base import Partitioner
from repro.util.rng import RngStream


class LopsidedPartitioner(Partitioner):
    """Every vertex on rank 0 — all other ranks own nothing."""

    @property
    def name(self):
        return "LOPSIDED"

    def owner(self, v):
        if not 0 <= v < self.num_vertices:
            raise PartitionError(f"vertex {v} out of range")
        return 0


class HalfEmptyPartitioner(Partitioner):
    """Vertices split between ranks 0 and 1; ranks >= 2 stay empty."""

    @property
    def name(self):
        return "HALFEMPTY"

    def owner(self, v):
        if not 0 <= v < self.num_vertices:
            raise PartitionError(f"vertex {v} out of range")
        return v % 2


def check(res, graph):
    res.graph.check_invariants()
    assert res.graph.degree_sequence() == graph.degree_sequence()


class TestDegeneratePartitions:
    def test_all_edges_on_one_rank(self, er_graph):
        scheme = LopsidedPartitioner(er_graph.num_vertices, 4)
        res = parallel_edge_switch(er_graph, 4, t=200, step_size=50,
                                   scheme=scheme, seed=0)
        check(res, er_graph)
        # ranks 1-3 have q_i = 0: the multinomial must give them zero
        assert res.reports[0].switches_completed == 200
        for r in res.reports[1:]:
            assert r.assigned_total == 0

    def test_empty_ranks_mixed_in(self, er_graph):
        scheme = HalfEmptyPartitioner(er_graph.num_vertices, 6)
        res = parallel_edge_switch(er_graph, 6, t=300, step_size=100,
                                   scheme=scheme, seed=1)
        check(res, er_graph)
        assert res.switches_completed == 300

    def test_more_ranks_than_edges(self):
        g = erdos_renyi_gnm(12, 8, RngStream(2))
        res = parallel_edge_switch(g, 16, t=30, step_size=10,
                                   scheme="cp", seed=2)
        check(res, g)
        assert res.switches_completed + res.forfeited >= 30


class TestCollisionStorms:
    def test_tiny_dense_graph_many_ranks(self):
        # near-complete graph: most proposals create parallel edges,
        # exercising the retry/abort machinery heavily
        g = erdos_renyi_gnm(10, 40, RngStream(3))  # 40 of 45 pairs
        res = parallel_edge_switch(g, 6, t=100, step_size=25,
                                   scheme="hp-d", seed=3)
        check(res, g)
        rejections = sum(sum(r.rejections.values()) for r in res.reports)
        assert rejections > 50, "expected heavy rejection traffic"
        # Rank 0's 12 edges can never be switched; the livelock guard,
        # scaled to its pool, forfeits each of its operations after a
        # few hundred failures rather than 10,000.
        assert rejections < 50_000

    def test_storm_on_threads_backend(self):
        g = erdos_renyi_gnm(10, 40, RngStream(4))
        res = parallel_edge_switch(g, 4, t=60, step_size=20,
                                   scheme="hp-d", seed=4,
                                   backend="threads")
        check(res, g)

    def test_infeasible_star_forfeits_not_hangs(self):
        # star graph: no feasible switch ever; the livelock guard must
        # forfeit instead of spinning forever
        star = SimpleGraph.from_edges(8, [(0, i) for i in range(1, 8)])
        res = parallel_edge_switch(
            star, 2, t=10, step_size=5, scheme="cp", seed=5)
        assert res.switches_completed == 0
        # a fully-forfeited step stops the run (no-progress break)
        # instead of spinning on the remaining budget
        assert res.forfeited >= 5
        check(res, star)


class TestAdversarialEndToEnd:
    def test_attacked_graph_still_correct_under_hpd(self, pa_graph):
        labels = adversarial_labels_division(pa_graph, 8)
        attacked = relabel_graph(pa_graph, labels)
        res = parallel_edge_switch(attacked, 8, t=400, step_size=100,
                                   scheme="hp-d", seed=6)
        check(res, attacked)
        # the attack skews work but must not break anything
        assert res.switches_completed == 400


class TestForfeitAccounting:
    def test_forfeits_redistributed_across_steps(self):
        # 2 edges, 4 ranks: constant same-edge collisions force
        # forfeits which later steps absorb
        g = SimpleGraph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        res = parallel_edge_switch(g, 4, t=40, step_size=10,
                                   scheme="cp", seed=7)
        check(res, g)
        # conservation: work either happened or was explicitly forfeited
        assert res.switches_completed + res.forfeited >= 40

    def test_reports_conserve_totals(self, er_graph):
        res = parallel_edge_switch(er_graph, 5, t=500, step_size=100,
                                   scheme="hp-u", seed=8)
        total_assigned = sum(r.assigned_total for r in res.reports)
        assert total_assigned == res.switches_completed + res.forfeited
        total_edges = sum(r.final_edges for r in res.reports)
        assert total_edges == er_graph.num_edges
