"""Tests for the partitioning schemes (CP, HP-D, HP-M, HP-U, RAND)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PartitionError
from repro.graphs.generators import erdos_renyi_gnm, preferential_attachment
from repro.graphs.graph import SimpleGraph
from repro.partition import (
    ConsecutivePartitioner,
    DivisionHashPartitioner,
    MultiplicationHashPartitioner,
    RandomPartitioner,
    UniversalHashPartitioner,
    build_partitions,
)
from repro.partition.hashed import next_prime
from repro.util.rng import RngStream


def all_schemes(graph, p, rng):
    n = graph.num_vertices
    return [
        ConsecutivePartitioner(graph, p),
        DivisionHashPartitioner(n, p),
        MultiplicationHashPartitioner(n, p),
        UniversalHashPartitioner(n, p, rng=rng),
        RandomPartitioner(n, p, rng),
    ]


class TestPartitionContract:
    """Every scheme: disjoint cover of vertices, edges at owner(min)."""

    @pytest.mark.parametrize("p", [1, 2, 5, 16])
    def test_vertices_partitioned(self, er_graph, p, rng):
        for scheme in all_schemes(er_graph, p, rng):
            owners = [scheme.owner(v) for v in range(er_graph.num_vertices)]
            assert all(0 <= r < p for r in owners)
            # vertices_of agrees with owner()
            seen = []
            for r in range(p):
                vs = scheme.vertices_of(r)
                assert all(owners[v] == r for v in vs)
                seen.extend(vs)
            assert sorted(seen) == list(range(er_graph.num_vertices))

    @pytest.mark.parametrize("p", [1, 3, 8])
    def test_build_partitions_covers_all_edges(self, er_graph, p, rng):
        for scheme in all_schemes(er_graph, p, rng):
            parts = build_partitions(er_graph, scheme)
            assert len(parts) == p
            union = []
            for part in parts:
                part.check_invariants()
                union.extend(part.edges())
            assert sorted(union) == er_graph.edge_list()

    @pytest.mark.parametrize("p", [1, 3, 8])
    def test_build_partitions_keeps_graph_edge_order(self, er_graph, p, rng):
        # Samplers index into each pool, so same-seed runs depend on
        # every rank listing its edges in graph.edges() order.
        order = list(er_graph.edges())
        for scheme in all_schemes(er_graph, p, rng):
            parts = build_partitions(er_graph, scheme)
            for r, part in enumerate(parts):
                assert list(part.edges()) == [
                    e for e in order if scheme.owner(e[0]) == r]

    def test_owner_out_of_range_raises(self, er_graph, rng):
        for scheme in all_schemes(er_graph, 4, rng):
            with pytest.raises(PartitionError):
                scheme.owner(-1)
            with pytest.raises(PartitionError):
                scheme.owner(er_graph.num_vertices)

    def test_zero_ranks_rejected(self, er_graph):
        with pytest.raises(PartitionError):
            ConsecutivePartitioner(er_graph, 0)

    def test_mismatched_graph_rejected(self, er_graph):
        scheme = DivisionHashPartitioner(10, 2)
        with pytest.raises(PartitionError):
            build_partitions(er_graph, scheme)


class TestConsecutive:
    def test_ranges_are_consecutive(self, er_graph):
        cp = ConsecutivePartitioner(er_graph, 7)
        for r in range(7):
            vs = cp.vertices_of(r)
            if vs:
                assert vs == list(range(vs[0], vs[-1] + 1))

    def test_edges_roughly_balanced(self, er_graph):
        p = 8
        cp = ConsecutivePartitioner(er_graph, p)
        parts = build_partitions(er_graph, cp)
        sizes = [part.num_edges for part in parts]
        target = er_graph.num_edges / p
        # greedy equal-edge sweep: within a max reduced-degree of target
        assert max(sizes) <= target + max(
            sum(1 for v in er_graph.neighbors(u) if v > u)
            for u in range(er_graph.num_vertices)) + 1

    def test_balances_skewed_graph_better_than_equal_vertices(self, pa_graph):
        # PA graphs: low labels have huge reduced degrees; CP must cut
        # early ranges short to balance edges
        p = 8
        cp = ConsecutivePartitioner(pa_graph, p)
        parts = build_partitions(pa_graph, cp)
        sizes = [part.num_edges for part in parts]
        assert max(sizes) < 2.2 * pa_graph.num_edges / p

    def test_more_ranks_than_vertices(self):
        g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        cp = ConsecutivePartitioner(g, 8)
        parts = build_partitions(g, cp)
        assert sum(part.num_edges for part in parts) == 2

    def test_explicit_boundaries(self):
        cp = ConsecutivePartitioner(
            num_vertices=10, num_ranks=3, boundaries=[4, 7])
        assert cp.owner(0) == 0
        assert cp.owner(3) == 0
        assert cp.owner(4) == 1
        assert cp.owner(6) == 1
        assert cp.owner(7) == 2
        assert cp.owner(9) == 2

    def test_bad_boundaries_rejected(self):
        with pytest.raises(PartitionError):
            ConsecutivePartitioner(num_vertices=10, num_ranks=3,
                                   boundaries=[7, 4])
        with pytest.raises(PartitionError):
            ConsecutivePartitioner(num_vertices=10, num_ranks=3,
                                   boundaries=[5])

    def test_needs_graph_or_boundaries(self):
        with pytest.raises(PartitionError):
            ConsecutivePartitioner(num_ranks=3)

    def test_name(self, er_graph):
        assert ConsecutivePartitioner(er_graph, 2).name == "CP"


class TestDivisionHash:
    def test_formula(self):
        hp = DivisionHashPartitioner(100, 7)
        for v in (0, 13, 99):
            assert hp.owner(v) == v % 7

    def test_vertex_balance(self):
        hp = DivisionHashPartitioner(1000, 8)
        counts = [len(hp.vertices_of(r)) for r in range(8)]
        assert max(counts) - min(counts) <= 1

    def test_name(self):
        assert DivisionHashPartitioner(10, 2).name == "HP-D"


class TestMultiplicationHash:
    def test_range(self):
        hp = MultiplicationHashPartitioner(10_000, 16)
        owners = {hp.owner(v) for v in range(10_000)}
        assert owners == set(range(16))

    def test_vertex_balance(self):
        hp = MultiplicationHashPartitioner(10_000, 16)
        counts = [0] * 16
        for v in range(10_000):
            counts[hp.owner(v)] += 1
        # golden-ratio multiplier disperses well
        assert max(counts) < 1.2 * 10_000 / 16

    def test_bad_multiplier_rejected(self):
        with pytest.raises(PartitionError):
            MultiplicationHashPartitioner(10, 2, multiplier=1.5)

    def test_name(self):
        assert MultiplicationHashPartitioner(10, 2).name == "HP-M"


class TestUniversalHash:
    def test_formula(self):
        hp = UniversalHashPartitioner(100, 4, a=3, b=5, c=101)
        for v in (0, 42, 99):
            assert hp.owner(v) == ((3 * v + 5) % 101) % 4

    def test_needs_rng_or_params(self):
        with pytest.raises(PartitionError):
            UniversalHashPartitioner(100, 4)

    def test_random_family_varies(self):
        hps = [UniversalHashPartitioner(1000, 8, rng=RngStream(i))
               for i in range(5)]
        assignments = [tuple(hp.owner(v) for v in range(50)) for hp in hps]
        assert len(set(assignments)) > 1

    def test_param_validation(self):
        with pytest.raises(PartitionError):
            UniversalHashPartitioner(100, 4, a=0, b=5)  # a must be >= 1
        with pytest.raises(PartitionError):
            UniversalHashPartitioner(100, 4, a=3, b=200)  # b < c
        with pytest.raises(PartitionError):
            UniversalHashPartitioner(100, 4, a=3, b=5, c=60)  # c < n

    def test_vertex_balance(self):
        hp = UniversalHashPartitioner(10_000, 16, rng=RngStream(0))
        counts = [0] * 16
        for v in range(10_000):
            counts[hp.owner(v)] += 1
        assert max(counts) < 1.3 * 10_000 / 16

    def test_name(self):
        assert UniversalHashPartitioner(10, 2, a=1, b=0).name == "HP-U"


class TestNextPrime:
    @pytest.mark.parametrize("k,expected", [
        (0, 2), (2, 2), (3, 3), (4, 5), (90, 97), (100, 101)])
    def test_values(self, k, expected):
        assert next_prime(k) == expected


class TestRandomPartitioner:
    def test_deterministic_table(self):
        a = RandomPartitioner(100, 4, RngStream(1))
        b = RandomPartitioner(100, 4, RngStream(1))
        assert [a.owner(v) for v in range(100)] == [
            b.owner(v) for v in range(100)]

    def test_memory_cost_is_n(self):
        rp = RandomPartitioner(500, 4, RngStream(0))
        assert rp.memory_cells == 500

    def test_name(self):
        assert RandomPartitioner(10, 2, RngStream(0)).name == "RAND"


class TestPropertyBased:
    @given(st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_hash_schemes_total_and_deterministic(self, n, p):
        for hp in (DivisionHashPartitioner(n, p),
                   MultiplicationHashPartitioner(n, p),
                   UniversalHashPartitioner(n, p, rng=RngStream(n * p))):
            owners = [hp.owner(v) for v in range(n)]
            assert all(0 <= r < p for r in owners)
            assert owners == [hp.owner(v) for v in range(n)]
