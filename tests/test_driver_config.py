"""Tests for driver-level configuration and result accessors."""

from dataclasses import fields

import pytest

from repro.core.parallel.driver import (
    ParallelSwitchConfig,
    make_partitioner,
    parallel_edge_switch,
)
from repro.errors import ConfigurationError
from repro.mpsim.costmodel import CostModel
from repro.partition import ConsecutivePartitioner, UniversalHashPartitioner
from repro.util.rng import RngStream


class TestConfigValidation:
    def test_negative_t_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelSwitchConfig(t=-1, step_size=10)

    def test_zero_step_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelSwitchConfig(t=10, step_size=0)

    def test_defaults(self):
        cfg = ParallelSwitchConfig(t=10, step_size=5)
        assert isinstance(cfg.cost, CostModel)
        assert not cfg.collect_edges
        assert cfg.audit is None
        assert cfg.fault_tolerance is None
        assert [f.name for f in fields(cfg)] == [
            "t", "step_size", "cost", "collect_edges", "audit",
            "fault_tolerance"]

    @pytest.mark.parametrize("ft,tick", [(True, 50.0), (False, None),
                                         (None, None)])
    def test_fault_tolerance_resolves_to_the_sim_tick(self, er_graph, ft,
                                                      tick):
        res = parallel_edge_switch(er_graph, 2, t=20, step_size=10,
                                   seed=1, fault_tolerance=ft)
        assert res.config.fault_tolerance == tick

    @pytest.mark.parametrize("ft", [0.05, 1, "yes"])
    def test_fault_tolerance_takes_only_a_bool(self, er_graph, ft):
        with pytest.raises(ConfigurationError, match="fault_tolerance"):
            parallel_edge_switch(er_graph, 2, t=20, step_size=10,
                                 fault_tolerance=ft)


class TestMakePartitioner:
    def test_names(self, er_graph):
        for scheme, name in (("cp", "CP"), ("hp-d", "HP-D"),
                             ("hp-m", "HP-M"), ("hp-u", "HP-U")):
            part = make_partitioner(scheme, er_graph, 4, RngStream(0))
            assert part.name == name
            assert part.num_ranks == 4

    def test_case_insensitive(self, er_graph):
        assert make_partitioner("CP", er_graph, 2).name == "CP"

    def test_passthrough_instance(self, er_graph):
        custom = ConsecutivePartitioner(er_graph, 3)
        assert make_partitioner(custom, er_graph, 3) is custom

    def test_passthrough_rank_mismatch_rejected(self, er_graph):
        # Previously a 3-rank partitioner was silently accepted for a
        # 99-rank run, leaving 96 ranks with no edges and an ownership
        # function pointing nowhere.
        custom = ConsecutivePartitioner(er_graph, 3)
        with pytest.raises(ConfigurationError, match="ranks"):
            make_partitioner(custom, er_graph, 99)

    def test_passthrough_vertex_mismatch_rejected(self, er_graph):
        from repro.graphs.graph import SimpleGraph
        small = SimpleGraph(er_graph.num_vertices // 2)
        custom = ConsecutivePartitioner(small, 3)
        with pytest.raises(ConfigurationError, match="vertices"):
            make_partitioner(custom, er_graph, 3)

    def test_hpu_without_rng_gets_default(self, er_graph):
        part = make_partitioner("hp-u", er_graph, 4)
        assert isinstance(part, UniversalHashPartitioner)

    def test_unknown_rejected(self, er_graph):
        with pytest.raises(ConfigurationError):
            make_partitioner("metis", er_graph, 4)


class TestResultAccessors:
    def test_derived_properties(self, er_graph):
        res = parallel_edge_switch(er_graph, 4, t=200, step_size=50,
                                   scheme="cp", seed=1)
        assert res.sim_time == res.run.sim_time
        assert len(res.workload_per_rank) == 4
        assert len(res.final_edges_per_rank) == 4
        assert sum(res.final_edges_per_rank) == er_graph.num_edges
        assert 0.0 <= res.visit_rate <= 1.0
        # trajectories recorded once per step
        for r in res.reports:
            assert len(r.edge_trajectory) == r.steps

    def test_custom_cost_model_respected(self, er_graph):
        slow = CostModel(alpha=100.0)
        fast = CostModel(alpha=0.1)
        a = parallel_edge_switch(er_graph, 4, t=200, step_size=100,
                                 scheme="cp", seed=2, cost_model=slow)
        b = parallel_edge_switch(er_graph, 4, t=200, step_size=100,
                                 scheme="cp", seed=2, cost_model=fast)
        assert a.sim_time > b.sim_time
