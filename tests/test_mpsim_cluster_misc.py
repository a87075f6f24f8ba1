"""Remaining engine/cluster corner cases."""

import pytest

from repro.errors import SimulationError
from repro.mpsim import CostModel, SimulatedCluster
from repro.mpsim.engine import SimulationEngine
from repro.mpsim.interpreter import (
    CollectiveTable, collective_results as _collective_results)
from repro.mpsim.ops import Collective


class TestCollectiveResultsTable:
    """Direct tests of the shared result computation."""

    def test_barrier(self):
        assert _collective_results("barrier", 0, "sum", [None] * 3, 3) \
            == [None, None, None]

    def test_allgather(self):
        out = _collective_results("allgather", 0, "sum", ["a", "b"], 2)
        assert out == [["a", "b"], ["a", "b"]]

    def test_bcast_nonzero_root(self):
        out = _collective_results("bcast", 2, "sum", [None, None, "z"], 3)
        assert out == ["z", "z", "z"]

    def test_gather_only_root(self):
        out = _collective_results("gather", 1, "sum", [10, 20], 2)
        assert out == [None, [10, 20]]

    def test_scatter_from_root(self):
        out = _collective_results("scatter", 0, "sum", [["x", "y"], None], 2)
        assert out == ["x", "y"]

    def test_alltoall_transpose(self):
        values = [[11, 12], [21, 22]]
        out = _collective_results("alltoall", 0, "sum", values, 2)
        assert out == [[11, 21], [12, 22]]

    def test_alltoall_bad_length(self):
        with pytest.raises(SimulationError):
            _collective_results("alltoall", 0, "sum", [[1], [1, 2]], 2)

    def test_unknown_kind(self):
        with pytest.raises(SimulationError):
            _collective_results("allfoo", 0, "sum", [1], 1)

    # -- with dead ranks (fail-stop runs) -----------------------------

    def test_allreduce_reduces_only_survivors(self):
        out = _collective_results("allreduce", 0, "sum", [1, None, 3], 3,
                                  {1})
        assert out == [4, 4, 4]

    def test_allgather_keeps_none_at_dead_slot(self):
        out = _collective_results("allgather", 0, "sum", ["a", None, "c"],
                                  3, {1})
        assert out == [["a", None, "c"]] * 3

    def test_bcast_with_dead_root_raises(self):
        with pytest.raises(SimulationError, match="root rank 1 is dead"):
            _collective_results("bcast", 1, "sum", ["a", None, "c"], 3, {1})

    def test_bcast_with_live_root_still_works(self):
        out = _collective_results("bcast", 0, "sum", ["a", None, "c"], 3,
                                  {1})
        assert out == ["a", "a", "a"]

    @pytest.mark.parametrize("kind,values", [
        ("gather", [1, None, 3]),
        ("scatter", [[1, 2, 3], None, None]),
        ("alltoall", [[1, 2, 3], None, [7, 8, 9]]),
    ])
    def test_other_kinds_not_dead_tolerant(self, kind, values):
        with pytest.raises(SimulationError, match="not dead-tolerant"):
            _collective_results(kind, 0, "sum", values, 3, {1})


class TestCollectiveTable:
    """The collective sequencing every backend shares."""

    def test_mismatch_raises(self):
        table = CollectiveTable(2)
        assert table.join(0, Collective("barrier")) is None
        with pytest.raises(SimulationError, match="mismatch at seq 0"):
            table.join(1, Collective("allgather", 1))

    def test_completes_when_every_rank_joined(self):
        table = CollectiveTable(3)
        assert table.join(2, Collective("allreduce", 5)) is None
        assert table.join(0, Collective("allreduce", 1)) is None
        done = table.join(1, Collective("allreduce", 2))
        assert done.seq == 0
        assert sorted(done.members) == [0, 1, 2]
        assert done.results == {0: 8, 1: 8, 2: 8}

    def test_second_join_goes_to_next_seq(self):
        table = CollectiveTable(2)
        assert table.join(0, Collective("barrier")) is None
        # a different kind, but at seq 1: no mismatch with seq 0
        assert table.join(0, Collective("allgather", "x")) is None
        assert table.join(1, Collective("barrier")).seq == 0
        done = table.join(1, Collective("allgather", "y"))
        assert done.seq == 1
        assert done.results == {0: ["x", "y"], 1: ["x", "y"]}

    def test_rank_died_completes_pending_slots_in_seq_order(self):
        table = CollectiveTable(3)
        for seq in range(2):
            for rank in (0, 1):
                assert table.join(
                    rank, Collective("allreduce", 10 * seq + rank)) is None
        done = table.rank_died(2)
        assert [d.seq for d in done] == [0, 1]
        assert [d.results for d in done] == [{0: 1, 1: 1}, {0: 21, 1: 21}]
        assert table.dead == {2}
        # later collectives complete over the survivors
        assert table.join(0, Collective("barrier")) is None
        assert table.join(1, Collective("barrier")).results == {
            0: None, 1: None}

    def test_rank_died_leaves_incomplete_slots_pending(self):
        table = CollectiveTable(3)
        assert table.join(0, Collective("barrier")) is None
        assert table.rank_died(2) == []
        assert table.join(1, Collective("barrier")).seq == 0


class TestEngineGuards:
    def test_empty_generator_list_rejected(self):
        with pytest.raises(SimulationError):
            SimulationEngine([], CostModel())

    def test_double_collective_join_detected(self):
        # a program sending the Collective op twice without consuming
        # results cannot happen through the context helpers; simulate a
        # mismatched kind instead (covered elsewhere) and nested seq use
        def prog(ctx):
            a = yield from ctx.allreduce(1)
            b = yield from ctx.allreduce(a)
            return b

        res = SimulatedCluster(3, seed=0).run(prog)
        assert res.values == [9] * 3

    def test_zero_compute_cost_allowed(self):
        def prog(ctx):
            yield from ctx.compute(0.0)
            return "ok"

        res = SimulatedCluster(2, seed=0).run(prog)
        assert res.values == ["ok", "ok"]
        assert res.sim_time == 0.0

    def test_many_ranks_scale(self):
        # 512 simulated ranks in one process: a collective round-trip
        def prog(ctx):
            total = yield from ctx.allreduce(1)
            return total

        res = SimulatedCluster(512, seed=0).run(prog)
        assert res.values[0] == 512
        assert res.values[-1] == 512
