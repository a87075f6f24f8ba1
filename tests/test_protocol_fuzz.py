"""Property-based fuzzing of the full distributed protocol.

Hypothesis drives random (graph, rank count, scheme, step size, seed)
configurations through the simulated backend, asserting the complete
invariant battery on every run.  Bounded example counts keep the suite
fast; the configurations explore corners no curated test hits.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.parallel.driver import (
    ParallelSwitchConfig,
    PerRankArgs,
    make_partitioner,
    parallel_edge_switch,
)
from repro.core.parallel.messages import (
    TAG_PROTO,
    Abort,
    Commit,
    DoneAll,
    DoneUp,
)
from repro.core.parallel.rank_program import SwitchRank
from repro.core.parallel.state import ServantState
from repro.graphs.generators import erdos_renyi_gnm
from repro.mpsim.context import RankContext
from repro.mpsim.ops import Message
from repro.partition.base import build_partitions
from repro.util.rng import RngStream


@st.composite
def switch_configs(draw):
    n = draw(st.integers(min_value=12, max_value=60))
    max_edges = n * (n - 1) // 2
    m = draw(st.integers(min_value=6, max_value=min(4 * n, max_edges)))
    p = draw(st.integers(min_value=1, max_value=9))
    t = draw(st.integers(min_value=0, max_value=120))
    step = draw(st.integers(min_value=1, max_value=max(1, t or 1)))
    scheme = draw(st.sampled_from(["cp", "hp-d", "hp-m", "hp-u"]))
    graph_seed = draw(st.integers(min_value=0, max_value=50))
    run_seed = draw(st.integers(min_value=0, max_value=50))
    return (n, m, p, t, step, scheme, graph_seed, run_seed)


class TestProtocolFuzz:
    @given(switch_configs())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_invariants_under_random_configs(self, config):
        n, m, p, t, step, scheme, graph_seed, run_seed = config
        graph = erdos_renyi_gnm(n, m, RngStream(graph_seed))
        res = parallel_edge_switch(
            graph, p, t=t, step_size=step, scheme=scheme, seed=run_seed)
        # the invariant battery
        res.graph.check_invariants()
        assert res.graph.degree_sequence() == graph.degree_sequence()
        assert res.graph.num_edges == graph.num_edges
        assert res.switches_completed + res.forfeited <= sum(
            r.assigned_total for r in res.reports)
        assert 0.0 <= res.visit_rate <= 1.0
        for report in res.reports:
            assert report.local_switches + report.global_switches \
                == report.switches_completed
            assert report.forfeited >= 0

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_threads_backend_fuzz(self, seed):
        graph = erdos_renyi_gnm(40, 140, RngStream(7))
        res = parallel_edge_switch(
            graph, 4, t=60, step_size=20, scheme="hp-u",
            seed=seed, backend="threads")
        res.graph.check_invariants()
        assert res.graph.degree_sequence() == graph.degree_sequence()

    @given(switch_configs())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_invariants_with_auditor_attached(self, config):
        """The online auditor must stay silent on correct runs — any
        ProtocolAuditError here is a real protocol (or auditor) bug."""
        n, m, p, t, step, scheme, graph_seed, run_seed = config
        graph = erdos_renyi_gnm(n, m, RngStream(graph_seed))
        res = parallel_edge_switch(
            graph, p, t=t, step_size=step, scheme=scheme, seed=run_seed,
            audit=True)
        res.graph.check_invariants()
        assert res.graph.degree_sequence() == graph.degree_sequence()
        # budget conservation is the auditor's run-level law
        assert res.switches_completed + res.unfulfilled == t
        assert res.run.trace.total_undelivered == 0


def _standalone_rank(rank: int, size: int, seed: int = 0) -> SwitchRank:
    """A SwitchRank outside any cluster, for driving handlers directly."""
    graph = erdos_renyi_gnm(16, 30, RngStream(seed))
    partitioner = make_partitioner("cp", graph, size, RngStream(seed))
    partitions = build_partitions(graph, partitioner)
    config = ParallelSwitchConfig(t=10, step_size=5)
    args = PerRankArgs(partitions[rank], partitioner, config)
    ctx = RankContext(rank, size, RngStream(seed + rank), args)
    return SwitchRank(ctx)


def _report(sr: SwitchRank) -> list:
    """Run the serve loop's termination turn: every report the rank's
    done-gate lets out now, as ``(dest, payload type, step, phase)``
    (payloads are tuples, so ``==`` alone would not tell them apart)."""
    ops = []
    while sr._done_gate():
        ops.extend(sr._report_done())
    return [(op.dest, type(op.payload).__name__, *op.payload) for op in ops]


def _deliver(sr: SwitchRank, source: int, payload) -> None:
    for _op in sr._dispatch(Message(source, TAG_PROTO, payload)):
        pass


def _servant_entry(sr: SwitchRank, conv) -> None:
    e2 = next(iter(sr.part.edges()))
    sr.part.checkout(e2)
    sr.servant[conv] = ServantState(conv, checked_out=[e2], reserved=[])


class TestTerminationRace:
    """The abort/termination interleaving that used to race.

    A failing rank sends Abort to the servants and Retry to the
    initiator on *different* channels.  The initiator may consume the
    Retry and finish its quota while the Abort is still in flight
    towards a servant.  Termination therefore runs in two phases:
    phase 0 ("every initiator is done") may be reported while servant
    state is held, because that condition never reverts; phase 1 ("no
    servant state") waits until the Abort or Commit lands, and the root
    ends the step only after every phase-1 report — otherwise DoneAll
    could overtake the cleanup and leak checkouts and reservations past
    the step.
    """

    def test_phase0_report_goes_out_while_servant_state_held(self):
        sr = _standalone_rank(rank=1, size=2)
        assert sr.up == 0 and not sr.children
        _servant_entry(sr, (0, 0))
        assert _report(sr) == [(0, "DoneUp", 0, 0)]
        assert sr.phase == 0 and _report(sr) == []  # once per phase

    def test_done_up_held_while_servant_state_pending(self):
        sr = _standalone_rank(rank=1, size=2)
        conv = (0, 0)
        _servant_entry(sr, conv)
        _report(sr)
        _deliver(sr, 0, DoneAll(0, 0))   # phase 0 ends: every initiator done
        assert sr.phase == 1
        assert _report(sr) == []         # the Abort is still in flight

        _deliver(sr, 0, Abort(conv))
        assert not sr.servant
        assert _report(sr) == [(0, "DoneUp", 0, 1)]

    def test_done_up_held_until_commit_applied(self):
        # Same shape with the success path: the servant entry is
        # resolved by a Commit instead of an Abort.
        sr = _standalone_rank(rank=1, size=2)
        conv = (0, 3)
        _servant_entry(sr, conv)
        _report(sr)
        _deliver(sr, 0, DoneAll(0, 0))
        assert _report(sr) == []

        _deliver(sr, 0, Commit(conv))
        assert not sr.servant
        assert _report(sr) == [(0, "DoneUp", 0, 1)]

    def test_root_ends_step_only_after_every_phase1_report(self):
        root = _standalone_rank(rank=0, size=3)
        assert root.up == -1 and root.children == [1, 2]
        assert _report(root) == []       # no phase-0 report from below yet
        _deliver(root, 1, DoneUp(0, 0))
        assert _report(root) == []
        _deliver(root, 2, DoneUp(0, 0))
        assert _report(root) == [(1, "DoneAll", 0, 0), (2, "DoneAll", 0, 0)]
        assert root.phase == 1

        _deliver(root, 2, DoneUp(0, 1))
        assert _report(root) == []       # rank 1 may still be owed a Commit
        _deliver(root, 1, DoneUp(0, 1))
        assert _report(root) == [(1, "DoneAll", 0, 1), (2, "DoneAll", 0, 1)]
        assert root.phase == 2
