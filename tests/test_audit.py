"""Tests for the protocol flight recorder + online invariant auditor.

Two halves:

* **clean runs** — with the auditor attached, correct runs across all
  backends and partitioning schemes must pass silently and expose the
  per-rank event tail on their reports;
* **mutation runs** — seeded protocol bugs (a leaked abort, a
  single-phase done-gate) must be detected and reported as
  :class:`~repro.errors.ProtocolAuditError` carrying a conversation
  event trace and the run's replay recipe (seed/scheme/backend).
"""

import pytest

from repro.audit import (
    AuditConfig,
    AuditEvent,
    AuditScope,
    EVENT_KINDS,
    FlightRecorder,
    ProtocolAuditor,
)
from repro.core.parallel.driver import parallel_edge_switch
from repro.core.parallel.protocol import ConversationMixin
from repro.core.parallel.rank_program import SwitchRank
from repro.errors import (
    ConfigurationError,
    DeadlockError,
    ProtocolAuditError,
    ProtocolError,
    SimulationError,
)
from repro.graphs.generators import erdos_renyi_gnm
from repro.util.rng import RngStream


@pytest.fixture
def small_graph():
    return erdos_renyi_gnm(30, 60, RngStream(5))


@pytest.fixture
def dense_tiny_graph():
    # High edge density on few vertices maximises validation conflicts,
    # i.e. abort/retry traffic — the paths the auditor watches.
    return erdos_renyi_gnm(10, 40, RngStream(1))


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        rec = FlightRecorder(rank=0, capacity=8)
        for i in range(50):
            rec.record("local", note=f"op{i}")
        tail = rec.tail()
        assert len(tail) == 8
        assert rec.events_recorded == 50
        assert tail[-1].note == "op49"
        assert tail[0].note == "op42"  # oldest survivor

    def test_tail_n(self):
        rec = FlightRecorder(rank=3)
        for i in range(10):
            rec.record("initiate", conv=(3, i))
        tail = rec.tail(4)
        assert [e.conv for e in tail] == [(3, 6), (3, 7), (3, 8), (3, 9)]

    def test_events_for_conversation(self):
        rec = FlightRecorder(rank=1)
        rec.record("request", conv=(0, 7))
        rec.record("local")
        rec.record("commit", conv=(0, 7))
        rec.record("commit", conv=(0, 8))
        evs = rec.events_for((0, 7))
        assert [e.kind for e in evs] == ["request", "commit"]

    def test_unknown_kind_rejected(self):
        rec = FlightRecorder(rank=0)
        with pytest.raises(ValueError):
            rec.record("teleport")

    def test_event_str_is_compact(self):
        rec = FlightRecorder(rank=2)
        rec.record("abort", conv=(1, 3), note="send")
        s = str(rec.tail()[0])
        assert "rank=2" in s and "abort" in s and "(1, 3)" in s


class TestAuditorLedger:
    def test_double_open_detected(self):
        aud = ProtocolAuditor(0, AuditConfig())
        aud.conv_open((0, 1), "initiator")
        with pytest.raises(ProtocolAuditError, match="opened twice"):
            aud.conv_open((0, 1), "partner")

    def test_close_unopened_detected(self):
        aud = ProtocolAuditor(0, AuditConfig())
        with pytest.raises(ProtocolAuditError):
            aud.conv_close((4, 2), "abort")

    def test_error_carries_conv_trace(self):
        aud = ProtocolAuditor(0, AuditConfig())
        aud.conv_open((0, 1), "initiator")
        aud.record("initiate", (0, 1), "partner=2")
        with pytest.raises(ProtocolAuditError) as info:
            aud.conv_open((0, 1), "partner")
        err = info.value
        assert err.conv == (0, 1)
        assert any(e.kind == "initiate" for e in err.events)
        assert any(e.kind == "violation" for e in err.events)


class TestCleanRuns:
    @pytest.mark.parametrize("scheme", ["cp", "hp-d", "hp-m", "hp-u"])
    @pytest.mark.parametrize("backend", ["sim", "threads"])
    def test_audited_run_passes(self, small_graph, backend, scheme):
        res = parallel_edge_switch(
            small_graph, 4, t=200, step_size=50, scheme=scheme, seed=3,
            backend=backend, audit=True)
        res.graph.check_invariants()
        assert res.graph.degree_sequence() == small_graph.degree_sequence()
        assert res.unfulfilled == 0
        assert res.run.trace.total_undelivered == 0
        for report in res.reports:
            assert report.audit_events, "event tail missing on report"
            assert all(isinstance(e, AuditEvent) for e in report.audit_events)
            assert all(e.kind in EVENT_KINDS for e in report.audit_events)

    def test_audited_run_procs_backend(self, small_graph):
        res = parallel_edge_switch(
            small_graph, 3, t=90, step_size=30, scheme="hp-u", seed=7,
            backend="procs", audit=True)
        res.graph.check_invariants()
        # events must survive pickling across the process boundary
        assert all(r.audit_events for r in res.reports)

    def test_audit_accepts_config_instance(self, small_graph):
        cfg = AuditConfig(ring=32, trail=8)
        res = parallel_edge_switch(
            small_graph, 2, t=50, scheme="cp", seed=0, audit=cfg)
        assert all(len(r.audit_events) <= 32 for r in res.reports)

    def test_audit_rejects_junk(self, small_graph):
        with pytest.raises(ConfigurationError):
            parallel_edge_switch(small_graph, 2, t=10, audit="yes")

    def test_audit_off_leaves_no_trace(self, small_graph):
        res = parallel_edge_switch(small_graph, 2, t=50, scheme="cp", seed=0)
        assert all(r.audit_events is None for r in res.reports)
        assert res.config.audit is None

    def test_deterministic_under_audit(self, small_graph):
        """Attaching the auditor must not perturb the run itself."""
        a = parallel_edge_switch(small_graph, 4, t=200, scheme="hp-d", seed=9)
        b = parallel_edge_switch(small_graph, 4, t=200, scheme="hp-d", seed=9,
                                 audit=True)
        assert sorted(a.graph.edges()) == sorted(b.graph.edges())
        assert a.sim_time == b.sim_time


@pytest.fixture
def leaky_abort():
    """Mutation: Abort drops the servant entry but leaks the checkout
    and reservations (the bug class checkout/reservation discipline
    exists to prevent)."""
    orig = ConversationMixin.handle_abort

    def mutated(self, source, msg):
        self.servant.pop(msg.conv, None)
        return
        yield  # pragma: no cover

    ConversationMixin.handle_abort = mutated
    yield
    ConversationMixin.handle_abort = orig


@pytest.fixture
def sticky_gate():
    """Mutation: the single-phase done-gate.  A rank reports phase 1 as
    soon as its quota is done, it is idle and it holds no servant
    state, without waiting for the phase-0 wave.  It keeps serving
    after that report, so other ranks' conversations can still reach
    it, and DoneAll can overtake an Abort owed to it."""
    orig = SwitchRank._done_gate

    def mutated(self):
        if (self.phase == 0 and self.quota == 0 and self.active is None
                and not self.servant):
            self.phase = 1
        return orig(self)

    SwitchRank._done_gate = mutated
    yield
    SwitchRank._done_gate = orig


def _run_collision_heavy(graph, seed, audit=True):
    return parallel_edge_switch(
        graph, 4, t=400, scheme="hp-d", seed=seed, audit=audit)


class TestMutationDetection:
    def test_leaky_abort_detected(self, dense_tiny_graph, leaky_abort):
        with pytest.raises(ProtocolAuditError) as info:
            for seed in range(10):
                _run_collision_heavy(dense_tiny_graph, seed)
        err = info.value
        # conversation-level diagnosis with the replay recipe attached
        assert err.conv is not None
        assert err.events
        assert err.context and "seed" in err.context
        assert "open" in str(err) or "reservation" in str(err) \
            or "checked out" in str(err) or "pool" in str(err)

    @pytest.mark.parametrize("seed", range(5))
    def test_sticky_gate_detected(self, dense_tiny_graph, sticky_gate,
                                  seed):
        # Every run is caught by the termination seal, at the first
        # conversation message that reaches a rank after its report.
        with pytest.raises(ProtocolAuditError,
                           match="after its phase-1 termination report"
                           ) as info:
            _run_collision_heavy(dense_tiny_graph, seed)
        err = info.value
        assert err.conv is not None
        kinds = [e.kind for e in err.events]
        assert "done_up" in kinds and kinds[-1] == "violation"
        assert err.context["scheme"] == "HP-D"

    def test_mutations_invisible_without_audit(self, dense_tiny_graph,
                                               leaky_abort):
        """Documents the gap the auditor closes: without it the leak
        either slips through or surfaces far from the cause."""
        try:
            for seed in range(3):
                _run_collision_heavy(dense_tiny_graph, seed, audit=False)
        except ProtocolAuditError:  # pragma: no cover
            pytest.fail("auditor error without auditor attached")
        except (ProtocolError, SimulationError, DeadlockError):
            pass  # generic late failure, no conversation context


class TestAuditScope:
    def test_tails_merge_sorted(self):
        scope = AuditScope(AuditConfig())
        a = FlightRecorder(rank=0)
        b = FlightRecorder(rank=1)
        scope.register(0, a)
        scope.register(1, b)
        a.step = 0
        b.step = 0
        a.record("initiate", (0, 0))
        b.record("request", (0, 0))
        a.step = 1
        a.record("local")
        merged = scope.tails()
        assert [e.step for e in merged] == [0, 0, 1]
        assert merged[-1].kind == "local"
