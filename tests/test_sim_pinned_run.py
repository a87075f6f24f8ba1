"""Pinned same-seed outputs of the discrete-event backend.

Makespan, message total, attempt total and the final edge list of four
fixed-seed runs are pinned to exact values.  The values were captured
at the commit before sends stopped being grouped into multi-message
frames (d163575), whose sim runs were already bit-identical with and
without that grouping.  Any change to the protocol's message sequence,
the engine's cost arithmetic or the RNG stream discipline fails here
even when every invariant still holds.

The crash run crashed rank 2 at op 400 on that commit, where a frame
of several sends counted as one op and the serve loop probed twice
before each initiation.  Op 392 is the same protocol point (same
logical op, same simulated clock) now that every send is its own op.

The three fault-tolerant runs (``fault_tolerance``, ``message_faults``,
``crash``) were re-captured when a received DoneAll copy began to count
as the acknowledgement of the DoneAll copies sent back to its sender.
Ranks now leave the end-of-step drain as soon as every peer has been
heard from, instead of waiting out the retransmit window for acks that
ranks already in the step barrier never send.  That removes the
retransmitted flood copies and the idle ticks, so message totals,
makespans and the RNG draws that follow them changed.  ``plain`` runs
without the reliable channel and is unchanged.

The final edge list is pinned through the SHA-256 of its sorted
``repr``.  Each run performs 600 switches on 1,200 edges in steps of
300: two steps, or five in the crash run, whose survivors re-budget the
dead rank's completed switches.

Every run uses 8 ranks except ``ranks64``, a plain run at 64 ranks.  It
pins what p=8 does not reach: the 64-cell multinomial, the depth-6
termination tree and 64-member collectives.  Its values were captured
at 5a83e46, before the interpreter overhead of the sim switch path was
cut.
"""

import hashlib

import pytest

from repro.core.parallel.driver import parallel_edge_switch
from repro.graphs.generators import erdos_renyi_gnm
from repro.mpsim.faults import FaultPlan
from repro.util.rng import RngStream

PINNED = {
    "plain": (
        {}, 2,
        860.7999999999932, 3480, 701,
        "e2abbb9f55ef63e51f950286922b2788810d515c3cca8d8714e4602f0c3905ec",
    ),
    "fault_tolerance": (
        {"fault_tolerance": True}, 2,
        1122.371999999991, 7212, 703,
        "43699597962ed971ddda2aef8c5bea2ce28ed0cfc02423d8e8bf5e69934d1b60",
    ),
    "message_faults": (
        {"faults": FaultPlan(seed=3, drop_rate=0.05, duplicate_rate=0.05,
                             delay_rate=0.05)}, 2,
        9201.997999999981, 7713, 692,
        "6b4b4287f3b4dea20c04ceea656232cd38a401ac5f9b301a0a7626869dcb8a9b",
    ),
    "crash": (
        {"faults": FaultPlan(seed=5, crash_rank=2, crash_at_op=392)}, 5,
        1445.9060000000038, 7385, 756,
        "621780fc5fa78cc75468e52cddf9039f8cdc2925e3dc3cbab28925bece9010d9",
    ),
    "ranks64": (
        {"num_ranks": 64}, 2,
        260.5200000000005, 3926, 654,
        "b40c5f747cc31da7d1353ab59ff33494bce45871e175d24472c65a87680b16b4",
    ),
}


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_gnm(300, 1200, RngStream(11))


def _run(graph, num_ranks=8, **kwargs):
    return parallel_edge_switch(graph, num_ranks, t=600, step_size=300,
                                scheme="hp-u", seed=5, **kwargs)


@pytest.mark.parametrize("case", sorted(PINNED))
def test_sim_run_matches_pinned_values(graph, case):
    kwargs, steps, makespan, messages, attempts, edges_sha = PINNED[case]
    res = _run(graph, **kwargs)
    assert res.dead_ranks == ([2] if case == "crash" else [])
    assert res.switches_completed == 600
    assert all(r.steps == steps for r in res.live_reports)
    assert res.sim_time == makespan
    assert res.run.trace.total_messages == messages
    assert sum(r.switches_completed + sum(r.rejections.values())
               for r in res.live_reports) == attempts
    edges = sorted(tuple(sorted(e)) for e in res.graph.edges())
    assert hashlib.sha256(repr(edges).encode()).hexdigest() == edges_sha


def test_fault_free_ft_makespan_close_to_plain(graph):
    # The reliable channel costs acks and frame bytes, not idle ticks:
    # no step may wait out the retransmit window when nothing is lost.
    plain = _run(graph)
    ft = _run(graph, fault_tolerance=True)
    assert ft.sim_time <= 1.35 * plain.sim_time


def test_fault_free_ft_run_never_retransmits(graph):
    res = _run(graph, fault_tolerance=True)
    for rep in res.reports:
        assert rep.retransmits == 0
        assert rep.abandoned == 0
        assert rep.dup_drops == 0
