"""Pinned same-seed outputs of the discrete-event backend.

Makespan, message total, attempt total and the final edge list of five
fixed-seed runs are pinned to exact values.  Any change to the
protocol's message sequence, the engine's cost arithmetic or the RNG
stream discipline fails here even when every invariant still holds.

Every value was re-captured once, for two changes made together:

* step termination became a two-phase wave, and servants stopped
  acknowledging Commits.  Each switch sends one message fewer per
  servant, and each step ends with two termination waves instead of
  one, so message totals, arrival times and the RNG draws that follow
  them changed;
* the cost model's constants are rounded to multiples of 2⁻²⁰.  That
  moves each constant by at most 10⁻⁶ relative, but it can reorder
  near-simultaneous events.

Against the values before those changes, ``plain`` went from 860.80 to
877.01 makespan and 3,480 to 2,618 messages, and ``ranks64`` from
260.52 to 315.49 makespan and 3,926 to 3,119 messages: fewer messages,
but the second wave adds a climb and a descent of the tree to every
step's critical path.

The three fault-tolerant pins (``fault_tolerance``, ``message_faults``
and ``crash``) were re-captured once more when the reliable channel
stopped acknowledging every frame.  Acks now ride on frames as a
cumulative low-water mark, a bare ack goes out only when none could
ride, a seq gap is NACKed at once, and the end-of-step drain waits only
for what the termination wave does not prove.  Fewer messages move
every arrival time after the first one.  Old → new makespan and
messages: ``fault_tolerance`` 1145.16 / 5,648 → 902.69 / 3,015,
``message_faults`` 10575.01 / 6,321 → 8605.24 / 4,083, ``crash``
1356.96 / 6,259 → 1126.32 / 3,387.  ``plain`` and ``ranks64`` run
without the channel and did not move.

The same three makespans were re-captured once more when runs with and
without the channel came to share one step barrier.  Its allgather
carries ``(|E_i|, completed)`` in 16 bytes, where the fault-tolerant
runs sent a 24-byte triple, so each step's allgather costs β·8·p less
(p = 8) and nothing else moves: messages, attempts and the edge list
are unchanged.  Old → new makespan: ``fault_tolerance`` 902.6945 →
902.5664, ``message_faults`` 8605.2439 → 8605.1158 (2 steps each),
``crash`` 1126.3174 → 1125.9973 (5 steps).  ``plain`` and ``ranks64``
already sent 16 bytes and did not move.

Every value was re-captured once more for two changes made together:

* the engine's wake rule.  A blocked receive used to be woken by the
  latest matching send instead of the earliest arrival: every matching
  send pushed a new wake that cancelled the pending one, so a rank
  that B was sent to after A reached it woke at B's arrival and had
  its clock set back to A's.  A quarter of the wakes on a 64-rank
  Miami run fired late.  A blocked receive now keeps one wake time,
  its earliest matching arrival or its deadline, so replies go out
  earlier and every arrival time after the first late wake moves.
  Unifying the engine's delivery and receive code, without this rule,
  left all five pins bit-identical;
* any rank death now forfeits a survivor's in-flight conversation as
  initiator, not only a death of its partner, so the crash run
  forfeits more conversations and redraws their pairs.

Old → new makespan / messages / attempts: ``plain`` 877.01 / 2,618 /
680 → 849.22 / 2,650 / 690; ``fault_tolerance`` 902.57 / 3,015 / 704
→ 978.22 / 3,004 / 689; ``message_faults`` 8605.12 / 4,083 / 697 →
7265.05 / 3,871 / 697; ``ranks64`` 315.49 / 3,119 / 649 → 292.82 /
3,180 / 653; ``crash`` 1126.00 / 3,387 / 736 → 1228.05 / 3,457 / 749,
of which the wake rule alone gives 1094.10 / 3,349 / 738.  The crash
run still takes 5 steps.

The crash run crashes rank 2 at op 392.  Ops are counted per rank, and
without Commit acknowledgements op 392 falls at another protocol point
than it did when the index was chosen; the run still loses rank 2
mid-run and re-budgets its switches.

The final edge list is pinned through the SHA-256 of its sorted
``repr``.  Each run performs 600 switches on 1,200 edges in steps of
300: two steps, or five in the crash run, whose survivors re-budget the
dead rank's completed switches.

Every run uses 8 ranks except ``ranks64``, a plain run at 64 ranks.  It
pins what p=8 does not reach: the 64-cell multinomial, the depth-6
termination tree and 64-member collectives.
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
        849.2150058746338, 2650, 690,
        "dcc988de177337e8c805d1fec019e44aa820fab4e35b11d265944ece76705fed",
    ),
    "fault_tolerance": (
        {"fault_tolerance": True}, 2,
        978.2155828475952, 3004, 689,
        "338d463fdab03a0e6b6331003b461b782b2346876166bb2f955ba2bcc7e071ae",
    ),
    "message_faults": (
        {"faults": FaultPlan(seed=3, drop_rate=0.05, duplicate_rate=0.05,
                             delay_rate=0.05)}, 2,
        7265.045621871948, 3871, 697,
        "1b71a5bbbbfa3c7e923db96bb3745f36566d7a032bc5cc00b70227bb68316984",
    ),
    "crash": (
        {"faults": FaultPlan(seed=5, crash_rank=2, crash_at_op=392)}, 5,
        1228.047306060791, 3457, 749,
        "5ab6a210264f44a930d6174a12693915f2a2c18128a755b1788284d9aaa21fa4",
    ),
    "ranks64": (
        {"num_ranks": 64}, 2,
        292.82178115844727, 3180, 653,
        "6c6c16a588f7b33f510ff47d8a825f50a28d657e531fd894d88de0c7219ccba6",
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
    # The reliable channel costs frame bytes and a few bare acks, not
    # idle ticks: no step may wait out the retransmit window when
    # nothing is lost.
    plain = _run(graph)
    ft = _run(graph, fault_tolerance=True)
    assert ft.sim_time <= 1.35 * plain.sim_time


def test_fault_free_ft_run_never_retransmits(graph):
    res = _run(graph, fault_tolerance=True)
    for rep in res.reports:
        assert rep.retransmits == 0
        assert rep.abandoned == 0
        assert rep.dup_drops == 0
