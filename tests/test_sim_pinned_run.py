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

The final edge list is pinned through the SHA-256 of its sorted
``repr``.  Each run performs 600 switches on 1,200 edges in steps of
300: two steps, or five in the crash run, whose survivors re-budget the
dead rank's completed switches.
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
        4134.194000000036, 7368, 695,
        "5af2c0e0162f4882d4389cebf5106363436d4290c1a3e468621793f653d98348",
    ),
    "message_faults": (
        {"faults": FaultPlan(seed=3, drop_rate=0.05, duplicate_rate=0.05,
                             delay_rate=0.05)}, 2,
        13387.245999999968, 7949, 695,
        "0d7b30351ae87b46dda77eef5d28d98b274d201afe3ef3db47a2e76833230677",
    ),
    "crash": (
        {"faults": FaultPlan(seed=5, crash_rank=2, crash_at_op=392)}, 5,
        8986.450000000004, 7553, 784,
        "1bcc0ac59d9ee35688c3f8dcbefb432f20498d17757be84241b427884d7b456f",
    ),
}


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_gnm(300, 1200, RngStream(11))


@pytest.mark.parametrize("case", sorted(PINNED))
def test_sim_run_matches_pinned_values(graph, case):
    kwargs, steps, makespan, messages, attempts, edges_sha = PINNED[case]
    res = parallel_edge_switch(graph, 8, t=600, step_size=300,
                               scheme="hp-u", seed=5, **kwargs)
    assert res.dead_ranks == ([2] if case == "crash" else [])
    assert res.switches_completed == 600
    assert all(r.steps == steps for r in res.live_reports)
    assert res.sim_time == makespan
    assert res.run.trace.total_messages == messages
    assert sum(r.switches_completed + sum(r.rejections.values())
               for r in res.live_reports) == attempts
    edges = sorted(tuple(sorted(e)) for e in res.graph.edges())
    assert hashlib.sha256(repr(edges).encode()).hexdigest() == edges_sha
