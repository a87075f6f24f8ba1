"""Micro-benchmarks of the library's hot paths.

Not tied to a paper figure; these watch the constants that every
experiment depends on: sequential switch throughput, sampling,
partition construction, and the simulator's message throughput.
"""

import time

from repro.core.parallel.driver import parallel_edge_switch
from repro.core.sequential import sequential_edge_switch
from repro.graphs.generators import erdos_renyi_gnm
from repro.graphs.reduced import ReducedAdjacencyGraph
from repro.mpsim import ProcessCluster, SimulatedCluster, ThreadCluster
from repro.partition import ConsecutivePartitioner, build_partitions
from repro.rvgen.multinomial import multinomial_conditional
from repro.util.rng import RngStream

#: DES ping-pong throughput measured at the growth seed (messages per
#: second, best of 3 on the CI machine class) — the denominator of the
#: ``speedup_vs_seed`` figure in the benchmark JSON.
_SEED_PINGPONG_MSGS_PER_SEC = 66_252

_PINGPONG_ROUNDS = 2_000
_PINGPONG_ROUNDS_REAL = 400  # real backends: wall clock per hop is real


def _pingpong_program(ctx):
    """Two ranks bouncing one message (module-level: procs pickles it)."""
    rounds = (_PINGPONG_ROUNDS_REAL if ctx.args else _PINGPONG_ROUNDS)
    other = 1 - ctx.rank
    for i in range(rounds):
        if ctx.rank == 0:
            yield from ctx.send(other, 1, i)
            yield from ctx.recv()
        else:
            msg = yield from ctx.recv()
            yield from ctx.send(other, 1, msg.payload)
    return None


def test_bench_sequential_switch_throughput(benchmark, miami):
    rng = RngStream(0)
    result = benchmark(lambda: sequential_edge_switch(miami, 2000, rng))
    assert result.switches == 2000


def test_bench_edge_sampling(benchmark, miami):
    reduced = ReducedAdjacencyGraph.from_simple(miami)
    rng = RngStream(1)

    def sample_many():
        for _ in range(10_000):
            reduced.sample_edge(rng)

    benchmark(sample_many)


def test_bench_multinomial_draw(benchmark):
    rng = RngStream(2)
    probs = [1 / 64] * 64
    counts = benchmark(lambda: multinomial_conditional(50_000, probs, rng))
    assert sum(counts) == 50_000


def test_bench_partition_build(benchmark, miami):
    def build():
        cp = ConsecutivePartitioner(miami, 64)
        return build_partitions(miami, cp)

    parts = benchmark(build)
    assert sum(p.num_edges for p in parts) == miami.num_edges


def test_bench_simulator_message_throughput(benchmark):
    """Ping-pong: events through the DES per second.

    Every send waits for the reply, so this measures the engine's
    per-message cost."""
    elapsed = []

    def run():
        t0 = time.perf_counter()
        SimulatedCluster(2, seed=0).run(_pingpong_program)
        elapsed.append(time.perf_counter() - t0)

    benchmark.pedantic(run, rounds=5, iterations=1)
    msgs = 2 * _PINGPONG_ROUNDS / min(elapsed)  # best-of, like the seed figure
    benchmark.extra_info["msgs_per_sec"] = round(msgs)
    benchmark.extra_info["speedup_vs_seed"] = round(
        msgs / _SEED_PINGPONG_MSGS_PER_SEC, 2)


def test_bench_threads_message_throughput(benchmark):
    """The same ping-pong over real threads (lock handoffs per hop)."""
    elapsed = []

    def run():
        t0 = time.perf_counter()
        ThreadCluster(2, seed=0).run(_pingpong_program, args=True)
        elapsed.append(time.perf_counter() - t0)

    benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["msgs_per_sec"] = round(
        2 * _PINGPONG_ROUNDS_REAL / min(elapsed))


def test_bench_procs_message_throughput(benchmark):
    """The same ping-pong over OS processes (pipe pickles per hop)."""
    elapsed = []

    def run():
        t0 = time.perf_counter()
        ProcessCluster(2, seed=0).run(_pingpong_program, args=True)
        elapsed.append(time.perf_counter() - t0)

    benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["msgs_per_sec"] = round(
        2 * _PINGPONG_ROUNDS_REAL / min(elapsed))


def test_bench_procs_cross_rank_parallel_switch(benchmark):
    """Cross-rank-heavy parallel switch on the process backend.

    Two ranks under HP-U hash partitioning: roughly half of all switch
    partners are remote, so nearly every operation crosses the pipe.
    Fault tolerance is on, so every protocol message also costs a
    frame ack over the pipe between the two ranks."""
    g = erdos_renyi_gnm(300, 1200, RngStream(6))
    res = benchmark.pedantic(
        lambda: parallel_edge_switch(
            g, 2, t=400, step_size=200, scheme="hp-u", seed=7,
            backend="procs", fault_tolerance=True),
        rounds=3, iterations=1)
    assert res.fully_delivered


def test_bench_graph_generation(benchmark):
    g = benchmark(lambda: erdos_renyi_gnm(2000, 20_000, RngStream(3)))
    assert g.num_edges == 20_000


def test_bench_parallel_switch_audit_off(benchmark):
    """Baseline for the audit-overhead pair below: the protocol with the
    auditor disabled pays one ``is None`` check per hook."""
    g = erdos_renyi_gnm(200, 800, RngStream(4))
    res = benchmark.pedantic(
        lambda: parallel_edge_switch(g, 4, t=2000, step_size=500,
                                     scheme="hp-u", seed=5),
        rounds=3, iterations=1)
    assert res.reports[0].audit_events is None


def test_bench_parallel_switch_audit_on(benchmark):
    """Same run with flight recorder + invariant auditor attached."""
    g = erdos_renyi_gnm(200, 800, RngStream(4))
    res = benchmark.pedantic(
        lambda: parallel_edge_switch(g, 4, t=2000, step_size=500,
                                     scheme="hp-u", seed=5, audit=True),
        rounds=3, iterations=1)
    assert res.reports[0].audit_events
