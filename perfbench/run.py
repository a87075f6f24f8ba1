"""Benchmark of the parallel edge-switch stack, end to end and by layer.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload sim64 --seed 1 --seconds 10 --trace 0

Every workload switches edges of the Miami stand-in (``miami`` in
``repro.datasets``: 2,000 vertices, about 20,000 edges), generated
from ``--seed``.  Budgets follow the paper's evaluation setting: visit
rate 1 gives ``t`` (about 105,000) and the step size is ``s = t/100``.
A run performs only the first steps of that schedule, so each rank
gets as many operations per step as in a full run while one run stays
short enough to repeat many times.

Workloads:

``sim64``
    Discrete-event backend, 64 ranks, HP-U, 3 steps of ``s``: the
    strong-scaling configuration.  It stresses the DES engine and the
    protocol handlers, because nearly every switch crosses ranks.
``seq``
    Sequential Algorithm 1, 10 steps' worth of ``s``: the
    single-threaded reference.  Only graph ops and the switch kernel run.
``threads_ft``
    OS threads, 4 ranks, HP-U, fault tolerance on and no faults
    injected, 1 step of ``s``: lock handoff, the FT channel, its acks,
    and its end-of-step wait.
``procs``
    OS processes, 2 ranks, HP-U, no fault tolerance, 1 step of ``s/5``:
    every cross-rank message is pickled through a pipe and the parent's
    router.

A run alternates two timed calls until ``--seconds`` have passed: a
set-up, which partitions the graph into per-rank reduced adjacency
lists (``seq``: builds the one full reduced graph), and a whole switch
run.  ``setup_s`` is the median set-up.  ``switches_per_s`` is ``t``
over the fastest tenth of the run times (the minimum below ten runs).
On a shared machine the CPU speed can drift by half for tens of
seconds, and such noise only ever adds time, so a low quantile tracks
the program where the median tracks the machine's other load.
The heap is collected before each timed call.  Every run is checked:
all ``t`` switches were delivered, no message was left undelivered, and
the result is a simple graph with the input's degree sequence.  On
``sim64`` and ``seq`` repeated runs of one input must also agree bit
for bit.

``--trace 1`` repeats the same loop under ``cProfile`` and splits self
time over the layers of ``src/repro``:

``graph``      reduced adjacency lists, graphs and partition ownership;
``kernel``     switch proposals, visit tracking and edge/coin sampling;
``protocol``   conversation handlers, the rank program's step loop and
               the per-step distribution of the budget;
``engine``     the DES engine and the op/context layer of ``mpsim``;
``transport``  the coalescing adapter, thread lock handoff, and the
               process pipes and router;
``ft``         the reliable channel (framing, acks, retransmits);
``wait``       blocking calls: lock and condition waits, sleeps, polls;
``other``      everything else, such as pickling outside the transport.

Time in a library function is charged to the ``src/repro`` caller that
led to it.  There is one profiler per rank thread or process, one on
the procs router thread, and one on the calling thread.  The calling
thread's own wait for the cluster to finish is not counted.  Layer
times are summed over threads and processes and given per switch, so
on ``threads_ft`` and ``procs`` they add up to several times the wall
time.  A layer a workload does not run reports 0.  Profiling slows
every call, so these figures locate time; they do not predict it.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

SRC = Path(__file__).resolve().parent.parent / "src"
REPRO_DIR = str(SRC / "repro") + "/"

#: Switch runs (and set-ups) per measurement, even when ``--seconds``
#: has run out.
MIN_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    """One benchmarked configuration of the switch stack."""

    #: ``None`` runs the sequential reference.
    backend: Optional[str]
    ranks: int
    steps: int
    #: Step size as a fraction of the paper's ``s = t(x=1)/100``.
    step_scale: float = 1.0
    fault_tolerance: bool = False


WORKLOADS = {
    "sim64": Workload("sim", 64, steps=3),
    "seq": Workload(None, 1, steps=10),
    "threads_ft": Workload("threads", 4, steps=1, fault_tolerance=True),
    "procs": Workload("procs", 2, steps=1, step_scale=0.2),
}

# Layer of each source file, by path below ``src/repro``; first match wins.
_LAYERS = (
    ("graphs/", "graph"),
    ("partition/", "graph"),
    ("core/sequential.py", "kernel"),
    ("core/constraints.py", "kernel"),
    ("core/visit_rate.py", "kernel"),
    ("util/rng.py", "kernel"),
    ("core/parallel/ftolerance.py", "ft"),
    ("core/parallel/transport.py", "transport"),
    ("mpsim/threads.py", "transport"),
    ("mpsim/procs.py", "transport"),
    ("core/parallel/", "protocol"),
    ("rvgen/", "protocol"),
    ("mpsim/", "engine"),
)
LAYER_NAMES = ("graph", "kernel", "protocol", "engine", "transport", "ft",
               "wait", "other")

# Built-ins (as cProfile names them) that block the calling thread.
_BLOCKING = (
    "of '_thread.lock' objects",
    "of '_thread.RLock' objects",
    "time.sleep",
    "of 'select.poll' objects",
    "select.select",
)


def _classify(func) -> Optional[str]:
    """Layer of one cProfile function key, or None when the function
    belongs to no layer and its time goes to its callers."""
    filename, _, name = func
    if filename == "~":
        return "wait" if any(b in name for b in _BLOCKING) else None
    if not filename.startswith(REPRO_DIR):
        return None
    rel = filename[len(REPRO_DIR):]
    for prefix, layer in _LAYERS:
        if rel.startswith(prefix):
            return layer
    return "other"


def _caller_shares(callers, index, stats, memo, depth) -> Dict[str, float]:
    """Split one unit of time over layers by the callers' weights
    (``index`` 2 = self time per caller, 3 = cumulative time)."""
    total = sum(entry[index] for entry in callers.values())
    if total <= 0 or depth > 50:
        return {"other": 1.0}
    shares: Dict[str, float] = {}
    for caller, entry in callers.items():
        weight = entry[index] / total
        if weight <= 0:
            continue
        for layer, part in _layer_shares(caller, stats, memo, depth).items():
            shares[layer] = shares.get(layer, 0.0) + weight * part
    return shares


def _layer_shares(func, stats, memo, depth) -> Dict[str, float]:
    if func in memo:
        return memo[func]
    layer = _classify(func)
    if layer is not None:
        shares = {layer: 1.0}
    elif func not in stats:
        shares = {"other": 1.0}
    else:
        memo[func] = {"other": 1.0}  # cuts recursion cycles
        shares = _caller_shares(stats[func][4], 3, stats, memo, depth + 1)
    memo[func] = shares
    return shares


def split_layers(prof: cProfile.Profile, count_wait: bool = True
                 ) -> Dict[str, float]:
    """Self seconds per layer of one stopped profiler."""
    prof.create_stats()
    stats = prof.stats
    memo: dict = {}
    out: Dict[str, float] = {}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        if tt <= 0:
            continue
        layer = _classify(func)
        shares = ({layer: 1.0} if layer is not None
                  else _caller_shares(callers, 2, stats, memo, 0))
        for name, part in shares.items():
            out[name] = out.get(name, 0.0) + tt * part
    if not count_wait:
        out.pop("wait", None)
    return out


class LayerTrace:
    """Accumulates per-layer seconds from every profiler of a run."""

    def __init__(self):
        self.seconds = {name: 0.0 for name in LAYER_NAMES}

    def add(self, split: Dict[str, float]) -> None:
        for name, secs in split.items():
            self.seconds[name] += secs

    def install(self, backend: str) -> None:
        """Profile each rank thread or process, and the procs router.
        The sim backend runs every rank on the calling thread, which
        the caller profiles."""
        from repro.core.parallel import driver
        from repro.mpsim import procs

        program = driver.switch_rank_program

        def profiled_rank_program(ctx):
            prof = cProfile.Profile()
            prof.enable()
            try:
                report = yield from program(ctx)
            finally:
                prof.disable()
            # Travels home inside the report (pickled on procs).
            report.layer_seconds = split_layers(prof)
            return report

        driver.switch_rank_program = profiled_rank_program
        if backend != "procs":
            return
        router_run = procs._Router.run

        def profiled_router_run(router):
            prof = cProfile.Profile()
            prof.enable()
            try:
                router_run(router)
            finally:
                prof.disable()
                self.add(split_layers(prof))

        procs._Router.run = profiled_router_run

    def collect(self, result) -> None:
        for report in getattr(result, "reports", ()):
            split = getattr(report, "layer_seconds", None)
            if split:
                self.add(split)


def _budget(graph, wl: Workload):
    from repro.util.harmonic import switches_for_visit_rate

    s = switches_for_visit_rate(graph.num_edges, 1.0) // 100
    step = max(1, round(s * wl.step_scale))
    return wl.steps * step, step


def _setup(graph, wl: Workload, seed: int) -> Callable[[], None]:
    """The program's work before the first switch (what
    ``parallel_edge_switch`` and ``sequential_edge_switch`` do first)."""
    from repro.core.parallel.driver import make_partitioner
    from repro.core.visit_rate import VisitTracker
    from repro.graphs.reduced import ReducedAdjacencyGraph
    from repro.partition.base import build_partitions
    from repro.util.rng import RngStream

    def sequential():
        VisitTracker(ReducedAdjacencyGraph.from_simple(graph).edges())

    def parallel():
        partitioner = make_partitioner("hp-u", graph, wl.ranks,
                                       RngStream(seed + 1))
        for part in build_partitions(graph, partitioner):
            VisitTracker(part.edges())

    return sequential if wl.backend is None else parallel


def _runner(graph, wl: Workload, t: int, step: int, seed: int
            ) -> Callable[[], object]:
    from repro.core.parallel.driver import parallel_edge_switch
    from repro.core.sequential import sequential_edge_switch
    from repro.util.rng import RngStream

    if wl.backend is None:
        return lambda: sequential_edge_switch(graph, t, RngStream(seed))
    return lambda: parallel_edge_switch(
        graph, wl.ranks, t=t, step_size=step, scheme="hp-u", seed=seed,
        backend=wl.backend, fault_tolerance=wl.fault_tolerance)


def _check(result, graph, wl: Workload, t: int, degrees: List[int]):
    """Raise on a wrong result.  Returns the run's fingerprint (None on
    backends whose interleaving is not deterministic) and its message
    and attempt counts."""
    if wl.backend is None:
        if result.switches != t:
            raise AssertionError(f"{result.switches} of {t} switches done")
        result.graph.check_invariants()
        final = result.to_simple(graph.num_vertices)
        attempts, messages, makespan = result.attempts, 0, 0.0
    else:
        if result.switches_completed != t or not result.fully_delivered:
            raise AssertionError(
                f"{result.switches_completed} of {t} switches done, "
                f"{result.unfulfilled} unfulfilled")
        if result.run.trace.total_undelivered:
            raise AssertionError("messages left undelivered")
        final = result.graph
        attempts = sum(r.switches_completed + sum(r.rejections.values())
                       for r in result.live_reports)
        messages = result.run.trace.total_messages
        makespan = result.sim_time
    final.check_invariants()
    if final.num_edges != graph.num_edges:
        raise AssertionError("edge count changed")
    if final.degree_sequence() != degrees:
        raise AssertionError("degree sequence changed")
    fingerprint = None
    if wl.backend in (None, "sim"):
        fingerprint = (hash(frozenset(final.edges())), attempts, messages,
                       makespan)
    return fingerprint, messages, attempts


def _timed(fn, prof: Optional[cProfile.Profile] = None):
    """Call ``fn`` on a freshly collected heap; returns its value and
    wall seconds.  The collection keeps one run's garbage from being
    charged to the next."""
    gc.collect()
    if prof is not None:
        prof.enable()
    start = time.perf_counter()
    try:
        return fn(), time.perf_counter() - start
    finally:
        if prof is not None:
            prof.disable()


def _measure(setup_once, run_once, check, seconds: float,
             trace: Optional[LayerTrace]):
    """Alternate ``setup_once`` and ``run_once`` for ``seconds``, so both
    sample the same stretch of machine time.  Returns the wall times of
    set-ups and of correct runs, the failed run count, and the last
    run's message and attempt counts."""
    setups: List[float] = []
    times: List[float] = []
    failed = 0
    counts = (0, 0)
    reference = None
    deadline = time.perf_counter() + seconds
    while len(times) + failed < MIN_REPEATS or time.perf_counter() < deadline:
        result = None  # the previous run's result is garbage from here
        setups.append(_timed(setup_once)[1])
        prof = cProfile.Profile() if trace is not None else None
        try:
            result, elapsed = _timed(run_once, prof)
            fingerprint, messages, attempts = check(result)
            if reference is None:
                reference = fingerprint
            elif fingerprint != reference:
                raise AssertionError("same-seed runs differ")
        except Exception as exc:  # report and keep measuring
            failed += 1
            print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        if trace is not None:
            trace.add(split_layers(prof, count_wait=False))
            trace.collect(result)
        times.append(elapsed)
        counts = (messages, attempts)
    return setups, times, failed, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {SRC}; run from the root of "
              "a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from repro.datasets.catalog import DATASETS
    from repro.util.rng import RngStream

    wl = WORKLOADS[args.workload]
    graph = DATASETS["miami"].build(RngStream(args.seed))
    degrees = graph.degree_sequence()
    t, step = _budget(graph, wl)

    trace = None
    if args.trace:
        trace = LayerTrace()
        if wl.backend in ("threads", "procs"):
            trace.install(wl.backend)
    setup_times, times, failed, (messages, attempts) = _measure(
        _setup(graph, wl, args.seed),
        _runner(graph, wl, t, step, args.seed),
        lambda r: _check(r, graph, wl, t, degrees),
        args.seconds, trace)

    runs = len(times)
    print(f"{args.workload}: {graph.num_vertices} vertices, "
          f"{graph.num_edges} edges, t={t}, step={step}, {runs} runs, "
          f"{failed} failed, {messages} messages and {attempts} attempts "
          "in the last run")
    if trace is None:
        fast = sorted(times)[len(times) // 10] if times else float("inf")
        metrics = {
            "switches_per_s": {"value": t / fast, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times),
                        "unit": "s"},
        }
    else:
        switches = t * max(runs, 1)
        metrics = {f"{name}_us": {"value": secs * 1e6 / switches,
                                  "unit": "us/switch"}
                   for name, secs in trace.seconds.items()}
        metrics["msgs_per_switch"] = {"value": messages / t,
                                      "unit": "msg/switch"}
        metrics["attempts_per_switch"] = {"value": attempts / t,
                                          "unit": "attempt/switch"}
    print(json.dumps({"correct": failed == 0 and runs > 0,
                      "attempted": runs + failed, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
