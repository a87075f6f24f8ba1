"""Command-line interface.

::

    python -m repro switch --dataset miami --ranks 32 --scheme hp-u \
        --visit-rate 0.9
    python -m repro scaling --dataset flickr --scheme cp --ranks 1,4,16
    python -m repro datasets
    python -m repro experiments
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.parallel.driver import parallel_edge_switch
from repro.mpsim.faults import FaultPlan
from repro.datasets import DATASETS, load_dataset
from repro.experiments import print_series, print_table, strong_scaling
from repro.experiments.registry import EXPERIMENTS
from repro.graphs.metrics import degree_summary
from repro.util.harmonic import switches_for_visit_rate

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel edge switching (ICPP 2014 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("switch", help="run one parallel switching job")
    sw.add_argument("--dataset", default="miami", choices=sorted(DATASETS))
    sw.add_argument("--ranks", type=int, default=8)
    sw.add_argument("--scheme", default="cp",
                    choices=["cp", "hp-d", "hp-m", "hp-u"])
    sw.add_argument("--visit-rate", type=float, default=None)
    sw.add_argument("--switches", type=int, default=None,
                    help="explicit t (overrides --visit-rate)")
    sw.add_argument("--step-size", type=int, default=None)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--backend", default="sim",
                    choices=["sim", "threads", "procs"])
    sw.add_argument("--audit", action="store_true",
                    help="attach the protocol flight recorder and online "
                         "invariant auditor (fails loudly with an event "
                         "trace on any protocol violation)")
    sw.add_argument("--stats", action="store_true",
                    help="print per-rank traffic (messages sent and "
                         "received, bytes sent) and, with fault tolerance "
                         "on, per-rank ticks, retransmits, dup drops and "
                         "abandoned frames after the run")
    ft = sw.add_argument_group(
        "fault injection / fault tolerance",
        "deterministic faults (seeded, identical on every backend); any "
        "message fault or crash implicitly arms the reliable channel")
    ft.add_argument("--drop-rate", type=float, default=0.0,
                    help="probability a sent message is silently dropped")
    ft.add_argument("--dup-rate", type=float, default=0.0,
                    help="probability a sent message is delivered twice")
    ft.add_argument("--delay-rate", type=float, default=0.0,
                    help="probability a sent message is held and re-emitted "
                         "a few sends later")
    ft.add_argument("--crash-rank", type=int, default=-1,
                    help="rank to fail-stop mid-run (-1: none)")
    ft.add_argument("--crash-at-op", type=int, default=-1,
                    help="op count on --crash-rank at which the crash fires")
    ft.add_argument("--fault-seed", type=int, default=0,
                    help="master seed of the per-rank fault streams")
    ft.add_argument("--fault-tolerance", action="store_true",
                    help="arm the reliable channel (retransmit + dedup) even "
                         "without an active fault plan")
    ck = sw.add_argument_group("checkpoint / restart")
    ck.add_argument("--checkpoint", metavar="DIR", default=None,
                    help="write a step-boundary checkpoint file to DIR "
                         "(sim/threads backends)")
    ck.add_argument("--resume", metavar="DIR", default=None,
                    help="resume from the newest checkpoint in DIR")
    ck.add_argument("--halt-after-step", type=int, default=None,
                    help="stop cleanly after this step boundary (pairs with "
                         "--checkpoint to rehearse restart)")

    sc = sub.add_parser("scaling", help="strong-scaling sweep")
    sc.add_argument("--dataset", default="miami", choices=sorted(DATASETS))
    sc.add_argument("--scheme", default="cp",
                    choices=["cp", "hp-d", "hp-m", "hp-u"])
    sc.add_argument("--ranks", default="1,4,16,64",
                    help="comma-separated rank counts")
    sc.add_argument("--switches", type=int, default=10_000)
    sc.add_argument("--seed", type=int, default=0)

    sub.add_parser("datasets", help="list the dataset catalog")
    sub.add_parser("experiments", help="list the reproducible experiments")
    return parser


def _cmd_switch(args) -> int:
    graph = load_dataset(args.dataset)
    t = args.switches
    if t is None:
        x = args.visit_rate if args.visit_rate is not None else 1.0
        t = switches_for_visit_rate(graph.num_edges, x)
    faults = None
    if (args.drop_rate or args.dup_rate or args.delay_rate
            or args.crash_rank >= 0):
        faults = FaultPlan(
            seed=args.fault_seed, drop_rate=args.drop_rate,
            duplicate_rate=args.dup_rate, delay_rate=args.delay_rate,
            crash_rank=args.crash_rank, crash_at_op=args.crash_at_op)
    res = parallel_edge_switch(
        graph, args.ranks, t=t, step_size=args.step_size,
        scheme=args.scheme, seed=args.seed, backend=args.backend,
        audit=args.audit, faults=faults,
        fault_tolerance=True if args.fault_tolerance else None,
        checkpoint=args.checkpoint, resume=args.resume,
        halt_after_step=args.halt_after_step)
    print(f"dataset={args.dataset} n={graph.num_vertices} "
          f"m={graph.num_edges} t={t}")
    print(f"scheme={res.scheme} ranks={args.ranks} backend={args.backend}")
    print(f"switches completed: {res.switches_completed} "
          f"(forfeited {res.forfeited}, unfulfilled {res.unfulfilled})")
    if args.audit:
        print("audit: protocol invariants held (per-conversation ledger, "
              "budget and edge-count conservation, clean drain)")
    print(f"visit rate achieved: {res.visit_rate:.4f}")
    print(f"simulated time: {res.sim_time:.0f} cost units; "
          f"messages: {res.run.total_messages}")
    if args.stats:
        _print_traffic_stats(res)
    res.graph.check_invariants()
    if res.dead_ranks:
        print(f"crashed ranks: {res.dead_ranks} — their partitions are "
              f"lost; survivor identity t == completed + unfulfilled holds")
        print("invariants verified: surviving graph simple")
    else:
        if args.halt_after_step is not None:
            print(f"halted at step boundary {args.halt_after_step}; "
                  f"resume with --resume to finish the run")
        assert res.graph.degree_sequence() == graph.degree_sequence()
        print("invariants verified: graph simple, degree sequence "
              "preserved")
    return 0


def _print_traffic_stats(res) -> None:
    """Per-rank message traffic from the backend's rank traces, plus
    the fault-tolerance counters from the rank reports when the
    reliable channel was on (``--stats``)."""
    print("traffic (per rank):")
    for rt in res.run.trace.ranks:
        note = " (crashed)" if rt.crashed else ""
        print(f"  rank {rt.rank}: sent {rt.messages_sent} msgs "
              f"({rt.bytes_sent} bytes), received "
              f"{rt.messages_received} msgs{note}")
    if res.config.fault_tolerance is None:
        return
    print("fault tolerance (per rank):")
    for rank, rep in enumerate(res.reports):
        if rep is None:
            print(f"  rank {rank}: crashed")
            continue
        print(f"  rank {rank}: {rep.ft_ticks} ticks, {rep.retransmits} "
              f"retransmits, {rep.dup_drops} dup drops, {rep.abandoned} "
              "abandoned")


def _cmd_scaling(args) -> int:
    graph = load_dataset(args.dataset)
    ranks = [int(tok) for tok in args.ranks.split(",") if tok]
    points = strong_scaling(graph, ranks, scheme=args.scheme,
                            t=args.switches, step_fraction=0.1,
                            seed=args.seed)
    print_series(f"strong scaling — {args.dataset} / {args.scheme}", points)
    return 0


def _cmd_datasets(args) -> int:
    rows = []
    for name, ds in DATASETS.items():
        g = load_dataset(name)
        deg = degree_summary(g)
        rows.append((name, ds.kind, g.num_vertices, g.num_edges,
                     f"{deg['avg']:.1f}"))
    print_table("datasets", ["name", "type", "n", "m", "avg deg"], rows)
    return 0


def _cmd_experiments(args) -> int:
    rows = [(e.label, e.claim, f"benchmarks/{e.bench}")
            for e in EXPERIMENTS.values()]
    print_table("reproducible experiments",
                ["paper label", "claim", "bench"], rows)
    return 0


_COMMANDS = {
    "switch": _cmd_switch,
    "scaling": _cmd_scaling,
    "datasets": _cmd_datasets,
    "experiments": _cmd_experiments,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
