#!/usr/bin/env python
"""Strong-scaling study on the simulated cluster (mini Fig. 4 / 14).

Sweeps the rank count for a chosen dataset and partitioning scheme and
prints the speedup series, including per-rank workload balance — the
quantities the paper's Section 5 comparison is built on.

Run:  python examples/scaling_study.py [dataset] [scheme]
      python examples/scaling_study.py miami hp-u
"""

import sys

from repro.datasets import DATASETS, load_dataset
from repro.experiments import print_series, strong_scaling
from repro.core.parallel.driver import parallel_edge_switch
from repro.util.harmonic import switches_for_visit_rate
from repro.util.stats import imbalance_factor


#: Rank counts of the sweep; the imbalance run uses the largest.
RANKS = (1, 2, 4, 8, 16, 32, 64)
#: Upper bound on the switch budget ``t`` (visit rate 1 otherwise).
T_CAP = 15_000


def main(dataset="miami", scheme="cp", ranks=RANKS, t_cap=T_CAP):
    if dataset not in DATASETS:
        raise SystemExit(f"unknown dataset {dataset!r}; "
                         f"pick one of {sorted(DATASETS)}")
    graph = load_dataset(dataset)
    t = min(switches_for_visit_rate(graph.num_edges, 1.0), t_cap)
    print(f"{dataset}: n={graph.num_vertices}, m={graph.num_edges}, "
          f"t={t}, scheme={scheme}")

    points = strong_scaling(graph, list(ranks),
                            scheme=scheme, t=t, step_fraction=0.1, seed=0)
    print_series(f"strong scaling — {dataset} / {scheme}", points)

    # workload balance at the largest machine
    p = max(ranks)
    res = parallel_edge_switch(graph, p, t=t, step_fraction=0.1,
                               scheme=scheme, seed=0)
    print(f"\nworkload imbalance at p={p} (max/mean): "
          f"{imbalance_factor(res.workload_per_rank):.2f}")
    print(f"final edge imbalance: "
          f"{imbalance_factor(res.final_edges_per_rank):.2f}")


if __name__ == "__main__":
    main(*sys.argv[1:3])
