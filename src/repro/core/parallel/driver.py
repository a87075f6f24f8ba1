"""One-call public API for parallel edge switching.

Wires together: partitioning scheme → per-rank partitions → simulated
(or threaded) cluster → SPMD rank program → reassembled result graph
plus the statistics every experiment consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import List, Optional, Union

from repro.audit.auditor import AuditConfig, AuditScope
from repro.core.parallel.checkpoint import (
    CheckpointConfig,
    CheckpointSink,
    latest_checkpoint,
    load_checkpoint,
)
from repro.core.parallel.rank_program import switch_rank_program
from repro.core.parallel.state import RankReport
from repro.errors import CheckpointError
from repro.mpsim.faults import FaultPlan
from repro.errors import (
    ConfigurationError,
    ProtocolAuditError,
    ProtocolError,
    SimulationError,
)
from repro.graphs.graph import SimpleGraph
from repro.graphs.reduced import ReducedAdjacencyGraph
from repro.mpsim.cluster import RunResult, SimulatedCluster
from repro.mpsim.costmodel import CostModel
from repro.mpsim.procs import ProcessCluster
from repro.mpsim.threads import ThreadCluster
from repro.partition.base import Partitioner, build_partitions
from repro.partition.consecutive import ConsecutivePartitioner
from repro.partition.hashed import (
    DivisionHashPartitioner,
    MultiplicationHashPartitioner,
    UniversalHashPartitioner,
)
from repro.util.harmonic import switches_for_visit_rate
from repro.util.rng import RngStream

__all__ = [
    "ParallelSwitchConfig",
    "PerRankArgs",
    "ParallelSwitchResult",
    "make_partitioner",
    "parallel_edge_switch",
]

#: Scheme names accepted by :func:`make_partitioner`.
SCHEMES = ("cp", "hp-d", "hp-m", "hp-u")


@dataclass(frozen=True)
class ParallelSwitchConfig:
    """Run parameters shared by every rank."""

    #: Total switch operations ``t``.
    t: int
    #: Operations per step ``s`` (Section 4.5's step-size).
    step_size: int
    #: Machine constants used for simulated compute charging.
    cost: CostModel = field(default_factory=CostModel)
    #: Ship each rank's final edge list back in its report (needed by
    #: backends without shared memory).
    collect_edges: bool = False
    #: Flight recorder + online invariant auditor parameters; ``None``
    #: (the default) disables auditing entirely — the hot path then
    #: pays one identity check per protocol hook.
    audit: Optional[AuditConfig] = None
    #: Protocol-level fault tolerance (framing, ack/retransmit, dedup,
    #: death handling), given as its serve-loop tick: the timed
    #: receive's timeout in backend-local units (simulated cost units
    #: on the discrete-event backend, seconds on threads and procs).
    #: ``None`` (the default) disables it — protocol payloads then
    #: travel bare, exactly as without this feature.
    fault_tolerance: Optional[float] = None

    def __post_init__(self):
        if self.t < 0:
            raise ConfigurationError(f"t must be >= 0, got {self.t}")
        if self.step_size < 1:
            raise ConfigurationError(
                f"step size must be >= 1, got {self.step_size}")


@dataclass(frozen=True)
class PerRankArgs:
    """What each rank receives via its context."""

    partition: ReducedAdjacencyGraph
    partitioner: Partitioner
    config: ParallelSwitchConfig
    #: Driver-side recorder registry (audit runs only).  Shared-memory
    #: backends register live recorders here so mid-flight failures
    #: can still produce an event trace; the process backend pickles a
    #: copy per worker and relies on the rank reports instead.
    audit_scope: Optional[AuditScope] = None
    #: Step-boundary checkpoint collector (in-process backends only;
    #: the sink lives in driver memory).
    checkpoint_sink: Optional[CheckpointSink] = None
    #: Per-rank snapshot dict to restore before the run starts.
    restore_state: Optional[dict] = None
    #: Stop cleanly after this many completed steps — a deterministic
    #: kill point for checkpoint/restart testing.
    halt_after_step: Optional[int] = None


@dataclass
class ParallelSwitchResult:
    """Outcome of a parallel switching run."""

    #: Final graph, reassembled from all partitions.
    graph: SimpleGraph
    #: Per-rank statistics, rank order (``None`` at a crashed rank's
    #: slot — fault-injection runs only).
    reports: List[Optional[RankReport]]
    #: The backend's run result (simulated time, traces).
    run: RunResult
    #: Scheme name used ("CP", "HP-U", ...).
    scheme: str
    #: The configuration executed.
    config: ParallelSwitchConfig

    @property
    def sim_time(self) -> float:
        """Simulated makespan (cost units)."""
        return self.run.sim_time

    @property
    def live_reports(self) -> List[RankReport]:
        """Reports of the ranks that survived the run."""
        return [r for r in self.reports if r is not None]

    @property
    def dead_ranks(self) -> List[int]:
        """Ranks a fault plan crashed, ascending (empty otherwise)."""
        return self.run.trace.crashed_ranks

    @property
    def switches_completed(self) -> int:
        return sum(r.switches_completed for r in self.live_reports)

    @property
    def forfeited(self) -> int:
        return sum(r.forfeited for r in self.live_reports)

    @property
    def unfulfilled(self) -> int:
        """Budget the run ended without delivering (0 on a normal
        run).  Conservation law: ``t == switches_completed +
        unfulfilled`` — forfeits are re-budgeted into later steps, so
        they appear both in ``forfeited`` and in later assignments.
        The law survives rank deaths: a dead rank's completions are
        re-budgeted to the survivors."""
        live = self.live_reports
        return live[0].unfulfilled if live else 0

    @property
    def fully_delivered(self) -> bool:
        """True when every requested operation was performed."""
        return self.unfulfilled == 0

    @property
    def visit_rate(self) -> float:
        total = sum(r.initial_count for r in self.live_reports)
        if total == 0:
            return 0.0
        return sum(r.visited_count for r in self.live_reports) / total

    @property
    def workload_per_rank(self) -> List[int]:
        """Switch operations assigned per rank (Figs. 19–21)."""
        return [r.assigned_total if r is not None else 0
                for r in self.reports]

    @property
    def final_edges_per_rank(self) -> List[int]:
        """|E_i| after the run (Fig. 18)."""
        return [r.final_edges if r is not None else 0
                for r in self.reports]


def make_partitioner(
    scheme: Union[str, Partitioner],
    graph: SimpleGraph,
    num_ranks: int,
    rng: Optional[RngStream] = None,
) -> Partitioner:
    """Build a partitioner from a scheme name (or validate and pass
    one through).

    A pass-through instance must match the graph and rank count: a
    partitioner built for a different vertex universe or machine size
    silently mis-owns edges (every ownership lookup during validation
    chains goes through it), so mismatches are configuration errors.
    """
    if isinstance(scheme, Partitioner):
        if scheme.num_vertices != graph.num_vertices:
            raise ConfigurationError(
                f"partitioner was built for {scheme.num_vertices} "
                f"vertices but the graph has {graph.num_vertices}")
        if scheme.num_ranks != num_ranks:
            raise ConfigurationError(
                f"partitioner was built for {scheme.num_ranks} ranks "
                f"but the run uses {num_ranks}")
        return scheme
    name = scheme.lower()
    if name == "cp":
        return ConsecutivePartitioner(graph, num_ranks)
    if name == "hp-d":
        return DivisionHashPartitioner(graph.num_vertices, num_ranks)
    if name == "hp-m":
        return MultiplicationHashPartitioner(graph.num_vertices, num_ranks)
    if name == "hp-u":
        if rng is None:
            rng = RngStream(0)
        return UniversalHashPartitioner(graph.num_vertices, num_ranks, rng=rng)
    raise ConfigurationError(
        f"unknown scheme {scheme!r}; expected one of {SCHEMES} "
        "or a Partitioner instance")


def parallel_edge_switch(
    graph: SimpleGraph,
    num_ranks: int,
    *,
    visit_rate: Optional[float] = None,
    t: Optional[int] = None,
    step_size: Optional[int] = None,
    step_fraction: float = 0.01,
    scheme: Union[str, Partitioner] = "cp",
    seed: Optional[int] = 0,
    cost_model: Optional[CostModel] = None,
    backend: str = "sim",
    audit: Union[bool, AuditConfig, None] = False,
    faults: Optional[FaultPlan] = None,
    fault_tolerance: Optional[bool] = None,
    checkpoint: Union[str, CheckpointConfig, None] = None,
    resume: Optional[str] = None,
    halt_after_step: Optional[int] = None,
) -> ParallelSwitchResult:
    """Switch edges of ``graph`` on a ``num_ranks``-processor machine.

    Exactly one of ``visit_rate`` / ``t`` selects the amount of work;
    ``step_size`` defaults to ``max(1, t * step_fraction)`` — the
    paper's evaluation default is ``s = t/100``.  ``backend`` is
    ``"sim"`` (discrete-event, simulated time), ``"threads"`` (real
    threads, wall time) or ``"procs"`` (real OS processes, wall time);
    the latter two are for correctness testing at small ``p``.

    ``audit=True`` (or an :class:`~repro.audit.AuditConfig`) attaches
    the protocol flight recorder and online invariant auditor to every
    rank: invariant violations raise
    :class:`~repro.errors.ProtocolAuditError` with a replayable event
    trace (seed + per-rank event tail), and the driver additionally
    verifies global degree-sequence/edge-count conservation, budget
    conservation, and that no message was left undelivered.  Off by
    default: the hot path then costs one ``None`` check per hook.

    ``faults`` injects a deterministic
    :class:`~repro.mpsim.faults.FaultPlan` (drops, duplicates, delays,
    a crash) into the chosen backend; passing one implicitly enables
    protocol-level fault tolerance unless ``fault_tolerance`` is given
    explicitly.  ``fault_tolerance=True`` frames every protocol message
    for ack/retransmit/dedup and handles rank deaths; its serve-loop
    tick is 50 cost units on ``"sim"`` and 50 ms on the real backends.
    The retransmit timing is fixed
    (:mod:`~repro.core.parallel.ftolerance`'s module constants).

    ``checkpoint`` (a directory path or
    :class:`~repro.core.parallel.checkpoint.CheckpointConfig`) writes
    step-boundary snapshots; ``resume`` restarts from a checkpoint
    file (or the newest one in a directory).  In-process backends only
    — the process backend cannot share a sink.  ``halt_after_step``
    stops the run cleanly after that many steps (a deterministic kill
    point for restart testing).

    The input graph is not modified.
    """
    if (visit_rate is None) == (t is None):
        raise ConfigurationError("pass exactly one of visit_rate / t")
    if t is None:
        t = switches_for_visit_rate(graph.num_edges, visit_rate)
    if step_size is None:
        step_size = max(1, int(t * step_fraction))
    cost = cost_model if cost_model is not None else CostModel()
    if audit is True:
        audit_cfg: Optional[AuditConfig] = AuditConfig()
    elif audit is False or audit is None:
        audit_cfg = None
    elif isinstance(audit, AuditConfig):
        audit_cfg = audit
    else:
        raise ConfigurationError(
            f"audit must be a bool or AuditConfig, got {audit!r}")
    if backend not in ("sim", "threads", "procs"):
        raise ConfigurationError(
            f"unknown backend {backend!r}; expected 'sim', 'threads' "
            "or 'procs'")

    if fault_tolerance is None:
        # Injecting faults without the recovery layer deadlocks by
        # design; enable it implicitly unless explicitly declined.
        fault_tolerance = faults is not None
    elif fault_tolerance is not True and fault_tolerance is not False:
        raise ConfigurationError(
            f"fault_tolerance must be a bool or None, "
            f"got {fault_tolerance!r}")
    # The serve-loop tick is backend-local: simulated cost units under
    # the discrete-event engine, seconds on real backends.
    tick = (50.0 if backend == "sim" else 0.05) if fault_tolerance else None

    config = ParallelSwitchConfig(
        t=t, step_size=step_size, cost=cost,
        # workers have their own memory: results must travel in reports
        collect_edges=(backend == "procs"),
        audit=audit_cfg,
        fault_tolerance=tick,
    )

    sink: Optional[CheckpointSink] = None
    if checkpoint is not None:
        if backend == "procs":
            raise ConfigurationError(
                "checkpointing needs a shared-memory sink; the procs "
                "backend cannot offer snapshots to driver memory")
        ckpt_cfg = (checkpoint if isinstance(checkpoint, CheckpointConfig)
                    else CheckpointConfig(directory=str(checkpoint)))
        sink = CheckpointSink(ckpt_cfg, num_ranks)

    restore_states: Optional[List[dict]] = None
    if resume is not None:
        if backend == "procs":
            raise ConfigurationError(
                "resume is limited to the in-process backends")
        import os as _os
        path = resume
        if _os.path.isdir(path):
            found = latest_checkpoint(path)
            if found is None:
                raise CheckpointError(f"no checkpoint found in {path}")
            path = found
        restore_states = load_checkpoint(path, num_ranks)

    scheme_rng = RngStream(None if seed is None else seed + 1)
    partitioner = make_partitioner(scheme, graph, num_ranks, scheme_rng)
    partitions = build_partitions(graph, partitioner)
    scope = AuditScope(audit_cfg) if audit_cfg is not None else None
    per_rank = [
        PerRankArgs(
            part, partitioner, config, scope,
            checkpoint_sink=sink,
            restore_state=(restore_states[r] if restore_states is not None
                           else None),
            halt_after_step=halt_after_step,
        )
        for r, part in enumerate(partitions)
    ]

    if backend == "sim":
        cluster = SimulatedCluster(num_ranks, cost, seed=seed, faults=faults)
    elif backend == "threads":
        cluster = ThreadCluster(num_ranks, seed=seed, faults=faults)
    else:
        cluster = ProcessCluster(num_ranks, seed=seed, faults=faults)

    audit_context = {"seed": seed, "scheme": partitioner.name,
                     "backend": backend, "t": t, "step_size": step_size,
                     "num_ranks": num_ranks}
    try:
        run = cluster.run(switch_rank_program, per_rank_args=per_rank)
    except ProtocolAuditError as exc:
        # Re-raise with the run's replay recipe attached.
        raise ProtocolAuditError(
            exc.args[0].split("\n")[0], rank=exc.rank, step=exc.step,
            conv=exc.conv, events=exc.events, context=audit_context,
        ) from exc
    except (ProtocolError, SimulationError) as exc:
        if scope is None:
            raise
        # Deadlocks and bare protocol errors under audit still get a
        # cross-rank event trace (shared-memory backends only).
        raise ProtocolAuditError(
            f"protocol failure under audit: {exc}",
            events=scope.tails(), context=audit_context,
        ) from exc

    crashed = set(run.trace.crashed_ranks)
    if backend == "procs":
        # A crashed rank returns nothing.
        final_edges = [report.final_edge_list for report in run.values
                       if report is not None]
    else:
        # A dead rank's partition dies with it.
        final_edges = [part.edges() for rank, part in enumerate(partitions)
                       if rank not in crashed]
    final = SimpleGraph.from_edges(graph.num_vertices,
                                   chain.from_iterable(final_edges))

    result = ParallelSwitchResult(
        graph=final,
        reports=list(run.values),
        run=run,
        scheme=partitioner.name,
        config=config,
    )
    if audit_cfg is not None:
        _audit_run_checks(result, graph, scope, audit_context)
    return result


def _audit_run_checks(result: ParallelSwitchResult, graph: SimpleGraph,
                      scope: Optional[AuditScope], context: dict) -> None:
    """Driver-side (global) run-end invariants, audit runs only."""

    def fail(message: str) -> None:
        events = scope.tails() if scope is not None else ()
        raise ProtocolAuditError(message, events=events, context=context)

    undelivered = result.run.trace.total_undelivered
    if undelivered:
        fail(f"{undelivered} message(s) left undelivered at shutdown")
    if not result.dead_ranks:
        # A dead rank takes its partition (and any torn commit's
        # bookkeeping) with it: edge-count and degree conservation are
        # only claimed for crash-free runs.  Simplicity and the budget
        # identity below hold regardless.
        if result.graph.num_edges != graph.num_edges:
            fail(f"edge count not conserved: {result.graph.num_edges} != "
                 f"{graph.num_edges}")
        if result.graph.degree_sequence() != graph.degree_sequence():
            fail("degree sequence not conserved by the run")
    unfulfilled = {r.unfulfilled for r in result.live_reports}
    if len(unfulfilled) > 1:
        fail(f"ranks disagree on the unfulfilled budget: "
             f"{sorted(unfulfilled)}")
    t = result.config.t
    if result.switches_completed + result.unfulfilled != t:
        fail(f"budget not conserved: completed {result.switches_completed} "
             f"+ unfulfilled {result.unfulfilled} != t {t}")
    for report in result.live_reports:
        done = report.switches_completed + report.forfeited
        if done != report.assigned_total:
            fail(f"rank {report.rank} budget leak: completed+forfeited "
                 f"{done} != assigned {report.assigned_total}")
