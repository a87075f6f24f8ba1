"""Distributed-memory parallel edge switching (Sections 4 and 5).

Layers, bottom up:

* :mod:`~repro.core.parallel.messages` — the wire protocol;
* :mod:`~repro.core.parallel.state` — per-rank runtime state
  (partition, reservations, conversation book-keeping, statistics);
* :mod:`~repro.core.parallel.protocol` — the conversation state
  machine each rank runs (initiator / partner / edge-owner roles);
* :mod:`~repro.core.parallel.rank_program` — the SPMD generator
  combining the step loop, multinomial work distribution, switching,
  and the two-phase termination wave;
* :mod:`~repro.core.parallel.driver` — the one-call public API
  :func:`~repro.core.parallel.driver.parallel_edge_switch`.
"""

from repro.audit.auditor import AuditConfig
from repro.core.parallel.driver import (
    ParallelSwitchConfig,
    ParallelSwitchResult,
    parallel_edge_switch,
)
from repro.core.parallel.state import RankReport
from repro.errors import ProtocolAuditError

__all__ = [
    "AuditConfig",
    "ParallelSwitchConfig",
    "ParallelSwitchResult",
    "ProtocolAuditError",
    "parallel_edge_switch",
    "RankReport",
]
