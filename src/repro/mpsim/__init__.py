"""A distributed-memory message-passing machine, simulated.

The paper's algorithms ran as MPI programs on a 64-node cluster.  This
package provides the substitute substrate: rank programs are Python
generators that yield communication :mod:`ops <repro.mpsim.ops>`
(send / recv / probe / collectives), and three interchangeable
backends execute them:

* :class:`~repro.mpsim.cluster.SimulatedCluster` — a deterministic
  discrete-event simulator with per-rank virtual clocks and an
  ``α + β·bytes`` communication cost model.  Scales to thousands of
  ranks in one OS process and yields the *simulated-time* speedups used
  by every scaling figure.
* :class:`~repro.mpsim.threads.ThreadCluster` — runs the *same* rank
  programs on real OS threads with real nondeterministic interleaving;
  used by the test suite to validate protocol correctness beyond the
  deterministic schedule.
* :class:`~repro.mpsim.procs.ProcessCluster` — runs them on OS
  processes that share no memory, with every message pickled through a
  pipe: the closest offline stand-in for an MPI deployment.

What the three do the same way (collective sequencing and results,
end-of-run accounting, the blocking op loop with the fault hooks) is
written once in :mod:`repro.mpsim.interpreter`.

Rank programs follow the mpi4py idiom (rank/size, tags, any-source
receive) so they read like the MPI code the paper describes.
"""

from repro.mpsim.ops import (
    ANY_SOURCE,
    ANY_TAG,
    Compute,
    Message,
    Probe,
    Recv,
    Send,
)
from repro.mpsim.costmodel import CostModel
from repro.mpsim.cluster import SimulatedCluster, RunResult
from repro.mpsim.threads import ThreadCluster
from repro.mpsim.procs import ProcessCluster
from repro.mpsim.context import RankContext

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Compute",
    "Message",
    "Probe",
    "Recv",
    "Send",
    "CostModel",
    "SimulatedCluster",
    "ThreadCluster",
    "ProcessCluster",
    "RunResult",
    "RankContext",
]
