"""Performance model of the simulated machine.

Point-to-point messages follow the classic LogP-style ``α + β·bytes``
model plus per-message CPU overheads on both ends; collectives are
charged a binomial-tree schedule, ``⌈log₂ p⌉`` rounds of
``α + β·bytes``.  The defaults are loosely calibrated to the paper's
testbed (QDR InfiniBand between Sandy Bridge nodes): a microsecond-ish
latency that is one to two orders of magnitude above the per-switch
compute cost, which is what makes communication the dominant cost at
high rank counts — the regime all the scaling figures live in.

Time is unitless "cost units"; only ratios matter for speedup curves.

Every constant is rounded to a multiple of :data:`QUANTUM` (2⁻²⁰), so
clock sums are exact in binary floating point and do not depend on the
clock's starting value.  A run resumed from a checkpoint restarts its
clocks at 0, and with exact sums it replays the uninterrupted run bit
for bit.  Constants such as 0.8 or 0.15 are not exact in binary, so
the rounding of each sum would depend on the offset and a resumed run
could diverge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = ["CostModel", "QUANTUM"]

#: Grid the constants are rounded to: fine enough to keep every
#: default within 10⁻⁶ of its nominal value, coarse enough that clocks
#: below 2³³ (about 8·10⁹) units still add exactly in a 53-bit mantissa.
QUANTUM = 2.0 ** -20


@dataclass(frozen=True)
class CostModel:
    """Tunable constants of the simulated machine.

    Attributes
    ----------
    alpha:
        One-way message latency (wire time until first byte).
    beta:
        Per-byte wire time.
    send_overhead / recv_overhead:
        CPU time charged to the sender/receiver per message (these, not
        ``alpha``, bound throughput when latency is overlapped).
    switch_compute:
        CPU cost of one edge-switch attempt's local work (sampling,
        adjacency checks, set updates).
    check_compute:
        CPU cost of one parallel-edge membership check.
    trial_compute:
        CPU cost per BINV trial unit for multinomial generation
        (Section 6's ``O(N)`` sequential work).
    cell_compute:
        Fixed CPU cost per multinomial cell.

    Each value is stored rounded to a multiple of :data:`QUANTUM`.
    """

    alpha: float = 0.8
    beta: float = 0.001
    send_overhead: float = 0.25
    recv_overhead: float = 0.25
    switch_compute: float = 1.0
    check_compute: float = 0.15
    trial_compute: float = 0.02
    cell_compute: float = 0.02

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            object.__setattr__(self, f.name,
                               round(value / QUANTUM) * QUANTUM)

    # -- point-to-point -------------------------------------------------

    def wire_time(self, nbytes: int) -> float:
        """Time on the wire for one message of ``nbytes``."""
        return self.alpha + self.beta * nbytes

    # -- collectives ----------------------------------------------------

    def tree_rounds(self, p: int) -> int:
        """Rounds of a binomial-tree schedule over ``p`` ranks."""
        return max(1, math.ceil(math.log2(max(2, p))))

    def collective_time(self, kind: str, p: int, nbytes: int) -> float:
        """Completion time of a collective once all ranks have arrived.

        ``barrier``/``bcast``/``gather``/``scatter``/``allreduce`` use a
        tree (``log p`` rounds); ``allgather``/``alltoall`` additionally
        move ``p`` items, so their payload term scales with ``p``.
        """
        rounds = self.tree_rounds(p)
        per_round = self.alpha + self.beta * nbytes
        if kind in ("allgather", "alltoall"):
            # recursive-doubling allgather: log p rounds, doubling data
            return rounds * self.alpha + self.beta * nbytes * p
        if kind == "barrier":
            return rounds * self.alpha
        return rounds * per_round
