"""Communication primitives yielded by rank programs.

A rank program is a generator; each ``yield`` hands one of these ops to
the executing backend, which resumes the generator with the op's result
(via ``generator.send``).  Higher-level helpers in
:mod:`repro.mpsim.context` wrap them so user code reads
``value = yield from ctx.recv(...)``.

Implementation note: the op types are :class:`typing.NamedTuple`
subclasses rather than frozen dataclasses.  They are constructed on the
hottest path of every backend (one ``Send`` + one ``Message`` + one
``Recv`` per protocol hop), and tuple construction is ~2.5x cheaper
than a frozen dataclass's ``object.__setattr__`` loop while keeping
the same immutability guarantee (attribute assignment raises
``AttributeError``), the same keyword constructors, ``repr`` and
equality.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Message",
    "Compute",
    "Send",
    "Recv",
    "Probe",
    "Collective",
    "COLLECTIVE_KINDS",
]

#: Wildcard for :class:`Recv`/:class:`Probe` source matching.
ANY_SOURCE = -1
#: Wildcard for :class:`Recv`/:class:`Probe` tag matching.
ANY_TAG = -1

#: Assumed size of a protocol message when the sender gives no hint.
DEFAULT_MSG_BYTES = 64


class Message(NamedTuple):
    """A delivered message as seen by the receiver."""

    source: int
    tag: int
    payload: Any
    #: Simulated arrival time (0.0 under the threads backend).
    arrival: float = 0.0

    def matches(self, source: int, tag: int) -> bool:
        """Wildcard-aware match against a receive specification."""
        return (source == -1 or source == self.source) and (
            tag == -1 or tag == self.tag
        )


class Compute(NamedTuple):
    """Charge ``cost`` units of local computation to the rank's clock."""

    cost: float


class Send(NamedTuple):
    """Asynchronous point-to-point send (buffered, never blocks).

    Channels are FIFO per (source, dest) pair — the termination
    handshake of the switching protocol relies on it, as real MPI
    programs rely on MPI's per-pair ordering guarantee.
    """

    dest: int
    tag: int
    payload: Any = None
    nbytes: int = DEFAULT_MSG_BYTES


class Recv(NamedTuple):
    """Blocking receive; resumes the rank with a :class:`Message`.

    ``timeout`` (``None`` = wait forever, the default) bounds the wait:
    on expiry the rank is resumed with ``None`` instead of a message.
    Units are backend-local — simulated cost units under the
    discrete-event engine, wall-clock seconds under threads/procs —
    so timed receives are a *liveness* device (fault-tolerance ticks),
    never a correctness one.
    """

    source: int = ANY_SOURCE
    tag: int = ANY_TAG
    timeout: Optional[float] = None


class Probe(NamedTuple):
    """Non-blocking probe; resumes with True iff a matching message has
    already arrived (it is *not* consumed)."""

    source: int = ANY_SOURCE
    tag: int = ANY_TAG


#: Collective kinds understood by all three backends.
COLLECTIVE_KINDS = (
    "barrier",
    "allgather",
    "allreduce",
    "bcast",
    "gather",
    "scatter",
    "alltoall",
)


class Collective(NamedTuple):
    """A synchronising collective over all ranks.

    All ranks must issue the same sequence of collectives with the same
    ``kind`` (SPMD discipline); the backends verify this and raise
    :class:`~repro.errors.SimulationError` on mismatch.

    ``value`` semantics by kind:

    ========== ============================== =========================
    kind        value                          result per rank
    ========== ============================== =========================
    barrier     ignored                        None
    allgather   any                            list of all values
    allreduce   number / tuple of numbers      elementwise reduction
    bcast       root's value used              root's value
    gather      any                            list at root, None else
    scatter     sequence of p values at root   own element
    alltoall    sequence of p values           column gathered from all
    ========== ============================== =========================
    """

    kind: str
    value: Any = None
    root: int = 0
    #: reduction for allreduce: "sum", "max" or "min"
    op: str = "sum"
    nbytes: int = DEFAULT_MSG_BYTES
