"""Rank-side programming interface.

A rank program is written as a generator function taking a
:class:`RankContext`::

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, tag=7, payload="hello")
        elif ctx.rank == 1:
            msg = yield from ctx.recv(source=0, tag=7)
        counts = yield from ctx.allgather(ctx.rank * 10)
        return counts

The helpers are thin generators over the :mod:`~repro.mpsim.ops`
primitives, so the same program runs unmodified on the discrete-event
backend and the real-threads backend.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Sequence

from repro.mpsim.ops import (
    ANY_SOURCE,
    ANY_TAG,
    Collective,
    Compute,
    Message,
    Probe,
    Recv,
    Send,
)
from repro.util.rng import RngStream

__all__ = ["RankContext", "RankProgram"]

#: Signature of a rank program.
RankProgram = Callable[["RankContext"], Generator]

#: The wildcard blocking receive, prebuilt once (hot-path constant).
_RECV_ANY = Recv(ANY_SOURCE, ANY_TAG, None)


class RankContext:
    """Everything a rank program sees: its identity, its private RNG
    stream, and the communication helpers."""

    __slots__ = ("rank", "size", "rng", "args")

    def __init__(self, rank: int, size: int, rng: Optional[RngStream] = None,
                 args: Any = None):
        self.rank = rank
        self.size = size
        self.rng = rng
        self.args = args

    # -- point-to-point ----------------------------------------------------

    def send(self, dest: int, tag: int, payload: Any = None,
             nbytes: int = 64):
        """Buffered asynchronous send (use ``yield from``).

        Returns a one-op tuple rather than being a generator: sends are
        fire-and-forget (every backend resumes them with ``None``), so
        ``yield from`` can delegate to a plain tuple iterator and skip
        the per-call generator frame — this is the hottest helper of
        every protocol hop.
        """
        return (Send(dest, tag, payload, nbytes),)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             timeout: Optional[float] = None):
        """Blocking receive; returns the :class:`Message`.

        With ``timeout`` set, returns ``None`` if no matching message
        arrives within the (backend-local) bound — see
        :class:`~repro.mpsim.ops.Recv`.
        """
        if source == ANY_SOURCE and tag == ANY_TAG and timeout is None:
            msg = yield _RECV_ANY  # cached: skip the namedtuple build
        else:
            msg = yield Recv(source, tag, timeout)
        return msg

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Non-blocking probe; returns ``bool``."""
        flag = yield Probe(source, tag)
        return flag

    # -- local work -----------------------------------------------------------

    def compute(self, cost: float):
        """Charge ``cost`` units of local computation (use ``yield
        from``; a tuple for the same reason as :meth:`send`)."""
        return (Compute(cost),)

    # -- collectives -------------------------------------------------------------

    def barrier(self):
        yield Collective("barrier")

    def allgather(self, value: Any, nbytes: int = 64) -> Generator:
        """Returns the list of every rank's ``value`` (rank order)."""
        result = yield Collective("allgather", value, nbytes=nbytes)
        return result

    def allreduce(self, value: Any, op: str = "sum", nbytes: int = 64):
        """Elementwise reduction of numbers or equal-length sequences."""
        result = yield Collective("allreduce", value, op=op, nbytes=nbytes)
        return result

    def bcast(self, value: Any, root: int = 0, nbytes: int = 64):
        """Root's value, everywhere (non-roots pass anything)."""
        result = yield Collective("bcast", value, root=root, nbytes=nbytes)
        return result

    def gather(self, value: Any, root: int = 0, nbytes: int = 64):
        """List of values at ``root``, None elsewhere."""
        result = yield Collective("gather", value, root=root, nbytes=nbytes)
        return result

    def scatter(self, values: Optional[Sequence[Any]], root: int = 0,
                nbytes: int = 64):
        """Element ``i`` of root's sequence to rank ``i``."""
        result = yield Collective("scatter", values, root=root, nbytes=nbytes)
        return result

    def alltoall(self, values: Sequence[Any], nbytes: int = 64):
        """Personalised exchange: rank ``i`` receives
        ``[values_j[i] for j in ranks]``."""
        result = yield Collective("alltoall", values, nbytes=nbytes)
        return result


def reduce_values(values: List[Any], op: str) -> Any:
    """Shared reduction used by all three backends for ``allreduce``.

    Supports scalars and equal-length sequences (elementwise).
    """
    if not values:
        return None
    first = values[0]
    if isinstance(first, (list, tuple)):
        cols = zip(*values)
        reduced = [_reduce_scalars(list(col), op) for col in cols]
        return type(first)(reduced) if isinstance(first, tuple) else reduced
    return _reduce_scalars(values, op)


def _reduce_scalars(values: List[Any], op: str):
    if op == "sum":
        return sum(values)
    if op == "max":
        return max(values)
    if op == "min":
        return min(values)
    raise ValueError(f"unknown reduction op {op!r}")
