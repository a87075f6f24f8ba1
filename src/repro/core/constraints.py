"""Switch feasibility logic (Sections 3.2 and 4.2).

Given two canonical edges ``e1 = (u1, v1)`` and ``e2 = (u2, v2)``
(``u < v`` in each) and a switch kind, the replacement edges are

* **cross**: ``(u1, v2)`` and ``(u2, v1)`` — edges ``e3``/``e4`` of
  the paper's Fig. 3;
* **straight**: ``(u1, u2)`` and ``(v1, v2)`` — edges ``e5``/``e6``.

Both kinds are attempted with probability ½ each because a reduced
adjacency list only ever yields an edge in its canonical orientation,
which would otherwise make half the outcomes unreachable (Section 4.2).

Degenerate cases, independent of graph content:

=========  =========================  ==========================
condition   cross outcome              straight outcome
=========  =========================  ==========================
u1 == u2    useless (no change)        self-loop
v1 == v2    useless (no change)        self-loop
u1 == v2    self-loop                  useless
u2 == v1    self-loop                  useless
=========  =========================  ==========================

Parallel-edge creation additionally depends on the current graph and is
checked by the caller against the owner of each replacement edge.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional, Tuple

from repro.errors import SwitchError
from repro.types import Edge

__all__ = ["SwitchKind", "FailureReason", "SwitchProposal", "propose_switch"]


class SwitchKind(enum.Enum):
    """Cross vs straight replacement (paper Fig. 3)."""

    CROSS = "cross"
    STRAIGHT = "straight"


class FailureReason(enum.Enum):
    """Why a switch attempt was rejected (restart statistics)."""

    LOOP = "loop"
    USELESS = "useless"
    PARALLEL = "parallel"
    SAME_EDGE = "same_edge"
    EMPTY_POOL = "empty_pool"
    #: A conversation participant died (fault tolerance): the attempt
    #: is abandoned and the initiator picks a fresh pair.
    DEAD_PEER = "dead_peer"


class SwitchProposal(NamedTuple):
    """A feasible-so-far switch: what to remove and what to add.

    Parallel-edge checks against the live graph remain the caller's
    responsibility (they are ownership-dependent in the distributed
    setting).  A tuple, not a frozen dataclass, because one is built
    per switch attempt; never compare proposals with ``==``, which
    compares fields only.
    """

    remove: Tuple[Edge, Edge]
    add: Tuple[Edge, Edge]
    kind: SwitchKind


def propose_switch(e1: Edge, e2: Edge, kind: SwitchKind
                   ) -> Tuple[Optional[SwitchProposal], Optional[FailureReason]]:
    """Validate the content-independent constraints and build the
    replacement edges.

    Returns ``(proposal, None)`` on success or ``(None, reason)`` when
    the switch would create a self-loop, change nothing (useless), or
    the two selected edges are identical.
    """
    u1, v1 = e1
    u2, v2 = e2
    if not (u1 < v1 and u2 < v2):
        raise SwitchError(f"edges must be canonical, got {e1} and {e2}")
    if e1 == e2:
        return None, FailureReason.SAME_EDGE

    if kind is SwitchKind.CROSS:
        if u1 == v2 or u2 == v1:
            return None, FailureReason.LOOP
        if u1 == u2 or v1 == v2:
            return None, FailureReason.USELESS
        # canonical_edge, inlined (one call per attempt and edge adds up).
        new_a = (u1, v2) if u1 <= v2 else (v2, u1)
        new_b = (u2, v1) if u2 <= v1 else (v1, u2)
    elif kind is SwitchKind.STRAIGHT:
        if u1 == u2 or v1 == v2:
            return None, FailureReason.LOOP
        if u1 == v2 or u2 == v1:
            return None, FailureReason.USELESS
        new_a = (u1, u2) if u1 <= u2 else (u2, u1)
        new_b = (v1, v2) if v1 <= v2 else (v2, v1)
    else:  # pragma: no cover - enum is closed
        raise SwitchError(f"unknown switch kind {kind!r}")

    return SwitchProposal((e1, e2), (new_a, new_b), kind), None
