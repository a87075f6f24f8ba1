"""Seeded, splittable random-number streams.

Distributed stochastic algorithms need one *independent* stream per rank
so that (a) runs are reproducible given a master seed, and (b) no two
ranks consume from the same underlying sequence.  We build on
:class:`numpy.random.Generator` seeded through ``SeedSequence.spawn``,
which provides exactly these guarantees.

:class:`RngStream` wraps a generator with the handful of draws the
algorithms need (uniform index, bernoulli, float) so the hot paths avoid
re-creating numpy scalars where a Python int suffices.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Sequence

import numpy as np

__all__ = ["BlockSampler", "CumulativeWeights", "RngStream", "spawn_streams"]


class CumulativeWeights:
    """A weight vector prepared once for many
    :meth:`RngStream.choice_cumulative` draws: its running sums, its
    total and the index the zero-weight tail guard returns."""

    __slots__ = ("cum", "total", "fallback")

    def __init__(self, weights: Sequence[float]):
        # The total is sum()'s, not the last running sum: from Python
        # 3.12 sum() adds floats with compensation and can differ from
        # the running sum in the last bit.
        self.total = float(sum(weights))
        acc = 0.0
        cum: List[float] = []
        for w in weights:
            acc += w
            cum.append(acc)
        self.cum = cum
        # Numerical guard for u ~ total.  Must be a *selectable* index:
        # a zero-weight tail (an empty partition, |E_j| = 0) would
        # otherwise be handed out as a switch partner, whose empty pool
        # guarantees a Retry storm.  All-zero weights have no valid
        # choice and fall back to the last index.
        self.fallback = next(
            (i for i in range(len(weights) - 1, -1, -1) if weights[i] > 0.0),
            len(weights) - 1)


class RngStream:
    """A single reproducible random stream.

    Parameters
    ----------
    seed:
        Anything acceptable to :class:`numpy.random.SeedSequence`
        (int, sequence of ints, or an existing ``SeedSequence``).
    """

    __slots__ = ("_seq", "_gen")

    def __init__(self, seed=None):
        if isinstance(seed, np.random.SeedSequence):
            self._seq = seed
        else:
            self._seq = np.random.SeedSequence(seed)
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    @property
    def generator(self) -> np.random.Generator:
        """The underlying :class:`numpy.random.Generator`."""
        return self._gen

    def spawn(self, n: int) -> List["RngStream"]:
        """Derive ``n`` statistically independent child streams."""
        return [RngStream(child) for child in self._seq.spawn(n)]

    # -- checkpointing -------------------------------------------------

    def get_state(self) -> dict:
        """Pickleable snapshot of the stream position (the underlying
        bit generator's state dict)."""
        return self._gen.bit_generator.state

    def set_state(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`get_state`; the stream
        then continues bit-identically to the original."""
        self._gen.bit_generator.state = state

    # -- scalar draws (hot paths) -------------------------------------

    def randint(self, upper: int) -> int:
        """Uniform integer in ``[0, upper)``."""
        return int(self._gen.integers(upper))

    def uniform(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return float(self._gen.random())

    def coin(self) -> bool:
        """Fair coin flip — the straight-vs-cross decision of Fig. 3."""
        return bool(self._gen.integers(2))

    def choice_weighted(self, weights: Sequence[float]) -> int:
        """Index drawn with probability proportional to ``weights``."""
        return self.choice_cumulative(CumulativeWeights(weights))

    def choice_cumulative(self, weights: CumulativeWeights) -> int:
        """Index drawn with probability proportional to the prepared
        ``weights``: the first whose running sum exceeds one uniform
        scaled by the total, found by bisection.

        Used to pick the partner rank for a switch with probability
        ``|E_j| / |E|`` (Algorithm 2, line 2); the weights change once
        per step, the draw happens on every initiation.
        """
        cum = weights.cum
        i = bisect_right(cum, self.uniform() * weights.total)
        return i if i < len(cum) else weights.fallback

    # -- vector draws --------------------------------------------------

    def permutation(self, n: int) -> np.ndarray:
        """Uniform random permutation of ``range(n)``."""
        return self._gen.permutation(n)

    def sample_indices(self, upper: int, k: int) -> np.ndarray:
        """``k`` uniform indices in ``[0, upper)`` drawn with replacement."""
        return self._gen.integers(upper, size=k)


class BlockSampler:
    """Buffered uniform draws for hot switching loops.

    One vectorised ``Generator.integers`` call is amortised over a
    block of scalar consumptions — the sequential algorithm's trick
    (``core.sequential``), packaged for the parallel protocol where
    the pool size changes as conversations check edges in and out.
    Index buffers are keyed by their upper bound, so an attempt loop
    oscillating between pool sizes ``P`` and ``P - 1`` reuses both
    blocks instead of refilling on every draw.

    A prefetched index drawn at upper bound ``u`` is uniform over any
    *current* ``u``-element pool: the draw is independent of the pool's
    contents, so swap-removals between prefetch and use do not bias it.

    Numpy's bounded-integer sampler consumes the underlying bit stream
    element-wise with the same algorithm whether called with ``size=k``
    or ``k`` times with ``size=None`` (asserted by the RNG-parity
    tests), so block draws yield exactly the scalar sequence at a fixed
    upper bound.

    :meth:`reset` drops every prefetched value.  The rank program calls
    it at each step entry so a run restored from a step-boundary
    checkpoint — which snapshots only the bit-generator state, not the
    buffers — refills from the same stream position as the original
    run and stays bit-identical.
    """

    __slots__ = ("_rng", "_block", "_idx", "_coins", "_coin_pos")

    def __init__(self, rng: RngStream, block: int = 256):
        self._rng = rng
        self._block = block
        self._idx: dict = {}  # upper -> [values, next position]
        self._coins: list = []
        self._coin_pos = 0

    def index(self, upper: int) -> int:
        """Uniform integer in ``[0, upper)`` from the block for ``upper``."""
        buf = self._idx.get(upper)
        if buf is None or buf[1] >= self._block:
            buf = [self._rng.generator.integers(
                upper, size=self._block).tolist(), 0]
            self._idx[upper] = buf
        pos = buf[1]
        buf[1] = pos + 1
        return buf[0][pos]

    def coin(self) -> bool:
        """Fair coin flip from the coin block."""
        pos = self._coin_pos
        if pos >= len(self._coins):
            self._coins = self._rng.generator.integers(
                2, size=self._block).tolist()
            pos = 0
        self._coin_pos = pos + 1
        return bool(self._coins[pos])

    def reset(self) -> None:
        """Discard all prefetched draws (checkpoint alignment)."""
        self._idx.clear()
        self._coins = []
        self._coin_pos = 0


def spawn_streams(seed, n: int) -> List[RngStream]:
    """Create ``n`` independent :class:`RngStream` objects from one master
    seed — one per simulated rank."""
    return RngStream(seed).spawn(n)
