"""Binomial random variates via the BINV inverse-transform method.

This reimplements Algorithm 3 of the paper (Kachitvichyanukul &
Schmeiser's BINV) and the underflow fix of Section 6.2: the seed term
``(1-q)^N`` underflows to zero for large ``N``, which would make the
sampler loop forever; the paper splits ``N`` into chunks ``N_i`` small
enough that ``(1-q)^{N_i} >= z`` (eq. 14), where ``z`` is the smallest
positive normal double, and sums the chunk draws — valid because a sum
of independent binomials with equal ``q`` is binomial (eq. 12).

Expected cost of one BINV draw is ``O(Nq)``; the split version is
``O(Nq + N/limit)``.
"""

from __future__ import annotations

import math
import sys
from typing import Optional

from repro.errors import DistributionError
from repro.util.rng import RngStream

__all__ = ["binomial_binv", "binv_max_trials", "binomial"]

#: Smallest positive normalised double — the ``z`` of eq. 14.
_TINY = sys.float_info.min

#: Cap on a chunk size, so it stays a practical integer.
_MAX_CHUNK = 1 << 62

#: A seed term ``(1-q)^n`` above this is far from underflow: ``n`` is
#: then below :func:`binv_max_trials` (whose bound is ``(1-q)^n >= z``
#: with ``z`` about 2.2e-308), so the chunked path would run exactly one
#: BINV chunk of ``n`` trials, and :func:`binomial` runs it directly.
_SAFE_SEED = 1e-300


def _validate(n: int, q: float) -> None:
    if n < 0:
        raise DistributionError(f"number of trials must be >= 0, got {n}")
    if not 0.0 <= q <= 1.0:
        raise DistributionError(f"success probability must be in [0, 1], got {q}")


def binv_max_trials(q: float, tiny: float = _TINY) -> int:
    """Largest chunk size ``N_i`` for which ``(1-q)^{N_i}`` does not
    underflow (paper eq. 15): ``N_i <= -log z / -log(1-q)``.

    For ``q = 0`` any ``N`` is safe; we cap the answer at ``2**62`` so it
    stays a practical integer.
    """
    if not 0.0 < q < 1.0:
        return _MAX_CHUNK
    denom = -math.log1p(-q)
    cap = float(_MAX_CHUNK)
    limit = -math.log(tiny) / denom if denom > 0.0 else cap
    if limit >= cap:  # tiny/subnormal q: any realistic N is safe
        return _MAX_CHUNK
    return max(1, int(limit))


def binomial_binv(n: int, q: float, rng: RngStream) -> int:
    """One draw of ``Binomial(n, q)`` by plain BINV (Algorithm 3).

    Raises :class:`DistributionError` if ``(1-q)^n`` underflows — use
    :func:`binomial` for arbitrary ``n``.
    """
    _validate(n, q)
    if q == 1.0:
        return n
    if q == 0.0 or n == 0:
        return 0
    seed = math.pow(1.0 - q, n)
    if seed <= 0.0:
        raise DistributionError(
            f"(1-q)^n underflowed for n={n}, q={q}; "
            f"split into chunks of at most {binv_max_trials(q)} trials"
        )
    return _binv(n, q, seed, rng)


def _binv(n: int, q: float, seed: float, rng: RngStream) -> int:
    """The BINV search for ``0 < q < 1``, ``n > 0`` and the seed term
    ``seed = (1-q)^n > 0``: one uniform, then walk the CDF."""
    u = rng.uniform()
    i = 0
    prob = seed  # Pr{X = i}
    cdf = seed
    ratio = q / (1.0 - q)
    while cdf < u:
        i += 1
        if i > n:  # floating-point tail guard: CDF sums to < 1.0
            return n
        prob *= (n - i + 1) / i * ratio
        cdf += prob
    return i


def binomial(n: int, q: float, rng: RngStream, chunk: Optional[int] = None) -> int:
    """One draw of ``Binomial(n, q)`` for arbitrarily large ``n``.

    Splits ``n`` into underflow-safe chunks per eqs. 14–15 and sums the
    per-chunk BINV draws (valid by eq. 12).  ``chunk`` overrides the
    automatic chunk size (used by tests).  Far from underflow the
    automatic split is one chunk, which runs without computing the
    chunk size; the draw and the uniforms consumed are the same.
    """
    _validate(n, q)
    if q == 1.0:
        return n
    if q == 0.0 or n == 0:
        return 0
    if chunk is None and n <= _MAX_CHUNK:
        seed = math.pow(1.0 - q, n)
        if seed > _SAFE_SEED:
            return _binv(n, q, seed, rng)
    limit = chunk if chunk is not None else binv_max_trials(q)
    if limit <= 0:
        raise DistributionError(f"chunk size must be positive, got {limit}")
    total = 0
    remaining = n
    while remaining > 0:
        step = min(remaining, limit)
        total += binomial_binv(step, q, rng)
        remaining -= step
    return total
