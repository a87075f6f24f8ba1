"""Tests for repro.util.rng — reproducible splittable streams."""

import math
import random

import numpy as np
import pytest

from repro.util.rng import (
    BlockSampler, CumulativeWeights, RngStream, spawn_streams,
)


class TestReproducibility:
    def test_same_seed_same_sequence(self):
        a = RngStream(42)
        b = RngStream(42)
        assert [a.randint(1000) for _ in range(50)] == [
            b.randint(1000) for _ in range(50)]

    def test_different_seeds_differ(self):
        a = [RngStream(1).randint(10**9) for _ in range(10)]
        b = [RngStream(2).randint(10**9) for _ in range(10)]
        assert a != b

    def test_spawn_deterministic(self):
        xs = [s.randint(10**9) for s in spawn_streams(7, 4)]
        ys = [s.randint(10**9) for s in spawn_streams(7, 4)]
        assert xs == ys

    def test_spawned_streams_independent(self):
        streams = spawn_streams(7, 3)
        seqs = [[s.randint(10**9) for _ in range(20)] for s in streams]
        assert seqs[0] != seqs[1] != seqs[2]


class TestDraws:
    def test_randint_range(self):
        rng = RngStream(0)
        draws = [rng.randint(7) for _ in range(500)]
        assert set(draws) <= set(range(7))
        assert len(set(draws)) == 7  # all values hit at n=500

    def test_uniform_range(self):
        rng = RngStream(0)
        xs = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        assert 0.4 < sum(xs) / len(xs) < 0.6

    def test_coin_is_fair_ish(self):
        rng = RngStream(3)
        heads = sum(rng.coin() for _ in range(4000))
        assert 1800 < heads < 2200

    def test_choice_weighted_respects_zero(self):
        rng = RngStream(1)
        draws = {rng.choice_weighted([0.0, 1.0, 0.0]) for _ in range(100)}
        assert draws == {1}

    def test_choice_weighted_distribution(self):
        rng = RngStream(2)
        counts = [0, 0]
        for _ in range(5000):
            counts[rng.choice_weighted([0.25, 0.75])] += 1
        assert counts[1] / 5000 == pytest.approx(0.75, abs=0.04)

    def test_choice_weighted_zero_tail_guard(self):
        # Regression: the numerical fallback for u ~ total used to
        # return len(weights)-1 unconditionally, i.e. an index whose
        # weight may be 0.0 (an empty partition) — selecting it as a
        # switch partner guarantees a Retry.  The guard must land on
        # the last *nonzero*-weight index instead.
        class ForcedFallback(RngStream):
            def uniform(self):
                return 1.0  # u == total: the scan never fires

        rng = ForcedFallback(0)
        assert rng.choice_weighted([1.0, 0.0]) == 0
        assert rng.choice_weighted([0.5, 0.5, 0.0, 0.0]) == 1
        # a nonzero tail is still the correct landing spot
        assert rng.choice_weighted([0.0, 1.0]) == 1

    def test_choice_weighted_never_selects_zero_weight(self):
        rng = RngStream(11)
        weights = [0.0, 3.0, 0.0, 1.0, 0.0]
        draws = {rng.choice_weighted(weights) for _ in range(2000)}
        assert draws <= {1, 3}

    def test_choice_weighted_unnormalised(self):
        rng = RngStream(4)
        # weights need not sum to 1 (edge counts are used directly)
        counts = [0, 0, 0]
        for _ in range(3000):
            counts[rng.choice_weighted([10, 10, 20])] += 1
        assert counts[2] / 3000 == pytest.approx(0.5, abs=0.05)

    def test_bisection_picks_the_scan_index(self):
        """The bisection over prepared running sums returns the index
        the linear scan returned, for the same uniform: over weight
        vectors with zero entries, zero tails and all-zero, and over
        uniforms at each running sum, one float either side of it, and
        next to the total."""

        def scan(weights, u01):
            # The linear scan the bisection replaced, verbatim.
            total = float(sum(weights))
            u = u01 * total
            acc = 0.0
            for i, w in enumerate(weights):
                acc += w
                if u < acc:
                    return i
            for i in range(len(weights) - 1, -1, -1):
                if weights[i] > 0.0:
                    return i
            return len(weights) - 1

        class Fixed(RngStream):
            u = 0.0

            def uniform(self):
                return self.u

        gen = random.Random(3)
        vectors = [[1.0], [0.0], [0.0, 0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                   [0.5, 0.5, 0.0, 0.0], [0.0, 3.0, 0.0, 1.0, 0.0],
                   [10, 10, 20], [0.1] * 10]
        for n in (2, 3, 8, 64):
            for _ in range(20):
                vectors.append([gen.choice((0.0, gen.random(), 1 / n))
                                for _ in range(n)])
        rng = Fixed(0)
        checked = 0
        for weights in vectors:
            prepared = CumulativeWeights(weights)
            total = float(sum(weights))
            us = {0.0, 0.5, math.nextafter(1.0, 0.0)}
            for acc in prepared.cum:
                if total > 0:
                    r = acc / total
                    us.update((r, math.nextafter(r, 0.0),
                               math.nextafter(r, 2.0)))
            for u in us:
                if not 0.0 <= u < 1.0:
                    continue
                rng.u = u
                assert rng.choice_cumulative(prepared) == scan(weights, u), (
                    weights, u)
                assert rng.choice_weighted(weights) == scan(weights, u)
                checked += 1
        assert checked > 1000

    def test_permutation(self):
        rng = RngStream(5)
        perm = rng.permutation(10)
        assert sorted(perm.tolist()) == list(range(10))

    def test_sample_indices(self):
        rng = RngStream(6)
        idx = rng.sample_indices(50, 100)
        assert idx.shape == (100,)
        assert idx.min() >= 0 and idx.max() < 50

    def test_generator_property(self):
        assert isinstance(RngStream(0).generator, np.random.Generator)


# -- BlockSampler: block draws match scalar draws ----------------------------


def test_vector_integers_match_scalar_consumption():
    """numpy's bounded-integer sampler consumes the bit stream
    identically for ``size=k`` and ``k`` scalar calls — the fact the
    BlockSampler's stream discipline is built on."""
    for upper in (2, 7, 1000, 2**40):
        a, b = RngStream(123), RngStream(123)
        block = a.generator.integers(upper, size=257).tolist()
        scalars = [int(b.generator.integers(upper)) for _ in range(257)]
        assert block == scalars
        # Streams remain aligned after the draws.
        assert a.randint(10**9) == b.randint(10**9)


def test_block_sampler_matches_scalar_at_fixed_upper():
    a, b = RngStream(9), RngStream(9)
    sampler = BlockSampler(a, block=64)
    drawn = [sampler.index(500) for _ in range(200)]
    expected = [b.randint(500) for _ in range(200)]
    assert drawn == expected


def test_block_sampler_coins_match_scalar():
    a, b = RngStream(10), RngStream(10)
    sampler = BlockSampler(a, block=32)
    assert [sampler.coin() for _ in range(100)] == \
        [b.coin() for _ in range(100)]


def test_block_sampler_reset_realigns_with_bare_stream():
    """After reset, the next draw comes from the live stream position —
    the property checkpoint restore relies on."""
    a, b = RngStream(11), RngStream(11)
    sampler = BlockSampler(a, block=16)
    for _ in range(5):
        sampler.index(100)  # consumes one block of 16 from the stream
    sampler.reset()
    b.generator.integers(100, size=16)  # advance b by the same block
    restored = BlockSampler(b, block=16)
    assert [sampler.index(100) for _ in range(20)] == \
        [restored.index(100) for _ in range(20)]


def test_block_sampler_interleaved_uppers_deterministic():
    a, b = RngStream(12), RngStream(12)
    s1, s2 = BlockSampler(a, block=8), BlockSampler(b, block=8)
    seq1 = [s1.index(u) for u in (50, 49, 50, 49, 50, 7, 50)]
    seq2 = [s2.index(u) for u in (50, 49, 50, 49, 50, 7, 50)]
    assert seq1 == seq2
    for u, v in zip(seq1, (50, 49, 50, 49, 50, 7, 50)):
        assert 0 <= u < v
