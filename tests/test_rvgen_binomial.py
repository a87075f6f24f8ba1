"""Tests for repro.rvgen.binomial — BINV and underflow splitting."""

import importlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DistributionError
from repro.rvgen.binomial import binomial, binomial_binv, binv_max_trials
from repro.util.rng import RngStream


class TestBinvEdgeCases:
    def test_q_zero(self, rng):
        assert binomial_binv(100, 0.0, rng) == 0

    def test_q_one(self, rng):
        assert binomial_binv(100, 1.0, rng) == 100

    def test_n_zero(self, rng):
        assert binomial_binv(0, 0.5, rng) == 0

    def test_bounds(self, rng):
        for _ in range(200):
            x = binomial_binv(20, 0.3, rng)
            assert 0 <= x <= 20

    def test_invalid_params(self, rng):
        with pytest.raises(DistributionError):
            binomial_binv(-1, 0.5, rng)
        with pytest.raises(DistributionError):
            binomial_binv(10, 1.5, rng)
        with pytest.raises(DistributionError):
            binomial_binv(10, -0.1, rng)

    def test_underflow_raises_in_plain_binv(self, rng):
        # (1-q)^n underflows: plain BINV must refuse, not loop forever
        with pytest.raises(DistributionError):
            binomial_binv(10**9, 0.5, rng)


class TestBinvDistribution:
    def test_mean_and_variance(self):
        rng = RngStream(77)
        n, q, reps = 50, 0.3, 4000
        draws = [binomial_binv(n, q, rng) for _ in range(reps)]
        mean = sum(draws) / reps
        var = sum((d - mean) ** 2 for d in draws) / reps
        assert mean == pytest.approx(n * q, rel=0.05)
        assert var == pytest.approx(n * q * (1 - q), rel=0.15)

    def test_deterministic_given_seed(self):
        a = [binomial_binv(30, 0.4, RngStream(5)) for _ in range(1)]
        b = [binomial_binv(30, 0.4, RngStream(5)) for _ in range(1)]
        assert a == b


class TestMaxTrials:
    def test_no_underflow_at_limit(self):
        for q in (0.001, 0.01, 0.1, 0.5, 0.9):
            limit = binv_max_trials(q)
            assert math.pow(1 - q, limit) > 0.0

    def test_underflow_just_above_limit(self):
        q = 0.5
        limit = binv_max_trials(q)
        assert math.pow(1 - q, limit * 2) == 0.0

    def test_degenerate_probabilities(self):
        assert binv_max_trials(0.0) == 1 << 62
        assert binv_max_trials(1.0) == 1 << 62

    def test_smaller_q_allows_more_trials(self):
        assert binv_max_trials(0.001) > binv_max_trials(0.1)


class TestSplitBinomial:
    def test_huge_n_does_not_underflow(self):
        # the paper's fix (eqs. 14-15): split N into safe chunks
        rng = RngStream(11)
        n = 10**12
        q = 1e-9
        x = binomial(n, q, rng)
        # mean 1000, std ~31.6; 10 sigma window
        assert 600 < x < 1400

    def test_chunked_matches_distribution(self):
        # forcing tiny chunks must not bias the total
        rng = RngStream(13)
        n, q, reps = 200, 0.25, 2000
        draws = [binomial(n, q, rng, chunk=7) for _ in range(reps)]
        mean = sum(draws) / reps
        assert mean == pytest.approx(n * q, rel=0.05)

    def test_one_chunk_draw_matches_forced_single_chunk(self):
        # Far from underflow the automatic split is a single chunk: the
        # draw and the stream position after it match an explicit one.
        grid = [(n, q) for n in (1, 2, 17, 300, 5_000, 60_000)
                for q in (1e-12, 1e-4, 0.01, 0.3, 0.5, 0.97)
                if math.pow(1.0 - q, n) > 1e-250]
        assert len(grid) >= 25
        for n, q in grid:
            for seed in range(3):
                auto, forced = RngStream(seed), RngStream(seed)
                assert (binomial(n, q, auto)
                        == binomial(n, q, forced, chunk=n)), (n, q, seed)
                assert auto.uniform() == forced.uniform(), (n, q, seed)

    def test_underflowing_draw_still_splits(self, monkeypatch):
        # The package re-exports the function under the module's name.
        module = importlib.import_module("repro.rvgen.binomial")
        calls = []

        def counting(q, *args):
            calls.append(q)
            return binv_max_trials(q, *args)

        monkeypatch.setattr(module, "binv_max_trials", counting)
        n, q = 10**6, 0.01
        assert n > binv_max_trials(q)
        auto, chunked = RngStream(3), RngStream(3)
        x = binomial(n, q, auto)
        assert calls == [q]  # the chunk size was computed
        assert x == binomial(n, q, chunked, chunk=binv_max_trials(q))
        assert auto.uniform() == chunked.uniform()
        binomial(50, 0.3, RngStream(3))
        assert calls == [q]  # a one-chunk draw needs no chunk size

    def test_bad_chunk_rejected(self, rng):
        with pytest.raises(DistributionError):
            binomial(10, 0.5, rng, chunk=0)

    def test_q_one_short_circuit(self, rng):
        assert binomial(10**15, 1.0, rng) == 10**15

    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_always_in_range(self, n, q):
        x = binomial(n, q, RngStream(n))
        assert 0 <= x <= n
