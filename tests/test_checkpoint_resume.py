"""Step-boundary checkpoint / restart.

The contract: halting a run at a step boundary and resuming from the
checkpoint must reproduce the uninterrupted run **bit-identically** on
the discrete-event backend — same final edge list, same statistics —
because the snapshot captures every source of randomness (partition
state, visit tracker, RNG stream positions, budget counters), and the
cost model's constants are exact binary fractions, so simulated clocks
restarted at 0 add up exactly as the uninterrupted run's do.
"""

import os
import pickle

import pytest

from repro.core.parallel.checkpoint import (
    CheckpointConfig,
    CheckpointSink,
    latest_checkpoint,
    load_checkpoint,
)
from repro.core.parallel.driver import parallel_edge_switch
from repro.errors import CheckpointError, ConfigurationError
from repro.graphs.generators import erdos_renyi_gnm
from repro.util.rng import RngStream

T = 300
RANKS = 4


def make_graph():
    return erdos_renyi_gnm(60, 150, RngStream(1))


def switch(graph, seed=2, **kw):
    return parallel_edge_switch(graph, RANKS, t=T, step_size=60, seed=seed,
                                backend="sim", audit=True, **kw)


def edge_list(res):
    return sorted(map(tuple, res.graph.edges()))


class TestResumeBitIdentity:
    @pytest.mark.parametrize("halt_step", [1, 2, 3])
    @pytest.mark.parametrize("seed", [2, 5, 10])
    def test_halt_resume_matches_uninterrupted(self, tmp_path, seed,
                                               halt_step):
        ref = switch(make_graph(), seed)
        ckdir = str(tmp_path / "ck")

        halted = switch(make_graph(), seed, checkpoint=ckdir,
                        halt_after_step=halt_step)
        assert halted.switches_completed == halt_step * 60
        assert halted.unfulfilled == T - halt_step * 60

        resumed = switch(make_graph(), seed, resume=ckdir)
        assert edge_list(resumed) == edge_list(ref)
        assert resumed.switches_completed == T
        assert resumed.unfulfilled == 0
        assert resumed.graph.degree_sequence() == ref.graph.degree_sequence()

    def test_resume_replays_reports_consistently(self, tmp_path):
        """Per-rank completion totals after resume match the
        uninterrupted run (the snapshot carries the cumulative
        report, not just the graph)."""
        ref = switch(make_graph())
        ckdir = str(tmp_path / "ck")
        switch(make_graph(), checkpoint=ckdir, halt_after_step=2)
        resumed = switch(make_graph(), resume=ckdir)
        assert ([r.switches_completed for r in resumed.live_reports]
                == [r.switches_completed for r in ref.live_reports])
        assert ([r.forfeited for r in resumed.live_reports]
                == [r.forfeited for r in ref.live_reports])


class TestSinkMechanics:
    def test_file_written_only_when_all_ranks_offer(self, tmp_path):
        sink = CheckpointSink(CheckpointConfig(str(tmp_path)), num_ranks=3)
        blobs = [pickle.dumps({"rank": r}) for r in range(3)]
        sink.offer(0, 1, blobs[0])
        sink.offer(1, 1, blobs[1])
        assert latest_checkpoint(str(tmp_path)) is None
        sink.offer(2, 1, blobs[2])
        path = latest_checkpoint(str(tmp_path))
        assert path is not None
        assert load_checkpoint(path, 3) == [{"rank": r} for r in range(3)]

    def test_pruning_keeps_newest(self, tmp_path):
        sink = CheckpointSink(
            CheckpointConfig(str(tmp_path), keep=2), num_ranks=1)
        for step in (1, 2, 3, 4):
            sink.offer(0, step, pickle.dumps(step))
        names = sorted(os.listdir(str(tmp_path)))
        assert len(names) == 2
        assert latest_checkpoint(str(tmp_path)).endswith("000004.pkl")

    def test_every_skips_steps(self, tmp_path):
        sink = CheckpointSink(
            CheckpointConfig(str(tmp_path), every=2), num_ranks=1)
        assert not sink.wants(1)
        assert sink.wants(2)

    def test_rank_count_mismatch_rejected(self, tmp_path):
        sink = CheckpointSink(CheckpointConfig(str(tmp_path)), num_ranks=1)
        sink.offer(0, 1, pickle.dumps(0))
        path = latest_checkpoint(str(tmp_path))
        with pytest.raises(CheckpointError):
            load_checkpoint(path, 2)

    def test_missing_or_corrupt_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "nope.pkl"), 1)
        bad = tmp_path / "switch-ckpt-step000001.pkl"
        bad.write_bytes(b"not a pickle")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(bad), 1)


class TestConfigurationGuards:
    def test_procs_backend_rejected(self, tmp_path):
        g = make_graph()
        with pytest.raises(ConfigurationError):
            parallel_edge_switch(g, RANKS, t=T, step_size=60, seed=2,
                                 backend="procs",
                                 checkpoint=str(tmp_path))
        with pytest.raises(ConfigurationError):
            parallel_edge_switch(g, RANKS, t=T, step_size=60, seed=2,
                                 backend="procs", resume=str(tmp_path))

    def test_resume_from_empty_directory_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            switch(make_graph(), resume=str(tmp_path))

    def test_bad_intervals_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointConfig(str(tmp_path), every=0)
        with pytest.raises(CheckpointError):
            CheckpointConfig(str(tmp_path), keep=0)
