"""Tests for the CLI and the experiment registry."""

import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments.registry import EXPERIMENTS

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


class TestRegistry:
    def test_every_table_and_figure_registered(self):
        labels = set(EXPERIMENTS)
        for fig in range(4, 26):
            if fig == 3:
                continue
            assert f"Fig. {fig}" in labels, f"Fig. {fig} missing"
        assert "Table 1" in labels
        assert "Table 2" in labels
        assert "Table 3" in labels
        assert "Endurance" in labels

    def test_registered_bench_files_exist(self):
        for exp in EXPERIMENTS.values():
            assert (BENCH_DIR / exp.bench).is_file(), (
                f"{exp.label} points to missing bench {exp.bench}")


class TestCli:
    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "miami" in out and "pa_100m" in out

    def test_experiments_command(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 24" in out and "benchmarks/" in out

    def test_switch_command(self, capsys):
        rc = main(["switch", "--dataset", "erdos_renyi", "--ranks", "4",
                   "--scheme", "hp-u", "--switches", "200"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "switches completed: 200" in out
        assert "invariants verified" in out

    def test_switch_stats_prints_transport_counters(self, capsys):
        rc = main(["switch", "--dataset", "erdos_renyi", "--ranks", "4",
                   "--scheme", "hp-u", "--switches", "200", "--stats"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "traffic (per rank):" in out
        rows = re.findall(r"rank (\d+): sent (\d+) msgs \((\d+) bytes\), "
                          r"received (\d+) msgs", out)
        assert [int(r[0]) for r in rows] == [0, 1, 2, 3]
        total = int(re.search(r"messages: (\d+)", out).group(1))
        sent = sum(int(r[1]) for r in rows)
        # Per-rank rows add up to the run total, every message was
        # consumed, and each one carried at least one byte.
        assert sent == total > 0
        assert sum(int(r[3]) for r in rows) == sent
        assert sum(int(r[2]) for r in rows) >= sent

    def test_switch_stats_prints_ft_counters(self, capsys):
        rc = main(["switch", "--dataset", "erdos_renyi", "--ranks", "4",
                   "--scheme", "hp-u", "--switches", "200", "--stats",
                   "--fault-tolerance"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault tolerance (per rank):" in out
        rows = re.findall(r"rank (\d+): (\d+) ticks, (\d+) retransmits, "
                          r"(\d+) dup drops, (\d+) abandoned", out)
        assert [int(r[0]) for r in rows] == [0, 1, 2, 3]
        # Nothing is lost on a fault-free run, so nothing is resent.
        assert all(r[2] == r[4] == "0" for r in rows)

    def test_scaling_command(self, capsys):
        rc = main(["scaling", "--dataset", "erdos_renyi", "--ranks", "1,4",
                   "--switches", "300"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["switch", "--dataset", "nope"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
