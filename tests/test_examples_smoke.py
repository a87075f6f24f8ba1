"""Smoke tests: every example script must run clean.

The slower sweeps (scaling_study, network_dynamics) are exercised with
reduced workloads by importing their mains where parameterisable, or
skipped under a marker; the fast ones run as subprocesses exactly as a
user would run them.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

FAST = [
    "quickstart.py",
    "random_graph_generation.py",
    "parallel_multinomial_demo.py",
    "constrained_switching.py",
    "distributed_analytics.py",
]


@pytest.mark.parametrize("script", FAST)
def test_fast_examples_run_clean(script):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "example produced no output"


def test_scaling_study_importable_and_parameterised(capsys):
    sys.path.insert(0, str(EXAMPLES))
    try:
        import scaling_study
        # The same code path as the full sweep (strong_scaling,
        # print_series, the imbalance run at the largest p), at a
        # smaller size.
        scaling_study.main("erdos_renyi", "hp-d", ranks=(1, 2, 8),
                           t_cap=800)
    finally:
        sys.path.remove(str(EXAMPLES))
    out = capsys.readouterr().out
    assert "t=800, scheme=hp-d" in out
    assert "strong scaling — erdos_renyi / hp-d" in out
    assert "workload imbalance at p=8 (max/mean): " in out
    assert "final edge imbalance: " in out


def test_all_examples_have_docstrings_and_main():
    for script in EXAMPLES.glob("*.py"):
        text = script.read_text()
        assert '"""' in text.split("\n", 3)[-1] or text.startswith(
            '#!/usr/bin/env python\n"""'), f"{script.name} lacks a docstring"
        assert '__name__ == "__main__"' in text, (
            f"{script.name} lacks a main guard")
