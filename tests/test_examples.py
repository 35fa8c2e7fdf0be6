"""Smoke tests running the example scripts as subprocesses."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=240):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamples:
    def test_quickstart(self):
        result = run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "Top-1 covering rule groups" in result.stdout
        assert "abc" in result.stdout.replace("[-inf,inf]", "").replace(
            ", ", ""
        ) or "a, b, c" not in result.stdout

    def test_leukemia_classification(self):
        result = run_example("leukemia_classification.py", "--scale", "0.05")
        assert result.returncode == 0, result.stderr
        assert "RCBT" in result.stdout
        assert "accuracy" in result.stdout

    def test_biomarker_discovery(self):
        result = run_example("biomarker_discovery.py", "--scale", "0.05",
                             "--nl", "5")
        assert result.returncode == 0, result.stderr
        assert "Candidate biomarkers" in result.stdout

    def test_miner_comparison(self):
        result = run_example(
            "miner_comparison.py", "--scale", "0.03", "--budget", "10"
        )
        assert result.returncode == 0, result.stderr
        assert "MineTopkRGS" in result.stdout
        assert "FARMER" in result.stdout
        assert "CHARM" in result.stdout

    def test_tall_data_mining(self):
        result = run_example("tall_data_mining.py")
        assert result.returncode == 0, result.stderr
        # Direct, hybrid and auto agree bit for bit on every workload.
        assert result.stdout.count("outputs identical: True") == 3
        assert "outputs identical: False" not in result.stdout
        assert "plans column (12 frequent items)" in result.stdout
        # The largest partition is smaller than the matrix it came from.
        cells = re.findall(r"(\d+)/(\d+) matrix cells", result.stdout)
        assert len(cells) == 3, result.stdout
        assert all(0 < int(largest) < int(matrix)
                   for largest, matrix in cells), cells
