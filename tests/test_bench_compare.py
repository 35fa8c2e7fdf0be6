"""The bench baseline-comparison gate (``repro bench --compare``).

Pure-payload tests over :func:`repro.bench.compare_reports`: the gate
must fail only on real serial regressions (ratio *and* absolute delta)
or a changed ``serial_nodes_visited`` of a comparable workload, skip
workloads whose configuration changed, ignore the stale columns of
older baselines, and never crash on a baseline from a different host.
Two harness tests pin the rules that no parallel column is recorded for
more workers than the host has cores, nor for a direct top-k mine, and
the cold-workload tests that a cold workload times fresh dataset
objects and that the committed baseline covers every quick workload.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys

import pytest

from repro import cli
from repro.bench import (
    DEFAULT_WORKLOADS,
    QUICK_WORKLOADS,
    REGRESSION_FACTOR,
    REGRESSION_MIN_DELTA_SECONDS,
    BenchReport,
    Workload,
    _measure,
    compare_reports,
)
from repro.service import loadtest

_HOST = {"platform": "test", "cpu_count": 1}


def _report(*benchmarks, host=_HOST):
    return {"host": host, "config": {}, "benchmarks": list(benchmarks)}


def _entry(name="w", serial=1.0, **overrides):
    entry = {
        "name": name,
        "dataset": "ALL",
        "miner": "topk",
        "engine": "tree",
        "k": 100,
        "minsup": 25,
        "n_rows": 38,
        "serial_seconds": serial,
    }
    entry.update(overrides)
    return entry


class TestCompareReports:
    def test_identical_is_ok(self):
        lines, ok = compare_reports(_report(_entry()), _report(_entry()))
        assert ok
        assert "1 compared" in lines[0]
        assert "ok" in lines[0]

    def test_faster_is_ok(self):
        _lines, ok = compare_reports(
            _report(_entry(serial=0.5)), _report(_entry(serial=1.0))
        )
        assert ok

    def test_large_regression_fails(self):
        lines, ok = compare_reports(
            _report(_entry(serial=2.5)), _report(_entry(serial=1.0))
        )
        assert not ok
        assert any("REGRESSION" in line for line in lines)

    def test_ratio_alone_does_not_fail_tiny_workloads(self):
        """A sub-millisecond mine doubling is scheduler jitter, not an
        algorithmic regression: the absolute-delta floor must hold."""
        base = REGRESSION_MIN_DELTA_SECONDS / 10
        _lines, ok = compare_reports(
            _report(_entry(serial=base * 3)), _report(_entry(serial=base))
        )
        assert ok

    def test_delta_alone_does_not_fail(self):
        """Slower in absolute terms but within the ratio threshold."""
        _lines, ok = compare_reports(
            _report(_entry(serial=1.9)), _report(_entry(serial=1.0))
        )
        assert ok
        assert REGRESSION_FACTOR >= 1.9

    def test_missing_baseline_entry_fails(self):
        """A current workload with no baseline entry is a hole in the
        gate, not a skip: it must fail and say how to fix it."""
        lines, ok = compare_reports(
            _report(_entry(name="new-workload")), _report(_entry(name="old"))
        )
        assert not ok
        assert "0 compared" in lines[0]
        missing = [line for line in lines if "MISSING BASELINE" in line]
        assert len(missing) == 1
        assert "new-workload" in missing[0]
        assert "repro.cli bench --include-quick" in missing[0]

    def test_changed_workload_skipped(self):
        """A k change makes the wall-clock diff meaningless — even a huge
        slowdown must be skipped, not flagged."""
        lines, ok = compare_reports(
            _report(_entry(serial=100.0, k=100)),
            _report(_entry(serial=1.0, k=10)),
        )
        assert ok
        assert any("workload changed (k)" in line for line in lines)

    def test_changed_scale_skipped(self):
        """ALL keeps 38 training rows and minsup 25 at every scale, so
        only the scale tells a 0.25 run from the 0.1 baseline: its
        slower time and larger tree are not a regression."""
        lines, ok = compare_reports(
            _report(_entry(serial=0.59, scale=0.25,
                           serial_nodes_visited=27188)),
            _report(_entry(serial=0.04, scale=0.1,
                           serial_nodes_visited=4135)),
        )
        assert ok
        assert "0 compared" in lines[0]
        assert any("workload changed (scale) — skipped" in line
                   for line in lines)
        assert not any("NODES CHANGED" in line or "REGRESSION" in line
                       for line in lines)

    def test_changed_node_count_fails(self):
        """Same workload, same speed, a different enumeration tree: the
        miner's search changed, which the seconds gate cannot see."""
        lines, ok = compare_reports(
            _report(_entry(serial_nodes_visited=4136)),
            _report(_entry(serial_nodes_visited=4135)),
        )
        assert not ok
        changed = [line for line in lines if "NODES CHANGED" in line]
        assert len(changed) == 1
        assert "4135 -> 4136" in changed[0]

    def test_equal_node_count_passes(self):
        _lines, ok = compare_reports(
            _report(_entry(serial_nodes_visited=4135)),
            _report(_entry(serial_nodes_visited=4135)),
        )
        assert ok

    @pytest.mark.parametrize("side", ["current", "baseline"])
    def test_node_count_missing_on_either_side_is_not_gated(self, side):
        with_nodes = _entry(serial_nodes_visited=4135)
        current, baseline = (
            (_entry(), with_nodes) if side == "current" else (with_nodes, _entry())
        )
        lines, ok = compare_reports(_report(current), _report(baseline))
        assert ok
        assert not any("NODES CHANGED" in line for line in lines)

    def test_node_count_of_a_changed_workload_is_not_gated(self):
        lines, ok = compare_reports(
            _report(_entry(k=100, serial_nodes_visited=9)),
            _report(_entry(k=10, serial_nodes_visited=1)),
        )
        assert ok
        assert not any("NODES CHANGED" in line for line in lines)

    def test_host_mismatch_noted(self):
        lines, ok = compare_reports(
            _report(_entry()),
            _report(_entry(), host={"platform": "other", "cpu_count": 64}),
        )
        assert ok
        assert any("baseline host differs" in line for line in lines)


@pytest.mark.parametrize("command, compare, key", [
    ("bench", compare_reports, "name"),
    ("loadtest", loadtest.compare_reports, "scenario"),
])
def test_rebaseline_command_parses(command, compare, key):
    """The command a MISSING BASELINE line tells the reader to run is a
    valid invocation of the same ``repro`` subcommand."""
    lines, ok = compare(_report({key: "new"}), _report())
    assert not ok
    [missing] = [line for line in lines if "MISSING BASELINE" in line]
    prefix = "regenerate it with: PYTHONPATH=src python -m repro.cli "
    assert prefix in missing
    argv = shlex.split(missing.split(prefix, 1)[1])
    args = cli.build_parser().parse_args(argv)
    assert args.command == command
    assert args.handler is getattr(cli, f"_cmd_{command}")


def test_module_run_points_at_the_cli():
    """``python -m repro.bench`` is not a command: it must fail loudly and
    name the one that is, not exit 0 having run nothing."""
    source = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=source)
    result = subprocess.run(
        [sys.executable, "-m", "repro.bench"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert "python -m repro.cli bench" in line


def _backends(**columns):
    """Build a ``backends`` dict (the per-backend serial columns older
    baselines carry): name -> seconds."""
    return {
        name: {
            "seconds": seconds,
            "speedup": 1.0,
            "identical_output": True,
            "nodes_visited": 10,
        }
        for name, seconds in columns.items()
    }


class TestBackendColumns:
    """The committed baseline still carries per-backend columns from
    before the array backends were retired; the gate ignores them."""

    def test_identical_backend_columns_ok(self):
        entry = _entry(backends=_backends(int=1.0, packed=0.8))
        lines, ok = compare_reports(_report(entry), _report(entry))
        assert ok
        assert not any("[" in line for line in lines[1:])

    def test_baseline_backend_columns_are_ignored(self):
        """A stale numpy column far faster than today's serial time is
        neither a regression nor a missing column."""
        lines, ok = compare_reports(
            _report(_entry(serial=1.0)),
            _report(_entry(serial=1.0, backends=_backends(int=1.0,
                                                          numpy=0.01))),
        )
        assert ok
        assert not any("numpy" in line for line in lines)

    def test_entries_without_backend_columns_still_compare(self):
        """Old-schema baselines (pre-backend) must not crash the gate."""
        _lines, ok = compare_reports(
            _report(_entry()), _report(_entry())
        )
        assert ok


def _auto(seconds=1.0, chose="numpy"):
    return {
        "seconds": seconds,
        "speedup": 1.0,
        "identical_output": True,
        "chose_backend": chose,
    }


class TestAutoBackendColumn:
    def test_missing_auto_column_is_tolerated(self):
        """A baseline ``auto_backend`` column without a current one must
        not crash or fail the gate."""
        _lines, ok = compare_reports(
            _report(_entry()), _report(_entry(auto_backend=_auto()))
        )
        assert ok

    def test_stale_auto_column_is_ignored(self):
        lines, ok = compare_reports(
            _report(_entry(auto_backend=_auto(seconds=9.0, chose="int"))),
            _report(_entry(auto_backend=_auto(seconds=1.0))),
        )
        assert ok
        assert not any("auto" in line for line in lines[1:])


class TestParallelColumns:
    def test_no_column_above_the_host_cores(self):
        """A worker count above ``cpu_count`` measures scheduling
        overhead, not parallelism: the harness records no column for it
        and says why in the summary."""
        cores = os.cpu_count() or 1
        workload = Workload("honesty", "ALL", "farmer", "table")
        entry = _measure(workload, scale=0.05, jobs=(cores + 1,), repeats=1)
        assert entry["parallel"] == {}
        assert entry["auto"]["identical_output"] is True
        report = BenchReport(
            host={"cpu_count": cores},
            config={"jobs": [cores + 1]},
            benchmarks=[entry],
        )
        assert any(
            f"no parallel column for [{cores + 1}] workers" in line
            for line in report.summary_lines()
        )

    def test_topk_workloads_record_the_serial_column_only(self):
        """A direct top-k mine is one enumeration in one process: a
        top-k workload has no parallel or planner column to record."""
        with pytest.raises(ValueError, match="measure_parallel=False"):
            Workload("sharded", "ALL", "topk", "bitset")
        workload = Workload("serial", "ALL", "topk", "bitset", k=1,
                            measure_parallel=False)
        entry = _measure(workload, scale=0.05, jobs=(1,), repeats=1)
        assert entry["parallel"] == {}
        assert "auto" not in entry
        assert all(
            not w.measure_parallel
            for w in (*DEFAULT_WORKLOADS, *QUICK_WORKLOADS)
            if w.miner == "topk"
        )


class TestColdWorkloads:
    @pytest.mark.parametrize("cold", (False, True))
    def test_cold_hands_every_call_a_fresh_dataset(self, monkeypatch, cold):
        """A cold workload times each call on a new dataset object, so
        every call builds its own view and prefix tree; a warm one reuses
        one object across its repeats."""
        from repro import bench

        seen = []
        mine = bench.mine_topk

        def recording(dataset, *args, **kwargs):
            seen.append(dataset)
            return mine(dataset, *args, **kwargs)

        monkeypatch.setattr(bench, "mine_topk", recording)
        workload = Workload("cold", "ALL", "topk", "tree", k=1,
                            measure_parallel=False, cold=cold)
        entry = _measure(workload, scale=0.05, jobs=(), repeats=3)
        assert len(seen) == 3
        assert len({id(dataset) for dataset in seen}) == (3 if cold else 1)
        assert len({dataset.rows[0] for dataset in seen}) == 1
        assert entry.get("cold") is (True if cold else None)

    def test_cold_is_a_compare_key(self):
        warm = _entry(name="w")
        cold = dict(warm, cold=True)
        lines, ok = compare_reports(_report(cold), _report(warm))
        assert ok
        assert any("changed (cold)" in line for line in lines)

    def test_committed_baseline_covers_every_quick_workload(self):
        """CI's quick ``--compare`` looks each quick workload up by name;
        the committed entry must match its cold flag and node gate."""
        import json
        from pathlib import Path

        baseline = json.loads(
            (Path(__file__).resolve().parents[1] / "BENCH_core.json")
            .read_text(encoding="utf-8"))
        by_name = {entry["name"]: entry for entry in baseline["benchmarks"]}
        for workload in QUICK_WORKLOADS:
            entry = by_name[workload.name]
            assert entry.get("cold", False) is workload.cold, workload.name
            assert entry["serial_nodes_visited"] > 0
        assert any(w.cold and w.engine == "tree" for w in QUICK_WORKLOADS)
