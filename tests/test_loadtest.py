"""The service benchmark harness and its ``--compare`` regression gate."""

from __future__ import annotations

from repro.service.loadtest import (
    REGRESSION_MIN_DELTA_RPS,
    Scenario,
    compare_reports,
    run_loadtest,
)

_HOST = {"platform": "test", "cpu_count": 1}


def _report(*benchmarks, host=_HOST):
    return {"host": host, "config": {}, "benchmarks": list(benchmarks)}


def _entry(scenario="pipelined", rps=1000.0, **overrides):
    entry = {
        "scenario": scenario,
        "connections": 4,
        "depth": 8,
        "requests_target": 96,
        "rows_per_request": 2,
        "requests": 96,
        "errors": 0,
        "shed": 0,
        "rps": rps,
    }
    entry.update(overrides)
    return entry


class TestCompareReports:
    def test_identical_is_ok(self):
        lines, ok = compare_reports(_report(_entry()), _report(_entry()))
        assert ok
        assert "1 compared" in lines[0]

    def test_faster_is_ok(self):
        _lines, ok = compare_reports(
            _report(_entry(rps=2000.0)), _report(_entry(rps=1000.0))
        )
        assert ok

    def test_large_rps_drop_fails(self):
        lines, ok = compare_reports(
            _report(_entry(rps=300.0)), _report(_entry(rps=1000.0))
        )
        assert not ok
        assert any("REGRESSION" in line for line in lines)

    def test_ratio_alone_does_not_fail_tiny_throughputs(self):
        # 20 -> 8 rps is a >2x drop but under the absolute floor — CI
        # jitter on a loaded runner, not an architectural regression.
        assert 20.0 - 8.0 < REGRESSION_MIN_DELTA_RPS
        _lines, ok = compare_reports(
            _report(_entry(rps=8.0)), _report(_entry(rps=20.0))
        )
        assert ok

    def test_request_errors_fail_the_gate(self):
        lines, ok = compare_reports(
            _report(_entry(errors=3)), _report(_entry())
        )
        assert not ok
        assert any("ERRORS" in line for line in lines)

    def test_changed_traffic_shape_is_skipped(self):
        lines, ok = compare_reports(
            _report(_entry(rps=100.0, depth=32)),
            _report(_entry(rps=1000.0)),
        )
        assert ok
        assert any("skipped" in line for line in lines)

    def test_missing_baseline_entry_fails(self):
        # A current run the baseline doesn't know is a hole in the gate,
        # not a pass: a re-keyed report would otherwise compare nothing.
        lines, ok = compare_reports(
            _report(_entry(scenario="sequential"), _entry()),
            _report(_entry()),
        )
        assert not ok
        assert "1 compared" in lines[0]
        assert any("MISSING BASELINE" in line and "regenerate" in line
                   for line in lines)

    def test_different_host_noted_not_fatal(self):
        lines, ok = compare_reports(
            _report(_entry(), host={"platform": "a", "cpu_count": 2}),
            _report(_entry(), host={"platform": "b", "cpu_count": 8}),
        )
        assert ok
        assert any("host differs" in line for line in lines)


class TestRunLoadtest:
    def test_minimal_run_produces_complete_report(self):
        # One tiny pipelined scenario: the full measurement path
        # (drivers, percentiles, batch histogram) in a few seconds.
        scenarios = (Scenario("pipelined", connections=2, requests=16,
                              depth=8),)
        report = run_loadtest(scenarios=scenarios)
        [entry] = report.benchmarks
        assert entry["scenario"] == "pipelined"
        assert "server" not in entry
        assert entry["requests"] == entry["requests_target"] == 32
        assert entry["errors"] == 0
        assert entry["rps"] > 0
        assert entry["p99_ms"] >= entry["p50_ms"] > 0
        # The async front end coalesced the pipelined bursts.
        assert entry["batch_histogram"]["max_rows"] > 2
        payload = report.as_dict()
        assert payload["schema"] == 2
        lines = report.summary_lines()
        assert any("pipelined" in line for line in lines)
        # The report round-trips through its own compare gate cleanly.
        _lines, ok = compare_reports(payload, payload)
        assert ok
