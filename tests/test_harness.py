"""Tests for the experiment harness utilities and error types."""

import time

import pytest

from repro.errors import MiningBudgetExceeded, NotFittedError, ReproError
from repro.experiments.harness import (
    Timing,
    format_seconds,
    render_table,
    timed,
)


class TestFormatSeconds:
    def test_microseconds(self):
        assert format_seconds(5e-6) == "5us"

    def test_milliseconds(self):
        assert format_seconds(0.0213) == "21.3ms"

    def test_seconds(self):
        assert format_seconds(1.5) == "1.50s"

    def test_minutes(self):
        assert format_seconds(300) == "5.0min"


class TestRenderTable:
    def test_alignment(self):
        text = render_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert lines[1].startswith("----")
        assert lines[2].startswith("a ")
        # Numbers are right-aligned.
        assert lines[2].endswith("1")
        assert lines[3].endswith("22")

    def test_title(self):
        text = render_table(["h"], [["x"]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_empty_rows(self):
        text = render_table(["only", "headers"], [])
        assert "only" in text


class TestTiming:
    def test_render_completed(self):
        assert Timing(seconds=0.5).render() == "500.0ms"

    def test_render_truncated_marks_plus(self):
        assert Timing(seconds=2.0, completed=False).render() == "2.00s+"

    def test_timed_measures(self):
        timing, value = timed(lambda: (time.sleep(0.01), 42)[1])
        assert value == 42
        assert timing.seconds >= 0.01
        assert timing.completed

    def test_timed_reads_stats_completed(self):
        class Result:
            class stats:
                completed = False

        timing, _ = timed(lambda: Result())
        assert not timing.completed


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(MiningBudgetExceeded, ReproError)
        assert issubclass(NotFittedError, ReproError)
        assert issubclass(ReproError, Exception)

    def test_budget_error_carries_stats(self):
        error = MiningBudgetExceeded("over", stats={"nodes": 5})
        assert error.stats == {"nodes": 5}
        assert "over" in str(error)

    def test_budget_error_default_stats(self):
        assert MiningBudgetExceeded("over").stats is None
