"""Tests for the mining job queue: polling, cancellation, shutdown."""

import threading
import time

import pytest

from repro.core.topk_miner import mine_topk
from repro.data import random_discretized_dataset
import repro.service.jobs as jobs_module
from repro.service.jobs import JobCancelled, JobQueue


def _nondaemon_threads():
    return [
        thread
        for thread in threading.enumerate()
        if thread.is_alive()
        and not thread.daemon
        and thread is not threading.main_thread()
    ]


class TestLifecycle:
    def test_finished_jobs_beyond_the_bound_leave_the_table(
        self, monkeypatch
    ):
        monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 2)
        queue = JobQueue(workers=1)
        release = threading.Event()
        try:
            blocked = queue.submit(lambda job: release.wait(10.0))
            done = []
            for value in range(3):
                done.append(queue.submit(lambda job, value=value: value))
            cancelled = queue.cancel(done[-1].job_id)
            release.set()
            for job in [blocked, *done]:
                assert job.wait(5.0)
            # Finished in order: the cancelled job, then blocked, 0, 1.
            # Only the two most recent stay.
            assert queue.describe()["jobs"] == 2
            assert queue.get(done[1].job_id) is done[1]
            assert queue.snapshot(done[0].job_id)["result"] == 0
            for gone in (cancelled, blocked):
                with pytest.raises(KeyError):
                    queue.snapshot(gone.job_id)
        finally:
            queue.shutdown()

    def test_submit_poll_result(self):
        queue = JobQueue(workers=1)
        try:
            job = queue.submit(lambda job: 40 + 2)
            assert job.wait(5.0)
            assert job.status == "done"
            assert job.result == 42
            assert queue.get(job.job_id) is job
        finally:
            queue.shutdown()

    def test_failure_captures_traceback(self):
        queue = JobQueue(workers=1)
        try:
            job = queue.submit(lambda job: 1 / 0)
            assert job.wait(5.0)
            assert job.status == "failed"
            assert "ZeroDivisionError" in job.error
        finally:
            queue.shutdown()

    def test_unknown_job_raises(self):
        queue = JobQueue(workers=1)
        try:
            with pytest.raises(KeyError):
                queue.get("job-999")
        finally:
            queue.shutdown()

    def test_describe_counts_by_status(self):
        queue = JobQueue(workers=1)
        try:
            job = queue.submit(lambda job: None)
            assert job.wait(5.0)
            summary = queue.describe()
            assert summary["workers"] == 1
            assert summary["by_status"].get("done") == 1
        finally:
            queue.shutdown()


class TestCancellation:
    def test_queued_job_cancelled_immediately(self):
        release = threading.Event()
        queue = JobQueue(workers=1)
        try:
            blocker = queue.submit(lambda job: release.wait(10.0))
            queued = queue.submit(lambda job: "never runs")
            cancelled = queue.cancel(queued.job_id)
            assert cancelled.status == "cancelled"
            release.set()
            assert blocker.wait(5.0)
            assert blocker.status == "done"
            # The cancelled job's function never executed.
            assert queued.result is None
        finally:
            release.set()
            queue.shutdown()

    def test_running_job_acknowledges_cancel(self):
        started = threading.Event()

        def work(job):
            started.set()
            if job.cancel_event.wait(10.0):
                raise JobCancelled("stopped by test")
            return "finished"

        queue = JobQueue(workers=1)
        try:
            job = queue.submit(work)
            assert started.wait(5.0)
            queue.cancel(job.job_id)
            assert job.wait(5.0)
            assert job.status == "cancelled"
        finally:
            queue.shutdown()

    def test_running_mining_job_stops_via_cancel_event(self):
        # A dense random dataset whose full enumeration takes ~15s —
        # far longer than the cancellation round-trip.
        dataset = random_discretized_dataset(
            n_rows=56, n_items=200, density=0.95, seed=3
        )
        started = threading.Event()

        def work(job):
            started.set()
            return mine_topk(dataset, 1, 1, k=100, cancel=job.cancel_event)

        queue = JobQueue(workers=1)
        try:
            job = queue.submit(work)
            assert started.wait(5.0)
            queue.cancel(job.job_id)
            assert job.wait(30.0)
            assert job.status == "cancelled"
            # The miner returned partial per-row lists, budget-overrun
            # style, rather than raising.
            assert job.result is not None
            assert job.result.stats.completed is False
        finally:
            queue.shutdown()


class TestShutdown:
    def test_shutdown_cancels_queued_and_running(self):
        started = threading.Event()

        def slow(job):
            started.set()
            if job.cancel_event.wait(10.0):
                raise JobCancelled()
            return "finished"

        queue = JobQueue(workers=1)
        running = queue.submit(slow)
        queued = queue.submit(lambda job: "never runs")
        assert started.wait(5.0)
        queue.shutdown()
        assert running.status == "cancelled"
        assert queued.status == "cancelled"
        with pytest.raises(RuntimeError):
            queue.submit(lambda job: None)

    def test_shutdown_leaves_no_nondaemon_threads(self):
        before = set(_nondaemon_threads())
        queue = JobQueue(workers=3)
        for _ in range(5):
            queue.submit(lambda job: time.sleep(0.01))
        queue.shutdown()
        queue.shutdown()  # idempotent
        leaked = [t for t in _nondaemon_threads() if t not in before]
        assert leaked == []
