"""Regression tests for the service-layer bugs found by the audit work.

Each test here fails on the pre-fix code:

* the ``/mine`` in-flight dedup check, submit, and registration were not
  atomic, so two concurrent identical requests both mined, and a
  fast-finishing job's cleanup could run before registration, leaving a
  stale in-flight entry;
* non-numeric ``node_budget``/``time_budget`` reached ``mine_topk`` on
  the worker thread and surfaced as a FAILED job instead of a 400;
* the integer ``/mine`` fields went through bare ``int()``: ``"k": 2.9``
  mined as k=2, ``"k": true`` as k=1, ``"minsup": "abc"`` raised an
  uncaught ``ValueError`` (a 500), and a non-positive ``minsup`` reached
  the worker and failed the job;
* a malformed ``Content-Length`` header raised an uncaught-by-design
  ``ValueError`` that the generic handler turned into a 500 instead of
  a client-addressable 400;
* ``MiningCache.put`` with an oversize result dropped the existing good
  entry for that key before bailing;
* ``job_status`` read ``status`` and ``result`` without the queue lock,
  so a poller could observe a torn pair (status "running" with a result
  attached);
* a job function raising a ``BaseException`` such as ``SystemExit``
  slipped past the ``except Exception`` guard in ``JobQueue._worker``,
  killing the worker thread: the job stayed RUNNING forever (its
  ``wait()`` hung) and every queued job behind it was orphaned.
"""

import http.client
import json
import threading

import pytest

import repro.service.server as server_module
from repro.core.topk_miner import mine_topk
from repro.data import random_discretized_dataset
from repro.data.loaders import discretized_to_payload
from repro.service import MiningCache, ReproServer, RuleService, ServiceError
from repro.service.jobs import Job, JobQueue


@pytest.fixture
def dataset_payload():
    dataset = random_discretized_dataset(
        n_rows=10, n_items=9, density=0.45, seed=11
    )
    return discretized_to_payload(dataset)


def _mine_body(payload, **extra):
    body = {"items": payload, "consequent": 1, "k": 1, "minsup": 1}
    body.update(extra)
    return body


class TestMineDedupRace:
    def test_concurrent_identical_mines_deduplicate(
        self, dataset_payload, monkeypatch
    ):
        """Two racing identical /mine submissions must share one job.

        A barrier inside ``JobQueue.submit`` holds a submission at the
        exact point the pre-fix code had already passed the in-flight
        check but not yet registered the job.  Pre-fix, both threads
        pass the check, meet at the barrier, and both mine.  With the
        atomic check-submit-register, the second thread blocks on the
        service lock instead of reaching submit, the barrier times out
        harmlessly, and the second request deduplicates onto the first
        job (the job itself is gated so it cannot finish early and
        invalidate the dedup window).
        """
        service = RuleService(mining_workers=1)
        barrier = threading.Barrier(2)
        gate = threading.Event()
        original_submit = JobQueue.submit
        original_mine = server_module.mine_topk

        def stalling_submit(queue, fn):
            try:
                barrier.wait(timeout=0.5)
            except threading.BrokenBarrierError:
                pass
            return original_submit(queue, fn)

        def gated_mine(*args, **kwargs):
            gate.wait(timeout=10)
            return original_mine(*args, **kwargs)

        monkeypatch.setattr(JobQueue, "submit", stalling_submit)
        monkeypatch.setattr(server_module, "mine_topk", gated_mine)
        responses = [None, None]

        def submit(slot):
            responses[slot] = service.submit_mine(_mine_body(dataset_payload))

        threads = [
            threading.Thread(target=submit, args=(slot,)) for slot in (0, 1)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            gate.set()
        finally:
            gate.set()
            service.shutdown()
        assert all(response is not None for response in responses)
        job_ids = {response["job_id"] for response in responses}
        assert len(job_ids) == 1, f"both requests mined: {responses}"
        assert any(r.get("deduplicated") for r in responses)
        assert service.telemetry.snapshot()["counters"].get(
            "mine_jobs_submitted"
        ) == 1

    def test_fast_finish_leaves_no_stale_inflight_entry(
        self, dataset_payload, monkeypatch
    ):
        """A job finishing before registration must still be cleaned up.

        ``JobQueue.submit`` is patched to wait for the submitted job to
        finish before returning, recreating the pre-fix interleaving
        where the job's cleanup ran before ``submit_mine`` registered
        it, permanently leaking the in-flight entry.  Post-fix the job
        cannot finish inside submit (its cleanup needs the service lock
        the caller holds), the wait times out, and cleanup follows
        registration.
        """
        service = RuleService(mining_workers=1)
        original_submit = JobQueue.submit

        def submit_then_wait(queue, fn):
            job = original_submit(queue, fn)
            job.wait(timeout=1.0)
            return job

        monkeypatch.setattr(JobQueue, "submit", submit_then_wait)
        try:
            response = service.submit_mine(_mine_body(dataset_payload))
            job = service.jobs.get(response["job_id"])
            assert job.wait(timeout=30)
            # The cleanup runs inside the job function, so it has
            # completed by the time the job is observable as finished.
            assert not service._inflight, "stale in-flight entry leaked"
        finally:
            service.shutdown()


class TestBudgetValidation:
    @pytest.mark.parametrize("field", ["node_budget", "time_budget"])
    @pytest.mark.parametrize(
        "bad", ["soon", [1], {"n": 1}, True, 0, -5], ids=repr
    )
    def test_bad_budgets_are_rejected_up_front(
        self, dataset_payload, field, bad
    ):
        service = RuleService(mining_workers=1)
        try:
            with pytest.raises(ServiceError) as excinfo:
                service.submit_mine(_mine_body(dataset_payload, **{field: bad}))
            assert excinfo.value.status == 400
            assert field in str(excinfo.value)
        finally:
            service.shutdown()

    def test_float_node_budget_is_rejected(self, dataset_payload):
        service = RuleService(mining_workers=1)
        try:
            with pytest.raises(ServiceError) as excinfo:
                service.submit_mine(
                    _mine_body(dataset_payload, node_budget=1.5)
                )
            assert excinfo.value.status == 400
        finally:
            service.shutdown()

    def test_null_budget_disables_it_and_good_budgets_pass(
        self, dataset_payload
    ):
        service = RuleService(mining_workers=1)
        try:
            response = service.submit_mine(_mine_body(
                dataset_payload, node_budget=None, time_budget=2.5
            ))
            job = service.jobs.get(response["job_id"])
            assert job.wait(timeout=30)
            assert job.status == "done"
        finally:
            service.shutdown()


class TestIntegerFieldValidation:
    @pytest.mark.parametrize("field", ["consequent", "k", "minsup", "n_jobs"])
    @pytest.mark.parametrize(
        "bad", [2.9, 1.0, True, False, "abc", "2", [1]], ids=repr
    )
    def test_non_integers_are_rejected_up_front(
        self, dataset_payload, field, bad
    ):
        service = RuleService(mining_workers=1)
        try:
            with pytest.raises(ServiceError) as excinfo:
                service.submit_mine(_mine_body(dataset_payload, **{field: bad}))
            assert excinfo.value.status == 400
            assert field in str(excinfo.value)
        finally:
            service.shutdown()

    @pytest.mark.parametrize("minsup", [0, -3])
    def test_non_positive_minsup_is_rejected_up_front(
        self, dataset_payload, minsup
    ):
        service = RuleService(mining_workers=1)
        try:
            with pytest.raises(ServiceError) as excinfo:
                service.submit_mine(_mine_body(dataset_payload, minsup=minsup))
            assert excinfo.value.status == 400
            assert "minsup" in str(excinfo.value)
            assert service.telemetry.counter("mine_jobs_submitted") == 0
        finally:
            service.shutdown()

    def test_integer_fields_mine_as_given(self, dataset_payload):
        service = RuleService(mining_workers=1)
        try:
            response = service.submit_mine(_mine_body(
                dataset_payload, consequent=1, k=2, minsup=2, n_jobs=1
            ))
            job = service.jobs.get(response["job_id"])
            assert job.wait(timeout=30)
            assert job.status == "done"
            assert job.result["k"] == 2
            assert job.result["minsup"] == 2
        finally:
            service.shutdown()


class TestMalformedContentLength:
    def test_bad_content_length_returns_400(self):
        server = ReproServer(port=0).start()
        try:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=30
            )
            try:
                connection.putrequest("POST", "/mine")
                connection.putheader("Content-Type", "application/json")
                connection.putheader("Content-Length", "not-a-number")
                connection.endheaders()
                response = connection.getresponse()
                body = json.loads(response.read())
            finally:
                connection.close()
            assert response.status == 400
            assert "Content-Length" in body["error"]
        finally:
            server.stop()


class TestOversizePutRetention:
    def test_oversize_put_keeps_existing_entry(self):
        from repro.service.cache import _estimate_result_bytes

        dataset = random_discretized_dataset(
            n_rows=6, n_items=5, density=0.5, seed=3
        )
        small = mine_topk(dataset, 1, 1, k=1)
        big = mine_topk(dataset, 1, 1, k=10)
        small_size = _estimate_result_bytes(small)
        big_size = _estimate_result_bytes(big)
        assert small_size < big_size
        cache = MiningCache(max_bytes=(small_size + big_size) // 2)
        cache.put("key", small)
        assert cache.get("key") is small
        cache.put("key", big)  # oversize: must be a no-op, not a drop
        assert cache.get("key") is small, (
            "oversize put dropped the existing good entry"
        )
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] == small_size


class TestWorkerSurvivesBaseException:
    def test_system_exit_fails_job_and_keeps_worker_alive(self):
        """A job raising SystemExit must fail cleanly, not kill the
        worker thread.  Pre-fix, ``except Exception`` missed it: the
        worker died, the job stayed RUNNING with ``wait()`` hanging, and
        the follow-up job below was never picked up."""
        queue = JobQueue(workers=1)

        def exiting_job(job):
            raise SystemExit(3)

        try:
            doomed = queue.submit(exiting_job)
            assert doomed.wait(timeout=30), (
                "job never reached a terminal state (worker thread died)"
            )
            assert doomed.status == "failed"
            assert "SystemExit" in doomed.error
            # The same worker must still be alive to run the next job.
            follow_up = queue.submit(lambda job: "still here")
            assert follow_up.wait(timeout=30)
            assert follow_up.status == "done"
            assert follow_up.result == "still here"
        finally:
            queue.shutdown()

    def test_keyboard_interrupt_in_job_does_not_orphan_queue(self):
        queue = JobQueue(workers=1)

        def interrupted_job(job):
            raise KeyboardInterrupt

        try:
            doomed = queue.submit(interrupted_job)
            assert doomed.wait(timeout=30)
            assert doomed.status == "failed"
            follow_up = queue.submit(lambda job: 7)
            assert follow_up.wait(timeout=30)
            assert follow_up.result == 7
        finally:
            queue.shutdown()


class TestJobStatusSnapshot:
    def test_job_status_never_sees_torn_status_result_pair(self, monkeypatch):
        """A poller must never see a non-terminal status with a result.

        ``Job.describe`` is patched so that, the first time the poller
        reads the running job, it releases the job function and then
        waits for the job to reach its terminal state before returning
        the (stale, pre-completion) description.  Pre-fix that is
        exactly the torn window: ``job_status`` then consulted
        ``job.result`` — already set — and returned status "running"
        with a result attached.  Post-fix the snapshot holds the queue
        lock across both reads, the worker cannot finish inside the
        window (finishing needs the same lock), the wait times out, and
        the returned payload is consistent.
        """
        service = RuleService(mining_workers=1)
        release = threading.Event()
        started = threading.Event()
        paused_once = threading.Event()
        original_describe = Job.describe

        def job_fn(job):
            started.set()
            release.wait(timeout=10)
            return {"answer": 42}

        def pausing_describe(job):
            payload = original_describe(job)
            if payload["status"] == "running" and not paused_once.is_set():
                paused_once.set()
                release.set()
                job._done.wait(timeout=1.0)
            return payload

        try:
            job = service.jobs.submit(job_fn)
            assert started.wait(timeout=30)
            monkeypatch.setattr(Job, "describe", pausing_describe)
            payload = service.job_status(job.job_id)
            monkeypatch.setattr(Job, "describe", original_describe)
            assert paused_once.is_set()
            if payload["status"] in ("queued", "running"):
                assert "result" not in payload, (
                    "torn read: non-terminal status paired with a result"
                )
            else:
                assert payload["status"] == "done"
                assert payload["result"] == {"answer": 42}
        finally:
            release.set()
            service.shutdown()
