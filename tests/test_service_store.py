"""Durable job store: unit behavior and restart recovery semantics."""

import time

import pytest

from repro.data import random_discretized_dataset
from repro.data.loaders import discretized_to_payload
from repro.service import JobStore, RuleService
from repro.service.jobs import JobCancelled


def _mine_body(dataset, **overrides):
    body = {
        "items": discretized_to_payload(dataset),
        "consequent": 1,
        "k": 2,
    }
    body.update(overrides)
    return body


def _mined_content(result):
    """A result payload minus its wall-clock field — everything that
    must be bit-identical across re-mines (rules, supports, stats)."""
    content = dict(result)
    content["stats"] = {
        key: value
        for key, value in result["stats"].items()
        if key != "elapsed_seconds"
    }
    return content


def _wait_done(service, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        payload = service.job_status(job_id)
        if payload["status"] in ("done", "failed", "cancelled"):
            return payload
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish")


@pytest.fixture
def dataset():
    return random_discretized_dataset(n_rows=30, n_items=14, seed=11)


class TestJobStoreUnit:
    def test_round_trip_and_result_addressing(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        store.record_submitted("job-1", "key-a", {"k": 2}, submitted_at=5.0)
        assert store.get_job("job-1")["status"] == "queued"
        store.apply_snapshot({"job_id": "job-1", "status": "running",
                              "started_at": 6.0})
        store.apply_snapshot({"job_id": "job-1", "status": "done",
                              "finished_at": 7.0,
                              "result": {"rules": [1, 2]}})
        job = store.get_job("job-1")
        assert job["status"] == "done"
        assert job["result"] == {"rules": [1, 2]}
        # The result is content-addressed by mining key, not job id.
        assert store.get_result("key-a") == {"rules": [1, 2]}
        store.close()

    def test_terminal_rows_never_regress(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        store.record_submitted("job-1", "key-a", {})
        store.apply_snapshot({"job_id": "job-1", "status": "done",
                              "result": {"n": 1}})
        # A late out-of-order 'running' notification must not resurrect
        # the job (queue observers fire outside the queue lock).
        store.apply_snapshot({"job_id": "job-1", "status": "running"})
        assert store.get_job("job-1")["status"] == "done"
        store.close()

    def test_unknown_and_non_durable_jobs_ignored(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        store.apply_snapshot({"job_id": "job-9", "status": "running"})
        assert store.get_job("job-9") is None
        store.close()

    def test_pending_jobs_and_id_seeding(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        store.record_submitted("job-3", "key-a", {"k": 1}, submitted_at=2.0)
        store.record_submitted("job-7", "key-b", {"k": 2}, submitted_at=1.0)
        store.apply_snapshot({"job_id": "job-3", "status": "running"})
        pending = store.pending_jobs()
        # Oldest first, both queued and running count as pending.
        assert [entry["job_id"] for entry in pending] == ["job-7", "job-3"]
        assert pending[0]["request"] == {"k": 2}
        assert store.max_job_number() == 7
        store.close()

    def test_requeue_rearms_a_row(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        store.record_submitted("job-1", "key-a", {})
        store.apply_snapshot({"job_id": "job-1", "status": "cancelled",
                              "error": "queue shut down"})
        store.requeue("job-1")
        job = store.get_job("job-1")
        assert job["status"] == "queued" and job["error"] is None
        assert [e["job_id"] for e in store.pending_jobs()] == ["job-1"]
        store.close()

    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "jobs.db"
        store = JobStore(path)
        store.record_submitted("job-1", "key-a", {"k": 3})
        store.checkpoint()
        store.close()
        reopened = JobStore(path)
        assert reopened.get_job("job-1")["status"] == "queued"
        assert reopened.stats()["jobs"] == 1
        reopened.close()


class TestDurableService:
    def test_mine_persists_and_store_answers_rerun(self, tmp_path, dataset):
        path = str(tmp_path / "jobs.db")
        service = RuleService(store_path=path)
        submitted = service.submit_mine(_mine_body(dataset))
        finished = _wait_done(service, submitted["job_id"])
        service.shutdown()

        # A new process re-mining the identical request is answered from
        # the durable result store without a job.
        fresh = RuleService(store_path=path)
        try:
            answered = fresh.submit_mine(_mine_body(dataset))
            assert answered["cached"] is True
            assert answered["result"] == finished["result"]
            assert fresh.telemetry.counter("mine_store_hits") == 1
        finally:
            fresh.shutdown()

    def test_restart_resumes_queued_job_bit_identically(
        self, tmp_path, dataset
    ):
        path = str(tmp_path / "jobs.db")
        # Reference result from a plain in-memory service.
        reference_service = RuleService()
        reference = _wait_done(
            reference_service,
            reference_service.submit_mine(_mine_body(dataset))["job_id"],
        )
        reference_service.shutdown()

        # Stall the single worker so the submitted mine is still queued
        # when the service dies; the stall job exits on shutdown's
        # cancel event, the mine never starts.
        service = RuleService(store_path=path, mining_workers=1)
        service.jobs.submit(lambda job: job.cancel_event.wait(10.0))
        submitted = service.submit_mine(_mine_body(dataset))
        job_id = submitted["job_id"]
        service.shutdown()

        # Boot a new service on the same store: the job must come back
        # under its original id and complete with the identical result.
        revived = RuleService(store_path=path)
        try:
            assert revived.telemetry.counter("mine_jobs_recovered") >= 1
            resumed = _wait_done(revived, job_id)
            assert resumed["status"] == "done"
            assert _mined_content(resumed["result"]) == _mined_content(
                reference["result"]
            )
        finally:
            revived.shutdown()

    def test_graceful_shutdown_requeues_interrupted_mine(
        self, tmp_path
    ):
        # Dense enough to run for many seconds — shutdown interrupts it.
        heavy = random_discretized_dataset(
            n_rows=56, n_items=200, density=0.95, seed=3
        )
        path = str(tmp_path / "jobs.db")
        service = RuleService(store_path=path)
        submitted = service.submit_mine(
            _mine_body(heavy, minsup=1, k=100)
        )
        job_id = submitted["job_id"]
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if service.job_status(job_id)["status"] == "running":
                break
            time.sleep(0.01)
        service.shutdown()

        store = JobStore(path)
        try:
            # The interrupted (not user-cancelled) mine is re-armed for
            # the next boot, not recorded as cancelled.
            assert store.get_job(job_id)["status"] == "queued"
            assert [e["job_id"] for e in store.pending_jobs()] == [job_id]
        finally:
            store.close()

    def test_user_cancelled_job_stays_cancelled_across_restart(
        self, tmp_path
    ):
        heavy = random_discretized_dataset(
            n_rows=56, n_items=200, density=0.95, seed=3
        )
        path = str(tmp_path / "jobs.db")
        service = RuleService(store_path=path)
        job_id = service.submit_mine(
            _mine_body(heavy, minsup=1, k=100)
        )["job_id"]
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if service.job_status(job_id)["status"] == "running":
                break
            time.sleep(0.01)
        service.cancel_job(job_id)
        _wait_done(service, job_id)
        service.shutdown()

        revived = RuleService(store_path=path)
        try:
            assert revived.telemetry.counter("mine_jobs_recovered") == 0
            assert revived.job_status(job_id)["status"] == "cancelled"
        finally:
            revived.shutdown()

    @pytest.mark.parametrize("retired", ["numpy", "packed"])
    def test_row_naming_a_retired_backend_replays_to_done(
        self, tmp_path, dataset, retired
    ):
        """Rows written while the service still accepted a ``backend``
        field keep it in their stored request.  The service no longer
        reads the field, so such a row replays to DONE under the same
        mining key with the same result, not as a rejected replay."""
        reference_service = RuleService()
        submitted = reference_service.submit_mine(_mine_body(dataset))
        reference = _wait_done(reference_service, submitted["job_id"])
        reference_service.shutdown()

        path = str(tmp_path / "jobs.db")
        store = JobStore(path)
        store.record_submitted("job-1", submitted["key"], {
            "items": discretized_to_payload(dataset),
            "consequent": 1,
            "minsup": reference["result"]["minsup"],
            "k": 2,
            "engine": "bitset",
            "backend": retired,
            "strategy": "direct",
            "node_budget": None,
            "time_budget": None,
            "n_jobs": 1,
        })
        store.close()

        revived = RuleService(store_path=path)
        try:
            assert revived.telemetry.counter("mine_jobs_recovered") == 1
            resumed = _wait_done(revived, "job-1")
            assert resumed["status"] == "done"
            assert _mined_content(resumed["result"]) == _mined_content(
                reference["result"]
            )
        finally:
            revived.shutdown()
        # The replay mined under the original key: its durable result is
        # addressed by it.
        store = JobStore(path)
        try:
            assert store.get_job("job-1")["status"] == "done"
            assert _mined_content(store.get_result(submitted["key"])) == (
                _mined_content(reference["result"])
            )
        finally:
            store.close()

    def test_replayed_duplicate_requests_share_one_mine(
        self, tmp_path, dataset
    ):
        # Leave one queued mine behind, then plant an identical second
        # row (as if a crash interleaved two submissions): on boot the
        # second replay must deduplicate onto the first as a proxy, and
        # both ids must resolve to the same result.
        path = str(tmp_path / "jobs.db")
        service = RuleService(store_path=path, mining_workers=1)
        service.jobs.submit(lambda job: job.cancel_event.wait(10.0))
        first = service.submit_mine(_mine_body(dataset))["job_id"]
        service.shutdown()

        store = JobStore(path)
        entry = store.pending_jobs()[0]
        store.record_submitted("job-99", entry["mining_key"],
                               entry["request"])
        store.close()

        revived = RuleService(store_path=path)
        try:
            assert revived.telemetry.counter("mine_jobs_recovered") == 2
            done_first = _wait_done(revived, first)
            done_second = _wait_done(revived, "job-99")
            assert done_first["status"] == "done"
            # Depending on how fast the first replay mines, the second
            # proxies onto it, adopts its cached/stored result, or
            # re-mines deterministically — every path must resolve both
            # ids to the same mined content.
            assert _mined_content(done_second["result"]) == _mined_content(
                done_first["result"]
            )
        finally:
            revived.shutdown()

    def test_proxy_rows_forward_to_their_target(self, tmp_path, dataset):
        # A proxy row (a replay that merged into another job) stays
        # pollable under its own id: status reads forward to the target
        # and come back stamped with the original id.
        path = str(tmp_path / "jobs.db")
        store = JobStore(path)
        store.record_submitted("job-1", "key-a", {"k": 2})
        store.apply_snapshot({"job_id": "job-1", "status": "done",
                              "result": {"n_unique_groups": 4}})
        store.record_submitted("job-99", "key-a", {"k": 2})
        store.mark_proxy("job-99", "job-1")
        store.close()

        service = RuleService(store_path=path)
        try:
            payload = service.job_status("job-99")
            assert payload["job_id"] == "job-99"
            assert payload["deduplicated_into"] == "job-1"
            assert payload["status"] == "done"
            assert payload["result"] == {"n_unique_groups": 4}
            # Cancelling the proxy handle is a no-op on a finished
            # target but must still resolve, not 404.
            cancelled = service.cancel_job("job-99")
            assert cancelled["status"] == "done"
        finally:
            service.shutdown()

    def test_health_and_metrics_report_store(self, tmp_path, dataset):
        path = str(tmp_path / "jobs.db")
        service = RuleService(store_path=path)
        try:
            _wait_done(
                service, service.submit_mine(_mine_body(dataset))["job_id"]
            )
            health = service.health()
            assert health["durable"] is True
            assert health["store"]["jobs"] == 1
            metrics = service.metrics()
            assert metrics["store"]["by_status"] == {"done": 1}
            assert metrics["store"]["results"] == 1
        finally:
            service.shutdown()
