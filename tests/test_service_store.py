"""Durable job store: unit behavior and restart recovery semantics."""

import json
import sqlite3
import threading
import time

import pytest

import repro.core.column as column
from repro.data import random_discretized_dataset
from repro.data.loaders import discretized_to_payload
from repro.data.synthetic import TALL_COHORTS, generate_tall_cohort
import repro.service.jobs as jobs_module
import repro.service.store as store_module
from repro.service import JobStore, RuleService, ServiceError
from repro.service.jobs import MAX_FINISHED_JOBS, JobCancelled


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

    def test_interrupted_column_job_replays_to_done_under_its_key(
        self, tmp_path, monkeypatch
    ):
        """An auto request that plans the column walk is stored as the
        "auto" it came from: "column" is a plan, not a strategy a request
        may name, so a row recording it would be rejected on replay.  A
        job interrupted by a shutdown then re-plans column after the
        restart and finishes under the same key with the result of an
        uninterrupted service."""
        # The perfbench tall shape: 12 frequent items over 256 rows.
        tall = generate_tall_cohort(TALL_COHORTS["tall-1k"].scaled(0.25))
        body = _mine_body(tall, strategy="auto")
        reference_service = RuleService()
        try:
            submitted = reference_service.submit_mine(body)
            key = submitted["key"]
            assert key.endswith(":column")
            reference = _wait_done(reference_service, submitted["job_id"])
            gauges = reference_service.metrics()["gauges"]
            assert gauges["auto_strategy_column"] >= 1
        finally:
            reference_service.shutdown()
        assert reference["result"]["stats"]["plan"]["strategy"] == "column"

        # The walk of the first incarnation runs until shutdown cancels
        # it, so the job is surely interrupted mid-run.
        walking = threading.Event()

        def walk_until_cancelled(view, minsup, record, budget, *args):
            walking.set()
            while True:
                budget.poll()
                time.sleep(0.005)

        monkeypatch.setattr(column, "walk_closed_sets", walk_until_cancelled)
        path = str(tmp_path / "jobs.db")
        service = RuleService(store_path=path)
        job_id = service.submit_mine(body)["job_id"]
        assert walking.wait(30.0)
        service.shutdown()
        monkeypatch.undo()

        store = JobStore(path)
        try:
            [pending] = store.pending_jobs()
            assert pending["job_id"] == job_id
            assert pending["mining_key"] == key
            assert pending["request"]["strategy"] == "auto"
        finally:
            store.close()

        revived = RuleService(store_path=path)
        try:
            assert revived.telemetry.counter("mine_jobs_recovered") == 1
            resumed = _wait_done(revived, job_id)
            assert resumed["status"] == "done"
            assert _mined_content(resumed["result"]) == _mined_content(
                reference["result"]
            )
        finally:
            revived.shutdown()
        store = JobStore(path)
        try:
            assert _mined_content(store.get_result(key)) == (
                _mined_content(reference["result"])
            )
        finally:
            store.close()

    def test_a_row_recording_the_column_plan_is_rejected(
        self, tmp_path, dataset
    ):
        """A row naming "column" (which no request may) fails visibly as
        a rejected replay instead of mining."""
        path = str(tmp_path / "jobs.db")
        store = JobStore(path)
        store.record_submitted("job-1", "key-column", {
            "items": discretized_to_payload(dataset),
            "consequent": 1, "minsup": 2, "k": 2, "engine": "bitset",
            "strategy": "column", "node_budget": None,
            "time_budget": None, "n_jobs": 1,
        })
        store.close()
        revived = RuleService(store_path=path)
        try:
            failed = revived.job_status("job-1")
            assert failed["status"] == "failed"
            assert failed["error"].startswith("replay rejected")
            assert "unknown strategy 'column'" in failed["error"]
        finally:
            revived.shutdown()

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


def _stored_request_text(path, job_id):
    connection = sqlite3.connect(path)
    try:
        return connection.execute(
            "SELECT request FROM jobs WHERE job_id=?", (job_id,)
        ).fetchone()[0]
    finally:
        connection.close()


def _fresh_key_and_result(dataset):
    """The mining key and finished result of a plain in-memory submit."""
    service = RuleService()
    try:
        submitted = service.submit_mine(_mine_body(dataset))
        return submitted["key"], _wait_done(service, submitted["job_id"])
    finally:
        service.shutdown()


class TestStoredRequestText:
    """A job row holds the normalized fields and the ``/mine`` body as
    received; both it and a row in the older full-JSON form replay to a
    fresh submit's key and result."""

    def test_body_is_stored_as_received_and_replays(self, tmp_path, dataset):
        key, reference = _fresh_key_and_result(dataset)
        # Spacing and key order json.dumps would not produce: the store
        # must keep the text, not a re-encoding.
        raw = ('{ "k" : 2,\n "consequent": 1, "items": '
               + json.dumps(discretized_to_payload(dataset), indent=1)
               + " }\n").encode("utf-8")
        path = str(tmp_path / "jobs.db")
        service = RuleService(store_path=path, mining_workers=1)
        service.jobs.submit(lambda job: job.cancel_event.wait(10.0))
        submitted = service.submit_mine_json(raw)
        assert submitted["key"] == key
        job_id = submitted["job_id"]
        service.shutdown()

        text = _stored_request_text(path, job_id)
        assert text.endswith('"body":' + raw.decode("utf-8") + "}")
        stored = json.loads(text)
        assert "items" not in stored
        assert stored["minsup"] == reference["result"]["minsup"]

        revived = RuleService(store_path=path)
        try:
            assert revived.telemetry.counter("mine_jobs_recovered") == 1
            resumed = _wait_done(revived, job_id)
            assert resumed["status"] == "done"
            assert _mined_content(resumed["result"]) == _mined_content(
                reference["result"])
        finally:
            revived.shutdown()
        store = JobStore(path)
        try:
            assert store.get_result(key) is not None
        finally:
            store.close()

    def test_older_full_json_row_replays_under_fresh_key(
        self, tmp_path, dataset
    ):
        key, reference = _fresh_key_and_result(dataset)
        path = str(tmp_path / "jobs.db")
        store = JobStore(path)
        # The form older versions wrote: items encoded in the request,
        # keyed by the fingerprint form of their time.
        store.record_submitted("job-1", "older-fingerprint:c1:s0:k2:bitset", {
            "items": discretized_to_payload(dataset),
            "consequent": 1,
            "minsup": reference["result"]["minsup"],
            "k": 2,
            "engine": "bitset",
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
            assert _mined_content(resumed["result"]) == _mined_content(
                reference["result"])
        finally:
            revived.shutdown()
        store = JobStore(path)
        try:
            assert _mined_content(store.get_result(key)) == _mined_content(
                reference["result"])
        finally:
            store.close()

    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16"])
    def test_other_encodings_store_their_items(
        self, tmp_path, dataset, encoding
    ):
        raw = json.dumps(_mine_body(dataset)).encode(encoding)
        path = str(tmp_path / "jobs.db")
        service = RuleService(store_path=path, mining_workers=1)
        service.jobs.submit(lambda job: job.cancel_event.wait(10.0))
        job_id = service.submit_mine_json(raw)["job_id"]
        service.shutdown()
        stored = json.loads(_stored_request_text(path, job_id))
        assert "body" not in stored
        assert stored["items"] == discretized_to_payload(dataset)


class TestTruncatedResults:
    """Only a completed result answers another request, from either
    tier; a truncated job's own result stays pollable."""

    def test_budget_truncated_result_answers_no_other_request(
        self, tmp_path, dataset, monkeypatch
    ):
        monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 1)
        path = str(tmp_path / "jobs.db")
        service = RuleService(store_path=path, mining_workers=1)
        try:
            cut = service.submit_mine(_mine_body(dataset, node_budget=5))
            truncated = _wait_done(service, cut["job_id"])["result"]
            assert truncated["completed"] is False
            full = service.submit_mine(_mine_body(dataset))
            assert full["cached"] is False
            assert _wait_done(service, full["job_id"])["result"][
                "completed"] is True
            # The truncated job has left the job table; the store
            # answers it with its own result.
            with pytest.raises(KeyError):
                service.jobs.snapshot(cut["job_id"])
            assert service.job_status(cut["job_id"])["result"] == truncated
        finally:
            service.shutdown()

    def test_truncated_result_does_not_survive_restart_as_answer(
        self, tmp_path, dataset
    ):
        path = str(tmp_path / "jobs.db")
        service = RuleService(store_path=path, mining_workers=1)
        try:
            cut = service.submit_mine(_mine_body(dataset, node_budget=5))
            truncated = _wait_done(service, cut["job_id"])["result"]
        finally:
            service.shutdown()
        assert truncated["completed"] is False
        for _restart in range(2):
            fresh = RuleService(store_path=path, mining_workers=1)
            try:
                answered = fresh.submit_mine(_mine_body(dataset))
                if answered["cached"]:
                    result = answered["result"]
                else:
                    result = _wait_done(fresh, answered["job_id"])["result"]
                assert result["completed"] is True
                assert fresh.job_status(cut["job_id"])["result"] == truncated
            finally:
                fresh.shutdown()
        # The second boot answered from the completed durable result.
        assert answered["cached"] is True

    def test_older_truncated_row_under_the_mining_key_is_skipped(
        self, tmp_path
    ):
        store = JobStore(tmp_path / "jobs.db")
        try:
            store.record_submitted("job-1", "key-a", {"k": 2})
            with store._conn:
                store._conn.execute(
                    "INSERT INTO results (result_key, payload, created_at)"
                    " VALUES ('key-a', '{\"completed\": false}', 0)"
                )
                store._conn.execute(
                    "UPDATE jobs SET status='done', result_key='key-a'"
                )
            assert store.get_result("key-a") is None
            assert store.get_job("job-1")["result"] == {"completed": False}
        finally:
            store.close()


class TestUnstorableResult:
    def test_result_the_store_cannot_hold_still_ends_the_job(
        self, tmp_path, dataset, monkeypatch
    ):
        """A result too long to encode (a tall mine's text can pass
        INT_MAX bytes) leaves a terminal row naming why no result is
        stored: shutdown completes and no later boot re-mines it."""

        def too_long(*args, **kwargs):
            raise OverflowError("string longer than INT_MAX bytes")

        monkeypatch.setattr(store_module, "encode_json", too_long)
        path = str(tmp_path / "jobs.db")
        service = RuleService(store_path=path, mining_workers=1)
        try:
            job_id = service.submit_mine(_mine_body(dataset))["job_id"]
            assert _wait_done(service, job_id)["status"] == "done"
        finally:
            service.shutdown()
        store = JobStore(path)
        try:
            row = store.get_job(job_id)
            assert row["status"] == "done"
            assert row["error"].startswith("result not stored: OverflowError")
            assert "result" not in row
            assert store.pending_jobs() == []
        finally:
            store.close()
        monkeypatch.undo()
        revived = RuleService(store_path=path, mining_workers=1)
        try:
            assert revived.telemetry.counter("mine_jobs_recovered") == 0
            assert revived.job_status(job_id)["status"] == "done"
        finally:
            revived.shutdown()


class TestJobTableBound:
    def test_soak_holds_the_bound_and_store_answers_dropped_jobs(
        self, tmp_path
    ):
        small = random_discretized_dataset(n_rows=8, n_items=6, seed=2)
        path = str(tmp_path / "jobs.db")
        service = RuleService(store_path=path, mining_workers=1)
        try:
            first = service.submit_mine(_mine_body(small, k=1))["job_id"]
            live = _wait_done(service, first)
            # Each k is its own mining key, so every submit is a job.
            for k in range(2, MAX_FINISHED_JOBS + 12):
                job_id = service.submit_mine(_mine_body(small, k=k))["job_id"]
                assert service.jobs.get(job_id).wait(30)
            assert service.jobs.describe()["jobs"] == MAX_FINISHED_JOBS
            with pytest.raises(KeyError):
                service.jobs.snapshot(first)
            polled = service.job_status(first)
            assert polled["status"] == "done"
            assert polled["result"] == live["result"]
        finally:
            service.shutdown()

    def test_dropped_job_without_store_is_404(self, dataset, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 2)
        service = RuleService(mining_workers=1)
        try:
            ids = []
            for k in (1, 2, 3):
                body = _mine_body(dataset, k=k)
                ids.append(service.submit_mine(body)["job_id"])
                assert service.jobs.get(ids[-1]).wait(30)
            assert service.job_status(ids[2])["status"] == "done"
            with pytest.raises(ServiceError) as excinfo:
                service.job_status(ids[0])
            assert excinfo.value.status == 404
        finally:
            service.shutdown()
