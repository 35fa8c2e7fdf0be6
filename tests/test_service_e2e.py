"""End-to-end tests of the HTTP serving layer on an ephemeral port."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.classifiers import RCBTClassifier
from repro.classifiers.persistence import classifier_to_payload
from repro.data import random_discretized_dataset
from repro.data.loaders import discretized_to_payload
from repro.service import AsyncReproServer


def _request(url, body=None, method=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        url,
        data=data,
        method=method or ("POST" if body is not None else "GET"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _poll_job(base, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload = _request(f"{base}/jobs/{job_id}")
        assert status == 200
        if payload["status"] in ("done", "failed", "cancelled"):
            return payload
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


def _nondaemon_threads():
    return [
        thread
        for thread in threading.enumerate()
        if thread.is_alive()
        and not thread.daemon
        and thread is not threading.main_thread()
    ]


@pytest.fixture
def server():
    instance = AsyncReproServer(port=0, batch_delay=0.01).start()
    yield instance
    instance.stop()


class TestServingEndToEnd:
    def test_full_walkthrough(self, server, small_benchmark):
        base = server.url

        status, health = _request(f"{base}/healthz")
        assert status == 200 and health["status"] == "ok"

        # Register a trained classifier over the wire.
        model = RCBTClassifier(k=2, nl=2).fit(small_benchmark.train_items)
        status, record = _request(f"{base}/models", body={
            "name": "all", "model": classifier_to_payload(model),
        })
        assert status == 201
        assert record == {"name": "all", "version": 1, "kind": "rcbt",
                          "has_pipeline": False}
        status, listing = _request(f"{base}/models")
        assert status == 200 and len(listing["models"]) == 1

        # Concurrent /classify requests from threads all match the
        # in-process model.
        test_items = small_benchmark.test_items
        rows_payload = [sorted(row) for row in test_items.rows]
        expected = model.predict_with_sources(test_items)
        outcomes = {}

        def classify(index):
            outcomes[index] = _request(f"{base}/classify", body={
                "model": "all", "rows": rows_payload,
            })

        threads = [
            threading.Thread(target=classify, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for status, payload in outcomes.values():
            assert status == 200
            assert payload["predictions"] == expected[0]
            assert payload["sources"] == expected[1]

        # First /mine runs as a job; the identical second request is a
        # cache hit, proven by the /metrics counters.
        mine_body = {
            "items": discretized_to_payload(small_benchmark.train_items),
            "consequent": 1,
            "k": 2,
        }
        status, first = _request(f"{base}/mine", body=mine_body)
        assert status == 202
        assert first["cached"] is False
        finished = _poll_job(base, first["job_id"])
        assert finished["status"] == "done"
        assert finished["result"]["completed"] is True
        assert finished["result"]["n_unique_groups"] >= 1

        status, second = _request(f"{base}/mine", body=mine_body)
        assert status == 202
        assert second["cached"] is True
        assert second["status"] == "done"
        assert second["result"] == finished["result"]

        status, metrics = _request(f"{base}/metrics")
        assert status == 200
        counters = metrics["counters"]
        assert counters["mine_cache_hits"] == 1
        assert counters["mine_cache_misses"] == 1
        assert counters["classify_requests"] == 6
        assert metrics["cache"]["hits"] == 1
        assert metrics["jobs"]["by_status"]["done"] == 1

    def test_mine_job_cancellation(self, server):
        base = server.url
        # Dense enough (~15s of enumeration) that the job far outlives
        # the cancel round-trip.
        dataset = random_discretized_dataset(
            n_rows=56, n_items=200, density=0.95, seed=3
        )
        status, submitted = _request(f"{base}/mine", body={
            "items": discretized_to_payload(dataset),
            "consequent": 1,
            "minsup": 1,
            "k": 100,
        })
        assert status == 202
        job_id = submitted["job_id"]

        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            status, payload = _request(f"{base}/jobs/{job_id}")
            if payload["status"] == "running":
                break
            time.sleep(0.01)
        status, cancelled = _request(
            f"{base}/jobs/{job_id}", method="DELETE"
        )
        assert status == 200
        final = _poll_job(base, job_id)
        assert final["status"] == "cancelled"

    def test_classify_with_pipeline_values(self, server, small_benchmark):
        base = server.url
        model = RCBTClassifier(k=2, nl=2).fit(small_benchmark.train_items)
        discretizer = small_benchmark.discretizer
        train = small_benchmark.train
        pipeline = {
            "cuts": {str(g): c for g, c in discretizer.cuts_.items()},
            "gene_names": train.gene_names,
            "class_names": train.class_names,
        }
        _request(f"{base}/models", body={
            "name": "piped", "model": classifier_to_payload(model),
            "pipeline": pipeline,
        })
        status, payload = _request(f"{base}/classify", body={
            "model": "piped",
            "values": small_benchmark.test.values.tolist(),
        })
        assert status == 200
        expected = model.predict_with_sources(small_benchmark.test_items)
        assert payload["predictions"] == expected[0]
        assert payload["class_names"] == train.class_names

    def test_error_statuses(self, server, small_benchmark):
        base = server.url
        assert _request(f"{base}/nope")[0] == 404
        # An unknown POST route is a 404 before its (missing) body is
        # parsed, not a 400 for the body.
        status, payload = _request(f"{base}/nope", method="POST")
        assert status == 404 and "no route" in payload["error"]
        assert _request(f"{base}/classify", body={"model": "ghost",
                                                  "rows": []})[0] == 404
        assert _request(f"{base}/jobs/job-999")[0] == 404
        status, payload = _request(f"{base}/mine", body={"items": 3})
        assert status == 400 and "items" in payload["error"]
        status, _ = _request(f"{base}/mine", body={
            "items": discretized_to_payload(small_benchmark.train_items),
            "consequent": 99,
        })
        assert status == 400

    def test_shutdown_leaves_no_nondaemon_threads(self, small_benchmark):
        before = set(_nondaemon_threads())
        instance = AsyncReproServer(port=0).start()
        base = instance.url
        model = RCBTClassifier(k=2, nl=2).fit(small_benchmark.train_items)
        _request(f"{base}/models", body={
            "name": "all", "model": classifier_to_payload(model),
        })
        _request(f"{base}/classify", body={
            "model": "all",
            "rows": [sorted(row) for row in small_benchmark.test_items.rows],
        })
        _request(f"{base}/mine", body={
            "items": discretized_to_payload(small_benchmark.train_items),
            "consequent": 1,
        })
        instance.stop()
        leaked = [t for t in _nondaemon_threads() if t not in before]
        assert leaked == []
