"""The ``/mine`` payload: one entry per distinct rule group, rendered once.

``topk_result_to_payload`` shares one entry dict between every
``per_row`` slot a rule group fills, and the service keeps that one
payload as the job's result, the cache entry and every cache-hit
response.  These tests hold the JSON text to a slot-by-slot rendering,
hold ``encode_json`` (which encodes each shared entry once) to
``json.dumps`` byte for byte, check that hits do not render again, and
bound the memory a finished job retains.
"""

import gc
import json
import random
import sys
import tracemalloc

import pytest

import repro.service.server as server_module
from repro.core.bitset import iter_indices
from repro.core.topk_miner import mine_topk, relative_minsup
from repro.data import random_discretized_dataset
from repro.data.loaders import discretized_to_payload
from repro.service import JobStore, RuleService, topk_result_to_payload
from repro.service.cache import _estimate_payload_bytes, encode_json


def per_slot_payload(result):
    """The slot-by-slot renderer the service used before entries were
    shared, kept as an independent reference for the JSON text."""
    return {
        "consequent": result.consequent,
        "minsup": result.minsup,
        "k": result.k,
        "completed": result.stats.completed,
        "degraded": result.stats.degraded,
        "stats": result.stats.as_dict(),
        "n_unique_groups": len(result.unique_groups()),
        "per_row": {
            str(row): [
                {
                    "antecedent": sorted(group.antecedent),
                    "support": group.support,
                    "confidence": group.confidence,
                    "rows": list(iter_indices(group.row_set)),
                }
                for group in groups
            ]
            for row, groups in sorted(result.per_row.items())
        },
    }


def distinct_entries(payload):
    return {id(entry) for slots in payload["per_row"].values()
            for entry in slots}


@pytest.fixture(scope="module")
def dataset():
    return random_discretized_dataset(
        n_rows=30, n_items=20, density=0.5, seed=5
    )


def _mine(dataset, k=10, **options):
    minsup = relative_minsup(dataset, 1, 0.5)
    return mine_topk(dataset, 1, minsup, k=k, **options)


class TestRendering:
    @pytest.mark.parametrize("options", [
        {"engine": "bitset"},
        {"engine": "table"},
        {"engine": "tree"},
        {"strategy": "hybrid"},
        {"node_budget": 40},
    ], ids=["bitset", "table", "tree", "hybrid", "truncated"])
    def test_json_matches_per_slot_rendering(self, dataset, options):
        result = _mine(dataset, **options)
        payload = topk_result_to_payload(result)
        assert json.dumps(payload) == json.dumps(per_slot_payload(result))
        assert len(distinct_entries(payload)) == payload["n_unique_groups"]
        if "node_budget" in options:
            assert payload["completed"] is False
            assert payload["per_row"]

    def test_each_group_is_rendered_once(self, dataset):
        payload = topk_result_to_payload(_mine(dataset))
        slots = sum(len(entries) for entries in payload["per_row"].values())
        # Top-k lists overlap: far fewer groups than slots.
        assert payload["n_unique_groups"] * 3 < slots
        assert len(distinct_entries(payload)) == payload["n_unique_groups"]

    def test_size_estimate_tracks_resident_size(self, dataset):
        result = _mine(dataset)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            payload = topk_result_to_payload(result)
            resident = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # Measured at 1.11x on CPython 3.11.
        assert 0.75 < _estimate_payload_bytes(payload) / resident < 1.33


def _permuted_body(base, seed):
    """A ``/mine`` body over ``base`` with its rows shuffled: a distinct
    fingerprint, so a fresh mine, of the same shape."""
    order = list(range(len(base["rows"])))
    random.Random(seed).shuffle(order)
    items = dict(base, rows=[base["rows"][i] for i in order],
                 labels=[base["labels"][i] for i in order])
    return {"items": items, "consequent": 1, "k": 20,
            "minsup_fraction": 0.5}


def _finish(service, body):
    response = service.submit_mine(body)
    job = service.jobs.get(response["job_id"])
    assert job.wait(30)
    assert job.status == "done"
    return job


class TestServiceHoldsOnePayload:
    @pytest.fixture
    def service(self):
        service = RuleService(mining_workers=1)
        yield service
        service.shutdown()

    def test_cache_hit_returns_job_payload_without_rendering(
        self, service, dataset, monkeypatch
    ):
        body = _permuted_body(discretized_to_payload(dataset), 0)
        job = _finish(service, body)
        calls = []
        renderer = server_module.topk_result_to_payload
        monkeypatch.setattr(
            server_module, "topk_result_to_payload",
            lambda result: calls.append(result) or renderer(result),
        )
        hit = service.submit_mine(body)
        assert hit["cached"] is True
        assert hit["result"] is job.result
        assert calls == []

    def test_retained_memory_per_finished_job_is_bounded(
        self, service, dataset
    ):
        base = discretized_to_payload(dataset)
        _finish(service, _permuted_body(base, 0))  # warm-up
        n_jobs = 10
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for seed in range(1, n_jobs + 1):
                _finish(service, _permuted_body(base, seed))
            gc.collect()
            retained = (tracemalloc.get_traced_memory()[0] - before) / n_jobs
        finally:
            tracemalloc.stop()
        assert service.cache.stats()["entries"] == n_jobs + 1
        # Measured on CPython 3.11 (30 rows, k=20: 186 slots, 24 groups):
        # 111.5 KB per job when the cache held the TopkResult and the job
        # a slot-by-slot rendering, 24.7 KB with one shared payload.
        assert retained < 48 * 1024, f"{retained / 1024:.1f} KB per job"


COMPACT = (",", ":")


def assert_encodes_like_json(value):
    assert encode_json(value) == json.dumps(value)
    assert encode_json(value, COMPACT) == json.dumps(value, separators=COMPACT)


class TestEncoder:
    """``encode_json`` is ``json.dumps``, byte for byte, on every body the
    service sends or stores."""

    @pytest.mark.parametrize("options", [
        {"engine": "bitset"},
        {"engine": "table"},
        {"engine": "tree"},
        {"strategy": "hybrid"},
        {"node_budget": 40},
        {"k": 1},
    ], ids=["bitset", "table", "tree", "hybrid", "truncated", "k1"])
    def test_mine_payloads(self, dataset, options):
        payload = topk_result_to_payload(_mine(dataset, **options))
        assert payload["n_unique_groups"] > 0
        assert_encodes_like_json(payload)

    def test_service_bodies(self, dataset, tmp_path):
        body = _permuted_body(discretized_to_payload(dataset), 0)
        service = RuleService(mining_workers=1,
                              store_path=str(tmp_path / "jobs.db"))
        try:
            job = _finish(service, body)
            snapshot = service.job_status(job.job_id)
            hit = service.submit_mine(body)
            assert hit["cached"] is True
            assert_encodes_like_json(snapshot)
            assert_encodes_like_json(hit)
        finally:
            service.shutdown()
        store = JobStore(tmp_path / "jobs.db")
        try:
            stored = store.get_job(job.job_id)
        finally:
            store.close()
        # Decoded from text, so no entry dict is shared any more.
        result = stored["result"]
        slots = sum(len(entries) for entries in result["per_row"].values())
        assert len(distinct_entries(result)) == slots
        assert stored["result"] == json.loads(json.dumps(snapshot["result"]))
        assert_encodes_like_json(stored)

    @pytest.mark.parametrize("value", [
        {"error": "invalid JSON body: Expecting value: line 1 column 1 "
                  "(char 0)"},
        {"error": "unknown job 'j\u00f6b \\ \"x\"\\n\\u0000'"},
        {"error": "\u00fc\u2603\U0001f600 \x00\x1f"},
        {},
        [],
        {"a": [], "b": {}, "c": [{}], "d": [[{"e": None}]]},
        {"nums": [0, -1, 1.5, -0.0, 1e300, float("inf"), float("-inf")],
         "flags": [True, False, None]},
        {1: "int key", None: {"x": 1}, 2.5: [{"y": 2}]},
        {"tuple": ({"a": 1}, (2, 3)), "mixed": [1, {"b": [2]}, "s"]},
    ], ids=["parse", "quotes", "unicode", "empty-dict", "empty-list",
            "nested", "scalars", "non-str-keys", "tuples"])
    def test_other_bodies(self, value):
        assert_encodes_like_json(value)

    def test_shared_dicts_encode_like_copies(self):
        entry = {"antecedent": [1, 2], "support": 3, "confidence": 0.75,
                 "rows": [0, 4, 9]}
        shared = {"per_row": {str(row): [entry, entry] for row in range(3)}}
        assert_encodes_like_json(shared)
        assert encode_json(shared) == encode_json(
            json.loads(json.dumps(shared)))


class TestMetricsMemory:
    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="/proc/self/statm is Linux-only")
    def test_rss_gauges_present_and_positive(self):
        service = RuleService(mining_workers=1)
        try:
            gauges = service.metrics()["gauges"]
        finally:
            service.shutdown()
        assert gauges["rss_bytes"] > 0
        assert gauges["rss_peak_bytes"] >= gauges["rss_bytes"]
