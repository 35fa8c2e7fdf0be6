"""Tests for the content-addressed mining cache."""

import pytest

from repro.core.topk_miner import mine_topk
from repro.data import make_figure1_example
from repro.data.loaders import discretized_from_payload, discretized_to_payload
from repro.service.cache import MiningCache, dataset_fingerprint, mining_key
from repro.service.server import topk_result_to_payload


class TestFingerprint:
    def test_stable_across_calls(self, figure1):
        assert dataset_fingerprint(figure1) == dataset_fingerprint(figure1)

    def test_payload_round_trip_preserves_fingerprint(self, figure1):
        clone = discretized_from_payload(discretized_to_payload(figure1))
        assert dataset_fingerprint(clone) == dataset_fingerprint(figure1)

    def test_display_name_is_ignored(self, figure1):
        clone = discretized_from_payload(discretized_to_payload(figure1))
        clone.name = "renamed"
        assert dataset_fingerprint(clone) == dataset_fingerprint(figure1)

    def test_row_change_changes_fingerprint(self, figure1):
        payload = discretized_to_payload(figure1)
        payload["rows"][0] = payload["rows"][0][:-1]
        changed = discretized_from_payload(payload)
        assert dataset_fingerprint(changed) != dataset_fingerprint(figure1)

    def test_label_change_changes_fingerprint(self, figure1):
        payload = discretized_to_payload(figure1)
        payload["labels"][0] = 1 - payload["labels"][0]
        changed = discretized_from_payload(payload)
        assert dataset_fingerprint(changed) != dataset_fingerprint(figure1)

    def test_key_varies_with_every_parameter(self, figure1):
        fp = dataset_fingerprint(figure1)
        keys = {
            mining_key(fp, 1, 2, 1, "bitset"),
            mining_key(fp, 0, 2, 1, "bitset"),
            mining_key(fp, 1, 3, 1, "bitset"),
            mining_key(fp, 1, 2, 2, "bitset"),
            mining_key(fp, 1, 2, 1, "table"),
        }
        assert len(keys) == 5


class TestMiningCache:
    def _result(self, figure1, k=1):
        return topk_result_to_payload(mine_topk(figure1, 1, 2, k=k))

    def test_get_miss_then_hit(self, figure1):
        cache = MiningCache(max_bytes=1 << 20)
        key = mining_key(dataset_fingerprint(figure1), 1, 2, 1, "bitset")
        assert cache.get(key) is None
        result = self._result(figure1)
        cache.put(key, result)
        assert cache.get(key) is result
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_byte_bound_evicts_lru(self, figure1):
        result = self._result(figure1)
        cache = MiningCache(max_bytes=1 << 20)
        cache.put("probe", result)
        size = cache.stats()["bytes"]
        assert size > 0
        # Room for exactly two entries: inserting a third evicts the
        # least recently used one.
        cache = MiningCache(max_bytes=int(size * 2.5))
        cache.put("a", result)
        cache.put("b", result)
        assert cache.get("a") is result  # refresh "a"; "b" is now LRU
        cache.put("c", result)
        assert cache.get("b") is None
        assert cache.get("a") is result
        assert cache.get("c") is result
        assert cache.stats()["evictions"] == 1

    def test_oversized_result_is_not_cached(self, figure1):
        cache = MiningCache(max_bytes=16)
        cache.put("key", self._result(figure1))
        assert len(cache) == 0
        assert cache.get("key") is None

    def test_clear(self, figure1):
        cache = MiningCache(max_bytes=1 << 20)
        cache.put("key", self._result(figure1))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["bytes"] == 0

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            MiningCache(max_bytes=0)
