"""Tests for the content-addressed mining cache."""

import pytest

from repro.core.topk_miner import mine_topk
from repro.data import make_figure1_example
from repro.data.dataset import DiscretizedDataset, Item
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


def _small(rows=([1, 2], [3]), labels=(0, 1), names=("g0", "g1", "g2", "g3"),
           lows=None, highs=None, class_names=("neg", "pos"),
           gene_indices=None):
    """A four-item dataset with every fingerprinted field adjustable."""
    n = len(names)
    lows = lows or [float("-inf")] * n
    highs = highs or [1.0 + index for index in range(n)]
    gene_indices = gene_indices or list(range(n))
    items = [Item(index, gene_indices[index], names[index], lows[index],
                  highs[index]) for index in range(n)]
    return DiscretizedDataset(list(rows), list(labels), items,
                              class_names=list(class_names))


class TestBinaryFingerprint:
    """The binary canonical form tells apart every content change,
    including ones that only move a boundary between fields."""

    def test_equal_content_equal_fingerprint(self):
        clone = _small()
        clone.name = "renamed"
        assert dataset_fingerprint(clone) == dataset_fingerprint(_small())
        # Row order within a row is not content: rows are sets.
        shuffled = _small(rows=([2, 1], [3]))
        assert dataset_fingerprint(shuffled) == dataset_fingerprint(_small())

    @pytest.mark.parametrize("changed", [
        {"rows": ([1, 2], [0])},
        {"rows": ([1], [2, 3])},
        {"rows": ([1, 2, 3], [])},
        {"labels": (1, 1)},
        {"lows": [0.0, float("-inf"), float("-inf"), float("-inf")]},
        {"highs": [float("inf"), 2.0, 3.0, 4.0]},
        {"highs": [-0.0, 2.0, 3.0, 4.0]},
        {"names": ("g0", "g1", "g2", "g4")},
        {"class_names": ("neg", "Pos")},
        {"class_names": ("neg", "pos", "other")},
        {"gene_indices": [0, 1, 3, 2]},
    ], ids=["item", "row-boundary", "empty-row", "label", "low-inf",
            "high-inf", "negative-zero", "gene-name", "class-name",
            "class-count", "gene-index"])
    def test_any_change_changes_fingerprint(self, changed):
        assert dataset_fingerprint(_small(**changed)) != dataset_fingerprint(
            _small())

    def test_negative_zero_differs_from_zero(self):
        zero = _small(lows=[0.0] * 4)
        negative = _small(lows=[-0.0] * 4)
        assert dataset_fingerprint(zero) != dataset_fingerprint(negative)

    @pytest.mark.parametrize("pair", [
        (("a,b", "c", "d", "e"), ("a", "b,c", "d", "e")),
        (('a"', "b", "c", "d"), ("a", '"b', "c", "d")),
        (('a","b', "c", "d", "e"), ("a", "b", "c,d", "e")),
        (("a\0b", "c", "d", "e"), ("a", "b\0c", "d", "e")),
        (("a", "", "b", "c"), ("a", "b", "", "c")),
    ], ids=["comma", "quote", "quoted-comma", "nul", "empty"])
    def test_name_boundaries_are_unambiguous(self, pair):
        first, second = pair
        assert dataset_fingerprint(_small(names=first)) != (
            dataset_fingerprint(_small(names=second)))

    def test_class_name_boundaries_are_unambiguous(self):
        first = _small(class_names=("a,b", "c"))
        second = _small(class_names=("a", "b,c"))
        assert dataset_fingerprint(first) != dataset_fingerprint(second)

    def test_fields_mining_never_reads_still_fingerprint(self):
        # A payload can carry a non-numeric gene index or bound, which
        # no array holds; it is hashed as text, apart from numbers.
        odd = _small(gene_indices=["7", 1, 2, 3])
        plain = _small(gene_indices=[7, 1, 2, 3])
        assert dataset_fingerprint(odd) != dataset_fingerprint(plain)
        huge = _small(highs=[2 ** 2000, 2.0, 3.0, 4.0])
        assert dataset_fingerprint(huge) != dataset_fingerprint(_small())


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
