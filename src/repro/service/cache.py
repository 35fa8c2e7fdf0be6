"""Content-addressed cache of rendered ``/mine`` results.

The paper's intended workflow is interactive: a biologist loads one
discretized dataset and re-mines it while sweeping ``minsup``/``k``.
Every such request is a pure function of ``(dataset contents, consequent,
minsup, k, engine)``, so the service keys a cache on a SHA-256
fingerprint of exactly those inputs and answers repeats in O(1).

The cache holds the JSON-safe payload the finishing job rendered
(:func:`~repro.service.server.topk_result_to_payload`), not the
``TopkResult``: a hit is answered with that payload as it is, so it
costs the request's decode, fingerprint and one lookup, and the job's
result, the cache entry and every hit response share one set of objects.
:func:`encode_json` turns such a payload into its JSON text for the
wire and the durable store, encoding each shared entry once.

The cache is an LRU bounded by an *estimated byte size* rather than an
entry count, because one result can range from a handful of rule groups
to tens of thousands; bounding bytes keeps the resident set predictable
regardless of workload shape.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
from array import array
from bisect import bisect_right
from collections import OrderedDict
from itertools import chain
from typing import Optional

from ..data.dataset import DiscretizedDataset

__all__ = ["dataset_fingerprint", "encode_json", "mining_key", "MiningCache"]


# Version tag of the fingerprint's canonical form.  A form change
# re-keys every result older stores hold; each is mined once more.
_FINGERPRINT_FORM = b"repro-dataset-v2\0"


def _section(digest, tag: bytes, data: bytes) -> None:
    """Feed one tagged, length-prefixed section to ``digest``."""
    digest.update(tag + len(data).to_bytes(8, "little"))
    digest.update(data)


def _packed(digest, code: str, values: list) -> None:
    """One column as ``array(code)`` bytes (native byte order).

    A column an ``array`` cannot hold (a non-numeric or out-of-range
    ``gene_index`` or bound, which mining never reads) is hashed as its
    JSON text under its own tag instead, so any dataset the service
    accepts has a fingerprint and the two forms never collide.
    """
    try:
        packed = array(code, values)
    except (TypeError, OverflowError):
        text = json.dumps(values, default=repr)
        _section(digest, b"J", text.encode("utf-8"))
        return
    _section(digest, code.encode("ascii"), packed.tobytes())


def dataset_fingerprint(dataset: DiscretizedDataset) -> str:
    """SHA-256 hex digest of a discretized dataset's full contents.

    Two datasets with identical rows, labels, item catalogs and class
    names fingerprint identically regardless of object identity, load
    path, or ``name`` (the display name does not affect mining output).

    The digest runs over a binary canonical form, every section tagged
    and length-prefixed: the row lengths and the concatenated sorted
    rows as ``array('q')``, the labels, the item ids and gene indices,
    the interval bounds as ``array('d')`` (so ``-0.0`` and ``±inf``
    keep their bits), and the gene and class names as one JSON list.
    """
    digest = hashlib.sha256(_FINGERPRINT_FORM)
    rows = [sorted(row) for row in dataset.rows]
    items = dataset.items
    _packed(digest, "q", [len(row) for row in rows])
    _packed(digest, "q", list(chain.from_iterable(rows)))
    _packed(digest, "q", dataset.labels)
    _packed(digest, "q", [item.item_id for item in items])
    _packed(digest, "q", [item.gene_index for item in items])
    _packed(digest, "d", [item.low for item in items])
    _packed(digest, "d", [item.high for item in items])
    names = [[item.gene_name for item in items], dataset.class_names]
    _section(digest, b"N", json.dumps(names).encode("utf-8"))
    return digest.hexdigest()


def mining_key(
    fingerprint: str,
    consequent: int,
    minsup: int,
    k: int,
    engine: str,
    strategy: str = "direct",
) -> str:
    """Cache key of one mining request over a fingerprinted dataset.

    ``strategy`` is appended only when it differs from ``direct`` so
    every key minted before strategies existed stays valid (durable
    stores survive upgrades).  Hybrid results are bit-identical to
    direct ones, but the stats differ, so the honest move is separate
    entries.
    """
    key = f"{fingerprint}:c{consequent}:s{minsup}:k{k}:{engine}"
    if strategy != "direct":
        key = f"{key}:{strategy}"
    return key


def encode_json(value, separators: tuple[str, str] = (", ", ": ")) -> str:
    """``json.dumps(value, separators=separators)``, shared dicts once.

    A ``/mine`` payload references one entry dict from every ``per_row``
    slot its rule group fills (:func:`~repro.service.server.
    topk_result_to_payload`).  ``json.dumps`` encodes each slot again;
    this encoder encodes each distinct dict that holds no dict once, by
    ``json.dumps`` itself, memoized by identity for the length of the
    call, and joins the texts.  Dicts and lists that hold dicts are
    walked here, in order and with the same separators, so the output
    is byte-identical to ``json.dumps`` (default ``ensure_ascii``).
    """
    item_sep, key_sep = separators
    leaf = json.JSONEncoder(separators=separators).encode
    memo: dict[int, str] = {}
    out: list[str] = []

    def emit(value) -> None:
        kind = type(value)
        if kind is dict:
            text = memo.get(id(value))
            if text is None:
                if _holds_dict(value.values()) and all(
                        type(key) is str for key in value):
                    out.append("{")
                    for index, (key, item) in enumerate(value.items()):
                        out.append((item_sep if index else "")
                                   + _quoted(key) + key_sep)
                        emit(item)
                    out.append("}")
                    return
                text = memo[id(value)] = leaf(value)
            out.append(text)
        elif (kind is list or kind is tuple) and _holds_dict(value):
            out.append("[")
            for index, item in enumerate(value):
                if index:
                    out.append(item_sep)
                emit(item)
            out.append("]")
        else:
            out.append(leaf(value))

    emit(value)
    return "".join(out)


_quoted = json.encoder.encode_basestring_ascii


def _holds_dict(values) -> bool:
    """True if a ``dict`` sits anywhere in ``values`` (lists descended)."""
    for item in values:
        kind = type(item)
        if kind is dict or ((kind is list or kind is tuple)
                            and _holds_dict(item)):
            return True
    return False


# CPython shares one object for each int up to 256, so a list slot
# holding one costs only its pointer; a larger int is an object of its
# own (28 bytes below 2**30, which covers every row and item id).
_SHARED_INT_MAX = 256
_INT_BYTES = sys.getsizeof(2**29)


def _sorted_ints_bytes(values: list[int]) -> int:
    """Resident size of an ascending list of non-negative ints."""
    owned = len(values) - bisect_right(values, _SHARED_INT_MAX)
    return sys.getsizeof(values) + _INT_BYTES * owned


def _object_bytes(value) -> int:
    """Deep size of the payload's stats: scalars and nested dicts."""
    total = sys.getsizeof(value)
    if isinstance(value, dict):
        total += sum(_object_bytes(k) + _object_bytes(v)
                     for k, v in value.items())
    return total


def _estimate_payload_bytes(payload: dict) -> int:
    """Resident size of a cached ``/mine`` payload.

    The payload is the shape :func:`~repro.service.server.
    topk_result_to_payload` builds: each distinct rule group is one entry
    dict that every ``per_row`` slot it fills references.  Each entry is
    charged once, with its sorted ``antecedent`` and ``rows`` lists and
    the int objects they own; each slot is charged its list pointer.
    Small shared objects (interned keys, cached small ints, booleans) are
    not charged, since the cache does not hold them alone.
    """
    per_row = payload["per_row"]
    total = (sys.getsizeof(payload) + _object_bytes(payload["stats"])
             + sys.getsizeof(per_row))
    seen: set[int] = set()
    for row, entries in per_row.items():
        total += sys.getsizeof(row) + sys.getsizeof(entries)
        for entry in entries:
            if id(entry) in seen:
                continue
            seen.add(id(entry))
            total += (sys.getsizeof(entry)
                      + sys.getsizeof(entry["confidence"])
                      + _sorted_ints_bytes(entry["antecedent"])
                      + _sorted_ints_bytes(entry["rows"]))
    return total


class MiningCache:
    """Byte-bounded LRU cache of rendered mining results.

    Values are ``/mine`` payloads as
    :func:`~repro.service.server.topk_result_to_payload` builds them;
    they are shared with their callers and must not be mutated.

    Args:
        max_bytes: bound on the summed size estimates of cached payloads.
            Oldest (least recently used) entries are evicted to fit; a
            single payload larger than the bound is simply not cached.
    """

    def __init__(self, max_bytes: int = 64 * 1024 * 1024) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, tuple[dict, int]]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> Optional[dict]:
        """Cached payload for ``key``, refreshing its recency; else None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: str, payload: dict) -> None:
        """Insert (or refresh) the payload of a finished mine.

        A payload larger than the whole cache bound is simply not cached
        — and leaves any previously cached entry for the key in place,
        rather than dropping a good entry on the way to bailing out.
        """
        size = _estimate_payload_bytes(payload)
        with self._lock:
            if size > self.max_bytes:
                return
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            while self._bytes + size > self.max_bytes and self._entries:
                _, (_, evicted_size) = self._entries.popitem(last=False)
                self._bytes -= evicted_size
                self.evictions += 1
            self._entries[key] = (payload, size)
            self._bytes += size

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """JSON-safe counters for ``/metrics``."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
