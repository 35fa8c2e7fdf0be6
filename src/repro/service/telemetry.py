"""Request counters and latency histograms for the serving layer.

A deliberately tiny, stdlib-only metrics registry: named monotonic
counters plus fixed-bucket latency histograms, all behind one lock so
the event loop, the request executor and the mining job threads can
record from anywhere.  The ``/metrics`` endpoint returns
:meth:`Telemetry.snapshot` as JSON — the e2e tests read cache hit/miss
counters from it, and an operator can scrape it with curl.
"""

from __future__ import annotations

import os
import resource
import sys
import threading
from bisect import bisect_left
from typing import Optional, Sequence

__all__ = [
    "Telemetry", "LatencyHistogram", "BATCH_SIZE_BUCKETS", "process_memory",
]

# Upper bucket edges in seconds; chosen to resolve both sub-millisecond
# cache hits and multi-second mining runs.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, float("inf")
)

# Power-of-two row-count edges for the ``classify_batch_size`` histogram
# — the observable proof that request coalescing actually batches (a
# front end that never batches puts every observation in the "1" bucket).
BATCH_SIZE_BUCKETS = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, float("inf")
)


def process_memory() -> dict:
    """This process's resident set size, current and peak, in bytes.

    ``rss_bytes`` reads ``/proc/self/statm`` and is left out where that
    file does not exist.  ``rss_peak_bytes`` is ``getrusage``'s
    high-water mark (kilobytes on Linux, bytes on macOS), raised to the
    current size: Linux updates the mark lazily, so it can trail a
    recent growth.  ``/metrics`` exports both as gauges, so a soak of
    distinct ``/mine`` payloads shows whether the server's memory stays
    flat.
    """
    gauges = {}
    try:
        with open("/proc/self/statm", encoding="ascii") as statm:
            resident_pages = int(statm.read().split()[1])
    except OSError:
        pass
    else:
        gauges["rss_bytes"] = resident_pages * os.sysconf("SC_PAGE_SIZE")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform != "darwin":
        peak *= 1024
    gauges["rss_peak_bytes"] = max(peak, gauges.get("rss_bytes", 0))
    return gauges


class LatencyHistogram:
    """Fixed-bucket histogram of observed durations (seconds)."""

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(buckets)
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError("bucket edges must be ascending")
        self.counts = [0] * len(self.buckets)
        self.total = 0.0
        self.count = 0
        self.max_seconds = 0.0

    def observe(self, seconds: float) -> None:
        # Called on every request: binary-search the ascending edges
        # instead of scanning them.  bisect_left finds the first edge
        # >= seconds, preserving the "seconds <= edge" bucket rule.
        index = bisect_left(self.buckets, seconds)
        if index < len(self.counts):
            self.counts[index] += 1
        self.total += seconds
        self.count += 1
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def as_dict(self) -> dict:
        edges = [
            "+inf" if edge == float("inf") else edge for edge in self.buckets
        ]
        return {
            "count": self.count,
            "sum_seconds": self.total,
            "mean_seconds": self.total / self.count if self.count else 0.0,
            "max_seconds": self.max_seconds,
            "buckets": {
                str(edge): count for edge, count in zip(edges, self.counts)
            },
        }


class Telemetry:
    """Thread-safe registry of counters, gauges and latency histograms.

    Counters are monotonic (``increment``); gauges are last-write-wins
    (``set_gauge``) and carry values sampled from elsewhere at snapshot
    time — the miner-pool and planner statistics of
    :func:`repro.parallel.pool_stats` are exported this way.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, LatencyHistogram] = {}

    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the named counter (created at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def observe(
        self,
        name: str,
        value: float,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        """Record one observation in the named histogram.

        ``buckets`` customizes the edges the *first* time a histogram is
        created (e.g. :data:`BATCH_SIZE_BUCKETS` for row counts instead
        of seconds); later observations reuse the existing histogram.
        """
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = LatencyHistogram(
                    buckets if buckets is not None else DEFAULT_BUCKETS
                )
            histogram.observe(value)

    def counter(self, name: str) -> int:
        """Current value of a counter (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def set_gauge(self, name: str, value: float) -> None:
        """Set the named gauge to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def set_gauges(self, values: dict) -> None:
        """Set several gauges atomically (one lock round-trip).

        Used at ``/metrics`` scrape time to import externally sampled
        counter families wholesale — e.g. the miner-pool, planner and
        crash-recovery statistics of :func:`repro.parallel.pool_stats`
        (``shard_retries``, ``pool_restarts_on_failure``,
        ``serial_degradations``...), so a scrape never sees half of one
        sampling.
        """
        with self._lock:
            self._gauges.update(values)

    def gauge(self, name: str) -> float:
        """Current value of a gauge (0 if never set)."""
        with self._lock:
            return self._gauges.get(name, 0)

    def snapshot(self, extra: Optional[dict] = None) -> dict:
        """JSON-safe view of every counter, gauge and histogram."""
        with self._lock:
            payload = {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "latency": {
                    name: histogram.as_dict()
                    for name, histogram in sorted(self._histograms.items())
                },
            }
        if extra:
            payload.update(extra)
        return payload
