"""Service benchmark: drive the HTTP front end, gate regressions.

``repro loadtest`` is to the serving layer what ``repro bench`` is to the
miners: a reproducible harness that starts the asyncio front end on an
ephemeral port, drives it with real HTTP traffic, and writes
``BENCH_service.json`` so every serving change lands with
throughput/latency evidence.  ``--compare`` runs the core harness's
:class:`~repro.bench.Gate` over the scenarios: it fails on throughput
regressions with the same generosity rules as the core gate (2x factor
*and* an absolute floor, because CI containers are noisy), on request
errors, and on a run the baseline has no entry for.  The report shares
the core harness's envelope (:class:`~repro.bench.Report`) under its own
``schema`` number.

Three scenarios, all against one registered RCBT model:

* **sequential** — one keep-alive connection, requests back-to-back: the
  per-request latency floor (closed loop, concurrency 1);
* **concurrent** — N client threads, each with its own keep-alive
  connection, closed loop: throughput under parallel load;
* **pipelined** — N raw-socket connections, each writing bursts of D
  requests before reading any response (open loop within a burst): the
  coalescing showcase.  The front end dispatches a whole burst into one
  micro-batch window and answers it with one ``predict_batch``.

Every scenario records RPS, p50/p99 latency, error and shed (HTTP 503)
counts; the classify batch-size histogram is scraped from ``/metrics``
afterwards — the observable proof that the front end coalesced
(pipelined traffic lands in the burst-sized buckets).
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..bench import Gate, Report, probe_host

__all__ = [
    "Scenario",
    "LoadReport",
    "run_loadtest",
    "compare_reports",
]

SCHEMA_VERSION = 2

# A throughput drop must exceed BOTH bounds to fail the gate: more than
# 2x below baseline AND more than an absolute floor of requests/second.
# Mirrors repro.bench's regression philosophy — catch architectural
# regressions, shrug off scheduler jitter on busy CI runners.
REGRESSION_FACTOR = 2.0
REGRESSION_MIN_DELTA_RPS = 25.0

_REBASELINE_COMMAND = (
    "PYTHONPATH=src python -m repro.cli loadtest --quick "
    "--output BENCH_service.json"
)

# Keys that must match for a baseline entry to be comparable.
_COMPARE_KEYS = ("scenario", "connections", "depth",
                 "requests_target", "rows_per_request")


@dataclass(frozen=True)
class Scenario:
    """One traffic shape to drive against a server."""

    name: str            # sequential | concurrent | pipelined
    connections: int     # client connections (= threads)
    requests: int        # requests per connection
    depth: int = 1       # pipelined requests in flight per connection


# Request counts are sized so a full run stays in tens of seconds and a
# quick run in single-digit seconds, while still pushing
# thousands of requests through the hot scenarios.
DEFAULT_SCENARIOS = (
    Scenario("sequential", connections=1, requests=300),
    Scenario("concurrent", connections=8, requests=150),
    Scenario("pipelined", connections=6, requests=240, depth=16),
)

QUICK_SCENARIOS = (
    Scenario("sequential", connections=1, requests=80),
    Scenario("concurrent", connections=4, requests=50),
    Scenario("pipelined", connections=4, requests=96, depth=8),
)

ROWS_PER_REQUEST = 2


# -- workload construction ---------------------------------------------------


def _build_model_and_rows(seed: int = 7) -> tuple[dict, list[list[int]]]:
    """A small trained RCBT payload plus classify rows for the drivers."""
    from ..classifiers import RCBTClassifier
    from ..classifiers.persistence import classifier_to_payload
    from ..data import random_discretized_dataset

    dataset = random_discretized_dataset(n_rows=40, n_items=16, seed=seed)
    model = RCBTClassifier(k=2, nl=4).fit(dataset)
    rows = [sorted(row) for row in dataset.rows]
    return classifier_to_payload(model), rows


def _start_server(model_payload: dict):
    """Start a fresh front end on an ephemeral port with one model."""
    from .aio import AsyncReproServer

    server = AsyncReproServer(port=0, batch_delay=0.002).start()
    server.service.register_model({"name": "bench", "model": model_payload})
    return server


# -- traffic drivers ---------------------------------------------------------


@dataclass
class _WorkerResult:
    latencies: list = field(default_factory=list)  # seconds, one per request
    errors: int = 0
    shed: int = 0


def _closed_loop_worker(
    host: str, port: int, body: bytes, n_requests: int, out: _WorkerResult
) -> None:
    """One keep-alive connection issuing requests back-to-back."""
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        for _ in range(n_requests):
            start = time.perf_counter()
            try:
                connection.request(
                    "POST", "/classify", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                response.read()
                status = response.status
            except (http.client.HTTPException, OSError):
                out.errors += 1
                connection.close()
                connection = http.client.HTTPConnection(
                    host, port, timeout=30
                )
                continue
            out.latencies.append(time.perf_counter() - start)
            if status == 503:
                out.shed += 1
            elif status != 200:
                out.errors += 1
    finally:
        connection.close()


def _read_response(stream) -> Optional[int]:
    """Parse one HTTP response off a socket file; return its status."""
    status_line = stream.readline()
    if not status_line:
        return None
    try:
        status = int(status_line.split(b" ", 2)[1])
    except (IndexError, ValueError):
        return None
    length = 0
    while True:
        line = stream.readline()
        if not line or line in (b"\r\n", b"\n"):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    if length:
        remaining = length
        while remaining > 0:
            chunk = stream.read(remaining)
            if not chunk:
                return None
            remaining -= len(chunk)
    return status


def _pipelined_worker(
    host: str,
    port: int,
    request_bytes: bytes,
    n_requests: int,
    depth: int,
    out: _WorkerResult,
) -> None:
    """One raw socket writing bursts of ``depth`` requests before reading.

    All ``depth`` requests of a burst hit the server's read buffer at
    once; per-response latency is measured from the burst write, so a
    server that answers the burst with one coalesced batch beats one
    that grinds through it sequentially — on both RPS and p99.
    """
    sock = socket.create_connection((host, port), timeout=30)
    stream = sock.makefile("rb")
    try:
        sent = 0
        while sent < n_requests:
            burst = min(depth, n_requests - sent)
            start = time.perf_counter()
            sock.sendall(request_bytes * burst)
            for _ in range(burst):
                status = _read_response(stream)
                if status is None:
                    out.errors += burst
                    return
                out.latencies.append(time.perf_counter() - start)
                if status == 503:
                    out.shed += 1
                elif status != 200:
                    out.errors += 1
            sent += burst
    except OSError:
        out.errors += 1
    finally:
        stream.close()
        sock.close()


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def _drive(server, scenario: Scenario, rows: list) -> dict:
    """Run one scenario against a started server; return its entry."""
    body = json.dumps(
        {"model": "bench", "rows": rows[:ROWS_PER_REQUEST]}
    ).encode("utf-8")
    host, port = server.host, server.port
    if scenario.depth > 1:
        request_bytes = (
            f"POST /classify HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1") + body
        make_worker = lambda result: threading.Thread(
            target=_pipelined_worker,
            args=(host, port, request_bytes, scenario.requests,
                  scenario.depth, result),
        )
    else:
        make_worker = lambda result: threading.Thread(
            target=_closed_loop_worker,
            args=(host, port, body, scenario.requests, result),
        )
    results = [_WorkerResult() for _ in range(scenario.connections)]
    threads = [make_worker(result) for result in results]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    latencies = sorted(
        value for result in results for value in result.latencies
    )
    completed = len(latencies)
    return {
        "scenario": scenario.name,
        "connections": scenario.connections,
        "depth": scenario.depth,
        "requests_target": scenario.connections * scenario.requests,
        "rows_per_request": ROWS_PER_REQUEST,
        "requests": completed,
        "errors": sum(result.errors for result in results),
        "shed": sum(result.shed for result in results),
        "seconds": elapsed,
        "rps": completed / elapsed if elapsed > 0 else 0.0,
        "p50_ms": _percentile(latencies, 0.50) * 1000.0,
        "p99_ms": _percentile(latencies, 0.99) * 1000.0,
        "mean_ms": (
            sum(latencies) / completed * 1000.0 if completed else 0.0
        ),
        "max_ms": latencies[-1] * 1000.0 if latencies else 0.0,
    }


def _batch_histogram(server) -> Optional[dict]:
    """The classify_batch_size histogram from the service's telemetry."""
    snapshot = server.service.telemetry.snapshot()
    histogram = snapshot.get("latency", {}).get("classify_batch_size")
    if histogram is None:
        return None
    return {
        "count": histogram["count"],
        "mean_rows": histogram["mean_seconds"],  # generic mean field
        "max_rows": histogram["max_seconds"],
        "buckets": histogram["buckets"],
    }


# -- report ------------------------------------------------------------------


class LoadReport(Report):
    """Everything ``repro loadtest`` measured, JSON-ready."""

    schema = SCHEMA_VERSION

    def summary_lines(self) -> list[str]:
        lines = [
            f"repro loadtest — {len(self.benchmarks)} runs, "
            f"cpu_count={self.host['cpu_count']}"
        ]
        for entry in self.benchmarks:
            problems = ""
            if entry["errors"]:
                problems += f" errors={entry['errors']}"
            if entry["shed"]:
                problems += f" shed={entry['shed']}"
            lines.append(
                f"  {entry['scenario']}: {entry['rps']:.0f} rps "
                f"(p50 {entry['p50_ms']:.1f}ms, "
                f"p99 {entry['p99_ms']:.1f}ms{problems})"
            )
        return lines


def run_loadtest(
    quick: bool = False,
    scenarios: Optional[Sequence[Scenario]] = None,
    progress=None,
) -> LoadReport:
    """Drive every scenario against the front end.

    Each scenario gets a fresh server (clean telemetry, so per-scenario
    batch histograms aren't cross-contaminated).  The same model payload
    and rows feed every run.
    """
    if scenarios is None:
        scenarios = QUICK_SCENARIOS if quick else DEFAULT_SCENARIOS
    model_payload, rows = _build_model_and_rows()
    report = LoadReport(
        host=probe_host(),
        config={
            "quick": quick,
            "scenarios": [scenario.name for scenario in scenarios],
            "rows_per_request": ROWS_PER_REQUEST,
        },
    )
    for scenario in scenarios:
        if progress is not None:
            progress(f"{scenario.name}...")
        server = _start_server(model_payload)
        try:
            entry = _drive(server, scenario, rows)
            histogram = _batch_histogram(server)
            if histogram is not None:
                entry["batch_histogram"] = histogram
        finally:
            server.stop()
        report.benchmarks.append(entry)
    return report


def _rps_verdict(
    name: str, entry: dict, base: dict
) -> tuple[list[str], bool]:
    """Fail RPS more than :data:`REGRESSION_FACTOR` below baseline *and*
    :data:`REGRESSION_MIN_DELTA_RPS` lower, or any request errors."""
    base_rps = base["rps"]
    rps = entry["rps"]
    ratio = rps / base_rps if base_rps > 0 else float("inf")
    regressed = (
        base_rps > 0
        and rps * REGRESSION_FACTOR < base_rps
        and base_rps - rps > REGRESSION_MIN_DELTA_RPS
    )
    errored = entry.get("errors", 0) > 0
    status = (
        "ERRORS" if errored
        else "REGRESSION" if regressed
        else "faster" if ratio >= 1.0 else "slower"
    )
    line = (
        f"  {name}: {base_rps:.0f} -> {rps:.0f} rps "
        f"(x{ratio:.2f}, {status})"
    )
    return [line], not (regressed or errored)


# ``repro loadtest --compare``: runs match by scenario and are compared
# only when their traffic shape (:data:`_COMPARE_KEYS`) is identical; a
# current run with no baseline entry fails, since a re-keyed report
# would otherwise pass while comparing nothing.
compare_reports = Gate(
    key="scenario",
    compare_keys=_COMPARE_KEYS,
    verdict=_rps_verdict,
    threshold=(
        f"rps < baseline/{REGRESSION_FACTOR:g} and delta > "
        f"{REGRESSION_MIN_DELTA_RPS:g} rps, any errors, or a current run "
        "with no baseline"
    ),
    rebaseline=_REBASELINE_COMMAND,
    changed="traffic shape",
    measure="RPS",
).compare
