"""The ``serve-mixed`` workload: ``repro serve`` under mixed traffic.

The server runs in its own process (asyncio front end, durable job
store in the run's scratch directory, one RCBT model trained on the PC
cohort).  The load generator is this process, on one thread: an
asyncio loop over at most ``nproc`` keep-alive connections that sends
on a fixed schedule whether or not earlier requests have finished (an
open loop), and times every request from the moment it was due.
The keep-alive connections carry ``/classify`` only; ``/mine`` posts
and job polls open a connection per request, so a classify request
never waits behind the generator's own mine traffic.

* ``/classify``: one held-out PC sample per request, as raw expression
  ``values``, at ``CLASSIFY_RPS``.
* ``/mine``: every ``ROUND_PERIOD_S`` a round submits
  ``ROUND_NEW_MINES`` new paper-shaped dataset (a cache miss that mines
  and writes the store); every ``REPEAT_EVERY``-th round also repeats
  the previous round's request (a cache hit).  Each new dataset is
  decoded by the server as a new object.

A round's time is from its due time until its job has finished, so a
slower kernel, or mines and classify competing for the interpreter
lock, both lengthen it.  Many small rounds, rather than a few rounds
of several mines, give a 25 s run fifty independent stalls to measure
instead of twelve, and keep two mines from running at once.

The server is pinned to one CPU and samples that CPU's speed
(``perfbench/server_main.py``); each round's time is scaled to
reference host speed by the samples taken during the round (see
:mod:`hostspeed`).  The generator runs on another CPU.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import select
import signal
import subprocess
import sys
import time

import numpy as np

from repro.audit.invariants import InvariantViolation, check_topk_result
from repro.classifiers.persistence import classifier_to_payload
from repro.classifiers.rcbt import RCBTClassifier
from repro.core.topk_miner import mine_topk, relative_minsup
from repro.data.loaders import discretized_from_payload, discretized_to_payload
from repro.service.server import topk_result_to_payload

from batch import _calls, _paper_cohort
from common import (
    halves_ratio,
    interquartile_mean,
    layer_metrics,
    median,
    percentile,
    permuted,
    run_isolated,
)
from hostspeed import SpeedSampler, pin_to, speed_factor
from spans import Tracer, install_layers

__all__ = ["run_serve_workload"]

MODEL = "pc"
# Offered load, from ``perfbench/capacity.py`` on a 2-core host: the
# server, pinned to one CPU, answers 84-91 classify requests/s on one
# connection with no mines running, and one cold mine of a payload below
# takes 0.03-0.05 s in-process.  Classify is offered at 44-46% of that
# capacity and the mines
# at about 9% of one core in-process (about 0.1 s each in the server
# beside the classify load): the server keeps up, yet every mine holding
# the interpreter lock shows in the classify tail.  Heavier mine traffic
# made the classify queue grow; see perfbench/README.md.
CLASSIFY_RPS = 40.0
ROUND_PERIOD_S = 0.5
ROUND_NEW_MINES = 1
# Every third round also repeats the previous round's request.
REPEAT_EVERY = 3
MINE_K = 20
MINE_MINSUP = 0.7
# A generator whose p99 lateness exceeds one classify send period has
# not kept its schedule; the run says so.
LAG_FLAG_MS = 1000.0 / CLASSIFY_RPS
# No metric depends on when a poll sees a job finish (job times come
# from the job's own timestamps), so polls are rare.
POLL_S = 0.25
REQUEST_TIMEOUT_S = 30.0
DRAIN_TIMEOUT_S = 90.0
READY_TIMEOUT_S = 60.0


# -- set-up ---------------------------------------------------------------


def _inputs(seed: int, calls, n_payloads: int) -> dict:
    """Cohorts, the trained model, and every request body, pre-encoded."""
    rng = np.random.default_rng(seed)
    pc = _paper_cohort("PC", 0.25, rng, calls)
    source = _paper_cohort("ALL", 0.5, rng, calls).train
    model = RCBTClassifier(k=10, nl=20).fit(pc.train)
    datasets = [permuted(source, rng.permutation(source.n_rows))
                for _ in range(n_payloads)]
    return {
        "register": json.dumps({
            "name": MODEL,
            "model": classifier_to_payload(model),
            "pipeline": {
                "cuts": {str(g): c for g, c in pc.discretizer.cuts_.items()},
                "gene_names": pc.train_raw.gene_names,
                "class_names": pc.train_raw.class_names,
            },
        }).encode(),
        "classify": [
            json.dumps({"model": MODEL, "values": [row.tolist()]}).encode()
            for row in pc.test_raw.values
        ],
        "expected": [label for label, _ in model.predict_batch(pc.test.rows)],
        "mine": [
            json.dumps({
                "items": discretized_to_payload(dataset), "consequent": 1,
                "k": MINE_K, "minsup_fraction": MINE_MINSUP,
            }).encode()
            for dataset in datasets
        ],
    }


class Server:
    """One ``repro serve`` process; ``stop`` drains it and waits."""

    def __init__(self, root, scratch: str, index: int, trace_out=None):
        store = os.path.join(scratch, f"jobs-{index}.db")
        options = ["serve", "--port", "0", "--store", store, "--workers", "2"]
        self.speed_path = os.path.join(scratch, f"server-{index}.speed.json")
        argv = [sys.executable, str(root / "perfbench" / "server_main.py"),
                self.speed_path, trace_out or "-", *options]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.stderr_path = os.path.join(scratch, f"server-{index}.err")
        self._stderr = open(self.stderr_path, "wb")
        self.process = subprocess.Popen(
            argv, cwd=scratch, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        try:
            self.port = self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        seen = b""
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if not ready:
                continue
            chunk = os.read(stdout.fileno(), 4096)
            if not chunk:
                break
            seen += chunk
            match = re.search(rb"serving on http://[^:]+:(\d+)", seen)
            if match:
                return int(match.group(1))
        raise RuntimeError(f"server did not start: {self.stderr_tail()}")

    def stderr_tail(self) -> str:
        with open(self.stderr_path, "rb") as handle:
            return handle.read()[-2000:].decode(errors="replace")

    def memory_mb(self, field: str) -> float:
        """``VmRSS``/``VmHWM`` of the server process, in MiB."""
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._stderr.close()

    def speed_samples(self) -> list:
        """The server's host-speed samples; call after ``stop``."""
        with open(self.speed_path, encoding="utf-8") as handle:
            return json.load(handle)


# -- load generator -------------------------------------------------------


class _Connection:
    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    async def request(self, method: str, path: str, body: bytes):
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    def close(self) -> None:
        self.writer.close()


class _Pool:
    """At most ``size`` connections, opened on first use.

    With ``keep_alive`` false each connection is closed after its one
    request, as a client that comes and goes would do.
    """

    def __init__(self, port: int, size: int, keep_alive: bool = True):
        self.port = port
        self.keep_alive = keep_alive
        self.idle: asyncio.Queue = asyncio.Queue()
        for _ in range(size):
            self.idle.put_nowait(None)

    async def call(self, method: str, path: str, body: bytes = b""):
        """``(status, body, sent)``; ``sent`` is when the write began."""
        connection = await self.idle.get()
        try:
            if connection is None:
                connection = _Connection(*await asyncio.open_connection(
                    "127.0.0.1", self.port))
            sent = time.monotonic()
            status, data = await asyncio.wait_for(
                connection.request(method, path, body), REQUEST_TIMEOUT_S)
        except (OSError, ValueError, IndexError, asyncio.TimeoutError,
                asyncio.IncompleteReadError):
            if connection is not None:
                connection.close()
            connection = None
            raise
        finally:
            if connection is not None and not self.keep_alive:
                connection.close()
                connection = None
            self.idle.put_nowait(connection)
        return status, data, sent

    async def close(self) -> None:
        while not self.idle.empty():
            connection = self.idle.get_nowait()
            if connection is not None:
                connection.close()
                await connection.writer.wait_closed()


def _head(data: bytes) -> dict:
    """The fields of a JSON object answer that precede its ``result``.

    Parsing a mine result takes tens of milliseconds, which would make
    the one-thread generator late for its next sends; status and job
    timestamps come before the result, which is parsed after the load.
    """
    cut = data.find(b'"result"')
    if cut < 0:
        return json.loads(data)
    return json.loads(data[:cut].rstrip().rstrip(b",") + b"}")


async def _load(port: int, inputs: dict, seconds: float) -> dict:
    # Classify holds the generator's ``nproc`` keep-alive connections.
    # Mine posts and job polls, a few a second, go one at a time over a
    # connection opened per request, so a classify request never waits
    # behind the generator's own mine traffic.
    classify_pool = _Pool(port, os.cpu_count() or 1)
    mine_pool = _Pool(port, 1, keep_alive=False)
    start = time.monotonic()
    start_wall = time.time()
    classify = []   # (due offset, latency s, generator lag s, ok)
    mines = []      # one dict per /mine request
    errors = []

    async def one_classify(index: int) -> None:
        due = start + index / CLASSIFY_RPS
        await asyncio.sleep(max(0.0, due - time.monotonic()))
        # How late the generator itself is; waiting for a free connection
        # (behind a slow answer) is the server's and counts in latency.
        lag = time.monotonic() - due
        row = index % len(inputs["classify"])
        try:
            status, data, _ = await classify_pool.call(
                "POST", "/classify", inputs["classify"][row])
        except Exception as error:  # counted as a failed request
            errors.append(f"classify: {error!r}")
            classify.append((due - start, None, None, False))
            return
        done = time.monotonic()
        ok = (status == 200 and json.loads(data)["predictions"]
              == [inputs["expected"][row]])
        if not ok:
            errors.append(f"classify row {row}: status {status} {data[:200]!r}")
        classify.append((due - start, done - due, lag, ok))

    async def one_mine(round_index: int, payload: int, repeat: bool) -> None:
        record = {"round": round_index, "payload": payload, "repeat": repeat,
                  "ok": False, "cached": False, "job": None, "result": None}
        mines.append(record)
        try:
            status, data, sent = await mine_pool.call(
                "POST", "/mine", inputs["mine"][payload])
            record["sent_wall"] = start_wall + (sent - start)
            if not 200 <= status < 300:
                raise RuntimeError(f"status {status}: {data[:200]!r}")
            response = _head(data)
            if response.get("cached"):
                record["cached"] = True
                record["raw"] = data
            else:
                path = f"/jobs/{response['job_id']}"
                while True:
                    await asyncio.sleep(POLL_S)
                    status, data, _ = await mine_pool.call("GET", path)
                    job = _head(data)
                    if status != 200 or job["status"] not in (
                            "queued", "running"):
                        break
                record["job"] = job
                record["raw"] = data
                if status != 200 or job["status"] != "done":
                    raise RuntimeError(f"job {job.get('status')}: "
                                       f"{job.get('error')}")
            record["ok"] = True
        except Exception as error:  # counted as a failed request
            errors.append(f"mine payload {payload}: {error!r}")

    async def mine_round(round_index: int) -> None:
        due = start + round_index * ROUND_PERIOD_S
        await asyncio.sleep(max(0.0, due - time.monotonic()))
        first = ROUND_NEW_MINES * round_index
        requests = [one_mine(round_index, first + offset, False)
                    for offset in range(ROUND_NEW_MINES)]
        if round_index and round_index % REPEAT_EVERY == 0:
            requests.append(
                one_mine(round_index, first - ROUND_NEW_MINES, True))
        await asyncio.gather(*requests)

    n_rounds = max(1, int(seconds / ROUND_PERIOD_S))
    tasks = [one_classify(i) for i in range(int(seconds * CLASSIFY_RPS))]
    tasks += [mine_round(r) for r in range(n_rounds)]
    try:
        await asyncio.wait_for(asyncio.gather(*tasks),
                               seconds + DRAIN_TIMEOUT_S)
    finally:
        await classify_pool.close()
    for record in mines:
        if "raw" in record:
            record["result"] = json.loads(record.pop("raw")).get("result")
    return {"start_wall": start_wall, "classify": classify, "mines": mines,
            "errors": errors, "rounds": n_rounds}


def _request(port: int, method: str, path: str, body: bytes = b""):
    """One request on its own connection; the decoded JSON answer."""
    async def send():
        pool = _Pool(port, 1)
        try:
            return await pool.call(method, path, body)
        finally:
            await pool.close()

    status, data, _ = asyncio.run(send())
    if not 200 <= status < 300:
        raise RuntimeError(f"{method} {path}: status {status} {data[:200]!r}")
    return json.loads(data)


# -- checking and reporting -----------------------------------------------


def _expected_mines(payloads: list, indices: list) -> dict:
    """Child body: in-process mine of every mined payload, checked."""
    expected = {}
    for index in indices:
        body = json.loads(payloads[index])
        dataset = discretized_from_payload(body["items"])
        minsup = relative_minsup(dataset, 1, MINE_MINSUP)
        result = mine_topk(dataset, 1, minsup, k=MINE_K)
        try:
            check_topk_result(discretized_from_payload(body["items"]), result)
            problem = None
        except InvariantViolation as error:
            problem = str(error)
        rendered = json.loads(json.dumps(topk_result_to_payload(result)))
        expected[index] = (rendered["per_row"], result.stats.completed, problem)
    return expected


def _histogram_delta(before: dict, after: dict, name: str) -> tuple:
    old = before["latency"].get(name, {"count": 0, "sum_seconds": 0.0})
    new = after["latency"].get(name, {"count": 0, "sum_seconds": 0.0})
    return new["count"] - old["count"], new["sum_seconds"] - old["sum_seconds"]


def _phase(root, scratch: str, index: int, inputs: dict, seconds: float,
           trace_out=None) -> dict:
    """Start a server, register the model, run the load, stop it."""
    server = Server(root, scratch, index, trace_out)
    try:
        _request(server.port, "POST", "/models", inputs["register"])
        before = _request(server.port, "GET", "/metrics")
        rss_before = server.memory_mb("VmRSS")
        load = asyncio.run(_load(server.port, inputs, seconds))
        after = _request(server.port, "GET", "/metrics")
        load["rss_growth_mb"] = server.memory_mb("VmRSS") - rss_before
        load["peak_rss_mb"] = server.memory_mb("VmHWM")
    finally:
        server.stop()
    load["metrics_before"], load["metrics_after"] = before, after
    load["speed"] = server.speed_samples()
    return load


def _summarize(load: dict) -> dict:
    """Latencies, round times and job timings of one load phase."""
    done = [entry for entry in load["classify"] if entry[1] is not None]
    misses = [m for m in load["mines"]
              if not m["repeat"] and m["ok"] and m["job"] is not None]
    round_times = {}
    for mine in misses:
        finished = mine["job"]["finished_at"]
        due_wall = load["start_wall"] + mine["round"] * ROUND_PERIOD_S
        if finished - due_wall > round_times.get(mine["round"], (0.0,))[0]:
            round_times[mine["round"]] = (finished - due_wall, due_wall,
                                          finished)
    rounds = [round_times[r] for r in sorted(round_times)]
    return {
        "latencies_ms": [entry[1] * 1000.0 for entry in done],
        "lags_ms": [entry[2] * 1000.0 for entry in done],
        "classify_by_due": [entry[1] for entry in sorted(done)],
        "round_raw_s": [seconds for seconds, _, _ in rounds],
        # Each round at reference speed, by the server CPU's speed
        # samples taken during the round.
        "round_s": [seconds * speed_factor(load["speed"], due, finished)
                    for seconds, due, finished in rounds],
        "job_s": [m["job"]["finished_at"] - m["sent_wall"] for m in misses],
        "queue_wait_s": [m["job"]["started_at"] - m["job"]["submitted_at"]
                         for m in misses],
        "run_s": [m["job"]["finished_at"] - m["job"]["started_at"]
                  for m in misses],
        "misses": misses,
    }


def run_serve_workload(seed: int, seconds: float, traced: bool, scratch: str,
                       root):
    n_payloads = ROUND_NEW_MINES * max(1, int(seconds / ROUND_PERIOD_S))
    notes = []
    setup_times = []
    setup_raw = []
    setup_trace = None
    phases = []
    # The server pins itself to the first CPU; the generator takes the
    # last, so it never competes with the server for a CPU.
    pin_to("last")
    # Set-up (cohorts, model, request bodies, server start, model
    # registration) is measured three times; each set-up's server but
    # the last is stopped unused.  The traced run sets up once.
    # Untraced set-up times are at reference speed, by this process's
    # CPU.
    repeats = 1 if traced else 3
    for attempt in range(repeats):
        tracer = sampler = None
        if traced:
            tracer = Tracer()
            install_layers(tracer)
        else:
            sampler = SpeedSampler().start()
        start = time.perf_counter()
        inputs = _inputs(seed, _calls(tracer), n_payloads)
        if tracer is not None:
            tracer.restore()
            setup_trace = tracer.snapshot()
        server = Server(root, scratch, attempt)
        try:
            _request(server.port, "POST", "/models", inputs["register"])
            elapsed = time.perf_counter() - start
        finally:
            server.stop()
        if sampler is None:
            setup_times.append(elapsed)
            setup_raw.append(elapsed)
        else:
            sampler.stop()
            setup_times.append(sampler.scaled(elapsed))
            setup_raw.append(elapsed - sampler.spent)

    if traced:
        # Untraced then traced server on the same inputs: the difference
        # of their round times is the tracing overhead.
        plain = _phase(root, scratch, 10, inputs, seconds / 2)
        trace_path = os.path.join(scratch, "server-trace.json")
        phases = [plain, _phase(root, scratch, 11, inputs, seconds / 2,
                                trace_out=trace_path)]
    else:
        phases = [_phase(root, scratch, 10, inputs, seconds)]

    # Check every response: classify against the in-process model (done
    # during the load), mines against an in-process mine of the same
    # payload, run in a child so the parent never holds mined views.
    mined = sorted({m["payload"] for load in phases for m in load["mines"]})
    status, expected = run_isolated(_expected_mines, inputs["mine"], mined)
    if status != "ok":
        raise RuntimeError(f"in-process reference mines failed: {expected}")
    attempted = failed = 0
    problems = []
    for load in phases:
        problems += load["errors"]
        attempted += len(load["classify"]) + len(load["mines"])
        failed += sum(1 for entry in load["classify"] if not entry[3])
        for mine in load["mines"]:
            per_row, completed, problem = expected[mine["payload"]]
            bad = not mine["ok"]
            if mine["ok"]:
                result = mine["result"]
                if not result["completed"] or not completed:
                    problems.append(f"payload {mine['payload']}: incomplete")
                    bad = True
                elif result["per_row"] != per_row:
                    problems.append(f"payload {mine['payload']}: result "
                                    "differs from the in-process mine")
                    bad = True
                if problem is not None:
                    problems.append(f"payload {mine['payload']}: {problem}")
                    bad = True
            failed += bad

    summary = _summarize(phases[-1])
    # Reported, not enforced: which classify requests land beside a mine
    # holding the interpreter lock shifts from run to run, so half-run
    # medians of a correct server differ by up to 3x.
    classify_ratio = halves_ratio(summary["classify_by_due"])
    job_ratio = halves_ratio(summary["job_s"])
    hits = sum(1 for load in phases for m in load["mines"] if m["cached"])
    lag_p99_ms = percentile(summary["lags_ms"], 99)
    notes += [
        f"drift classify latency: {classify_ratio:.3f} (second/first half)",
        f"drift mine job latency: {job_ratio:.3f} (second/first half)",
        f"requests: {attempted} ({hits} cache hits); "
        f"classify samples {len(summary['latencies_ms'])}, "
        f"mine misses {len(summary['misses'])}",
        f"loadgen: {os.cpu_count()} keep-alive classify connections, "
        f"one per-request /mine connection, one thread, open loop at "
        f"{CLASSIFY_RPS:g} classify/s, {ROUND_PERIOD_S:g} s mine rounds",
        f"loadgen.lag_p99_ms = {lag_p99_ms:.6g} ms",
        f"classify_p50_ms = {median(summary['latencies_ms']):.6g} ms",
        # p98 keeps ten samples beyond it from 500 samples up (a 12.5 s
        # run); p99 from 1000 (a 25 s run).
        f"classify_p98_ms = {percentile(summary['latencies_ms'], 98):.6g} ms",
        f"classify_p99_ms = {percentile(summary['latencies_ms'], 99):.6g} ms",
        f"mine_job_p50_s = {median(summary['job_s']):.6g} s",
        f"fail_ratio = {failed / max(attempted, 1):.6g} ratio",
    ]
    if lag_p99_ms > LAG_FLAG_MS:
        notes.append(f"WARN load generator lags its schedule: p99 "
                     f"{lag_p99_ms:.3g} ms > {LAG_FLAG_MS:g} ms")
    notes += [f"FAIL {text}" for text in problems[:20]]
    correct = failed == 0

    if not traced:
        load = phases[0]
        metrics = {
            "setup_s": {"value": median(setup_times), "unit": "s"},
            # The mean of the middle half of the rounds.  Round times
            # cluster near the uncontended mine and trail off into rounds
            # whose mine met a classify burst; the median sits where the
            # two meet and moved 10% between seeds, the middle-half mean
            # 7%.  A host stall lengthens a few rounds, which it ignores.
            "round_s": {"value": interquartile_mean(summary["round_s"]),
                        "unit": "s"},
            "peak_rss_mb": {"value": load["peak_rss_mb"], "unit": "MB"},
        }
        notes.append(f"round middle-half mean, wall time: "
                     f"{interquartile_mean(summary['round_raw_s']):.6g} s; "
                     f"set-up median, wall time: {median(setup_raw):.6g} s")
        return correct, attempted, failed, metrics, notes

    plain, traced_load = phases
    with open(trace_path, encoding="utf-8") as handle:
        server_trace = json.load(handle)
    before, after = traced_load["metrics_before"], traced_load["metrics_after"]
    route_n, route_s = _histogram_delta(
        before, after, "route_seconds:POST /classify")
    batch_n, batch_rows = _histogram_delta(before, after, "classify_batch_size")
    kernel_n, kernel_s = _histogram_delta(before, after, "kernel_seconds")
    counter = lambda snap, name: snap["counters"].get(name, 0)  # noqa: E731
    hit_n = counter(after, "mine_cache_hits") - counter(before, "mine_cache_hits")
    miss_n = (counter(after, "mine_cache_misses")
              - counter(before, "mine_cache_misses"))
    # Per-layer times are wall times, as on paper and tall.
    traced_rounds = summary["round_raw_s"]
    per = max(len(traced_rounds), 1)
    n_jobs = max(len(summary["misses"]), 1)
    mine_span = server_trace["spans"].get("topk.mine", (0, 0.0, 0.0))[1]
    extra = {
        "data.generate_s": setup_trace["spans"].get(
            "data.generate", (0, 0.0))[1],
        "data.discretize_s": setup_trace["spans"].get(
            "data.discretize", (0, 0.0))[1],
        "http.classify_server_ms": 1000.0 * route_s / max(route_n, 1),
        "coalesce.batch_rows_mean": batch_rows / max(batch_n, 1),
        "jobs.queue_wait_s": sum(summary["queue_wait_s"]) / n_jobs,
        "jobs.run_s": sum(summary["run_s"]) / n_jobs,
        "jobs.kernel_s": kernel_s / max(kernel_n, 1),
        "cache.hit_ratio": hit_n / max(hit_n + miss_n, 1),
        "server.rss_growth_mb": traced_load["rss_growth_mb"],
        "loadgen.lag_p99_ms": lag_p99_ms,
        "trace.round_s": median(traced_rounds),
        # Job run time outside the traced mine: result rendering, cache
        # and store writes.
        "unattributed_s": (sum(summary["run_s"]) - mine_span) / n_jobs,
        "trace.overhead_ratio": (
            median(traced_rounds) / median(_summarize(plain)["round_raw_s"])
            - 1.0),
    }
    metrics = layer_metrics(server_trace, per, extra)
    return correct, attempted, failed, metrics, notes
