"""Async front end: pipelining, coalescing, shedding, kill -9 durability."""

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.classifiers import RCBTClassifier
from repro.classifiers.persistence import classifier_to_payload
from repro.data import random_discretized_dataset
from repro.data.loaders import discretized_to_payload
from repro.service import AsyncReproServer, RuleService


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
            return response.status, dict(response.headers), json.loads(
                response.read()
            )
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


def _read_response(stream):
    """Parse one HTTP response off a buffered socket file."""
    status_line = stream.readline()
    if not status_line:
        return None, {}, None
    status = int(status_line.split(b" ", 2)[1])
    headers = {}
    while True:
        line = stream.readline()
        if not line or line in (b"\r\n", b"\n"):
            break
        name, _, value = line.partition(b":")
        headers[name.strip().lower().decode()] = value.strip().decode()
    body = b""
    length = int(headers.get("content-length", "0"))
    while len(body) < length:
        chunk = stream.read(length - len(body))
        if not chunk:
            break
        body += chunk
    return status, headers, json.loads(body) if body else None


def _post_bytes(path, body: dict, host: str, port: int) -> bytes:
    payload = json.dumps(body).encode("utf-8")
    return (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    ).encode("latin-1") + payload


@pytest.fixture
def model_and_dataset():
    dataset = random_discretized_dataset(n_rows=30, n_items=14, seed=5)
    model = RCBTClassifier(k=2, nl=4).fit(dataset)
    return model, dataset


class TestPipelining:
    def test_pipelined_burst_is_answered_in_order(self, model_and_dataset):
        model, dataset = model_and_dataset
        # A generous window so the whole burst lands in one coalescer
        # flush regardless of scheduler noise.
        server = AsyncReproServer(port=0, batch_delay=0.05).start()
        try:
            _request(f"{server.url}/models", body={
                "name": "m", "model": classifier_to_payload(model),
            })
            expected = model.predict_with_sources(dataset)[0]
            rows = [sorted(row) for row in dataset.rows]
            burst = b"".join(
                _post_bytes("/classify", {"model": "m", "rows": [rows[i]]},
                            server.host, server.port)
                for i in range(12)
            )
            sock = socket.create_connection(
                (server.host, server.port), timeout=30
            )
            stream = sock.makefile("rb")
            try:
                # All 12 requests hit the server before any response is
                # read; responses must come back 200, in request order.
                sock.sendall(burst)
                for i in range(12):
                    status, _, payload = _read_response(stream)
                    assert status == 200
                    assert payload["predictions"] == [expected[i]]
            finally:
                stream.close()
                sock.close()

            # The burst was coalesced: at least one predict_batch call
            # served multiple pipelined requests.
            snapshot = server.service.telemetry.snapshot()
            histogram = snapshot["latency"]["classify_batch_size"]
            assert histogram["max_seconds"] >= 2  # max batch rows
            assert histogram["count"] < 12  # fewer batches than requests
        finally:
            server.stop()

    def test_mixed_pipelined_methods_and_errors(self, model_and_dataset):
        model, _ = model_and_dataset
        server = AsyncReproServer(port=0, batch_delay=0.01).start()
        try:
            _request(f"{server.url}/models", body={
                "name": "m", "model": classifier_to_payload(model),
            })
            get = (
                f"GET /models HTTP/1.1\r\n"
                f"Host: {server.host}:{server.port}\r\n\r\n"
            ).encode("latin-1")
            bad = _post_bytes("/classify", {"model": "ghost", "rows": []},
                              server.host, server.port)
            sock = socket.create_connection(
                (server.host, server.port), timeout=30
            )
            stream = sock.makefile("rb")
            try:
                sock.sendall(get + bad + get)
                status, _, payload = _read_response(stream)
                assert status == 200 and len(payload["models"]) == 1
                status, _, payload = _read_response(stream)
                assert status == 404 and "ghost" in payload["error"]
                status, _, payload = _read_response(stream)
                assert status == 200 and len(payload["models"]) == 1
            finally:
                stream.close()
                sock.close()
        finally:
            server.stop()

    def test_malformed_requests_close_with_4xx(self):
        server = AsyncReproServer(port=0).start()
        try:
            sock = socket.create_connection(
                (server.host, server.port), timeout=30
            )
            stream = sock.makefile("rb")
            try:
                sock.sendall(b"NONSENSE\r\n\r\n")
                status, headers, _ = _read_response(stream)
                assert status == 400
                assert headers["connection"] == "close"
            finally:
                stream.close()
                sock.close()

            status, _, payload = _request(
                f"{server.url}/classify", body={"bogus": True}
            )
            assert status in (400, 404)
        finally:
            server.stop()

    def test_oversized_body_is_rejected(self):
        server = AsyncReproServer(port=0).start()
        try:
            sock = socket.create_connection(
                (server.host, server.port), timeout=30
            )
            stream = sock.makefile("rb")
            try:
                sock.sendall(
                    f"POST /classify HTTP/1.1\r\n"
                    f"Host: x\r\nContent-Length: {64 * 1024 * 1024}"
                    f"\r\n\r\n".encode("latin-1")
                )
                status, _, payload = _read_response(stream)
                assert status == 413
            finally:
                stream.close()
                sock.close()
        finally:
            server.stop()


class TestCoalescer:
    """A bad ``predict_batch`` fails its whole window, and only that."""

    def test_predict_error_reaches_every_request_in_its_window(
        self, model_and_dataset, monkeypatch
    ):
        model, dataset = model_and_dataset
        server = AsyncReproServer(port=0, batch_delay=0.05).start()
        try:
            record = server.service.registry.register("m", model)
            expected = model.predict_with_sources(dataset)[0]
            real_predict = record.model.predict_batch
            failing = [True]
            batch_rows = []

            def stub_predict(rows):
                if failing[0]:
                    batch_rows.append(len(rows))
                    raise RuntimeError("model on fire")
                return real_predict(rows)

            monkeypatch.setattr(record.model, "predict_batch", stub_predict)
            # A request without rows never reaches predict_batch.
            status, _, payload = _request(
                f"{server.url}/classify", body={"model": "m", "rows": []}
            )
            assert status == 200 and payload["predictions"] == []
            rows = [sorted(row) for row in dataset.rows]
            burst = b"".join(
                _post_bytes("/classify", {"model": "m", "rows": [rows[i]]},
                            server.host, server.port)
                for i in range(6)
            )
            sock = socket.create_connection(
                (server.host, server.port), timeout=30
            )
            stream = sock.makefile("rb")
            try:
                sock.sendall(burst)
                for _ in range(6):
                    status, _, payload = _read_response(stream)
                    assert status == 500
                    assert "model on fire" in payload["error"]
            finally:
                stream.close()
                sock.close()
            # Every request reached a failing predict_batch call.
            assert sum(batch_rows) == 6

            # The next window serves normally.
            failing[0] = False
            status, _, payload = _request(
                f"{server.url}/classify", body={"model": "m", "rows": rows}
            )
            assert status == 200
            assert payload["predictions"] == expected
        finally:
            server.stop()

    def test_result_count_mismatch_is_an_error(
        self, model_and_dataset, monkeypatch
    ):
        model, dataset = model_and_dataset
        server = AsyncReproServer(port=0, batch_delay=0.01).start()
        try:
            record = server.service.registry.register("m", model)
            monkeypatch.setattr(
                record.model, "predict_batch", lambda rows: rows[:-1]
            )
            status, _, payload = _request(f"{server.url}/classify", body={
                "model": "m",
                "rows": [sorted(row) for row in dataset.rows[:3]],
            })
            assert status == 500
            assert "returned 2 results for 3 rows" in payload["error"]
        finally:
            server.stop()


class TestLoadShedding:
    def test_overload_returns_503_with_retry_after(self, model_and_dataset):
        model, dataset = model_and_dataset
        server = AsyncReproServer(
            port=0, max_inflight=0, retry_after_seconds=3.0
        ).start()
        try:
            server.service.register_model({
                "name": "m", "model": classifier_to_payload(model),
            })
            status, headers, payload = _request(
                f"{server.url}/classify",
                body={"model": "m",
                      "rows": [sorted(dataset.rows[0])]},
            )
            assert status == 503
            assert headers["Retry-After"] == "3"
            assert "overloaded" in payload["error"]
            assert server.service.telemetry.counter("http_shed") == 1

            # /healthz bypasses the admission gate but reports (and
            # signals, via 503) that the instance is shedding.
            status, _, health = _request(f"{server.url}/healthz")
            assert status == 503
            assert health["shedding"] is True
            assert health["status"] == "shedding"
        finally:
            server.stop()

    def test_connection_cap_sheds_new_connections(self):
        server = AsyncReproServer(port=0, max_connections=0).start()
        try:
            status, headers, payload = _request(f"{server.url}/models")
            assert status == 503
            assert "Retry-After" in headers
            assert "capacity" in payload["error"]
        finally:
            server.stop()

    def test_unshedded_server_reports_healthy(self):
        server = AsyncReproServer(port=0).start()
        try:
            status, _, health = _request(f"{server.url}/healthz")
            assert status == 200
            assert health["shedding"] is False
            assert health["queue_depth"] == 0
            assert "pool" in health
        finally:
            server.stop()


def _start_serve_subprocess(store_path, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--store", str(store_path), "--grace-seconds", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(tmp_path),
    )
    url = None
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        if line.startswith("serving on "):
            url = line.split()[2]
            break
    if url is None:
        process.kill()
        raise AssertionError("server subprocess never reported its url")
    return process, url


def _mined_content(result):
    content = dict(result)
    content["stats"] = {
        key: value
        for key, value in result["stats"].items()
        if key != "elapsed_seconds"
    }
    return content


class TestKillRestartDurability:
    def test_killed_server_resumes_mine_bit_identically(self, tmp_path):
        # ~3s of enumeration: plenty of window to kill the process
        # mid-mine, short enough to re-mine after restart.
        dataset = random_discretized_dataset(
            n_rows=42, n_items=90, density=0.9, seed=3
        )
        body = {
            "items": discretized_to_payload(dataset),
            "consequent": 1,
            "minsup": 1,
            "k": 30,
        }
        store = tmp_path / "jobs.db"
        process, url = _start_serve_subprocess(store, tmp_path)
        try:
            status, _, submitted = _request(f"{url}/mine", body=body)
            assert status == 202
            job_id = submitted["job_id"]
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                status, _, payload = _request(f"{url}/jobs/{job_id}")
                if payload["status"] == "running":
                    break
                time.sleep(0.02)
            assert payload["status"] == "running"
        finally:
            # SIGKILL: no drain, no checkpoint — the WAL must carry it.
            process.kill()
            process.wait(timeout=10)

        process, url = _start_serve_subprocess(store, tmp_path)
        try:
            deadline = time.monotonic() + 60.0
            final = None
            while time.monotonic() < deadline:
                status, _, payload = _request(f"{url}/jobs/{job_id}")
                assert status == 200
                if payload["status"] in ("done", "failed", "cancelled"):
                    final = payload
                    break
                time.sleep(0.1)
            assert final is not None, "recovered job never finished"
            assert final["status"] == "done"

            reference_service = RuleService()
            try:
                ref_submitted = reference_service.submit_mine(body)
                ref_deadline = time.monotonic() + 60.0
                while time.monotonic() < ref_deadline:
                    reference = reference_service.job_status(
                        ref_submitted["job_id"]
                    )
                    if reference["status"] == "done":
                        break
                    time.sleep(0.1)
                assert _mined_content(final["result"]) == _mined_content(
                    reference["result"]
                )
            finally:
                reference_service.shutdown()
        finally:
            process.terminate()
            process.wait(timeout=30)

    def test_sigterm_drains_and_exits_cleanly(self, tmp_path):
        store = tmp_path / "jobs.db"
        process, url = _start_serve_subprocess(store, tmp_path)
        status, _, health = _request(f"{url}/healthz")
        assert status == 200
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=30)
        assert process.returncode == 0
        assert "stopped cleanly" in output
