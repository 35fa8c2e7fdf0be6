"""Asyncio batch-coalescing HTTP front end for :class:`RuleService`.

The one HTTP front end of the serving layer, run by ``repro serve``: a
stdlib-``asyncio`` server that

* holds thousands of **keep-alive** connections on one event loop
  instead of a thread each;
* services **HTTP/1.1 pipelining** concurrently — every request read
  from a connection is dispatched immediately while later requests are
  still being parsed, with responses written back in request order (the
  protocol's ordering rule), so a client that writes N classify
  requests back-to-back pays one round-trip and one model dispatch, not
  N of each;
* **coalesces** concurrent ``/classify`` requests per model version
  into single ``predict_batch`` calls through an event-loop
  micro-batcher (flush on ``batch_rows`` rows or after ``batch_delay``
  seconds, whichever first) — the wire-to-batch path the serving layer
  was built for;
* applies **admission control**: beyond ``max_connections`` sockets or
  ``max_inflight`` dispatched requests, new work is shed with ``503``
  plus a ``Retry-After`` backpressure header instead of queueing
  without bound (``/healthz`` bypasses the gate and reports — and
  returns 503 during — shedding, so load balancers rotate instances);
* **drains gracefully**: stop closes the listener, gives in-flight
  requests ``grace_seconds`` to finish (flushing the coalescers), then
  tears down — and :meth:`RuleService.shutdown` checkpoints the durable
  job store behind it.

``/mine`` lands on the thread-pool job queue (via a small request
executor), and a hybrid mine's partitions on the warm process pool of
:mod:`repro.parallel`, whose retry/heal/degrade semantics apply
unchanged.  Blocking service calls
run on that executor too; the event loop itself never computes.

The embedding surface is ``start`` / ``stop`` / ``serve_forever`` /
``url`` plus the shared ``service``; ``port=0`` binds an ephemeral port.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

from .cache import encode_json
from .registry import ModelRecord
from .server import RuleService, ServiceError, parse_json_body

__all__ = ["AsyncReproServer"]

# 16 MiB: a scaled paper dataset payload fits easily, and anything
# bigger is almost certainly a client bug.
MAX_BODY_BYTES = 16 * 1024 * 1024
MAX_HEADER_BYTES = 64 * 1024
# In-order responses mean a pipelined burst is buffered as tasks; bound
# how far ahead of the writer a single connection may read.
MAX_PIPELINE_DEPTH = 64

_REASONS = {
    200: "OK", 201: "Created", 202: "Accepted",
    400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    408: "Request Timeout", 413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class _Request:
    """One parsed HTTP request (or a pre-cooked parse-error response)."""

    __slots__ = ("method", "path", "body", "keep_alive", "error")

    def __init__(self, method="", path="", body=b"", keep_alive=False,
                 error=None):
        self.method = method
        self.path = path
        self.body = body
        self.keep_alive = keep_alive
        self.error = error  # (status, message) forcing a close


class _Coalescer:
    """Event-loop micro-batcher for one model version.

    No collector thread and no blocking: pending requests are plain
    lists mutated only on the event loop, the flush deadline is a
    ``call_later`` timer, and the batched ``predict_batch`` call runs on
    the request executor so the loop keeps parsing sockets while the
    model computes.  A failed or misaligned ``predict_batch`` fails
    every request of its window; the next window starts afresh.
    """

    def __init__(
        self,
        server: "AsyncReproServer",
        record: ModelRecord,
        max_batch_rows: int,
        max_delay: float,
    ) -> None:
        self._server = server
        self._record = record
        self.max_batch_rows = max(1, max_batch_rows)
        self.max_delay = max(0.0, max_delay)
        self._pending: list[tuple[list, asyncio.Future]] = []
        self._pending_rows = 0
        self._timer: Optional[asyncio.TimerHandle] = None
        self.requests = 0
        self.batches = 0
        self.batched_rows = 0
        self.largest_batch = 0

    def submit(self, rows: list) -> asyncio.Future:
        """Queue ``rows`` and return a future of their predictions."""
        future = self._server._loop.create_future()
        self.requests += 1
        self._pending.append((rows, future))
        self._pending_rows += len(rows)
        if self._pending_rows >= self.max_batch_rows:
            self.flush()
        elif self._timer is None:
            self._timer = self._server._loop.call_later(
                self.max_delay, self.flush
            )
        return future

    def flush(self) -> None:
        """Dispatch whatever is pending as one ``predict_batch`` call."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        total, self._pending_rows = self._pending_rows, 0
        self._server._spawn(self._run_batch(batch, total))

    async def _run_batch(
        self, batch: list[tuple[list, asyncio.Future]], total: int
    ) -> None:
        all_rows: list = []
        for rows, _ in batch:
            all_rows.extend(rows)
        try:
            results = await self._server._loop.run_in_executor(
                self._server._executor,
                self._record.model.predict_batch,
                all_rows,
            )
            if len(results) != total:
                raise RuntimeError(
                    f"predict_batch returned {len(results)} results "
                    f"for {total} rows"
                )
        except BaseException as error:
            for _, future in batch:
                if not future.done():
                    future.set_exception(error)
            return
        self.batches += 1
        self.batched_rows += total
        self.largest_batch = max(self.largest_batch, total)
        self._server.service.observe_batch(total)
        offset = 0
        for rows, future in batch:
            if not future.done():
                future.set_result(results[offset:offset + len(rows)])
            offset += len(rows)

    def stats(self) -> dict:
        """This model version's batching counters for ``/metrics``."""
        mean = self.batched_rows / self.batches if self.batches else 0.0
        return {
            "requests": self.requests,
            "batches": self.batches,
            "rows": self.batched_rows,
            "largest_batch_rows": self.largest_batch,
            "mean_batch_rows": mean,
        }


class AsyncReproServer:
    """A :class:`RuleService` behind a coalescing asyncio front end.

    Args:
        host/port: bind address; port 0 picks an ephemeral port.
        service: an existing facade to serve; built from the remaining
            keyword arguments when omitted (the :class:`RuleService`
            knobs, including ``store_path`` durability).
        max_connections: socket cap; connections beyond it are answered
            ``503`` + ``Retry-After`` and closed.
        max_inflight: dispatched-request cap; beyond it requests are
            shed with ``503`` + ``Retry-After`` (the connection stays
            open — backpressure, not punishment).
        retry_after_seconds: value of the ``Retry-After`` header.
        grace_seconds: default drain window of :meth:`stop`.
        executor_workers: threads for blocking service calls and batched
            predictions (mining itself runs on the job queue / miner
            pool, not here).
        verbose: log one line per request to stderr.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        service: Optional[RuleService] = None,
        verbose: bool = False,
        max_connections: int = 512,
        max_inflight: int = 128,
        retry_after_seconds: float = 1.0,
        grace_seconds: float = 5.0,
        executor_workers: int = 4,
        **service_kwargs,
    ) -> None:
        self.service = service if service is not None else RuleService(
            **service_kwargs
        )
        self.verbose = verbose
        self.max_connections = max_connections
        self.max_inflight = max_inflight
        self.retry_after_seconds = retry_after_seconds
        self.grace_seconds = grace_seconds
        self._bind_host = host
        self._bind_port = port
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers, thread_name_prefix="repro-aio"
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._stop_called = False
        self._host: Optional[str] = None
        self._port: Optional[int] = None
        # Event-loop-only state (no locks: single-threaded loop).
        self._tasks: set[asyncio.Task] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._coalescers: dict[tuple[str, int], _Coalescer] = {}
        self._inflight = 0
        self._connections = 0
        self._shed_requests = 0
        self._shed_connections = 0
        self._draining = False
        self._grace = grace_seconds

    # -- public surface ------------------------------------------------------

    @property
    def host(self) -> str:
        return self._host if self._host is not None else self._bind_host

    @property
    def port(self) -> int:
        return self._port if self._port is not None else self._bind_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "AsyncReproServer":
        """Serve on a background event-loop thread; returns once bound."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve-aio"
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise self._startup_error
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        if self._thread is None:
            self.start()
        try:
            self._thread.join()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self, grace_seconds: Optional[float] = None) -> None:
        """Drain in-flight requests, then shut everything down.

        New connections stop being accepted immediately; requests
        already dispatched (including batched predictions they joined)
        get up to ``grace_seconds`` to complete, then stragglers are
        cancelled.  Afterwards the facade shuts down — checkpointing and
        re-arming the durable job store when one is configured.
        """
        if self._stop_called:
            return
        self._stop_called = True
        if self._thread is not None:
            grace = self.grace_seconds if grace_seconds is None else grace_seconds
            assert self._loop is not None
            self._loop.call_soon_threadsafe(self._begin_shutdown, grace)
            self._thread.join()
            self._thread = None
        self._executor.shutdown(wait=True)
        self.service.shutdown()

    # -- event-loop lifecycle ----------------------------------------------

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        except BaseException as error:  # startup failures (port in use...)
            if not self._started.is_set():
                self._startup_error = error
                self._started.set()
            else:  # pragma: no cover - defensive
                raise
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    async def _main(self) -> None:
        self._shutdown_event = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection,
            self._bind_host,
            self._bind_port,
            limit=MAX_HEADER_BYTES,
        )
        sockname = server.sockets[0].getsockname()
        self._host, self._port = sockname[0], sockname[1]
        self._started.set()
        await self._shutdown_event.wait()
        await self._drain(server)

    def _begin_shutdown(self, grace: float) -> None:
        self._grace = grace
        self._shutdown_event.set()

    async def _drain(self, server: asyncio.base_events.Server) -> None:
        self._draining = True
        server.close()
        await server.wait_closed()
        loop = self._loop
        deadline = loop.time() + max(0.0, self._grace)
        while True:
            # Anything still queued in a coalescer window must not wait
            # out its timer against the drain clock.
            for coalescer in self._coalescers.values():
                coalescer.flush()
            pending = set(self._tasks)
            if not pending:
                break
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            await asyncio.wait(
                pending, timeout=min(0.25, max(0.01, remaining))
            )
        for task in list(self._tasks):
            task.cancel()
        for writer in list(self._writers):
            writer.close()
        for task in list(self._conn_tasks):
            task.cancel()
        leftovers = set(self._tasks) | set(self._conn_tasks)
        if leftovers:
            await asyncio.wait(leftovers, timeout=1.0)

    def _spawn(self, coro) -> asyncio.Task:
        task = self._loop.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    # -- connection handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        current = asyncio.current_task()
        if current is not None:
            self._conn_tasks.add(current)
        try:
            if self._draining or self._connections >= self.max_connections:
                self._shed_connections += 1
                self.service.telemetry.increment("http_shed")
                writer.write(self._render(
                    503, {"error": "server at connection capacity"},
                    keep_alive=False, retry_after=True,
                ))
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass
                return
            self._connections += 1
            self._writers.add(writer)
            try:
                await self._serve_connection(reader, writer)
            finally:
                self._connections -= 1
                self._writers.discard(writer)
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            if current is not None:
                self._conn_tasks.discard(current)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Read requests, dispatch them concurrently, respond in order.

        ``responses`` carries ``(awaitable-or-bytes, keep_alive)`` items
        in request order; the single writer coroutine serializes them
        back onto the socket.  Because the read loop never waits for a
        response before parsing the next request, a pipelined burst of N
        classify calls lands in the same coalescer window and one
        ``predict_batch`` serves all N.
        """
        responses: asyncio.Queue = asyncio.Queue()
        writer_task = self._loop.create_task(
            self._write_responses(responses, writer)
        )
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                if request.error is not None:
                    status, message = request.error
                    await responses.put(
                        (self._render(status, {"error": message},
                                      keep_alive=False), False)
                    )
                    break
                keep_alive = request.keep_alive and not self._draining
                if self._should_shed(request):
                    self._shed_requests += 1
                    self.service.telemetry.increment("http_shed")
                    await responses.put((self._render(
                        503, {"error": "server overloaded, retry later"},
                        keep_alive=keep_alive, retry_after=True,
                    ), keep_alive))
                else:
                    self._inflight += 1
                    task = self._spawn(self._respond(request, keep_alive))
                    await responses.put((task, keep_alive))
                if not keep_alive:
                    break
                while responses.qsize() > MAX_PIPELINE_DEPTH:
                    await asyncio.sleep(0)
        finally:
            await responses.put(None)
            try:
                await writer_task
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _write_responses(
        self, responses: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            item = await responses.get()
            if item is None:
                return
            payload, keep_alive = item
            if isinstance(payload, bytes):
                data = payload
            else:
                try:
                    data = await payload
                except asyncio.CancelledError:
                    return
                except Exception as error:  # pragma: no cover - defensive
                    data = self._render(
                        500, {"error": f"internal error: {error}"},
                        keep_alive=keep_alive,
                    )
            writer.write(data)
            await writer.drain()
            if not keep_alive:
                return

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[_Request]:
        try:
            blob = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None  # clean EOF between requests
        except asyncio.LimitOverrunError:
            return _Request(error=(431, "request headers too large"))
        except (ConnectionError, OSError):
            return None
        try:
            head = blob.decode("latin-1")
            request_line, *header_lines = head.split("\r\n")
            method, path, version = request_line.split(" ", 2)
        except ValueError:
            return _Request(error=(400, "malformed request line"))
        headers = {}
        for line in header_lines:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.1":
            keep_alive = connection != "close"
        else:
            keep_alive = connection == "keep-alive"
        raw_length = headers.get("content-length", "0")
        try:
            length = int(raw_length)
            if length < 0:
                raise ValueError
        except ValueError:
            return _Request(error=(400, "malformed Content-Length header"))
        if length > MAX_BODY_BYTES:
            return _Request(error=(413, "request body too large"))
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return None
        return _Request(method=method, path=path, body=body,
                        keep_alive=keep_alive)

    def _should_shed(self, request: _Request) -> bool:
        # /healthz always answers — it is how load balancers *find out*
        # the instance is shedding (and it does no work).
        if request.path.split("?", 1)[0].rstrip("/") == "/healthz":
            return False
        return self._inflight >= self.max_inflight

    # -- request dispatch ---------------------------------------------------

    async def _respond(self, request: _Request, keep_alive: bool) -> bytes:
        start = time.monotonic()
        telemetry = self.service.telemetry
        telemetry.increment("http_requests")
        route = None
        try:
            status, payload, route = await self._route(request)
        except ServiceError as error:
            telemetry.increment("http_errors")
            status, payload = error.status, {"error": str(error)}
        except asyncio.CancelledError:
            raise
        except Exception as error:  # pragma: no cover - defensive
            telemetry.increment("http_errors")
            status, payload = 500, {"error": f"internal error: {error}"}
        finally:
            self._inflight -= 1
        if route is not None:
            telemetry.observe(
                f"route_seconds:{route}", time.monotonic() - start
            )
        if self.verbose:  # pragma: no cover - log formatting
            print(f"aio {request.method} {request.path} -> {status}",
                  file=sys.stderr)
        return self._render(status, payload, keep_alive=keep_alive)

    async def _route(self, request: _Request) -> tuple[int, dict, Optional[str]]:
        service = self.service
        method = request.method
        path = request.path.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET":
            if path == "/healthz":
                payload = service.health()
                shedding = self._inflight >= self.max_inflight
                payload["shedding"] = shedding
                payload["inflight_requests"] = self._inflight
                payload["connections"] = self._connections
                if shedding or self._draining:
                    payload["status"] = "shedding" if shedding else "draining"
                    return 503, payload, "GET /healthz"
                return 200, payload, "GET /healthz"
            if path == "/metrics":
                payload = await self._call(service.metrics)
                payload["batching"] = {
                    f"{name}@v{version}": coalescer.stats()
                    for (name, version), coalescer in sorted(
                        self._coalescers.items()
                    )
                }
                payload["frontend"] = self.describe()
                return 200, payload, "GET /metrics"
            if path == "/models":
                return 200, service.list_models(), "GET /models"
            if path.startswith("/jobs/"):
                job_id = path[len("/jobs/"):]
                payload = await self._call(service.job_status, job_id)
                return 200, payload, "GET /jobs/*"
            raise ServiceError(404, f"no route for GET {path}")
        if method == "POST":
            # Match the path before parsing the body: an unknown route
            # is a 404 whatever its body.
            if path not in ("/models", "/classify", "/mine"):
                raise ServiceError(404, f"no route for POST {path}")
            if path == "/mine":
                # Parsed on the executor, in the submit's own call.
                payload = await self._call(
                    service.submit_mine_json, request.body
                )
                return 202, payload, "POST /mine"
            body = parse_json_body(request.body)
            if path == "/models":
                payload = await self._call(service.register_model, body)
                return 201, payload, "POST /models"
            return 200, await self._classify(body), "POST /classify"
        if method == "DELETE":
            if path.startswith("/jobs/"):
                job_id = path[len("/jobs/"):]
                payload = await self._call(service.cancel_job, job_id)
                return 200, payload, "DELETE /jobs/*"
            raise ServiceError(404, f"no route for DELETE {path}")
        raise ServiceError(405, f"method {method} not supported")

    async def _classify(self, body: dict) -> dict:
        start = time.monotonic()
        # Validation + discretization can be CPU-visible (raw values go
        # through the numpy pipeline); keep it off the loop.
        record, rows = await self._call(self.service.resolve_classify, body)
        if not rows:
            pairs: list = []
        else:
            pairs = await self._coalescer(record).submit(rows)
        payload = self.service.classify_payload(record, pairs)
        self.service.record_classify(len(rows), time.monotonic() - start)
        return payload

    def _coalescer(self, record: ModelRecord) -> _Coalescer:
        key = (record.name, record.version)
        coalescer = self._coalescers.get(key)
        if coalescer is None:
            coalescer = _Coalescer(
                self,
                record,
                max_batch_rows=self.service.batch_rows,
                max_delay=self.service.batch_delay,
            )
            self._coalescers[key] = coalescer
        return coalescer

    async def _call(self, fn, *args):
        """Run a blocking service call on the request executor."""
        return await self._loop.run_in_executor(self._executor, fn, *args)

    def _render(
        self,
        status: int,
        payload: dict,
        keep_alive: bool,
        retry_after: bool = False,
    ) -> bytes:
        body = encode_json(payload).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = [
            f"HTTP/1.1 {status} {reason}",
            "Server: repro-serve-aio/1.0",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        if retry_after:
            head.append(
                f"Retry-After: {max(1, round(self.retry_after_seconds))}"
            )
        return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body

    def describe(self) -> dict:
        """Front-end admission counters for ``/metrics``."""
        return {
            "kind": "asyncio",
            "connections": self._connections,
            "max_connections": self.max_connections,
            "inflight_requests": self._inflight,
            "max_inflight": self.max_inflight,
            "shed_requests": self._shed_requests,
            "shed_connections": self._shed_connections,
        }
