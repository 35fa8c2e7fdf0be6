"""The serving layer: an embeddable facade plus a threaded HTTP API.

Two levels, so every future scaling PR has a seam to plug into:

* :class:`RuleService` — the transport-free facade.  It owns the model
  registry, the content-addressed mining cache, the mining job queue,
  per-model classify micro-batchers and the telemetry registry, and
  exposes plain-dict operations (``classify``, ``submit_mine``,
  ``job_status``...).  Embed it directly in another process, or put any
  transport in front of it.
* :class:`ReproServer` — a stdlib ``ThreadingHTTPServer`` speaking JSON
  over the endpoints below.  Started by ``repro serve``.

HTTP surface::

    GET    /healthz            liveness + uptime
    GET    /metrics            counters, latencies, cache/jobs/batching
    GET    /models             registered model versions
    POST   /models             register {"name", "model", ["pipeline"]}
    POST   /classify           {"model", ["version"], "rows" | "values"}
    POST   /mine               async mining; returns job id or cached hit
    GET    /jobs/<id>          job status (+ result when finished)
    DELETE /jobs/<id>          cooperative cancellation

A ``/mine`` request is answered from cache when an identical
``(dataset fingerprint, consequent, minsup, k, engine)`` run already
finished, and deduplicated onto the in-flight job when one is still
running — repeated interactive sweeps over one dataset (the paper's own
use case) pay mining cost once.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

import numpy as np

from ..core.bitset import iter_indices
from ..core.enumeration import ENGINES
from ..core.hybrid import (
    AUTO_STRATEGY,
    STRATEGIES,
    auto_strategy_stats,
    plan_auto_strategy,
)
from ..core.topk_miner import TopkResult, mine_topk, relative_minsup
from ..data.dataset import GeneExpressionDataset
from ..data.discretize import EntropyDiscretizer
from ..data.loaders import discretized_from_payload
from ..parallel import AUTO_JOBS, pool_stats
from .batching import MicroBatcher
from .cache import MiningCache, dataset_fingerprint, mining_key
from .jobs import DONE, FAILED, QUEUED, RUNNING, JobQueue
from .registry import ModelRecord, ModelRegistry
from .store import JobStore
from .telemetry import BATCH_SIZE_BUCKETS, Telemetry

__all__ = ["RuleService", "ReproServer", "ServiceError", "topk_result_to_payload"]


class ServiceError(Exception):
    """A client-visible request error with an HTTP status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def topk_result_to_payload(result: TopkResult) -> dict:
    """JSON-safe rendering of a mining result."""
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


def _validate_budget(body: dict, name: str, default, integral: bool):
    """Validate an optional mining-budget field of a ``/mine`` body.

    A missing field falls back to ``default``; an explicit JSON ``null``
    disables the budget.  Anything non-numeric (or non-positive) is
    rejected here with a 400 instead of reaching ``mine_topk`` on the
    worker thread and surfacing as a FAILED job with a traceback.
    """
    if name not in body:
        return default
    value = body[name]
    if value is None:
        return None
    kinds = "an integer" if integral else "a number"
    if isinstance(value, bool) or not isinstance(
        value, int if integral else (int, float)
    ):
        raise ServiceError(400, f"'{name}' must be {kinds} or null")
    if value <= 0:
        raise ServiceError(400, f"'{name}' must be positive, got {value}")
    return value if integral else float(value)


def _validate_int(body: dict, name: str, default) -> int:
    """An integer field of a ``/mine`` body (``default`` when missing).

    JSON booleans, floats and strings are rejected with a 400 instead of
    being truncated by ``int()`` or failing on the worker thread.
    """
    value = body.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(400, f"'{name}' must be an integer, got {value!r}")
    return value


class RuleService:
    """Transport-free serving facade over registry, cache and job queue.

    Args:
        models_dir: when given, the registry persists there and warm
            starts from it.
        cache_bytes: byte bound of the mining cache.
        mining_workers: worker threads of the mining job queue.
        mine_jobs: worker *processes* each mining job may use (the cap
            for per-request ``n_jobs``).  1 keeps mining in the job
            thread; more hands the enumeration to the warm process pool
            of :mod:`repro.parallel`, so CPU-bound mining no longer
            serializes behind the GIL; ``"auto"`` lets the adaptive
            planner choose per workload.  Results are bit-identical
            either way, so the mining cache key is unaffected.
        node_budget / time_budget: default per-job mining budgets
            (overridable per request).
        batch_rows / batch_delay: micro-batching knobs for classify.
        store_path: when given, a :class:`~repro.service.store.JobStore`
            (SQLite, WAL) makes mining jobs and results durable: jobs
            that were queued or running when the previous process died
            are re-enqueued on construction under their original ids,
            and finished results answer identical re-mines across
            restarts.
    """

    def __init__(
        self,
        models_dir: Optional[str] = None,
        cache_bytes: int = 64 * 1024 * 1024,
        mining_workers: int = 2,
        mine_jobs: int = 1,
        node_budget: Optional[int] = 2_000_000,
        time_budget: Optional[float] = 300.0,
        batch_rows: int = 256,
        batch_delay: float = 0.002,
        store_path: Optional[str] = None,
    ) -> None:
        if mine_jobs != AUTO_JOBS and mine_jobs < 1:
            raise ValueError(f"mine_jobs must be >= 1 or 'auto', got {mine_jobs}")
        self.registry = ModelRegistry(models_dir)
        self.cache = MiningCache(cache_bytes)
        self.store = JobStore(store_path) if store_path is not None else None
        self.jobs = JobQueue(
            workers=mining_workers,
            start_id=(self.store.max_job_number() + 1) if self.store else 1,
            observer=self.store.apply_snapshot if self.store else None,
        )
        self.mine_jobs = mine_jobs
        self.telemetry = Telemetry()
        self.node_budget = node_budget
        self.time_budget = time_budget
        self.batch_rows = batch_rows
        self.batch_delay = batch_delay
        self.started_at = time.time()
        self._batchers: dict[tuple[str, int], MicroBatcher] = {}
        self._inflight: dict[str, str] = {}  # mining key -> active job id
        self._lock = threading.Lock()
        self._closed = False
        if self.store is not None:
            self._recover_jobs()

    # -- health / metrics --------------------------------------------------

    def health(self) -> dict:
        """Readiness payload: queue pressure and recovery state.

        Beyond liveness, a load balancer (or an operator's curl) can see
        how much mining work is queued and in flight, whether the warm
        miner pool has been healing or degrading, and whether jobs are
        durable.  The HTTP front ends add their own admission state on
        top (the async server reports — and 503s — while shedding).
        """
        by_status = self.jobs.describe()["by_status"]
        stats = pool_stats()
        payload = {
            "status": "ok",
            "uptime_seconds": time.time() - self.started_at,
            "models": len(self.registry),
            "queue_depth": by_status.get(QUEUED, 0),
            "inflight_mines": by_status.get(RUNNING, 0),
            "pool": {
                "shard_retries": stats.get("shard_retries", 0),
                "pool_restarts_on_failure": stats.get(
                    "pool_restarts_on_failure", 0
                ),
                "serial_degradations": stats.get("serial_degradations", 0),
            },
            "durable": self.store is not None,
            "shedding": False,
        }
        if self.store is not None:
            payload["store"] = self.store.stats()
        return payload

    def metrics(self) -> dict:
        with self._lock:
            batching = {
                f"{name}@v{version}": batcher.stats()
                for (name, version), batcher in sorted(self._batchers.items())
            }
        # The warm miner pool, the execution planner and the crash-
        # recovery supervisor live in repro.parallel, shared by every
        # embedder of this service; sample their counters into gauges
        # atomically at scrape time (shard_retries,
        # pool_restarts_on_failure and serial_degradations ride along —
        # the operator's first sign that workers are being killed).
        self.telemetry.set_gauges(pool_stats())
        # How often strategy="auto" resolved to direct vs hybrid since
        # process start — the /metrics face of the planner's choices.
        self.telemetry.set_gauges({
            f"auto_strategy_{name}": count
            for name, count in auto_strategy_stats().items()
        })
        extra = {
            "cache": self.cache.stats(),
            "jobs": self.jobs.describe(),
            "batching": batching,
        }
        if self.store is not None:
            extra["store"] = self.store.stats()
        return self.telemetry.snapshot(extra=extra)

    # -- models ------------------------------------------------------------

    def register_model(self, body: dict) -> dict:
        name = body.get("name")
        payload = body.get("model")
        if not isinstance(name, str) or not isinstance(payload, dict):
            raise ServiceError(
                400, "body must carry 'name' (string) and 'model' (object)"
            )
        try:
            record = self.registry.register_payload(
                name, payload, pipeline=body.get("pipeline")
            )
        except (ValueError, KeyError) as error:
            raise ServiceError(400, f"bad model payload: {error}")
        self.telemetry.increment("models_registered")
        return record.describe()

    def list_models(self) -> dict:
        return {"models": self.registry.describe()}

    # -- classify ----------------------------------------------------------

    def classify(self, body: dict) -> dict:
        start = time.monotonic()
        record, rows = self.resolve_classify(body)
        pairs = self._batcher(record).submit(rows)
        payload = self.classify_payload(record, pairs)
        self.record_classify(len(rows), time.monotonic() - start)
        return payload

    def resolve_classify(
        self, body: dict
    ) -> tuple[ModelRecord, list[frozenset[int]]]:
        """Validate a ``/classify`` body into ``(record, itemized rows)``.

        Shared by both front ends: the threaded server feeds the rows to
        the blocking :class:`MicroBatcher`, the asyncio server to its
        event-loop coalescer.
        """
        name = body.get("model")
        if not isinstance(name, str):
            raise ServiceError(400, "body must carry 'model' (string)")
        version = body.get("version")
        try:
            record = self.registry.get(
                name, int(version) if version is not None else None
            )
        except KeyError as error:
            # str(KeyError) wraps the message in quotes; unwrap it.
            raise ServiceError(404, error.args[0] if error.args else str(error))
        rows = body.get("rows")
        values = body.get("values")
        if (rows is None) == (values is None):
            raise ServiceError(
                400, "provide exactly one of 'rows' (item ids) or "
                     "'values' (expression values)"
            )
        if values is not None:
            rows = self._discretize_values(record, values)
        else:
            try:
                rows = [frozenset(int(i) for i in row) for row in rows]
            except (TypeError, ValueError):
                raise ServiceError(400, "'rows' must be lists of item ids")
        return record, rows

    def classify_payload(self, record: ModelRecord, pairs: list) -> dict:
        """Render batched ``(label, source)`` pairs as a response body."""
        class_names = (
            record.pipeline.get("class_names") if record.pipeline else None
        )
        return {
            "model": record.name,
            "version": record.version,
            "predictions": [label for label, _ in pairs],
            "sources": [source for _, source in pairs],
            "class_names": class_names,
        }

    def record_classify(self, n_rows: int, seconds: float) -> None:
        """Telemetry for one completed classify request (either front end)."""
        self.telemetry.increment("classify_requests")
        self.telemetry.increment("classify_rows", n_rows)
        self.telemetry.observe("classify_seconds", seconds)

    def observe_batch(self, n_rows: int) -> None:
        """Record one coalesced predict_batch call's row count."""
        self.telemetry.observe(
            "classify_batch_size", n_rows, buckets=BATCH_SIZE_BUCKETS
        )

    def _discretize_values(self, record, values) -> list[frozenset[int]]:
        if record.pipeline is None:
            raise ServiceError(
                400,
                f"model {record.name!r} has no pipeline; send discretized "
                "'rows' instead of raw 'values'",
            )
        pipeline = record.pipeline
        try:
            matrix = np.asarray(values, dtype=float)
            if matrix.ndim != 2:
                raise ValueError("expected a 2-d list of sample values")
            discretizer = EntropyDiscretizer.from_cuts(
                {int(g): c for g, c in pipeline["cuts"].items()},
                pipeline["gene_names"],
                pipeline["class_names"],
            )
            data = GeneExpressionDataset(
                matrix,
                [0] * matrix.shape[0],
                pipeline["gene_names"],
                pipeline["class_names"],
            )
            return list(discretizer.transform(data).rows)
        except ServiceError:
            raise
        except (KeyError, ValueError, TypeError) as error:
            raise ServiceError(400, f"bad 'values' payload: {error}")

    def _batcher(self, record) -> MicroBatcher:
        key = (record.name, record.version)
        with self._lock:
            if self._closed:
                raise ServiceError(503, "service is shutting down")
            batcher = self._batchers.get(key)
            if batcher is None:
                batcher = MicroBatcher(
                    record.model.predict_batch,
                    max_batch_rows=self.batch_rows,
                    max_delay=self.batch_delay,
                    name=f"repro-batcher-{record.name}-v{record.version}",
                    on_batch=self.observe_batch,
                )
                self._batchers[key] = batcher
            return batcher

    # -- mining ------------------------------------------------------------

    def submit_mine(
        self, body: dict, _replay_job_id: Optional[str] = None
    ) -> dict:
        start = time.monotonic()
        items = body.get("items")
        if not isinstance(items, dict):
            raise ServiceError(
                400, "body must carry 'items' (a discretized dataset payload)"
            )
        try:
            dataset = discretized_from_payload(items)
        except (KeyError, ValueError, TypeError) as error:
            raise ServiceError(400, f"bad 'items' payload: {error}")
        consequent = _validate_int(body, "consequent", 1)
        k = _validate_int(body, "k", 1)
        if not 0 <= consequent < dataset.n_classes:
            raise ServiceError(
                400, f"consequent {consequent} out of range for "
                     f"{dataset.n_classes} classes"
            )
        if k < 1:
            raise ServiceError(400, f"k must be >= 1, got {k}")
        engine = body.get("engine", "bitset")
        if engine not in ENGINES:
            raise ServiceError(
                400, f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        strategy = body.get("strategy", "direct")
        if strategy not in (*STRATEGIES, AUTO_STRATEGY):
            raise ServiceError(
                400, f"unknown strategy {strategy!r}; expected one of "
                     f"{(*STRATEGIES, AUTO_STRATEGY)}"
            )
        if strategy == AUTO_STRATEGY:
            # Resolve before keying: the cache/store key records what
            # actually ran, so auto requests deduplicate with explicit
            # requests for the same concrete strategy and replays never
            # re-plan.
            strategy = plan_auto_strategy(dataset.n_rows)
        minsup = body.get("minsup")
        if minsup is None:
            try:
                minsup = relative_minsup(
                    dataset, consequent,
                    float(body.get("minsup_fraction", 0.7)),
                )
            except (TypeError, ValueError) as error:
                raise ServiceError(400, str(error))
        else:
            minsup = _validate_int(body, "minsup", None)
            if minsup < 1:
                raise ServiceError(400, f"minsup must be >= 1, got {minsup}")

        key = mining_key(
            dataset_fingerprint(dataset), consequent, minsup, k, engine,
            strategy=strategy,
        )
        cached = self.cache.get(key)
        if cached is not None:
            self.telemetry.increment("mine_cache_hits")
            self.telemetry.observe("mine_submit_seconds",
                                   time.monotonic() - start)
            return {
                "status": DONE,
                "cached": True,
                "key": key,
                "result": topk_result_to_payload(cached),
            }
        self.telemetry.increment("mine_cache_misses")
        if self.store is not None:
            # Content-addressed durable results outlive restarts: an
            # identical request mined by a previous process incarnation
            # answers from SQLite (mining is deterministic, so the
            # stored payload equals what a fresh mine would produce).
            stored = self.store.get_result(key)
            if stored is not None:
                self.telemetry.increment("mine_store_hits")
                self.telemetry.observe("mine_submit_seconds",
                                       time.monotonic() - start)
                return {
                    "status": DONE,
                    "cached": True,
                    "key": key,
                    "result": stored,
                }

        node_budget = _validate_budget(
            body, "node_budget", self.node_budget, integral=True
        )
        time_budget = _validate_budget(
            body, "time_budget", self.time_budget, integral=False
        )
        n_jobs = body.get("n_jobs", self.mine_jobs)
        if n_jobs == AUTO_JOBS:
            # The adaptive planner decides serial vs parallel per
            # workload; an operator who pinned mine_jobs to 1 has
            # disabled parallel mining, which overrides the request.
            if self.mine_jobs != AUTO_JOBS and self.mine_jobs <= 1:
                n_jobs = 1
        else:
            if isinstance(n_jobs, bool) or not isinstance(n_jobs, int):
                raise ServiceError(400, "'n_jobs' must be an integer or 'auto'")
            if n_jobs < 1:
                raise ServiceError(400, f"n_jobs must be >= 1, got {n_jobs}")
            # Cap per-request parallelism at the operator's configuration
            # so one client cannot fan a single job out over every core
            # (an 'auto' operator configuration delegates the cap to the
            # planner, which never exceeds the core count).
            if self.mine_jobs != AUTO_JOBS:
                n_jobs = min(n_jobs, self.mine_jobs)

        def run(job):
            try:
                result = mine_topk(
                    dataset, consequent, minsup, k=k, engine=engine,
                    node_budget=node_budget, time_budget=time_budget,
                    cancel=job.cancel_event, n_jobs=n_jobs,
                    strategy=strategy,
                )
                # Pure enumeration time, excluding queueing, dataset
                # decoding and result serialization.
                self.telemetry.observe(
                    "kernel_seconds", result.stats.elapsed_seconds
                )
                if result.stats.degraded:
                    # The mine survived worker loss by degrading to
                    # serial execution; the result is still exact.
                    self.telemetry.increment("mine_degraded")
                if result.stats.completed:
                    self.cache.put(key, result)
                return topk_result_to_payload(result)
            finally:
                with self._lock:
                    if self._inflight.get(key) == job.job_id:
                        del self._inflight[key]

        # The inflight check, submit, and registration must be one
        # atomic step: otherwise two concurrent identical requests can
        # both pass the check and both mine, and a fast-finishing job's
        # cleanup can run before registration, leaving a stale inflight
        # entry.  A worker that picks the job up immediately blocks in
        # the cleanup on this same lock until registration is done (the
        # job function never *acquires* the lock while submit holds it
        # on another thread's behalf — there is no reverse ordering).
        with self._lock:
            inflight_id = self._inflight.get(key)
            if inflight_id is not None:
                try:
                    inflight_job = self.jobs.get(inflight_id)
                except KeyError:
                    inflight_job = None
                if inflight_job is not None and inflight_job.status in (
                    "queued", "running"
                ):
                    self.telemetry.increment("mine_deduplicated")
                    return {
                        "status": inflight_job.status,
                        "cached": False,
                        "deduplicated": True,
                        "key": key,
                        "job_id": inflight_job.job_id,
                    }
                # The registered job already reached a terminal state;
                # drop the stale entry before registering a fresh one.
                del self._inflight[key]
            job_id = _replay_job_id
            if self.store is not None:
                # Persist the *normalized* request (minsup resolved,
                # budgets validated, n_jobs capped) before the queue can
                # touch the job: a crash from here on leaves a row the
                # next boot replays verbatim — same mining key, same
                # result, bit for bit.
                if job_id is None:
                    job_id = self.jobs.next_id()
                self.store.record_submitted(job_id, key, {
                    "items": items,
                    "consequent": consequent,
                    "minsup": minsup,
                    "k": k,
                    "engine": engine,
                    "strategy": strategy,
                    "node_budget": node_budget,
                    "time_budget": time_budget,
                    "n_jobs": n_jobs,
                })
            if job_id is None:
                job = self.jobs.submit(run)
            else:
                job = self.jobs.submit(run, job_id=job_id)
            self._inflight[key] = job.job_id
        self.telemetry.increment("mine_jobs_submitted")
        self.telemetry.observe("mine_submit_seconds", time.monotonic() - start)
        return {
            "status": job.status,
            "cached": False,
            "key": key,
            "job_id": job.job_id,
        }

    def _recover_jobs(self) -> None:
        """Re-enqueue jobs a dead process left queued or running.

        Runs once at construction, before any transport can accept
        requests.  Each pending store row is replayed through
        :meth:`submit_mine` under its *original* id, so a client that
        submitted before the crash keeps polling the same ``/jobs/<id>``
        URL and simply sees its job finish.  Replays that hit a durable
        result adopt it; replays that deduplicate onto an identical
        recovered job are recorded as proxies and answered through the
        job they merged into.
        """
        assert self.store is not None
        for entry in self.store.pending_jobs():
            job_id = entry["job_id"]
            try:
                response = self.submit_mine(
                    entry["request"], _replay_job_id=job_id
                )
            except ServiceError as error:
                # The stored request was validated when first accepted;
                # a rejected replay means the store was edited or the
                # schema moved.  Fail the job visibly instead of
                # resurrecting it forever.
                self.store.apply_snapshot({
                    "job_id": job_id,
                    "status": FAILED,
                    "error": f"replay rejected: {error}",
                    "finished_at": time.time(),
                })
                continue
            if response.get("cached"):
                self.store.mark_finished_from_result(job_id, response["key"])
            elif response.get("deduplicated"):
                self.store.mark_proxy(job_id, response["job_id"])
            self.telemetry.increment("mine_jobs_recovered")

    def job_status(self, job_id: str) -> dict:
        try:
            # Snapshot under the queue lock: a poller must never observe
            # a torn pair such as status "running" with a result already
            # attached (or "done" without one).
            return self.jobs.snapshot(job_id)
        except KeyError:
            pass
        # Jobs from previous process incarnations live only in the store.
        if self.store is not None:
            stored = self.store.get_job(job_id)
            if stored is not None:
                proxy = stored.pop("proxy_for", None)
                if proxy is not None and stored["status"] in (QUEUED, RUNNING):
                    try:
                        live = dict(self.jobs.snapshot(proxy))
                    except KeyError:
                        live = self.store.get_job(proxy)
                    if live is not None:
                        live.pop("proxy_for", None)
                        live["job_id"] = job_id
                        live["deduplicated_into"] = proxy
                        return live
                return stored
        raise ServiceError(404, f"unknown job {job_id!r}")

    def cancel_job(self, job_id: str) -> dict:
        try:
            self.jobs.cancel(job_id)
            payload = self.jobs.snapshot(job_id)
        except KeyError:
            if self.store is not None:
                stored = self.store.get_job(job_id)
                if stored is not None:
                    proxy = stored.get("proxy_for")
                    if proxy is not None and stored["status"] in (
                        QUEUED, RUNNING
                    ):
                        # The replayed job merged into a live one;
                        # cancelling the handle cancels the target.
                        return self.cancel_job(proxy)
                    # Recovery re-enqueues every non-terminal row, so a
                    # store-only job is terminal; cancel is a no-op.
                    stored.pop("result", None)
                    stored.pop("proxy_for", None)
                    return stored
            raise ServiceError(404, f"unknown job {job_id!r}")
        self.telemetry.increment("mine_jobs_cancelled")
        payload.pop("result", None)
        return payload

    # -- lifecycle ---------------------------------------------------------

    def checkpoint(self) -> None:
        """Flush every known job's state and the WAL into the store file."""
        if self.store is not None:
            self.store.checkpoint(self.jobs.snapshots())

    def shutdown(self) -> None:
        """Cancel mining, drain batchers, join every owned thread.

        With a durable store, shutdown also checkpoints: every job's
        final state is flushed, and interrupted mines (queued or
        running, not user-cancelled) are re-armed as ``queued`` so the
        next boot resumes them — a graceful restart loses nothing a
        kill -9 wouldn't.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            batchers = list(self._batchers.values())
        resumable: list[str] = []
        if self.store is not None:
            resumable = [
                snap["job_id"] for snap in self.jobs.snapshots()
                if snap["status"] in (QUEUED, RUNNING)
                and not snap["cancel_requested"]
            ]
        self.jobs.shutdown(cancel_running=True)
        for batcher in batchers:
            batcher.close()
        if self.store is not None:
            self.checkpoint()
            for job_id in resumable:
                row = self.store.get_job(job_id)
                # A mine that completed inside the drain window keeps
                # its terminal state; anything interrupted is re-armed.
                if row is not None and row["status"] != DONE:
                    self.store.requeue(job_id)
            self.store.checkpoint()
            self.store.close()


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the shared :class:`RuleService`."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # Headers and body go out as two writes; with Nagle on, the body
    # waits for the client's delayed ACK of the headers (~40 ms).
    disable_nagle_algorithm = True
    # 16 MiB request bound: a scaled paper dataset payload fits easily,
    # and anything bigger is almost certainly a client bug.
    max_body_bytes = 16 * 1024 * 1024

    @property
    def service(self) -> RuleService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            raise ServiceError(400, "malformed Content-Length header")
        if length > self.max_body_bytes:
            raise ServiceError(413, "request body too large")
        if length <= 0:
            raise ServiceError(400, "missing request body")
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ServiceError(400, f"invalid JSON body: {error}")
        if not isinstance(body, dict):
            raise ServiceError(400, "request body must be a JSON object")
        return body

    def _dispatch(self, route: str, fn) -> None:
        start = time.monotonic()
        server = self.server
        with server.inflight_lock:  # type: ignore[attr-defined]
            server.inflight += 1  # type: ignore[attr-defined]
        self.service.telemetry.increment("http_requests")
        try:
            status, payload = fn()
        except ServiceError as error:
            self.service.telemetry.increment("http_errors")
            status, payload = error.status, {"error": str(error)}
        except Exception as error:  # pragma: no cover - defensive
            self.service.telemetry.increment("http_errors")
            status, payload = 500, {"error": f"internal error: {error}"}
        finally:
            with server.inflight_lock:  # type: ignore[attr-defined]
                server.inflight -= 1  # type: ignore[attr-defined]
        self._send_json(status, payload)
        # Per-route latency under a normalized label (ids collapsed to
        # '*') so /metrics exposes one histogram per endpoint, not per
        # job.  Both front ends use the same label family.
        self.service.telemetry.observe(
            f"route_seconds:{route}", time.monotonic() - start
        )

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._dispatch("GET /healthz",
                           lambda: (200, self.service.health()))
        elif path == "/metrics":
            self._dispatch("GET /metrics",
                           lambda: (200, self.service.metrics()))
        elif path == "/models":
            self._dispatch("GET /models",
                           lambda: (200, self.service.list_models()))
        elif path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            self._dispatch("GET /jobs/*",
                           lambda: (200, self.service.job_status(job_id)))
        else:
            self._send_json(404, {"error": f"no route for GET {path}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/models":
            self._dispatch(
                "POST /models",
                lambda: (201, self.service.register_model(self._read_json())),
            )
        elif path == "/classify":
            self._dispatch(
                "POST /classify",
                lambda: (200, self.service.classify(self._read_json())),
            )
        elif path == "/mine":
            self._dispatch(
                "POST /mine",
                lambda: (202, self.service.submit_mine(self._read_json())),
            )
        else:
            self._send_json(404, {"error": f"no route for POST {path}"})

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/")
        if path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            self._dispatch("DELETE /jobs/*",
                           lambda: (200, self.service.cancel_job(job_id)))
        else:
            self._send_json(404, {"error": f"no route for DELETE {path}"})


class ReproServer:
    """A :class:`RuleService` behind a stdlib threading HTTP server.

    Args:
        host/port: bind address; port 0 picks an ephemeral port (read it
            back from :attr:`port` — the e2e tests rely on this).
        service: an existing facade to serve; one is built from the
            remaining keyword arguments when omitted.
        verbose: log one line per request to stderr.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        service: Optional[RuleService] = None,
        verbose: bool = False,
        **service_kwargs,
    ) -> None:
        self.service = service if service is not None else RuleService(
            **service_kwargs
        )
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        # Handler threads are short-lived; daemonize them so an in-flight
        # response cannot wedge shutdown, and join workers we own instead.
        self._httpd.daemon_threads = True
        self._httpd.service = self.service  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._httpd.inflight = 0  # type: ignore[attr-defined]
        self._httpd.inflight_lock = threading.Lock()  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ReproServer":
        """Serve in a background thread; returns once the socket listens."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve",
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        try:
            self._httpd.serve_forever(poll_interval=0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self, grace_seconds: float = 0.0) -> None:
        """Graceful shutdown: jobs cancelled, threads joined, socket closed.

        ``grace_seconds`` bounds a drain phase between "stop accepting"
        and "tear the service down": in-flight handler threads get that
        long to finish writing responses.  The default of 0 preserves
        the immediate-stop behaviour the unit tests rely on; ``repro
        serve`` passes its ``--grace-seconds``.
        """
        self._httpd.shutdown()
        if grace_seconds > 0:
            deadline = time.monotonic() + grace_seconds
            while time.monotonic() < deadline:
                with self._httpd.inflight_lock:  # type: ignore[attr-defined]
                    inflight = self._httpd.inflight  # type: ignore[attr-defined]
                if inflight == 0:
                    break
                time.sleep(0.01)
        # Shutdown checkpoints the job store (when configured) and
        # re-arms interrupted mines for the next boot.
        self.service.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
