"""The serving layer's transport-free core, :class:`RuleService`.

:class:`RuleService` owns the model registry, the content-addressed
mining cache, the mining job queue and the telemetry registry, and
exposes plain-dict operations (``resolve_classify``, ``submit_mine``,
``job_status``...).  Embed it directly in another process, or put a
transport in front of it: :class:`~repro.service.aio.AsyncReproServer`,
the asyncio front end ``repro serve`` runs, serves it over JSON and
coalesces ``/classify`` rows into ``predict_batch`` calls.

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

import math
import threading
import time
from typing import Optional

import numpy as np

from ..core.bitset import iter_indices
from ..core.enumeration import ENGINES
from ..core.hybrid import auto_strategy_stats, resolve_strategy
from ..core.topk_miner import TopkResult, mine_topk, relative_minsup
from ..data.dataset import GeneExpressionDataset
from ..data.loaders import discretized_from_payload
from ..parallel import AUTO_JOBS, pool_stats
from .cache import MiningCache, dataset_fingerprint, mining_key
from .jobs import DONE, FAILED, QUEUED, RUNNING, JobQueue
from .registry import ModelRecord, ModelRegistry
from .store import JobStore
from .telemetry import BATCH_SIZE_BUCKETS, Telemetry

__all__ = ["RuleService", "ServiceError", "topk_result_to_payload"]


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
    disables the budget.  Anything non-numeric, non-finite (``NaN`` and
    ``Infinity`` parse as floats and would disable the deadline) or
    non-positive is rejected here with a 400 instead of reaching
    ``mine_topk`` on the worker thread.
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
    if isinstance(value, float) and not math.isfinite(value):
        raise ServiceError(400, f"'{name}' must be finite, got {value}")
    if value <= 0:
        raise ServiceError(400, f"'{name}' must be positive, got {value}")
    return value if integral else float(value)


def _is_int(value) -> bool:
    """True for a JSON integer (``bool`` is an ``int`` subclass; not here)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _validate_int(body: dict, name: str, default) -> int:
    """An integer field of a ``/mine`` body (``default`` when missing).

    JSON booleans, floats and strings are rejected with a 400 instead of
    being truncated by ``int()`` or failing on the worker thread.
    """
    value = body.get(name, default)
    if not _is_int(value):
        raise ServiceError(400, f"'{name}' must be an integer, got {value!r}")
    return value


def _validate_rows(rows) -> list[frozenset[int]]:
    """The ``rows`` field of a ``/classify`` body as item-id sets.

    Each row is a list of non-negative integer item ids.  Anything else
    is a 400 here: a bool or float would otherwise be truncated into a
    wrong item, and a negative id would fail ``predict_batch`` for every
    request coalesced into the same batch.
    """
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(_is_int(i) and i >= 0 for i in row)
        for row in rows
    ):
        raise ServiceError(
            400, "'rows' must be lists of non-negative integer item ids"
        )
    return [frozenset(row) for row in rows]


class RuleService:
    """Transport-free serving facade over registry, cache and job queue.

    Args:
        models_dir: when given, the registry persists there and warm
            starts from it.
        cache_bytes: byte bound of the mining cache.
        mining_workers: worker threads of the mining job queue.
        mine_jobs: worker *processes* each mining job may use (the cap
            for per-request ``n_jobs``).  Only a hybrid mine (``strategy``
            ``hybrid``, or ``auto`` resolving to it) has independent
            units to spread: more than 1 hands its partitions to the
            warm process pool of :mod:`repro.parallel`, so they no
            longer serialize behind the GIL; ``"auto"`` lets the
            adaptive planner choose per workload.  A direct mine is one
            enumeration and always runs in the job thread.  Results are
            bit-identical either way, so the mining cache key is
            unaffected.
        node_budget / time_budget: default per-job mining budgets
            (overridable per request).
        batch_rows / batch_delay: how many ``/classify`` rows the front
            end coalesces into one ``predict_batch`` call, and how long
            it waits for them.
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
        durable.  The HTTP front end adds its admission state on top
        (it reports — and 503s — while shedding).
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

    def resolve_classify(
        self, body: dict
    ) -> tuple[ModelRecord, list[frozenset[int]]]:
        """Validate a ``/classify`` body into ``(record, itemized rows)``.

        A missing or ``null`` ``version`` means the newest one.  The
        front end feeds the rows to its coalescer for ``predict_batch``.
        """
        name = body.get("model")
        if not isinstance(name, str):
            raise ServiceError(400, "body must carry 'model' (string)")
        version = body.get("version")
        if version is not None and not _is_int(version):
            raise ServiceError(
                400, f"'version' must be an integer or null, got {version!r}"
            )
        try:
            record = self.registry.get(name, version)
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
            rows = _validate_rows(rows)
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
        """Telemetry for one completed classify request."""
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
            discretizer = record.discretizer
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
        # Resolve "auto" before keying: the cache/store key records what
        # actually ran, so auto requests deduplicate with explicit
        # requests for the same concrete strategy and replays never
        # re-plan.
        try:
            strategy = resolve_strategy(
                body.get("strategy", "direct"), dataset.n_rows
            )
        except ValueError as error:
            raise ServiceError(400, str(error))
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
            if not _is_int(n_jobs):
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
        """Cancel mining and join every owned thread.

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
        resumable: list[str] = []
        if self.store is not None:
            resumable = [
                snap["job_id"] for snap in self.jobs.snapshots()
                if snap["status"] in (QUEUED, RUNNING)
                and not snap["cancel_requested"]
            ]
        self.jobs.shutdown(cancel_running=True)
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
