"""Embeddable rule-mining & classification serving layer.

Turns the one-shot library into a long-running server: a named model
registry (:mod:`.registry`), a content-addressed mining cache
(:mod:`.cache`), a cancellable mining job queue (:mod:`.jobs`), request
telemetry (:mod:`.telemetry`), a durable SQLite-WAL job + result store
(:mod:`.store`), the transport-free :class:`RuleService` core
(:mod:`.server`) and the batch-coalescing asyncio JSON-over-HTTP front
end (:mod:`.aio`) that ``repro serve`` runs.
"""

from .aio import AsyncReproServer
from .cache import MiningCache, dataset_fingerprint, mining_key
from .jobs import Job, JobCancelled, JobQueue
from .registry import ModelRecord, ModelRegistry
from .server import RuleService, ServiceError, topk_result_to_payload
from .store import JobStore
from .telemetry import LatencyHistogram, Telemetry

__all__ = [
    "AsyncReproServer",
    "Job",
    "JobStore",
    "JobCancelled",
    "JobQueue",
    "LatencyHistogram",
    "MiningCache",
    "ModelRecord",
    "ModelRegistry",
    "RuleService",
    "ServiceError",
    "Telemetry",
    "dataset_fingerprint",
    "mining_key",
    "topk_result_to_payload",
]
