"""Thread-pool job queue for long-running mining requests.

``/mine`` requests can run for seconds to minutes, far past what an HTTP
round-trip should hold open, so the server submits them here and hands
the client a job id to poll.  The design leans on machinery the miners
already have:

* **cancellation** is cooperative — every job gets a
  :class:`threading.Event` that the mining loop polls through the
  ``cancel`` budget hook of :func:`repro.core.enumeration.run_enumeration`
  (same stride as the wall-clock deadline), so a cancelled job stops
  within a few dozen enumeration nodes;
* **budgets** — node and wall-clock caps from
  :func:`~repro.core.topk_miner.mine_topk` — bound each job regardless of
  client behaviour.

The queue's worker *threads* dispatch and supervise jobs; a hybrid
mine's partitions can run in worker *processes* when the service is
configured with ``mine_jobs`` > 1 (see :class:`~repro.service.server.
RuleService`), in which case a job thread blocks on the process pool of
:mod:`repro.parallel` while other threads keep serving requests — the
GIL is only held for dispatch and aggregation, not for mining.
Cooperative cancellation composes: the job's cancel event is bridged
into the pool by a watcher thread.

Worker threads are deliberately *non-daemon*: :meth:`JobQueue.shutdown`
must be able to prove a clean exit (the tests assert no non-daemon
threads survive it), and daemon threads would just hide leaks.
"""

from __future__ import annotations

import collections
import itertools
import queue
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..errors import ReproError

__all__ = ["Job", "JobCancelled", "JobQueue"]

# Job lifecycle: queued -> running -> {done, failed, cancelled};
# queued jobs may go straight to cancelled.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

# Finished jobs the queue keeps for polling, oldest dropped first.  Each
# holds its result, so an unbounded table grows with every mine; a
# dropped job is answered from the durable store when there is one.
MAX_FINISHED_JOBS = 256


class JobCancelled(ReproError):
    """Raised inside a job function to acknowledge a cancellation."""


@dataclass
class Job:
    """One submitted unit of work and its observable state."""

    job_id: str
    status: str = QUEUED
    result: Any = None
    error: Optional[str] = None
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    cancel_event: threading.Event = field(default_factory=threading.Event)
    _done: threading.Event = field(default_factory=threading.Event)

    def describe(self) -> dict:
        """JSON-safe status (without the result payload).

        Job fields are mutated by the queue's worker threads under the
        queue lock; callers that need an atomic view of a possibly
        still-running job (e.g. a status poller that must not see a
        terminal result paired with a non-terminal status) should go
        through :meth:`JobQueue.snapshot` instead of reading fields off
        a live job directly.
        """
        return {
            "job_id": self.job_id,
            "status": self.status,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "cancel_requested": self.cancel_event.is_set(),
        }

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._done.wait(timeout)


class JobQueue:
    """FIFO queue of jobs executed by a fixed pool of worker threads.

    Args:
        workers: worker thread count.  Mining is CPU-bound pure Python,
            so a small pool (default 2) keeps the GIL contention low
            while still overlapping mining with request handling.
        start_id: first numeric job id to hand out.  A durable service
            seeds this past the ids in its :class:`~repro.service.store.
            JobStore` so resurrected and fresh jobs never collide.
        observer: called with a :meth:`snapshot`-shaped dict after every
            job transition (queued, running, terminal), outside the
            queue lock — the durability hook.  Notifications for one job
            may arrive out of order for sub-millisecond jobs; consumers
            must treat terminal states as final.

    The queue keeps the :data:`MAX_FINISHED_JOBS` most recently
    finished jobs; an older one is dropped from the table and
    :meth:`get`/:meth:`snapshot` raise KeyError for it.
    """

    def __init__(
        self,
        workers: int = 2,
        name: str = "repro-miner",
        start_id: int = 1,
        observer: Optional[Callable[[dict], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._jobs: dict[str, Job] = {}
        self._finished: "collections.deque[Job]" = collections.deque()
        self._job_fns: dict[str, Callable[[Job], Any]] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(max(1, start_id))
        self._observer = observer
        self._closed = False
        self._threads = [
            threading.Thread(target=self._worker, name=f"{name}-{index}")
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- client surface ----------------------------------------------------

    @property
    def workers(self) -> int:
        """Size of the worker thread pool."""
        return len(self._threads)

    def next_id(self) -> str:
        """Reserve and return a fresh job id without submitting.

        A durable service records a job in its store *before* the queue
        can start running it (otherwise a fast job's transitions would
        race the insert); reserving the id first makes that ordering
        possible.
        """
        return f"job-{next(self._ids)}"

    def submit(
        self, fn: Callable[[Job], Any], job_id: Optional[str] = None
    ) -> Job:
        """Enqueue ``fn`` and return its job handle immediately.

        ``fn`` receives the :class:`Job` (so it can poll
        ``job.cancel_event``) and its return value becomes
        ``job.result``.  Raising :class:`JobCancelled` marks the job
        cancelled instead of failed.  ``job_id`` resurrects a specific
        id (restart recovery re-enqueues a stored job under the id its
        client is already polling); fresh submissions leave it None.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("job queue is shut down")
            if job_id is None:
                job_id = f"job-{next(self._ids)}"
            elif job_id in self._jobs:
                raise ValueError(f"job id {job_id!r} already exists")
            job = Job(job_id=job_id)
            self._jobs[job.job_id] = job
            self._job_fns[job.job_id] = fn
        self._queue.put(job)
        self._notify(job)
        return job

    def get(self, job_id: str) -> Job:
        """Look up a job by id; raises KeyError for unknown ids."""
        with self._lock:
            return self._jobs[job_id]

    def snapshot(self, job_id: str) -> dict:
        """Atomic :meth:`Job.describe` + result under the queue lock.

        All job-field mutations happen while the queue lock is held, so
        holding it across the read guarantees the returned status and
        result belong to one consistent state.  Raises KeyError for
        unknown ids.
        """
        with self._lock:
            job = self._jobs[job_id]
            payload = job.describe()
            if job.result is not None:
                payload["result"] = job.result
            return payload

    def snapshots(self) -> list[dict]:
        """Atomic snapshot of every known job (for store checkpoints)."""
        with self._lock:
            payloads = []
            for job in self._jobs.values():
                payload = job.describe()
                if job.result is not None:
                    payload["result"] = job.result
                payloads.append(payload)
            return payloads

    def cancel(self, job_id: str) -> Job:
        """Request cancellation of a job.

        A still-queued job is cancelled immediately; a running job has
        its cancel event set and transitions once the mining loop
        notices.  Terminal jobs are returned unchanged.
        """
        job = self.get(job_id)
        with self._lock:
            if job.status == QUEUED:
                self._finish(job, CANCELLED, error="cancelled before start")
            job.cancel_event.set()
        self._notify(job)
        return job

    def describe(self) -> dict:
        """JSON-safe queue summary for ``/metrics``."""
        with self._lock:
            by_status: dict[str, int] = {}
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
            return {
                "workers": len(self._threads),
                "jobs": len(self._jobs),
                "by_status": dict(sorted(by_status.items())),
            }

    def shutdown(self, cancel_running: bool = True) -> None:
        """Stop accepting work, drain the pool, join every worker.

        Queued jobs are cancelled; running jobs are cancelled too when
        ``cancel_running`` (otherwise they finish).  Idempotent, and on
        return no worker thread is alive.
        """
        changed: list[Job] = []
        with self._lock:
            if self._closed:
                already_closed = True
            else:
                already_closed = False
                self._closed = True
                for job in list(self._jobs.values()):
                    if job.status == QUEUED:
                        self._finish(job, CANCELLED, error="queue shut down")
                        job.cancel_event.set()
                        changed.append(job)
                    elif job.status == RUNNING and cancel_running:
                        job.cancel_event.set()
        for job in changed:
            self._notify(job)
        if not already_closed:
            for _ in self._threads:
                self._queue.put(None)
        for thread in self._threads:
            thread.join()

    # -- worker loop -------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            with self._lock:
                if job.status != QUEUED:  # cancelled while waiting
                    self._job_fns.pop(job.job_id, None)
                    continue
                job.status = RUNNING
                job.started_at = time.time()
                fn = self._job_fns.pop(job.job_id)
            self._notify(job)
            try:
                try:
                    result = fn(job)
                except JobCancelled as stop:
                    with self._lock:
                        self._finish(job, CANCELLED,
                                     error=str(stop) or "cancelled")
                except Exception:
                    with self._lock:
                        self._finish(job, FAILED, error=traceback.format_exc())
                except BaseException:
                    # A job fn raising SystemExit (or any other bare
                    # BaseException) must not kill the worker thread:
                    # pre-fix it propagated, the thread died, the job
                    # stayed RUNNING forever (wait() hung) and the queue
                    # silently lost a worker.  Fail the job and keep
                    # serving.  (threading would swallow SystemExit from
                    # a non-main thread anyway — exiting is not an option
                    # here, only dying uselessly was.)
                    with self._lock:
                        self._finish(job, FAILED, error=traceback.format_exc())
                else:
                    with self._lock:
                        if job.cancel_event.is_set():
                            # The function returned a partial result after
                            # a cooperative stop; keep it but mark the
                            # outcome.
                            job.result = result
                            self._finish(job, CANCELLED, error="cancelled")
                        else:
                            job.result = result
                            self._finish(job, DONE)
            finally:
                # Backstop: no code path may leave the job non-terminal —
                # wait() blocks on _done, and a stuck RUNNING job would
                # pin its cache/inflight bookkeeping forever.
                with self._lock:
                    if not job._done.is_set():
                        self._finish(
                            job, FAILED,
                            error="job ended without a terminal transition",
                        )
                # One notification covers whichever terminal transition
                # the try-arms above performed.
                self._notify(job)

    def _notify(self, job: Job) -> None:
        """Deliver one observer notification for ``job``'s current state.

        The snapshot is taken under the lock (consistent status/result
        pair) but the observer runs outside it: a persistence hook doing
        disk I/O must not serialize the whole queue, and must never be
        able to deadlock against submit/cancel paths that also notify.
        """
        if self._observer is None:
            return
        with self._lock:
            payload = job.describe()
            if job.result is not None:
                payload["result"] = job.result
        try:
            self._observer(payload)
        except Exception:  # pragma: no cover - defensive
            # A broken durability hook (disk full, closed store) must
            # degrade to in-memory-only serving, not kill the worker.
            traceback.print_exc()

    def _finish(
        self, job: Job, status: str, error: Optional[str] = None
    ) -> None:
        """Transition a job to a terminal state (caller holds the lock).

        The oldest finished jobs beyond :data:`MAX_FINISHED_JOBS` leave
        the table.
        """
        job.status = status
        job.error = error
        job.finished_at = time.time()
        self._job_fns.pop(job.job_id, None)
        job._done.set()
        self._finished.append(job)
        while len(self._finished) > MAX_FINISHED_JOBS:
            oldest = self._finished.popleft()
            if self._jobs.get(oldest.job_id) is oldest:
                del self._jobs[oldest.job_id]
