"""Durable SQLite-backed job + result store for the serving layer.

PR 1's :class:`~repro.service.jobs.JobQueue` keeps jobs only in memory:
restart ``repro serve`` (deploy, crash, OOM kill) and every queued or
running mine is gone, along with every finished result a client might
still poll for.  This module makes the job registry durable without
changing the queue itself:

* **jobs** — one row per submitted mine: status, timestamps, error, the
  *normalized* request fields (minsup resolved, budgets validated) with
  the request text as received, whose dataset the job re-mines verbatim
  after a restart, and the mining key that names its result.
* **results** — finished payloads, content-addressed by the same
  ``(dataset fingerprint, consequent, minsup, k, engine)`` key the
  in-memory :class:`~repro.service.cache.MiningCache` uses.  Identical
  re-mines after a restart are answered from here without re-running
  the kernels, and mining is deterministic so the stored payload is
  bit-identical to what a fresh mine would produce.  Only a completed
  payload answers another request, as in the cache: a result a node or
  time budget cut short is stored under its job's own key
  (``<mining key>#<job id>``), where ``/jobs/<id>`` still finds it.

The database runs in WAL mode: the service's writer threads (job
transitions) never block ``/jobs/<id>`` readers, and a process kill
mid-transaction leaves a consistent file for the next boot.  On boot,
:meth:`JobStore.pending_jobs` lists every job that was queued or running
when the previous process died; :class:`~repro.service.server.
RuleService` re-enqueues them under their *original* job ids, so clients
polling across the restart never see their job vanish.

All access goes through one connection behind a lock — the write rate is
a few rows per mine, far below where SQLite's own locking would matter,
and a single serialized connection sidesteps every cross-thread caveat
of the :mod:`sqlite3` driver.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Optional, Union

from .cache import encode_json

__all__ = ["JobStore"]

# Job statuses mirrored from repro.service.jobs; duplicated literals
# would drift, but importing jobs here would be circular once jobs
# learns about persistence hooks, so keep the tiny terminal set local.
_TERMINAL = ("done", "failed", "cancelled")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id       TEXT PRIMARY KEY,
    status       TEXT NOT NULL,
    mining_key   TEXT NOT NULL,
    request      TEXT NOT NULL,
    error        TEXT,
    submitted_at REAL NOT NULL,
    started_at   REAL,
    finished_at  REAL,
    result_key   TEXT,
    proxy_for    TEXT
);
CREATE TABLE IF NOT EXISTS results (
    result_key TEXT PRIMARY KEY,
    payload    TEXT NOT NULL,
    created_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS jobs_status ON jobs (status);
"""


class JobStore:
    """Durable registry of mining jobs and their content-addressed results.

    Args:
        path: SQLite database file.  Parent directories are created;
            ``journal_mode=WAL`` is enabled on open (a ``-wal``/``-shm``
            sidecar pair appears next to the file while a server runs).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            str(self.path), check_same_thread=False, timeout=30.0
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    # -- writes ------------------------------------------------------------

    def record_submitted(
        self,
        job_id: str,
        mining_key: str,
        request: dict,
        submitted_at: Optional[float] = None,
        body: Optional[str] = None,
    ) -> None:
        """Insert a freshly queued job (idempotent for replays).

        ``request`` holds the normalized fields.  ``body``, when given,
        is the ``/mine`` request text exactly as received; it is spliced
        into the stored request under ``"body"`` without being decoded
        or encoded again, and :meth:`pending_jobs` takes the dataset
        from it.  A caller without the text puts ``items`` in
        ``request`` instead.

        A replayed job (re-enqueued on boot) keeps its original
        ``submitted_at`` and request, and has its status reset to
        ``queued`` under the mining key the replay computed (a row an
        older fingerprint form keyed is re-keyed); a brand-new id
        inserts a full row.
        """
        now = time.time() if submitted_at is None else submitted_at
        with self._lock, self._conn:
            updated = self._conn.execute(
                "UPDATE jobs SET status='queued', mining_key=?, error=NULL,"
                " started_at=NULL, finished_at=NULL WHERE job_id=?",
                (mining_key, job_id),
            ).rowcount
            if not updated:
                text = json.dumps(request, separators=(",", ":"))
                if body is not None:
                    text = (text[:-1] + ("," if request else "")
                            + '"body":' + body + "}")
                self._conn.execute(
                    "INSERT INTO jobs (job_id, status, mining_key, request,"
                    " submitted_at) VALUES (?, 'queued', ?, ?, ?)",
                    (job_id, mining_key, text, now),
                )

    def apply_snapshot(self, snapshot: dict) -> None:
        """Persist one job-queue transition (a ``JobQueue.snapshot`` dict).

        Unknown job ids are ignored (only mining jobs are durable), and a
        terminal row is never regressed to a non-terminal status — the
        queue notifies outside its lock, so a ``running`` notification
        can arrive after ``done`` for a very fast job.  A result that
        did not complete is keyed to this job alone.
        """
        job_id = snapshot.get("job_id")
        status = snapshot.get("status")
        if not job_id or not status:
            return
        with self._lock, self._conn:
            row = self._conn.execute(
                "SELECT status, mining_key FROM jobs WHERE job_id=?",
                (job_id,),
            ).fetchone()
            if row is None or row[0] in _TERMINAL:
                return
            result_key = None
            result = snapshot.get("result")
            if status == "done" and result is not None:
                result_key = row[1]
                if not result.get("completed", True):
                    result_key = f"{result_key}#{job_id}"
                self._conn.execute(
                    "INSERT OR IGNORE INTO results (result_key, payload,"
                    " created_at) VALUES (?, ?, ?)",
                    (result_key,
                     encode_json(result, separators=(",", ":")),
                     time.time()),
                )
            self._conn.execute(
                "UPDATE jobs SET status=?, error=?, started_at=?,"
                " finished_at=?, result_key=COALESCE(?, result_key)"
                " WHERE job_id=?",
                (status, snapshot.get("error"), snapshot.get("started_at"),
                 snapshot.get("finished_at"), result_key, job_id),
            )

    def mark_proxy(self, job_id: str, inflight_job_id: str) -> None:
        """Record that a replayed job deduplicated onto a live job.

        The replayed id stays pollable: :meth:`get_job` reports the
        proxy target so the service can forward status reads to it.
        """
        with self._lock, self._conn:
            self._conn.execute(
                "UPDATE jobs SET proxy_for=? WHERE job_id=?",
                (inflight_job_id, job_id),
            )

    def mark_finished_from_result(self, job_id: str, result_key: str) -> None:
        """Terminal ``done`` transition for a job answered from storage."""
        with self._lock, self._conn:
            self._conn.execute(
                "UPDATE jobs SET status='done', result_key=?, finished_at=?"
                " WHERE job_id=? AND status NOT IN (?, ?, ?)",
                (result_key, time.time(), job_id, *_TERMINAL),
            )

    def requeue(self, job_id: str) -> None:
        """Re-arm a job as ``queued`` for the next boot to resume.

        Graceful shutdown applies this to mines it interrupted (after
        checkpointing their transient cancelled state), so a rolling
        restart behaves like a crash recovery: nothing queued or running
        is lost.
        """
        with self._lock, self._conn:
            self._conn.execute(
                "UPDATE jobs SET status='queued', error=NULL,"
                " started_at=NULL, finished_at=NULL, proxy_for=NULL"
                " WHERE job_id=?",
                (job_id,),
            )

    # -- reads -------------------------------------------------------------

    def get_result(self, result_key: str) -> Optional[dict]:
        """Completed stored payload for a mining key, or None.

        A payload that did not complete never answers: stores written
        before truncated results were keyed per job may hold one here.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM results WHERE result_key=?",
                (result_key,),
            ).fetchone()
        payload = json.loads(row[0]) if row else None
        if payload is None or not payload.get("completed", True):
            return None
        return payload

    def get_job(self, job_id: str) -> Optional[dict]:
        """Snapshot-shaped view of a stored job (result inlined when done)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT job_id, status, error, submitted_at, started_at,"
                " finished_at, result_key, proxy_for FROM jobs"
                " WHERE job_id=?",
                (job_id,),
            ).fetchone()
            payload_row = None
            if row is not None and row[6] is not None:
                payload_row = self._conn.execute(
                    "SELECT payload FROM results WHERE result_key=?",
                    (row[6],),
                ).fetchone()
        if row is None:
            return None
        snapshot = {
            "job_id": row[0],
            "status": row[1],
            "error": row[2],
            "submitted_at": row[3],
            "started_at": row[4],
            "finished_at": row[5],
        }
        if row[7] is not None:
            snapshot["proxy_for"] = row[7]
        if payload_row is not None:
            snapshot["result"] = json.loads(payload_row[0])
        return snapshot

    def pending_jobs(self) -> list[dict]:
        """Jobs a dead process left queued or running, oldest first.

        Each entry carries the normalized ``request`` body needed to
        re-mine it verbatim, with ``items`` taken from the stored
        request text when :meth:`record_submitted` was given one.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT job_id, mining_key, request, submitted_at FROM jobs"
                " WHERE status IN ('queued', 'running') AND proxy_for IS NULL"
                " ORDER BY submitted_at, job_id",
            ).fetchall()
        pending = []
        for job_id, mining_key, text, submitted_at in rows:
            request = json.loads(text)
            body = request.pop("body", None)
            if body is not None:
                request["items"] = body.get("items")
            pending.append({
                "job_id": job_id,
                "mining_key": mining_key,
                "request": request,
                "submitted_at": submitted_at,
            })
        return pending

    def max_job_number(self) -> int:
        """Largest numeric suffix among stored ``job-N`` ids (0 if none).

        Seeds the queue's id counter after a restart so resurrected and
        brand-new jobs can never collide on an id.
        """
        with self._lock:
            rows = self._conn.execute("SELECT job_id FROM jobs").fetchall()
        best = 0
        for (job_id,) in rows:
            _, _, suffix = job_id.rpartition("-")
            if suffix.isdigit():
                best = max(best, int(suffix))
        return best

    def stats(self) -> dict:
        """JSON-safe counters for ``/metrics`` and ``/healthz``."""
        with self._lock:
            by_status = dict(self._conn.execute(
                "SELECT status, COUNT(*) FROM jobs GROUP BY status"
            ).fetchall())
            results = self._conn.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()[0]
        return {
            "path": str(self.path),
            "jobs": sum(by_status.values()),
            "by_status": dict(sorted(by_status.items())),
            "results": results,
        }

    # -- lifecycle ---------------------------------------------------------

    def checkpoint(self, snapshots: Optional[list[dict]] = None) -> None:
        """Flush queue state and the WAL to the main database file.

        ``snapshots`` (when given) are applied first — graceful shutdown
        passes every known queue job so the file records exactly what
        the process knew at exit; kill -9 skips this and the next boot
        re-enqueues whatever stayed ``queued``/``running``.
        """
        for snapshot in snapshots or ():
            self.apply_snapshot(snapshot)
        with self._lock:
            self._conn.commit()
            self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def close(self) -> None:
        with self._lock:
            self._conn.commit()
            self._conn.close()
