"""Process-pool mining over independent units.

MineTopkRGS prunes with *dynamic* thresholds (Section 3, Eq. 1-2):
every group it finds can tighten the per-row bounds that prune the rest
of the Figure 2 row enumeration tree.  A row shard of that tree cannot
see what the other shards have found, so row-sharded top-k visits more
nodes than the serial walk and loses to it (DESIGN.md §7).  One top-k
enumeration therefore always runs in one process, and this module
parallelises only units that share nothing.  A unit is a *job*: a
picklable object whose ``run(dataset, cancel, time_budget)`` mines it
and returns ``(payload, stats)``.  The pool never looks inside a job,
so the three kinds of unit live with the miners they belong to:

* **whole top-k mines, one per request** (:class:`MineRequest`, batched
  by :func:`mine_topk_requests`): RCBT's per-class fit mines each class
  as one unit.  The job calls :func:`~repro.core.topk_miner.mine_topk`
  itself, so nothing is merged and every result, ``stats`` included, is
  the serial one;
* **FARMER row shards** (:class:`~repro.baselines.farmer.FarmerShard`,
  from ``mine_farmer(n_jobs=)``).  FARMER's thresholds are static, so
  :func:`plan_shards` splits the first enumeration level into position
  bitsets (singleton shards for the large early subtrees, contiguous
  chunks for the long tail), each is mined with ``run_enumeration(...,
  first_rows=shard)``, and the shard outputs concatenate in ascending
  shard order into exactly the serial emission order;
* **hybrid partitions** (:class:`~repro.core.hybrid.HybridPartitionRequest`):
  the column partitions of :mod:`repro.core.hybrid` are whole,
  independent mines.

Every unit runs through one runner, :func:`run_jobs`.  With one worker
or one job it runs the jobs in order in the calling process, each with
the time left before one shared deadline and the caller's ``cancel``
polled directly.  Otherwise it runs them on a persistent
:class:`MinerPool` (DESIGN.md §9): worker processes are started once and
kept warm across mining calls, so repeated mines — RCBT's per-class
requests, the bench harness — pay the fork/spawn tax once instead of per
call.  Datasets ship with each task as a pickled blob tagged by an
identity token; workers cache the last few decoded datasets by token, so
every job (and every later request over the same dataset) after the
first decodes nothing and reuses the worker-side memoized
:meth:`~repro.core.view.MiningView.cached` views.  The entry points only
build jobs and merge outputs.

:func:`~repro.core.planner.plan` (re-exported here) resolves every
entry point's ``n_jobs``.  ``n_jobs="auto"`` asks it to choose between
serial and parallel execution: it estimates the work from the support
mass (the summed row counts of the frequent items) and falls back to
serial below a calibrated threshold where warm-pool dispatch would eat
the speedup.

Deviation: FARMER's ``node_budget`` is applied per shard rather than
globally (a shared atomic counter would serialize the workers);
``time_budget`` and ``cancel`` are global, bridged into the workers
through a slot of a shared flag array polled on the same
:data:`~repro.core.enumeration.POLL_STRIDE` node stride as the serial
budget checks.

Fault tolerance (DESIGN.md §10): worker death — an OOM kill, a segfault,
a container runtime reaping a process — is a retried, observable event,
not a request-killing one.  :func:`run_jobs` supervises job futures as
they complete; when the process pool breaks it heals the pool through
the generation-replacement machinery of :class:`MinerPool` and resubmits
only the failed jobs, with capped attempts and exponential backoff,
before degrading losslessly to the in-process loop (the output is
bit-identical regardless of where a job ran; ``stats.degraded`` marks
each output that loop produced).  Every recovery path is
exercised deterministically through :class:`FaultPlan`, which can kill,
hang, delay, or raise inside a chosen job on a chosen attempt, passed
as ``fault=`` (the CLI's ``mine --fault``).
"""

from __future__ import annotations

import atexit
import itertools
import math
import multiprocessing
import os
import pickle
import signal
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from .core.enumeration import MinerStats
from .core.planner import (
    AUTO_JOBS,
    Plan,
    plan,
    planner_serial_fallbacks,
    resolve_n_jobs,
    usable_cpus,
)
from .core.topk_miner import TopkResult, mine_topk

if TYPE_CHECKING:  # pragma: no cover - import is for annotations only
    from .data.dataset import DiscretizedDataset

__all__ = [
    "AUTO_JOBS",
    "MineRequest",
    "FAULT_ANY",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "MinerPool",
    "Plan",
    "get_pool",
    "shutdown_pool",
    "pool_stats",
    "resolve_n_jobs",
    "plan",
    "plan_shards",
    "merge_stats",
    "mine_topk_requests",
    "results_equal",
    "run_jobs",
    "usable_cpus",
]

# How often (seconds) the parent watcher thread checks the user's cancel
# token and the global deadline.
_WATCH_INTERVAL_SECONDS = 0.02

# Cancellation slots in the pool's shared flag array.  Each concurrent
# run_jobs call that carries a deadline or cancel token leases one slot
# for its lifetime; 64 concurrent cancellable mines per process is far
# beyond what the service's job queue admits.
_POOL_CANCEL_SLOTS = 64

# How long a cancellable call waits for a free slot before degrading to
# watcher-free serial in-process execution (where the caller's token is
# polled directly, so no slot is needed).
_SLOT_WAIT_SECONDS = 1.0

# Crash recovery: total pool attempts per shard before the supervisor
# gives up on the process pool and runs the shard serially in-process.
_MAX_SHARD_ATTEMPTS = 2

# Backoff between resubmission rounds: base * 2**(attempt - 1) seconds.
_RETRY_BACKOFF_SECONDS = 0.05

# Upper bound of a "hang" fault that has no cancel token to wake it —
# keeps a misconfigured fault plan from deadlocking a test suite.
_HANG_CAP_SECONDS = 10.0

# Worker-side cache of decoded datasets, keyed by the parent's identity
# token.  Small: each entry pins a full dataset (and, via the view cache,
# its SupportIndex memos) in every worker.
_WORKER_DATASET_CAP = 4

@dataclass(frozen=True)
class MineRequest:
    """One whole MineTopkRGS mine: a :func:`mine_topk_requests` job.

    The fields are :func:`~repro.core.topk_miner.mine_topk`'s keyword
    arguments of the same names.
    """

    consequent: int
    minsup: int
    k: int = 1
    engine: str = "bitset"
    initialize_single_items: bool = True
    dynamic_minsup: bool = True
    use_topk_pruning: bool = True
    node_budget: Optional[int] = None

    def run(self, dataset: "DiscretizedDataset", cancel=None,
            time_budget: Optional[float] = None):
        """Mine this request; returns ``(result, result.stats)``."""
        result = mine_topk(dataset, **asdict(self), time_budget=time_budget,
                           cancel=cancel)
        return result, result.stats


class InjectedFault(RuntimeError):
    """Raised by a ``raise``-mode :class:`Fault` inside a worker."""


# Recognized fault modes: kill the worker process outright, raise an
# ordinary exception, hang cooperatively until cancelled, or sleep for a
# fixed delay before mining normally.
_FAULT_MODES = ("kill", "raise", "hang", "delay")

# Wildcard shard/attempt in a fault spec ("*" in the string form).
FAULT_ANY = -1


@dataclass(frozen=True)
class Fault:
    """One injected fault: ``mode`` fires on ``(shard, attempt)``.

    ``shard`` is the index of the job within one :func:`run_jobs` call:
    the :func:`plan_shards` index of a FARMER mine, the partition index
    of a hybrid mine, or the request index of :func:`mine_topk_requests`.
    ``attempt`` is the supervisor's resubmission count for that job
    (0 = first run).  Either may be :data:`FAULT_ANY` to match every
    job / attempt.  ``seconds`` parameterizes ``delay`` and ``hang`` and
    must be finite and non-negative (a ``hang`` with no ``seconds`` is
    capped at :data:`_HANG_CAP_SECONDS` so a missing cancel token cannot
    deadlock a test run).
    """

    mode: str
    shard: int = 0
    attempt: int = 0
    seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mode not in _FAULT_MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; expected one of "
                f"{_FAULT_MODES}"
            )
        if self.seconds is not None and not 0 <= self.seconds < math.inf:
            raise ValueError(
                f"fault seconds must be finite and >= 0, got {self.seconds}"
            )

    def matches(self, shard: int, attempt: int) -> bool:
        return (self.shard in (FAULT_ANY, shard)
                and self.attempt in (FAULT_ANY, attempt))


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of :class:`Fault` entries for one mine.

    The string form (accepted by :meth:`parse` and the CLI's ``mine
    --fault``) is ``;``-separated entries of
    ``mode@shard.attempt[:seconds]``, with ``*`` as a shard/attempt
    wildcard::

        kill@0.0              crash the worker mining job 0, attempt 0
        kill@0.0;kill@0.1     ...and again on its retry
        hang@0.0:30           hang job 0 for up to 30 s (or until cancel)
        delay@*.0:0.5         delay every first-attempt job by 0.5 s

    Faults are applied only inside pool worker processes — the runner's
    in-process loop ignores the plan, so a ``kill`` can never take down
    the caller.  This is a testing hook: it exists so every recovery
    path of the supervisor is exercised in CI rather than trusted.
    """

    faults: tuple[Fault, ...] = ()

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        faults = []
        for raw in spec.split(";"):
            raw = raw.strip()
            if not raw:
                continue
            mode, sep, where = raw.partition("@")
            if not sep:
                raise ValueError(
                    f"bad fault entry {raw!r}: expected "
                    "mode@shard.attempt[:seconds]"
                )
            seconds: Optional[float] = None
            if ":" in where:
                where, _, tail = where.partition(":")
                seconds = float(tail)
            shard_text, _, attempt_text = where.partition(".")

            def _index(text: str) -> int:
                return FAULT_ANY if text == "*" else int(text)

            faults.append(
                Fault(
                    mode=mode,
                    shard=_index(shard_text),
                    attempt=_index(attempt_text or "0"),
                    seconds=seconds,
                )
            )
        return cls(tuple(faults))

    def find(self, shard: int, attempt: int) -> Optional[Fault]:
        for fault in self.faults:
            if fault.matches(shard, attempt):
                return fault
        return None


def plan_shards(n_rows: int, n_jobs: int) -> list[int]:
    """Partition the first enumeration level into shard bitsets.

    First-level subtrees shrink steeply with the root position (row ``r``
    can only extend into rows after ``r``), so equal-width chunks would
    leave one worker holding almost the whole tree.  Instead the first
    ``2 * n_jobs`` roots become singleton shards (the big subtrees, each
    individually schedulable) and the remaining roots are split into at
    most ``2 * n_jobs`` contiguous chunks; the executor then balances the
    shards dynamically.

    Returns masks in ascending first-root order; their union is exactly
    ``mask_below(n_rows)`` and they are pairwise disjoint — the invariant
    the merge step relies on.
    """
    if n_rows <= 0:
        return []
    if n_jobs <= 1:
        return [(1 << n_rows) - 1]
    singles = min(n_rows, 2 * n_jobs)
    masks = [1 << position for position in range(singles)]
    rest = n_rows - singles
    if rest > 0:
        n_chunks = min(rest, 2 * n_jobs)
        base, extra = divmod(rest, n_chunks)
        start = singles
        for index in range(n_chunks):
            size = base + (1 if index < extra else 0)
            masks.append(((1 << size) - 1) << start)
            start += size
    return masks


def merge_stats(shard_stats: Sequence[MinerStats], engine: str) -> MinerStats:
    """Combine per-shard counters into one :class:`MinerStats`.

    Node/prune/emit counters sum; ``elapsed_seconds`` is the maximum
    (shards overlap in wall-clock time); ``completed`` is the conjunction.
    FARMER's thresholds are static, so the summed counters are exactly
    the serial ones.  A hybrid mine sums its partitions' counters here
    too, then sets its own ``groups_emitted`` and ``elapsed_seconds``.
    """
    total = MinerStats(engine=engine)
    for stats in shard_stats:
        total.nodes_visited += stats.nodes_visited
        total.groups_emitted += stats.groups_emitted
        total.loose_pruned += stats.loose_pruned
        total.tight_pruned += stats.tight_pruned
        total.backward_pruned += stats.backward_pruned
        total.elapsed_seconds = max(total.elapsed_seconds, stats.elapsed_seconds)
        total.completed = total.completed and stats.completed
        total.degraded = total.degraded or stats.degraded
    return total


# -- worker side -------------------------------------------------------------

# The pool's shared cancellation flag array, installed once per worker by
# _pool_worker_init.  A flag is a plain shared-memory byte, so polling it
# on every POLL_STRIDE-node budget check costs a memory read — no
# semaphore, no throttling, and cancellation latency is bounded by the
# node stride alone.
_WORKER_SLOTS = None

# token -> decoded dataset, most recently used last.
_WORKER_DATASETS: "OrderedDict[str, DiscretizedDataset]" = OrderedDict()


def _pool_worker_init(slots) -> None:
    global _WORKER_SLOTS
    _WORKER_SLOTS = slots
    # A terminal Ctrl-C delivers SIGINT to the whole foreground process
    # group; warm workers idling on the call queue would die with a
    # KeyboardInterrupt traceback each.  Their lifecycle belongs to the
    # parent (MinerPool.close / atexit), so ignore the signal here —
    # cooperative cancellation flows through the slot array, not signals.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (OSError, ValueError):  # non-main thread or exotic platform
        pass


class _SlotCancel:
    """Cancel token reading one slot of the shared flag array."""

    __slots__ = ("_slots", "_index")

    def __init__(self, slots, index: int) -> None:
        self._slots = slots
        self._index = index

    def is_set(self) -> bool:
        return self._slots[self._index] != 0


def _worker_dataset(token: str, blob: bytes) -> "DiscretizedDataset":
    dataset = _WORKER_DATASETS.get(token)
    if dataset is None:
        dataset = pickle.loads(blob)
        _WORKER_DATASETS[token] = dataset
        while len(_WORKER_DATASETS) > _WORKER_DATASET_CAP:
            _WORKER_DATASETS.popitem(last=False)
    else:
        _WORKER_DATASETS.move_to_end(token)
    return dataset


def _apply_fault(fault: Fault, cancel) -> None:
    """Perform one injected fault inside a worker process."""
    if fault.mode == "kill":
        # os._exit skips every handler and atexit hook — the closest
        # in-process stand-in for an OOM kill or a runtime reaping the
        # worker.  The parent sees a BrokenProcessPool.
        os._exit(86)
    if fault.mode == "raise":
        raise InjectedFault(
            f"injected fault on shard {fault.shard} attempt {fault.attempt}"
        )
    if fault.mode == "delay":
        time.sleep(fault.seconds if fault.seconds is not None else 0.05)
        return
    # "hang": spin like a stuck enumeration that still reaches its
    # budget polls — wakes when the cancel slot is set, bounded so a
    # missing token cannot deadlock the run.
    stop_at = time.monotonic() + (
        fault.seconds if fault.seconds is not None else _HANG_CAP_SECONDS
    )
    while time.monotonic() < stop_at:
        if cancel is not None and cancel.is_set():
            return
        time.sleep(0.005)


def _run_shard(job, token: str, blob: bytes, slot: int, shard_index: int = 0,
               attempt: int = 0, fault: Optional[FaultPlan] = None):
    """Worker entry point: run one job; returns its (payload, stats).

    The dataset arrives as ``(token, blob)``: the blob is decoded at most
    once per worker and token, so every job after the first reuses the
    cached dataset and — through ``MiningView.cached`` — the memoized
    view and its ``SupportIndex`` root-level results.  The job gets no
    ``time_budget``: the parent's watcher sets the slot ``cancel``
    reads once the global deadline passes.

    ``shard_index``/``attempt`` identify this execution to the
    ``fault`` plan — production calls carry none and pay a single
    ``None`` check.
    """
    dataset = _worker_dataset(token, blob)
    cancel = (
        _SlotCancel(_WORKER_SLOTS, slot)
        if slot >= 0 and _WORKER_SLOTS is not None
        else None
    )
    if fault is not None:
        entry = fault.find(shard_index, attempt)
        if entry is not None:
            _apply_fault(entry, cancel)
    return job.run(dataset, cancel, None)


# -- parent side -------------------------------------------------------------


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


class MinerPool:
    """A lazily started, persistent pool of warm mining workers.

    The first mining call starts the worker processes; later calls reuse
    them, so the per-call cost drops from fork + import + dataset decode
    to task dispatch alone.  The pool grows (never shrinks) to the
    largest worker count requested so far; growing replaces the executor
    — in-flight shards on the old one still finish — and bumps
    ``started``.  :meth:`close` shuts the workers down; the next use
    transparently starts a fresh generation, which also keeps the pool
    safe to use after ``os.fork`` (the module resets the default pool in
    forked children).

    Cancellation plumbing lives here too: the pool owns a small shared
    flag array created before the first worker (so both fork and spawn
    contexts inherit it), and each cancellable mining call leases one
    slot of it for its lifetime.

    Attributes:
        started: executor generations created (cold starts + grows +
            post-failure heals).
        reuses: calls served by an already-running executor.
        failure_restarts: generations retired because a worker died
            (:meth:`heal`).
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self._ctx = _mp_context()
        self._lock = threading.Lock()
        self._slot_freed = threading.Condition(self._lock)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._size = 0
        self._max_workers = max_workers
        self._slots = None
        self._free_slots: list[int] = []
        self.started = 0
        self.reuses = 0
        self.failure_restarts = 0

    @property
    def size(self) -> int:
        """Current worker-process count (0 when not started)."""
        return self._size

    def _ensure_slots(self) -> None:
        if self._slots is None:
            self._slots = self._ctx.RawArray("b", _POOL_CANCEL_SLOTS)
            self._free_slots = list(range(_POOL_CANCEL_SLOTS))

    def executor(self, n_workers: int) -> ProcessPoolExecutor:
        """Return a running executor with at least ``n_workers`` workers."""
        with self._lock:
            wanted = max(1, int(n_workers))
            if self._max_workers is not None:
                wanted = min(wanted, self._max_workers)
            self._ensure_slots()
            current = self._executor
            if (
                current is not None
                and self._size >= wanted
                and not getattr(current, "_broken", False)
            ):
                self.reuses += 1
                return current
            if current is not None and self._size > wanted:
                # Broken executor (a worker died); restart at the old size.
                wanted = self._size
            replacement = ProcessPoolExecutor(
                max_workers=wanted,
                mp_context=self._ctx,
                initializer=_pool_worker_init,
                initargs=(self._slots,),
            )
            self._executor = replacement
            self._size = wanted
            self.started += 1
            if current is not None:
                # In-flight tasks on the old executor still complete;
                # wait=False only stops it from accepting new work.
                current.shutdown(wait=False)
            return replacement

    def heal(self) -> bool:
        """Retire a broken executor so the next use starts fresh.

        Called by the supervisor after a worker died mid-shard.  Returns
        True when a generation was actually retired (counted in
        ``failure_restarts`` and the module-wide
        ``pool_restarts_on_failure``); a healthy executor is left alone
        and False is returned — e.g. when a concurrent call already
        healed the pool.
        """
        with self._lock:
            current = self._executor
            if current is None or not getattr(current, "_broken", False):
                # Nothing running, or the executor is healthy (e.g. a
                # concurrent call already healed): leave it alone.
                return False
            self._executor = None
            self._size = 0
            self.failure_restarts += 1
        _count_recovery("pool_restarts_on_failure", 1)
        # The executor is broken: shutdown only reaps what is left.
        current.shutdown(wait=False)
        return True

    def acquire_slot(self, timeout: Optional[float] = _SLOT_WAIT_SECONDS) -> int:
        """Lease a cancellation slot (cleared); pair with release_slot.

        When every slot is leased, waits up to ``timeout`` seconds for a
        release (``None`` waits indefinitely) and returns ``-1`` once the
        wait expires — callers degrade to watcher-free serial execution
        instead of surfacing an error to the client.
        """
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._slot_freed:
            self._ensure_slots()
            while not self._free_slots:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return -1
                self._slot_freed.wait(remaining)
            index = self._free_slots.pop()
            self._slots[index] = 0
            return index

    def cancel_slot(self, index: int) -> None:
        """Signal the workers polling ``index`` to stop."""
        self._slots[index] = 1

    def release_slot(self, index: int) -> None:
        with self._slot_freed:
            self._slots[index] = 0
            self._free_slots.append(index)
            self._slot_freed.notify()

    def close(self, wait: bool = True) -> None:
        """Shut the workers down.  The pool restarts on next use."""
        with self._lock:
            executor = self._executor
            self._executor = None
            self._size = 0
        if executor is not None:
            executor.shutdown(wait=wait)


_DEFAULT_POOL: Optional[MinerPool] = None
_DEFAULT_POOL_LOCK = threading.Lock()

# Crash-recovery counters, process-wide (every pool, every run_jobs):
# shard_retries            — shard jobs resubmitted after worker loss;
# pool_restarts_on_failure — executor generations retired by heal();
# serial_degradations      — pool runs that fell back to the in-process
#                            loop (retries exhausted, or no
#                            cancellation slot free within the wait).
_RECOVERY_LOCK = threading.Lock()
_RECOVERY = {
    "shard_retries": 0,
    "pool_restarts_on_failure": 0,
    "serial_degradations": 0,
}


def _count_recovery(name: str, amount: int = 1) -> None:
    with _RECOVERY_LOCK:
        _RECOVERY[name] += amount


def get_pool() -> MinerPool:
    """The process-wide default :class:`MinerPool` (created on first use)."""
    global _DEFAULT_POOL
    with _DEFAULT_POOL_LOCK:
        if _DEFAULT_POOL is None:
            _DEFAULT_POOL = MinerPool()
            atexit.register(_DEFAULT_POOL.close)
        return _DEFAULT_POOL


def shutdown_pool(wait: bool = True) -> None:
    """Close the default pool's workers (it restarts on next use)."""
    pool = _DEFAULT_POOL
    if pool is not None:
        pool.close(wait=wait)


def pool_stats() -> dict:
    """Counters for telemetry: pool lifecycle, planner and recovery.

    The recovery counters (``shard_retries``,
    ``pool_restarts_on_failure``, ``serial_degradations``) are
    process-wide — they aggregate over every pool instance, matching the
    service's one-process deployment; the pool counters describe the
    default pool.
    """
    pool = _DEFAULT_POOL
    with _RECOVERY_LOCK:
        recovery = dict(_RECOVERY)
    return {
        "miner_pool_started": pool.started if pool is not None else 0,
        "miner_pool_reuses": pool.reuses if pool is not None else 0,
        "planner_serial_fallbacks": planner_serial_fallbacks(),
        **recovery,
    }


def _reset_default_pool_after_fork() -> None:
    # A forked child inherits a pool whose processes belong to the
    # parent; drop it so the child lazily starts its own.  (This also
    # fires in the pool's own fork-context workers, which is exactly
    # right — they must not submit to the parent's executor.)
    global _DEFAULT_POOL, _DEFAULT_POOL_LOCK
    _DEFAULT_POOL_LOCK = threading.Lock()
    _DEFAULT_POOL = None


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX containers
    os.register_at_fork(after_in_child=_reset_default_pool_after_fork)


# Parent-side dataset identity tokens.  The same dataset *object* keeps
# the same token (and pickled blob) across calls, which is what lets the
# workers' token-keyed cache skip decoding; a new or mutated-and-reloaded
# dataset object gets a fresh token.  Datasets are treated as immutable
# once built, as everywhere else in the package.
_DATASET_TOKENS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_DATASET_LOCK = threading.Lock()
_TOKEN_COUNTER = itertools.count(1)


def _dataset_payload(dataset: "DiscretizedDataset") -> tuple[str, bytes]:
    with _DATASET_LOCK:
        entry = _DATASET_TOKENS.get(dataset)
        if entry is None:
            token = f"{os.getpid()}-{next(_TOKEN_COUNTER)}"
            blob = pickle.dumps(dataset, protocol=pickle.HIGHEST_PROTOCOL)
            entry = (token, blob)
            _DATASET_TOKENS[dataset] = entry
        return entry


def _is_worker_loss(error: BaseException) -> bool:
    """True for errors meaning "a worker process died", not "the shard
    raised": those shards are retryable on a healed pool."""
    if isinstance(error, BrokenExecutor):
        return True
    # Older ProcessPoolExecutor paths surface a lost worker as a bare
    # RuntimeError carrying the BrokenProcessPool message.
    return isinstance(error, RuntimeError) and "terminated abruptly" in str(
        error
    )


def _time_left(deadline: Optional[float]) -> Optional[float]:
    """Seconds left before a ``time.monotonic()`` deadline (None = none),
    clamped at 0: a job handed 0 starts after the stop."""
    if deadline is None:
        return None
    return max(deadline - time.monotonic(), 0.0)


def _run_attempt(
    pool: MinerPool,
    jobs: Sequence,
    remaining: Sequence[int],
    outputs: list,
    n_workers: int,
    token: str,
    blob: bytes,
    slot: int,
    attempt: int,
    fault: Optional[FaultPlan],
) -> list[int]:
    """Submit one pool attempt of ``remaining``; fill ``outputs``.

    Outcomes are gathered as they complete, not in submission order.
    Returns the indices lost to worker death (retryable).  A shard that
    *raised* is a hard failure: every not-yet-started sibling future is
    cancelled immediately (no wasted CPU, no unobserved exceptions) and
    the smallest-index error is re-raised.
    """
    futures: dict = {}
    lost: list[int] = []
    hard: list[tuple[int, BaseException]] = []
    try:
        executor = pool.executor(min(n_workers, len(remaining)))
        for index in remaining:
            futures[
                executor.submit(_run_shard, jobs[index], token, blob, slot,
                                index, attempt, fault)
            ] = index
    except BrokenExecutor:
        # The pool broke while submitting; everything unsubmitted is
        # lost, and the submitted futures fail below with the rest.
        lost.extend(index for index in remaining if index not in
                    set(futures.values()))
    for future in as_completed(futures):
        index = futures[future]
        try:
            outputs[index] = future.result()
        except BaseException as error:  # noqa: BLE001 - sorted below
            if _is_worker_loss(error):
                lost.append(index)
            elif future.cancelled():
                lost.append(index)  # cancelled by a hard failure below
            else:
                hard.append((index, error))
                for pending in futures:
                    pending.cancel()
    if hard:
        hard.sort(key=lambda pair: pair[0])
        raise hard[0][1]
    return sorted(lost)


def run_jobs(
    dataset: "DiscretizedDataset",
    jobs: Sequence,
    n_workers: int,
    time_budget: Optional[float] = None,
    cancel=None,
    pool: Optional[MinerPool] = None,
    fault: Optional[FaultPlan] = None,
    max_attempts: int = _MAX_SHARD_ATTEMPTS,
) -> list:
    """Run jobs over ``dataset``: the one place any mining unit runs.

    Each job is a picklable object whose ``run(dataset, cancel,
    time_budget)`` returns ``(payload, stats)``, or ``None`` when it
    starts after the stop and skips its work; ``dataset`` is whatever
    its ``run`` mines (a :class:`DiscretizedDataset`, or a hybrid run's
    shared catalog).  Returns the outputs in job order.

    With one worker or one job the jobs run in order in this process,
    each with the time left before one deadline (clamped at 0) and the
    caller's ``cancel`` polled directly.  Otherwise they run on the warm
    pool: ``time_budget`` / ``cancel`` are bridged to the workers
    through a leased slot of the pool's shared flag array, set by a
    watcher thread in this process; workers poll it cooperatively and
    return their partial results with ``stats.completed`` False.  A NaN
    or negative ``time_budget`` raises ``ValueError``, as it does in
    every miner.

    Crash recovery: jobs whose worker died are resubmitted on a healed
    pool with exponential backoff, up to ``max_attempts`` total pool
    attempts each, then run by the in-process loop — a job's output does
    not depend on where it ran, so degradation is lossless, and
    ``stats.degraded`` marks every output the fallback produced, and
    :func:`pool_stats` counts the retries, heals and degradations.  No
    ``BrokenProcessPool`` ever escapes to the caller.
    """
    if time_budget is not None and not time_budget >= 0:
        raise ValueError(
            f"time_budget must be a non-negative number, got {time_budget}"
        )
    deadline = (
        time.monotonic() + time_budget if time_budget is not None else None
    )
    outputs: list = [None] * len(jobs)

    def _run_here(indices: Sequence[int], degraded: bool) -> None:
        # The caller's cancel token is polled directly by the budget
        # checks (no slot, no watcher) and each job gets the time left
        # before the one deadline.  Fault plans are deliberately not
        # consulted: an injected kill must never take down this process.
        if degraded:
            _count_recovery("serial_degradations", 1)
        for index in indices:
            output = jobs[index].run(dataset, cancel, _time_left(deadline))
            if degraded and output is not None:
                output[1].degraded = True
            outputs[index] = output

    if n_workers <= 1 or len(jobs) <= 1:
        _run_here(range(len(jobs)), degraded=False)
        return outputs
    if pool is None:
        pool = get_pool()
    token, blob = _dataset_payload(dataset)

    slot = -1
    watcher: Optional[threading.Thread] = None
    stop_watching = threading.Event()
    if time_budget is not None or cancel is not None:
        slot = pool.acquire_slot(timeout=_SLOT_WAIT_SECONDS)
        if slot < 0:
            # Every cancellation slot stayed leased past the bounded
            # wait: degrade to watcher-free in-process execution instead
            # of failing the mine (pre-fix this raised and the service
            # returned a 500 on the 65th concurrent cancellable mine).
            _run_here(range(len(jobs)), degraded=True)
            return outputs
        if cancel is not None and cancel.is_set():
            pool.cancel_slot(slot)
        else:
            def _watch() -> None:
                while not stop_watching.wait(_WATCH_INTERVAL_SECONDS):
                    if cancel is not None and cancel.is_set():
                        pool.cancel_slot(slot)
                        return
                    if deadline is not None and time.monotonic() > deadline:
                        pool.cancel_slot(slot)
                        return

            watcher = threading.Thread(
                target=_watch, name="repro-parallel-watch", daemon=True
            )
            watcher.start()
    try:
        remaining = list(range(len(jobs)))
        attempt = 0
        while remaining:
            if attempt >= max_attempts:
                # Retries exhausted: finish the surviving jobs here.
                _run_here(remaining, degraded=True)
                break
            if attempt > 0:
                _count_recovery("shard_retries", len(remaining))
                time.sleep(_RETRY_BACKOFF_SECONDS * (2 ** (attempt - 1)))
            lost = _run_attempt(pool, jobs, remaining, outputs, n_workers,
                                token, blob, slot, attempt, fault)
            if lost:
                pool.heal()
            remaining = lost
            attempt += 1
        return outputs
    finally:
        stop_watching.set()
        if watcher is not None:
            watcher.join()
        if slot >= 0:
            pool.release_slot(slot)


def mine_topk_requests(
    dataset: "DiscretizedDataset",
    requests: Sequence[MineRequest],
    n_jobs: "int | str | None" = None,
    time_budget: Optional[float] = None,
    cancel=None,
    fault: Optional[FaultPlan] = None,
) -> list[TopkResult]:
    """Mine several whole top-k requests, one job per request.

    This is the engine behind RCBT's per-class mines: each class's mine
    is an independent unit whose job runs
    :func:`~repro.core.topk_miner.mine_topk` itself, so every result is
    the serial one — per-row lists and ``stats`` counters alike — and
    nothing needs merging.  ``n_jobs`` caps the worker count;
    ``n_jobs="auto"`` lets the planner pick serial or all-cores from the
    batch's summed support mass times ``1 + k`` (its largest ``k``).  A
    single request, or a single worker, runs in this process.

    Returns one :class:`TopkResult` per request, in request order.  That
    holds even across worker crashes: lost requests are retried on a
    healed pool and, past the retry cap, mined in this process
    (``stats.degraded`` marks each result mined that way).
    ``time_budget`` / ``cancel`` are global to the batch: each request
    gets the time left before one shared deadline.  ``fault`` is the
    deterministic fault-injection hook used by the tests and the audit
    oracle; it never applies to requests mined in this process.
    """
    planned = plan(
        dataset, [request.consequent for request in requests],
        [request.minsup for request in requests], task="requests",
        k=max((request.k for request in requests), default=1), n_jobs=n_jobs,
    )
    outputs = run_jobs(
        dataset, requests, planned.workers, time_budget, cancel, fault=fault
    )
    return [result for result, _stats in outputs]


def results_equal(a: TopkResult, b: TopkResult) -> bool:
    """True iff two mining results are bit-identical.

    Compares the full per-row structure — row ids, list order, and every
    group's antecedent, consequent, row set, support and confidence.
    Used by the bench harness, the audit and the tests to assert that
    every execution path reproduces the serial result exactly.
    """
    if a.per_row.keys() != b.per_row.keys():
        return False
    for row, groups in a.per_row.items():
        other = b.per_row[row]
        if len(groups) != len(other):
            return False
        for left, right in zip(groups, other):
            if (
                left.antecedent != right.antecedent
                or left.consequent != right.consequent
                or left.row_set != right.row_set
                or left.support != right.support
                or left.confidence != right.confidence
            ):
                return False
    return True
