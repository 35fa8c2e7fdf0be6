"""Process-pool mining backend: first-level sharding of the enumeration tree.

The row enumeration tree of Figure 2 is embarrassingly partitionable at
its first level: every node lies in exactly one first-row subtree, and
backward pruning guarantees each closed group is emitted only in the
subtree of its smallest row.  This module exploits that invariant:

* :func:`plan_shards` splits the first enumeration level into position
  bitsets (singleton shards for the large early subtrees, contiguous
  chunks for the long tail) that together cover every root exactly once;
* each shard is mined in a worker process by a full
  :class:`~repro.core.topk_miner.TopkPolicy` (or
  :class:`~repro.baselines.farmer.FarmerPolicy`) restricted with
  ``run_enumeration(..., first_rows=shard)``;
* the per-shard results are merged in ascending shard order, which
  reproduces the serial result *exactly* (bit-identical rule groups,
  per-row lists and ordering) — the correctness argument is spelled out
  in DESIGN.md §7.

Why per-shard mining is conservative: a shard's :class:`TopkPolicy` is
seeded from the same single-item ``TopKList`` initialization as the
serial run, and its dynamic thresholds afterwards reflect only emissions
from its own subtrees — a *subset* of what the serial run has seen by
the corresponding node.  Offers only ever tighten thresholds, so every
shard prunes at most what the serial run prunes and emits a superset of
the serial emissions from its subtrees.  The final merge (offering each
shard's list entries in ascending shard order into fresh seeded lists)
then discards exactly the extras.

Execution goes through a persistent :class:`MinerPool` (DESIGN.md §9):
worker processes are started once and kept warm across mining calls, so
repeated mines — RCBT's per-class requests, service ``/mine`` jobs, the
bench harness — pay the fork/spawn tax once instead of per call.
Datasets ship with each task as a pickled blob tagged by an identity
token; workers cache the last few decoded datasets by token, so every
shard (and every later request over the same dataset) after the first
decodes nothing and reuses the worker-side memoized
:meth:`~repro.core.view.MiningView.cached` views.

``n_jobs="auto"`` asks the adaptive planner to choose between serial and
parallel execution: it estimates the enumeration work from the view's
:class:`~repro.core.view.SupportIndex` (already built for the serial
single-item initialization) and falls back to serial below a calibrated
threshold where warm-pool dispatch plus the merge would eat the speedup.

Deviation: ``node_budget`` is applied per shard rather than globally (a
shared atomic counter would serialize the workers); ``time_budget`` and
``cancel`` are global, bridged into the workers through a slot of a
shared flag array polled on the same
:data:`~repro.core.enumeration.POLL_STRIDE` node stride as the serial
budget checks.

Fault tolerance (DESIGN.md §10): worker death — an OOM kill, a segfault,
a container runtime reaping a process — is a retried, observable event,
not a request-killing one.  :func:`_execute` supervises shard futures as
they complete; when the process pool breaks it heals the pool through
the generation-replacement machinery of :class:`MinerPool` and resubmits
only the failed shards, with capped attempts and exponential backoff,
before degrading losslessly to serial in-process execution (the merge is
bit-identical regardless of where shards ran).  Every recovery path is
exercised deterministically through :class:`FaultPlan`, which can kill,
hang, delay, or raise inside a chosen shard on a chosen attempt — either
passed explicitly or via the ``REPRO_FAULT`` environment variable for
subprocess tests.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import pickle
import signal
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from .baselines.farmer import FarmerPolicy, FarmerResult
from .core.backends import resolve_backend
from .core.enumeration import POLL_STRIDE, MinerStats, run_enumeration
from .core.topk_miner import TopkPolicy, TopkResult, maybe_check_result
from .core.view import MiningView
from .errors import MiningBudgetExceeded

if TYPE_CHECKING:  # pragma: no cover - import is for annotations only
    from .data.dataset import DiscretizedDataset

__all__ = [
    "AUTO_JOBS",
    "MineRequest",
    "FarmerRequest",
    "FAULT_ANY",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "MinerPool",
    "get_pool",
    "shutdown_pool",
    "pool_stats",
    "resolve_n_jobs",
    "plan_shards",
    "plan_auto_workers",
    "estimate_topk_work",
    "estimate_farmer_work",
    "merge_stats",
    "mine_topk_sharded",
    "mine_topk_parallel",
    "mine_farmer_parallel",
    "run_hybrid_partitions",
    "parallel_map",
    "results_equal",
]

# Sentinel accepted everywhere an ``n_jobs`` is: let the planner decide.
AUTO_JOBS = "auto"

# How often (seconds) the parent watcher thread checks the user's cancel
# token and the global deadline.
_WATCH_INTERVAL_SECONDS = 0.02

# Cancellation slots in the pool's shared flag array.  Each concurrent
# _execute call that carries a deadline or cancel token leases one slot
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

# Planner thresholds, in abstract work units (see estimate_topk_work /
# estimate_farmer_work).  Calibrated on the bench datasets: warm-pool
# dispatch plus the ascending-order merge costs ~10-30 ms, so parallel
# only pays off once the serial mine is well past ~0.1 s.  At the
# calibration point the ALL-AML top-100 mine (~156k units) runs in
# ~0.04 s serial (stay serial) while the PC FARMER mine (~350k units)
# takes seconds (go parallel).
_AUTO_TOPK_SERIAL_UNITS = 400_000
_AUTO_FARMER_SERIAL_UNITS = 100_000


@dataclass(frozen=True)
class MineRequest:
    """One MineTopkRGS mining job, shardable across workers."""

    consequent: int
    minsup: int
    k: int = 1
    engine: str = "bitset"
    initialize_single_items: bool = True
    dynamic_minsup: bool = True
    use_topk_pruning: bool = True
    node_budget: Optional[int] = None


@dataclass(frozen=True)
class FarmerRequest:
    """One FARMER mining job, shardable across workers."""

    consequent: int
    minsup: int
    minconf: float = 0.0
    engine: str = "table"
    node_budget: Optional[int] = None
    max_groups: Optional[int] = None
    min_chi_square: float = 0.0


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

    ``shard`` is the index of the shard job within one :func:`_execute`
    call (for a single-request mine this is the :func:`plan_shards`
    index); ``attempt`` is the supervisor's resubmission count for that
    shard (0 = first run).  Either may be :data:`FAULT_ANY` to match
    every shard / attempt.  ``seconds`` parameterizes ``delay`` and
    ``hang`` (a ``hang`` with no ``seconds`` is capped at
    :data:`_HANG_CAP_SECONDS` so a missing cancel token cannot deadlock
    a test run).
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

    def matches(self, shard: int, attempt: int) -> bool:
        return (self.shard in (FAULT_ANY, shard)
                and self.attempt in (FAULT_ANY, attempt))


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of :class:`Fault` entries for one mine.

    The string form (accepted by :meth:`parse` and the ``REPRO_FAULT``
    environment variable) is ``;``-separated entries of
    ``mode@shard.attempt[:seconds]``, with ``*`` as a shard/attempt
    wildcard::

        kill@0.0              crash the worker mining shard 0, attempt 0
        kill@0.0;kill@0.1     ...and again on its retry
        hang@0.0:30           hang shard 0 for up to 30 s (or until cancel)
        delay@*.0:0.5         delay every first-attempt shard by 0.5 s

    Faults are applied only inside pool worker processes — the parent's
    serial fallback ignores the plan, so a ``kill`` can never take down
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

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan in ``REPRO_FAULT``, or None when unset/empty."""
        spec = os.environ.get("REPRO_FAULT", "")
        return cls.parse(spec) if spec else None

    def find(self, shard: int, attempt: int) -> Optional[Fault]:
        for fault in self.faults:
            if fault.matches(shard, attempt):
                return fault
        return None


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Translate a user ``n_jobs`` into a concrete worker count.

    ``None`` or ``0`` mean "all cores"; negative values count back from
    the core count (``-1`` = all cores, ``-2`` = all but one, the joblib
    convention); positive values are used as given.  The :data:`AUTO_JOBS`
    sentinel is workload-dependent and resolved by the mining entry
    points themselves (via :func:`plan_auto_workers`), not here.
    """
    if n_jobs == AUTO_JOBS:
        raise ValueError(
            "n_jobs='auto' is resolved per workload by the mining entry "
            "points; resolve_n_jobs only handles integers"
        )
    cores = os.cpu_count() or 1
    if n_jobs is None or n_jobs == 0:
        return cores
    if n_jobs < 0:
        return max(1, cores + 1 + n_jobs)
    return n_jobs


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
    Note the summed ``nodes_visited`` of a dynamic-threshold top-k run is
    >= the serial count: each shard starts from the seeded thresholds and
    never benefits from groups found in other shards (DESIGN.md §7).
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


def _run_shard(kind: str, request, shard_mask: int, token: str, blob: bytes,
               slot: int, shard_index: int = 0, attempt: int = 0,
               fault: Optional[FaultPlan] = None):
    """Worker entry point: mine one shard; returns (payload, stats).

    The dataset arrives as ``(token, blob)``: the blob is decoded at most
    once per worker and token, so every shard after the first reuses the
    cached dataset and — through ``MiningView.cached`` — the memoized
    view and its ``SupportIndex`` root-level results.

    ``shard_index``/``attempt`` identify this execution to the fault
    plan (the explicit ``fault`` argument, or ``REPRO_FAULT`` from the
    environment the worker inherited) — production calls carry neither
    and pay a single ``None`` check.
    """
    dataset = _worker_dataset(token, blob)
    cancel = (
        _SlotCancel(_WORKER_SLOTS, slot)
        if slot >= 0 and _WORKER_SLOTS is not None
        else None
    )
    plan = fault if fault is not None else FaultPlan.from_env()
    if plan is not None:
        entry = plan.find(shard_index, attempt)
        if entry is not None:
            _apply_fault(entry, cancel)
    return _mine_shard(kind, request, shard_mask, dataset, cancel)


def _mine_shard(kind: str, request, shard_mask: int, dataset, cancel,
                time_budget: Optional[float] = None):
    """Mine one shard of ``dataset``; returns (payload, stats).

    ``payload`` is a list of per-position group lists for top-k requests
    and a flat group list for FARMER requests.  Groups stay in position
    space — the parent translates to row ids once, after merging.

    Shared by the worker entry (:func:`_run_shard`, cancel = slot token)
    and the parent's serial fallback (caller's token polled directly,
    remaining global deadline passed as ``time_budget``).

    The ``"hybrid"`` kind mines one column partition of a hybrid run:
    ``request`` is a :class:`~repro.core.hybrid.HybridPartitionRequest`
    carrying its own rows (or spill file), ``dataset`` is the shared
    :class:`~repro.core.hybrid.PartitionCatalog`, and ``shard_mask`` is
    unused — a partition is a whole dataset, not a row shard.
    """
    if kind == "hybrid":
        from .core.hybrid import mine_hybrid_partition

        return mine_hybrid_partition(
            request, dataset, cancel=cancel, time_budget=time_budget
        )
    view = MiningView.cached(dataset, request.consequent, request.minsup)
    if kind == "topk":
        policy = TopkPolicy(
            view,
            request.k,
            initialize_single_items=request.initialize_single_items,
            dynamic_minsup=request.dynamic_minsup,
            use_topk_pruning=request.use_topk_pruning,
        )
    else:
        policy = FarmerPolicy(
            view,
            minconf=request.minconf,
            max_groups=request.max_groups,
            min_chi_square=request.min_chi_square,
        )
    try:
        stats = run_enumeration(
            view,
            policy,
            engine=request.engine,
            node_budget=request.node_budget,
            time_budget=time_budget,
            cancel=cancel,
            first_rows=shard_mask,
        )
    except MiningBudgetExceeded as overrun:
        stats = overrun.stats
    if kind == "topk":
        return [list(topk.groups) for topk in policy.lists], stats
    return list(policy.groups), stats


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

# Planner decisions (n_jobs="auto" resolving to serial) are counted
# globally, not per pool: the fallback path never touches the pool.
_PLANNER_LOCK = threading.Lock()
_PLANNER_SERIAL_FALLBACKS = 0

# Crash-recovery counters, process-wide (every pool, every _execute):
# shard_retries            — shard jobs resubmitted after worker loss;
# pool_restarts_on_failure — executor generations retired by heal();
# serial_degradations      — _execute calls that ran shards serially
#                            in-process (retries exhausted, or no
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
        "planner_serial_fallbacks": _PLANNER_SERIAL_FALLBACKS,
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


# -- adaptive planner --------------------------------------------------------


def estimate_topk_work(view: MiningView, k: int) -> int:
    """Abstract work units for one top-k mine over ``view``.

    ``support_mass`` (the summed support of all frequent items, free from
    the view's :class:`SupportIndex`) tracks how much intersection work
    each enumeration node costs; the ``1 + k`` factor tracks how deep the
    dynamic thresholds let the tree grow before top-k pruning bites
    (k=1 trees collapse almost immediately, k=100 trees do not).
    """
    return view.support_index().support_mass * (1 + k)


def estimate_farmer_work(view: MiningView) -> int:
    """Abstract work units for one FARMER mine over ``view``.

    FARMER has no top-k pruning, so the tree size scales with the number
    of enumerable rows instead of ``k``.
    """
    return view.support_index().support_mass * max(1, view.n_rows)


def plan_auto_workers(work_units: int, serial_threshold: int) -> int:
    """Resolve ``n_jobs="auto"``: 1 (serial) or all cores.

    Serial when the machine has a single core or the estimated work is
    below ``serial_threshold`` — there the warm-pool dispatch and merge
    overhead (~tens of milliseconds) rivals the mine itself.  Every
    serial decision increments the ``planner_serial_fallbacks`` counter
    surfaced by :func:`pool_stats`.
    """
    global _PLANNER_SERIAL_FALLBACKS
    cores = os.cpu_count() or 1
    if cores <= 1 or work_units < serial_threshold:
        with _PLANNER_LOCK:
            _PLANNER_SERIAL_FALLBACKS += 1
        return 1
    return cores


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


def _run_shard_inline(kind: str, request, shard_mask: int, dataset, cancel,
                      deadline: Optional[float]):
    """Serial in-process execution of one shard (the degradation path).

    The caller's cancel token is polled directly by the enumeration
    budget checks — no slot, no watcher thread — and the remaining
    global deadline becomes this shard's ``time_budget``.  Fault plans
    are deliberately not consulted: an injected ``kill`` must never take
    down the calling process.
    """
    time_budget = None
    if deadline is not None:
        time_budget = max(deadline - time.monotonic(), 1e-9)
    return _mine_shard(kind, request, shard_mask, dataset, cancel,
                       time_budget=time_budget)


def _run_attempt(
    pool: MinerPool,
    jobs: Sequence[tuple[str, object, int]],
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
            kind, request, shard_mask = jobs[index]
            futures[
                executor.submit(_run_shard, kind, request, shard_mask, token,
                                blob, slot, index, attempt, fault)
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


def _execute(
    dataset: "DiscretizedDataset",
    jobs: Sequence[tuple[str, object, int]],
    n_jobs: int,
    time_budget: Optional[float] = None,
    cancel=None,
    pool: Optional[MinerPool] = None,
    fault: Optional[FaultPlan] = None,
    max_attempts: int = _MAX_SHARD_ATTEMPTS,
) -> tuple[list[tuple[object, MinerStats]], dict]:
    """Run ``(kind, request, shard_mask)`` jobs on the warm miner pool.

    Returns ``(outputs, recovery)``: outputs in submission order, and a
    recovery summary for this call (``shard_retries``, ``pool_restarts``,
    ``serial_degradations``, ``degraded``).  ``time_budget`` / ``cancel``
    are bridged to the workers through a leased slot of the pool's shared
    flag array, set by a watcher thread in this process; workers poll it
    cooperatively and return their partial results with
    ``stats.completed`` False.

    Crash recovery: shards whose worker died are resubmitted on a healed
    pool with exponential backoff, up to ``max_attempts`` total pool
    attempts each, then executed serially in this process — the merge
    step downstream is agnostic to where a shard ran, so degradation is
    lossless.  No ``BrokenProcessPool`` ever escapes to the caller.
    """
    recovery = {
        "shard_retries": 0,
        "pool_restarts": 0,
        "serial_degradations": 0,
        "degraded": False,
    }
    if not jobs:
        return [], recovery
    if pool is None:
        pool = get_pool()
    token, blob = _dataset_payload(dataset)
    deadline = (
        time.monotonic() + time_budget if time_budget is not None else None
    )
    outputs: list = [None] * len(jobs)

    def _degrade_to_serial(indices: Sequence[int]) -> None:
        _count_recovery("serial_degradations", 1)
        recovery["serial_degradations"] += 1
        recovery["degraded"] = True
        for index in indices:
            kind, request, shard_mask = jobs[index]
            outputs[index] = _run_shard_inline(
                kind, request, shard_mask, dataset, cancel, deadline
            )

    slot = -1
    watcher: Optional[threading.Thread] = None
    stop_watching = threading.Event()
    if time_budget is not None or cancel is not None:
        slot = pool.acquire_slot(timeout=_SLOT_WAIT_SECONDS)
        if slot < 0:
            # Every cancellation slot stayed leased past the bounded
            # wait: degrade to watcher-free serial execution instead of
            # failing the mine (pre-fix this raised and the service
            # returned a 500 on the 65th concurrent cancellable mine).
            _degrade_to_serial(range(len(jobs)))
            return outputs, recovery
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
                # Retries exhausted: finish the surviving shards here.
                _degrade_to_serial(remaining)
                break
            if attempt > 0:
                _count_recovery("shard_retries", len(remaining))
                recovery["shard_retries"] += len(remaining)
                time.sleep(_RETRY_BACKOFF_SECONDS * (2 ** (attempt - 1)))
            lost = _run_attempt(pool, jobs, remaining, outputs, n_jobs,
                                token, blob, slot, attempt, fault)
            if lost and pool.heal():
                recovery["pool_restarts"] += 1
            remaining = lost
            attempt += 1
        return outputs, recovery
    finally:
        stop_watching.set()
        if watcher is not None:
            watcher.join()
        if slot >= 0:
            pool.release_slot(slot)


def run_hybrid_partitions(
    catalog,
    requests: Sequence,
    n_jobs: int,
    time_budget: Optional[float] = None,
    cancel=None,
    pool: Optional[MinerPool] = None,
    fault: Optional[FaultPlan] = None,
) -> tuple[list, dict]:
    """Fan hybrid partition jobs over the warm miner pool.

    ``catalog`` is the run's shared
    :class:`~repro.core.hybrid.PartitionCatalog` (pickled once, like a
    dataset payload); each request carries its own partition rows.  The
    jobs are independent whole-dataset mines, so they ride the exact
    supervision the row shards get: slot-bridged ``time_budget`` /
    ``cancel``, crash retries on a healed pool, and lossless serial
    degradation past the retry cap.  Returns ``(outputs, recovery)`` in
    request order, each output ``(payload, stats)`` from
    :func:`repro.core.hybrid.mine_hybrid_partition`.
    """
    jobs = [("hybrid", request, 0) for request in requests]
    return _execute(
        catalog,
        jobs,
        n_jobs,
        time_budget=time_budget,
        cancel=cancel,
        pool=pool,
        fault=fault,
    )


def _merge_topk(
    dataset: "DiscretizedDataset",
    request: MineRequest,
    shard_outputs: Sequence[tuple[list, MinerStats]],
    degraded: bool = False,
) -> TopkResult:
    """Fold per-shard top-k lists into the exact serial result.

    ``TopKList`` breaks confidence/support ties canonically by row set,
    so the merge is order-independent: every shard's local top-k
    contains the members of the global top-k it enumerated, and offering
    their union reconstructs the serial lists exactly.
    """
    view = MiningView.cached(dataset, request.consequent, request.minsup)
    policy = TopkPolicy(
        view,
        request.k,
        initialize_single_items=request.initialize_single_items,
        dynamic_minsup=False,
        use_topk_pruning=request.use_topk_pruning,
    )
    for lists, _stats in shard_outputs:
        for position, groups in enumerate(lists):
            target = policy.lists[position]
            for group in groups:
                target.offer(group)
    stats = merge_stats([stats for _lists, stats in shard_outputs], request.engine)
    stats.degraded = stats.degraded or degraded
    return TopkResult(
        per_row=policy.finalize(),
        consequent=request.consequent,
        minsup=request.minsup,
        k=request.k,
        stats=stats,
    )


def mine_topk_sharded(
    dataset: "DiscretizedDataset",
    requests: Sequence[MineRequest],
    n_jobs: Optional[int] = None,
    time_budget: Optional[float] = None,
    cancel=None,
    fault: Optional[FaultPlan] = None,
) -> list[TopkResult]:
    """Mine several top-k requests at once, pooling their shards.

    This is the engine behind per-class classifier parallelism: RCBT
    needs one mine per class, and pooling all classes' shards into a
    single executor keeps every worker busy even when one class's tree
    is much larger than another's.

    ``n_jobs="auto"`` lets the planner pick serial or all-cores from the
    estimated total work of the batch (:func:`estimate_topk_work`).

    Returns one :class:`TopkResult` per request, in request order; each
    is bit-identical to the corresponding serial :func:`mine_topk` call.
    That equality holds even across worker crashes: lost shards are
    retried on a healed pool and, past the retry cap, mined serially in
    this process (``stats.degraded`` marks such runs).  ``fault`` is the
    deterministic fault-injection hook used by the tests and the audit
    oracle; it never applies to the serial paths.
    """
    if n_jobs == AUTO_JOBS:
        total_units = sum(
            estimate_topk_work(
                MiningView.cached(dataset, request.consequent, request.minsup),
                request.k,
            )
            for request in requests
        )
        n_workers = plan_auto_workers(total_units, _AUTO_TOPK_SERIAL_UNITS)
    else:
        n_workers = resolve_n_jobs(n_jobs)
    if n_workers <= 1:
        from .core.topk_miner import mine_topk

        return [
            mine_topk(
                dataset,
                request.consequent,
                request.minsup,
                k=request.k,
                engine=request.engine,
                initialize_single_items=request.initialize_single_items,
                dynamic_minsup=request.dynamic_minsup,
                use_topk_pruning=request.use_topk_pruning,
                node_budget=request.node_budget,
                time_budget=time_budget,
                cancel=cancel,
            )
            for request in requests
        ]
    jobs: list[tuple[str, object, int]] = []
    spans: list[tuple[int, int]] = []
    for request in requests:
        view = MiningView.cached(dataset, request.consequent, request.minsup)
        shards = plan_shards(view.n_rows, n_workers)
        spans.append((len(jobs), len(jobs) + len(shards)))
        jobs.extend(("topk", request, mask) for mask in shards)
    outputs, recovery = _execute(
        dataset, jobs, n_workers, time_budget, cancel, fault=fault
    )
    results = [
        _merge_topk(dataset, request, outputs[start:stop],
                    degraded=recovery["degraded"])
        for request, (start, stop) in zip(requests, spans)
    ]
    # Under REPRO_CHECK=1 the merged results are audited exactly like
    # serial ones (no-op otherwise); this is the parallel counterpart of
    # the hook at the end of mine_topk.
    for result in results:
        maybe_check_result(dataset, result)
    return results


def mine_topk_parallel(
    dataset: "DiscretizedDataset",
    consequent: int,
    minsup: int,
    k: int = 1,
    engine: str = "bitset",
    initialize_single_items: bool = True,
    dynamic_minsup: bool = True,
    use_topk_pruning: bool = True,
    node_budget: Optional[int] = None,
    time_budget: Optional[float] = None,
    cancel=None,
    n_jobs: Optional[int] = None,
    fault: Optional[FaultPlan] = None,
    backend=None,
) -> TopkResult:
    """Parallel :func:`~repro.core.topk_miner.mine_topk` — same signature
    plus ``n_jobs`` (``"auto"`` allowed) and the ``fault`` injection
    hook, bit-identical output."""
    resolve_backend(backend, n_rows=dataset.n_rows)
    request = MineRequest(
        consequent=consequent,
        minsup=minsup,
        k=k,
        engine=engine,
        initialize_single_items=initialize_single_items,
        dynamic_minsup=dynamic_minsup,
        use_topk_pruning=use_topk_pruning,
        node_budget=node_budget,
    )
    return mine_topk_sharded(
        dataset, [request], n_jobs=n_jobs, time_budget=time_budget,
        cancel=cancel, fault=fault,
    )[0]


def mine_farmer_parallel(
    dataset: "DiscretizedDataset",
    consequent: int,
    minsup: int,
    minconf: float = 0.0,
    engine: str = "table",
    node_budget: Optional[int] = None,
    time_budget: Optional[float] = None,
    max_groups: Optional[int] = None,
    min_chi_square: float = 0.0,
    n_jobs: Optional[int] = None,
    cancel=None,
    fault: Optional[FaultPlan] = None,
    backend=None,
) -> FarmerResult:
    """Parallel :func:`~repro.baselines.farmer.mine_farmer`.

    FARMER's thresholds are static, so shards are independent and the
    merge is a concatenation in ascending shard order — exactly the
    serial emission (DFS) order.  ``max_groups`` caps each shard, and the
    merged list is truncated to the serial stopping point.
    ``n_jobs="auto"`` plans from :func:`estimate_farmer_work`.
    """
    resolve_backend(backend, n_rows=dataset.n_rows, task="farmer")
    if n_jobs == AUTO_JOBS:
        view = MiningView.cached(dataset, consequent, minsup)
        n_workers = plan_auto_workers(
            estimate_farmer_work(view), _AUTO_FARMER_SERIAL_UNITS
        )
    else:
        n_workers = resolve_n_jobs(n_jobs)
    if n_workers <= 1:
        from .baselines.farmer import mine_farmer

        return mine_farmer(
            dataset,
            consequent,
            minsup,
            minconf=minconf,
            engine=engine,
            node_budget=node_budget,
            time_budget=time_budget,
            max_groups=max_groups,
            min_chi_square=min_chi_square,
        )
    request = FarmerRequest(
        consequent=consequent,
        minsup=minsup,
        minconf=minconf,
        engine=engine,
        node_budget=node_budget,
        max_groups=max_groups,
        min_chi_square=min_chi_square,
    )
    view = MiningView.cached(dataset, consequent, minsup)
    shards = plan_shards(view.n_rows, n_workers)
    jobs = [("farmer", request, mask) for mask in shards]
    outputs, recovery = _execute(
        dataset, jobs, n_workers, time_budget, cancel, fault=fault
    )
    merged: list = []
    for groups, _stats in outputs:
        merged.extend(groups)
    stats = merge_stats([stats for _groups, stats in outputs], engine)
    stats.degraded = stats.degraded or recovery["degraded"]
    if max_groups is not None and len(merged) > max_groups:
        # Serial FARMER raises after emitting one group past the cap; keep
        # the identical prefix of the DFS emission order.
        merged = merged[: max_groups + 1]
        stats.completed = False
    policy = FarmerPolicy(
        view, minconf=minconf, max_groups=None, min_chi_square=min_chi_square
    )
    policy.groups = merged
    return FarmerResult(
        groups=policy.finalize(),
        consequent=consequent,
        minsup=minsup,
        minconf=minconf,
        stats=stats,
    )


def parallel_map(
    fn: Callable,
    items: Iterable,
    n_jobs: Optional[int] = None,
) -> list:
    """Order-preserving process map for coarse-grained work (e.g. CV folds).

    ``fn`` must be picklable (a module-level function).  With one worker
    (or one item) the map runs inline, so callers can pass user-facing
    ``n_jobs`` straight through (``"auto"`` maps to all cores here — the
    planner's cost model only covers mining).  Runs on the warm
    :class:`MinerPool`, so a CV sweep shares workers with the miners.
    """
    work = list(items)
    if n_jobs == AUTO_JOBS:
        n_jobs = None
    n_workers = min(resolve_n_jobs(n_jobs), max(1, len(work)))
    if n_workers <= 1 or len(work) <= 1:
        return [fn(item) for item in work]
    executor = get_pool().executor(n_workers)
    return list(executor.map(fn, work))


def results_equal(a: TopkResult, b: TopkResult) -> bool:
    """True iff two mining results are bit-identical.

    Compares the full per-row structure — row ids, list order, and every
    group's antecedent, consequent, row set, support and confidence.
    Used by the bench harness and tests to assert the parallel backend
    reproduces the serial result exactly.
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
