"""Fault injection for the process pool's crash-recovery supervisor.

Every recovery path of ``repro.parallel.run_jobs`` is exercised here
deterministically through :class:`~repro.parallel.FaultPlan` instead of
being trusted, on the pool's three kinds of independent unit: whole
top-k mines (one per request), FARMER row shards and hybrid partitions.

* a worker killed mid-job (``kill`` — the in-process stand-in for an
  OOM kill or a container runtime reaping the process) is retried on a
  healed pool and the result stays bit-identical to serial;
* a worker killed on *every* pool attempt exhausts the retry cap and the
  surviving jobs degrade losslessly to serial in-process execution;
* a hung job (``hang``) is bounded by the global time budget through
  the cancellation slot, not by luck;
* an ordinary exception in a job (``raise``) is a hard failure: it
  propagates, and the not-yet-started sibling jobs are cancelled
  instead of burning CPU unobserved (the pre-fix in-order ``.result()``
  loop left them running);
* the cancellation-slot lease degrades to watcher-free serial execution
  when every slot is taken, instead of raising (pre-fix the service
  turned that into a client-visible 500).

No test here may ever see a ``BrokenProcessPool``.
"""

from __future__ import annotations

import math
import threading
import time

import pytest

import repro.core.planner as planner
import repro.parallel as parallel_mod
from repro.core.topk_miner import mine_topk
from repro.parallel import (
    AUTO_JOBS,
    FAULT_ANY,
    Fault,
    FaultPlan,
    InjectedFault,
    MineRequest,
    MinerPool,
    run_jobs,
    mine_topk_requests,
    pool_stats,
    results_equal,
)
from repro.baselines.farmer import mine_farmer
from repro.core.hybrid import mine_topk_hybrid


# Two whole top-k mines: the per-request units of RCBT's per-class fit.
REQUESTS = (
    MineRequest(consequent=1, minsup=2, k=4),
    MineRequest(consequent=0, minsup=2, k=4),
)


@pytest.fixture
def serial_results(small_random):
    return [
        mine_topk(small_random, request.consequent, request.minsup,
                  k=request.k)
        for request in REQUESTS
    ]


def _assert_serial(serial_results, results):
    assert len(results) == len(serial_results)
    for serial, result in zip(serial_results, results):
        assert results_equal(serial, result)
        assert result.stats.nodes_visited == serial.stats.nodes_visited


def _farmer_row_sets(result):
    return [group.row_set for group in result.groups]


class TestFaultPlan:
    def test_parse_single_entry(self):
        plan = FaultPlan.parse("kill@0.0")
        assert plan.faults == (Fault(mode="kill", shard=0, attempt=0),)
        assert plan.find(0, 0).mode == "kill"
        assert plan.find(0, 1) is None
        assert plan.find(1, 0) is None

    def test_parse_multiple_entries_and_seconds(self):
        plan = FaultPlan.parse("kill@0.0;hang@1.0:30;delay@2.1:0.25")
        assert len(plan.faults) == 3
        assert plan.find(1, 0) == Fault(mode="hang", shard=1, attempt=0,
                                        seconds=30.0)
        assert plan.find(2, 1).seconds == 0.25

    def test_parse_wildcards(self):
        plan = FaultPlan.parse("kill@*.*")
        assert plan.faults[0].shard == FAULT_ANY
        assert plan.faults[0].attempt == FAULT_ANY
        for shard, attempt in ((0, 0), (7, 3)):
            assert plan.find(shard, attempt) is not None

    def test_parse_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            FaultPlan.parse("explode@0.0")

    def test_parse_rejects_missing_target(self):
        with pytest.raises(ValueError, match="bad fault entry"):
            FaultPlan.parse("kill")

    @pytest.mark.parametrize(
        "spec",
        ("delay@0.0:-1", "hang@0.0:-3", "delay@*.0:nan", "hang@0.0:inf",
         "kill@0.0;delay@1.0:-0.5"),
    )
    def test_parse_rejects_negative_or_non_finite_seconds(self, spec):
        """Pre-fix these parsed, and the mine later failed inside a
        worker with ``sleep length must be non-negative``."""
        with pytest.raises(ValueError, match="finite and >= 0"):
            FaultPlan.parse(spec)

    @pytest.mark.parametrize("seconds", (-1.0, math.nan, math.inf))
    def test_fault_rejects_bad_seconds(self, seconds):
        with pytest.raises(ValueError, match="finite and >= 0"):
            Fault(mode="delay", seconds=seconds)

    def test_zero_seconds_is_valid(self):
        assert FaultPlan.parse("delay@0.0:0").faults[0].seconds == 0.0


class TestCrashRecovery:
    def test_crash_on_first_attempt_recovers(self, small_random,
                                             serial_results):
        """Request 0's worker dies on attempt 0: the supervisor heals the
        pool, resubmits the lost requests, and every result is
        bit-identical to serial — no BrokenProcessPool escapes."""
        before = pool_stats()
        results = mine_topk_requests(
            small_random, REQUESTS, n_jobs=2,
            fault=FaultPlan.parse("kill@0.0"),
        )
        after = pool_stats()
        _assert_serial(serial_results, results)
        # Recovered, not degraded.
        assert all(result.stats.degraded is False for result in results)
        assert after["shard_retries"] - before["shard_retries"] >= 1
        assert (after["pool_restarts_on_failure"]
                - before["pool_restarts_on_failure"]) >= 1
        assert (after["serial_degradations"]
                == before["serial_degradations"])

    def test_crash_on_retry_degrades_serially(self, small_random,
                                              serial_results):
        """Workers die on the first attempt *and* the retry: the retry
        cap trips and the remaining requests run serially in-process —
        still bit-identical, flagged degraded, counted exactly once."""
        before = pool_stats()
        results = mine_topk_requests(
            small_random, REQUESTS, n_jobs=2,
            fault=FaultPlan.parse("kill@*.*"),
        )
        after = pool_stats()
        _assert_serial(serial_results, results)
        assert all(result.stats.degraded is True for result in results)
        assert after["serial_degradations"] - before["serial_degradations"] == 1
        assert after["shard_retries"] - before["shard_retries"] >= 1

    def test_crash_on_single_shard_retry_only(self, small_random):
        """Kill only FARMER row shard 0 on both pool attempts: the
        stubborn shard degrades to this process and the concatenated
        groups are still the serial emission order."""
        serial = mine_farmer(small_random, 1, 2)
        result = mine_farmer(
            small_random, 1, 2, n_jobs=2,
            fault=FaultPlan.parse("kill@0.0;kill@0.1"),
        )
        assert _farmer_row_sets(result) == _farmer_row_sets(serial)
        assert result.stats.nodes_visited == serial.stats.nodes_visited
        assert result.stats.degraded is True

    def test_hang_until_timeout_is_bounded(self, small_random):
        """A request hung for up to 30 s is released by the global time
        budget through the cancellation slot: the mine returns within
        the budget (plus watcher latency), never hanging the caller."""
        start = time.monotonic()
        results = mine_topk_requests(
            small_random, REQUESTS, n_jobs=2, time_budget=0.4,
            fault=FaultPlan.parse("hang@0.0:30"),
        )
        elapsed = time.monotonic() - start
        assert elapsed < 5.0
        # Cooperative cancellation: a mine small enough to finish under
        # the poll stride may still complete fully — in that case the
        # result must be the exact serial result.
        for request, result in zip(REQUESTS, results):
            if result.stats.completed:
                assert results_equal(
                    mine_topk(small_random, request.consequent,
                              request.minsup, k=request.k),
                    result,
                )

    def test_crash_during_sharded_auto_jobs(self, small_random,
                                            serial_results, monkeypatch):
        """n_jobs="auto" forced into the parallel branch + a worker kill:
        the planner path recovers exactly like the explicit path."""
        monkeypatch.setattr(planner, "usable_cpus", lambda: 2)
        monkeypatch.setattr(planner, "_AUTO_TOPK_SERIAL_UNITS", 0)
        before = pool_stats()
        results = mine_topk_requests(
            small_random, REQUESTS, n_jobs=AUTO_JOBS,
            fault=FaultPlan.parse("kill@0.0"),
        )
        _assert_serial(serial_results, results)
        assert pool_stats()["shard_retries"] > before["shard_retries"]

    def test_farmer_crash_recovers(self, small_random):
        serial = mine_farmer(small_random, 1, 2)
        recovered = mine_farmer(
            small_random, 1, 2, n_jobs=2, fault=FaultPlan.parse("kill@0.0")
        )
        assert _farmer_row_sets(recovered) == _farmer_row_sets(serial)
        assert recovered.stats.degraded is False

    def test_delay_fault_changes_nothing(self, small_random, serial_results):
        results = mine_topk_requests(
            small_random, REQUESTS, n_jobs=2,
            fault=FaultPlan.parse("delay@*.0:0.05"),
        )
        _assert_serial(serial_results, results)
        assert all(result.stats.degraded is False for result in results)


class TestHybridPartitionFaults:
    """Hybrid column partitions ride the same supervisor:
    a killed partition worker is retried on a healed pool, and the
    caller's cancellation token still stops a parallel hybrid run."""

    def test_partition_worker_crash_recovers(self, small_random):
        """Partition 0's worker dies on attempt 0: the supervisor heals
        the pool, re-mines the lost partition, and the aggregated result
        is bit-identical to the serial hybrid run."""
        serial = mine_topk_hybrid(small_random, 1, 2, k=4)
        recovered = mine_topk_hybrid(
            small_random, 1, 2, k=4, n_jobs=2,
            fault=FaultPlan.parse("kill@0.0"),
        )
        assert results_equal(serial, recovered)
        assert recovered.stats.completed is True

    def test_preset_cancel_parallel_marks_incomplete(self, small_random):
        """A cancel set before the parallel partition fan-out yields an
        honest partial result instead of hanging or raising."""
        cancel = threading.Event()
        cancel.set()
        result = mine_topk_hybrid(
            small_random, 1, 2, k=4, n_jobs=2, cancel=cancel,
        )
        assert result.stats.completed is False


class TestHardFailures:
    """An ordinary job exception is a bug, not a crash: it must
    propagate — but without leaving sibling jobs running unobserved."""

    def test_injected_raise_propagates(self, small_random):
        with pytest.raises(InjectedFault, match="injected fault"):
            mine_topk_requests(
                small_random, REQUESTS, n_jobs=2,
                fault=FaultPlan.parse("raise@0.0"),
            )

    def test_raise_cancels_pending_shards(self, small_random):
        """Regression for the in-order ``.result()`` loop: pre-fix, an
        early job's exception left every later job queued/running on
        the pool (wasted CPU, lost exceptions).  Eight slow sibling
        requests behind one worker take 4 s if they all run;
        cancellation can only spare the truly pending ones (the executor
        prefetches ~2 into its call queue, where futures are already
        RUNNING), so a healthy fix finishes in well under the all-run
        time."""
        # Two workers asked for, so the jobs go to the pool (one worker
        # runs them in this process); the pool caps itself at one.
        pool = MinerPool(max_workers=1)
        jobs = [REQUESTS[0]] * 9
        fault = FaultPlan.parse(
            "raise@0.0;" + ";".join(
                f"delay@{shard}.0:0.5" for shard in range(1, 9)
            )
        )
        try:
            start = time.monotonic()
            with pytest.raises(InjectedFault):
                run_jobs(small_random, jobs, 2, pool=pool, fault=fault)
            elapsed = time.monotonic() - start
            # All-run (pre-fix) is 8 * 0.5 = 4 s on the lone worker;
            # post-fix at most the prefetched couple of delays run.
            assert elapsed < 3.0
        finally:
            pool.close()

    def test_smallest_index_error_wins(self, small_random):
        """Two raising jobs: the reported failure is deterministic
        (the smallest job index), not submission-race-dependent."""
        with pytest.raises(InjectedFault, match="shard 0"):
            mine_topk_requests(
                small_random, REQUESTS, n_jobs=2,
                fault=FaultPlan.parse("raise@0.0;raise@1.0"),
            )


class TestSlotExhaustionFallback:
    def test_execute_degrades_when_no_slot_free(self, small_random,
                                                monkeypatch,
                                                serial_results):
        """All cancellation slots leased + a cancellable mine: instead
        of raising (pre-fix: a 500 through the service), the call runs
        watcher-free and serial in this process, exact as ever."""
        monkeypatch.setattr(parallel_mod, "_SLOT_WAIT_SECONDS", 0.05)
        pool = MinerPool()
        leased = [pool.acquire_slot()
                  for _ in range(parallel_mod._POOL_CANCEL_SLOTS)]
        jobs = list(REQUESTS)
        before = pool_stats()
        try:
            outputs = run_jobs(
                small_random, jobs, 2, cancel=threading.Event(), pool=pool
            )
        finally:
            for index in leased:
                pool.release_slot(index)
            pool.close()
        after = pool_stats()
        assert all(stats.degraded is True for _result, stats in outputs)
        assert after["serial_degradations"] - before["serial_degradations"] == 1
        assert after["shard_retries"] == before["shard_retries"]
        _assert_serial(serial_results, [result for result, _ in outputs])

    def test_cancel_still_honored_in_degraded_mode(self, small_random,
                                                   monkeypatch):
        """The watcher-free fallback polls the caller's token directly:
        a pre-set cancel yields a partial (completed=False) result."""
        monkeypatch.setattr(parallel_mod, "_SLOT_WAIT_SECONDS", 0.05)
        pool = MinerPool()
        leased = [pool.acquire_slot()
                  for _ in range(parallel_mod._POOL_CANCEL_SLOTS)]
        cancel = threading.Event()
        cancel.set()
        request = MineRequest(consequent=1, minsup=1, k=8)
        jobs = [request, request]
        before = pool_stats()
        try:
            outputs = run_jobs(
                small_random, jobs, 2, cancel=cancel, pool=pool
            )
        finally:
            for index in leased:
                pool.release_slot(index)
            pool.close()
        after = pool_stats()
        assert all(stats.degraded is True for _result, stats in outputs)
        assert after["serial_degradations"] - before["serial_degradations"] == 1
        assert all(result.stats.completed is False for result, _ in outputs)
