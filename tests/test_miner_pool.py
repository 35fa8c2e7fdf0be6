"""The persistent warm miner pool and the adaptive execution planner.

:class:`repro.parallel.MinerPool` replaces per-call executors: workers
start once, stay warm, and later mines ride already-running processes.
These tests pin the lifecycle contract (reuse counters, grow-replaces,
close-then-restart, cancellation-slot leasing) and the planner contract
(``n_jobs="auto"`` resolves to serial below the work threshold or on a
single-core host, to all cores otherwise — and changes nothing about the
mined output either way).  Pool mines here are whole top-k mines, one
per request (:func:`repro.parallel.mine_topk_requests`).

Pool tests use private :class:`MinerPool` instances so the process-wide
default pool's state (warmed by other test modules) never leaks in;
planner tests monkeypatch :func:`repro.parallel.usable_cpus` so they
are deterministic on any host.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

import repro.core.planner as planner
from repro.core.topk_miner import mine_topk
from repro.parallel import (
    AUTO_JOBS,
    MineRequest,
    MinerPool,
    _POOL_CANCEL_SLOTS,
    get_pool,
    mine_topk_requests,
    plan,
    pool_stats,
    results_equal,
)
from repro.core.view import MiningView


class TestMinerPoolLifecycle:
    def test_reuse_counts(self):
        pool = MinerPool()
        try:
            first = pool.executor(2)
            assert pool.size == 2
            assert (pool.started, pool.reuses) == (1, 0)
            second = pool.executor(2)
            assert second is first
            assert (pool.started, pool.reuses) == (1, 1)
            # A smaller request also rides the running executor.
            third = pool.executor(1)
            assert third is first
            assert (pool.started, pool.reuses) == (1, 2)
        finally:
            pool.close()

    def test_grow_replaces_executor(self):
        pool = MinerPool()
        try:
            small = pool.executor(2)
            grown = pool.executor(3)
            assert grown is not small
            assert pool.size == 3
            assert pool.started == 2
            # The grown executor actually runs tasks.
            assert grown.submit(int, "7").result(timeout=30) == 7
        finally:
            pool.close()

    def test_close_then_restart(self):
        pool = MinerPool()
        try:
            pool.executor(2)
            pool.close()
            assert pool.size == 0
            revived = pool.executor(2)
            assert pool.size == 2
            assert pool.started == 2
            assert revived.submit(int, "3").result(timeout=30) == 3
        finally:
            pool.close()

    def test_max_workers_cap(self):
        pool = MinerPool(max_workers=2)
        try:
            pool.executor(8)
            assert pool.size == 2
        finally:
            pool.close()

    def test_slot_lease_cycle(self):
        pool = MinerPool()
        first = pool.acquire_slot()
        second = pool.acquire_slot()
        assert first != second
        pool.cancel_slot(first)
        assert pool._slots[first] == 1
        assert pool._slots[second] == 0
        pool.release_slot(first)
        assert pool._slots[first] == 0
        # The released slot is leasable again.
        leased = {pool.acquire_slot() for _ in range(2)}
        assert first in leased
        pool.release_slot(second)

    def test_slot_exhaustion_times_out_with_minus_one(self):
        """Leasing past the slot count no longer raises (pre-fix the 65th
        concurrent cancellable mine got a RuntimeError, which the service
        surfaced as a client-visible 500): the bounded wait expires and
        the caller receives -1, the serial-fallback sentinel."""
        pool = MinerPool()
        leased = [pool.acquire_slot() for _ in range(_POOL_CANCEL_SLOTS)]
        assert pool.acquire_slot(timeout=0.05) == -1
        for index in leased:
            pool.release_slot(index)

    def test_slot_release_unblocks_waiter(self):
        pool = MinerPool()
        leased = [pool.acquire_slot() for _ in range(_POOL_CANCEL_SLOTS)]
        got = []

        def waiter():
            got.append(pool.acquire_slot(timeout=5.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        pool.release_slot(leased.pop())
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert len(got) == 1 and got[0] >= 0
        pool.release_slot(got[0])
        for index in leased:
            pool.release_slot(index)

    def test_heal_replaces_broken_executor(self):
        """A worker death breaks the executor; heal() retires the broken
        generation and the next use starts a fresh, working one."""
        pool = MinerPool(max_workers=1)
        try:
            executor = pool.executor(1)
            with pytest.raises(Exception):
                executor.submit(os._exit, 1).result(timeout=30)
            assert pool.heal() is True
            assert pool.failure_restarts == 1
            # A healthy pool is left alone.
            assert pool.heal() is False
            assert pool.failure_restarts == 1
            revived = pool.executor(1)
            assert revived.submit(int, "5").result(timeout=30) == 5
        finally:
            pool.close()

    def test_default_pool_is_singleton(self):
        assert get_pool() is get_pool()

    def test_pool_stats_keys(self):
        stats = pool_stats()
        assert set(stats) == {
            "miner_pool_started",
            "miner_pool_reuses",
            "planner_serial_fallbacks",
            "shard_retries",
            "pool_restarts_on_failure",
            "serial_degradations",
        }
        assert all(isinstance(v, int) and v >= 0 for v in stats.values())


class _Masses:
    """Dataset stand-in for the planner: ``n_items`` items on every row,
    so the support mass of any consequent is ``n_rows * n_items``."""

    def __init__(self, n_rows, n_items):
        self.n_rows = n_rows
        self.n_items = n_items

    def item_row_sets(self):
        return [(1 << self.n_rows) - 1] * self.n_items

    def class_mask(self, consequent):
        return (1 << self.n_rows) - 1


def _auto_workers(dataset, task="requests", k=1):
    pairs = ([1], [1]) if task == "requests" else (1, 1)
    return plan(dataset, *pairs, task=task, k=k, n_jobs=AUTO_JOBS).workers


class TestAdaptivePlanner:
    def test_serial_below_threshold(self, monkeypatch):
        monkeypatch.setattr(planner, "usable_cpus", lambda: 4)
        before = pool_stats()["planner_serial_fallbacks"]
        assert _auto_workers(_Masses(10, 10)) == 1
        assert pool_stats()["planner_serial_fallbacks"] == before + 1

    def test_parallel_above_threshold(self, monkeypatch):
        monkeypatch.setattr(planner, "usable_cpus", lambda: 4)
        before = pool_stats()["planner_serial_fallbacks"]
        assert _auto_workers(_Masses(1000, 1000)) == 4
        assert pool_stats()["planner_serial_fallbacks"] == before

    def test_single_core_always_serial(self, monkeypatch):
        monkeypatch.setattr(planner, "usable_cpus", lambda: 1)
        assert _auto_workers(_Masses(1000, 1000)) == 1

    def test_work_estimates_scale(self, small_random, monkeypatch):
        """Top-k work is support mass x (1 + k), FARMER work support
        mass x rows; both read the mass the miners' index counts."""
        monkeypatch.setattr(planner, "usable_cpus", lambda: 4)
        mass = MiningView.cached(small_random, 0, 2).support_index().support_mass
        assert mass > 0
        planned = plan(small_random, [0], [2], task="requests",
                       n_jobs=AUTO_JOBS)
        assert planned.support_mass == mass
        assert planned.density == mass / small_random.n_rows ** 2
        # 100 rows x 1000 items: 100k mass.  k=1 top-k work (200k) is
        # below its rung, k=3 (400k) and FARMER (10M) are not.
        cohort = _Masses(100, 1000)
        assert _auto_workers(cohort, k=1) == 1
        assert _auto_workers(cohort, k=3) == 4
        assert _auto_workers(cohort, task="farmer") == 4

    def test_auto_matches_serial_bit_for_bit(self, small_random):
        for consequent in (0, 1):
            serial = mine_topk(small_random, consequent, 2, k=4)
            auto = mine_topk(small_random, consequent, 2, k=4, n_jobs=AUTO_JOBS)
            assert results_equal(serial, auto)
            assert auto.stats.nodes_visited == serial.stats.nodes_visited

    def test_auto_small_workload_counts_fallback(self, small_random):
        """A tiny batch is far below _AUTO_TOPK_SERIAL_UNITS, so the
        planner must pick serial and count the decision once."""
        view = MiningView.cached(small_random, 0, 2)
        assert 2 * view.support_index().support_mass * 5 < (
            planner._AUTO_TOPK_SERIAL_UNITS)
        before = pool_stats()["planner_serial_fallbacks"]
        mine_topk_requests(small_random, _requests(), n_jobs=AUTO_JOBS)
        assert pool_stats()["planner_serial_fallbacks"] == before + 1

    def test_auto_forced_parallel_matches_serial(self, small_random,
                                                 monkeypatch):
        """Force the planner into the parallel branch (cores=2, zero
        threshold) and check the warm-pool path still reproduces the
        serial results exactly."""
        monkeypatch.setattr(planner, "usable_cpus", lambda: 2)
        monkeypatch.setattr(planner, "_AUTO_TOPK_SERIAL_UNITS", 0)
        before = pool_stats()["planner_serial_fallbacks"]
        auto = mine_topk_requests(small_random, _requests(), n_jobs=AUTO_JOBS)
        assert pool_stats()["planner_serial_fallbacks"] == before
        _assert_serial(small_random, auto)


def _requests():
    return [MineRequest(consequent=c, minsup=2, k=4) for c in (0, 1)]


def _assert_serial(dataset, results):
    for request, result in zip(_requests(), results, strict=True):
        serial = mine_topk(dataset, request.consequent, request.minsup,
                           k=request.k)
        assert results_equal(serial, result)
        assert result.stats.nodes_visited == serial.stats.nodes_visited


class TestWarmPoolMining:
    def test_pool_reuse_across_mines(self, small_random):
        """Two pool mines: the second rides the warm workers."""
        pool = get_pool()
        first = mine_topk_requests(small_random, _requests(), n_jobs=2)
        started_after_first = pool.started
        reuses_after_first = pool.reuses
        assert started_after_first >= 1
        second = mine_topk_requests(small_random, _requests(), n_jobs=2)
        assert pool.started == started_after_first  # no new executor
        assert pool.reuses > reuses_after_first
        _assert_serial(small_random, first)
        _assert_serial(small_random, second)

    def test_mine_after_shutdown_restarts(self, small_random):
        pool = get_pool()
        mine_topk_requests(small_random, _requests(), n_jobs=2)
        pool.close()
        started_before = pool.started
        revived = mine_topk_requests(small_random, _requests(), n_jobs=2)
        assert pool.started == started_before + 1
        _assert_serial(small_random, revived)
