"""Every parallel path must reproduce serial mining bit for bit.

One top-k enumeration always runs in one process (DESIGN.md §7): its
dynamic thresholds cannot be split across row shards.  What runs on the
process pool are independent units — FARMER row shards, whose static
thresholds make the ascending-order concatenation exact, hybrid
partitions, and whole top-k mines, one per request — so every result,
node counters included, equals the serial one.
"""

from __future__ import annotations

import ast
import threading
import time
from pathlib import Path

import pytest

import repro.parallel as parallel_mod
from repro.baselines.farmer import mine_farmer
from repro.classifiers import RCBTClassifier
from repro.classifiers.persistence import classifier_to_payload
from repro.core.enumeration import ENGINES, POLL_STRIDE
from repro.core.topk_miner import mine_topk
from repro.data.synthetic import random_discretized_dataset
from repro.parallel import (
    AUTO_JOBS,
    MineRequest,
    MinerPool,
    merge_stats,
    mine_topk_requests,
    parallel_map,
    plan_shards,
    plan_workers,
    pool_stats,
    resolve_n_jobs,
    results_equal,
    run_jobs,
)


def _farmer_groups(result):
    return [
        (g.antecedent, g.consequent, g.row_set, g.support, g.confidence)
        for g in result.groups
    ]


def _serial(dataset, request):
    return mine_topk(dataset, request.consequent, request.minsup,
                     k=request.k, engine=request.engine,
                     initialize_single_items=request.initialize_single_items,
                     dynamic_minsup=request.dynamic_minsup,
                     use_topk_pruning=request.use_topk_pruning)


def _benchmark_requests(k):
    """One request per class of ``small_benchmark`` (11 AML, 27 ALL
    training rows), each at ~70-90% of its class."""
    return [MineRequest(consequent=0, minsup=8, k=k),
            MineRequest(consequent=1, minsup=25, k=k)]


def _assert_serial_units(dataset, requests, results):
    """Each per-request unit is its serial mine, stats counters too."""
    assert len(results) == len(requests)
    for request, result in zip(requests, results):
        serial = _serial(dataset, request)
        assert results_equal(serial, result)
        assert result.stats.nodes_visited == serial.stats.nodes_visited
        assert result.stats.groups_emitted == serial.stats.groups_emitted
        assert result.stats.loose_pruned == serial.stats.loose_pruned
        assert result.stats.tight_pruned == serial.stats.tight_pruned
        assert result.stats.backward_pruned == serial.stats.backward_pruned


class TestPlanShards:
    @pytest.mark.parametrize("n_rows", (0, 1, 3, 10, 38, 65))
    @pytest.mark.parametrize("n_jobs", (1, 2, 4, 7))
    def test_partition(self, n_rows, n_jobs):
        """Shards are disjoint, ascending, and cover every first row."""
        masks = plan_shards(n_rows, n_jobs)
        union = 0
        previous_low = -1
        for mask in masks:
            assert mask > 0
            assert union & mask == 0
            low = (mask & -mask).bit_length() - 1
            assert low > previous_low
            previous_low = low
            union |= mask
        assert union == (1 << n_rows) - 1

    def test_serial_is_one_shard(self):
        assert plan_shards(12, 1) == [(1 << 12) - 1]

    def test_big_roots_are_singletons(self):
        masks = plan_shards(64, 4)
        singles = [mask for mask in masks if mask.bit_count() == 1]
        assert len(singles) == 8  # 2 * n_jobs
        assert singles == [1 << position for position in range(8)]


class TestResolveNJobs:
    def test_values(self):
        import os

        cores = os.cpu_count() or 1
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(3) == 3
        assert resolve_n_jobs(None) == cores
        assert resolve_n_jobs(0) == cores
        assert resolve_n_jobs(-1) == cores
        assert resolve_n_jobs(-10_000) == 1


class TestTopkDeterminism:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("n_jobs", (2, 3))
    def test_figure1_all_engines(self, figure1, engine, n_jobs):
        requests = [MineRequest(consequent=1, minsup=2, k=k, engine=engine)
                    for k in (1, 3)]
        results = mine_topk_requests(figure1, requests, n_jobs=n_jobs)
        _assert_serial_units(figure1, requests, results)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_small_random_both_classes(self, small_random, engine):
        """A direct mine ignores ``n_jobs``: it is one enumeration in
        this process, so even the node counters are the serial ones."""
        for consequent in (0, 1):
            serial = mine_topk(small_random, consequent, 2, k=4, engine=engine)
            for n_jobs in (2, 3, "auto"):
                direct = mine_topk(small_random, consequent, 2, k=4,
                                   engine=engine, n_jobs=n_jobs)
                assert results_equal(serial, direct)
                assert direct.stats.nodes_visited == serial.stats.nodes_visited

    @pytest.mark.parametrize(
        "flags",
        (
            {"initialize_single_items": False},
            {"dynamic_minsup": False},
            {"use_topk_pruning": False},
            {
                "initialize_single_items": False,
                "dynamic_minsup": False,
                "use_topk_pruning": False,
            },
        ),
    )
    def test_optimization_flags(self, small_random, flags):
        requests = [MineRequest(consequent=c, minsup=2, k=3, **flags)
                    for c in (0, 1)]
        results = mine_topk_requests(small_random, requests, n_jobs=4)
        _assert_serial_units(small_random, requests, results)

    def test_benchmark_workload(self, small_benchmark):
        train = small_benchmark.train_items
        requests = _benchmark_requests(k=10)
        results = mine_topk_requests(train, requests, n_jobs=4)
        _assert_serial_units(train, requests, results)
        # Group-level totals are the serial ones too.
        serial = mine_topk(train, 1, 25, k=10)
        assert [g.row_set for g in serial.unique_groups()] == [
            g.row_set for g in results[1].unique_groups()
        ]

    def test_static_config_stats_identical(self, small_random):
        """Static or dynamic thresholds, a per-request unit is one whole
        serial mine, so every stats counter matches serial."""
        requests = [
            MineRequest(consequent=0, minsup=2, k=3,
                        use_topk_pruning=False, dynamic_minsup=False),
            MineRequest(consequent=0, minsup=2, k=3),
        ]
        results = mine_topk_requests(small_random, requests, n_jobs=4)
        _assert_serial_units(small_random, requests, results)


class TestFarmerDeterminism:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_groups_and_stats_identical(self, small_random, engine):
        serial = mine_farmer(small_random, 1, 2, engine=engine)
        parallel = mine_farmer(small_random, 1, 2, engine=engine, n_jobs=4)
        assert _farmer_groups(serial) == _farmer_groups(parallel)
        # FARMER's thresholds are static, so even the node counters are
        # exactly the serial ones after summing over shards.
        assert serial.stats.nodes_visited == parallel.stats.nodes_visited
        assert serial.stats.groups_emitted == parallel.stats.groups_emitted

    def test_minconf(self, small_random):
        serial = mine_farmer(small_random, 1, 2, minconf=0.8)
        parallel = mine_farmer(small_random, 1, 2, minconf=0.8, n_jobs=3)
        assert _farmer_groups(serial) == _farmer_groups(parallel)

    def test_max_groups_truncates_at_serial_point(self, small_random):
        serial = mine_farmer(small_random, 1, 2, max_groups=4)
        parallel = mine_farmer(small_random, 1, 2, max_groups=4, n_jobs=3)
        assert _farmer_groups(serial) == _farmer_groups(parallel)
        assert not serial.stats.completed
        assert not parallel.stats.completed


class TestPartialResults:
    def test_preset_cancel_returns_partial(self, small_benchmark):
        token = threading.Event()
        token.set()
        requests = _benchmark_requests(k=5)
        results = mine_topk_requests(
            small_benchmark.train_items, requests, n_jobs=2, cancel=token
        )
        for result in results:
            assert not result.stats.completed
            # The cooperative stop lands within POLL_STRIDE nodes.
            assert result.stats.nodes_visited <= POLL_STRIDE

    def test_serial_farmer_honours_preset_cancel(self, small_benchmark):
        """The serial FARMER path polls ``cancel`` like the shards do."""
        train = small_benchmark.train_items
        full = mine_farmer(train, 1, 25)
        assert full.stats.completed
        assert full.stats.nodes_visited > POLL_STRIDE
        token = threading.Event()
        token.set()
        result = mine_farmer(train, 1, 25, n_jobs=1, cancel=token)
        assert not result.stats.completed
        assert result.stats.nodes_visited <= POLL_STRIDE

    def test_serial_requests_share_one_deadline(self):
        """With one worker the batch's ``time_budget`` is one deadline,
        not a fresh budget per request: two requests that would each
        run for seconds return within the budget plus a stated slack
        (per-request budgets would take at least twice the budget)."""
        # Dense enough that each k=100 mine runs ~15 s unbounded.
        dense = random_discretized_dataset(
            n_rows=56, n_items=200, density=0.95, seed=3
        )
        requests = [MineRequest(consequent=c, minsup=1, k=100)
                    for c in (0, 1)]
        budget, slack = 0.5, 0.4
        start = time.monotonic()
        results = mine_topk_requests(dense, requests, n_jobs=1,
                                     time_budget=budget)
        elapsed = time.monotonic() - start
        assert elapsed < budget + slack
        assert not any(result.stats.completed for result in results)

    def test_node_budget_is_per_shard(self, small_benchmark):
        """FARMER row shards each get the whole ``node_budget``."""
        train = small_benchmark.train_items
        result = mine_farmer(train, 1, 25, n_jobs=2, node_budget=5)
        assert not result.stats.completed
        shards = len(plan_shards(train.n_rows, 2))
        assert 5 < result.stats.nodes_visited <= 6 * shards
        # Partial output is still a prefix of the serial emission order.
        serial = _farmer_groups(mine_farmer(train, 1, 25))
        partial = _farmer_groups(result)
        assert all(group in serial for group in partial)

    def test_cancel_mid_run(self, small_benchmark):
        token = threading.Event()
        timer = threading.Timer(0.05, token.set)
        timer.start()
        requests = _benchmark_requests(k=10)
        try:
            results = mine_topk_requests(
                small_benchmark.train_items, requests, n_jobs=2,
                cancel=token,
            )
        finally:
            timer.cancel()
        # Either a mine beat the timer (completed) or it was stopped
        # cooperatively and returned a partial result; both are valid.
        for result in results:
            assert isinstance(result.stats.completed, bool)


class TestShardedRequests:
    def test_multiple_requests_match_serial(self, small_random):
        requests = [
            MineRequest(consequent=0, minsup=2, k=3),
            MineRequest(consequent=1, minsup=2, k=2),
        ]
        results = mine_topk_requests(small_random, requests, n_jobs=3)
        _assert_serial_units(small_random, requests, results)

    def test_n_jobs_one_runs_inline(self, small_random):
        requests = [MineRequest(consequent=0, minsup=2, k=2)]
        (result,) = mine_topk_requests(small_random, requests, n_jobs=1)
        serial = mine_topk(small_random, 0, 2, k=2)
        assert results_equal(serial, result)


class TestClassifierParallel:
    def test_rcbt_fit_identical(self, small_benchmark):
        train = small_benchmark.train_items
        test = small_benchmark.test_items
        serial = RCBTClassifier(k=3, nl=3).fit(train)
        parallel = RCBTClassifier(k=3, nl=3, n_jobs=2).fit(train)
        for class_id in serial.topk_results_:
            assert results_equal(
                serial.topk_results_[class_id],
                parallel.topk_results_[class_id],
            )
        assert serial.predict(test) == parallel.predict(test)
        assert serial.n_levels_ == parallel.n_levels_

    def test_rcbt_per_class_mines_are_whole_serial_mines(self,
                                                         small_benchmark):
        """Each class is one whole mine on a worker: the model is the
        serial one and so is every class's ``nodes_visited`` — a
        row-sharded mine would visit more, its shards blind to each
        other's thresholds."""
        train = small_benchmark.train_items
        # At k=10 a row-sharded mine visits ~1.2-1.6x the serial nodes
        # of each class here; k=3 trees are too small to show it.
        serial = RCBTClassifier(k=10, nl=3).fit(train)
        parallel = RCBTClassifier(k=10, nl=3, n_jobs=2).fit(train)
        assert classifier_to_payload(parallel) == classifier_to_payload(serial)
        test = small_benchmark.test_items
        assert parallel.predict(test) == serial.predict(test)
        assert serial.topk_results_.keys() == parallel.topk_results_.keys()
        for class_id, result in serial.topk_results_.items():
            assert results_equal(result, parallel.topk_results_[class_id])
            assert (parallel.topk_results_[class_id].stats.nodes_visited
                    == result.stats.nodes_visited)


class TestServiceParallelMining:
    def test_mine_job_with_n_jobs_matches_serial(self, small_random):
        """A service configured with worker processes serves the same
        payload as a serial one, from the same cache key."""
        from repro.data.loaders import discretized_to_payload
        from repro.service.server import RuleService

        body = {
            "items": discretized_to_payload(small_random),
            "consequent": 1,
            "k": 2,
            "minsup": 2,
            "n_jobs": 8,  # capped at the service's mine_jobs
            # Only a hybrid mine has units to spread over workers.
            "strategy": "hybrid",
        }
        serial_service = RuleService(mining_workers=1, mine_jobs=1)
        parallel_service = RuleService(mining_workers=1, mine_jobs=2)
        try:
            payloads = []
            for service in (serial_service, parallel_service):
                submitted = service.submit_mine(dict(body))
                job = service.jobs.get(submitted["job_id"])
                assert job.wait(timeout=60.0)
                assert job.status == "done"
                payloads.append(job.result)
                # Bit-identical output means the cache key is shared:
                # a re-submit is a hit regardless of n_jobs.
                cached = service.submit_mine(dict(body))
                assert cached["cached"] is True
                assert cached["result"] == job.result
            # The mined output is bit-identical; only the run stats
            # (wall-clock times) differ.
            mined = [
                {key: value for key, value in payload.items() if key != "stats"}
                for payload in payloads
            ]
            assert mined[0] == mined[1]
        finally:
            serial_service.shutdown()
            parallel_service.shutdown()

    def test_bad_n_jobs_rejected(self, small_random):
        from repro.data.loaders import discretized_to_payload
        from repro.service.server import RuleService, ServiceError

        service = RuleService(mining_workers=1)
        try:
            with pytest.raises(ServiceError):
                service.submit_mine({
                    "items": discretized_to_payload(small_random),
                    "consequent": 1,
                    "minsup": 2,
                    "n_jobs": 0,
                })
        finally:
            service.shutdown()


class TestHelpers:
    def test_merge_stats(self):
        from repro.core.enumeration import MinerStats

        merged = merge_stats(
            [
                MinerStats(nodes_visited=5, groups_emitted=2,
                           elapsed_seconds=0.5),
                MinerStats(nodes_visited=7, loose_pruned=1,
                           elapsed_seconds=0.2, completed=False),
            ],
            engine="tree",
        )
        assert merged.nodes_visited == 12
        assert merged.groups_emitted == 2
        assert merged.loose_pruned == 1
        assert merged.elapsed_seconds == 0.5
        assert merged.engine == "tree"
        assert not merged.completed

    def test_parallel_map_preserves_order(self):
        assert parallel_map(_square, [3, 1, 2], n_jobs=2) == [9, 1, 4]
        assert parallel_map(_square, [], n_jobs=2) == []
        assert parallel_map(_square, [5], n_jobs=4) == [25]

    def test_results_equal_detects_differences(self, figure1):
        a = mine_topk(figure1, 1, 2, k=2)
        b = mine_topk(figure1, 1, 2, k=1)
        assert results_equal(a, a)
        assert not results_equal(a, b)


def _square(value: int) -> int:
    # Module level so parallel_map can pickle it into workers.
    return value * value


class TestLayering:
    def test_parallel_imports_no_miner_module(self):
        """The pool runs jobs it never looks inside: ``repro.parallel``
        imports neither the baselines nor the hybrid miner, whose jobs
        it runs."""
        source = Path(__file__).resolve().parents[1] / "src/repro/parallel.py"
        forbidden = ("repro.baselines", "repro.core.hybrid")
        imported = []
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                imported.extend(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    base = "repro" + (f".{base}" if base else "")
                imported.append(base)
                imported.extend(f"{base}.{alias.name}" for alias in node.names)
        offending = [
            name for name in imported
            if any(name == bad or name.startswith(bad + ".")
                   for bad in forbidden)
        ]
        assert offending == []

    @pytest.mark.parametrize("module", (
        "core/hybrid.py", "baselines/farmer.py", "classifiers/rcbt.py",
    ))
    def test_job_owners_use_only_the_public_runner(self, module):
        """The job owners build jobs and merge outputs through
        ``repro.parallel``'s public names; the runner's private helpers
        and planner constants stay inside it."""
        source = Path(__file__).resolve().parents[1] / "src/repro" / module
        private = []
        for node in ast.walk(ast.parse(source.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                target = node.module or ""
            else:
                target = (node.module or "").removeprefix("repro.")
            if target == "parallel":
                private.extend(alias.name for alias in node.names
                               if alias.name.startswith("_"))
        assert private == []


class TestRunner:
    def test_one_worker_runs_in_process_without_degrading(self, small_random):
        """One worker: the jobs run here, in order, never touching the
        pool or the recovery counters."""
        jobs = [MineRequest(consequent=1, minsup=2, k=3),
                MineRequest(consequent=0, minsup=2, k=3)]
        pool = MinerPool()
        before = pool_stats()["serial_degradations"]
        outputs, recovery = run_jobs(small_random, jobs, 1, pool=pool)
        assert pool.started == 0
        assert recovery["degraded"] is False
        assert pool_stats()["serial_degradations"] == before
        for request, (result, stats) in zip(jobs, outputs):
            assert stats is result.stats and stats.degraded is False
            assert results_equal(result, _serial(small_random, request))

    def test_plan_workers_estimates_only_for_auto(self, monkeypatch):
        def never():
            raise AssertionError("work estimated for a fixed n_jobs")

        assert plan_workers(3, never, "topk") == 3
        assert plan_workers(1, never, "farmer") == 1
        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 4)
        assert plan_workers(AUTO_JOBS, lambda: 10, "topk") == 1
        assert plan_workers(AUTO_JOBS, lambda: 10**9, "topk") == 4
        # The FARMER rung sits below the top-k one.
        units = (parallel_mod._AUTO_FARMER_SERIAL_UNITS
                 + parallel_mod._AUTO_TOPK_SERIAL_UNITS) // 2
        assert plan_workers(AUTO_JOBS, lambda: units, "farmer") == 4
        assert plan_workers(AUTO_JOBS, lambda: units, "topk") == 1

    @pytest.mark.parametrize("time_budget", (float("nan"), -1.0))
    def test_bad_time_budget_raises(self, small_random, time_budget):
        with pytest.raises(ValueError, match="time_budget"):
            run_jobs(small_random, [MineRequest(consequent=1, minsup=2)], 1,
                     time_budget=time_budget)

