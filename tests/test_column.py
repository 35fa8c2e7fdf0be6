"""The column route: top-k lists from CHARM's closed sets.

:func:`repro.core.column.mine_topk_column` walks the closed sets of the
view and offers each one to an ordinary ``TopkPolicy``, so its per-row
lists must be the direct mine's, bit for bit, on any input; budgets and
cancellation behave as in every other miner.
"""

from __future__ import annotations

import threading

import pytest

import repro.audit.invariants as invariants
from repro.baselines import mine_charm
from repro.core.column import mine_topk_column, walk_closed_sets
from repro.core.enumeration import POLL_STRIDE, MinerStats, _Budget
from repro.core.topk_miner import mine_topk, relative_minsup
from repro.core.view import MiningView
from repro.data import random_discretized_dataset
from repro.data.dataset import DiscretizedDataset, Item
from repro.data.synthetic import TALL_COHORTS, generate_tall_cohort
from repro.parallel import results_equal


def itemized(rows, labels, n_items):
    items = [
        Item(i, i, f"g{i}", float("-inf"), float("inf"))
        for i in range(n_items)
    ]
    return DiscretizedDataset(rows, labels, items, class_names=["c0", "c1"])


def assert_same_as_direct(dataset, consequent, minsup, k):
    column = mine_topk_column(dataset, consequent, minsup, k=k)
    direct = mine_topk(dataset, consequent, minsup, k=k)
    assert results_equal(column, direct)
    assert column.stats.completed and direct.stats.completed
    return column


@pytest.fixture(scope="module")
def tall():
    """The perfbench tall shape: tall-1k at 256 rows, 12 frequent items."""
    return generate_tall_cohort(TALL_COHORTS["tall-1k"].scaled(0.25))


class TestBitIdentity:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_tables(self, seed):
        dataset = random_discretized_dataset(
            n_rows=14, n_items=10, density=0.5, seed=seed)
        for consequent in (0, 1):
            for minsup in (1, 2, 4):
                for k in (1, 3, 10):
                    assert_same_as_direct(dataset, consequent, minsup, k)

    def test_optimization_flags_steer_only_the_row_walk(self, tall):
        """The column route ignores the Section 4.1.1 flags: with any of
        them, an auto mine that plans column returns the default direct
        mine's lists."""
        minsup = relative_minsup(tall, 1, 0.7)
        direct = mine_topk(tall, 1, minsup, k=3)
        for init in (True, False):
            for dynamic in (True, False):
                auto = mine_topk(
                    tall, 1, minsup, k=3, strategy="auto",
                    initialize_single_items=init, dynamic_minsup=dynamic,
                    use_topk_pruning=False,
                )
                assert auto.stats.plan.strategy == "column"
                assert results_equal(auto, direct)

    def test_tall_shape_through_auto(self, tall):
        for fraction in (0.5, 0.7, 0.9):
            minsup = relative_minsup(tall, 1, fraction)
            for k in (1, 2, 10):
                auto = mine_topk(tall, 1, minsup, k=k, strategy="auto")
                assert auto.stats.plan.strategy == "column"
                assert results_equal(auto, mine_topk(tall, 1, minsup, k=k))


class TestDegenerateInputs:
    def test_no_rows(self):
        dataset = itemized([], [], n_items=3)
        result = assert_same_as_direct(dataset, 0, 1, 2)
        assert result.per_row == {}
        assert result.stats.nodes_visited == 0

    def test_no_frequent_items(self):
        # Every item is held by one row only; minsup 2 keeps none.
        dataset = itemized([{0}, {1}, {2}, {3}], [1, 1, 1, 0], n_items=4)
        result = assert_same_as_direct(dataset, 1, 2, 2)
        assert result.per_row == {0: [], 1: [], 2: []}
        assert result.stats.nodes_visited == 0

    def test_minsup_above_the_class_size(self, small_random):
        size = small_random.class_counts()[1]
        result = assert_same_as_direct(small_random, 1, size + 1, 2)
        assert all(groups == [] for groups in result.per_row.values())

    def test_k_above_the_number_of_groups(self):
        dataset = itemized([{0, 1}, {0}, {1}, {2}], [1, 1, 1, 0], n_items=3)
        result = assert_same_as_direct(dataset, 1, 1, 100)
        assert len(result.unique_groups()) < 100


class TestBudgets:
    def test_pre_set_cancel_returns_incomplete(self, tall):
        minsup = relative_minsup(tall, 1, 0.5)
        cancel = threading.Event()
        cancel.set()
        result = mine_topk(tall, 1, minsup, k=2, strategy="auto",
                           cancel=cancel)
        assert result.stats.plan.strategy == "column"
        assert result.stats.completed is False
        # Polled after every offer: the first closed set stops the walk.
        assert result.stats.groups_emitted == 1
        assert result.stats.nodes_visited < POLL_STRIDE

    def test_node_budget_counts_it_tree_nodes(self, tall):
        minsup = relative_minsup(tall, 1, 0.7)
        full = mine_topk_column(tall, 1, minsup, k=2)
        assert full.stats.nodes_visited > 10
        cut = mine_topk_column(tall, 1, minsup, k=2, node_budget=10)
        assert cut.stats.completed is False
        assert cut.stats.nodes_visited == 11
        assert cut.stats.groups_emitted < full.stats.groups_emitted

    def test_zero_time_budget_stops_at_the_first_offer(self, tall):
        minsup = relative_minsup(tall, 1, 0.5)
        result = mine_topk_column(tall, 1, minsup, k=2, time_budget=0)
        assert result.stats.completed is False
        assert result.stats.groups_emitted == 1

    @pytest.mark.parametrize("time_budget", [float("nan"), -1.0])
    def test_nan_or_negative_time_budget_raises(self, tall, time_budget):
        with pytest.raises(ValueError, match="time_budget"):
            mine_topk_column(tall, 1, 1, time_budget=time_budget)


class TestRouteContract:
    def test_stats_and_engine(self, tall):
        minsup = relative_minsup(tall, 1, 0.7)
        for engine in ("bitset", "table", "tree"):
            result = mine_topk(tall, 1, minsup, k=2, strategy="auto",
                               engine=engine)
            assert result.stats.engine == "column"
            assert result.stats.groups_emitted == result.stats.nodes_visited
            assert result.stats.plan.workers == 1
        with pytest.raises(ValueError, match="unknown engine 'bogus'"):
            mine_topk(tall, 1, minsup, strategy="auto", engine="bogus")

    def test_column_is_not_a_strategy_a_caller_names(self, tall):
        with pytest.raises(ValueError, match="unknown strategy 'column'"):
            mine_topk(tall, 1, 1, strategy="column")

    def test_repro_check_audits_the_result(self, tall, monkeypatch):
        audited = []
        monkeypatch.setenv("REPRO_CHECK", "1")
        monkeypatch.setattr(
            invariants, "check_topk_result",
            lambda dataset, result, strict_coverage: audited.append(result),
        )
        minsup = relative_minsup(tall, 1, 0.7)
        result = mine_topk(tall, 1, minsup, k=2, strategy="auto")
        assert audited == [result]


class TestSharedWalk:
    def test_charm_registers_the_walks_closed_sets(self, small_random):
        """mine_charm keeps the walk's candidates that no same-tidset
        superset already recorded: the closed sets the column route
        offers, translated to rows."""
        view = MiningView(small_random, 1, 1)
        seen = {}
        stats = MinerStats()
        walk_closed_sets(view, 1, lambda items, tids: seen.setdefault(
            tids, items), _Budget(stats, None, None), use_diffsets=False)
        charm = mine_charm(small_random, 1, 1, use_diffsets=False)
        assert {group.row_set for group in charm.groups} == {
            view.positions_to_rows(tids) for tids in seen
        }
        assert stats.nodes_visited == charm.stats.nodes_visited
