"""Failure injection: error paths, partial results, crash consistency."""

import pytest

from repro.baselines import mine_charm, mine_closetplus, mine_farmer
from repro.core.enumeration import run_enumeration
from repro.core.hybrid import mine_topk_hybrid
from repro.core.topk_miner import mine_topk
from repro.core.view import MiningView
from repro.data.synthetic import random_discretized_dataset
from repro.errors import MiningBudgetExceeded


class _ExplodingPolicy:
    """A policy whose emit hook fails after a few groups."""

    def __init__(self, view, fail_after=3):
        self.view = view
        self.fail_after = fail_after
        self.emitted = 0

    @property
    def minsup(self):
        return self.view.minsup

    def loose_prunable(self, x_p, x_n, r_p, r_n, threshold_bits):
        return False

    def tight_prunable(self, x_p, x_n, m_p, r_n, threshold_bits):
        return False

    def emit(self, items, position_bits, x_p, x_n):
        self.emitted += 1
        if self.emitted > self.fail_after:
            raise RuntimeError("injected failure")


class TestPolicyFailures:
    @pytest.mark.parametrize("engine", ("bitset", "table", "tree"))
    def test_policy_exception_propagates(self, engine, small_random):
        view = MiningView(small_random, 1, minsup=1)
        policy = _ExplodingPolicy(view)
        with pytest.raises(RuntimeError, match="injected"):
            run_enumeration(view, policy, engine=engine)

    def test_emitted_count_before_failure(self, small_random):
        view = MiningView(small_random, 1, minsup=1)
        policy = _ExplodingPolicy(view, fail_after=2)
        with pytest.raises(RuntimeError):
            run_enumeration(view, policy, engine="bitset")
        assert policy.emitted == 3  # two successes plus the failing call


class TestPartialResultsAreConsistent:
    """Budget-truncated output must be a valid *subset* of the full run."""

    def test_topk_partial_entries_are_real_groups(self, small_random):
        partial = mine_topk(small_random, 1, minsup=1, k=3, node_budget=6)
        assert not partial.stats.completed
        for row, groups in partial.per_row.items():
            for group in groups:
                assert small_random.support_set(group.antecedent) == group.row_set
                assert group.row_set >> row & 1

    def test_farmer_partial_subset_of_full(self, small_random):
        full = {g.row_set for g in mine_farmer(small_random, 1, 1).groups}
        for budget in (1, 5, 20):
            partial = mine_farmer(small_random, 1, 1, node_budget=budget)
            assert {g.row_set for g in partial.groups} <= full

    def test_charm_partial_subset_of_full(self, small_random):
        full = {g.row_set for g in mine_charm(small_random, 1, 1).groups}
        partial = mine_charm(small_random, 1, 1, node_budget=3)
        assert {g.row_set for g in partial.groups} <= full

    def test_closet_partial_subset_of_full(self, small_random):
        full = {g.row_set for g in mine_closetplus(small_random, 1, 1).groups}
        partial = mine_closetplus(small_random, 1, 1, node_budget=2)
        assert {g.row_set for g in partial.groups} <= full

    def test_time_budget_zero_truncates_quickly(self, small_random):
        result = mine_charm(small_random, 1, 1, time_budget=0.0)
        # The budget is polled every POLL_STRIDE nodes, and this mine's
        # 49 nodes end before the first poll, so even 0 completes.
        assert result.completed
        tiny = mine_charm(small_random, 1, 1, time_budget=1e-9)
        assert isinstance(tiny.completed, bool)


class TestBudgetArguments:
    """A budget that cannot bound anything is an error, not "no budget"."""

    @pytest.mark.parametrize("time_budget", [float("nan"), -1.0, -1e-9])
    def test_nan_or_negative_time_budget_raises(self, small_random,
                                                time_budget):
        with pytest.raises(ValueError, match="time_budget"):
            mine_topk(small_random, 1, minsup=1, k=2, time_budget=time_budget)

    def test_negative_node_budget_raises(self, small_random):
        with pytest.raises(ValueError, match="node_budget"):
            mine_topk(small_random, 1, minsup=1, k=2, node_budget=-5)
        with pytest.raises(ValueError, match="node_budget"):
            mine_farmer(small_random, 1, 1, node_budget=-1)

    @pytest.mark.parametrize("engine", ("bitset", "table", "tree"))
    def test_zero_budgets_stay_legal(self, small_random, engine):
        view = MiningView(small_random, 1, minsup=1)
        from repro.baselines.farmer import FarmerPolicy

        with pytest.raises(MiningBudgetExceeded) as exc:
            run_enumeration(view, FarmerPolicy(view), engine=engine,
                            node_budget=0)
        assert exc.value.stats.nodes_visited == 1
        result = mine_topk(small_random, 1, minsup=1, k=2, engine=engine,
                           time_budget=0.0)
        # The deadline is polled every POLL_STRIDE nodes, so a tiny mine
        # may finish before the first poll; either way it returns.
        assert isinstance(result.stats.completed, bool)


class TestHybridFailures:
    def test_partition_budget_result_still_valid(self, small_random):
        result = mine_topk_hybrid(
            small_random, 1, minsup=1, k=2, node_budget_per_partition=2
        )
        for row, groups in result.per_row.items():
            for group in groups:
                assert small_random.support_set(group.antecedent) == group.row_set


class TestBudgetErrorMetadata:
    def test_stats_attached_on_node_budget(self, small_random):
        view = MiningView(small_random, 1, minsup=1)
        from repro.baselines.farmer import FarmerPolicy

        with pytest.raises(MiningBudgetExceeded) as exc:
            run_enumeration(view, FarmerPolicy(view), node_budget=1)
        assert exc.value.stats.nodes_visited == 2
        assert exc.value.stats.elapsed_seconds >= 0.0
