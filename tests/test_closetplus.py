"""Tests for the CLOSET+ FP-tree baseline."""

import pytest

from repro.baselines import mine_closetplus, naive_farmer
from repro.core.enumeration import POLL_STRIDE
from repro.data.synthetic import random_discretized_dataset


def keys(groups):
    return {
        (tuple(sorted(g.antecedent)), g.row_set, g.support,
         round(g.confidence, 9))
        for g in groups
    }


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("minsup", (1, 2, 3))
    def test_matches_oracle(self, seed, minsup):
        ds = random_discretized_dataset(9, 8, density=0.45, seed=seed)
        expected = keys(naive_farmer(ds, 1, minsup))
        actual = keys(mine_closetplus(ds, 1, minsup).groups)
        assert actual == expected

    def test_other_consequent(self, small_random):
        expected = keys(naive_farmer(small_random, 0, 1))
        assert keys(mine_closetplus(small_random, 0, 1).groups) == expected

    def test_figure1(self, figure1):
        expected = keys(naive_farmer(figure1, 1, 2))
        assert keys(mine_closetplus(figure1, 1, 2).groups) == expected


class TestClosedness:
    @pytest.mark.parametrize("seed", range(4))
    def test_support_sets_exact(self, seed):
        ds = random_discretized_dataset(9, 8, density=0.5, seed=seed)
        result = mine_closetplus(ds, 1, 1)
        for group in result.groups:
            assert ds.support_set(group.antecedent) == group.row_set
        row_sets = [g.row_set for g in result.groups]
        assert len(row_sets) == len(set(row_sets))


class TestBudget:
    # 14 rows x 20 items is several POLL_STRIDE strides of nodes, so the
    # shared budget's first poll comes well before the walk ends.
    def test_zero_time_budget_stops_at_first_poll(self):
        ds = random_discretized_dataset(14, 20, density=0.6, seed=2)
        assert mine_closetplus(ds, 1, 1).stats.nodes_visited > POLL_STRIDE
        result = mine_closetplus(ds, 1, 1, time_budget=0)
        assert result.completed is False
        assert result.stats.nodes_visited == POLL_STRIDE

    @pytest.mark.parametrize("time_budget", [float("nan"), -1.0])
    def test_nan_or_negative_time_budget_raises(self, small_random,
                                                time_budget):
        with pytest.raises(ValueError, match="time_budget"):
            mine_closetplus(small_random, 1, 1, time_budget=time_budget)

    def test_budget_truncates(self, small_random):
        result = mine_closetplus(small_random, 1, 1, node_budget=1)
        assert not result.completed

    def test_full_run_completes(self, small_random):
        result = mine_closetplus(small_random, 1, 1)
        assert result.completed
        assert result.stats.nodes_visited >= 1
