"""Tests for the CHARM column-enumeration baseline."""

import threading

import pytest

from repro.baselines import mine_charm, naive_farmer
from repro.core.enumeration import POLL_STRIDE
from repro.data.synthetic import random_discretized_dataset


class _SetAfter:
    """Cancel token that reads set from its ``n``-th ``is_set()`` call."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.calls = 0

    def is_set(self) -> bool:
        self.calls += 1
        return self.calls >= self.n


def keys(groups):
    return {
        (tuple(sorted(g.antecedent)), g.row_set, g.support,
         round(g.confidence, 9))
        for g in groups
    }


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("use_diffsets", (True, False))
    def test_matches_oracle(self, seed, use_diffsets):
        ds = random_discretized_dataset(9, 8, density=0.45, seed=seed)
        for minsup in (1, 2):
            expected = keys(naive_farmer(ds, 1, minsup))
            actual = keys(
                mine_charm(ds, 1, minsup, use_diffsets=use_diffsets).groups
            )
            assert actual == expected

    def test_diffsets_equal_tidsets(self, small_random):
        with_diff = keys(mine_charm(small_random, 1, 1).groups)
        without = keys(
            mine_charm(small_random, 1, 1, use_diffsets=False).groups
        )
        assert with_diff == without

    def test_other_consequent(self, small_random):
        expected = keys(naive_farmer(small_random, 0, 2))
        assert keys(mine_charm(small_random, 0, 2).groups) == expected


class TestClosedness:
    @pytest.mark.parametrize("seed", range(4))
    def test_outputs_are_closed(self, seed):
        ds = random_discretized_dataset(9, 8, density=0.5, seed=seed)
        for group in mine_charm(ds, 1, 1).groups:
            assert ds.support_set(group.antecedent) == group.row_set
            # No emitted itemset subsumes another with the same rows.
        row_sets = [g.row_set for g in mine_charm(ds, 1, 1).groups]
        assert len(row_sets) == len(set(row_sets))


class TestBudget:
    # 14 rows x 20 items is several POLL_STRIDE strides of nodes, so the
    # shared budget's first poll comes well before the walk ends.
    def test_zero_time_budget_stops_at_first_poll(self):
        ds = random_discretized_dataset(14, 20, density=0.6, seed=2)
        assert mine_charm(ds, 1, 1).stats.nodes_visited > POLL_STRIDE
        result = mine_charm(ds, 1, 1, time_budget=0)
        assert result.completed is False
        assert result.stats.nodes_visited == POLL_STRIDE

    @pytest.mark.parametrize("use_diffsets", (True, False))
    def test_cancel_lands_inside_a_wide_prefix_class(self, use_diffsets):
        # 300 items over 10 rows: the first node's pair scan tests ~300
        # pairs, so a token set at the second poll stops that scan.  A
        # node-stride poll alone would run to node 2 * POLL_STRIDE.
        ds = random_discretized_dataset(10, 300, density=0.5, seed=4)
        token = _SetAfter(2)
        result = mine_charm(ds, 1, 1, use_diffsets=use_diffsets,
                            cancel=token)
        assert result.completed is False
        assert result.stats.nodes_visited == 1
        assert token.calls == 2

    @pytest.mark.parametrize("shape, nodes, groups", [
        ((14, 20, 0.6, 2), 575, 330),
        ((12, 60, 0.5, 1), 6217, 807),
    ])
    def test_pair_polls_count_no_nodes(self, shape, nodes, groups):
        n_rows, n_items, density, seed = shape
        ds = random_discretized_dataset(n_rows, n_items, density=density,
                                        seed=seed)
        for use_diffsets in (True, False):
            plain = mine_charm(ds, 1, 1, use_diffsets=use_diffsets)
            polled = mine_charm(ds, 1, 1, use_diffsets=use_diffsets,
                                time_budget=3600,
                                cancel=threading.Event())
            assert plain.stats.nodes_visited == nodes
            assert polled.stats.nodes_visited == nodes
            assert len(plain.groups) == groups
            assert keys(polled.groups) == keys(plain.groups)

    @pytest.mark.parametrize("time_budget", [float("nan"), -1.0])
    def test_nan_or_negative_time_budget_raises(self, small_random,
                                                time_budget):
        with pytest.raises(ValueError, match="time_budget"):
            mine_charm(small_random, 1, 1, time_budget=time_budget)

    def test_budget_truncates(self, small_random):
        result = mine_charm(small_random, 1, 1, node_budget=2)
        assert not result.completed
        full = mine_charm(small_random, 1, 1)
        assert full.completed
        assert result.stats.nodes_visited <= full.stats.nodes_visited

    def test_metadata(self, small_random):
        result = mine_charm(small_random, 1, 2)
        assert result.consequent == 1
        assert result.minsup == 2
        assert result.stats.elapsed_seconds >= 0.0
