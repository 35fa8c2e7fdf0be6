"""Tests for MineTopkRGS."""

import pytest

from repro.core.bitset import popcount
from repro.core.enumeration import run_enumeration
from repro.core.topk_miner import TopkPolicy, mine_topk, relative_minsup
from repro.core.view import MiningView
from repro.data.dataset import DiscretizedDataset, Item
from repro.data.synthetic import random_discretized_dataset


class TestFigure1:
    """The paper's running example, pinned.

    Note on Example 1.1: the paper's text claims the top-1 covering rule
    group of row r3 is ``cde -> C`` (confidence 66.7%), but by the
    paper's own Definition 2.2 the group of ``{c}`` (R(c) = {r1..r4},
    confidence 75%, support 3) is strictly more significant and also
    covers r3 — the worked example contradicts the formal definition.
    This implementation follows the definition.
    """

    def test_top1_consequent_c(self, figure1):
        result = mine_topk(figure1, consequent=1, minsup=2, k=1)
        # Rows r1, r2 (ids 0, 1): abc -> C with conf 1.0, sup 2.
        for row in (0, 1):
            (group,) = result.per_row[row]
            assert group.antecedent == frozenset({0, 1, 2})
            assert group.support == 2
            assert group.confidence == 1.0
        # Row r3 (id 2): {c} -> C, conf 0.75, sup 3 (see class docstring).
        (group,) = result.per_row[2]
        assert group.antecedent == frozenset({2})
        assert group.support == 3
        assert group.confidence == pytest.approx(0.75)

    def test_top1_consequent_not_c(self, figure1):
        result = mine_topk(figure1, consequent=0, minsup=2, k=1)
        # Rows r4, r5 (ids 3, 4): efg -> not_C with conf 2/3, sup 2.
        for row in (3, 4):
            (group,) = result.per_row[row]
            assert group.antecedent == frozenset({4, 5, 6})
            assert group.support == 2
            assert group.confidence == pytest.approx(2 / 3)

    def test_only_consequent_rows_reported(self, figure1):
        result = mine_topk(figure1, consequent=1, minsup=2, k=1)
        assert set(result.per_row) == {0, 1, 2}

    def test_k2_lists_ordered_by_significance(self, figure1):
        result = mine_topk(figure1, consequent=1, minsup=2, k=2)
        for groups in result.per_row.values():
            stats = [(g.confidence, g.support) for g in groups]
            assert stats == sorted(stats, reverse=True)

    def test_example_2_2_rule_group(self, figure1):
        # R(a)=R(b)=R(ab)=...=R(abc)={r1,r2}: upper bound abc.
        result = mine_topk(figure1, consequent=1, minsup=2, k=1)
        group = result.per_row[0][0]
        assert group.row_set == 0b11  # rows r1, r2
        assert group.antecedent == frozenset({0, 1, 2})


class TestInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_group_stats_consistent(self, seed):
        ds = random_discretized_dataset(10, 8, density=0.45, seed=seed)
        result = mine_topk(ds, 1, minsup=2, k=3)
        class_mask = ds.class_mask(1)
        for row, groups in result.per_row.items():
            for group in groups:
                assert ds.support_set(group.antecedent) == group.row_set
                assert popcount(group.row_set & class_mask) == group.support
                assert group.support >= 2
                assert group.row_set >> row & 1  # covers its row
                assert group.antecedent <= ds.rows[row]

    @pytest.mark.parametrize("seed", range(5))
    def test_antecedents_closed(self, seed):
        ds = random_discretized_dataset(10, 8, density=0.45, seed=seed)
        result = mine_topk(ds, 1, minsup=1, k=2)
        for groups in result.per_row.values():
            for group in groups:
                closed = ds.common_items(group.row_set)
                # Closure over the frequent-item-reduced rows: every item
                # of the stored antecedent is in the full closure, and no
                # frequent item outside the antecedent is shared by all
                # rows of the support set.
                assert group.antecedent <= closed

    def test_lists_have_distinct_groups(self):
        ds = random_discretized_dataset(10, 8, density=0.5, seed=9)
        result = mine_topk(ds, 1, minsup=1, k=4)
        for groups in result.per_row.values():
            row_sets = [g.row_set for g in groups]
            assert len(row_sets) == len(set(row_sets))


class TestOptimizationFlags:
    @pytest.mark.parametrize("seed", range(4))
    def test_flags_do_not_change_output(self, seed):
        ds = random_discretized_dataset(9, 8, density=0.45, seed=seed)
        baseline = mine_topk(
            ds, 1, minsup=1, k=2,
            initialize_single_items=False,
            dynamic_minsup=False,
            use_topk_pruning=False,
        )
        optimized = mine_topk(ds, 1, minsup=1, k=2)
        for row in baseline.per_row:
            base = [(g.confidence, g.support) for g in baseline.per_row[row]]
            opt = [(g.confidence, g.support) for g in optimized.per_row[row]]
            assert base == opt

    def test_topk_pruning_reduces_nodes(self, small_benchmark):
        train = small_benchmark.train_items
        minsup = relative_minsup(train, 1, 0.8)
        pruned = mine_topk(train, 1, minsup, k=1, use_topk_pruning=True)
        unpruned = mine_topk(train, 1, minsup, k=1, use_topk_pruning=False)
        assert pruned.stats.nodes_visited <= unpruned.stats.nodes_visited


class TestDynamicMinsup:
    """Second optimization of Section 4.1.1, checked against its rule
    read straight off the per-row lists."""

    @staticmethod
    def _rule(policy):
        lists = policy.lists
        if not lists or any(len(topk) < policy.k for topk in lists):
            return policy.view.minsup
        pairs = [topk.kth_threshold() for topk in lists]
        if min(conf for conf, _ in pairs) < 1.0:
            return policy.view.minsup
        return max(policy.view.minsup, min(sup for _, sup in pairs))

    @staticmethod
    def _walk(dataset, minsup, k):
        view = MiningView(dataset, 1, minsup)
        policy = TopkPolicy(view, k)
        run_enumeration(view, policy)
        return policy

    def test_raised_to_the_weakest_kth_support(self):
        # Item 0 covers every class-1 row and no other row: every list
        # fills with a 100%-confidence group of support 4.
        items = [Item(i, i, f"i{i}", float("-inf"), float("inf"))
                 for i in range(3)]
        dataset = DiscretizedDataset(
            [{0, 1}, {0, 2}, {0, 1}, {0, 2}, {1, 2}], [1, 1, 1, 1, 0], items
        )
        policy = self._walk(dataset, minsup=1, k=1)
        assert policy.minsup == 4 == self._rule(policy)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_list_rule(self, seed):
        # At density 0.5 about a fifth of these walks raise minsup.
        dataset = random_discretized_dataset(12, 10, density=0.5, seed=seed)
        for k in (1, 2):
            policy = self._walk(dataset, minsup=1, k=k)
            assert policy.minsup == self._rule(policy)


class TestResultHelpers:
    def test_unique_groups_sorted(self, figure1):
        result = mine_topk(figure1, consequent=1, minsup=2, k=2)
        unique = result.unique_groups()
        stats = [(g.confidence, g.support) for g in unique]
        assert stats == sorted(stats, reverse=True)
        assert len({g.row_set for g in unique}) == len(unique)

    def test_rank_set(self, figure1):
        result = mine_topk(figure1, consequent=1, minsup=2, k=2)
        top1 = result.rank_set(1)
        assert {g.row_set for g in top1} == {
            groups[0].row_set for groups in result.per_row.values() if groups
        }

    def test_rank_set_validates(self, figure1):
        result = mine_topk(figure1, consequent=1, minsup=2, k=1)
        with pytest.raises(ValueError):
            result.rank_set(0)

    def test_covered_rows(self, figure1):
        result = mine_topk(figure1, consequent=1, minsup=2, k=1)
        assert result.covered_rows() == [0, 1, 2]


class TestParameters:
    def test_relative_minsup(self, figure1):
        assert relative_minsup(figure1, 1, 0.7) == 3  # ceil(0.7 * 3)
        assert relative_minsup(figure1, 0, 0.7) == 2  # ceil(0.7 * 2)

    def test_relative_minsup_validates(self, figure1):
        with pytest.raises(ValueError):
            relative_minsup(figure1, 1, 0.0)
        with pytest.raises(ValueError):
            relative_minsup(figure1, 1, 1.5)

    def test_k_validation(self, figure1):
        with pytest.raises(ValueError, match="k must be"):
            mine_topk(figure1, 1, minsup=2, k=0)

    def test_budget_returns_partial(self, small_benchmark):
        train = small_benchmark.train_items
        minsup = relative_minsup(train, 1, 0.7)
        result = mine_topk(train, 1, minsup, k=50, node_budget=5)
        assert not result.stats.completed
        assert isinstance(result.per_row, dict)

    def test_k_monotone_in_nodes(self, small_benchmark):
        train = small_benchmark.train_items
        minsup = relative_minsup(train, 1, 0.8)
        small_k = mine_topk(train, 1, minsup, k=1)
        large_k = mine_topk(train, 1, minsup, k=20)
        assert large_k.stats.nodes_visited >= small_k.stats.nodes_visited

    @pytest.mark.parametrize("engine", ("bitset", "table", "tree"))
    def test_engines_same_lists(self, engine, figure1):
        reference = mine_topk(figure1, 1, minsup=2, k=2, engine="bitset")
        other = mine_topk(figure1, 1, minsup=2, k=2, engine=engine)
        for row in reference.per_row:
            ref = [(g.confidence, g.support) for g in reference.per_row[row]]
            got = [(g.confidence, g.support) for g in other.per_row[row]]
            assert ref == got
