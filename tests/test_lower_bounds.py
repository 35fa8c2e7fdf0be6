"""Tests for FindLB (lower bound search)."""

import pytest

from repro.core.lower_bounds import find_lower_bounds, find_lower_bounds_batch
from repro.core.rules import RuleGroup
from repro.core.topk_miner import mine_topk
from repro.data.dataset import DiscretizedDataset, Item
from repro.data.synthetic import random_discretized_dataset


def top_groups(dataset, consequent=1, minsup=1, k=3):
    result = mine_topk(dataset, consequent, minsup, k=k)
    return result.unique_groups()


class TestDefinition:
    """Lemma 5.1: a lower bound has the group's exact support set and no
    proper subset does."""

    @pytest.mark.parametrize("seed", range(6))
    def test_lower_bounds_have_target_support(self, seed):
        ds = random_discretized_dataset(10, 9, density=0.45, seed=seed)
        for group in top_groups(ds):
            result = find_lower_bounds(ds, group, nl=3)
            for rule in result.rules:
                assert ds.support_set(rule.antecedent) == group.row_set
                assert rule.antecedent <= group.antecedent

    @pytest.mark.parametrize("seed", range(6))
    def test_lower_bounds_minimal(self, seed):
        ds = random_discretized_dataset(10, 9, density=0.45, seed=seed)
        for group in top_groups(ds):
            result = find_lower_bounds(ds, group, nl=3)
            for rule in result.rules:
                for item in rule.antecedent:
                    smaller = rule.antecedent - {item}
                    if smaller:
                        assert ds.support_set(smaller) != group.row_set

    def test_rules_carry_group_stats(self, figure1):
        group = top_groups(figure1, minsup=2)[0]
        result = find_lower_bounds(figure1, group, nl=2)
        for rule in result.rules:
            assert rule.support == group.support
            assert rule.confidence == group.confidence
            assert rule.consequent == group.consequent


class TestFigure1:
    def test_abc_group_lower_bounds(self, figure1):
        # Example 2.2: the group {a,b,c} -> C has lower bounds {a}, {b}.
        groups = [
            g for g in top_groups(figure1, minsup=2)
            if g.antecedent == frozenset({0, 1, 2})
        ]
        assert groups
        result = find_lower_bounds(figure1, groups[0], nl=5)
        antecedents = {tuple(sorted(r.antecedent)) for r in result.rules}
        assert antecedents == {(0,), (1,)}
        assert result.complete


class TestSearchControls:
    def test_nl_limits_count(self, figure1):
        group = top_groups(figure1, minsup=2)[0]
        one = find_lower_bounds(figure1, group, nl=1)
        assert len(one.rules) == 1

    def test_nl_validation(self, figure1):
        group = top_groups(figure1, minsup=2)[0]
        with pytest.raises(ValueError):
            find_lower_bounds(figure1, group, nl=0)

    def test_shortest_first(self):
        ds = random_discretized_dataset(10, 9, density=0.5, seed=2)
        for group in top_groups(ds):
            result = find_lower_bounds(ds, group, nl=5)
            lengths = [len(r.antecedent) for r in result.rules]
            assert lengths == sorted(lengths)

    def test_item_scores_steer_choice(self, figure1):
        # The abc group's lower bounds are {a} and {b}; scoring b above a
        # must put b first.
        groups = [
            g for g in top_groups(figure1, minsup=2)
            if g.antecedent == frozenset({0, 1, 2})
        ]
        result = find_lower_bounds(
            figure1, groups[0], nl=1, item_scores={1: 5.0, 0: 1.0}
        )
        assert result.rules[0].antecedent == frozenset({1})

    def test_max_items_truncation_flagged(self):
        ds = random_discretized_dataset(10, 9, density=0.5, seed=5)
        groups = [g for g in top_groups(ds) if len(g.antecedent) > 2]
        for group in groups:
            result = find_lower_bounds(ds, group, nl=50, max_items=1)
            # With one item the search is truncated; either it found the
            # requested bounds anyway or it must say it was incomplete.
            assert result.complete or len(result.rules) < 50

    def test_fallback_is_full_antecedent(self):
        ds = random_discretized_dataset(10, 9, density=0.5, seed=7)
        group = next(g for g in top_groups(ds) if len(g.antecedent) >= 2)
        result = find_lower_bounds(ds, group, nl=1, max_size=0)
        # max_size=0 forbids even singletons from being extended; the
        # search degenerates but must still return a valid rule.
        assert result.rules
        assert ds.support_set(result.rules[0].antecedent) == group.row_set

    def test_fallback_is_never_complete(self):
        # Rows {0,1,2}, {0,2}, {1,2}: item 2 holds every row, so the only
        # lower bound of {0,1,2} -> row 0 is {0,1}.  With max_size=1 the
        # search falls back to the non-minimal upper bound and must not
        # claim the first bound was found.
        ds = DiscretizedDataset(
            [frozenset({0, 1, 2}), frozenset({0, 2}), frozenset({1, 2})],
            [1, 0, 0],
            [Item(i, i, f"g{i}", float("-inf"), float("inf"))
             for i in range(3)],
        )
        group = RuleGroup(frozenset({0, 1, 2}), 1, 0b001, 1, 1.0)
        result = find_lower_bounds(ds, group, nl=1, max_size=1)
        assert result.rules[0].antecedent == group.antecedent
        assert not result.complete
        result = find_lower_bounds(ds, group, nl=1, max_size=2)
        assert result.rules[0].antecedent == frozenset({0, 1})
        assert result.complete


class TestFrontierCap:
    """``max_frontier`` trims a level: later hits must still be minimal,
    and the result must say it may have missed earlier bounds."""

    def _group(self):
        ds = random_discretized_dataset(12, 10, density=0.4, seed=0)
        group = next(
            g for g in top_groups(ds, consequent=0)
            if g.antecedent == frozenset({1, 3, 4, 5, 8, 9})
        )
        return ds, group

    def test_trimmed_search_returns_minimal_bounds(self):
        ds, group = self._group()
        result = find_lower_bounds(ds, group, nl=3, max_frontier=5)
        # {1,5,8,9} has the support set of {5,8,9}; a trim that cuts a
        # prefix of {5,8,9} away must not let it through.
        assert frozenset({1, 5, 8, 9}) not in [r.antecedent for r in result.rules]
        for rule in result.rules:
            assert ds.support_set(rule.antecedent) == group.row_set
            for item in rule.antecedent:
                assert ds.support_set(rule.antecedent - {item}) != group.row_set
        assert not result.complete

    def test_untrimmed_search_is_complete(self):
        ds, group = self._group()
        result = find_lower_bounds(ds, group, nl=3)
        assert [sorted(r.antecedent) for r in result.rules] == [
            [3, 9], [4, 5], [5, 8, 9]
        ]
        assert result.complete

    @pytest.mark.parametrize("cap", (1, 2, 5))
    def test_trimmed_bounds_minimal_on_random_data(self, cap):
        for seed in range(20):
            ds = random_discretized_dataset(12, 10, density=0.4, seed=seed)
            for group in top_groups(ds, consequent=0):
                full = find_lower_bounds(ds, group, nl=3)
                result = find_lower_bounds(ds, group, nl=3, max_frontier=cap)
                for rule in result.rules:
                    lower = rule.antecedent
                    assert ds.support_set(lower) == group.row_set
                    if lower == group.antecedent:
                        continue  # the fallback need not be minimal
                    for item in lower:
                        smaller = lower - {item}
                        if smaller:
                            assert ds.support_set(smaller) != group.row_set
                if result.complete:
                    assert result.rules == full.rules


class TestBatch:
    def test_batch_covers_all_groups(self):
        ds = random_discretized_dataset(10, 9, density=0.45, seed=3)
        groups = top_groups(ds)
        batch = find_lower_bounds_batch(ds, groups, nl=2)
        for group in groups:
            key = (group.row_set, group.consequent)
            assert key in batch
            assert 1 <= len(batch[key]) <= 2

    def test_batch_memoizes_duplicates(self):
        ds = random_discretized_dataset(10, 9, density=0.45, seed=3)
        groups = top_groups(ds)
        doubled = [*groups, *groups]
        batch = find_lower_bounds_batch(ds, doubled, nl=1)
        assert len(batch) == len({(g.row_set, g.consequent) for g in groups})


class TestProperties:
    """Hypothesis checks of the Lemma 5.1 contract."""

    def test_lemma_5_1_on_random_data(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.data.dataset import DiscretizedDataset, Item

        @st.composite
        def datasets(draw):
            n_rows = draw(st.integers(4, 9))
            n_items = draw(st.integers(3, 8))
            rows = [
                frozenset(
                    draw(st.sets(st.integers(0, n_items - 1), min_size=1,
                                 max_size=n_items))
                )
                for _ in range(n_rows)
            ]
            labels = draw(
                st.lists(st.integers(0, 1), min_size=n_rows,
                         max_size=n_rows).filter(lambda ls: 1 in ls)
            )
            items = [
                Item(i, i, f"g{i}", float("-inf"), float("inf"))
                for i in range(n_items)
            ]
            return DiscretizedDataset(rows, labels, items,
                                      class_names=["c0", "c1"])

        @given(datasets(), st.integers(1, 5))
        @settings(max_examples=40, deadline=None)
        def check(ds, nl):
            result = mine_topk(ds, 1, 1, k=2)
            for group in result.unique_groups():
                bounds = find_lower_bounds(ds, group, nl=nl)
                assert 1 <= len(bounds.rules) <= nl
                seen = set()
                for rule in bounds.rules:
                    # Exactness, containment, minimality, uniqueness.
                    assert ds.support_set(rule.antecedent) == group.row_set
                    assert rule.antecedent <= group.antecedent
                    assert rule.antecedent not in seen
                    seen.add(rule.antecedent)
                    for item in rule.antecedent:
                        smaller = rule.antecedent - {item}
                        if smaller:
                            assert ds.support_set(smaller) != group.row_set

        check()
