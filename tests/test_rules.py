"""Tests for rules, rule groups and the top-k list semantics."""

import pytest

from repro.core.bitset import from_indices
from repro.core.rules import (
    Rule,
    RuleGroup,
    TopKList,
    cba_sort_key,
    more_significant,
    significance_key,
)


def group(conf, sup, rows, antecedent=(0,), consequent=1):
    return RuleGroup(
        antecedent=frozenset(antecedent),
        consequent=consequent,
        row_set=from_indices(rows),
        support=sup,
        confidence=conf,
    )


class TestRule:
    def test_matches(self):
        rule = Rule(frozenset({1, 2}), 0, 3, 0.9)
        assert rule.matches(frozenset({1, 2, 5}))
        assert not rule.matches(frozenset({1, 5}))

    def test_len(self):
        assert len(Rule(frozenset({1, 2, 3}), 0, 1, 1.0)) == 3

    def test_describe_names_items(self):
        rule = Rule(frozenset({2, 1}), 0, 3, 0.5)
        text = rule.describe(lambda i: f"g{i}")
        assert "g1, g2" in text
        assert "sup=3" in text


class TestRuleGroup:
    def test_from_row_set_computes_stats(self):
        class_mask = from_indices([0, 1, 2])
        g = RuleGroup.from_row_set([7], 1, from_indices([0, 1, 4]), class_mask)
        assert g.support == 2
        assert g.total_support == 3
        assert g.confidence == pytest.approx(2 / 3)

    def test_covered_rows(self):
        g = group(1.0, 2, [0, 3, 5])
        assert g.covered_rows(from_indices([0, 5, 7])) == [0, 5]

    def test_upper_bound_rule_carries_stats(self):
        g = group(0.8, 4, [0, 1, 2, 3, 4])
        rule = g.upper_bound_rule()
        assert rule.support == 4
        assert rule.confidence == 0.8
        assert rule.antecedent == g.antecedent


class TestSignificance:
    def test_confidence_dominates(self):
        assert more_significant(group(0.9, 1, [0]), group(0.8, 100, [0]))

    def test_support_breaks_confidence_ties(self):
        assert more_significant(group(0.9, 5, [0]), group(0.9, 4, [0]))

    def test_equal_groups_not_more_significant(self):
        a, b = group(0.9, 5, [0]), group(0.9, 5, [1])
        assert not more_significant(a, b)
        assert not more_significant(b, a)

    def test_significance_key_orders(self):
        groups = [group(0.5, 9, [0]), group(0.9, 1, [1]), group(0.9, 3, [2])]
        ordered = sorted(groups, key=significance_key, reverse=True)
        assert [g.confidence for g in ordered] == [0.9, 0.9, 0.5]
        assert ordered[0].support == 3


class TestCbaSortKey:
    def test_orders_by_conf_sup_length_discovery(self):
        r1 = Rule(frozenset({1}), 0, 5, 0.9)
        r2 = Rule(frozenset({1, 2}), 0, 5, 0.9)
        r3 = Rule(frozenset({3}), 0, 5, 0.8)
        rules = [(r3, 0), (r2, 1), (r1, 2)]
        ordered = sorted(rules, key=lambda p: cba_sort_key(p[0], p[1]))
        assert ordered[0][0] is r1  # shorter wins the tie
        assert ordered[1][0] is r2
        assert ordered[2][0] is r3

    def test_discovery_order_is_final_tiebreak(self):
        r1 = Rule(frozenset({1}), 0, 5, 0.9)
        r2 = Rule(frozenset({2}), 0, 5, 0.9)
        assert cba_sort_key(r1, 0) < cba_sort_key(r2, 1)


class TestTopKList:
    def test_keeps_k_most_significant(self):
        topk = TopKList(2)
        topk.offer(group(0.5, 2, [0], (1,)))
        topk.offer(group(0.9, 2, [1], (2,)))
        topk.offer(group(0.7, 2, [2], (3,)))
        assert [g.confidence for g in topk] == [0.9, 0.7]

    def test_kth_threshold_underfull_is_zero(self):
        topk = TopKList(3)
        topk.offer(group(0.9, 5, [0]))
        assert topk.kth_threshold() == (0.0, 0)

    def test_kth_threshold_full(self):
        topk = TopKList(1)
        topk.offer(group(0.9, 5, [0]))
        assert topk.kth_threshold() == (0.9, 5)

    def test_ties_break_canonically_by_row_set(self):
        # Exact (confidence, support) ties are settled by the row set,
        # not by arrival order: the smaller row set wins either way.
        winner = group(0.9, 5, [0], (1,))
        loser = group(0.9, 5, [1], (2,))
        assert winner.row_set < loser.row_set

        topk = TopKList(1)
        topk.offer(winner)
        assert not topk.offer(loser)
        assert topk[0] is winner

        topk = TopKList(1)
        topk.offer(loser)
        assert topk.offer(winner)
        assert topk[0] is winner

    def test_same_row_set_upgrades_antecedent(self):
        topk = TopKList(1)
        topk.offer(group(0.9, 5, [0, 1], (1,)))
        upgraded = group(0.9, 5, [0, 1], (1, 2, 3))
        assert topk.offer(upgraded)
        assert topk[0].antecedent == frozenset({1, 2, 3})
        assert len(topk) == 1

    def test_same_row_set_never_duplicates(self):
        topk = TopKList(3)
        topk.offer(group(0.9, 5, [0, 1], (1, 2)))
        assert not topk.offer(group(0.9, 5, [0, 1], (7,)))
        assert len(topk) == 1

    def test_would_accept_boundary(self):
        topk = TopKList(1)
        topk.offer(group(0.9, 5, [0]))
        # Non-strict at exact equality: a boundary tie could still win
        # the canonical tie-break, so pruning must keep it enumerable.
        assert topk.would_accept(0.9, 5)
        assert topk.would_accept(0.9, 6)
        assert topk.would_accept(0.95, 1)
        assert not topk.would_accept(0.9, 4)
        assert not topk.would_accept(0.8, 100)

    def test_iteration_order_is_significance(self):
        topk = TopKList(3)
        for conf, sup, row in ((0.5, 1, 0), (0.9, 9, 1), (0.9, 2, 2)):
            topk.offer(group(conf, sup, [row]))
        stats = [(g.confidence, g.support) for g in topk]
        assert stats == [(0.9, 9), (0.9, 2), (0.5, 1)]


class TestTopKListInitialGroups:
    """``TopKList(k, groups=...)`` holds what offering each group would."""

    @staticmethod
    def offered(k, groups):
        topk = TopKList(k)
        for g in groups:
            topk.offer(g)
        return topk

    def test_unsorted_input_is_sorted_by_key(self):
        groups = [group(0.5, 1, [0]), group(0.9, 2, [1]), group(0.9, 9, [2])]
        topk = TopKList(3, groups=groups)
        assert [(g.confidence, g.support) for g in topk] == [
            (0.9, 9), (0.9, 2), (0.5, 1)]
        assert topk._keys == sorted(topk._keys)
        assert topk.kth_threshold() == (0.5, 1)

    def test_longer_than_k_is_truncated(self):
        groups = [group(0.5 + i / 10, 2, [i]) for i in range(5)]
        topk = TopKList(2, groups=groups)
        assert [g.confidence for g in topk] == [0.9, 0.8]
        assert len(topk._keys) == len(topk._members) == 2
        assert topk.kth_threshold() == (0.8, 2)

    def test_duplicates_collapse_to_the_longest_antecedent(self):
        short = group(0.9, 5, [0, 1], (1,))
        long = group(0.9, 5, [0, 1], (1, 2, 3))
        for groups in ([short, long], [long, short]):
            topk = TopKList(3, groups=groups)
            assert topk.groups == [long]
            assert topk._members == {(long.row_set, 1): long}
        assert TopKList(3, groups=[short, short]).groups == [short]

    def test_ties_keep_the_canonical_winners(self):
        groups = [group(0.9, 5, [row], (row,)) for row in (3, 1, 2, 0)]
        topk = TopKList(2, groups=groups)
        assert [g.row_set for g in topk] == [from_indices([0]),
                                             from_indices([1])]

    def test_matches_offering_and_keeps_working(self):
        groups = [
            group(0.9, 5, [2]), group(0.9, 5, [1]), group(1.0, 1, [3]),
            group(0.9, 5, [2], (4, 5)), group(0.4, 7, [4]),
        ]
        topk = TopKList(2, groups=groups)
        reference = self.offered(2, groups)
        assert topk.groups == reference.groups
        assert topk._keys == reference._keys
        assert topk.kth_threshold() == reference.kth_threshold()
        newcomer = group(0.95, 1, [5])
        assert topk.offer(newcomer) and reference.offer(newcomer)
        assert topk.groups == reference.groups
        assert topk._keys == reference._keys

    def test_caller_list_is_not_mutated(self):
        groups = [group(0.5, 1, [0]), group(0.9, 2, [1])]
        TopKList(1, groups=groups)
        assert [g.confidence for g in groups] == [0.5, 0.9]
