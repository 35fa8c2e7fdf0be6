"""Sorted-pass top-k lists against lists filled one offer at a time.

:func:`repro.core.rules.build_topk_lists` builds every row's list of a
group population known up front in one sorted pass.  The top-k policy
seeds its lists with it (the single-item initialization of Section
4.1.1) and the hybrid miner aggregates its partitions with it.  Each
use is checked here against a reference that offers every group to
every row it covers, one by one, the way the lists are kept during the
walk.  The populations carry many exact ``(confidence, support)`` ties,
so the canonical tie-break decides which groups make the cut.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import hybrid
from repro.core.bitset import iter_indices, popcount
from repro.core.rules import RuleGroup, TopKList, build_topk_lists
from repro.core.topk_miner import (
    ThresholdStore,
    TopkPolicy,
    _CanonicalRowKey,
    mine_topk,
)
from repro.core.view import MiningView
from repro.data.synthetic import random_discretized_dataset

# Few distinct (confidence, support) pairs, so exact ties are common.
TIED_STATS = ((1.0, 3), (1.0, 2), (0.75, 3), (0.5, 2), (0.5, 1))


def offered_lists(k, groups, rows, canonical_key=None):
    """Reference: each group offered to each covered row in turn."""
    lists = {
        row: TopKList(k, canonical_key=canonical_key)
        for row in iter_indices(rows)
    }
    for group in groups:
        for row in iter_indices(group.row_set & rows):
            lists[row].offer(group)
    return lists


def assert_same_list(actual, expected):
    assert actual.k == expected.k
    assert len(actual.groups) == len(expected.groups)
    for got, want in zip(actual.groups, expected.groups):
        assert got is want
    assert actual._keys == expected._keys
    assert actual._members == expected._members
    assert (actual.kth_conf, actual.kth_sup) == (
        expected.kth_conf, expected.kth_sup)
    assert actual.canonical_key is expected.canonical_key


def assert_same_lists(actual, expected):
    assert actual.keys() == expected.keys()
    for row in expected:
        assert_same_list(actual[row], expected[row])


def boundary_ties(lists, groups):
    """Rows whose k-th member ties, on (conf, sup), a covering outsider."""
    tied = 0
    for row, topk in lists.items():
        if len(topk) < topk.k:
            continue
        last = topk.groups[-1]
        members = {id(group) for group in topk.groups}
        if any(
            id(group) not in members
            and group.row_set >> row & 1
            and (group.confidence, group.support)
            == (last.confidence, last.support)
            for group in groups
        ):
            tied += 1
    return tied


@st.composite
def populations(draw):
    n_rows = draw(st.integers(1, 10))
    full = (1 << n_rows) - 1
    rows = draw(st.integers(1, full))
    row_sets = draw(st.lists(st.integers(1, full), max_size=24, unique=True))
    groups = [
        RuleGroup(frozenset({index}), 1, row_set, *reversed(
            draw(st.sampled_from(TIED_STATS))))
        for index, row_set in enumerate(row_sets)
    ]
    k = draw(st.sampled_from((1, 2, 5, len(groups) + 1)))
    # A row permutation as the canonical translation, so canonical
    # order disagrees with raw row-set order (as position space does).
    permutation = draw(st.permutations(range(n_rows)))
    offer_order = draw(st.permutations(groups))
    return k, groups, offer_order, rows, permutation


def translator(permutation):
    def canonical(group):
        return sum(1 << permutation[row] for row in iter_indices(group.row_set))
    return canonical


class TestBuildTopkLists:
    @given(populations(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_offering_every_group(self, population, translate):
        k, groups, offer_order, rows, permutation = population
        canonical = translator(permutation) if translate else None
        expected = offered_lists(k, offer_order, rows, canonical)
        actual = build_topk_lists(k, groups, rows, canonical_key=canonical)
        assert_same_lists(actual, expected)

    def test_canonical_key_breaks_boundary_ties(self):
        # Three groups tie on (conf, sup) for row 0; the translation
        # ranks the raw-largest row set first.
        groups = [
            RuleGroup(frozenset({i}), 1, row_set, 2, 1.0)
            for i, row_set in enumerate((0b011, 0b101, 0b1001))
        ]
        reverse = translator([3, 2, 1, 0])
        lists = build_topk_lists(2, groups, 0b1, canonical_key=reverse)
        assert lists[0].groups == [groups[2], groups[1]]
        assert build_topk_lists(2, groups, 0b1)[0].groups == groups[:2]

    def test_rows_without_groups_get_empty_lists(self):
        lists = build_topk_lists(3, [], 0b1010)
        assert sorted(lists) == [1, 3]
        assert all(len(topk) == 0 for topk in lists.values())
        assert lists[1].kth_threshold() == (0.0, 0)

    def test_later_offers_keep_the_order(self):
        groups = [
            RuleGroup(frozenset({i}), 1, row_set, sup, conf)
            for i, (row_set, sup, conf) in enumerate(
                ((0b11, 2, 1.0), (0b101, 2, 1.0), (0b111, 3, 0.75)))
        ]
        built = build_topk_lists(2, groups, 0b1)[0]
        offered = offered_lists(2, groups, 0b1)[0]
        newcomer = RuleGroup(frozenset({9}), 1, 0b1001, 2, 1.0)
        assert built.offer(newcomer) == offered.offer(newcomer)
        assert_same_list(built, offered)


def offered_policy_state(view, k, dynamic_minsup):
    """Reference single-item seeding: one offer per group and covered row."""
    canonical = _CanonicalRowKey(view)
    lists = [
        TopKList(k, canonical_key=canonical) for _ in range(view.n_positive)
    ]
    store = ThresholdStore(view.n_positive)
    groups = []
    for row_bits, items in view.single_item_groups().items():
        support = view.positive_count(row_bits)
        if support < view.minsup:
            continue
        group = RuleGroup(
            antecedent=frozenset(items[:1]),
            consequent=view.consequent,
            row_set=row_bits,
            support=support,
            confidence=support / popcount(row_bits),
        )
        groups.append(group)
        for position in iter_indices(row_bits & view.positive_mask):
            topk = lists[position]
            if topk.offer(group):
                store.update(position, topk.kth_conf, topk.kth_sup)
    minsup = view.minsup
    weakest = store.weakest()
    if dynamic_minsup and weakest is not None:
        conf, sup = weakest
        if conf >= 1.0 and sup > minsup:
            minsup = sup
    return lists, store, minsup, groups


def assert_same_seeding(view, k, dynamic_minsup):
    lists, store, minsup, groups = offered_policy_state(
        view, k, dynamic_minsup)
    policy = TopkPolicy(view, k, dynamic_minsup=dynamic_minsup)
    assert len(policy.lists) == len(lists)
    for actual, expected in zip(policy.lists, lists):
        assert actual.groups == expected.groups
        assert actual._keys == expected._keys
        assert (actual.kth_conf, actual.kth_sup) == (
            expected.kth_conf, expected.kth_sup)
    assert policy._store._pairs == store._pairs
    assert policy._store._buckets == store._buckets
    assert policy._store._order == store._order
    assert policy.minsup == minsup
    return lists, groups


def seeding_k(view, choice):
    return choice if choice else len(view.single_item_groups()) + 1


class TestSingleItemSeeding:
    @given(
        st.integers(0, 10**6),
        st.integers(6, 16),
        st.integers(4, 40),
        st.sampled_from((0.3, 0.6, 0.9)),
        st.integers(1, 4),
        st.sampled_from((1, 2, 5, 0)),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_offer_seeding(
        self, seed, n_rows, n_items, density, minsup, k_choice, dynamic
    ):
        dataset = random_discretized_dataset(
            n_rows, n_items, density=density, seed=seed)
        class_size = dataset.class_counts()[1]
        view = MiningView(dataset, 1, min(minsup, max(class_size, 1)))
        assert_same_seeding(view, seeding_k(view, k_choice), dynamic)

    def test_the_cases_tie_and_drop_groups(self):
        # The seeded datasets below exercise what the property test is
        # for: boundary ties settled by the canonical key, and items
        # under minsup, whose groups the view drops before seeding.
        tied = below_minsup = 0
        for seed in range(40):
            dataset = random_discretized_dataset(14, 30, 0.5, seed=seed)
            view = MiningView(dataset, 1, 3)
            for k in (1, 2, 5):
                lists, groups = assert_same_seeding(view, k, True)
                by_position = dict(enumerate(lists))
                tied += boundary_ties(by_position, groups)
                assert all(group.support >= view.minsup for group in groups)
            class_rows = dataset.rows_of_class(1)
            below_minsup += sum(
                1 for item in range(30)
                if 0 < sum(item in dataset.rows[row] for row in class_rows)
                < view.minsup
            )
        assert tied > 0
        assert below_minsup > 0

    def test_full_lists_raise_minsup(self):
        # Item 0 covers exactly the class-1 rows: every list fills with
        # 100%-confidence groups, so minsup rises at seeding time.
        from repro.data.dataset import DiscretizedDataset, Item

        items = [Item(i, i, f"i{i}", float("-inf"), float("inf"))
                 for i in range(3)]
        dataset = DiscretizedDataset(
            [{0, 1}, {0, 2}, {0, 1}, {0, 2}, {1, 2}], [1, 1, 1, 1, 0], items)
        view = MiningView(dataset, 1, 1)
        assert_same_seeding(view, 1, True)
        assert TopkPolicy(view, 1).minsup == 4
        assert TopkPolicy(view, 1, dynamic_minsup=False).minsup == 1


class TestHybridAggregation:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("k", (1, 2, 5, 1000))
    @pytest.mark.parametrize("dynamic", (True, False))
    def test_equals_offer_aggregation(self, monkeypatch, seed, k, dynamic):
        captured = []
        real = hybrid.build_topk_lists

        def capture(k, groups, rows, canonical_key=None):
            lists = real(k, groups, rows, canonical_key=canonical_key)
            captured.append((k, list(groups), rows, lists))
            return lists

        monkeypatch.setattr(hybrid, "build_topk_lists", capture)
        dataset = random_discretized_dataset(14, 24, 0.5, seed=seed)
        result = hybrid.mine_topk_hybrid(
            dataset, 1, 2, k=k, dynamic_minsup=dynamic)
        ((k_used, groups, rows, lists),) = captured
        # Each group survives only in its canonical partition.
        identities = [(group.row_set, group.consequent) for group in groups]
        assert len(set(identities)) == len(identities)
        assert_same_lists(lists, offered_lists(k_used, groups, rows))
        direct = mine_topk(dataset, 1, 2, k=k, dynamic_minsup=dynamic)
        assert result.per_row == direct.per_row
