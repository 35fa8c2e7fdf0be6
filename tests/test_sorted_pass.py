"""Sorted-pass top-k lists against lists filled one offer at a time.

:func:`repro.core.rules.build_topk_lists` builds every row's list of a
group population known up front in one sorted pass.  The top-k policy
seeds its lists with it (the single-item initialization of Section
4.1.1), builds its final lists with it from the groups the walk
accepted, and the hybrid miner aggregates its partitions with it.  Each
use is checked here against a reference that offers every group to
every row it covers, one by one, as Figure 3 step 13 words it.  The
populations carry many exact ``(confidence, support)`` ties, so the
canonical tie-break decides which groups make the cut.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import hybrid
from repro.core.bitset import iter_indices, popcount
from repro.core.enumeration import ENGINES, run_enumeration
from repro.core.rules import RuleGroup, TopKList, build_topk_lists
from repro.core.topk_miner import (
    ThresholdStore,
    TopkPolicy,
    _CanonicalRowKey,
    mine_topk,
)
from repro.core.view import MiningView
from repro.data.synthetic import random_discretized_dataset
from repro.errors import MiningBudgetExceeded

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
    """A built list holds the reference's very groups, in its order."""
    assert len(actual) == len(expected.groups)
    for got, want in zip(actual, expected.groups):
        assert got is want


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
        assert lists[0] == [groups[2], groups[1]]
        assert build_topk_lists(2, groups, 0b1)[0] == groups[:2]

    def test_rows_without_groups_get_empty_lists(self):
        assert build_topk_lists(3, [], 0b1010) == {1: [], 3: []}


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


def finalized(view, lists):
    """Reference finalize: closed antecedents, original row ids."""
    result = {}
    for position, topk in enumerate(lists):
        groups = []
        for group in topk:
            antecedent = group.antecedent
            if len(antecedent) == 1 and len(view.closed_items(group.row_set)) > 1:
                antecedent = view.closed_items(group.row_set)
            groups.append(RuleGroup(
                antecedent, group.consequent,
                view.positions_to_rows(group.row_set), group.support,
                group.confidence,
            ))
        result[view.order[position]] = groups
    return result


def assert_same_seeding(view, k, dynamic_minsup):
    lists, store, minsup, groups = offered_policy_state(
        view, k, dynamic_minsup)
    policy = TopkPolicy(view, k, dynamic_minsup=dynamic_minsup)
    # The seeded lists, read back through finalize() before any walk.
    assert policy.finalize() == finalized(view, lists)
    # The policy keeps exactly the seeds some covered row accepts (its
    # list is short, or its k-th pair is at most the seed's), which
    # includes every list member, and each row's pairs are its list's.
    accepted = {
        group.row_set: group for group in groups
        if any(
            len(topk) < k
            or (topk.kth_conf, topk.kth_sup)
            <= (group.confidence, group.support)
            for topk in (lists[position]
                         for position in iter_indices(
                             group.row_set & view.positive_mask))
        )
    }
    assert all(accepted[group.row_set] == group
               for topk in lists for group in topk)
    assert policy._groups == accepted
    assert policy._pairs == [
        [(g.confidence, g.support) for g in reversed(topk.groups)]
        for topk in lists
    ]
    assert policy._store._pairs == store._pairs
    assert policy._store._pairs == [
        (topk.kth_conf, topk.kth_sup) for topk in lists]
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


class OfferingPolicy(TopkPolicy):
    """Reference walk policy: one :class:`TopKList` per row, every
    emitted group offered to every covered row, the store synced on each
    accepted offer (the policy's semantics before it kept only pairs).

    Pruning is inherited, so it reads this reference's own store.
    ``events`` counts what the stream tests must exercise: boundary
    ties, antecedent upgrades of listed groups and minsup raises.
    """

    def __init__(self, view, k, initialize_single_items=True,
                 dynamic_minsup=True, use_topk_pruning=True):
        super().__init__(view, k, initialize_single_items=False,
                         dynamic_minsup=dynamic_minsup,
                         use_topk_pruning=use_topk_pruning)
        if initialize_single_items:
            lists, store, minsup, _ = offered_policy_state(
                view, k, dynamic_minsup)
        else:
            lists = [TopKList(k, canonical_key=_CanonicalRowKey(view))
                     for _ in range(view.n_positive)]
            store, minsup = ThresholdStore(view.n_positive), view.minsup
        self.lists = lists
        self._store = store
        self._buckets = store._buckets
        self._order = store._order
        self._minsup = minsup
        self.events = Counter()

    def emit(self, items, position_bits, x_p, x_n):
        if x_p < self._minsup:
            return
        group = RuleGroup(frozenset(items), self.view.consequent,
                          position_bits, x_p, x_p / (x_p + x_n))
        before = self._minsup
        changed = False
        for position in iter_indices(position_bits & self.view.positive_mask):
            topk = self.lists[position]
            member = topk._members.get((position_bits, group.consequent))
            if member is not None:
                if len(group.antecedent) > len(member.antecedent):
                    self.events["upgrade"] += 1
            elif len(topk) == self.k and (group.confidence, x_p) == (
                    topk.kth_conf, topk.kth_sup):
                self.events["tie"] += 1
            if topk.offer(group):
                self._store.update(position, topk.kth_conf, topk.kth_sup)
                changed = True
        if changed and self.dynamic_minsup:
            self._maybe_raise_minsup()
        if self._minsup > before:
            self.events["raise"] += 1

    def finalize(self):
        return finalized(self.view, self.lists)


def stream_view(seed, n_rows, n_items, density, minsup):
    dataset = random_discretized_dataset(
        n_rows, n_items, density=density, seed=seed)
    class_size = dataset.class_counts()[1]
    return MiningView(dataset, 1, min(minsup, max(class_size, 1)))


def run_stream(view, k, init, dynamic, events):
    """Feed one emit stream to both policies, comparing the store pairs
    and minsup after every emit and the final lists at the end."""
    flags = dict(initialize_single_items=init, dynamic_minsup=dynamic)
    policy = TopkPolicy(view, k, **flags)
    reference = OfferingPolicy(view, k, **flags)
    assert policy._store._pairs == reference._store._pairs
    assert policy.minsup == reference.minsup
    for items, bits in events:
        x_p = view.positive_count(bits)
        x_n = popcount(bits) - x_p
        policy.emit(items, bits, x_p, x_n)
        reference.emit(items, bits, x_p, x_n)
        assert policy._store._pairs == reference._store._pairs
        assert policy._store._order == reference._store._order
        assert policy.minsup == reference.minsup
    assert policy.finalize() == reference.finalize()
    return reference.events


@st.composite
def emit_streams(draw):
    view = stream_view(
        draw(st.integers(0, 10**6)), draw(st.integers(3, 9)),
        draw(st.integers(3, 10)), draw(st.sampled_from((0.4, 0.7))),
        draw(st.integers(1, 2)))
    full = (1 << view.n_rows) - 1
    positive = view.positive_mask
    seeds = list(view.single_item_groups())
    kinds = ["any", "repeat"] + ["positive"] * bool(positive) + [
        "seed"] * bool(seeds)
    events = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(kinds))
        if kind == "any" or (kind == "repeat" and not events):
            bits = draw(st.integers(1, full))
        elif kind == "positive":
            bits = draw(st.integers(1, positive)) & positive or positive
        elif kind == "seed":
            bits = draw(st.sampled_from(seeds))
        else:
            bits = draw(st.sampled_from(events))[1]
        items = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4,
                              unique=True))
        events.append((items, bits))
    k = draw(st.sampled_from((1, 2, 3)))
    return view, k, draw(st.booleans()), draw(st.booleans()), events


def _stats_fields(stats):
    fields = stats.as_dict()
    del fields["elapsed_seconds"]
    return fields


class TestPairOnlyWalk:
    """The policy keeps only k-th pairs and the accepted groups during
    the walk and builds its lists at finalize; the lists, store pairs
    and minsup must match the offer-every-row reference throughout."""

    @given(emit_streams())
    @settings(max_examples=300, deadline=None)
    def test_emit_streams_equal_offering(self, stream):
        run_stream(*stream)

    def test_streams_tie_upgrade_and_raise(self):
        # Seeded streams of the same shapes as the property test, checked
        # to hit what it is for: boundary ties, antecedent upgrades of
        # listed groups, and minsup raises.
        rng = random.Random(0)
        seen = Counter()
        for _ in range(200):
            view = stream_view(rng.randrange(10**6), rng.randint(3, 9),
                               rng.randint(3, 10), rng.choice((0.4, 0.7)),
                               rng.randint(1, 2))
            full = (1 << view.n_rows) - 1
            pool = list(view.single_item_groups()) + [
                rng.randint(1, full) for _ in range(6)]
            if view.positive_mask:
                pool.append(view.positive_mask)
            events = [
                (rng.sample(range(10), rng.randint(1, 4)), rng.choice(pool))
                for _ in range(rng.randint(5, 40))
            ]
            seen += run_stream(view, rng.choice((1, 2, 3)), rng.random() < 0.7,
                               rng.random() < 0.7, events)
        assert seen["tie"] > 0
        assert seen["upgrade"] > 0
        assert seen["raise"] > 0

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("init, dynamic", [(True, True), (False, True),
                                               (True, False)])
    def test_budgeted_mines_equal_offering(self, engine, init, dynamic):
        flags = dict(initialize_single_items=init, dynamic_minsup=dynamic)
        for seed in range(3):
            view = stream_view(seed, 14, 24, 0.5, 2)
            for k in (1, 3):
                full = run_enumeration(
                    view, TopkPolicy(view, k, **flags), engine=engine
                ).nodes_visited
                budgets = {1, 2, 5, 17, full // 3, full // 2, full - 1, full}
                for budget in sorted(b for b in budgets if b > 0):
                    outcomes = []
                    for cls in (TopkPolicy, OfferingPolicy):
                        policy = cls(view, k, **flags)
                        try:
                            stats = run_enumeration(
                                view, policy, engine=engine,
                                node_budget=budget)
                        except MiningBudgetExceeded as overrun:
                            stats = overrun.stats
                        outcomes.append((
                            _stats_fields(stats), policy.finalize(),
                            list(policy._store._pairs), policy.minsup))
                    assert outcomes[0] == outcomes[1], (seed, k, budget)
