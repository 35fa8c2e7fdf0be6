"""Tests for the MiningView preparation step."""

import gc
import weakref

import pytest

from repro.core.bitset import iter_indices, popcount, to_indices
from repro.core.topk_miner import mine_topk
from repro.core.view import MiningView
from repro.data.synthetic import make_figure1_example, random_discretized_dataset


class TestOrdering:
    def test_class_dominant_order(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=1)
        labels = [figure1.labels[row] for row in view.order]
        assert labels == [1, 1, 1, 0, 0]

    def test_positive_positions_are_low(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=1)
        assert view.n_positive == 3
        assert to_indices(view.positive_mask) == [0, 1, 2]

    def test_other_consequent_flips(self, figure1):
        view = MiningView(figure1, consequent=0, minsup=1)
        labels = [figure1.labels[row] for row in view.order]
        assert labels == [0, 0, 1, 1, 1]

    def test_rows_sorted_by_frequent_item_count(self):
        ds = random_discretized_dataset(12, 10, density=0.5, seed=3)
        view = MiningView(ds, consequent=1, minsup=2)
        lengths = [len(view.row_items[p]) for p in range(view.n_positive)]
        assert lengths == sorted(lengths)
        negative = [
            len(view.row_items[p])
            for p in range(view.n_positive, view.n_rows)
        ]
        assert negative == sorted(negative)

    def test_position_of_inverts_order(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=1)
        for position, row in enumerate(view.order):
            assert view.position_of[row] == position


class TestFrequentItems:
    def test_infrequent_items_removed(self, figure1):
        # With minsup=2 and consequent C, items f, g, h, o, p appear in
        # fewer than 2 class-C rows.
        view = MiningView(figure1, consequent=1, minsup=2)
        assert set(view.frequent_items) == {0, 1, 2, 3, 4}

    def test_minsup_one_keeps_all_class_items(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=1)
        # p appears only in r2 (class C) so it stays; h only in r5 (not C).
        assert 9 in view.frequent_items
        assert 7 not in view.frequent_items

    def test_row_items_restricted(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=2)
        for items in view.row_items:
            assert items <= set(view.frequent_items)

    def test_item_rows_match_dataset(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=2)
        for item in view.frequent_items:
            positions = set(iter_indices(view.item_rows[item]))
            rows = {view.order[p] for p in positions}
            expected = {
                r for r, row in enumerate(figure1.rows) if item in row
            }
            assert rows == expected


class TestValidation:
    def test_minsup_zero_rejected(self, figure1):
        with pytest.raises(ValueError, match="minsup"):
            MiningView(figure1, consequent=1, minsup=0)

    def test_bad_consequent_rejected(self, figure1):
        with pytest.raises(ValueError, match="consequent"):
            MiningView(figure1, consequent=5, minsup=1)


class TestClosures:
    def test_closure_rows_roundtrip(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=1)
        for item in view.frequent_items:
            rows = view.closure_rows([item])
            assert rows == view.item_rows[item]

    def test_closed_items_of_closure(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=1)
        # cde in item ids is {2, 3, 4}; its support set closes to itself.
        rows = view.closure_rows([2, 3, 4])
        assert view.closed_items(rows) >= {2, 3, 4}

    def test_positions_to_rows(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=1)
        bits = view.positions_to_rows(0b101)
        rows = to_indices(bits)
        assert rows == sorted(view.order[p] for p in (0, 2))

    def test_large_sets_match_the_bit_walk(self):
        """Row sets of more than 32 rows, and closures with fewer items
        than rows, take linear paths; bit-by-bit folds are their
        reference."""
        import random

        dataset = random_discretized_dataset(
            n_rows=300, n_items=20, density=0.4, seed=3)
        view = MiningView(dataset, consequent=1, minsup=1)
        rng = random.Random(5)
        for _ in range(200):
            bits = rng.getrandbits(300) & rng.getrandbits(300)
            rows = 0
            common = None
            for position in iter_indices(bits):
                rows |= 1 << view.order[position]
                items = view.row_items[position]
                common = items if common is None else common & items
            assert view.positions_to_rows(bits) == rows
            assert view.closed_items(bits) == (common or frozenset())

    def test_positive_count(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=1)
        assert view.positive_count(view.positive_mask) == 3
        assert view.positive_count(0) == 0


class TestSingleItemGroups:
    def test_groups_keyed_by_support_set(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=2)
        groups = view.single_item_groups()
        for row_bits, items in groups.items():
            for item in items:
                assert view.item_rows[item] == row_bits

    def test_items_with_same_support_share_group(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=2)
        groups = view.single_item_groups()
        # a and b always co-occur in Figure 1 (rows r1, r2).
        shared = [items for items in groups.values() if 0 in items]
        assert shared and 1 in shared[0]

    def test_all_frequent_items_covered(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=2)
        groups = view.single_item_groups()
        covered = {item for items in groups.values() for item in items}
        assert covered == set(view.frequent_items)


class TestViewCache:
    """Cached views must not keep their dataset alive."""

    @pytest.mark.parametrize("engine", ["bitset", "tree"])
    def test_mined_dataset_is_collected(self, engine):
        dataset = make_figure1_example()
        view = MiningView.cached(dataset, 0, 1)
        assert MiningView.cached(dataset, 0, 1) is view
        result = mine_topk(dataset, 1, 1, k=2, engine=engine)
        assert result.per_row
        alive = weakref.ref(dataset)
        del dataset, view
        gc.collect()
        assert alive() is None

    @pytest.mark.parametrize("engine", ["bitset", "tree"])
    def test_view_and_index_are_freed_without_the_cycle_collector(
        self, engine
    ):
        # The view holds its SupportIndex and the index holds no view, so
        # both go as soon as the dataset does: their memos never wait for
        # a collection.
        dataset = make_figure1_example()
        mine_topk(dataset, 1, 1, k=2, engine=engine)
        view = MiningView.cached(dataset, 1, 1)
        index = view.support_index()
        alive = (weakref.ref(view), weakref.ref(index))
        enabled = gc.isenabled()
        gc.disable()
        try:
            del dataset, view, index
            assert [ref() for ref in alive] == [None, None]
        finally:
            if enabled:
                gc.enable()


class TestFirstLevelMemo:
    def test_table_engine_takes_no_memo(self):
        # The table engine is Figure 6's FARMER column: every run pays
        # its own first-level projections, so it must leave no memo on
        # the view, while the bitset and tree engines fill theirs.
        from repro.baselines.farmer import FarmerPolicy
        from repro.core.enumeration import run_enumeration
        from repro.core.topk_miner import TopkPolicy

        dataset = random_discretized_dataset(12, 10, density=0.5, seed=3)
        view = MiningView(dataset, consequent=1, minsup=2)
        run_enumeration(view, TopkPolicy(view, 2), engine="table")
        run_enumeration(view, FarmerPolicy(view), engine="table")
        memo = view.support_index().first_level
        assert not memo.get("table")
        for engine in ("bitset", "tree"):
            run_enumeration(view, TopkPolicy(view, 2), engine=engine)
            assert memo[engine], engine
        run_enumeration(view, FarmerPolicy(view), engine="table")
        assert not memo.get("table")
