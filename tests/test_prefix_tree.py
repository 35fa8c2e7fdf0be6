"""Tests for the prefix-tree transposed-table representation."""

from functools import reduce
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.generator import generate_cases
from repro.core import bitset as B
from repro.core.prefix_tree import PrefixTree, _iter_terminal_paths
from repro.core.transposed import TransposedTable
from repro.core.view import MiningView
from repro.data import random_discretized_dataset


def build(tuples):
    return PrefixTree.from_items(tuples)


class TestConstruction:
    def test_empty_tree(self):
        tree = PrefixTree()
        assert tree.n_items == 0
        assert tree.rows_present() == []
        assert tree.all_items() == []

    def test_single_tuple(self):
        tree = build([(7, [1, 2, 3])])
        assert tree.n_items == 1
        assert tree.rows_present() == [1, 2, 3]
        assert tree.row_frequencies() == {1: 1, 2: 1, 3: 1}

    def test_shared_prefix_counts(self):
        tree = build([(0, [1, 2, 3]), (1, [1, 2, 4])])
        freq = tree.row_frequencies()
        assert freq == {1: 2, 2: 2, 3: 1, 4: 1}
        # The shared prefix 1 -> 2 must be a single path.
        assert len(tree.header[1]) == 1
        assert len(tree.header[2]) == 1

    def test_exhausted_items(self):
        tree = build([(0, []), (1, [2])])
        assert tree.n_items == 2
        assert tree.exhausted == [0]
        assert set(tree.all_items()) == {0, 1}

    def test_all_items_after_inserts(self):
        tree = build([(0, [1]), (1, [1, 2]), (2, [3])])
        assert sorted(tree.all_items()) == [0, 1, 2]


class TestProjection:
    def test_project_keeps_containing_items(self):
        tree = build([(0, [1, 2, 3]), (1, [2, 3]), (2, [1, 4])])
        projected = tree.project(2)
        assert set(projected.all_items()) == {0, 1}
        assert projected.row_frequencies() == {3: 2}

    def test_project_terminal_item_becomes_exhausted(self):
        tree = build([(0, [1, 2]), (1, [1, 2, 3])])
        projected = tree.project(2)
        assert projected.exhausted == [0]
        assert set(projected.all_items()) == {0, 1}
        assert projected.row_frequencies() == {3: 1}

    def test_project_merges_divergent_sources(self):
        # Item 0 reaches row 5 via [1, 5]; item 1 via [2, 5]; projecting
        # on 5 leaves both exhausted.  Projecting on 1 or 2 keeps one.
        tree = build([(0, [1, 5]), (1, [2, 5])])
        on_five = tree.project(5)
        assert sorted(on_five.exhausted) == [0, 1]
        on_one = tree.project(1)
        assert set(on_one.all_items()) == {0}
        assert on_one.row_frequencies() == {5: 1}

    def test_project_missing_row_is_empty(self):
        tree = build([(0, [1, 2])])
        projected = tree.project(9)
        assert projected.n_items == 0

    def test_chained_projection(self):
        tree = build([(0, [1, 2, 3]), (1, [1, 3]), (2, [2, 3])])
        step1 = tree.project(1)
        assert set(step1.all_items()) == {0, 1}
        step2 = step1.project(2)
        assert set(step2.all_items()) == {0}
        assert step2.row_frequencies() == {3: 1}

    def test_projection_counts_merge(self):
        # Two r-nodes on different paths: the projection keeps both as
        # sources and counts across their subtrees without merging them.
        tree = build([(0, [1, 3, 4]), (1, [2, 3, 4])])
        projected = tree.project(3)
        assert projected.row_frequencies() == {4: 2}
        links = projected.header[4]
        assert [(node.row, node.count) for node in links] == [(4, 1), (4, 1)]
        assert sorted(item for node in links for item in node.items) == [0, 1]
        assert projected.rows_mask() == 1 << 4

    def test_projection_shares_trie_nodes(self):
        tree = build([(0, [1, 2, 3]), (1, [1, 2])])
        projected = tree.project(1)
        assert projected.header[2] == tree.header[2]
        assert projected.project(2).exhausted == [1]

    def test_project_same_row_twice_is_empty(self):
        tree = build([(0, [1, 2])])
        assert tree.project(1).project(1).n_items == 0


class TestFreeze:
    def test_from_items_is_frozen(self):
        tree = build([(0, [1, 2])])
        with pytest.raises(ValueError):
            tree.insert(1, [2])

    def test_insert_until_first_projection(self):
        tree = PrefixTree()
        tree.insert(0, [1, 2])
        tree.insert(1, [2])
        assert tree.project(2).n_items == 2
        with pytest.raises(ValueError):
            tree.insert(2, [3])

    def test_preorder_ranges_cover_subtrees(self):
        tree = build([(0, [1, 2, 3]), (1, [1, 4]), (2, [2, 3]), (3, [5])])
        stack = [tree.root]
        while stack:
            node = stack.pop()
            below = list(_subtree(node))[1:]
            assert node.end - node.pre == len(below) + 1
            assert all(node.pre < other.pre < node.end for other in below)
            rows = 0
            for other in below:
                rows |= 1 << other.row
            assert node.rows_below == rows
            stack.extend(node.children.values())

    def test_rows_mask(self):
        tree = build([(0, [1, 3]), (1, [2, 3]), (2, [])])
        assert tree.rows_mask() == 0b1110
        assert tree.project(3).rows_mask() == 0
        assert tree.project(1).rows_mask() == 0b1000

    def test_closed_rows_are_the_items_common_rows(self):
        tuples = [(0, [1, 2, 3]), (1, [1, 2]), (2, [1, 2, 4]), (3, [2, 4]),
                  (4, [])]
        tree = build(tuples)
        full = {item: sum(1 << row for row in rows) for item, rows in tuples}
        for node in _subtree(tree.root):
            through = [
                item for item, rows in tuples
                if node is tree.root or _passes(tree, rows, node)
            ]
            assert node.closed_rows == reduce(
                and_, (full[item] for item in through)), node
        # Item 1 ends at the shared node 1 -> 2: its root path closes it.
        assert tree.project(1).project(2).closure_rows() == 0b110
        assert tree.closure_rows() == 0
        assert PrefixTree().closure_rows() is None
        assert tree.project(9).closure_rows() is None


def _passes(tree, rows, node):
    """Whether the path of the row list ``rows`` passes through ``node``."""
    current = tree.root
    for row in rows:
        current = current.children[row]
        if current is node:
            return True
    return False


def _subtree(node):
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(current.children.values())


class TestTerminalPaths:
    def test_paths_enumerate_suffixes(self):
        tree = build([(0, [1, 2, 3]), (1, [1, 2])])
        node = tree.header[1][0]
        paths = dict(_iter_terminal_paths(node))
        assert paths == {0: (2, 3), 1: (2,)}


rows_strategy = st.lists(
    st.lists(st.integers(0, 12), unique=True, max_size=8).map(sorted),
    min_size=1,
    max_size=10,
)


class TestProperties:
    @given(rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_frequencies_match_bruteforce(self, tuples):
        tree = build(list(enumerate(tuples)))
        freq = tree.row_frequencies()
        for row in range(13):
            expected = sum(1 for rows in tuples if row in rows)
            assert freq.get(row, 0) == expected

    @given(rows_strategy, st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_projection_matches_bruteforce(self, tuples, r):
        tree = build(list(enumerate(tuples)))
        projected = tree.project(r)
        expected_items = {i for i, rows in enumerate(tuples) if r in rows}
        assert set(projected.all_items()) == expected_items
        assert projected.n_items == len(expected_items)
        freq = projected.row_frequencies()
        for row in range(13):
            expected = sum(
                1 for i, rows in enumerate(tuples) if r in rows and row in rows
                and row > r
            )
            assert freq.get(row, 0) == expected


class TestChainedProjections:
    """Chains of projections against the explicit transposed table.

    Deep chains reach projections with many source nodes on different
    paths — the case a copying implementation had to merge."""

    @given(
        rows_strategy.map(lambda t: t + [[]]),
        st.lists(st.integers(0, 12), unique=True, max_size=5).map(sorted),
    )
    @settings(max_examples=150, deadline=None)
    def test_chain_matches_transposed_table(self, tuples, chain):
        tree = build(list(enumerate(tuples)))
        table = TransposedTable(
            tuples={item: tuple(rows) for item, rows in enumerate(tuples)},
            projected_on=frozenset(),
        )
        for r in chain:
            tree = tree.project(r)
            table = table.project([r])
            expected_items = set(table.tuples)
            assert sorted(tree.all_items()) == sorted(expected_items)
            assert tree.n_items == len(expected_items)
            assert sorted(tree.exhausted) == sorted(
                item for item, rows in table.tuples.items() if not rows
            )
            freq = table.row_frequencies()
            assert tree.row_frequencies() == freq
            assert tree.rows_present() == sorted(freq)
            mask = 0
            for row in freq:
                mask |= 1 << row
            assert tree.rows_mask() == mask


class TestClosureRows:
    """``closure_rows()`` read off the sources equals the AND of the full
    supports of the projection's items, at every projection of a walk.

    The walk follows the enumeration's own projections (every row of the
    projected table, to depth 4), so it reaches multi-source projections,
    sources where an item ends while others pass through, and
    projections whose rows the closure has absorbed into ``X`` — the
    shapes the tree kernel meets."""

    DEPTH = 4

    @classmethod
    def _walk(cls, tuples: dict, seen: dict) -> None:
        """Walk the trie of ``tuples`` (item -> ascending row list)."""
        supports = {
            item: sum(1 << row for row in rows)
            for item, rows in tuples.items()
        }
        stack = [(build(tuples.items()), 0)]
        while stack:
            tree, depth = stack.pop()
            if depth:
                items = tree.all_items()
                expected = reduce(and_, (supports[item] for item in items))
                assert tree.closure_rows() == expected, (depth, items)
                seen["checked"] += 1
                seen["deep"] += depth >= 3
                seen["multi_source"] += len(tree._sources) > 1
                seen["item_ends_inside"] += any(
                    node.items and node.children for node in tree._sources)
                seen["absorbed"] += bool(tree.rows_mask() & expected)
            if depth < cls.DEPTH:
                for r in tree.rows_present():
                    projected = tree.project(r)
                    if projected.n_items:
                        stack.append((projected, depth + 1))

    @staticmethod
    def _view_tuples(view: MiningView, with_prefixes: bool) -> dict:
        """The view's transposed table; ``with_prefixes`` adds, per item,
        an item holding the first half of its rows, which ends at a trie
        node the original item passes through."""
        tuples = {
            item: sorted(B.iter_indices(view.item_rows[item]))
            for item in view.frequent_items
        }
        if with_prefixes:
            offset = max(tuples, default=0) + 1
            for item, rows in list(tuples.items()):
                tuples[offset + item] = rows[:len(rows) // 2]
        return tuples

    def test_random_and_audit_projections(self):
        seen = dict.fromkeys(
            ("checked", "deep", "multi_source", "item_ends_inside",
             "absorbed"), 0)
        for seed in range(3):
            dataset = random_discretized_dataset(
                n_rows=12, n_items=10, density=0.6, seed=seed)
            view = MiningView(dataset, 1, 1)
            for with_prefixes in (False, True):
                self._walk(self._view_tuples(view, with_prefixes), seen)
        for case in generate_cases(seed=7, n_cases=4):
            view = MiningView(case.dataset, case.consequent, case.minsup)
            self._walk(self._view_tuples(view, False), seen)
        assert all(seen.values()), seen
