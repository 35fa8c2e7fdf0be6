"""Tests for the prefix-tree transposed-table representation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prefix_tree import PrefixTree, _iter_terminal_paths
from repro.core.transposed import TransposedTable


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
