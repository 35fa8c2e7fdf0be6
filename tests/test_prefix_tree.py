"""Tests for the prefix-tree transposed-table representation."""

from functools import reduce
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.generator import generate_cases
from repro.core import bitset as B
from repro.core.prefix_tree import PrefixTree
from repro.core.transposed import TransposedTable
from repro.core.view import MiningView
from repro.data import random_discretized_dataset


def build(tuples):
    return PrefixTree.from_items(tuples)


class TestConstruction:
    def test_empty_tree(self):
        tree = build([])
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
        assert len(tree.trie.links[1]) == 1
        assert len(tree.trie.links[2]) == 1

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
        trie = tree.trie
        links = [node for node in _nodes_below(projected) if trie.row[node] == 4]
        assert [(trie.row[node], trie.count[node]) for node in links] == [
            (4, 1), (4, 1)]
        assert sorted(
            item for node in links for item in _ending_at(trie, node)
        ) == [0, 1]
        assert projected.rows_mask() == 1 << 4

    def test_projection_shares_trie_nodes(self):
        tree = build([(0, [1, 2, 3]), (1, [1, 2])])
        projected = tree.project(1)
        assert projected.trie is tree.trie
        assert [
            node for node in _nodes_below(projected) if tree.trie.row[node] == 2
        ] == tree.trie.links[2]
        assert projected.project(2).exhausted == [1]

    def test_project_same_row_twice_is_empty(self):
        tree = build([(0, [1, 2])])
        assert tree.project(1).project(1).n_items == 0


class TestFreeze:
    """The built trie's arrays: preorder ids, subtree ranges, runs."""

    def test_preorder_ranges_cover_subtrees(self):
        tuples = [(0, [1, 2, 3]), (1, [1, 4]), (2, [2, 3]), (3, [5])]
        trie = build(tuples).trie
        paths = _paths(trie)
        for node, path in enumerate(paths):
            below = [
                other for other, longer in enumerate(paths)
                if len(longer) > len(path) and longer[:len(path)] == path
            ]
            # A subtree is the id range after its root: preorder ids.
            assert below == list(range(node + 1, trie.end[node]))
            rows = 0
            for other in below:
                rows |= 1 << trie.row[other]
            assert trie.rows_below[node] == rows
        # One node per distinct prefix, children in ascending label order.
        assert paths == sorted(
            {tuple(rows[:depth]) for _item, rows in tuples
             for depth in range(len(rows) + 1)})

    def test_rows_mask(self):
        tree = build([(0, [1, 3]), (1, [2, 3]), (2, [])])
        assert tree.rows_mask() == 0b1110
        assert tree.project(3).rows_mask() == 0
        assert tree.project(1).rows_mask() == 0b1000

    def test_closed_rows_are_the_items_common_rows(self):
        tuples = [(0, [1, 2, 3]), (1, [1, 2]), (2, [1, 2, 4]), (3, [2, 4]),
                  (4, [])]
        tree = build(tuples)
        trie = tree.trie
        full = {item: sum(1 << row for row in rows) for item, rows in tuples}
        for node, path in enumerate(_paths(trie)):
            through = [
                item for item, rows in tuples
                if tuple(rows[:len(path)]) == path
            ]
            assert trie.closed_rows[node] == reduce(
                and_, (full[item] for item in through)), node
        # Item 1 ends at the shared node 1 -> 2: its root path closes it.
        assert tree.project(1).project(2).closure_rows() == 0b110
        assert tree.closure_rows() == 0
        assert build([]).closure_rows() is None
        assert tree.project(9).closure_rows() is None


def _paths(trie):
    """Each node's label path from the root, by node id (read off the
    ``end`` ranges alone)."""
    paths = [()]
    open_nodes = [0]
    for node in range(1, len(trie.row)):
        while trie.end[open_nodes[-1]] <= node:
            open_nodes.pop()
        paths.append(paths[open_nodes[-1]] + (trie.row[node],))
        open_nodes.append(node)
    return paths


def _nodes_below(tree):
    """The node ids strictly below a projection's sources."""
    return [
        node for source in tree.sources
        for node in range(source + 1, tree.trie.end[source])
    ]


def _ending_at(trie, node):
    start = trie.first[node]
    return trie.items[start:start + trie.n_term[node]]


class TestTerminalPaths:
    def test_paths_enumerate_suffixes(self):
        tree = build([(0, [1, 2, 3]), (1, [1, 2])])
        trie = tree.trie
        node = trie.links[1][0]
        paths = _paths(trie)
        suffixes = {
            item: paths[below][len(paths[node]):]
            for below in range(node + 1, trie.end[node])
            for item in _ending_at(trie, below)
        }
        assert suffixes == {0: (2, 3), 1: (2,)}
        start = trie.first[node]
        assert sorted(trie.items[start:start + trie.count[node]]) == [0, 1]


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
                trie = tree.trie
                seen["multi_source"] += len(tree.sources) > 1
                seen["item_ends_inside"] += any(
                    trie.n_term[node] and trie.end[node] > node + 1
                    for node in tree.sources)
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


@st.composite
def ranked_tuples(draw):
    """Tuples over ``n_rows`` labels in a drawn rank order (CLOSET+ builds
    its FP-tree from rank-ordered, not ascending, sequences), with
    duplicated tuples, tuples that are prefixes of others and empty
    tuples mixed in.  Returns (tuples, rank)."""
    n_rows = draw(st.integers(1, 9))
    rank = draw(st.permutations(range(n_rows)))
    sequences = draw(st.lists(
        st.lists(st.integers(0, n_rows - 1), unique=True, max_size=6)
        .map(lambda rows: sorted(rows, key=rank.__getitem__)),
        min_size=1, max_size=8))
    for rows in list(sequences):
        extra = draw(st.sampled_from(("none", "duplicate", "prefix", "empty")))
        if extra == "duplicate":
            sequences.append(list(rows))
        elif extra == "prefix":
            sequences.append(rows[:draw(st.integers(0, len(rows)))])
        elif extra == "empty":
            sequences.append([])
    order = draw(st.permutations(range(len(sequences))))
    return [(item, sequences[index]) for item, index in enumerate(order)], rank


class TestSortedBuild:
    """The one-pass build over sorted tuples, checked through chained
    projections against the explicit transposed table.

    The table orders rows numerically, so the tree's labels are mapped
    to their ranks: a rank-ordered sequence is an ascending rank list."""

    @staticmethod
    def _ranked(bits, rank):
        return sum(1 << rank[label] for label in B.iter_indices(bits))

    @given(ranked_tuples(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_chain_matches_transposed_table(self, drawn, data):
        tuples, rank = drawn
        tree = build(tuples)
        table = TransposedTable(
            tuples={item: tuple(sorted(rank[row] for row in rows))
                    for item, rows in tuples},
            projected_on=frozenset(),
        )
        full = {item: sum(1 << row for row in rows) for item, rows in table.tuples.items()}
        labels = data.draw(st.lists(
            st.sampled_from(range(len(rank))), unique=True, max_size=4))
        chain = [None] + sorted(labels, key=rank.__getitem__)
        for label in chain:
            if label is not None:
                tree = tree.project(label)
                table = table.project([rank[label]])
            assert tree.n_items == len(table.tuples)
            assert sorted(tree.all_items()) == table.items()
            assert sorted(tree.exhausted) == sorted(
                item for item, rows in table.tuples.items() if not rows)
            freq = table.row_frequencies()
            assert {rank[label]: count for label, count
                    in tree.row_frequencies().items()} == freq
            assert self._ranked(tree.rows_mask(), rank) == sum(
                1 << row for row in freq)
            closure = tree.closure_rows()
            if table.tuples:
                assert self._ranked(closure, rank) == reduce(
                    and_, (full[item] for item in table.tuples))
            else:
                assert closure is None

    @given(ranked_tuples())
    @settings(max_examples=100, deadline=None)
    def test_runs_and_counts(self, drawn):
        """Every node's run of items is exactly the items whose sequence
        passes through it, its first ``n_term`` those ending there."""
        tuples, _rank = drawn
        trie = build(tuples).trie
        assert sorted(trie.items) == [item for item, _rows in tuples]
        for node, path in enumerate(_paths(trie)):
            start = trie.first[node]
            run = trie.items[start:start + trie.count[node]]
            assert sorted(run) == sorted(
                item for item, rows in tuples
                if tuple(rows[:len(path)]) == path)
            assert sorted(run[:trie.n_term[node]]) == sorted(
                item for item, rows in tuples if tuple(rows) == path)

    def test_single_row(self):
        tree = build([(0, [0]), (1, []), (2, [0]), (3, [])])
        assert tree.n_items == 4
        assert sorted(tree.exhausted) == [1, 3]
        assert tree.row_frequencies() == {0: 2}
        assert tree.rows_mask() == 1
        assert tree.closure_rows() == 0
        on_zero = tree.project(0)
        assert sorted(on_zero.all_items()) == sorted(on_zero.exhausted) == [0, 2]
        assert on_zero.closure_rows() == 1
        assert on_zero.rows_mask() == 0
        assert len(tree.trie.row) == 2
