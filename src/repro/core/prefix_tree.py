"""Prefix-tree representation of (projected) transposed tables.

Section 4.2 of the paper represents the transposed table as a prefix tree
(Figure 4): each tuple of the transposed table — the ascending list of row
ids containing one item — is a path, so tuples sharing a prefix share trie
nodes.  Each node records the row id and the number of items whose tuple
passes through it, and a header table links all nodes carrying the same
row id.  Frequency counting (Figure 3 step 10) then touches each shared
path once instead of once per item, which is where "FARMER+prefix" gets
its order-of-magnitude over plain projected tables.

Projection onto a row ``r`` (building ``TT|_{X ∪ {r}}`` from ``TT|_X``)
follows the header links of ``r``: every item whose path passes through an
``r``-labelled node survives, keeping only the part of its path below that
node.  Items whose path *ends* at an ``r`` node have no rows left; they
remain members of ``I(X ∪ {r})`` (the tree keeps them in ``exhausted``)
but cannot extend further.

The trie is built in one pass over its tuples sorted by row sequence
(:class:`Trie`).  Each tuple shares with its predecessor the longest
common prefix of the two sequences, found by binary search on slice
equality, so only its suffix becomes new nodes.  Nodes are therefore
created in DFS preorder: a node's id *is* its preorder number, children
come in ascending label order, and the nodes below node ``v`` are the
ids ``range(v + 1, end[v])``.  The tuples through ``v`` are a run of the
sorted order, so with the items kept in that order

* the items through ``v`` are ``items[first[v]:first[v] + count[v]]``,
* the items that end at ``v`` are the run's first ``n_term[v]``
  (equal sequences sort together, before every longer one),

and a node's data is a slot in a few flat lists rather than an object
with a dict of children.  The per-label node lists, ascending in
preorder, are Figure 4's header table.

There is one trie, and a projection is a list of *source nodes* in it:
the projected table is everything strictly below those nodes.
``project(r)`` bisects row ``r``'s links into each source's id range —
no subtree is walked and no node is created, whether the sources share
one path or many (where a copying implementation would have to merge
their subtrees).  In the same loop it sums the new sources' ``count``
into ``n_items`` (an item's path crosses ``r`` exactly once, so they sum
to ``|I(X ∪ {r})|``), ORs their ``rows_below`` into the candidate rows
and ANDs their ``closed_rows`` into the closure, so the tree engine
spends one call per enumeration node.  Item lists, exhausted items and
row frequencies, which only emits, CLOSET+ and the tests read, are
slices of the arrays taken on demand.

``closed_rows`` is the set of rows that *every* item whose path passes
through the node contains — the Galois closure ``R(I)`` of those items.
It is exact because a path is an item's complete row list: an item
passing through a node holds exactly the rows on the node's root path
plus the rows of its own path below the node.  If some item ends at the
node, nothing below is shared by all of them, so ``closed_rows`` is the
root path itself (the rows up to and including the node's row);
otherwise it is the AND of the children's ``closed_rows``.  Every item
of a projection passes through exactly one of its sources, so
``closure_rows()`` — ``R(I(X ∪ {r}))``, with the rows before ``r`` the
tree engine's backward check probes — is the AND of the sources'
values: a few big-int ANDs per node instead of one per item.

Labels need not ascend along a sequence, but must be distinct within
one: CLOSET+ builds its FP-tree from transactions in item-rank order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Iterable, Optional, Sequence

__all__ = ["PrefixTree", "Trie"]


class Trie:
    """The frozen trie of a set of tuples, as flat per-node lists.

    Node 0 is the virtual root (label -1); node ``v``'s subtree is the
    id range ``[v, end[v])``.  Per node:

    * ``row`` — its label;
    * ``end`` — one past the last id of its subtree;
    * ``count`` — the number of tuples through it (its run's length);
    * ``first`` — the run's offset into ``items``;
    * ``n_term`` — the number of tuples ending at it;
    * ``rows_below`` — the bitset of the labels strictly below it;
    * ``closed_rows`` — the AND of the label sets of the tuples
      through it (see the module docstring).

    ``items`` lists the tuples' items in sorted-sequence order and
    ``links`` maps a label to its node ids, ascending.
    """

    __slots__ = (
        "row", "end", "count", "first", "n_term", "rows_below",
        "closed_rows", "items", "links",
    )

    def __init__(self, tuples: Iterable[tuple[int, Sequence[int]]]) -> None:
        ordered = sorted(tuples, key=itemgetter(1))
        n_tuples = len(ordered)
        self.items = [item for item, _rows in ordered]
        size = sum(len(rows) for _item, rows in ordered) + 1
        row = [-1]
        first = [0] * size
        n_term = [0] * size
        end = [0] * size
        rows_below = [0] * size
        closed_rows = [0] * size
        links: dict[int, list[int]] = {}
        # The open root path: node ids, their root-path label masks, and
        # the AND of their closed children's ``closed_rows``, by depth.
        path = [0]
        path_rows = [0]
        common = [-1]

        def close(depth: int, shared: int) -> None:
            """Close the open nodes deeper than ``shared``."""
            while depth > shared:
                node = path.pop()
                end[node] = len(row)
                root_path = path_rows.pop()
                closed = common.pop()
                if n_term[node]:
                    closed = root_path
                closed_rows[node] = closed
                depth -= 1
                common[depth] &= closed
                rows_below[path[depth]] |= rows_below[node] | 1 << row[node]

        previous: Sequence[int] = ()
        for index, (_item, rows) in enumerate(ordered):
            depth = len(path) - 1  # the length of ``previous``
            # The longest common prefix with the previous sequence.
            shared = min(depth, len(rows))
            if rows[:shared] != previous[:shared]:
                low = 0
                while shared - low > 1:
                    middle = (low + shared) >> 1
                    if rows[:middle] == previous[:middle]:
                        low = middle
                    else:
                        shared = middle
                shared = low
            if depth > shared:
                close(depth, shared)
            if shared == len(rows):  # equal to the previous sequence
                n_term[path[shared]] += 1
                continue
            node = len(row)
            mask = path_rows[shared]
            for label in rows[shared:]:
                row.append(label)
                first[node] = index
                chain = links.get(label)
                if chain is None:
                    links[label] = [node]
                else:
                    chain.append(node)
                path.append(node)
                mask |= 1 << label
                path_rows.append(mask)
                common.append(-1)
                node += 1
            n_term[node - 1] = 1
            previous = rows
        close(len(path) - 1, 0)
        n_nodes = len(row)
        for array in (first, n_term, end, rows_below, closed_rows):
            del array[n_nodes:]
        end[0] = n_nodes
        # A root with children and no empty tuple closes like any node;
        # otherwise its root path is empty.
        if not n_term[0] and n_nodes > 1:
            closed_rows[0] = common[0]
        # A run ends where the first node after its subtree starts one.
        first.append(n_tuples)
        self.count = [first[stop] - start for start, stop in zip(first, end)]
        first.pop()
        self.row = row
        self.end = end
        self.first = first
        self.n_term = n_term
        self.rows_below = rows_below
        self.closed_rows = closed_rows
        self.links = links


class PrefixTree:
    """A prefix tree over transposed-table tuples, or a projection of one.

    A tree built by :meth:`from_items` has the trie root as its one
    source; :meth:`project` returns a tree over the same trie whose
    sources are ``r``-labelled nodes.  Trees are read-only.

    Attributes:
        trie: the :class:`Trie` shared by every projection of it.
        sources: the source node ids, ascending.
        n_items: total items represented, including exhausted ones —
            this is ``|I(X)|`` for the node owning this projection.
        closure: the AND of the sources' ``closed_rows`` (-1 when there
            are none); read through :meth:`closure_rows`.
        mask: the OR of the sources' ``rows_below``; read through
            :meth:`rows_mask`.
    """

    __slots__ = ("trie", "sources", "n_items", "closure", "mask")

    def __init__(
        self,
        trie: Trie,
        sources: Sequence[int],
        n_items: int,
        closure: int,
        mask: int,
    ) -> None:
        self.trie = trie
        self.sources = sources
        self.n_items = n_items
        self.closure = closure
        self.mask = mask

    @classmethod
    def from_items(cls, tuples: Iterable[tuple[int, Sequence[int]]]) -> "PrefixTree":
        """Build the tree of (item id, row list) tuples.

        The row lists must all be lists or all be tuples (they are
        compared with each other), each without a repeated row.
        """
        trie = Trie(tuples)
        return cls(trie, (0,), len(trie.items), trie.closed_rows[0],
                   trie.rows_below[0])

    @property
    def exhausted(self) -> list[int]:
        """Item ids in ``I(X)`` with no remaining rows in this projection
        (the items ending at the sources)."""
        trie = self.trie
        items = trie.items
        first = trie.first
        n_term = trie.n_term
        exhausted: list[int] = []
        for source in self.sources:
            if n_term[source]:
                start = first[source]
                exhausted += items[start:start + n_term[source]]
        return exhausted

    def rows_present(self) -> list[int]:
        """Sorted row ids appearing in at least one tuple."""
        return sorted(self.row_frequencies())

    def row_frequencies(self) -> dict[int, int]:
        """Row id -> number of items whose tuple contains the row.

        This is the step-10 frequency scan; thanks to prefix sharing each
        trie node is visited once regardless of how many items pass
        through it.
        """
        trie = self.trie
        row = trie.row
        count = trie.count
        end = trie.end
        freq: dict[int, int] = {}
        get = freq.get
        for source in self.sources:
            stop = end[source]
            for label, through in zip(row[source + 1:stop],
                                      count[source + 1:stop]):
                freq[label] = get(label, 0) + through
        return freq

    def rows_mask(self) -> int:
        """Bitset of the rows appearing in at least one tuple."""
        return self.mask

    def closure_rows(self) -> Optional[int]:
        """``R(I(X))``: the rows every item of this projection contains,
        including rows before the projection's own (None when empty)."""
        return self.closure if self.n_items else None

    def all_items(self) -> list[int]:
        """Every item represented in this projection (``I(X)``): each
        source's run of the sorted items, sources in order."""
        trie = self.trie
        items = trie.items
        first = trie.first
        count = trie.count
        sources = self.sources
        if len(sources) == 1:
            start = first[sources[0]]
            return items[start:start + count[sources[0]]]
        result: list[int] = []
        for source in sources:
            start = first[source]
            result += items[start:start + count[source]]
        return result

    def project(self, r: int) -> "PrefixTree":
        """The projection onto row ``r`` (rows after ``r`` only).

        Bisects row ``r``'s header links into each source's id range:
        the ``r``-labelled nodes below the sources become the new
        sources, and items terminating at them become exhausted.  The
        same loop sums the new sources' counts and folds their closure
        and candidate rows.  Work is a bisection per source plus a few
        big-int operations per new source, independent of the subtree
        sizes.

        Projections are not memoized: one costs a few list slices, and
        a kept projection would live as long as the tree it came from.
        """
        trie = self.trie
        links = trie.links.get(r)
        sources: list[int] = []
        n_items = 0
        closure = -1
        mask = 0
        if links is not None:
            end = trie.end
            count = trie.count
            closed_rows = trie.closed_rows
            rows_below = trie.rows_below
            for source in self.sources:
                low = bisect_right(links, source)
                high = bisect_left(links, end[source], low)
                if low < high:
                    found = links[low:high]
                    sources += found
                    for node in found:
                        n_items += count[node]
                        closure &= closed_rows[node]
                        mask |= rows_below[node]
        return PrefixTree(trie, sources, n_items, closure, mask)

    def __repr__(self) -> str:
        return (
            f"PrefixTree(items={self.n_items}, "
            f"rows={len(self.row_frequencies())}, "
            f"exhausted={len(self.exhausted)})"
        )
