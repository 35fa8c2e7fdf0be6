"""Prefix-tree representation of (projected) transposed tables.

Section 4.2 of the paper represents the transposed table as a prefix tree
(Figure 4): each tuple of the transposed table — the ascending list of row
ids containing one item — is inserted as a path, so tuples sharing a
prefix share trie nodes.  Each node records the row id and the number of
items whose tuple passes through it, and a header table links all nodes
carrying the same row id.  Frequency counting (Figure 3 step 10) then
touches each shared path once instead of once per item, which is where
"FARMER+prefix" gets its order-of-magnitude over plain projected tables.

Projection onto a row ``r`` (building ``TT|_{X ∪ {r}}`` from ``TT|_X``)
follows the header links of ``r``: every item whose path passes through an
``r``-labelled node survives, keeping only the part of its path below that
node.  Items whose path *ends* at an ``r`` node have no rows left; they
remain members of ``I(X ∪ {r})`` (the tree keeps them in ``exhausted``)
but cannot extend further.

There is one trie, and a projection is a list of *source nodes* in it:
the projected table is everything strictly below those nodes.  The trie
is frozen once, when it is first read: every node gets its DFS preorder
number ``pre`` and subtree end ``end`` (so a node's subtree is the
preorder range ``[pre, end)``), the bitset ``rows_below`` of the rows
labelling its descendants, and the bitset ``closed_rows`` described
below.  The per-row node-link arrays, sorted by preorder, are Figure 4's
header table.  ``project(r)`` then bisects row ``r``'s links into each
source's range — no subtree is walked and no node is created, whether
the sources share one path or many (where a copying implementation
would have to merge their subtrees).  ``n_items`` comes from the new
sources' pass-through counts (an item's path crosses ``r`` exactly
once, so they sum to ``|I(X ∪ {r})|``), the candidate rows from OR-ing
their ``rows_below``, and the item list from per-node subtree caches.
The header table and row frequencies of a projection, which only
CLOSET+ and the tests read, are walked on demand.

``closed_rows`` is the set of rows that *every* item whose path passes
through the node contains — the Galois closure ``R(I)`` of those items.
It is exact because a path is an item's complete ascending row list:
an item passing through a node holds exactly the rows on the node's
root path plus the rows of its own path below the node.  If some item
ends at the node, nothing below is shared by all of them, so
``closed_rows`` is the root path itself (the rows up to and including
``node.row``); otherwise it is the AND of the children's
``closed_rows``.  Every item of a projection passes through exactly one
of its sources, so ``closure_rows()`` — ``R(I(X ∪ {r}))``, with the
rows before ``r`` the kernels' backward check probes — is the AND of
the sources' values: a few big-int ANDs per node instead of one per
item.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Optional, Sequence

__all__ = ["PrefixTreeNode", "PrefixTree"]


class PrefixTreeNode:
    """One trie node: a row id, pass-through count, and terminal items.

    ``items_below`` lazily caches the subtree's full item list (computed
    by :func:`_node_items_below`); ``pre``, ``end``, ``rows_below`` and
    ``closed_rows`` are set when the trie is frozen.  Every projection of
    the trie reads the same nodes, so these per-node caches serve all of
    them.
    """

    __slots__ = (
        "row", "count", "children", "items", "items_below",
        "pre", "end", "rows_below", "closed_rows",
    )

    def __init__(self, row: int) -> None:
        self.row = row
        self.count = 0
        self.children: dict[int, "PrefixTreeNode"] = {}
        self.items: list[int] = []
        self.items_below: Optional[list[int]] = None
        self.pre = 0
        self.end = 0
        self.rows_below = 0
        self.closed_rows = 0

    def __repr__(self) -> str:
        return f"PrefixTreeNode(row={self.row}, count={self.count})"


def _node_items_below(node: PrefixTreeNode) -> list[int]:
    """The subtree's items — the node's own, then each child subtree in
    *reverse* child order (the historical stack-walk order, which the
    projection item lists must reproduce exactly).  Cached per node."""
    cached = node.items_below
    if cached is not None:
        return cached
    stack = [node]
    while stack:
        current = stack[-1]
        if current.items_below is not None:
            stack.pop()
            continue
        pending = [
            child for child in current.children.values()
            if child.items_below is None
        ]
        if pending:
            stack.extend(pending)
            continue
        result = list(current.items)
        for child in reversed(list(current.children.values())):
            result.extend(child.items_below)
        current.items_below = result
        stack.pop()
    return node.items_below


_Links = dict[int, tuple[list[int], list[PrefixTreeNode]]]


def _freeze_trie(root: PrefixTreeNode) -> _Links:
    """Number the trie in DFS preorder (children in insertion order), set
    every node's ``end``, ``rows_below`` and ``closed_rows``, and return
    the header table: row -> (preorder numbers, nodes), both ascending in
    preorder."""
    links: _Links = {}
    counter = 0
    # (node, rows on its root path, subtree finished?)
    stack: list[tuple[PrefixTreeNode, int, bool]] = [(root, 0, False)]
    pop = stack.pop
    push = stack.append
    while stack:
        node, path, finished = pop()
        children = node.children.values()
        if finished:
            node.end = counter
            below = 0
            closed = -1
            for child in children:
                below |= child.rows_below | 1 << child.row
                closed &= child.closed_rows
            node.rows_below = below
            # A node where an item ends keeps its root path, set below.
            if children and not node.items:
                node.closed_rows = closed
            continue
        node.pre = counter
        node.closed_rows = path
        if node is not root:
            entry = links.get(node.row)
            if entry is None:
                links[node.row] = ([counter], [node])
            else:
                entry[0].append(counter)
                entry[1].append(node)
        counter += 1
        push((node, path, True))
        stack.extend(
            (child, path | 1 << child.row, False)
            for child in reversed(children)
        )
    return links


class PrefixTree:
    """A prefix tree over transposed-table tuples, or a projection of one.

    A tree built by :meth:`insert` has the trie root as its one source;
    :meth:`project` returns a tree over the same trie whose sources are
    ``r``-labelled nodes.  Trees are read-only once frozen.

    Attributes:
        root: the trie's virtual root node (row id -1), shared by every
            projection of the trie.
        exhausted: item ids that are in ``I(X)`` but have no remaining
            rows in this projection (the sources' terminal items).
        n_items: total items represented, including exhausted ones —
            this is ``|I(X)|`` for the node owning this projection.
    """

    def __init__(self) -> None:
        self.root = PrefixTreeNode(-1)
        # Items with an empty row list terminate at the root.
        self.exhausted: list[int] = self.root.items
        self.n_items = 0
        self._sources: Sequence[PrefixTreeNode] = (self.root,)
        # The trie's header table; None until frozen.
        self._links: Optional[_Links] = None
        self._items_cache: Optional[list[int]] = None

    @classmethod
    def from_items(cls, tuples: Iterable[tuple[int, Sequence[int]]]) -> "PrefixTree":
        """Build a frozen tree from (item id, ascending row list) tuples."""
        tree = cls()
        for item, rows in tuples:
            tree.insert(item, rows)
        tree.freeze()
        return tree

    @classmethod
    def _projection(
        cls,
        parent: "PrefixTree",
        sources: Sequence[PrefixTreeNode],
    ) -> "PrefixTree":
        tree = cls.__new__(cls)
        tree.root = parent.root
        tree._links = parent._links
        tree._sources = sources
        n_items = 0
        exhausted: list[int] = []
        for node in sources:
            n_items += node.count
            if node.items:
                exhausted.extend(node.items)
        tree.n_items = n_items
        tree.exhausted = exhausted
        tree._items_cache = None
        return tree

    def insert(self, item: int, rows: Sequence[int]) -> None:
        """Insert one tuple; an empty row list records an exhausted item."""
        if self._links is not None:
            raise ValueError("cannot insert into a frozen prefix tree")
        self.n_items += 1
        node = self.root
        for row in rows:
            child = node.children.get(row)
            if child is None:
                child = node.children[row] = PrefixTreeNode(row)
            child.count += 1
            node = child
        node.items.append(item)

    def freeze(self) -> None:
        """Index the trie for projection; no insert is allowed afterwards.

        Idempotent.  The index is written into the nodes and published
        last, so a concurrent second freeze only repeats identical work;
        callers sharing a tree across threads freeze it before sharing.
        """
        if self._links is None:
            self._links = _freeze_trie(self.root)

    def _nodes(self) -> Iterator[PrefixTreeNode]:
        """Every node strictly below the sources, in preorder."""
        for source in self._sources:
            stack = list(reversed(source.children.values()))
            while stack:
                node = stack.pop()
                yield node
                stack.extend(reversed(node.children.values()))

    @property
    def header(self) -> dict[int, list[PrefixTreeNode]]:
        """Row id -> nodes labelled with that row in this projection,
        in preorder (walked on demand)."""
        header: dict[int, list[PrefixTreeNode]] = {}
        for node in self._nodes():
            links = header.get(node.row)
            if links is None:
                header[node.row] = [node]
            else:
                links.append(node)
        return header

    def rows_present(self) -> list[int]:
        """Sorted row ids appearing in at least one tuple."""
        return sorted(self.row_frequencies())

    def row_frequencies(self) -> dict[int, int]:
        """Row id -> number of items whose tuple contains the row.

        This is the step-10 frequency scan; thanks to prefix sharing each
        trie node is visited once regardless of how many items pass
        through it.
        """
        freq: dict[int, int] = {}
        for node in self._nodes():
            freq[node.row] = freq.get(node.row, 0) + node.count
        return freq

    def rows_mask(self) -> int:
        """Bitset of the rows appearing in at least one tuple."""
        self.freeze()
        mask = 0
        for node in self._sources:
            mask |= node.rows_below
        return mask

    def closure_rows(self) -> Optional[int]:
        """``R(I(X))``: the rows every item of this projection contains,
        including rows before the projection's own (None when empty).

        The AND of the sources' ``closed_rows``, so it costs one big-int
        operation per source however many items the projection holds.
        """
        if not self.n_items:
            return None
        self.freeze()
        sources = self._sources
        closure = sources[0].closed_rows
        for node in sources:
            closure &= node.closed_rows
        return closure

    def all_items(self) -> list[int]:
        """Every item represented in this projection (``I(X)``).

        The order is the sources' own items and subtree items as a stack
        walk first touches them: one source lists its subtree with
        children in reverse order (``items_below`` itself), several list
        each source's children in order, each subtree in reverse.
        """
        items = self._items_cache
        if items is None:
            self.freeze()
            sources = self._sources
            if len(sources) == 1:
                items = _node_items_below(sources[0])
            else:
                items = []
                for node in sources:
                    items.extend(node.items)
                    for child in node.children.values():
                        items.extend(_node_items_below(child))
            self._items_cache = items
        return items

    def project(self, r: int) -> "PrefixTree":
        """The projection onto row ``r`` (rows after ``r`` only).

        Bisects row ``r``'s header links into each source's preorder
        range: the ``r``-labelled nodes below the sources become the new
        sources, and items terminating at them become exhausted.  Work is
        a bisection per source, independent of the subtree sizes.

        Projections are not memoized: one costs a few list slices, and
        a kept projection would live as long as the tree it came from.
        """
        self.freeze()
        entry = self._links.get(r)
        nodes: list[PrefixTreeNode] = []
        if entry is not None:
            pres, link_nodes = entry
            for source in self._sources:
                low = bisect_right(pres, source.pre)
                high = bisect_left(pres, source.end, low)
                if low < high:
                    nodes.extend(link_nodes[low:high])
        return PrefixTree._projection(self, nodes)

    def __repr__(self) -> str:
        return (
            f"PrefixTree(items={self.n_items}, "
            f"rows={len(self.row_frequencies())}, "
            f"exhausted={len(self.exhausted)})"
        )


def _iter_terminal_paths(
    node: PrefixTreeNode,
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (item, row path below ``node``) for all items under ``node``."""
    stack: list[tuple[PrefixTreeNode, tuple[int, ...]]] = [
        (child, (child.row,)) for child in node.children.values()
    ]
    while stack:
        current, path = stack.pop()
        for item in current.items:
            yield item, path
        for child in current.children.values():
            stack.append((child, path + (child.row,)))
