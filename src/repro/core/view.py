"""The mining view: a dataset prepared for row enumeration.

``MineTopkRGS`` (Figure 3, steps 1-3) starts by removing infrequent items,
splitting rows into the consequent class ``D_p`` and the rest ``D_n``, and
imposing the *class dominant order* (Definition 3.1): all class-``C`` rows
before all others, each class sorted by ascending number of frequent items
(Section 4.1.2's ordering refinement).  :class:`MiningView` performs that
preparation once and exposes the result in *position space* — rows are
renumbered 0..n-1 in enumeration order so that row bitsets, class masks and
"rows after r" checks are all cheap integer operations.

Every enumeration engine (bitset, projected-table, prefix-tree) and every
policy (top-k, FARMER) works against this one view.
"""

from __future__ import annotations

import threading
import weakref
from typing import TYPE_CHECKING, Optional, Sequence, Union

from .backends import BitsetBackend, resolve_backend
from .bitset import mask_below, popcount

if TYPE_CHECKING:  # pragma: no cover - import is for annotations only
    from ..data.dataset import DiscretizedDataset

__all__ = ["MiningView", "SupportIndex"]


# Views keyed by (consequent, minsup, backend) per live dataset object;
# entries die with the dataset.  Guarded by a lock because the service
# mines from several job threads at once.
_VIEW_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_VIEW_CACHE_LOCK = threading.Lock()


class MiningView:
    """Row-enumeration view of a dataset for one consequent class.

    Attributes:
        dataset: the underlying discretized dataset.
        consequent: class id the mined rule groups conclude.
        minsup: absolute minimum support (rows of the consequent class).
        n_rows: number of rows (same as the dataset).
        n_positive: number of consequent-class rows; they occupy positions
            ``0..n_positive-1`` in the class dominant order.
        order: position -> original row index.
        position_of: original row index -> position.
        frequent_items: item ids whose consequent-class support reaches
            ``minsup``, in ascending id order.
        item_rows: item id -> bitset of positions containing the item
            (restricted to frequent items; infrequent items map to 0).
        row_items: position -> frozenset of frequent item ids.
        positive_mask: bitset of consequent-class positions.
        backend: the resolved :class:`~repro.core.backends.BitsetBackend`
            executing the batch bitset operations of the support index.
    """

    @classmethod
    def cached(
        cls,
        dataset: "DiscretizedDataset",
        consequent: int,
        minsup: int,
        backend: Optional[Union[str, BitsetBackend]] = None,
    ) -> "MiningView":
        """Return a shared view for (dataset, consequent, minsup, backend).

        Views (and the :class:`SupportIndex` each one lazily grows) are
        pure functions of their arguments, so every miner entry point —
        serial, sharded, merge, pool worker — can share one instance per
        live dataset object.  The cache is weak-keyed on the dataset:
        entries disappear when the dataset is garbage collected.  The
        resolved backend name is part of the key because the support
        index binds backend-encoded support tables.
        """
        resolved = resolve_backend(backend, n_rows=dataset.n_rows)
        with _VIEW_CACHE_LOCK:
            per_dataset = _VIEW_CACHE.get(dataset)
            if per_dataset is None:
                per_dataset = _VIEW_CACHE[dataset] = {}
            key = (consequent, minsup, resolved.name)
            view = per_dataset.get(key)
            if view is None:
                view = per_dataset[key] = cls(
                    dataset, consequent, minsup, backend=resolved
                )
            return view

    def __init__(
        self,
        dataset: "DiscretizedDataset",
        consequent: int,
        minsup: int,
        backend: Optional[Union[str, BitsetBackend]] = None,
    ) -> None:
        if minsup < 1:
            raise ValueError(f"minsup must be >= 1, got {minsup}")
        if not 0 <= consequent < max(dataset.n_classes, 1):
            raise ValueError(
                f"consequent {consequent} out of range for "
                f"{dataset.n_classes} classes"
            )
        self.dataset = dataset
        self.consequent = consequent
        self.minsup = minsup
        # "auto" resolves here because the row count is known.
        self.backend: BitsetBackend = resolve_backend(
            backend, n_rows=dataset.n_rows
        )

        # Step 1: frequent items.  A rule group's support counts only
        # consequent-class rows, so items appearing in fewer than minsup
        # such rows cannot occur in any antecedent with enough support.
        class_rows = [
            row for row, label in zip(dataset.rows, dataset.labels)
            if label == consequent
        ]
        counts: dict[int, int] = {}
        for row in class_rows:
            for item in row:
                counts[item] = counts.get(item, 0) + 1
        self.frequent_items: list[int] = sorted(
            item for item, count in counts.items() if count >= minsup
        )
        frequent = frozenset(self.frequent_items)

        # Class dominant order with ascending row length within each class.
        def _length(row_index: int) -> int:
            return len(dataset.rows[row_index] & frequent)

        positive = sorted(dataset.rows_of_class(consequent), key=_length)
        negative = sorted(
            (
                row
                for row in range(dataset.n_rows)
                if dataset.labels[row] != consequent
            ),
            key=_length,
        )
        self.order: list[int] = positive + negative
        self.position_of: dict[int, int] = {
            row: pos for pos, row in enumerate(self.order)
        }
        self.n_rows = dataset.n_rows
        self.n_positive = len(positive)
        self.positive_mask = mask_below(self.n_positive)

        self.row_items: list[frozenset[int]] = [
            dataset.rows[row] & frequent for row in self.order
        ]
        max_item = (max(frequent) + 1) if frequent else 0
        self.item_rows: list[int] = [0] * max_item
        for position, items in enumerate(self.row_items):
            mark = 1 << position
            for item in items:
                self.item_rows[item] |= mark
        self._support_index: Optional["SupportIndex"] = None

    def support_index(self) -> "SupportIndex":
        """The lazily built :class:`SupportIndex` of this view.

        Concurrent first calls may build the index twice; both builds are
        identical and the assignment is atomic, so the race is benign.
        """
        index = self._support_index
        if index is None:
            index = self._support_index = SupportIndex(self)
        return index

    def positions_to_rows(self, position_bits: int) -> int:
        """Translate a position-space bitset to an original-row bitset."""
        result = 0
        bits = position_bits
        while bits:
            low = bits & -bits
            position = low.bit_length() - 1
            bits ^= low
            result |= 1 << self.order[position]
        return result

    def closure_rows(self, items: Sequence[int]) -> Optional[int]:
        """``R(itemset)`` in position space (None for the empty itemset)."""
        result: Optional[int] = None
        for item in items:
            rows = self.item_rows[item]
            result = rows if result is None else result & rows
        return result

    def closed_items(self, position_bits: int) -> frozenset[int]:
        """``I(position set)`` over the frequent items."""
        common: Optional[frozenset[int]] = None
        bits = position_bits
        while bits:
            low = bits & -bits
            position = low.bit_length() - 1
            bits ^= low
            items = self.row_items[position]
            common = items if common is None else common & items
            if not common:
                return frozenset()
        return common if common is not None else frozenset()

    def positive_count(self, position_bits: int) -> int:
        """Number of consequent-class rows in a position bitset."""
        return popcount(position_bits & self.positive_mask)

    def single_item_groups(self) -> dict[int, list[int]]:
        """Distinct single-item support sets, for the initialization step.

        Returns a mapping from position-space row bitset to the list of
        frequent items having exactly that support set.  Items sharing a
        support set belong to the same rule group — the paper's caveat
        that two single items initializing one row's list must not be
        lower bounds of the same upper bound is honoured by keying on the
        support set.
        """
        groups: dict[int, list[int]] = {}
        for item in self.frequent_items:
            groups.setdefault(self.item_rows[item], []).append(item)
        return groups


class SupportIndex:
    """Interned supports and first-level memos for one :class:`MiningView`.

    The enumeration kernels spend most of their nodes on the first level
    of the row enumeration tree (one subtree per row), and everything
    computed there — item lists, closures, candidate sets, the projected
    prefix tree — is a pure function of the view.  This index

    * interns the item support bitsets (equal supports share one ``int``
      object, so repeated intersections reuse cached small-int paths and
      the pair memo below can key on identity-cheap tuples),
    * encodes the interned supports once through the view's backend and
      exposes the batch folds (:meth:`intersect_many`,
      :meth:`intersect_union_many`, :meth:`popcount_many`) the kernels
      call once per node instead of once per item,
    * precomputes per-item popcounts (also the planner's work estimate),
    * memoizes pairwise support intersections on demand, and
    * memoizes the complete first-level node data per engine family.

    Memoized values are *data only*: pruning decisions and budget charges
    still happen per run against the live policy, so
    :class:`~repro.core.enumeration.MinerStats` and results are
    bit-identical with or without a warm index.  The ``table`` engine
    deliberately takes no first-level memo — it exists to preserve
    FARMER's per-node scan cost profile for the Figure 6 comparisons.

    Instances attach to a view (see :meth:`MiningView.support_index`) and
    share its lifetime; writes from concurrent miners race benignly
    because every writer computes the same value.
    """

    EMPTY = ("empty",)
    BACKWARD = ("backward",)

    def __init__(self, view: MiningView) -> None:
        self.view = view
        self.backend = view.backend
        interned: dict[int, int] = {}
        self.item_rows: list[int] = [
            interned.setdefault(rows, rows) for rows in view.item_rows
        ]
        self._handle = self.backend.encode_supports(self.item_rows, view.n_rows)
        # The positive-class mask in the backend's native representation:
        # encoded once per index, consumed by every fused counting fold —
        # array backends never re-pack it per node.
        self.mask_handle = self.backend.encode_mask(
            view.positive_mask, view.n_rows
        )
        self.item_counts: list[int] = self.backend.popcount_many(self.item_rows)
        # Per-item positive supports, so the single-item fast path of the
        # kernels reads both counts instead of re-counting the closure.
        positive_mask = view.positive_mask
        self.item_pos_counts: list[int] = self.backend.popcount_many(
            [rows & positive_mask for rows in self.item_rows]
        )
        self.support_mass: int = sum(
            self.item_counts[item] for item in view.frequent_items
        )
        self._pairs: dict[tuple[int, int], int] = {}
        self._bitset_roots: dict[int, tuple] = {}
        self._tree_roots: dict[int, tuple] = {}
        self._root_tree = None

    # -- batch operations over the encoded support table -------------------

    def intersect_many(self, items: Sequence[int]) -> int:
        """``R(itemset)``: one backend fold over the items' supports."""
        return self.backend.intersect_many(self._handle, items)

    def intersect_union_many(self, items: Sequence[int]) -> tuple[int, int]:
        """Closure and union of the items' supports in one backend call."""
        return self.backend.intersect_union_many(self._handle, items)

    def popcount_many(self, bitsets: Sequence[int]) -> list[int]:
        """Population counts of freshly derived masks, batched."""
        return self.backend.popcount_many(bitsets)

    def node_kernel(self):
        """Fused per-walk kernel over the encoded supports and mask.

        Returns a fresh :class:`~repro.core.backends.base.NodeKernel`
        bound to this index's handle and positive-mask encoding.  One
        kernel per enumeration run: backends cache walk-private scratch
        buffers inside it, so kernels must not be shared across threads.
        """
        return self.backend.node_kernel(self._handle, self.mask_handle)

    def pair_rows(self, first: int, second: int) -> int:
        """Memoized ``R({first}) ∩ R({second})`` for two item ids."""
        key = (first, second) if first <= second else (second, first)
        rows = self._pairs.get(key)
        if rows is None:
            rows = self._pairs[key] = self.item_rows[first] & self.item_rows[second]
        return rows

    def bitset_root(self, r: int) -> tuple:
        """First-level node data of the bitset engine for root row ``r``.

        Returns :data:`EMPTY`, :data:`BACKWARD`, or ``("node", new_items,
        closure, new_cand, new_x_p, new_x_n, m_p, new_r_n,
        new_threshold)`` — exactly the values the kernel would compute at
        the root frame, where the candidate set is always "rows after r".
        """
        entry = self._bitset_roots.get(r)
        if entry is None:
            entry = self._bitset_roots[r] = self._compute_bitset_root(r)
        return entry

    def _compute_bitset_root(self, r: int) -> tuple:
        view = self.view
        new_items = sorted(view.row_items[r])
        if not new_items:
            return self.EMPTY
        if len(new_items) == 1:
            item = new_items[0]
            closure = union = self.item_rows[item]
            x_pos = self.item_pos_counts[item]
            x_all = self.item_counts[item]
        else:
            closure, union, x_pos, x_all = self.backend.intersect_union_counts(
                self._handle, new_items, self.mask_handle
            )
        r_bit = 1 << r
        if closure & (r_bit - 1):
            return self.BACKWARD
        positive_mask = view.positive_mask
        above = mask_below(view.n_rows) & ~(r_bit | (r_bit - 1))
        new_cand = above & union & ~closure
        if new_cand:
            cand_pos, cand_all = self.backend.masked_counts(
                new_cand, self.mask_handle
            )
        else:
            cand_pos = cand_all = 0
        new_x_p = x_pos
        new_x_n = x_all - x_pos
        m_p = cand_pos
        new_r_n = cand_all - cand_pos
        new_threshold = (closure | new_cand) & positive_mask
        return (
            "node", new_items, closure, new_cand,
            new_x_p, new_x_n, m_p, new_r_n, new_threshold,
        )

    def root_tree(self):
        """The root prefix tree of the tree engine, built once per view."""
        tree = self._root_tree
        if tree is None:
            from .prefix_tree import PrefixTree
            from .bitset import iter_indices

            view = self.view
            tree = self._root_tree = PrefixTree.from_items(
                (item, sorted(iter_indices(view.item_rows[item])))
                for item in view.frequent_items
            )
        return tree

    def tree_root(self, r: int) -> tuple:
        """First-level node data of the tree engine for root row ``r``.

        Returns :data:`EMPTY`, :data:`BACKWARD`, or ``("node", projected,
        new_items, closure, new_x_p, new_x_n, child_cand, m_p,
        cand_pos_bits, new_r_n, new_threshold)``.  The projected subtree
        is shared across runs; kernels only read projected trees.
        """
        entry = self._tree_roots.get(r)
        if entry is None:
            entry = self._tree_roots[r] = self._compute_tree_root(r)
        return entry

    def _compute_tree_root(self, r: int) -> tuple:
        view = self.view
        projected = self.root_tree().project(r)
        if projected.n_items == 0:
            return self.EMPTY
        new_items = projected.all_items()
        closure, x_pos, x_all = self.backend.intersect_counts(
            self._handle, new_items, self.mask_handle
        )
        r_bit = 1 << r
        if closure & (r_bit - 1):
            return self.BACKWARD
        positive_mask = view.positive_mask
        n_positive = view.n_positive
        new_cand_rows = [
            row for row in projected.row_frequencies() if not closure >> row & 1
        ]
        new_x_p = x_pos
        new_x_n = x_all - x_pos
        m_p = 0
        cand_pos_bits = 0
        for row in new_cand_rows:
            if row < n_positive:
                m_p += 1
                cand_pos_bits |= 1 << row
        new_r_n = len(new_cand_rows) - m_p
        new_threshold = (closure & positive_mask) | cand_pos_bits
        child_cand = sorted(new_cand_rows)
        return (
            "node", projected, new_items, closure,
            new_x_p, new_x_n, child_cand, m_p, cand_pos_bits,
            new_r_n, new_threshold,
        )
