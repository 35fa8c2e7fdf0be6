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
from collections import Counter
from itertools import chain, compress
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from .bitset import bit_flags, mask_below, popcount, to_indices
from .prefix_tree import PrefixTree
from .rules import RuleGroup

if TYPE_CHECKING:  # pragma: no cover - import is for annotations only
    from ..data.dataset import DiscretizedDataset

__all__ = ["MiningView", "SupportIndex"]


# Views keyed by (consequent, minsup) per live dataset object;
# entries die with the dataset.  Guarded by a lock because the service
# mines from several job threads at once.
_VIEW_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_VIEW_CACHE_LOCK = threading.Lock()


class MiningView:
    """Row-enumeration view of a dataset for one consequent class.

    The view holds no reference to the dataset, so the view cache's
    entries (weak-keyed on the dataset) die with it.

    Attributes:
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
    """

    @classmethod
    def cached(
        cls,
        dataset: "DiscretizedDataset",
        consequent: int,
        minsup: int,
    ) -> "MiningView":
        """Return a shared view for (dataset, consequent, minsup).

        Views (and the :class:`SupportIndex` each one lazily grows) are
        pure functions of their arguments, so every miner entry point —
        direct, hybrid, pool worker — can share one instance per
        live dataset object.  The cache is weak-keyed on the dataset:
        entries disappear when the dataset is garbage collected.
        """
        with _VIEW_CACHE_LOCK:
            per_dataset = _VIEW_CACHE.get(dataset)
            if per_dataset is None:
                per_dataset = _VIEW_CACHE[dataset] = {}
            key = (consequent, minsup)
            view = per_dataset.get(key)
            if view is None:
                view = per_dataset[key] = cls(dataset, consequent, minsup)
            return view

    def __init__(
        self,
        dataset: "DiscretizedDataset",
        consequent: int,
        minsup: int,
    ) -> None:
        if minsup < 1:
            raise ValueError(f"minsup must be >= 1, got {minsup}")
        if not 0 <= consequent < max(dataset.n_classes, 1):
            raise ValueError(
                f"consequent {consequent} out of range for "
                f"{dataset.n_classes} classes"
            )
        self.consequent = consequent
        self.minsup = minsup

        # Step 1: frequent items.  A rule group's support counts only
        # consequent-class rows, so items appearing in fewer than minsup
        # such rows cannot occur in any antecedent with enough support.
        rows, labels = dataset.rows, dataset.labels
        counts = Counter(chain.from_iterable(
            row for row, label in zip(rows, labels) if label == consequent
        ))
        self.frequent_items: list[int] = sorted(
            item for item, count in counts.items() if count >= minsup
        )
        frequent = frozenset(self.frequent_items)
        restricted = [row & frequent for row in rows]

        # Class dominant order with ascending row length within each
        # class (stable sorts keep row order among equal lengths).
        positive = sorted(
            (row for row, label in enumerate(labels) if label == consequent),
            key=lambda row: len(restricted[row]),
        )
        negative = sorted(
            (row for row, label in enumerate(labels) if label != consequent),
            key=lambda row: len(restricted[row]),
        )
        self.order: list[int] = positive + negative
        self.position_of: dict[int, int] = {
            row: pos for pos, row in enumerate(self.order)
        }
        self.n_rows = dataset.n_rows
        self.n_positive = len(positive)
        self.positive_mask = mask_below(self.n_positive)

        self.row_items: list[frozenset[int]] = [
            restricted[row] for row in self.order
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
        order = self.order
        if position_bits.bit_count() <= 32:
            result = 0
            bits = position_bits
            while bits:
                low = bits & -bits
                position = low.bit_length() - 1
                bits ^= low
                result |= 1 << order[position]
            return result
        # A large set is written as binary digits, one per row, so no
        # step copies a whole int (16k rows: ~1 ms against ~20 ms).
        digits = bytearray(b"0") * self.n_rows
        for row in compress(order, bit_flags(position_bits)):
            digits[row] = 49  # ord("1")
        digits.reverse()
        return int(digits, 2)

    def rule_group(
        self, antecedent: Iterable[int], position_bits: int
    ) -> RuleGroup:
        """The rule group of ``antecedent`` whose rows are the positions
        ``position_bits``, built in original row-id space.

        Every closed-set miner (FARMER, CHARM, CLOSET+) builds its groups
        here as it finds them, so the translation runs inside the mine's
        budget; the consequent support is counted once.
        """
        support = popcount(position_bits & self.positive_mask)
        return RuleGroup(
            antecedent=frozenset(antecedent),
            consequent=self.consequent,
            row_set=self.positions_to_rows(position_bits),
            support=support,
            confidence=support / popcount(position_bits),
        )

    def closure_rows(self, items: Iterable[int]) -> Optional[int]:
        """``R(itemset)`` in position space (None for the empty itemset)."""
        result: Optional[int] = None
        for item in items:
            rows = self.item_rows[item]
            result = rows if result is None else result & rows
        return result

    def closed_items(self, position_bits: int) -> frozenset[int]:
        """``I(position set)`` over the frequent items."""
        if position_bits.bit_count() > len(self.frequent_items):
            # Fewer items to test than rows to intersect (tall data).
            item_rows = self.item_rows
            return frozenset(
                item for item in self.frequent_items
                if item_rows[item] & position_bits == position_bits
            )
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
        support set.  The keys are therefore distinct groups, each
        reaching ``minsup`` (only frequent items are kept), which is what
        lets :class:`~repro.core.topk_miner.TopkPolicy` build every
        row's seeded list in one sorted pass
        (:func:`~repro.core.rules.build_topk_lists`).
        """
        groups: dict[int, list[int]] = {}
        for item in self.frequent_items:
            groups.setdefault(self.item_rows[item], []).append(item)
        return groups


def _node_kernel(handle: tuple, mask: int) -> tuple:
    """Closures over the support tuple ``handle`` and the positive
    ``mask``; see :meth:`SupportIndex.node_kernel`.  Binding both once
    keeps attribute lookups off the per-node path."""

    def intersect_union_counts(ids):
        iterator = iter(ids)
        intersection = union = handle[next(iterator)]
        for index in iterator:
            rows = handle[index]
            intersection &= rows
            union |= rows
        return (
            intersection, union,
            (intersection & mask).bit_count(), intersection.bit_count(),
        )

    def masked_counts(bits):
        return (bits & mask).bit_count(), bits.bit_count()

    return intersect_union_counts, masked_counts


class SupportIndex:
    """Interned supports and first-level memos for one :class:`MiningView`.

    The enumeration walk spends most of its nodes on the first level
    of the row enumeration tree (one subtree per row), and everything
    computed there — item lists, closures, candidate sets, the projected
    prefix tree — is a pure function of the view.  This index

    * interns the item support bitsets (equal supports share one ``int``
      object, so repeated intersections reuse cached small-int paths),
    * binds the fused per-node folds over those supports
      (:meth:`node_kernel`) the engines call once per node instead of
      once per item,
    * precomputes per-item popcounts (also the planner's work estimate),
      and
    * holds ``first_level``, one memo per engine of its projection step
      at the root frame, which the walk fills as it expands each root
      row.

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

    def __init__(self, view: MiningView) -> None:
        # The index keeps the view's fields, not the view: the view holds
        # the index, and a back reference would make every view and its
        # memos cyclic garbage, freed only by the cycle collector.
        self.frequent_items = view.frequent_items
        interned: dict[int, int] = {}
        self.item_rows: list[int] = [
            interned.setdefault(rows, rows) for rows in view.item_rows
        ]
        self.item_counts: list[int] = [
            rows.bit_count() for rows in self.item_rows
        ]
        # Per-item positive supports, so the single-item fast path of the
        # bitset engine reads both counts instead of re-counting the closure.
        positive_mask = view.positive_mask
        self.item_pos_counts: list[int] = [
            (rows & positive_mask).bit_count() for rows in self.item_rows
        ]
        self.support_mass: int = sum(
            self.item_counts[item] for item in view.frequent_items
        )
        self._kernel = _node_kernel(tuple(self.item_rows), positive_mask)
        # Engine name -> root row -> the engine's first-level step
        # result, filled by the walk (see repro.core.enumeration).
        self.first_level: dict[str, dict[int, object]] = {}
        self._root_tree = None

    def node_kernel(self) -> tuple[Callable, Callable]:
        """The fused per-node folds over the supports and positive mask.

        Returns ``(intersect_union_counts, masked_counts)``:

        * ``intersect_union_counts(ids)`` -> ``(inter, union,
          popcount(inter & mask), popcount(inter))``, folding ``&`` and
          ``|`` over the supports of the (non-empty) item ids — the
          bitset engine's closure;
        * ``masked_counts(bits)`` -> ``(popcount(bits & mask),
          popcount(bits))`` for one freshly derived bitset — the tree
          engine's closure (read off the prefix tree) and the bitset and
          tree engines' candidate sets.

        The closures are built once per index and hold no per-walk
        state, so every run (and thread) shares them.
        """
        return self._kernel

    def root_tree(self):
        """The root prefix tree of the tree engine, built once per view.

        The tree is read-only once built, so concurrent mines share it;
        two that race on the first build each build an identical tree.
        """
        tree = self._root_tree
        if tree is None:
            tree = self._root_tree = PrefixTree.from_items(
                (item, to_indices(self.item_rows[item]))
                for item in self.frequent_items
            )
        return tree
