"""Rules, rule groups, and the significance orders of the paper.

A *rule* is ``A -> C`` where ``A`` is a set of items and ``C`` a class
label.  A *rule group* (Definition 2.1) is the equivalence class of all
rules with the same antecedent support set; it is represented here by its
unique upper bound: the closed antecedent ``I(R(A))`` together with the row
support set.  Support and confidence follow Section 2: support is
``|R(A ∪ C)|`` (rows of class ``C`` containing ``A``) and confidence is
``|R(A ∪ C)| / |R(A)|``.

Two orders matter:

* the *significance* order of Definition 2.2 (confidence first, then
  support), used to rank candidate members of the per-row top-k lists, and
* the CBA total order ``≺`` of Section 2.2 Step 2 (confidence, support,
  then shorter antecedent / earlier discovery), used when building
  classifiers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterable, Optional

from .bitset import popcount, to_indices

__all__ = [
    "Rule",
    "RuleGroup",
    "significance_key",
    "more_significant",
    "cba_sort_key",
    "TopKList",
    "build_topk_lists",
]


@dataclass(frozen=True)
class Rule:
    """A single association rule ``antecedent -> consequent``.

    Attributes:
        antecedent: frozen set of item ids.
        consequent: class label id.
        support: absolute support, ``|R(A ∪ C)|``.
        confidence: ``support / |R(A)|``.
    """

    antecedent: frozenset[int]
    consequent: int
    support: int
    confidence: float

    def __len__(self) -> int:
        return len(self.antecedent)

    def matches(self, row_items: frozenset[int]) -> bool:
        """Return True iff the rule's antecedent is contained in the row."""
        return self.antecedent <= row_items

    def describe(self, item_namer=None) -> str:
        """Human-readable rendering, optionally naming items via a callable."""
        namer = item_namer if item_namer is not None else str
        items = ", ".join(namer(i) for i in sorted(self.antecedent))
        return (
            f"{{{items}}} -> class {self.consequent} "
            f"(sup={self.support}, conf={self.confidence:.3f})"
        )


@dataclass(frozen=True)
class RuleGroup:
    """A rule group, represented by its unique upper bound.

    Attributes:
        antecedent: the closed antecedent ``I(R(A))`` as a frozenset of
            item ids (the upper bound rule's antecedent).
        consequent: class label id.
        row_set: bitset of all rows containing the antecedent (``R(A)``).
        support: ``|R(A ∪ C)|`` — rows of the consequent class in
            ``row_set``.
        confidence: ``support / |row_set|``.
    """

    antecedent: frozenset[int]
    consequent: int
    row_set: int
    support: int
    confidence: float

    @classmethod
    def from_row_set(
        cls,
        antecedent: Iterable[int],
        consequent: int,
        row_set: int,
        class_mask: int,
    ) -> "RuleGroup":
        """Build a group from its support set and the consequent class mask.

        ``class_mask`` is the bitset of all rows labelled with the
        consequent class; support and confidence are derived from it.
        """
        total = popcount(row_set)
        sup = popcount(row_set & class_mask)
        conf = sup / total if total else 0.0
        return cls(frozenset(antecedent), consequent, row_set, sup, conf)

    @property
    def total_support(self) -> int:
        """``|R(A)|`` — rows of any class containing the antecedent."""
        return popcount(self.row_set)

    def covered_rows(self, class_mask: int) -> list[int]:
        """Row ids of the consequent class covered by this group."""
        return to_indices(self.row_set & class_mask)

    def upper_bound_rule(self) -> Rule:
        """The upper bound rule of this group."""
        return Rule(self.antecedent, self.consequent, self.support, self.confidence)

    def describe(self, item_namer=None) -> str:
        namer = item_namer if item_namer is not None else str
        items = ", ".join(namer(i) for i in sorted(self.antecedent))
        return (
            f"RG{{{items}}} -> class {self.consequent} "
            f"(sup={self.support}, conf={self.confidence:.3f}, "
            f"|R(A)|={self.total_support})"
        )


def significance_key(group: RuleGroup) -> tuple[float, int]:
    """Sort key implementing Definition 2.2 (larger key = more significant)."""
    return (group.confidence, group.support)


def more_significant(first: RuleGroup, second: RuleGroup) -> bool:
    """Return True iff ``first`` is strictly more significant (Def. 2.2)."""
    if first.confidence != second.confidence:
        return first.confidence > second.confidence
    return first.support > second.support


def cba_sort_key(rule: Rule, discovery_index: int) -> tuple[float, int, int, int]:
    """Key for the CBA precedence ``≺`` (sort ascending = best first).

    Higher confidence first, then higher support, then shorter antecedent
    (CBA's breadth-first discovery picks the shortest), then earlier
    discovery.
    """
    return (-rule.confidence, -rule.support, len(rule.antecedent), discovery_index)


@dataclass
class TopKList:
    """The top-k covering rule group list of a single row.

    Maintains up to ``k`` rule groups ordered from most to least
    significant.  Entries are keyed by their row support set so that the
    same rule group (possibly discovered provisionally via the single-item
    initialization optimization of Section 4.1.1) is never duplicated and
    can be upgraded in place once its closed upper bound is found.

    Confidence/support ties are broken *canonically by content*: the full
    sort key is ``(-confidence, -support, canonical row set)``, where the
    canonical row set is ``canonical_key(group)`` when provided (the
    miner passes a position-to-row translator so ties compare in original
    row space) and ``group.row_set`` otherwise.  The key is a total order
    over distinct groups, so the surviving members of a boundary tie
    class depend only on the offered population — never on arrival
    order.  That is what lets the direct and the hybrid partitioned
    miners converge to bit-identical lists.

    When a whole population is known up front,
    :func:`build_topk_lists` builds every row's ``groups`` in one sorted
    pass; the miner does that at finalize instead of offering during its
    walk.  :meth:`offer` grows a list from groups in no particular order
    (the initial ``groups`` below, the tests' offer-by-offer references,
    and perfbench's tracer, which patches it by name).  The list keeps
    two derived structures alongside ``groups``:

    * ``_keys`` — the full sort keys in ascending order, so an insertion
      position comes from one :func:`bisect.bisect_right` call.
    * ``_members`` — ``(row_set, consequent) -> RuleGroup`` for O(1)
      duplicate detection.

    ``kth_conf``/``kth_sup`` cache :meth:`kth_threshold` so the dynamic
    pruning bounds of Equations 1-2 read two attributes per row instead
    of calling a method.  All mutation goes through :meth:`offer`, which
    keeps every derived structure in sync.

    Initial ``groups`` are offered one by one, so they may come in any
    order: the list keeps the ``k`` smallest keys, and duplicates of one
    ``(row_set, consequent)`` collapse to the longest antecedent, exactly
    as if each had been offered.
    """

    k: int
    groups: list[RuleGroup] = field(default_factory=list)
    canonical_key: Optional[Callable[[RuleGroup], int]] = None

    def __post_init__(self) -> None:
        initial = self.groups
        self.groups = []
        self._keys: list[tuple[float, int, int]] = []
        self._members: dict[tuple[int, int], RuleGroup] = {}
        self._refresh_kth()
        for group in initial:
            self.offer(group)

    def _key(self, group: RuleGroup) -> tuple[float, int, int]:
        canon = self.canonical_key
        rows = group.row_set if canon is None else canon(group)
        return (-group.confidence, -group.support, rows)

    def _refresh_kth(self) -> None:
        if len(self.groups) < self.k:
            self.kth_conf = 0.0
            self.kth_sup = 0
        else:
            last = self.groups[-1]
            self.kth_conf = last.confidence
            self.kth_sup = last.support

    def kth_threshold(self) -> tuple[float, int]:
        """Confidence and support of the k-th entry (0, 0 if underfull).

        This is the per-row contribution to the dynamic ``minconf`` and
        ``sup`` thresholds of Equations 1 and 2.
        """
        return (self.kth_conf, self.kth_sup)

    def would_accept(self, confidence: float, support: int) -> bool:
        """Return True iff a group with these stats *could* enter the list.

        Non-strict at exact ``(kth_conf, kth_sup)`` equality: a boundary
        tie member may still displace the current k-th entry under the
        canonical content tie-break, so pruning on this predicate must
        not discard it.  :meth:`offer` settles exact ties with the full
        key.
        """
        if confidence != self.kth_conf:
            return confidence > self.kth_conf
        return support >= self.kth_sup

    def offer(self, group: RuleGroup) -> bool:
        """Offer a group to the list; return True if the list changed.

        A group already present (same row support set) upgrades the stored
        antecedent — this realises the paper's "update the single item with
        the upper bound rule" adaptation of Step 13.
        """
        identity = (group.row_set, group.consequent)
        existing = self._members.get(identity)
        if existing is not None:
            if len(group.antecedent) > len(existing.antecedent):
                # Same row set means same sort key, so the upgrade
                # replaces in place without disturbing the order; bisect
                # narrows the identity scan to the equal-key run.
                index = bisect_left(self._keys, self._key(existing))
                groups = self.groups
                while groups[index] is not existing:
                    index += 1
                groups[index] = group
                self._members[identity] = group
                return True
            return False
        if not self.would_accept(group.confidence, group.support):
            return False
        key = self._key(group)
        index = bisect_right(self._keys, key)
        if index >= self.k and len(self.groups) >= self.k:
            # An exact (confidence, support) tie with the k-th entry that
            # loses the canonical tie-break would be popped right back.
            return False
        self.groups.insert(index, group)
        self._keys.insert(index, key)
        self._members[identity] = group
        if len(self.groups) > self.k:
            dropped = self.groups.pop()
            self._keys.pop()
            del self._members[(dropped.row_set, dropped.consequent)]
        self._refresh_kth()
        return True

    def __iter__(self):
        return iter(self.groups)

    def __len__(self) -> int:
        return len(self.groups)

    def __getitem__(self, index: int) -> RuleGroup:
        return self.groups[index]


def _stats_key(group: RuleGroup) -> tuple[float, int]:
    return (-group.confidence, -group.support)


def build_topk_lists(
    k: int,
    groups: Iterable[RuleGroup],
    rows: int,
    canonical_key: Optional[Callable[[RuleGroup], int]] = None,
) -> dict[int, list[RuleGroup]]:
    """Every row's top-k list of a known group population, in one pass.

    Offering a row every group that covers it leaves exactly the ``k``
    smallest full keys ``(-confidence, -support, canonical rows)`` among
    those groups (see :class:`TopKList`).  When the whole population is
    known up front that set is found directly: sort the groups once by
    ``(-confidence, -support)``, order each exact-tie run by its
    canonical key, and walk the result handing every row the first ``k``
    groups that cover it.  A bitset of rows whose lists are still short
    shrinks as lists fill, and the walk stops once it is empty.

    The canonical key is computed only for tied groups that reach a row
    whose list is still short, once per group however many lists it
    enters.

    Args:
        k: list length.
        groups: distinct rule groups (no two share ``(row_set,
            consequent)``).
        rows: bitset of the rows to build lists for; a group covers row
            ``r`` of these iff bit ``r`` of its ``row_set`` is set.
        canonical_key: the lists' tie-break translator (as for
            :class:`TopKList`); ``None`` compares raw row sets.

    Returns:
        Row -> its groups, most significant first, for every set bit of
        ``rows``: the ``groups`` of a :class:`TopKList` offered them.
    """
    canon = (
        canonical_key if canonical_key is not None else attrgetter("row_set")
    )
    members: dict[int, list[RuleGroup]] = {row: [] for row in to_indices(rows)}
    ranked = sorted(groups, key=_stats_key)
    open_rows = rows
    start, n_ranked = 0, len(ranked)
    while start < n_ranked and open_rows:
        first = ranked[start]
        conf, sup = first.confidence, first.support
        stop = start + 1
        while (
            stop < n_ranked
            and ranked[stop].support == sup
            and ranked[stop].confidence == conf
        ):
            stop += 1
        run = [
            group for group in ranked[start:stop] if group.row_set & open_rows
        ]
        if len(run) > 1:
            # An exact (confidence, support) tie: the canonical key decides.
            run.sort(key=canon)
        start = stop
        for group in run:
            for row in to_indices(group.row_set & open_rows):
                row_members = members[row]
                row_members.append(group)
                if len(row_members) == k:
                    open_rows ^= 1 << row
    return members
